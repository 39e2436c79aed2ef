//! Distributed network-intrusion detection — the paper's §2 motivating
//! application ("online analysis of streams of connection request logs
//! and identifying unusual patterns … analysis be performed in a
//! distributed fashion, and connection request logs at a number of
//! sites be analyzed").
//!
//! Pipeline: per-site log sources → per-site *sketcher* stages → central
//! *correlator*. Each connection event is a `(source, destination)`
//! address pair. The sketcher runs two detectors over bounded state:
//!
//! * **volume** — Misra–Gries top talkers catch *flooders* (one source
//!   hammering the site);
//! * **spread** — per-candidate HyperLogLog sketches of distinct
//!   destinations catch *scanners* (one source probing many targets with
//!   little volume — invisible to frequency summaries).
//!
//! A Bloom-filter **allowlist** suppresses reports for vetted sources
//! (e.g. the site's own monitoring hosts). Reports are flushed
//! periodically; the correlator merges volume counts by addition and
//! HLLs by register-wise max (a lossless union) and raises alerts
//! against global thresholds.
//!
//! The report size (entries per flush) is the stage's adjustment
//! parameter, adapted by the middleware exactly like count-samps' `k`.
//!
//! ## Wire format (summary packets)
//!
//! `u32 n_vol`, `u32 n_scan`, `u64 site_events`, then `n_vol` ×
//! (`u64 src`, `u64 count`), then `n_scan` × (`u64 src`, `u32 reg_len`,
//! `reg_len` register bytes).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;

use gates_core::adapt::AdaptationConfig;
use gates_core::{
    CostModel, Direction, Packet, ParamId, PayloadReader, PayloadWriter, SourceStatus, StageApi,
    StageBuilder, StreamProcessor, Topology,
};
use gates_grid::{AppConfig, ApplicationRepository};
use gates_net::{Bandwidth, LinkSpec};
use gates_sim::rng::seeded_stream;
use gates_sim::SimDuration;
use gates_streams::{BloomFilter, HyperLogLog, MisraGries, ZipfGenerator};

/// HLL size per scan candidate: 2^6 = 64 registers (64 B on the wire,
/// ~13% standard error — plenty to separate "8 destinations" from
/// "800").
const HLL_B: u32 = 6;

/// Parameters of an intrusion-detection run.
#[derive(Debug, Clone)]
pub struct IntrusionParams {
    /// Number of monitored sites.
    pub sites: usize,
    /// Connection events per site.
    pub events_per_site: u64,
    /// Events per second per site.
    pub rate_per_sec: f64,
    /// Events per packet.
    pub batch: u32,
    /// Background source-address population (Zipf-distributed).
    pub address_space: usize,
    /// Zipf exponent of the background traffic. Kept mild (default 0.6)
    /// so legitimate popular addresses stay below the alert threshold.
    pub background_skew: f64,
    /// Distinct destination addresses in background traffic.
    pub dest_space: usize,
    /// Injected *flooder* addresses (high volume, few destinations).
    pub flooders: usize,
    /// Fraction of each site's traffic belonging to flooders.
    pub flood_fraction: f64,
    /// Injected *scanner* addresses (low volume, many distinct
    /// destinations).
    pub scanners: usize,
    /// Fraction of each site's traffic belonging to scanners.
    pub scan_fraction: f64,
    /// Allowlisted source addresses (never reported).
    pub allowlist: Vec<u64>,
    /// Sketcher report size (entries per flush); adaptive in `[8, 128]`
    /// when `adaptive` is set.
    pub report_size: f64,
    /// Enable middleware adaptation of the report size.
    pub adaptive: bool,
    /// Flush period in events.
    pub flush_every: u64,
    /// Site-to-center link bandwidth.
    pub bandwidth: Bandwidth,
    /// Volume alert: flag sources whose merged count exceeds this
    /// fraction of total observed events.
    pub alert_fraction: f64,
    /// Scan alert: flag sources contacting at least this many distinct
    /// destinations (merged estimate). Keep it above `dest_space` so
    /// benign sources — whose reach is bounded by the background
    /// destination population — can never trip it.
    pub scan_threshold: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IntrusionParams {
    fn default() -> Self {
        IntrusionParams {
            sites: 4,
            events_per_site: 20_000,
            rate_per_sec: 2_000.0,
            batch: 50,
            address_space: 10_000,
            background_skew: 0.6,
            dest_space: 200,
            flooders: 2,
            flood_fraction: 0.10,
            scanners: 2,
            scan_fraction: 0.02,
            allowlist: Vec::new(),
            report_size: 32.0,
            adaptive: false,
            flush_every: 1_000,
            bandwidth: Bandwidth::kb_per_sec(50.0),
            alert_fraction: 0.02,
            scan_threshold: 300.0,
            seed: 99,
        }
    }
}

/// A raised alert.
#[derive(Debug, Clone, PartialEq)]
pub enum Alert {
    /// Source exceeding the global volume threshold.
    Flood {
        /// The offending source address.
        src: u64,
        /// Merged request count.
        count: u64,
    },
    /// Source contacting too many distinct destinations.
    Scan {
        /// The offending source address.
        src: u64,
        /// Merged distinct-destination estimate.
        distinct: f64,
    },
}

impl Alert {
    /// The flagged source address.
    pub fn src(&self) -> u64 {
        match *self {
            Alert::Flood { src, .. } | Alert::Scan { src, .. } => src,
        }
    }
}

/// Shared results, read once the run is over.
#[derive(Debug, Clone, Default)]
pub struct IntrusionHandles {
    /// Injected flooder addresses (ground truth).
    pub flooders: Arc<Mutex<Vec<u64>>>,
    /// Injected scanner addresses (ground truth).
    pub scanners: Arc<Mutex<Vec<u64>>>,
    /// Alerts raised by the correlator. It writes them when its input
    /// streams end; a run stopped before end of stream leaves them as
    /// they were.
    pub alerts: Arc<Mutex<Vec<Alert>>>,
}

impl IntrusionHandles {
    fn detection(&self, truth: &[u64], matches: impl Fn(&Alert) -> bool) -> f64 {
        if truth.is_empty() {
            return 1.0;
        }
        let alerts = self.alerts.lock();
        let hit =
            truth.iter().filter(|t| alerts.iter().any(|a| a.src() == **t && matches(a))).count();
        hit as f64 / truth.len() as f64
    }

    /// Fraction of injected flooders flagged by a flood alert.
    pub fn flood_recall(&self) -> f64 {
        let truth = self.flooders.lock().clone();
        self.detection(&truth, |a| matches!(a, Alert::Flood { .. }))
    }

    /// Fraction of injected scanners flagged by a scan alert.
    pub fn scan_recall(&self) -> f64 {
        let truth = self.scanners.lock().clone();
        self.detection(&truth, |a| matches!(a, Alert::Scan { .. }))
    }

    /// Fraction of raised alerts that point at real attackers.
    pub fn precision(&self) -> f64 {
        let alerts = self.alerts.lock();
        if alerts.is_empty() {
            return 1.0;
        }
        let flooders = self.flooders.lock();
        let scanners = self.scanners.lock();
        let hit = alerts
            .iter()
            .filter(|a| flooders.contains(&a.src()) || scanners.contains(&a.src()))
            .count();
        hit as f64 / alerts.len() as f64
    }
}

// ---------------------------------------------------------------------------
// Processors
// ---------------------------------------------------------------------------

/// Connection-log source: Zipf background plus flooder and scanner
/// injections. Each record is 16 bytes: `src u64`, `dst u64`.
struct LogSource {
    stream_id: u32,
    remaining: u64,
    batch: u32,
    interval: SimDuration,
    background: ZipfGenerator,
    dest_space: u64,
    flooders: Vec<u64>,
    flood_fraction: f64,
    scanners: Vec<u64>,
    scan_fraction: f64,
    /// Scanners sweep destinations sequentially (the classic probe).
    scan_cursor: u64,
    rng: SmallRng,
    seq: u64,
}

impl StreamProcessor for LogSource {
    fn process(&mut self, _packet: Packet, _api: &mut StageApi) {}

    fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
        if self.remaining == 0 {
            return SourceStatus::Done;
        }
        let n = (self.batch as u64).min(self.remaining) as u32;
        let mut w = PayloadWriter::with_capacity(n as usize * 16);
        for _ in 0..n {
            let roll: f64 = self.rng.gen();
            let (src, dst) = if !self.flooders.is_empty() && roll < self.flood_fraction {
                // Flooder: one of a handful of fixed destinations.
                let src = self.flooders[self.rng.gen_range(0..self.flooders.len())];
                (src, self.rng.gen_range(0..4))
            } else if !self.scanners.is_empty() && roll < self.flood_fraction + self.scan_fraction {
                // Scanner: a fresh destination each probe.
                let src = self.scanners[self.rng.gen_range(0..self.scanners.len())];
                self.scan_cursor += 1;
                (src, 1_000_000 + self.scan_cursor)
            } else {
                (self.background.sample(&mut self.rng), self.rng.gen_range(0..self.dest_space))
            };
            w.put_u64(src);
            w.put_u64(dst);
        }
        self.remaining -= n as u64;
        api.emit(Packet::data(self.stream_id, self.seq, n, w.finish()));
        self.seq += 1;
        SourceStatus::Continue { next_poll: self.interval }
    }
}

/// Per-site sketcher: volume (Misra–Gries) + spread (per-candidate HLL)
/// with a Bloom allowlist and an adjustable report size.
struct Sketcher {
    stream_id: u32,
    talkers: MisraGries,
    /// Distinct-destination sketches, grown lazily for any source that
    /// earns a Misra–Gries counter (bounded by the MG budget).
    spreads: HashMap<u64, HyperLogLog>,
    allow: Option<BloomFilter>,
    events_since_flush: u64,
    events_total: u64,
    flush_every: u64,
    param: Option<ParamId>,
    fixed_report: f64,
    adaptive: bool,
    seq: u64,
}

impl Sketcher {
    fn report_size(&self, api: &StageApi) -> usize {
        let r = match self.param {
            Some(id) => api.suggested_value(id).unwrap_or(self.fixed_report),
            None => self.fixed_report,
        };
        (r.round().max(1.0)) as usize
    }

    fn allowed(&self, src: u64) -> bool {
        self.allow.as_ref().is_some_and(|b| b.contains(src))
    }

    fn flush(&mut self, api: &mut StageApi) {
        let k = self.report_size(api);
        let volume: Vec<(u64, u64)> =
            self.talkers.top_k(k).into_iter().filter(|(src, _)| !self.allowed(*src)).collect();
        // Scan suspects: candidates ordered by distinct-destination
        // estimate, same budget.
        let mut scans: Vec<(u64, &HyperLogLog)> = self
            .spreads
            .iter()
            .filter(|(src, _)| !self.allowed(**src))
            .map(|(&src, hll)| (src, hll))
            .collect();
        scans.sort_by(|a, b| {
            b.1.estimate().partial_cmp(&a.1.estimate()).unwrap().then(a.0.cmp(&b.0))
        });
        scans.truncate(k);

        let mut w = PayloadWriter::with_capacity(16 + volume.len() * 16 + scans.len() * 76);
        w.put_u32(volume.len() as u32);
        w.put_u32(scans.len() as u32);
        w.put_u64(self.events_total);
        for &(src, count) in &volume {
            w.put_u64(src);
            w.put_u64(count);
        }
        for (src, hll) in &scans {
            w.put_u64(*src);
            let regs = hll.registers();
            w.put_u32(regs.len() as u32);
            w.put_bytes(regs);
        }
        let records = (volume.len() + scans.len()) as u32;
        api.emit(Packet::summary(self.stream_id, self.seq, records, w.finish()));
        self.seq += 1;
        self.events_since_flush = 0;
    }
}

impl StreamProcessor for Sketcher {
    fn on_start(&mut self, api: &mut StageApi) {
        if self.adaptive {
            let id = api
                .specify_para(
                    "report_size",
                    self.fixed_report,
                    8.0,
                    128.0,
                    8.0,
                    Direction::IncreaseSlowsDown,
                )
                .expect("valid parameter");
            self.param = Some(id);
        }
    }

    fn process(&mut self, packet: Packet, api: &mut StageApi) {
        let mut r = PayloadReader::new(packet.payload);
        while r.remaining() >= 16 {
            let src = r.get_u64().expect("16 bytes remain");
            let dst = r.get_u64().expect("8 bytes remain");
            self.talkers.insert(src);
            self.events_since_flush += 1;
            self.events_total += 1;
            // Spread sketches follow the MG candidate set: any source
            // currently holding a counter gets (or keeps) an HLL; when a
            // source loses its counter its sketch is dropped, keeping
            // state bounded by the MG budget.
            if self.talkers.count(src) > 0 {
                self.spreads.entry(src).or_insert_with(|| HyperLogLog::new(HLL_B)).insert(dst);
            }
        }
        self.spreads.retain(|src, _| self.talkers.count(*src) > 0);
        if self.events_since_flush >= self.flush_every {
            self.flush(api);
        }
    }

    fn on_eos(&mut self, api: &mut StageApi) {
        self.flush(api);
    }
}

/// Central correlator: merges per-site reports and, at end of stream,
/// raises flood and scan alerts against global thresholds.
struct Correlator {
    latest: HashMap<u32, SiteReport>,
    alert_fraction: f64,
    scan_threshold: f64,
    alerts: Arc<Mutex<Vec<Alert>>>,
}

struct SiteReport {
    events: u64,
    volume: Vec<(u64, u64)>,
    scans: Vec<(u64, HyperLogLog)>,
}

/// Decode a site report. A truncated payload keeps what was read, and
/// the declared counts size no allocation beyond what the bytes left can
/// hold: 16 bytes per volume entry, 12 per scan header.
fn read_site_report(payload: bytes::Bytes) -> SiteReport {
    let mut r = PayloadReader::new(payload);
    let n_vol = r.get_u32().unwrap_or(0) as usize;
    let n_scan = r.get_u32().unwrap_or(0) as usize;
    let events = r.get_u64().unwrap_or(0);
    let mut volume = Vec::with_capacity(n_vol.min(r.remaining() / 16));
    for _ in 0..n_vol {
        let (Ok(src), Ok(count)) = (r.get_u64(), r.get_u64()) else { break };
        volume.push((src, count));
    }
    let mut scans = Vec::with_capacity(n_scan.min(r.remaining() / 12));
    for _ in 0..n_scan {
        let Ok(src) = r.get_u64() else { break };
        let Ok(reg_len) = r.get_u32() else { break };
        let Ok(regs) = r.get_bytes(reg_len as usize) else { break };
        if let Ok(hll) = HyperLogLog::from_registers(regs.to_vec()) {
            scans.push((src, hll));
        }
    }
    SiteReport { events, volume, scans }
}

impl Correlator {
    fn evaluate(&self) {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let mut spreads: HashMap<u64, HyperLogLog> = HashMap::new();
        let mut total_events = 0u64;
        for site in self.latest.values() {
            total_events += site.events;
            for &(src, count) in &site.volume {
                *counts.entry(src).or_insert(0) += count;
            }
            for (src, hll) in &site.scans {
                match spreads.get_mut(src) {
                    Some(merged) => {
                        let _ = merged.merge(hll);
                    }
                    None => {
                        spreads.insert(*src, hll.clone());
                    }
                }
            }
        }
        if total_events == 0 {
            return;
        }
        let volume_threshold = (self.alert_fraction * total_events as f64).max(1.0) as u64;
        let mut alerts: Vec<Alert> = counts
            .into_iter()
            .filter(|&(_, c)| c >= volume_threshold)
            .map(|(src, count)| Alert::Flood { src, count })
            .collect();
        for (src, hll) in &spreads {
            let distinct = hll.estimate();
            if distinct >= self.scan_threshold {
                alerts.push(Alert::Scan { src: *src, distinct });
            }
        }
        alerts.sort_by_key(Alert::src);
        *self.alerts.lock() = alerts;
    }
}

impl StreamProcessor for Correlator {
    fn process(&mut self, packet: Packet, _api: &mut StageApi) {
        self.latest.insert(packet.stream_id, read_site_report(packet.payload));
    }

    fn on_eos(&mut self, _api: &mut StageApi) {
        self.evaluate();
    }
}

// ---------------------------------------------------------------------------
// Topology construction
// ---------------------------------------------------------------------------

/// Build the intrusion-detection topology and its result handles.
pub fn build(params: &IntrusionParams) -> (Topology, IntrusionHandles) {
    assert!(params.sites >= 1, "need at least one site");
    let handles = IntrusionHandles::default();

    // Attacker addresses sit outside the background space entirely.
    let base = params.address_space as u64 + 1_000;
    let flooders: Vec<u64> = (0..params.flooders as u64).map(|i| base + i).collect();
    let scanners: Vec<u64> = (0..params.scanners as u64).map(|i| base + 500 + i).collect();
    *handles.flooders.lock() = flooders.clone();
    *handles.scanners.lock() = scanners.clone();

    let allow = if params.allowlist.is_empty() {
        None
    } else {
        let mut bf = BloomFilter::new(params.allowlist.len().max(8), 0.001);
        for &a in &params.allowlist {
            bf.insert(a);
        }
        Some(bf)
    };

    let mut topo = Topology::new();
    let interval = SimDuration::from_secs_f64(params.batch as f64 / params.rate_per_sec);

    let correlator = {
        let alerts = Arc::clone(&handles.alerts);
        let alert_fraction = params.alert_fraction;
        let scan_threshold = params.scan_threshold;
        topo.add_stage(
            StageBuilder::new("correlator")
                .site("soc")
                .cost(CostModel::per_record(0.0001))
                .queue_capacity(1_000)
                .adaptation(AdaptationConfig::with_capacity(1_000.0))
                .processor(move || Correlator {
                    latest: HashMap::new(),
                    alert_fraction,
                    scan_threshold,
                    alerts: Arc::clone(&alerts),
                }),
        )
        .expect("correlator stage")
    };

    for i in 0..params.sites {
        let stream_id = i as u32;
        let p = params.clone();
        let fl = flooders.clone();
        let sc = scanners.clone();
        let source = topo
            .add_stage_raw(
                StageBuilder::new(format!("logs-{i}")).site(format!("site-{i}")).processor(
                    move || LogSource {
                        stream_id,
                        remaining: p.events_per_site,
                        batch: p.batch,
                        interval,
                        background: ZipfGenerator::new(p.address_space, p.background_skew),
                        dest_space: p.dest_space as u64,
                        flooders: fl.clone(),
                        flood_fraction: p.flood_fraction,
                        scanners: sc.clone(),
                        scan_fraction: p.scan_fraction,
                        scan_cursor: stream_id as u64 * 1_000_000,
                        rng: seeded_stream(p.seed, stream_id as u64),
                        seq: 0,
                    },
                ),
            )
            .expect("log source");

        let p = params.clone();
        let allow_site = allow.clone();
        let sketcher = topo
            .add_stage(
                StageBuilder::new(format!("sketcher-{i}"))
                    .site(format!("site-{i}"))
                    .cost(CostModel::per_record(0.0002))
                    .queue_capacity(200)
                    .adaptation(AdaptationConfig::with_capacity(200.0))
                    .processor(move || Sketcher {
                        stream_id,
                        talkers: MisraGries::new(256),
                        spreads: HashMap::new(),
                        allow: allow_site.clone(),
                        events_since_flush: 0,
                        events_total: 0,
                        flush_every: p.flush_every,
                        param: None,
                        fixed_report: p.report_size,
                        adaptive: p.adaptive,
                        seq: 0,
                    }),
            )
            .expect("sketcher stage");

        topo.connect(source, sketcher, LinkSpec::local());
        topo.connect(sketcher, correlator, LinkSpec::with_bandwidth(params.bandwidth).buffer(4));
    }

    (topo, handles)
}

/// Publish the template under the key `"intrusion"`.
pub fn publish(repo: &mut ApplicationRepository) {
    repo.publish("intrusion", |config: &AppConfig| {
        let params = params_from_config(config).map_err(|e| e.to_string())?;
        Ok(build(&params).0)
    });
}

/// Parse run parameters from an XML [`AppConfig`].
pub fn params_from_config(config: &AppConfig) -> Result<IntrusionParams, gates_grid::GridError> {
    let d = IntrusionParams::default();
    Ok(IntrusionParams {
        sites: config.usize_or("sites", d.sites)?,
        events_per_site: config.usize_or("events_per_site", d.events_per_site as usize)? as u64,
        rate_per_sec: config.f64_or("rate", d.rate_per_sec)?,
        flooders: config.usize_or("flooders", d.flooders)?,
        flood_fraction: config.f64_or("flood_fraction", d.flood_fraction)?,
        scanners: config.usize_or("scanners", d.scanners)?,
        scan_fraction: config.f64_or("scan_fraction", d.scan_fraction)?,
        report_size: config.f64_or("report_size", d.report_size)?,
        adaptive: config.get("adaptive").map(|v| v == "true" || v == "1").unwrap_or(d.adaptive),
        bandwidth: Bandwidth::kb_per_sec(config.f64_or("bandwidth_kb", 50.0)?),
        alert_fraction: config.f64_or("alert_fraction", d.alert_fraction)?,
        scan_threshold: config.f64_or("scan_threshold", d.scan_threshold)?,
        seed: config.usize_or("seed", d.seed as usize)? as u64,
        ..d
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates_engine::{DesEngine, RunOptions};
    use gates_grid::{Deployer, ResourceRegistry};

    fn run(params: &IntrusionParams) -> (gates_core::report::RunReport, IntrusionHandles) {
        let (topo, handles) = build(params);
        let mut sites: Vec<String> = (0..params.sites).map(|i| format!("site-{i}")).collect();
        sites.push("soc".into());
        let refs: Vec<&str> = sites.iter().map(String::as_str).collect();
        let registry = ResourceRegistry::uniform_cluster(&refs);
        let plan = Deployer::new().deploy(&topo, &registry).unwrap();
        let mut engine = DesEngine::new(topo, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        (report, handles)
    }

    fn small() -> IntrusionParams {
        IntrusionParams {
            sites: 2,
            events_per_site: 8_000,
            // Scanners probe ≈160 distinct destinations in this short
            // run; background sources are capped at dest_space = 100.
            dest_space: 100,
            scan_threshold: 120.0,
            ..Default::default()
        }
    }

    #[test]
    fn report_counts_cannot_outgrow_their_payload() {
        // Claims u32::MAX volume entries and scans; carries one entry.
        let mut w = PayloadWriter::new();
        w.put_u32(u32::MAX).put_u32(u32::MAX).put_u64(9).put_u64(1).put_u64(5);
        let payload = w.finish();
        let len = payload.len();
        let report = read_site_report(payload);
        assert_eq!((report.events, report.volume.as_slice()), (9, &[(1, 5)][..]));
        assert!(report.scans.is_empty());
        assert!(
            report.volume.capacity() <= len / 16,
            "volume capacity {}",
            report.volume.capacity()
        );
        assert!(report.scans.capacity() <= len / 12, "scans capacity {}", report.scans.capacity());
    }

    #[test]
    fn flooders_are_detected_by_volume() {
        let (_, handles) = run(&small());
        assert_eq!(
            handles.flood_recall(),
            1.0,
            "all flooders flagged: {:?}",
            handles.alerts.lock()
        );
    }

    #[test]
    fn scanners_are_detected_by_spread() {
        let (_, handles) = run(&small());
        assert_eq!(handles.scan_recall(), 1.0, "all scanners flagged: {:?}", handles.alerts.lock());
    }

    #[test]
    fn precision_stays_high() {
        let (_, handles) = run(&small());
        assert!(handles.precision() > 0.7, "precision {}", handles.precision());
    }

    #[test]
    fn scanners_do_not_trip_volume_alerts() {
        // A scanner's traffic share (2% over 2 scanners = 1% each) is
        // below the 2% volume threshold: only Scan alerts may name it.
        let (_, handles) = run(&small());
        let scanners = handles.scanners.lock().clone();
        let alerts = handles.alerts.lock();
        for a in alerts.iter() {
            if scanners.contains(&a.src()) {
                assert!(matches!(a, Alert::Scan { .. }), "scanner flagged by volume: {a:?}");
            }
        }
    }

    #[test]
    fn allowlisted_sources_are_never_reported() {
        let mut params = small();
        // Allowlist one flooder: it must vanish from the alerts while
        // the other flooder is still caught.
        let flooder0 = params.address_space as u64 + 1_000;
        params.allowlist = vec![flooder0];
        let (_, handles) = run(&params);
        let alerts = handles.alerts.lock();
        assert!(
            alerts.iter().all(|a| a.src() != flooder0),
            "allowlisted source reported: {alerts:?}"
        );
        assert!(
            alerts.iter().any(|a| matches!(a, Alert::Flood { src, .. } if *src == flooder0 + 1)),
            "the other flooder must still be caught"
        );
    }

    #[test]
    fn no_attack_no_alarm_storm() {
        let params = IntrusionParams {
            flooders: 0,
            flood_fraction: 0.0,
            scanners: 0,
            scan_fraction: 0.0,
            ..small()
        };
        let (_, handles) = run(&params);
        assert_eq!(handles.flood_recall(), 1.0, "vacuous recall");
        assert!(handles.alerts.lock().len() < 10, "background alone must stay quiet");
    }

    #[test]
    fn distributed_reports_shrink_traffic() {
        let (report, _) = run(&small());
        let correlator = report.stage("correlator").unwrap();
        let sketcher = report.stage("sketcher-0").unwrap();
        assert!(
            correlator.bytes_in < sketcher.bytes_in / 2,
            "sketch reports must be far smaller than raw logs: {} vs {}",
            correlator.bytes_in,
            sketcher.bytes_in
        );
    }

    #[test]
    fn adaptive_report_size_moves_under_pressure() {
        let params = IntrusionParams {
            adaptive: true,
            bandwidth: Bandwidth::kb_per_sec(0.5),
            flush_every: 200,
            events_per_site: 12_000,
            rate_per_sec: 4_000.0,
            ..small()
        };
        let (report, _) = run(&params);
        let traj = report.stage("sketcher-0").unwrap().param("report_size").unwrap();
        let min = traj.samples.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
        assert!(min < 32.0, "starved link must shrink the report size, min was {min}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&small());
        let b = run(&small());
        assert_eq!(*a.1.alerts.lock(), *b.1.alerts.lock());
        assert_eq!(a.0.finished_at, b.0.finished_at);
    }

    #[test]
    fn xml_config_builds() {
        let mut repo = ApplicationRepository::new();
        publish(&mut repo);
        let config = AppConfig::new("run", "intrusion")
            .with_param("sites", 3)
            .with_param("adaptive", "true")
            .with_param("scan_threshold", 100);
        let topo = repo.build(&config).unwrap();
        assert_eq!(topo.stages().len(), 1 + 3 * 2);
        let params = params_from_config(&config).unwrap();
        assert!(params.adaptive);
        assert_eq!(params.scan_threshold, 100.0);
    }
}
