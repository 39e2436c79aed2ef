//! Hierarchical (multi-tier) aggregation — paper §3.1, design goal 2:
//! "based upon the number and types of streams and the available
//! resources, more than two stages could also be required. All
//! intermediate stages take one or more intermediate streams as input
//! and produce one or more output streams."
//!
//! The shape mirrors the paper's §2 LHC motivation ("data will be
//! distributed to around 10 Tier 1 centers, and then onto around 50
//! Tier 2 centers" — we run it in the analysis direction):
//!
//! ```text
//! tier 2 (sites):    source ── summarizer     (one pair per site)
//!                                   \
//! tier 1 (regions):              merger       (one per region)
//!                                     \
//! tier 0 (center):                collector
//! ```
//!
//! Each summarizer maintains a counting sample of footprint `k2` and
//! flushes its top-k2 upward; each regional merger combines its sites'
//! latest summaries and forwards a *condensed* top-k1 (k1 ≤ sites·k2);
//! the center merges regions. Both `k2` and `k1` can be middleware-
//! adapted, giving two nested adjustment parameters in one pipeline.
//!
//! Wire format is count-samps' summary format (`u32 n`, `f64 τ`, then
//! `n` × (`u64 value`, `f64 estimate`)), so tiers compose.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::SmallRng;

use gates_core::adapt::AdaptationConfig;
use gates_core::{
    CostModel, Direction, Packet, ParamId, PayloadReader, PayloadWriter, SourceStatus, StageApi,
    StageBuilder, StreamProcessor, Topology,
};
use gates_grid::{AppConfig, ApplicationRepository};
use gates_net::{Bandwidth, LinkSpec};
use gates_sim::rng::seeded_stream;
use gates_sim::SimDuration;
use gates_streams::metrics::{top_k_accuracy, AccuracyReport};
use gates_streams::{CountingSamples, ZipfGenerator};

use crate::count_samps::{read_summary, top_of_sum, write_summary};

/// Parameters of a hierarchical count-samps run.
#[derive(Debug, Clone)]
pub struct HierarchicalParams {
    /// Number of tier-1 regions.
    pub regions: usize,
    /// Sites (tier-2 pairs) per region.
    pub sites_per_region: usize,
    /// Integers per source.
    pub items_per_source: u64,
    /// Generation rate, records/second per source.
    pub rate_per_sec: f64,
    /// Records per data packet.
    pub batch: u32,
    /// Zipf workload: distinct values.
    pub zipf_n: usize,
    /// Zipf workload: skew.
    pub zipf_s: f64,
    /// Site summary size (tier-2 adjustment parameter).
    pub k2: f64,
    /// Regional summary size (tier-1 adjustment parameter).
    pub k1: f64,
    /// Adapt both parameters within `[min, max] = [10, 240]`.
    pub adaptive: bool,
    /// Site → region link bandwidth.
    pub site_bandwidth: Bandwidth,
    /// Region → center link bandwidth (typically the scarcer WAN).
    pub region_bandwidth: Bandwidth,
    /// Flush period at both tiers, in records/entries consumed.
    pub flush_every: u64,
    /// The query: top how many values.
    pub top_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HierarchicalParams {
    fn default() -> Self {
        HierarchicalParams {
            regions: 2,
            sites_per_region: 2,
            items_per_source: 25_000,
            rate_per_sec: 1_000.0,
            batch: 50,
            zipf_n: 2_000,
            zipf_s: 1.4,
            k2: 100.0,
            k1: 150.0,
            adaptive: false,
            site_bandwidth: Bandwidth::kb_per_sec(100.0),
            region_bandwidth: Bandwidth::kb_per_sec(50.0),
            flush_every: 500,
            top_k: 10,
            seed: 42,
        }
    }
}

/// Shared result handles, read once the run is over.
#[derive(Debug, Clone, Default)]
pub struct HierarchicalHandles {
    /// Exact ground truth accumulated by the sources.
    pub truth: Arc<Mutex<HashMap<u64, u64>>>,
    /// The center's answer, `(value, estimated count)`. The center
    /// writes it when its input streams end; a run stopped before end of
    /// stream leaves it as it was.
    pub answer: Arc<Mutex<Vec<(u64, f64)>>>,
}

impl HierarchicalHandles {
    /// Score the center's answer with the paper's §5.2 metric.
    pub fn accuracy(&self, top_k: usize) -> AccuracyReport {
        let truth = self.truth.lock();
        let answer = self.answer.lock();
        top_k_accuracy(&answer, &truth, top_k)
    }
}

// ---------------------------------------------------------------------------
// Processors (source and summarizer shared with count-samps in spirit;
// redefined here to keep the two templates independently evolvable)
// ---------------------------------------------------------------------------

struct ZipfSource {
    stream_id: u32,
    remaining: u64,
    batch: u32,
    interval: SimDuration,
    zipf: ZipfGenerator,
    rng: SmallRng,
    truth: Arc<Mutex<HashMap<u64, u64>>>,
    seq: u64,
}

impl StreamProcessor for ZipfSource {
    fn process(&mut self, _packet: Packet, _api: &mut StageApi) {}

    fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
        if self.remaining == 0 {
            return SourceStatus::Done;
        }
        let n = (self.batch as u64).min(self.remaining) as u32;
        let mut w = PayloadWriter::with_capacity(n as usize * 8);
        {
            let mut truth = self.truth.lock();
            for _ in 0..n {
                let v = self.zipf.sample(&mut self.rng);
                *truth.entry(v).or_insert(0) += 1;
                w.put_u64(v);
            }
        }
        self.remaining -= n as u64;
        api.emit(Packet::data(self.stream_id, self.seq, n, w.finish()));
        self.seq += 1;
        SourceStatus::Continue { next_poll: self.interval }
    }
}

/// Tier-2 site summarizer (counting sample of footprint k2).
struct SiteSummarizer {
    stream_id: u32,
    sample: CountingSamples,
    rng: SmallRng,
    records_since_flush: u64,
    flush_every: u64,
    param: Option<ParamId>,
    fixed_k: f64,
    adaptive: bool,
    seq: u64,
}

impl SiteSummarizer {
    fn current_k(&self, api: &StageApi) -> usize {
        let k = match self.param {
            Some(id) => api.suggested_value(id).unwrap_or(self.fixed_k),
            None => self.fixed_k,
        };
        (k.round().max(1.0)) as usize
    }

    fn flush(&mut self, api: &mut StageApi) {
        let k = self.current_k(api);
        let top = self.sample.top_k(k).into_iter().map(|e| (e.value, e.estimate));
        api.emit(write_summary(self.stream_id, self.seq, self.sample.tau(), top));
        self.seq += 1;
        self.records_since_flush = 0;
    }
}

impl StreamProcessor for SiteSummarizer {
    fn on_start(&mut self, api: &mut StageApi) {
        if self.adaptive {
            let id = api
                .specify_para("k2", self.fixed_k, 10.0, 240.0, 10.0, Direction::IncreaseSlowsDown)
                .expect("valid parameter");
            self.param = Some(id);
        }
    }

    fn process(&mut self, packet: Packet, api: &mut StageApi) {
        let k = self.current_k(api);
        if k != self.sample.footprint() {
            self.sample.resize(k, &mut self.rng);
        }
        let mut r = PayloadReader::new(packet.payload);
        while r.remaining() >= 8 {
            let v = r.get_u64().expect("8 bytes remain");
            self.sample.insert(v, &mut self.rng);
            self.records_since_flush += 1;
        }
        if self.records_since_flush >= self.flush_every {
            self.flush(api);
        }
    }

    fn on_eos(&mut self, api: &mut StageApi) {
        self.flush(api);
    }
}

/// Tier-1 regional merger: combines its sites' latest summaries and
/// forwards a condensed top-k1.
struct RegionalMerger {
    region_id: u32,
    /// `(τ, entries)` per site, keyed in stream-id order so the sums are
    /// too.
    latest: BTreeMap<u32, (f64, Vec<(u64, f64)>)>,
    entries_since_flush: u64,
    flush_every: u64,
    param: Option<ParamId>,
    fixed_k: f64,
    adaptive: bool,
    seq: u64,
}

impl RegionalMerger {
    fn current_k(&self, api: &StageApi) -> usize {
        let k = match self.param {
            Some(id) => api.suggested_value(id).unwrap_or(self.fixed_k),
            None => self.fixed_k,
        };
        (k.round().max(1.0)) as usize
    }

    fn flush(&mut self, api: &mut StageApi) {
        let k = self.current_k(api);
        let tau = self.latest.values().fold(1.0f64, |tau, (t, _)| tau.max(*t));
        let entries = top_of_sum(self.latest.values().map(|(_, e)| e), k);
        api.emit(write_summary(self.region_id, self.seq, tau, entries.into_iter()));
        self.seq += 1;
        self.entries_since_flush = 0;
    }
}

impl StreamProcessor for RegionalMerger {
    fn on_start(&mut self, api: &mut StageApi) {
        if self.adaptive {
            let id = api
                .specify_para("k1", self.fixed_k, 10.0, 240.0, 10.0, Direction::IncreaseSlowsDown)
                .expect("valid parameter");
            self.param = Some(id);
        }
    }

    fn process(&mut self, packet: Packet, api: &mut StageApi) {
        let stream = packet.stream_id;
        let records = packet.records as u64;
        let (tau, entries) = read_summary(packet.payload);
        self.latest.insert(stream, (tau, entries));
        self.entries_since_flush += records;
        if self.entries_since_flush >= self.flush_every {
            self.flush(api);
        }
    }

    fn on_eos(&mut self, api: &mut StageApi) {
        self.flush(api);
    }
}

/// Tier-0 central collector: merges regional summaries and publishes
/// the global top-k at end of stream.
struct CenterCollector {
    /// Keyed in stream-id order, so the per-value sums are too.
    latest: BTreeMap<u32, Vec<(u64, f64)>>,
    top_k: usize,
    answer: Arc<Mutex<Vec<(u64, f64)>>>,
}

impl StreamProcessor for CenterCollector {
    fn process(&mut self, packet: Packet, _api: &mut StageApi) {
        let (_tau, entries) = read_summary(packet.payload);
        self.latest.insert(packet.stream_id, entries);
    }

    fn on_eos(&mut self, _api: &mut StageApi) {
        *self.answer.lock() = top_of_sum(self.latest.values(), self.top_k);
    }
}

// ---------------------------------------------------------------------------
// Topology construction
// ---------------------------------------------------------------------------

/// Build the hierarchical topology and its result handles.
pub fn build(params: &HierarchicalParams) -> (Topology, HierarchicalHandles) {
    assert!(params.regions >= 1 && params.sites_per_region >= 1, "need at least one site");
    let handles = HierarchicalHandles::default();
    let mut topo = Topology::new();
    let interval = SimDuration::from_secs_f64(params.batch as f64 / params.rate_per_sec);

    let center = {
        let answer = Arc::clone(&handles.answer);
        let top_k = params.top_k;
        topo.add_stage(
            StageBuilder::new("center")
                .site("tier0")
                .cost(CostModel::per_record(0.0001))
                .queue_capacity(2_000)
                .adaptation(AdaptationConfig::with_capacity(2_000.0))
                .processor(move || CenterCollector {
                    latest: BTreeMap::new(),
                    top_k,
                    answer: Arc::clone(&answer),
                }),
        )
        .expect("center stage")
    };

    for r in 0..params.regions {
        let p = params.clone();
        let merger = topo
            .add_stage(
                StageBuilder::new(format!("region-{r}"))
                    .site(format!("tier1-{r}"))
                    .cost(CostModel::per_record(0.0002))
                    // Summary traffic is low-volume: a small queue keeps
                    // the load signal meaningful (50 packets ≈ a dozen
                    // seconds of summaries).
                    .queue_capacity(50)
                    .adaptation(AdaptationConfig::with_capacity(50.0))
                    .processor(move || RegionalMerger {
                        region_id: r as u32,
                        latest: BTreeMap::new(),
                        entries_since_flush: 0,
                        flush_every: (p.flush_every / 4).max(1),
                        param: None,
                        fixed_k: p.k1,
                        adaptive: p.adaptive,
                        seq: 0,
                    }),
            )
            .expect("merger stage");
        topo.connect(
            merger,
            center,
            LinkSpec::with_bandwidth(params.region_bandwidth).buffer(4).blocking(),
        );

        for s in 0..params.sites_per_region {
            let site_idx = r * params.sites_per_region + s;
            let stream_id = site_idx as u32;
            let p = params.clone();
            let truth = Arc::clone(&handles.truth);
            let source = topo
                .add_stage_raw(
                    StageBuilder::new(format!("source-{site_idx}"))
                        .site(format!("tier2-{site_idx}"))
                        .processor(move || ZipfSource {
                            stream_id,
                            remaining: p.items_per_source,
                            batch: p.batch,
                            interval,
                            zipf: ZipfGenerator::new(p.zipf_n, p.zipf_s),
                            rng: seeded_stream(p.seed, stream_id as u64),
                            truth: Arc::clone(&truth),
                            seq: 0,
                        }),
                )
                .expect("source stage");
            let p = params.clone();
            let summarizer = topo
                .add_stage(
                    StageBuilder::new(format!("summarizer-{site_idx}"))
                        .site(format!("tier2-{site_idx}"))
                        .cost(CostModel::per_record(0.0005))
                        .queue_capacity(200)
                        .adaptation(AdaptationConfig::with_capacity(200.0))
                        .processor(move || SiteSummarizer {
                            stream_id,
                            sample: CountingSamples::new(p.k2.round().max(1.0) as usize),
                            rng: seeded_stream(p.seed, 100 + stream_id as u64),
                            records_since_flush: 0,
                            flush_every: p.flush_every,
                            param: None,
                            fixed_k: p.k2,
                            adaptive: p.adaptive,
                            seq: 0,
                        }),
                )
                .expect("summarizer stage");
            topo.connect(source, summarizer, LinkSpec::local().buffer(2).blocking());
            topo.connect(
                summarizer,
                merger,
                LinkSpec::with_bandwidth(params.site_bandwidth).buffer(4).blocking(),
            );
        }
    }

    (topo, handles)
}

/// Publish the template under the key `"hierarchical"`.
pub fn publish(repo: &mut ApplicationRepository) {
    repo.publish("hierarchical", |config: &AppConfig| {
        let params = params_from_config(config).map_err(|e| e.to_string())?;
        Ok(build(&params).0)
    });
}

/// Parse run parameters from an XML [`AppConfig`].
pub fn params_from_config(config: &AppConfig) -> Result<HierarchicalParams, gates_grid::GridError> {
    let d = HierarchicalParams::default();
    Ok(HierarchicalParams {
        regions: config.usize_or("regions", d.regions)?,
        sites_per_region: config.usize_or("sites_per_region", d.sites_per_region)?,
        items_per_source: config.usize_or("items_per_source", d.items_per_source as usize)? as u64,
        rate_per_sec: config.f64_or("rate", d.rate_per_sec)?,
        k2: config.f64_or("k2", d.k2)?,
        k1: config.f64_or("k1", d.k1)?,
        adaptive: config.get("adaptive").map(|v| v == "true" || v == "1").unwrap_or(d.adaptive),
        site_bandwidth: Bandwidth::kb_per_sec(config.f64_or("site_bandwidth_kb", 100.0)?),
        region_bandwidth: Bandwidth::kb_per_sec(config.f64_or("region_bandwidth_kb", 50.0)?),
        seed: config.usize_or("seed", d.seed as usize)? as u64,
        ..d
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates_engine::{DesEngine, RunOptions};
    use gates_grid::{Deployer, ResourceRegistry};

    fn registry(params: &HierarchicalParams) -> ResourceRegistry {
        let mut sites = vec!["tier0".to_string()];
        for r in 0..params.regions {
            sites.push(format!("tier1-{r}"));
        }
        for s in 0..params.regions * params.sites_per_region {
            sites.push(format!("tier2-{s}"));
        }
        let refs: Vec<&str> = sites.iter().map(String::as_str).collect();
        ResourceRegistry::uniform_cluster(&refs)
    }

    fn run(params: &HierarchicalParams) -> (gates_core::report::RunReport, HierarchicalHandles) {
        let (topo, handles) = build(params);
        let plan = Deployer::new().deploy(&topo, &registry(params)).unwrap();
        let mut engine = DesEngine::new(topo, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        (report, handles)
    }

    fn small() -> HierarchicalParams {
        HierarchicalParams {
            regions: 2,
            sites_per_region: 2,
            items_per_source: 5_000,
            rate_per_sec: 2_000.0,
            ..Default::default()
        }
    }

    #[test]
    fn three_tier_pipeline_answers_accurately() {
        let (report, handles) = run(&small());
        let acc = handles.accuracy(10);
        assert!(acc.score > 90.0, "hierarchical accuracy too low: {acc:?}");
        assert_eq!(report.total_dropped(), 0, "blocking chain must not drop");
        // Topology: 1 center + 2 mergers + 4 (source+summarizer) pairs.
        assert_eq!(report.stages.len(), 1 + 2 + 8);
    }

    #[test]
    fn condensation_shrinks_traffic_per_tier() {
        let (report, _) = run(&small());
        let site_bytes: u64 = (0..4)
            .filter_map(|i| report.stage(&format!("summarizer-{i}")).map(|s| s.bytes_out))
            .sum();
        let region_bytes: u64 =
            (0..2).filter_map(|r| report.stage(&format!("region-{r}")).map(|s| s.bytes_out)).sum();
        let center_in = report.stage("center").unwrap().bytes_in;
        assert!(region_bytes < site_bytes, "tier-1 condenses: {region_bytes} vs {site_bytes}");
        assert_eq!(center_in, region_bytes, "everything the regions sent arrived");
    }

    #[test]
    fn center_sees_only_regions() {
        let (report, _) = run(&small());
        let center = report.stage("center").unwrap();
        let region_packets: u64 = (0..2)
            .filter_map(|r| report.stage(&format!("region-{r}")).map(|s| s.packets_out))
            .sum();
        assert_eq!(center.packets_in, region_packets);
    }

    #[test]
    fn adaptive_tiers_register_both_parameters() {
        let params = HierarchicalParams { adaptive: true, ..small() };
        let (report, _) = run(&params);
        assert!(report.stage("summarizer-0").unwrap().param("k2").is_some());
        assert!(report.stage("region-0").unwrap().param("k1").is_some());
    }

    #[test]
    fn narrow_region_link_pushes_k1_down() {
        let params = HierarchicalParams {
            adaptive: true,
            region_bandwidth: Bandwidth::kb_per_sec(1.0),
            items_per_source: 20_000,
            ..small()
        };
        let (report, _) = run(&params);
        let traj = report.stage("region-0").unwrap().param("k1").unwrap();
        let min = traj.samples.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
        assert!(min < 150.0, "tier-1 parameter must respond to its link, min {min}");
    }

    #[test]
    fn latency_is_recorded_end_to_end() {
        let (report, _) = run(&small());
        let center = report.stage("center").unwrap();
        assert!(center.latency.count() > 0);
        assert!(center.latency.mean() > 0.0, "summaries take nonzero time to reach tier 0");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&small());
        let b = run(&small());
        assert_eq!(*a.1.answer.lock(), *b.1.answer.lock());
        assert_eq!(a.0.finished_at, b.0.finished_at);
    }

    #[test]
    fn xml_config_builds() {
        let mut repo = ApplicationRepository::new();
        publish(&mut repo);
        let config = AppConfig::new("run", "hierarchical")
            .with_param("regions", 3)
            .with_param("sites_per_region", 2);
        let topo = repo.build(&config).unwrap();
        assert_eq!(topo.stages().len(), 1 + 3 + 3 * 2 * 2);
    }
}
