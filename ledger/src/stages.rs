//! Everything the ledger runs *inside* worker processes: the two
//! application templates it publishes, the stages it owns, and the
//! per-process observation store a worker dumps when its run ends.
//!
//! Nothing here reaches into the crates under test. Count-samps is built
//! by the public `count_samps::build` and observed through delegating
//! [`Tap`] processors that note a machine-wide clock reading per packet
//! at the source and the sink; the relay pipeline is made of the
//! ledger's own stages, which carry their stamps in the payload.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use gates_apps::count_samps::{self, CountSampsHandles, CountSampsParams};
use gates_core::{
    Packet, PayloadReader, PayloadWriter, SourceStatus, StageApi, StageBuilder, StageId,
    StreamProcessor, Topology,
};
use gates_grid::{AppConfig, ApplicationRepository};
use gates_net::{Bandwidth, LinkSpec};
use gates_sim::SimDuration;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::hist::Histogram;
use crate::sys::now_ns;
use crate::workloads::dist::SETTLE;

/// Repository key of the count-samps wrapper template.
pub const COUNT_SAMPS_APP: &str = "ledger-count-samps";
/// Repository key of the relay pipeline template.
pub const RELAY_APP: &str = "ledger-relay";

/// Bytes of stamps at the head of every relay payload:
/// due, emit, relay-in, relay-out (nanoseconds, 0 = not stamped).
pub const STAMP_BYTES: usize = 32;
/// In a traced relay run the sink keeps the full stamp set of every
/// this-many-th packet, from which the parent writes per-packet spans.
pub const SPAN_SAMPLE_EVERY: u64 = 256;

/// What one process observed during a run, filled by the stages it
/// hosted and written out by [`dump`] after `DistWorker::run` returns.
#[derive(Default)]
pub struct Observations {
    /// Count-samps truth/answer handles of the topology this process
    /// built (only the stages it hosted wrote into them).
    pub handles: Option<CountSampsHandles>,
    /// `(point, stream<<40 | seq, ns)` clock readings from [`Tap`]s.
    pub taps: Vec<(&'static str, Vec<[u64; 2]>)>,
    /// Named latency histograms (nanoseconds) from the relay sink.
    pub hists: Vec<(&'static str, Histogram)>,
    /// Named counts from the relay sink.
    pub counts: Vec<(&'static str, u64)>,
    /// Sampled `[seq, due, emit, relay_in, relay_out, sink_in]` rows.
    pub samples: Vec<[u64; 6]>,
    /// `[p50, p99]` latency (nanoseconds) of each relay-sink window.
    pub windows: Vec<[u64; 2]>,
}

static OBS: Mutex<Option<Observations>> = Mutex::new(None);

fn with_obs(f: impl FnOnce(&mut Observations)) {
    // A stage that panicked while publishing has already failed the
    // run; the data is plain values, valid at every step.
    let mut guard = OBS.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Observations::default));
}

/// Key of one packet in a tap table.
pub fn tap_key(stream: u32, seq: u64) -> u64 {
    (stream as u64) << 40 | (seq & ((1 << 40) - 1))
}

/// Write this process's observations under `prefix`: `<prefix>.obs`
/// (text) and one `<prefix>.<point>.taps` (little-endian u64 pairs) per
/// tap point.
pub fn dump(prefix: &Path, allocs: u64, rss_peak_mb: f64) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let obs = OBS.lock().unwrap_or_else(|e| e.into_inner()).take().unwrap_or_default();
    let mut text = format!("allocs {allocs}\nrss_peak_mb {rss_peak_mb}\n");
    if let Some(h) = &obs.handles {
        for (v, c) in h.truth.lock().iter() {
            let _ = writeln!(text, "truth {v} {c}");
        }
        for (v, est) in h.answer.lock().iter() {
            let _ = writeln!(text, "answer {v} {est}");
        }
    }
    for (name, h) in &obs.hists {
        let _ = writeln!(text, "hist {name} {}", h.to_sparse());
    }
    for (name, c) in &obs.counts {
        let _ = writeln!(text, "count {name} {c}");
    }
    for s in &obs.samples {
        let _ = writeln!(text, "sample {} {} {} {} {} {}", s[0], s[1], s[2], s[3], s[4], s[5]);
    }
    for w in &obs.windows {
        let _ = writeln!(text, "window {} {}", w[0], w[1]);
    }
    std::fs::write(prefix.with_extension("obs"), text)?;
    for (point, rows) in &obs.taps {
        let mut bytes = Vec::with_capacity(rows.len() * 16);
        for [k, t] in rows {
            bytes.extend_from_slice(&k.to_le_bytes());
            bytes.extend_from_slice(&t.to_le_bytes());
        }
        std::fs::write(prefix.with_extension(format!("{point}.taps")), bytes)?;
    }
    Ok(())
}

/// Publish the ledger's two templates (every process of a run does).
pub fn publish(repo: &mut ApplicationRepository) {
    repo.publish(COUNT_SAMPS_APP, count_samps_template);
    repo.publish(RELAY_APP, relay_template);
}

// ---------------------------------------------------------------------
// count-samps, wrapped
// ---------------------------------------------------------------------

/// The run parameters a count-samps `<application>` document stands for,
/// with every *modeled* quantity neutralised — zero service-time costs,
/// links at [`LinkSpec::local`] speed, generation interval zero — so
/// what remains is the work the middleware and the application really do.
fn count_samps_params(config: &AppConfig) -> Result<CountSampsParams, String> {
    let mut params = count_samps::params_from_config(config).map_err(|e| e.to_string())?;
    params.central_cost_per_record = 0.0;
    params.summarizer_cost_per_record = 0.0;
    params.merge_cost_per_entry = 0.0;
    params.bandwidth = Bandwidth::bytes_per_sec(1e12);
    params.rate_per_sec = 1e15;
    Ok(params)
}

/// `count_samps::build`, neutralised, every stage behind a [`Tap`].
fn count_samps_template(config: &AppConfig) -> Result<Topology, String> {
    let params = count_samps_params(config)?;
    let (topology, handles) = count_samps::build(&params);
    with_obs(|o| o.handles = Some(handles));
    Ok(tapped(topology, params.items_per_source > 0))
}

/// The answer the collector must end with: the same stages, built from
/// the same document, driven by hand on one thread. Every summarizer is
/// a deterministic function of its own sub-stream and the collector's
/// final answer of the summarizers' last words, so a distributed run
/// that delivered every packet once and in order ends on exactly this.
pub fn reference_answer(xml: &str) -> Result<Vec<(u64, f64)>, String> {
    let config = AppConfig::from_xml(xml).map_err(|e| e.to_string())?;
    let params = count_samps_params(&config)?;
    let (topology, handles) = count_samps::build(&params);
    let stage = |name: String| {
        topology.stage_by_name(&name).map(|id| topology.stages()[id.index()].instantiate())
    };
    let mut collector = stage("collector".into()).ok_or("count-samps has no collector")?;
    let mut collector_api = StageApi::new();
    collector.on_start(&mut collector_api);
    for i in 0..params.sources {
        let mut source = stage(format!("source-{i}")).ok_or("missing source stage")?;
        let mut summarizer = stage(format!("summarizer-{i}"));
        let (mut source_api, mut summ_api) = (StageApi::new(), StageApi::new());
        source.on_start(&mut source_api);
        if let Some(s) = &mut summarizer {
            s.on_start(&mut summ_api);
        }
        let mut forward = |packets: Vec<(Option<usize>, Packet)>, done: bool| {
            let Some(s) = &mut summarizer else {
                packets.into_iter().for_each(|(_, p)| collector.process(p, &mut collector_api));
                return;
            };
            packets.into_iter().for_each(|(_, p)| s.process(p, &mut summ_api));
            if done {
                s.on_eos(&mut summ_api);
            }
            for (_, summary) in summ_api.take_emitted() {
                collector.process(summary, &mut collector_api);
            }
        };
        while source.poll_generate(&mut source_api) != SourceStatus::Done {
            forward(source_api.take_emitted(), false);
        }
        forward(source_api.take_emitted(), true);
    }
    collector.on_eos(&mut collector_api);
    let answer = handles.answer.lock().clone();
    Ok(answer)
}

/// Rebuild `inner` stage for stage with each processor behind a
/// delegating [`Tap`]: sources note `src` and sinks `sink` per packet,
/// stages in between keep only their latest reading under `mid`. With
/// `settle`, sources wait [`SETTLE`] before their first packet.
fn tapped(inner: Topology, settle: bool) -> Topology {
    let inner = Arc::new(inner);
    let sources = inner.sources();
    let sinks = inner.sinks();
    let mut out = Topology::new();
    for (i, spec) in inner.stages().iter().enumerate() {
        let id = StageId::from_index(i);
        let point = if sources.contains(&id) {
            "src"
        } else if sinks.contains(&id) {
            "sink"
        } else {
            "mid"
        };
        let mut b = StageBuilder::new(spec.name.clone())
            .site(spec.site.clone())
            .cost(spec.cost)
            .queue_capacity(spec.queue_capacity);
        if let Some(cfg) = &spec.adaptation {
            b = b.adaptation(cfg.clone());
        }
        // `source-<i>` emits stream `i`.
        let stream = spec.name.rsplit('-').next().and_then(|n| n.parse().ok()).unwrap_or(0);
        let topo = Arc::clone(&inner);
        let b = b.processor(move || Tap {
            inner: topo.stages()[i].instantiate(),
            point,
            stream,
            settle,
            polls: 0,
            rows: Vec::new(),
        });
        out.add_stage_raw(b).expect("names are unique in the wrapped topology");
    }
    for e in inner.edges() {
        out.connect(e.from, e.to, e.link.clone());
    }
    out
}

fn settle_gap() -> SimDuration {
    SimDuration::from_micros(SETTLE.as_micros() as u64)
}

/// Delegates every callback, first noting `(packet, now)`. A source's
/// packets are keyed by poll ordinal, which is the sequence number
/// `ZipfSource` gives them (one packet per poll).
struct Tap {
    inner: Box<dyn StreamProcessor + Send>,
    point: &'static str,
    stream: u32,
    /// The first poll only waits (see [`SETTLE`]).
    settle: bool,
    polls: u64,
    rows: Vec<[u64; 2]>,
}

impl StreamProcessor for Tap {
    fn on_start(&mut self, api: &mut StageApi) {
        self.inner.on_start(api)
    }
    fn process(&mut self, packet: Packet, api: &mut StageApi) {
        let row = [tap_key(packet.stream_id, packet.seq), now_ns()];
        if self.point == "mid" {
            self.rows.clear();
        }
        self.rows.push(row);
        self.inner.process(packet, api)
    }
    fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
        if std::mem::take(&mut self.settle) {
            return SourceStatus::Continue { next_poll: settle_gap() };
        }
        let t = now_ns();
        let status = self.inner.poll_generate(api);
        if status != SourceStatus::Done {
            self.rows.push([tap_key(self.stream, self.polls), t]);
            self.polls += 1;
        }
        status
    }
    fn on_eos(&mut self, api: &mut StageApi) {
        self.inner.on_eos(api)
    }
    fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }
    fn restore(&mut self, state: &[u8]) {
        self.inner.restore(state)
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        let (point, rows) = (self.point, std::mem::take(&mut self.rows));
        with_obs(|o| match o.taps.iter_mut().find(|(p, _)| *p == point) {
            Some((_, all)) => all.extend(rows),
            None => o.taps.push((point, rows)),
        });
    }
}

// ---------------------------------------------------------------------
// the relay pipeline: stamp-source -> relay -> sink
// ---------------------------------------------------------------------

/// Parameters of a relay run, carried in the application XML.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayParams {
    /// Packets the source emits.
    pub packets: u64,
    /// Open-loop rate in packets/s; `0` = closed loop, flat out.
    pub rate: f64,
    /// Payload bytes per packet (at least [`STAMP_BYTES`]).
    pub payload: usize,
    /// Seed of the payload fill.
    pub seed: u64,
    /// Stamp inside the relay and keep per-hop histograms.
    pub traced: bool,
    /// The source waits [`SETTLE`] before its first packet (every launch
    /// on worker processes does; the in-process engine probes do not).
    pub settle: bool,
}

impl RelayParams {
    /// The `<application>` document for these parameters.
    pub fn to_xml(self, name: &str) -> String {
        AppConfig::new(name, RELAY_APP)
            .with_param("packets", self.packets)
            .with_param("rate", self.rate)
            .with_param("payload", self.payload)
            .with_param("seed", self.seed)
            .with_param("traced", self.traced as u8)
            .with_param("settle", self.settle as u8)
            .to_xml()
    }

    fn from_config(c: &AppConfig) -> Result<RelayParams, String> {
        let e = |e: gates_grid::GridError| e.to_string();
        let payload = c.usize_or("payload", 256).map_err(e)?;
        if payload < STAMP_BYTES {
            return Err(format!("relay payload must hold {STAMP_BYTES} stamp bytes"));
        }
        Ok(RelayParams {
            packets: c.usize_or("packets", 0).map_err(e)? as u64,
            rate: c.f64_or("rate", 0.0).map_err(e)?,
            payload,
            seed: c.usize_or("seed", 0).map_err(e)? as u64,
            traced: c.usize_or("traced", 0).map_err(e)? != 0,
            settle: c.usize_or("settle", 0).map_err(e)? != 0,
        })
    }
}

fn relay_template(config: &AppConfig) -> Result<Topology, String> {
    Ok(relay_chain(RelayParams::from_config(config)?, 1))
}

/// `stamp-source -> relay × relays -> sink`, on sites `gen`, `mid`,
/// `out`. The dist workload uses one relay; the engine probes chain two
/// for a three-hop path.
pub fn relay_chain(p: RelayParams, relays: usize) -> Topology {
    let mut fill = vec![0u8; p.payload - STAMP_BYTES];
    SmallRng::seed_from_u64(p.seed).fill_bytes(&mut fill);
    let fill = Bytes::from(fill);

    let mut t = Topology::new();
    let mut add = |b: StageBuilder| t.add_stage_raw(b).expect("stage names are distinct");
    let mut chain = vec![add(StageBuilder::new("stamp-source")
        .site("gen")
        .processor(move || StampSource { p, fill: fill.clone(), next: 0, t0: 0 }))];
    for i in 0..relays {
        let name = if relays == 1 { "relay".to_string() } else { format!("relay-{i}") };
        chain.push(add(StageBuilder::new(name)
            .site("mid")
            .queue_capacity(1024)
            .processor(move || Relay { traced: p.traced })));
    }
    chain.push(add(StageBuilder::new("sink")
        .site("out")
        .queue_capacity(1024)
        .processor(move || Sink::new(p))));
    // Blocking flow control everywhere: a slow pipeline backs the
    // source up (visible as lateness) instead of dropping packets.
    let link = LinkSpec::with_bandwidth(Bandwidth::bytes_per_sec(1e12)).buffer(64).blocking();
    for hop in chain.windows(2) {
        t.connect(hop[0], hop[1], link.clone());
    }
    t
}

/// Longest the open-loop source sleeps between polls.
const MAX_POLL_GAP_US: u64 = 100;

struct StampSource {
    p: RelayParams,
    fill: Bytes,
    next: u64,
    /// Due time of packet 0 (set on the first poll).
    t0: u64,
}

impl StampSource {
    fn emit(&mut self, due: u64, now: u64, api: &mut StageApi) {
        let mut w = PayloadWriter::with_capacity(self.p.payload);
        w.put_u64(due).put_u64(now).put_u64(0).put_u64(0).put_bytes(&self.fill);
        api.emit(Packet::data(0, self.next, 1, w.finish()));
        self.next += 1;
    }

    fn due(&self, k: u64) -> u64 {
        self.t0 + (k as f64 * 1e9 / self.p.rate) as u64
    }
}

impl StreamProcessor for StampSource {
    fn process(&mut self, _packet: Packet, _api: &mut StageApi) {}

    fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
        if self.next >= self.p.packets {
            return SourceStatus::Done;
        }
        if std::mem::take(&mut self.p.settle) {
            return SourceStatus::Continue { next_poll: settle_gap() };
        }
        let now = now_ns();
        if self.p.rate <= 0.0 {
            // Closed loop: a packet is due the moment the pipeline lets
            // the source run again.
            self.emit(now, now, api);
            return SourceStatus::Continue { next_poll: SimDuration::ZERO };
        }
        if self.t0 == 0 {
            self.t0 = now;
        }
        // Open loop: everything whose due time has passed goes out now,
        // however late this poll is, and says when it was due.
        while self.next < self.p.packets && self.due(self.next) <= now {
            self.emit(self.due(self.next), now, api);
        }
        let gap_us = (self.due(self.next).saturating_sub(now) / 1_000).min(MAX_POLL_GAP_US);
        SourceStatus::Continue { next_poll: SimDuration::from_micros(gap_us) }
    }
}

struct Relay {
    traced: bool,
}

impl StreamProcessor for Relay {
    fn process(&mut self, mut packet: Packet, api: &mut StageApi) {
        if self.traced {
            let t_in = now_ns();
            let mut r = PayloadReader::new(packet.payload);
            let (due, emit) = (r.get_u64().unwrap_or(0), r.get_u64().unwrap_or(0));
            let fill = r.get_bytes(16).and_then(|_| r.get_bytes(r.remaining())).unwrap_or_default();
            let mut w = PayloadWriter::with_capacity(STAMP_BYTES + fill.len());
            w.put_u64(due).put_u64(emit).put_u64(t_in).put_u64(now_ns()).put_bytes(&fill);
            packet.payload = w.finish();
        }
        api.emit(packet);
    }
}

/// Counts and times every arrival. The first tenth of the stream is
/// warm-up; the other nine are nine *windows*, each summarised by its own
/// median and 99th percentile. A run reports the median window: a 3 ms
/// scheduling hiccup of the host lands in one 55 ms window, not in every
/// percentile of the launch, while anything the pipeline does to every
/// packet, or every few milliseconds, is in all of them. The same
/// windows, early against late, show a growing backlog.
struct Sink {
    p: RelayParams,
    seen: Vec<u64>,
    arrived: u64,
    duplicates: u64,
    latency: Histogram,
    /// Latencies of the window being filled.
    window: Vec<u64>,
    /// `[p50, p99]` nanoseconds of each finished window.
    windows: Vec<[u64; 2]>,
    gen_late: Histogram,
    hop1: Histogram,
    hop2: Histogram,
    samples: Vec<[u64; 6]>,
    first_due_ns: u64,
    last_ns: u64,
}

impl Sink {
    fn new(p: RelayParams) -> Sink {
        Sink {
            p,
            seen: vec![0; (p.packets as usize).div_ceil(64)],
            arrived: 0,
            duplicates: 0,
            latency: Histogram::default(),
            window: Vec::with_capacity(p.packets as usize / 10),
            windows: Vec::new(),
            gen_late: Histogram::default(),
            hop1: Histogram::default(),
            hop2: Histogram::default(),
            samples: Vec::new(),
            first_due_ns: u64::MAX,
            last_ns: 0,
        }
    }
}

impl StreamProcessor for Sink {
    fn process(&mut self, packet: Packet, _api: &mut StageApi) {
        let now = now_ns();
        let seq = packet.seq;
        if seq >= self.p.packets {
            self.duplicates += 1; // not a packet the source scheduled
            return;
        }
        let (word, bit) = ((seq / 64) as usize, 1u64 << (seq % 64));
        if self.seen[word] & bit != 0 {
            self.duplicates += 1;
            return;
        }
        self.seen[word] |= bit;
        self.arrived += 1;
        self.last_ns = now;

        let mut r = PayloadReader::new(packet.payload);
        let due = r.get_u64().unwrap_or(now);
        self.first_due_ns = self.first_due_ns.min(due);
        if seq < self.p.packets / 10 {
            return;
        }
        let lat = now.saturating_sub(due);
        self.latency.record(lat);
        self.window.push(lat);
        if self.window.len() as u64 == self.p.packets / 10 {
            self.window.sort_unstable();
            let at = |p: usize| self.window[self.window.len() * p / 100];
            self.windows.push([at(50), at(99)]);
            self.window.clear();
        }
        if self.p.traced {
            let emit = r.get_u64().unwrap_or(0);
            let relay_in = r.get_u64().unwrap_or(0);
            let relay_out = r.get_u64().unwrap_or(0);
            self.gen_late.record(emit.saturating_sub(due));
            self.hop1.record(relay_in.saturating_sub(emit));
            self.hop2.record(now.saturating_sub(relay_out));
            if seq.is_multiple_of(SPAN_SAMPLE_EVERY) {
                self.samples.push([seq, due, emit, relay_in, relay_out, now]);
            }
        }
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        let take = std::mem::take::<Histogram>;
        let hists = [
            ("latency", take(&mut self.latency)),
            ("gen_late", take(&mut self.gen_late)),
            ("hop1", take(&mut self.hop1)),
            ("hop2", take(&mut self.hop2)),
        ];
        let counts = [
            ("arrived", self.arrived),
            ("duplicates", self.duplicates),
            ("first_due_ns", self.first_due_ns),
            ("last_ns", self.last_ns),
        ];
        let samples = std::mem::take(&mut self.samples);
        let windows = std::mem::take(&mut self.windows);
        with_obs(|o| {
            o.hists.extend(hists);
            o.counts.extend(counts);
            o.samples.extend(samples);
            o.windows.extend(windows);
        });
    }
}

// ---------------------------------------------------------------------
// reading a worker's dump back (parent side)
// ---------------------------------------------------------------------

/// One worker's `.obs` file, parsed.
#[derive(Default)]
pub struct WorkerDump {
    /// Heap allocations the worker made.
    pub allocs: u64,
    /// Peak resident set of the worker's own address space, MiB.
    pub rss_peak_mb: f64,
    /// Exact value counts from the sources this worker hosted.
    pub truth: HashMap<u64, u64>,
    /// The collector's final answer (empty unless hosted here).
    pub answer: Vec<(u64, f64)>,
    /// Relay-sink histograms.
    pub hists: HashMap<String, Histogram>,
    /// Relay-sink counts.
    pub counts: HashMap<String, u64>,
    /// Sampled relay stamp rows.
    pub samples: Vec<[u64; 6]>,
    /// `[p50, p99]` latency (nanoseconds) of each relay-sink window.
    pub windows: Vec<[u64; 2]>,
}

impl WorkerDump {
    /// A named count of the relay sink (0 if absent).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Parse `<prefix>.obs`; `None` if missing or malformed.
    pub fn read(prefix: &Path) -> Option<WorkerDump> {
        let text = std::fs::read_to_string(prefix.with_extension("obs")).ok()?;
        let mut d = WorkerDump::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut f = rest.split(' ');
            match tag {
                "allocs" => d.allocs = f.next()?.parse().ok()?,
                "rss_peak_mb" => d.rss_peak_mb = f.next()?.parse().ok()?,
                "truth" => {
                    d.truth.insert(f.next()?.parse().ok()?, f.next()?.parse().ok()?);
                }
                "answer" => d.answer.push((f.next()?.parse().ok()?, f.next()?.parse().ok()?)),
                "hist" => {
                    let (name, sparse) = rest.split_once(' ').unwrap_or((rest, ""));
                    d.hists.insert(name.to_string(), Histogram::from_sparse(sparse)?);
                }
                "count" => {
                    d.counts.insert(f.next()?.to_string(), f.next()?.parse().ok()?);
                }
                "sample" => {
                    let mut row = [0u64; 6];
                    for slot in &mut row {
                        *slot = f.next()?.parse().ok()?;
                    }
                    d.samples.push(row);
                }
                "window" => d.windows.push([f.next()?.parse().ok()?, f.next()?.parse().ok()?]),
                _ => return None,
            }
        }
        Some(d)
    }
}

/// Read `<prefix>.<point>.taps` into a key → ns map (empty if absent).
pub fn read_taps(prefix: &Path, point: &str) -> HashMap<u64, u64> {
    let bytes = std::fs::read(prefix.with_extension(format!("{point}.taps"))).unwrap_or_default();
    bytes
        .chunks_exact(16)
        .map(|c| {
            let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
            (word(&c[..8]), word(&c[8..]))
        })
        .collect()
}
