//! `count-samps`: the distributed counting-samples application (paper §5.1).
//!
//! "A data stream comprises a set of integers. We are interested in
//! determining the n most frequently occurring values and their number
//! of occurrences at any given point in the stream." Sub-streams arrive
//! at different places; either all raw data is forwarded to a central
//! node (*centralized*), or a counting-samples summary is maintained
//! near each source and only its top-k entries cross the network
//! (*distributed*). "The number of frequently occurring values at each
//! sub-stream is the adjustment parameter used in this application."
//!
//! ## Wire formats
//!
//! * Data packet: `batch` × `u64` values (`records = batch`).
//! * Summary packet: `u32 n`, `f64 τ`, then `n` × (`u64 value`,
//!   `f64 estimate`) — `records = n`.

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

/// Deployment style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// All raw records cross the network; one big summary at the center.
    Centralized,
    /// A counting sample of footprint `k` per source; only top-k entries
    /// cross the network.
    Distributed {
        /// Summary size (the adjustment parameter's fixed value).
        k: f64,
    },
    /// Distributed with the middleware adapting `k` within `[min, max]`.
    Adaptive {
        /// Initial k.
        init: f64,
        /// Smallest k the middleware may choose.
        min: f64,
        /// Largest k the middleware may choose.
        max: f64,
    },
}

/// Parameters of a count-samps run.
#[derive(Debug, Clone)]
pub struct CountSampsParams {
    /// Number of stream sources (paper: 4).
    pub sources: usize,
    /// Integers produced per source (paper: 25,000).
    pub items_per_source: u64,
    /// Generation rate, records/second per source.
    pub rate_per_sec: f64,
    /// Records per data packet.
    pub batch: u32,
    /// Distinct values in the Zipf workload.
    pub zipf_n: usize,
    /// Zipf skew exponent.
    pub zipf_s: f64,
    /// RNG seed (sources derive decorrelated sub-seeds).
    pub seed: u64,
    /// Deployment style.
    pub mode: Mode,
    /// Source-to-center link bandwidth.
    pub bandwidth: Bandwidth,
    /// Summarizer flush period, in records.
    pub flush_every: u64,
    /// Central processing cost per raw record, seconds.
    pub central_cost_per_record: f64,
    /// Source-side summarizer cost per record, seconds.
    pub summarizer_cost_per_record: f64,
    /// Central merge cost per summary entry, seconds.
    pub merge_cost_per_entry: f64,
    /// Central summary footprint.
    pub central_footprint: usize,
    /// The query: top how many values.
    pub top_k: usize,
}

impl Default for CountSampsParams {
    fn default() -> Self {
        CountSampsParams {
            sources: 4,
            items_per_source: 25_000,
            rate_per_sec: 1_000.0,
            batch: 50,
            zipf_n: 2_000,
            zipf_s: 1.4,
            seed: 42,
            mode: Mode::Distributed { k: 100.0 },
            bandwidth: Bandwidth::kb_per_sec(100.0),
            flush_every: 500,
            central_cost_per_record: 0.0005,
            summarizer_cost_per_record: 0.0005,
            merge_cost_per_entry: 0.0001,
            central_footprint: 400,
            top_k: 10,
        }
    }
}

/// Shared result handles, read once the run is over.
#[derive(Debug, Clone, Default)]
pub struct CountSampsHandles {
    /// Exact ground-truth counts accumulated by the sources.
    pub truth: Arc<Mutex<HashMap<u64, u64>>>,
    /// The central node's answer, `(value, estimated count)`. The
    /// collector writes it when its input streams end and when it is
    /// restored from a checkpoint; a run stopped before end of stream
    /// leaves it as it was.
    pub answer: Arc<Mutex<Vec<(u64, f64)>>>,
}

impl CountSampsHandles {
    /// Score the central answer against the ground truth with the
    /// paper's §5.2 metric.
    pub fn accuracy(&self, top_k: usize) -> AccuracyReport {
        let truth = self.truth.lock();
        let answer = self.answer.lock();
        top_k_accuracy(&answer, &truth, top_k)
    }
}

// ---------------------------------------------------------------------------
// Processors
// ---------------------------------------------------------------------------

/// Zipf integer source: emits `batch`-record packets at the target rate
/// and records exact counts into the shared truth map.
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

    // Failover state: how far the stream has progressed. The RNG state
    // is deliberately not carried over — a restored source continues the
    // same Zipf *distribution* from a fresh seed, which keeps the wire
    // format and count bounded without serializing generator internals.
    fn snapshot(&self) -> Vec<u8> {
        let mut w = PayloadWriter::with_capacity(16);
        w.put_u64(self.remaining);
        w.put_u64(self.seq);
        w.finish().to_vec()
    }

    fn restore(&mut self, state: &[u8]) {
        let mut r = PayloadReader::new(state.to_vec().into());
        let (Ok(remaining), Ok(seq)) = (r.get_u64(), r.get_u64()) else { return };
        self.remaining = remaining;
        self.seq = seq;
    }
}

/// Encode a summary packet (see the module docs for the format).
pub(crate) fn write_summary(
    stream_id: u32,
    seq: u64,
    tau: f64,
    entries: impl ExactSizeIterator<Item = (u64, f64)>,
) -> Packet {
    let n = entries.len();
    let mut w = PayloadWriter::with_capacity(12 + n * 16);
    w.put_u32(n as u32);
    w.put_f64(tau);
    for (v, est) in entries {
        w.put_u64(v);
        w.put_f64(est);
    }
    Packet::summary(stream_id, seq, n as u32, w.finish())
}

/// Decode a summary payload into `(τ, entries)`. A truncated payload
/// yields the entries read so far, and the declared count sizes no
/// allocation beyond the 16-byte entries the bytes left can hold.
pub(crate) fn read_summary(payload: bytes::Bytes) -> (f64, Vec<(u64, f64)>) {
    let mut r = PayloadReader::new(payload);
    let n = r.get_u32().unwrap_or(0) as usize;
    let tau = r.get_f64().unwrap_or(1.0);
    let mut entries = Vec::with_capacity(n.min(r.remaining() / 16));
    for _ in 0..n {
        let (Ok(v), Ok(est)) = (r.get_u64(), r.get_f64()) else { break };
        entries.push((v, est));
    }
    (tau, entries)
}

/// Sum several summaries' estimates per value, in the order given, and
/// return the `k` largest sums, ties broken by value.
pub(crate) fn top_of_sum<'a>(
    summaries: impl Iterator<Item = &'a Vec<(u64, f64)>>,
    k: usize,
) -> Vec<(u64, f64)> {
    let mut combined: HashMap<u64, f64> = HashMap::new();
    for entries in summaries {
        for &(v, est) in entries {
            *combined.entry(v).or_insert(0.0) += est;
        }
    }
    let mut all: Vec<(u64, f64)> = combined.into_iter().collect();
    all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Source-side summarizer: maintains a counting sample of footprint `k`
/// (the adjustment parameter) and periodically emits its top-k entries.
struct Summarizer {
    stream_id: u32,
    sample: CountingSamples,
    rng: SmallRng,
    records_since_flush: u64,
    flush_every: u64,
    param: Option<ParamId>,
    fixed_k: f64,
    adaptive: Option<(f64, f64, f64)>, // (init, min, max)
    seq: u64,
}

impl Summarizer {
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

impl StreamProcessor for Summarizer {
    fn on_start(&mut self, api: &mut StageApi) {
        if let Some((init, min, max)) = self.adaptive {
            // The paper's specifyPara: increasing k slows processing
            // (bigger summaries, more data on the wire).
            let id = api
                .specify_para("k", init, min, max, 10.0, Direction::IncreaseSlowsDown)
                .expect("valid parameter");
            self.param = Some(id);
        }
    }

    fn process(&mut self, packet: Packet, api: &mut StageApi) {
        // Track the suggested footprint before ingesting.
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

/// Central collector. In centralized mode it ingests raw records into
/// one big counting sample; in distributed mode it keeps each source's
/// latest summary and answers from their sum. It publishes the answer
/// at end of stream and on restore, not per packet.
struct Collector {
    centralized: bool,
    sample: CountingSamples,
    rng: SmallRng,
    /// Keyed in stream-id order, so the per-value sums are too.
    latest: BTreeMap<u32, Vec<(u64, f64)>>,
    merge_cost_per_entry: f64,
    top_k: usize,
    answer: Arc<Mutex<Vec<(u64, f64)>>>,
}

impl Collector {
    fn publish(&self) {
        *self.answer.lock() = if self.centralized {
            self.sample.top_k(self.top_k).into_iter().map(|e| (e.value, e.estimate)).collect()
        } else {
            top_of_sum(self.latest.values(), self.top_k)
        };
    }
}

impl StreamProcessor for Collector {
    fn process(&mut self, packet: Packet, api: &mut StageApi) {
        if self.centralized {
            let mut r = PayloadReader::new(packet.payload);
            while r.remaining() >= 8 {
                let v = r.get_u64().expect("8 bytes remain");
                self.sample.insert(v, &mut self.rng);
            }
        } else {
            let (_tau, entries) = read_summary(packet.payload);
            // Merging is charged per entry (the static cost model charges
            // per record, which equals the entry count for summaries —
            // the extra here covers the lookup overhead knob).
            api.add_cost(SimDuration::from_secs_f64(
                self.merge_cost_per_entry * entries.len() as f64,
            ));
            self.latest.insert(packet.stream_id, entries);
        }
    }

    fn on_eos(&mut self, _api: &mut StageApi) {
        self.publish();
    }

    // Failover state: the per-source latest summaries (distributed
    // mode). Centralized mode keeps its state in a counting sample whose
    // randomized internals are not worth shipping — it restarts fresh,
    // which the empty default snapshot already expresses.
    fn snapshot(&self) -> Vec<u8> {
        if self.centralized || self.latest.is_empty() {
            return Vec::new();
        }
        let mut w = PayloadWriter::with_capacity(
            4 + self.latest.values().map(|e| 8 + e.len() * 16).sum::<usize>(),
        );
        w.put_u32(self.latest.len() as u32);
        for (id, entries) in &self.latest {
            w.put_u32(*id);
            w.put_u32(entries.len() as u32);
            for &(v, est) in entries {
                w.put_u64(v);
                w.put_f64(est);
            }
        }
        w.finish().to_vec()
    }

    fn restore(&mut self, state: &[u8]) {
        let mut r = PayloadReader::new(state.to_vec().into());
        let Ok(n_streams) = r.get_u32() else { return };
        for _ in 0..n_streams {
            let (Ok(id), Ok(n)) = (r.get_u32(), r.get_u32()) else { return };
            let mut entries = Vec::with_capacity(n.min(4_096) as usize);
            for _ in 0..n {
                let (Ok(v), Ok(est)) = (r.get_u64(), r.get_f64()) else { return };
                entries.push((v, est));
            }
            self.latest.insert(id, entries);
        }
        self.publish();
    }
}

// ---------------------------------------------------------------------------
// Topology construction
// ---------------------------------------------------------------------------

/// Build the count-samps topology and its result handles.
pub fn build(params: &CountSampsParams) -> (Topology, CountSampsHandles) {
    assert!(params.sources >= 1, "need at least one source");
    let handles = CountSampsHandles::default();
    let mut topo = Topology::new();

    let interval = SimDuration::from_secs_f64(params.batch as f64 / params.rate_per_sec);

    let centralized = matches!(params.mode, Mode::Centralized);
    let collector_cost = if centralized {
        CostModel::per_record(params.central_cost_per_record)
    } else {
        CostModel::per_record(params.merge_cost_per_entry)
    };
    let collector = {
        let answer = Arc::clone(&handles.answer);
        let top_k = params.top_k;
        let footprint = params.central_footprint;
        let merge_cost = params.merge_cost_per_entry;
        let seed = params.seed;
        topo.add_stage(
            StageBuilder::new("collector")
                .site("central")
                .cost(collector_cost)
                .queue_capacity(4_000)
                .adaptation(AdaptationConfig::with_capacity(4_000.0))
                .processor(move || Collector {
                    centralized,
                    sample: CountingSamples::new(footprint),
                    rng: seeded_stream(seed, 1_000),
                    latest: BTreeMap::new(),
                    merge_cost_per_entry: merge_cost,
                    top_k,
                    answer: Arc::clone(&answer),
                }),
        )
        .expect("collector stage")
    };

    for i in 0..params.sources {
        let stream_id = i as u32;
        let source = {
            let truth = Arc::clone(&handles.truth);
            let p = params.clone();
            topo.add_stage_raw(
                StageBuilder::new(format!("source-{i}")).site(format!("site-{i}")).processor(
                    move || ZipfSource {
                        stream_id,
                        remaining: p.items_per_source,
                        batch: p.batch,
                        interval,
                        zipf: ZipfGenerator::new(p.zipf_n, p.zipf_s),
                        rng: seeded_stream(p.seed, stream_id as u64),
                        truth: Arc::clone(&truth),
                        seq: 0,
                    },
                ),
            )
            .expect("source stage")
        };

        // File-replay generation blocks under flow control (paper's JVM
        // streams), so every count-samps connection is windowed: a slow
        // link slows the whole chain down instead of dropping records.
        let wan = LinkSpec::with_bandwidth(params.bandwidth).buffer(4).blocking();
        match params.mode {
            Mode::Centralized => {
                topo.connect(source, collector, wan.clone().buffer(2));
            }
            Mode::Distributed { .. } | Mode::Adaptive { .. } => {
                let (fixed_k, adaptive) = match params.mode {
                    Mode::Distributed { k } => (k, None),
                    Mode::Adaptive { init, min, max } => (init, Some((init, min, max))),
                    Mode::Centralized => unreachable!(),
                };
                let p = params.clone();
                let summarizer = topo
                    .add_stage(
                        StageBuilder::new(format!("summarizer-{i}"))
                            .site(format!("site-{i}"))
                            .cost(CostModel::per_record(p.summarizer_cost_per_record))
                            .queue_capacity(200)
                            .adaptation(AdaptationConfig::with_capacity(200.0))
                            .processor(move || Summarizer {
                                stream_id,
                                sample: CountingSamples::new(fixed_k.round().max(1.0) as usize),
                                rng: seeded_stream(p.seed, 100 + stream_id as u64),
                                records_since_flush: 0,
                                flush_every: p.flush_every,
                                param: None,
                                fixed_k,
                                adaptive,
                                seq: 0,
                            }),
                    )
                    .expect("summarizer stage");
                // A windowed co-located link: when the summarizer stalls on
                // the WAN, backpressure reaches the source (elastic
                // generation) instead of overflowing the summarizer queue.
                topo.connect(source, summarizer, LinkSpec::local().buffer(2).blocking());
                topo.connect(summarizer, collector, wan);
            }
        }
    }

    (topo, handles)
}

/// Publish the template into a repository under the key `"count-samps"`.
///
/// XML parameters (all optional): `sources`, `items_per_source`, `rate`,
/// `batch`, `zipf_n`, `zipf_s`, `seed`, `bandwidth_kb`, `flush_every`,
/// `top_k`, and `mode` = `centralized` | `distributed` | `adaptive` with
/// `k` / `k_init` / `k_min` / `k_max`.
///
/// Result handles are not reachable through the XML path (the
/// repository trait returns only a topology); use [`build`] directly
/// when the answer and accuracy are needed.
pub fn publish(repo: &mut ApplicationRepository) {
    repo.publish("count-samps", |config: &AppConfig| {
        let params = params_from_config(config).map_err(|e| e.to_string())?;
        Ok(build(&params).0)
    });
}

/// Parse run parameters from an XML [`AppConfig`].
pub fn params_from_config(config: &AppConfig) -> Result<CountSampsParams, gates_grid::GridError> {
    let d = CountSampsParams::default();
    let mode = match config.get("mode").unwrap_or("distributed") {
        "centralized" => Mode::Centralized,
        "adaptive" => Mode::Adaptive {
            init: config.f64_or("k_init", 100.0)?,
            min: config.f64_or("k_min", 10.0)?,
            max: config.f64_or("k_max", 240.0)?,
        },
        _ => Mode::Distributed { k: config.f64_or("k", 100.0)? },
    };
    Ok(CountSampsParams {
        sources: config.usize_or("sources", d.sources)?,
        items_per_source: config.usize_or("items_per_source", d.items_per_source as usize)? as u64,
        rate_per_sec: config.f64_or("rate", d.rate_per_sec)?,
        batch: config.usize_or("batch", d.batch as usize)? as u32,
        zipf_n: config.usize_or("zipf_n", d.zipf_n)?,
        zipf_s: config.f64_or("zipf_s", d.zipf_s)?,
        seed: config.usize_or("seed", d.seed as usize)? as u64,
        mode,
        bandwidth: Bandwidth::kb_per_sec(config.f64_or("bandwidth_kb", 100.0)?),
        flush_every: config.usize_or("flush_every", d.flush_every as usize)? as u64,
        top_k: config.usize_or("top_k", d.top_k)?,
        ..d
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates_engine::{DesEngine, RunOptions};
    use gates_grid::{Deployer, ResourceRegistry};

    fn registry(sources: usize) -> ResourceRegistry {
        let mut sites: Vec<String> = (0..sources).map(|i| format!("site-{i}")).collect();
        sites.push("central".into());
        let refs: Vec<&str> = sites.iter().map(String::as_str).collect();
        ResourceRegistry::uniform_cluster(&refs)
    }

    fn run(params: &CountSampsParams) -> (gates_core::report::RunReport, CountSampsHandles) {
        let (topo, handles) = build(params);
        let plan = Deployer::new().deploy(&topo, &registry(params.sources)).unwrap();
        let mut engine = DesEngine::new(topo, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        (report, handles)
    }

    fn small() -> CountSampsParams {
        CountSampsParams {
            sources: 2,
            items_per_source: 4_000,
            rate_per_sec: 2_000.0,
            zipf_n: 500,
            ..Default::default()
        }
    }

    #[test]
    fn summary_count_cannot_outgrow_its_payload() {
        // Claims u32::MAX entries; carries one.
        let mut w = PayloadWriter::new();
        w.put_u32(u32::MAX).put_f64(2.0).put_u64(7).put_f64(3.5);
        let payload = w.finish();
        let len = payload.len();
        let (tau, entries) = read_summary(payload);
        assert_eq!((tau, entries.as_slice()), (2.0, &[(7, 3.5)][..]));
        assert!(entries.capacity() <= len / 16, "capacity {} of {len} bytes", entries.capacity());
    }

    #[test]
    fn centralized_run_is_accurate() {
        let params = CountSampsParams { mode: Mode::Centralized, ..small() };
        let (report, handles) = run(&params);
        let truth_total: u64 = handles.truth.lock().values().sum();
        assert_eq!(truth_total, 8_000, "sources generated everything");
        let collector = report.stage("collector").unwrap();
        assert_eq!(collector.records_in, 8_000, "all raw records crossed the network");
        let acc = handles.accuracy(10);
        assert!(acc.score > 90.0, "centralized accuracy too low: {acc:?}");
    }

    #[test]
    fn distributed_run_sends_less_and_stays_accurate() {
        let central = run(&CountSampsParams { mode: Mode::Centralized, ..small() });
        let dist = run(&CountSampsParams { mode: Mode::Distributed { k: 100.0 }, ..small() });
        let central_bytes = central.0.stage("collector").unwrap().bytes_in;
        let dist_bytes = dist.0.stage("collector").unwrap().bytes_in;
        assert!(
            dist_bytes < central_bytes / 2,
            "summaries must shrink traffic: {dist_bytes} vs {central_bytes}"
        );
        let acc = dist.1.accuracy(10);
        assert!(acc.score > 75.0, "distributed accuracy too low: {acc:?}");
        assert!(acc.recall >= 0.8, "top-10 recall too low: {acc:?}");
    }

    #[test]
    fn distributed_is_faster_on_slow_links() {
        let slow = Bandwidth::kb_per_sec(5.0);
        let central =
            run(&CountSampsParams { mode: Mode::Centralized, bandwidth: slow, ..small() });
        let dist = run(&CountSampsParams {
            mode: Mode::Distributed { k: 100.0 },
            bandwidth: slow,
            ..small()
        });
        assert!(
            dist.0.execution_secs() < central.0.execution_secs(),
            "distributed {0}s must beat centralized {1}s",
            dist.0.execution_secs(),
            central.0.execution_secs()
        );
    }

    #[test]
    fn bigger_k_is_more_accurate() {
        let lo = run(&CountSampsParams { mode: Mode::Distributed { k: 10.0 }, ..small() });
        let hi = run(&CountSampsParams { mode: Mode::Distributed { k: 200.0 }, ..small() });
        let lo_acc = lo.1.accuracy(10).score;
        let hi_acc = hi.1.accuracy(10).score;
        assert!(hi_acc > lo_acc, "k=200 ({hi_acc}) must beat k=10 ({lo_acc})");
    }

    #[test]
    fn adaptive_mode_moves_k() {
        let params = CountSampsParams {
            mode: Mode::Adaptive { init: 100.0, min: 10.0, max: 240.0 },
            bandwidth: Bandwidth::kb_per_sec(1.0),
            items_per_source: 30_000,
            flush_every: 250,
            ..small()
        };
        let (report, _) = run(&params);
        let summ = report.stage("summarizer-0").unwrap();
        let traj = summ.param("k").expect("k trajectory recorded");
        assert!(traj.samples.len() > 3, "adaptation rounds ran");
        // While the link is saturated, k must come down; after the finite
        // stream ends and the backlog drains, the idle pipeline may relax
        // it again, so the loaded-phase minimum is the meaningful signal.
        let min = traj.samples.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
        assert!(
            min < 100.0,
            "a 1 KB/s link must push k down from 100, min was {min} (traj {:?})",
            traj.samples
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let p = small();
        let a = run(&p);
        let b = run(&p);
        assert_eq!(a.0.finished_at, b.0.finished_at);
        assert_eq!(*a.1.answer.lock(), *b.1.answer.lock());
    }

    #[test]
    fn collector_checkpoint_round_trips() {
        let answer = Arc::new(Mutex::new(Vec::new()));
        let mut a = Collector {
            centralized: false,
            sample: CountingSamples::new(100),
            rng: seeded_stream(1, 1),
            latest: BTreeMap::new(),
            merge_cost_per_entry: 0.0,
            top_k: 10,
            answer: Arc::clone(&answer),
        };
        a.latest.insert(0, vec![(7, 12.0), (9, 3.5)]);
        a.latest.insert(2, vec![(7, 1.0)]);
        let state = a.snapshot();
        assert!(!state.is_empty(), "distributed collector has replayable state");

        let mut b = Collector {
            centralized: false,
            sample: CountingSamples::new(100),
            rng: seeded_stream(1, 2),
            latest: BTreeMap::new(),
            merge_cost_per_entry: 0.0,
            top_k: 10,
            answer: Arc::new(Mutex::new(Vec::new())),
        };
        b.restore(&state);
        assert_eq!(b.latest, a.latest);
        // Restore publishes, so the answer is warm before any packet.
        assert_eq!(b.answer.lock().first(), Some(&(7, 13.0)));

        let centralized = Collector { centralized: true, ..a };
        assert!(centralized.snapshot().is_empty(), "centralized mode restarts fresh");
    }

    #[test]
    fn distributed_answer_sums_streams_in_id_order() {
        // 1e16 + 1 rounds back to 1e16, so only the id-order sum,
        // ((1e16 + 1) + 1) + 1, is exactly 1e16; any order that adds two
        // of the 1.0s first lands above it.
        for _ in 0..20 {
            let mut c = Collector {
                centralized: false,
                sample: CountingSamples::new(100),
                rng: seeded_stream(1, 1),
                latest: BTreeMap::new(),
                merge_cost_per_entry: 0.0,
                top_k: 10,
                answer: Arc::new(Mutex::new(Vec::new())),
            };
            let mut api = StageApi::new();
            for (stream, est) in [(0, 1e16), (1, 1.0), (2, 1.0), (3, 1.0)] {
                c.process(write_summary(stream, 0, 1.0, [(7, est)].into_iter()), &mut api);
            }
            c.on_eos(&mut api);
            assert_eq!(*c.answer.lock(), [(7, 1e16)]);
        }
    }

    #[test]
    fn zipf_source_checkpoint_round_trips() {
        let truth = Arc::new(Mutex::new(HashMap::new()));
        let mut src = ZipfSource {
            stream_id: 3,
            remaining: 1_234,
            batch: 50,
            interval: SimDuration::from_secs_f64(0.01),
            zipf: ZipfGenerator::new(100, 1.1),
            rng: seeded_stream(1, 3),
            truth: Arc::clone(&truth),
            seq: 77,
        };
        let state = src.snapshot();
        src.remaining = 0;
        src.seq = 0;
        src.restore(&state);
        assert_eq!((src.remaining, src.seq), (1_234, 77));
        // Garbage state is ignored rather than corrupting progress.
        src.restore(&[1, 2, 3]);
        assert_eq!((src.remaining, src.seq), (1_234, 77));
    }

    #[test]
    fn xml_config_round_trip() {
        let config = AppConfig::new("run", "count-samps")
            .with_param("sources", 3)
            .with_param("mode", "adaptive")
            .with_param("k_min", 20)
            .with_param("bandwidth_kb", 10);
        let params = params_from_config(&config).unwrap();
        assert_eq!(params.sources, 3);
        assert!(matches!(params.mode, Mode::Adaptive { min, .. } if min == 20.0));
        assert_eq!(params.bandwidth.as_bytes_per_sec(), 10_000.0);
        // And the published factory builds it.
        let mut repo = ApplicationRepository::new();
        publish(&mut repo);
        let topo = repo.build(&config).unwrap();
        assert_eq!(topo.stages().len(), 1 + 3 * 2, "collector + per-source chains");
    }
}
