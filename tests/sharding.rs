//! Sharded stages on the threaded engine, end to end.
//!
//! A keyed source feeds an aggregation stage replicated 1, 2 and 4 ways
//! (upstream hash-routing spreads packets over the replicas); every
//! replica ships its count-min, hyperloglog, misra-gries and P²
//! summaries to a merger stage at end-of-stream. Two drills:
//!
//! * **merge exactness** — the merged result equals a single unsharded
//!   instance that saw the whole stream: count-min and hyperloglog
//!   exactly, misra-gries within its advertised bound, the P² median
//!   inside the interquartile band; every packet reaches the group and
//!   blocking links drop nothing;
//! * **live split** — 2 replicas start from a concentrated shard map
//!   (replica 0 owns the whole key space) and the key range is split
//!   live mid-run through the group's shared router: every packet is
//!   delivered, nothing is dropped, and the split target sees traffic.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use gates::core::report::RunReport;
use gates::core::{
    shard_key, CostModel, Packet, ShardMap, SourceStatus, StageApi, StageBuilder, StreamProcessor,
    Topology,
};
use gates::engine::{RunOptions, ThreadedEngine};
use gates::grid::{Deployer, DeploymentPlan, ResourceRegistry};
use gates::net::{Bandwidth, LinkSpec};
use gates::sim::rng::seeded;
use gates::sim::{SimDuration, SimTime};
use gates::streams::{CountMinSketch, HyperLogLog, MisraGries, P2Quantile, ZipfGenerator};

/// Sketch dimensions shared by every shard and the unsharded reference
/// (identical dimensions make count-min merges bit-exact).
const CM_WIDTH: usize = 256;
const CM_DEPTH: usize = 4;
const HLL_B: u32 = 10;
const MG_K: usize = 32;

const VALUES_PER_PACKET: usize = 32;
const PACKETS: u64 = 160;
/// Modeled service time per packet on every replica.
const SERVICE_S: f64 = 1e-3;

fn fresh_sketches() -> (CountMinSketch, HyperLogLog, MisraGries, P2Quantile) {
    (
        CountMinSketch::new(CM_WIDTH, CM_DEPTH),
        HyperLogLog::new(HLL_B),
        MisraGries::new(MG_K),
        P2Quantile::new(0.5),
    )
}

/// A Zipf-skewed value stream, generated once so every run and the
/// unsharded reference see byte-identical data.
fn stream() -> Arc<Vec<u64>> {
    let mut rng = seeded(7);
    let zipf = ZipfGenerator::new(500, 1.1);
    Arc::new((0..PACKETS as usize * VALUES_PER_PACKET).map(|_| zipf.sample(&mut rng)).collect())
}

/// Length-prefix each sketch's bytes into one summary payload.
fn encode_summary(
    cm: &CountMinSketch,
    hll: &HyperLogLog,
    mg: &MisraGries,
    p2: &P2Quantile,
) -> Vec<u8> {
    let mut out = Vec::new();
    for section in [cm.to_bytes(), hll.registers().to_vec(), mg.to_bytes(), p2.to_bytes()] {
        out.extend_from_slice(&(section.len() as u32).to_le_bytes());
        out.extend_from_slice(&section);
    }
    out
}

fn split_sections(bytes: &[u8]) -> Vec<&[u8]> {
    let mut sections = Vec::new();
    let mut at = 0;
    while at + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 4;
        sections.push(&bytes[at..at + len]);
        at += len;
    }
    sections
}

/// Emits the pre-generated values as keyed packets, `batch` per poll,
/// then ends the stream. The split drill emits one packet per poll at
/// the service rate, so that packets are still upstream (and
/// re-routable) when the live split fires: routing happens at send
/// time, and a packet already queued on a replica stays there.
struct KeyedSource {
    data: Arc<Vec<u64>>,
    seq: u64,
    batch: u64,
    poll_every: SimDuration,
}

impl StreamProcessor for KeyedSource {
    fn process(&mut self, _p: Packet, _a: &mut StageApi) {}

    fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
        for _ in 0..self.batch.min(PACKETS - self.seq) {
            let start = self.seq as usize * VALUES_PER_PACKET;
            let mut payload = Vec::with_capacity(8 * VALUES_PER_PACKET);
            for v in &self.data[start..start + VALUES_PER_PACKET] {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            api.emit(
                Packet::data(0, self.seq, VALUES_PER_PACKET as u32, Bytes::from(payload))
                    .with_key(shard_key(&self.seq.to_le_bytes())),
            );
            self.seq += 1;
        }
        if self.seq == PACKETS {
            SourceStatus::Done
        } else {
            SourceStatus::Continue { next_poll: self.poll_every }
        }
    }
}

/// The replicated aggregation stage: sketches every value it sees, then
/// ships one summary packet downstream at end-of-stream.
struct ShardAgg {
    cm: CountMinSketch,
    hll: HyperLogLog,
    mg: MisraGries,
    p2: P2Quantile,
}

impl StreamProcessor for ShardAgg {
    fn process(&mut self, p: Packet, _a: &mut StageApi) {
        for chunk in p.payload.chunks_exact(8) {
            let v = u64::from_le_bytes(chunk.try_into().unwrap());
            self.cm.insert(v);
            self.hll.insert(v);
            self.mg.insert(v);
            self.p2.insert(v as f64);
        }
    }

    fn on_eos(&mut self, api: &mut StageApi) {
        let summary = encode_summary(&self.cm, &self.hll, &self.mg, &self.p2);
        api.emit(Packet::data(1, 0, 1, Bytes::from(summary)));
    }
}

/// What the merger accumulated by end-of-run.
#[derive(Default)]
struct Merged {
    cm: Option<CountMinSketch>,
    hll: Option<HyperLogLog>,
    mg: Option<MisraGries>,
    p2: Option<P2Quantile>,
    summaries: usize,
}

/// Folds every replica's summary into one with the sketches' own merges.
struct Merger(Arc<Mutex<Merged>>);

impl StreamProcessor for Merger {
    fn process(&mut self, p: Packet, _a: &mut StageApi) {
        let sections = split_sections(&p.payload);
        assert_eq!(sections.len(), 4, "summary packet must carry four sketches");
        let cm = CountMinSketch::from_bytes(sections[0]).expect("count-min decodes");
        let hll = HyperLogLog::from_registers(sections[1].to_vec()).expect("hll decodes");
        let mg = MisraGries::from_bytes(sections[2]).expect("misra-gries decodes");
        let p2 = P2Quantile::from_bytes(sections[3]).expect("quantile decodes");
        let mut m = self.0.lock().unwrap();
        m.summaries += 1;
        match &mut m.cm {
            Some(mine) => mine.merge(&cm).expect("same-shape merge"),
            None => m.cm = Some(cm),
        }
        match &mut m.hll {
            Some(mine) => mine.merge(&hll).expect("same-size merge"),
            None => m.hll = Some(hll),
        }
        match &mut m.mg {
            Some(mine) => mine.merge(&mg),
            None => m.mg = Some(mg),
        }
        match &mut m.p2 {
            Some(mine) => mine.merge(&p2).expect("same-quantile merge"),
            None => m.p2 = Some(p2),
        }
    }
}

/// Source → agg ×`replicas` → merger, on blocking high-bandwidth links.
/// `pace: None` lets the source emit as fast as backpressure allows.
fn build(
    data: &Arc<Vec<u64>>,
    replicas: usize,
    pace: Option<SimDuration>,
) -> (Topology, Arc<Mutex<Merged>>) {
    let merged = Arc::new(Mutex::new(Merged::default()));
    let mut t = Topology::new();
    let data = Arc::clone(data);
    let (batch, poll_every) = match pace {
        Some(every) => (1, every),
        None => (16, SimDuration::from_micros(100)),
    };
    let src = t
        .add_stage_raw(
            StageBuilder::new("src")
                .processor(move || KeyedSource {
                    data: Arc::clone(&data),
                    seq: 0,
                    batch,
                    poll_every,
                })
                .no_adaptation(),
        )
        .unwrap();
    let agg = t
        .add_stage(
            StageBuilder::new("agg")
                .processor(|| {
                    let (cm, hll, mg, p2) = fresh_sketches();
                    ShardAgg { cm, hll, mg, p2 }
                })
                .cost(CostModel::per_packet(SERVICE_S))
                .queue_capacity(64)
                .no_adaptation(),
        )
        .unwrap();
    let sink_state = Arc::clone(&merged);
    let sink = t
        .add_stage(
            StageBuilder::new("merge")
                .processor(move || Merger(Arc::clone(&sink_state)))
                .no_adaptation(),
        )
        .unwrap();
    let fast = || LinkSpec::with_bandwidth(Bandwidth::mb_per_sec(1000.0)).blocking();
    t.connect(src, agg, fast());
    t.connect(agg, sink, fast());
    t.replicate("agg", replicas).unwrap();
    (t, merged)
}

fn deploy(t: &Topology, replicas: usize) -> (DeploymentPlan, RunOptions) {
    let sites: Vec<String> = (0..t.stages().len()).map(|i| format!("s{i}")).collect();
    let site_refs: Vec<&str> = sites.iter().map(String::as_str).collect();
    let registry = ResourceRegistry::uniform_cluster(&site_refs);
    let plan = Deployer::new().deploy(t, &registry).unwrap();
    let opts = RunOptions::default().max_time(SimTime::from_secs_f64(120.0)).cores(replicas + 2);
    (plan, opts)
}

/// Packets a replica group processed, summed over its members.
fn group_packets_in(report: &RunReport, replicas: usize) -> u64 {
    if replicas == 1 {
        return report.stage("agg").unwrap().packets_in;
    }
    (0..replicas).map(|i| report.stage(&format!("agg#{i}")).unwrap().packets_in).sum()
}

#[test]
fn sharded_summaries_merge_to_the_unsharded_answer() {
    let data = stream();
    let (mut ref_cm, mut ref_hll, mut ref_mg, _) = fresh_sketches();
    for &v in data.iter() {
        ref_cm.insert(v);
        ref_hll.insert(v);
        ref_mg.insert(v);
    }
    let mut sorted = data.to_vec();
    sorted.sort_unstable();
    let iqr = sorted[sorted.len() / 4] as f64..=sorted[3 * sorted.len() / 4] as f64;

    for replicas in [1usize, 2, 4] {
        let (t, merged) = build(&data, replicas, None);
        let (plan, opts) = deploy(&t, replicas);
        let report = ThreadedEngine::new(t, &plan, opts).unwrap().run().unwrap();
        assert_eq!(
            group_packets_in(&report, replicas),
            PACKETS,
            "{replicas} replicas: the group must see every packet"
        );
        assert_eq!(report.total_dropped(), 0, "{replicas} replicas: blocking links must not drop");

        let m = std::mem::take(&mut *merged.lock().unwrap());
        assert_eq!(m.summaries, replicas, "one summary per replica");
        let cm = m.cm.expect("merged count-min");
        for v in 0..500u64 {
            assert_eq!(
                cm.estimate(v),
                ref_cm.estimate(v),
                "{replicas} replicas: count-min must match the unsharded sketch exactly ({v})"
            );
        }
        assert_eq!(
            m.hll.expect("merged hll"),
            ref_hll,
            "{replicas} replicas: hyperloglog union must reconstruct the unsharded state"
        );
        let mg = m.mg.expect("merged misra-gries");
        for (v, _) in ref_mg.top_k(5) {
            let truth = data.iter().filter(|&&x| x == v).count() as u64;
            assert!(mg.count(v) <= truth, "{replicas} replicas: misra-gries overcounts {v}");
            assert!(
                truth - mg.count(v) <= mg.error_bound(),
                "{replicas} replicas: misra-gries beyond its bound for {v}"
            );
        }
        let median = m.p2.expect("merged quantile").value().expect("merged median");
        assert!(iqr.contains(&median), "{replicas} replicas: median {median} outside {iqr:?}");
    }
}

#[test]
fn live_split_delivers_everything_and_feeds_the_target() {
    let data = stream();
    // Emit at the service rate so the stream outlives the split and
    // post-split packets route to the new owner.
    let (t, merged) = build(&data, 2, Some(SimDuration::from_secs_f64(SERVICE_S)));
    // Start with replica 0 owning the whole key space: the run begins
    // hot on one member, the situation a split exists for.
    let router = Arc::clone(&t.groups()[0].router);
    let (epoch, _) = router.snapshot();
    assert!(router.install(epoch + 1, ShardMap::concentrated(2)), "install concentrated map");
    let (plan, opts) = deploy(&t, 2);
    let engine = ThreadedEngine::new(t, &plan, opts).unwrap();
    let splitter = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            router.split_hot(0).expect("live split")
        })
    };
    let report = engine.run().unwrap();
    let change = splitter.join().expect("splitter thread");

    assert_eq!(change.from, 0, "the split moves keys away from the hot replica");
    assert_eq!(group_packets_in(&report, 2), PACKETS, "the split must not lose a packet");
    assert_eq!(report.total_dropped(), 0, "a live split must not drop packets");
    assert_eq!(merged.lock().unwrap().summaries, 2, "both replicas summarize");
    let target = report.stage(&format!("agg#{}", change.to)).unwrap().packets_in;
    assert!(target > 0, "the split target must see traffic after the live split");
}
