//! The two executors must agree: the same topology run by the
//! virtual-time engine and the native-thread runtime delivers the same
//! data (packet/record conservation), even though wall-clock timing
//! differs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use gates::core::{
    CostModel, Packet, SourceStatus, StageApi, StageBuilder, StreamProcessor, Topology,
};
use gates::engine::{DesEngine, RunOptions, ThreadedEngine};
use gates::grid::{Deployer, DeploymentPlan, ResourceRegistry};
use gates::net::{Bandwidth, LinkSpec};
use gates::sim::{SimDuration, SimTime};

struct Burst {
    left: u32,
}
impl StreamProcessor for Burst {
    fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
    fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
        if self.left == 0 {
            return SourceStatus::Done;
        }
        self.left -= 1;
        api.emit(Packet::data(0, self.left as u64, 2, Bytes::from_static(&[7u8; 32])));
        SourceStatus::Continue { next_poll: SimDuration::from_millis(2) }
    }
}

struct Doubler;
impl StreamProcessor for Doubler {
    fn process(&mut self, p: Packet, api: &mut StageApi) {
        api.emit(p.clone());
        api.emit(p);
    }
}

struct CountingSink(Arc<AtomicU64>);
impl StreamProcessor for CountingSink {
    fn process(&mut self, p: Packet, _a: &mut StageApi) {
        self.0.fetch_add(p.records as u64, Ordering::Relaxed);
    }
}

fn build(packets: u32) -> (Topology, Arc<AtomicU64>, ResourceRegistry) {
    let records = Arc::new(AtomicU64::new(0));
    let mut t = Topology::new();
    let s = t
        .add_stage_raw(StageBuilder::new("src").processor(move || Burst { left: packets }))
        .unwrap();
    let d = t.add_stage(StageBuilder::new("doubler").processor(|| Doubler)).unwrap();
    let sink_records = Arc::clone(&records);
    let k = t
        .add_stage(
            StageBuilder::new("sink").processor(move || CountingSink(Arc::clone(&sink_records))),
        )
        .unwrap();
    t.connect(s, d, LinkSpec::with_bandwidth(Bandwidth::mb_per_sec(10.0)).blocking());
    t.connect(d, k, LinkSpec::with_bandwidth(Bandwidth::mb_per_sec(10.0)).blocking());
    let registry = ResourceRegistry::uniform_cluster(&["src", "doubler", "sink"]);
    (t, records, registry)
}

fn plan(t: &Topology, registry: &ResourceRegistry) -> DeploymentPlan {
    Deployer::new().deploy(t, registry).unwrap()
}

#[test]
fn both_engines_conserve_packets_and_records() {
    let packets = 50u32;

    let (t1, records1, registry) = build(packets);
    let p1 = plan(&t1, &registry);
    let mut des = DesEngine::new(t1, &p1, RunOptions::default()).unwrap();
    let des_report = des.run_to_completion();

    let (t2, records2, registry) = build(packets);
    let p2 = plan(&t2, &registry);
    let opts = RunOptions::default().max_time(SimTime::from_secs_f64(20.0));
    let thr_report = ThreadedEngine::new(t2, &p2, opts).unwrap().run().unwrap();

    for report in [&des_report, &thr_report] {
        let sink = report.stage("sink").unwrap();
        assert_eq!(sink.packets_in, 2 * packets as u64, "doubler doubles");
        assert_eq!(report.stage("doubler").unwrap().packets_in, packets as u64);
        assert_eq!(report.total_dropped(), 0);
    }
    // The processors themselves observed identical record volumes.
    assert_eq!(records1.load(Ordering::Relaxed), records2.load(Ordering::Relaxed));
    assert_eq!(records1.load(Ordering::Relaxed), 2 * 2 * packets as u64);
}

#[test]
fn des_reports_deterministic_finish_threaded_reports_wall_time() {
    let (t1, _, registry) = build(20);
    let p1 = plan(&t1, &registry);
    let mut des = DesEngine::new(t1, &p1, RunOptions::default()).unwrap();
    let a = des.run_to_completion().finished_at;

    let (t2, _, registry) = build(20);
    let p2 = plan(&t2, &registry);
    let mut des2 = DesEngine::new(t2, &p2, RunOptions::default()).unwrap();
    let b = des2.run_to_completion().finished_at;
    assert_eq!(a, b, "virtual time is deterministic");

    let (t3, _, registry) = build(20);
    let p3 = plan(&t3, &registry);
    let opts = RunOptions::default().max_time(SimTime::from_secs_f64(20.0));
    let wall = ThreadedEngine::new(t3, &p3, opts).unwrap().run().unwrap().finished_at;
    assert!(wall > SimTime::ZERO, "threaded engine reports elapsed wall time");
}

/// A sink that still emits: one echo per packet and a final answer at
/// end of stream. It has no out-edge, so the emissions go nowhere, but
/// both engines count them.
struct EchoSink;
impl StreamProcessor for EchoSink {
    fn process(&mut self, p: Packet, api: &mut StageApi) {
        api.emit(p);
    }
    fn on_eos(&mut self, api: &mut StageApi) {
        api.emit(Packet::data(0, 0, 1, Bytes::from_static(b"answer")));
    }
}

#[test]
fn an_emitting_sink_counts_the_same_on_both_engines() {
    let packets = 30u32;
    let build = || {
        let mut t = Topology::new();
        let s = t
            .add_stage_raw(StageBuilder::new("src").processor(move || Burst { left: packets }))
            .unwrap();
        let k = t.add_stage(StageBuilder::new("sink").processor(|| EchoSink)).unwrap();
        t.connect(s, k, LinkSpec::with_bandwidth(Bandwidth::mb_per_sec(10.0)).blocking());
        let registry = ResourceRegistry::uniform_cluster(&["src", "sink"]);
        let p = plan(&t, &registry);
        (t, p)
    };

    let (t1, p1) = build();
    let des_report = DesEngine::new(t1, &p1, RunOptions::default()).unwrap().run_to_completion();
    let (t2, p2) = build();
    let opts = RunOptions::default().max_time(SimTime::from_secs_f64(20.0));
    let thr_report = ThreadedEngine::new(t2, &p2, opts).unwrap().run().unwrap();

    let des_sink = des_report.stage("sink").unwrap();
    let thr_sink = thr_report.stage("sink").unwrap();
    assert_eq!(thr_sink.packets_in, packets as u64);
    assert_eq!(thr_sink.packets_out, packets as u64 + 1, "every echo and the answer");
    assert_eq!(
        (des_sink.packets_in, des_sink.packets_out, des_sink.bytes_out),
        (thr_sink.packets_in, thr_sink.packets_out, thr_sink.bytes_out),
        "DES and threaded count a sink's emissions alike"
    );
}

/// A sink that notes how many packets it had processed when `on_eos`
/// ran.
struct TallySink {
    processed: u64,
    at_eos: Arc<AtomicU64>,
}
impl StreamProcessor for TallySink {
    fn process(&mut self, _p: Packet, _a: &mut StageApi) {
        self.processed += 1;
    }
    fn on_eos(&mut self, _api: &mut StageApi) {
        self.at_eos.store(self.processed, Ordering::Relaxed);
    }
}

#[test]
fn on_eos_runs_after_every_packet_on_both_engines() {
    let packets = 30u32;
    // 10 ms of modeled service per packet behind a fast link that
    // delivers one every 2 ms: the last EOS reaches the sink while most
    // of the stream still waits in its queue.
    let build = || {
        let at_eos = Arc::new(AtomicU64::new(u64::MAX));
        let mut t = Topology::new();
        let s = t
            .add_stage_raw(StageBuilder::new("src").processor(move || Burst { left: packets }))
            .unwrap();
        let sink_at_eos = Arc::clone(&at_eos);
        let sink = StageBuilder::new("sink")
            .cost(CostModel::per_packet(0.010))
            .processor(move || TallySink { processed: 0, at_eos: Arc::clone(&sink_at_eos) });
        let k = t.add_stage(sink).unwrap();
        t.connect(s, k, LinkSpec::with_bandwidth(Bandwidth::mb_per_sec(10.0)).blocking());
        let registry = ResourceRegistry::uniform_cluster(&["src", "sink"]);
        let p = plan(&t, &registry);
        (t, p, at_eos)
    };

    let (t1, p1, des_at_eos) = build();
    let des_report = DesEngine::new(t1, &p1, RunOptions::default()).unwrap().run_to_completion();
    let (t2, p2, thr_at_eos) = build();
    let opts = RunOptions::default().max_time(SimTime::from_secs_f64(20.0));
    let thr_report = ThreadedEngine::new(t2, &p2, opts).unwrap().run().unwrap();

    for (engine, report, at_eos) in
        [("des", &des_report, &des_at_eos), ("threaded", &thr_report, &thr_at_eos)]
    {
        assert_eq!(report.stage("sink").unwrap().packets_in, packets as u64, "{engine}");
        assert_eq!(
            at_eos.load(Ordering::Relaxed),
            packets as u64,
            "{engine}: on_eos ran before every packet was processed"
        );
    }
}
