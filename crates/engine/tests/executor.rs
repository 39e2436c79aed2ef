//! Regression tests for the work-stealing stage executor: every former
//! blocking wait (source `next_poll`, token-bucket pacing) must honor
//! the run budget, and the pool scheduler must deliver every packet
//! through every stage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use gates_core::report::RunReport;
use gates_core::{
    CostModel, Packet, SourceStatus, StageApi, StageBuilder, StreamProcessor, Topology,
};
use gates_engine::{RunOptions, ThreadedEngine};
use gates_grid::{Deployer, ResourceRegistry};
use gates_net::{Bandwidth, LinkSpec};
use gates_sim::{SimDuration, SimTime};

struct Sink;
impl StreamProcessor for Sink {
    fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
}

fn deploy_and_run(t: Topology, opts: RunOptions) -> RunReport {
    let sites: Vec<String> = (0..t.stages().len()).map(|i| format!("s{i}")).collect();
    let site_refs: Vec<&str> = sites.iter().map(String::as_str).collect();
    let registry = ResourceRegistry::uniform_cluster(&site_refs);
    let plan = Deployer::new().deploy(&t, &registry).unwrap();
    ThreadedEngine::new(t, &plan, opts).unwrap().run().unwrap()
}

/// The pre-executor source loop slept the whole `next_poll` interval in
/// one go, deaf to the stop flag: a 30-second poll delay held the run
/// hostage long past its budget. The executor parks in tick-bounded
/// slices, so the watchdog's stop takes effect within one tick.
#[test]
fn slow_poll_source_stops_within_budget() {
    struct Glacial;
    impl StreamProcessor for Glacial {
        fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
        fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
            api.emit(Packet::data(0, 0, 1, Bytes::from_static(b"tick")));
            SourceStatus::Continue { next_poll: SimDuration::from_secs(30) }
        }
    }
    let mut t = Topology::new();
    let s = t.add_stage_raw(StageBuilder::new("src").processor(|| Glacial)).unwrap();
    let k = t.add_stage(StageBuilder::new("sink").processor(|| Sink)).unwrap();
    t.connect(s, k, LinkSpec::local().blocking());

    let t0 = Instant::now();
    let report = deploy_and_run(t, RunOptions::default().max_time(SimTime::from_secs_f64(0.3)));
    let elapsed = t0.elapsed().as_secs_f64();
    assert!(elapsed < 5.0, "mid-poll stop must not wait out next_poll, took {elapsed}s");
    assert!(report.stage("sink").unwrap().packets_in >= 1);
}

/// The pre-executor flush slept the token bucket's full pacing delay in
/// one go: a slow link with a large packet could sleep for minutes
/// after the budget expired. Pacing waits are now tick-bounded parks
/// and a stopping stage skips pacing entirely.
#[test]
fn throttled_flush_stops_within_budget() {
    struct BigBurst;
    impl StreamProcessor for BigBurst {
        fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
        fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
            // ~64 KiB packets onto a 1 KB/s link: each one owes the
            // bucket about a minute of pacing.
            api.emit(Packet::data(0, 0, 1, Bytes::from(vec![7u8; 64 * 1024])));
            SourceStatus::Continue { next_poll: SimDuration::from_micros(100) }
        }
    }
    let mut t = Topology::new();
    let s = t.add_stage_raw(StageBuilder::new("src").processor(|| BigBurst)).unwrap();
    let k = t.add_stage(StageBuilder::new("sink").processor(|| Sink)).unwrap();
    t.connect(s, k, LinkSpec::with_bandwidth(Bandwidth::kb_per_sec(1.0)).blocking());

    let t0 = Instant::now();
    deploy_and_run(t, RunOptions::default().max_time(SimTime::from_secs_f64(0.3)));
    let elapsed = t0.elapsed().as_secs_f64();
    assert!(elapsed < 5.0, "mid-pacing stop must not wait out the bucket, took {elapsed}s");
}

struct Burst(u64);
impl StreamProcessor for Burst {
    fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
    fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
        if self.0 == 0 {
            return SourceStatus::Done;
        }
        self.0 -= 1;
        api.emit(Packet::data(0, self.0, 1, Bytes::from_static(&[3u8; 64])));
        SourceStatus::Continue { next_poll: SimDuration::from_micros(200) }
    }
}

struct Relay;
impl StreamProcessor for Relay {
    fn process(&mut self, p: Packet, api: &mut StageApi) {
        api.emit(p);
    }
}

fn wide_pipeline(packets: u64, delivered: &Arc<AtomicU64>) -> Topology {
    let mut t = Topology::new();
    let src = t.add_stage_raw(StageBuilder::new("src").processor(move || Burst(packets))).unwrap();
    let mut prev = src;
    for i in 0..16 {
        let stage = t
            .add_stage(
                StageBuilder::new(format!("relay-{i}"))
                    .processor(|| Relay)
                    .cost(CostModel::per_packet(1e-4))
                    .queue_capacity(16),
            )
            .unwrap();
        t.connect(prev, stage, LinkSpec::local().blocking());
        prev = stage;
    }
    struct Counting(Arc<AtomicU64>);
    impl StreamProcessor for Counting {
        fn process(&mut self, _p: Packet, _a: &mut StageApi) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let count = Arc::clone(delivered);
    let sink = t
        .add_stage(StageBuilder::new("sink").processor(move || Counting(Arc::clone(&count))))
        .unwrap();
    t.connect(prev, sink, LinkSpec::local().blocking());
    t
}

/// A 16-stage pipeline on a 4-core pool must deliver every packet
/// through every stage: exact per-stage in/out counts, nothing dropped,
/// despite 18 stages sharing 4 workers.
#[test]
fn four_core_pool_delivers_every_packet() {
    let packets = 50u64;

    let delivered = Arc::new(AtomicU64::new(0));
    let report = deploy_and_run(
        wide_pipeline(packets, &delivered),
        RunOptions::default().max_time(SimTime::from_secs_f64(30.0)).cores(4),
    );

    assert_eq!(delivered.load(Ordering::Relaxed), packets);
    assert_eq!(report.total_dropped(), 0);
    for i in 0..16 {
        let relay = report.stage(&format!("relay-{i}")).unwrap();
        assert_eq!(relay.packets_in, packets, "relay-{i} in");
        assert_eq!(relay.packets_out, packets, "relay-{i} out");
    }
    assert_eq!(report.stage("sink").unwrap().packets_in, packets);
    // The run reports its executor activation count as the engine's
    // event total.
    assert!(report.events > 0, "pool runs report activations");
}
