//! The deterministic virtual-time executor.

mod stage_actor;

use gates_core::report::RunReport;
use gates_core::trace::{RunMeta, TraceEvent};
use gates_core::{StageId, Topology};
use gates_grid::DeploymentPlan;
use gates_sim::{SimDuration, SimTime, Simulation};

use crate::options::RunOptions;
use crate::EngineError;
use stage_actor::{EngineMsg, StageActor};

/// Runs a deployed topology in virtual time.
///
/// ```
/// use gates_core::{Packet, SourceStatus, StageApi, StageBuilder, StreamProcessor, Topology};
/// use gates_engine::{DesEngine, RunOptions};
/// use gates_grid::{Deployer, ResourceRegistry};
/// use gates_net::LinkSpec;
/// use gates_sim::SimDuration;
/// use bytes::Bytes;
///
/// struct Once(bool);
/// impl StreamProcessor for Once {
///     fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
///     fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
///         if self.0 { return SourceStatus::Done; }
///         self.0 = true;
///         api.emit(Packet::data(0, 0, 1, Bytes::from_static(b"hi")));
///         SourceStatus::Continue { next_poll: SimDuration::from_millis(1) }
///     }
/// }
/// struct Sink;
/// impl StreamProcessor for Sink {
///     fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
/// }
///
/// let mut topo = Topology::new();
/// let src = topo.add_stage_raw(StageBuilder::new("src").processor(|| Once(false))).unwrap();
/// let sink = topo.add_stage(StageBuilder::new("sink").processor(|| Sink)).unwrap();
/// topo.connect(src, sink, LinkSpec::local());
///
/// let registry = ResourceRegistry::uniform_cluster(&["src", "sink"]);
/// let plan = Deployer::new().deploy(&topo, &registry).unwrap();
/// let mut engine = DesEngine::new(topo, &plan, RunOptions::default()).unwrap();
/// let report = engine.run_to_completion();
/// assert_eq!(report.stage("sink").unwrap().packets_in, 1);
/// ```
pub struct DesEngine {
    sim: Simulation<EngineMsg>,
    stage_count: usize,
    opts: RunOptions,
    started: bool,
}

impl DesEngine {
    /// Build an engine for `topology` as placed by `plan`.
    pub fn new(
        topology: Topology,
        plan: &DeploymentPlan,
        opts: RunOptions,
    ) -> Result<Self, EngineError> {
        topology.validate().map_err(|e| EngineError::InvalidTopology(e.to_string()))?;
        opts.validate()?;

        let mut sim = Simulation::new();
        let stage_count = topology.stages().len();
        let mut placements = Vec::with_capacity(stage_count);

        for idx in 0..stage_count {
            let actor = StageActor::new(&topology, plan, StageId::from_index(idx), opts.clone());
            placements.push((actor.core.name().to_string(), actor.core.placed_on().to_string()));
            let actor_id = sim.add_actor(actor);
            debug_assert_eq!(actor_id, idx, "actor ids mirror stage ids");
        }

        if opts.recorder.enabled() {
            opts.recorder.record(TraceEvent::Meta(RunMeta { engine: "des".into(), placements }));
        }

        Ok(DesEngine { sim, stage_count, opts, started: true })
    }

    /// Run until every stage finishes (EOS fully propagated) or
    /// `opts.max_time` is reached. Returns the run report.
    pub fn run_to_completion(&mut self) -> RunReport {
        let deadline = self.opts.max_time;
        // Run in slices so we can poll the all-finished condition without
        // requiring the event queue to drain (continuous sources never
        // drain).
        let slice = SimDuration::from_secs(1);
        loop {
            let now = self.sim.now();
            if now >= deadline || self.all_finished() {
                break;
            }
            let target = (now + slice).min(deadline);
            self.sim.run_until(target);
            // If the queue drained entirely we are done regardless.
            if self.sim.now() < target {
                break;
            }
        }
        self.report()
    }

    /// Run for a fixed span of virtual time (continuous workloads).
    pub fn run_for(&mut self, duration: SimDuration) -> RunReport {
        let target = self.sim.now() + duration;
        self.sim.run_until(target);
        self.report()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn all_finished(&self) -> bool {
        (0..self.stage_count)
            .all(|i| self.sim.actor::<StageActor>(i).map(StageActor::finished).unwrap_or(true))
    }

    /// Build the current run report.
    pub fn report(&self) -> RunReport {
        let mut stages = Vec::with_capacity(self.stage_count);
        let mut finished_at = SimTime::ZERO;
        let mut all_finished = true;
        let mut faults_injected = 0;
        for i in 0..self.stage_count {
            let actor = self.sim.actor::<StageActor>(i).expect("stage actor");
            stages.push(actor.report());
            faults_injected += actor.faults_injected();
            match actor.finish_time() {
                Some(t) => finished_at = finished_at.max(t),
                None => all_finished = false,
            }
        }
        if !all_finished {
            finished_at = self.sim.now();
        }
        RunReport {
            finished_at,
            stages,
            events: self.sim.events_processed(),
            lost_workers: Vec::new(),
            faults_injected,
            // Simulated links have no reconnect path: a lost frame is
            // simply lost, so there is nothing to recover.
            fault_recoveries: 0,
            trace: self.opts.recorder.as_flight().map(|f| f.run_trace()),
            // Delivery-layer counters are distributed-runtime-only.
            packets_lost: 0,
            packets_replayed: 0,
            packets_deduped: 0,
            backpressure_us: 0,
        }
    }

    /// True once `run_to_completion` would return immediately.
    pub fn is_complete(&self) -> bool {
        self.started && self.all_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gates_core::{CostModel, Packet, SourceStatus, StageApi, StageBuilder, StreamProcessor};
    use gates_grid::{Deployer, ResourceRegistry};
    use gates_net::{Bandwidth, LinkSpec};

    /// Emits `total` fixed-size packets at `interval`, then ends.
    struct BurstSource {
        total: u64,
        emitted: u64,
        payload: usize,
        interval: SimDuration,
    }

    impl StreamProcessor for BurstSource {
        fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
        fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
            if self.emitted >= self.total {
                return SourceStatus::Done;
            }
            let payload = Bytes::from(vec![0u8; self.payload]);
            api.emit(Packet::data(0, self.emitted, 1, payload));
            self.emitted += 1;
            SourceStatus::Continue { next_poll: self.interval }
        }
    }

    /// Counts what it sees; forwards nothing.
    #[derive(Default)]
    struct CountingSink {
        packets: u64,
        bytes: u64,
    }

    impl StreamProcessor for CountingSink {
        fn process(&mut self, p: Packet, _a: &mut StageApi) {
            self.packets += 1;
            self.bytes += p.payload.len() as u64;
        }
    }

    /// Forwards every packet unchanged.
    struct Forwarder;
    impl StreamProcessor for Forwarder {
        fn process(&mut self, p: Packet, api: &mut StageApi) {
            api.emit(p);
        }
    }

    fn deploy(topology: &Topology) -> DeploymentPlan {
        let sites: Vec<String> = topology.stages().iter().map(|s| s.site.clone()).collect();
        let site_refs: Vec<&str> = sites.iter().map(String::as_str).collect();
        let registry = ResourceRegistry::uniform_cluster(&site_refs);
        Deployer::new().deploy(topology, &registry).unwrap()
    }

    fn source(total: u64, payload: usize, interval_ms: u64) -> StageBuilder {
        StageBuilder::new("src").processor(move || BurstSource {
            total,
            emitted: 0,
            payload,
            interval: SimDuration::from_millis(interval_ms),
        })
    }

    #[test]
    fn packets_flow_source_to_sink() {
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(10, 100, 10)).unwrap();
        let k = t.add_stage(StageBuilder::new("sink").processor(CountingSink::default)).unwrap();
        t.connect(s, k, LinkSpec::local());
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        assert!(engine.is_complete());
        let sink = report.stage("sink").unwrap();
        assert_eq!(sink.packets_in, 10);
        assert_eq!(sink.bytes_in, 1_000);
    }

    #[test]
    fn execution_time_tracks_link_bandwidth() {
        // 10 packets × (100 payload + 33 header) bytes over 1 KB/s ≈ 1.33 s.
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(10, 100, 1)).unwrap();
        let k = t.add_stage(StageBuilder::new("sink").processor(CountingSink::default)).unwrap();
        t.connect(s, k, LinkSpec::with_bandwidth(Bandwidth::kb_per_sec(1.0)));
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        let secs = report.execution_secs();
        assert!(secs > 1.3 && secs < 1.6, "bandwidth-bound run took {secs}s");
    }

    #[test]
    fn processing_cost_drives_execution_time() {
        // 10 packets at 50 ms each = 0.5 s of service on a fast link.
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(10, 10, 1)).unwrap();
        let k = t
            .add_stage(
                StageBuilder::new("sink")
                    .cost(CostModel::per_packet(0.050))
                    .processor(CountingSink::default),
            )
            .unwrap();
        t.connect(s, k, LinkSpec::local());
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        let sink = report.stage("sink").unwrap();
        assert!((sink.busy_time.as_secs_f64() - 0.5).abs() < 1e-6);
        assert!(report.execution_secs() >= 0.5);
    }

    #[test]
    fn node_speed_scales_service_time() {
        let build = || {
            let mut t = Topology::new();
            let s = t.add_stage_raw(source(10, 10, 1)).unwrap();
            let k = t
                .add_stage(
                    StageBuilder::new("sink")
                        .site("central")
                        .cost(CostModel::per_packet(0.1))
                        .processor(CountingSink::default),
                )
                .unwrap();
            t.connect(s, k, LinkSpec::local());
            t
        };
        let run = |speed: f64| {
            let t = build();
            let mut registry = ResourceRegistry::new();
            registry.register(gates_grid::NodeSpec::new("n0", "src"));
            registry.register(gates_grid::NodeSpec::new("n1", "central").speed(speed));
            let plan = Deployer::new().deploy(&t, &registry).unwrap();
            DesEngine::new(t, &plan, RunOptions::default()).unwrap().run_to_completion()
        };
        let slow = run(1.0);
        let fast = run(4.0);
        assert!(
            fast.stage("sink").unwrap().busy_time < slow.stage("sink").unwrap().busy_time,
            "faster node must spend less busy time"
        );
    }

    #[test]
    fn three_stage_pipeline_preserves_packets() {
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(25, 64, 2)).unwrap();
        let f = t.add_stage(StageBuilder::new("fwd").processor(|| Forwarder)).unwrap();
        let k = t.add_stage(StageBuilder::new("sink").processor(CountingSink::default)).unwrap();
        t.connect(s, f, LinkSpec::with_bandwidth(Bandwidth::kb_per_sec(100.0)));
        t.connect(f, k, LinkSpec::with_bandwidth(Bandwidth::kb_per_sec(100.0)));
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        assert_eq!(report.stage("fwd").unwrap().packets_in, 25);
        assert_eq!(report.stage("fwd").unwrap().packets_out, 25);
        assert_eq!(report.stage("sink").unwrap().packets_in, 25);
    }

    #[test]
    fn fan_in_delivers_all_streams() {
        let mut t = Topology::new();
        let mut sources = Vec::new();
        for i in 0..4 {
            let s = t
                .add_stage_raw(StageBuilder::new(format!("src{i}")).processor(move || {
                    BurstSource {
                        total: 10,
                        emitted: 0,
                        payload: 16,
                        interval: SimDuration::from_millis(3 + i),
                    }
                }))
                .unwrap();
            sources.push(s);
        }
        let k = t.add_stage(StageBuilder::new("sink").processor(CountingSink::default)).unwrap();
        for &s in &sources {
            t.connect(s, k, LinkSpec::with_bandwidth(Bandwidth::kb_per_sec(50.0)));
        }
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        assert_eq!(report.stage("sink").unwrap().packets_in, 40);
    }

    #[test]
    fn saturated_slow_stage_drops_packets() {
        // Source emits every 1 ms; sink takes 100 ms per packet with a
        // 4-packet queue: most packets must drop.
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(200, 8, 1)).unwrap();
        let k = t
            .add_stage(
                StageBuilder::new("sink")
                    .cost(CostModel::per_packet(0.1))
                    .queue_capacity(4)
                    .processor(CountingSink::default),
            )
            .unwrap();
        t.connect(s, k, LinkSpec::local());
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        let sink = report.stage("sink").unwrap();
        assert!(sink.packets_dropped > 100, "only {} drops", sink.packets_dropped);
        assert_eq!(sink.packets_in + sink.packets_dropped, 200);
    }

    #[test]
    fn slow_link_backpressures_upstream_queue() {
        // Forwarder reads a fast source but its out-link is 1 KB/s with a
        // 1-packet buffer: the forwarder's input queue must fill.
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(100, 100, 1)).unwrap();
        let f = t
            .add_stage(StageBuilder::new("fwd").queue_capacity(50).processor(|| Forwarder))
            .unwrap();
        let k = t.add_stage(StageBuilder::new("sink").processor(CountingSink::default)).unwrap();
        t.connect(s, f, LinkSpec::local());
        t.connect(f, k, LinkSpec::with_bandwidth(Bandwidth::kb_per_sec(1.0)).buffer(1));
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_for(SimDuration::from_secs(5));
        let fwd = report.stage("fwd").unwrap();
        assert!(
            fwd.queue.max() > 10.0,
            "saturated link must grow the upstream queue, max was {}",
            fwd.queue.max()
        );
    }

    #[test]
    fn multiple_parameters_adapt_independently() {
        use gates_core::Direction;
        // A stage declaring two volume parameters: both must get
        // controllers, trajectories, and move under sustained overload.
        struct TwoParams {
            a: Option<gates_core::ParamId>,
            b: Option<gates_core::ParamId>,
        }
        impl StreamProcessor for TwoParams {
            fn on_start(&mut self, api: &mut StageApi) {
                self.a = Some(
                    api.specify_para("alpha", 0.5, 0.0, 1.0, 0.01, Direction::IncreaseSlowsDown)
                        .unwrap(),
                );
                self.b = Some(
                    api.specify_para(
                        "beta",
                        100.0,
                        10.0,
                        200.0,
                        10.0,
                        Direction::IncreaseSlowsDown,
                    )
                    .unwrap(),
                );
            }
            fn process(&mut self, _p: Packet, _api: &mut StageApi) {}
        }

        let mut t = Topology::new();
        // Fast source into a 100 ms/packet stage: persistent overload.
        let s = t.add_stage_raw(source(600, 8, 1)).unwrap();
        let k = t
            .add_stage(
                StageBuilder::new("slow")
                    .cost(CostModel::per_packet(0.1))
                    .queue_capacity(50)
                    .processor(|| TwoParams { a: None, b: None }),
            )
            .unwrap();
        t.connect(s, k, LinkSpec::local());
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_for(SimDuration::from_secs(30));
        let stage = report.stage("slow").unwrap();
        let alpha = stage.param("alpha").expect("alpha trajectory");
        let beta = stage.param("beta").expect("beta trajectory");
        assert!(alpha.final_value().unwrap() < 0.5, "alpha must fall under overload");
        assert!(beta.final_value().unwrap() < 100.0, "beta must fall under overload");
    }

    #[test]
    fn flight_recorder_captures_every_stage_and_adapt_rounds() {
        use gates_core::trace::FlightRecorder;
        use gates_core::Direction;
        use std::sync::Arc;

        struct OneParam(Option<gates_core::ParamId>);
        impl StreamProcessor for OneParam {
            fn on_start(&mut self, api: &mut StageApi) {
                self.0 = Some(
                    api.specify_para("rate", 0.5, 0.0, 1.0, 0.01, Direction::IncreaseSlowsDown)
                        .unwrap(),
                );
            }
            fn process(&mut self, _p: Packet, _api: &mut StageApi) {}
        }

        let mut t = Topology::new();
        let s = t.add_stage_raw(source(600, 8, 1)).unwrap();
        let k = t
            .add_stage(
                StageBuilder::new("slow")
                    .cost(CostModel::per_packet(0.1))
                    .queue_capacity(50)
                    .processor(|| OneParam(None)),
            )
            .unwrap();
        t.connect(s, k, LinkSpec::local());
        let plan = deploy(&t);
        let rec = Arc::new(FlightRecorder::new(8_192));
        let opts = RunOptions::default().recorder(rec.clone());
        let mut engine = DesEngine::new(t, &plan, opts).unwrap();
        let report = engine.run_for(SimDuration::from_secs(20));

        let trace = report.trace.as_ref().expect("recorder attaches a trace");
        assert_eq!(trace.meta.as_ref().unwrap().engine, "des");
        assert_eq!(trace.meta.as_ref().unwrap().placements.len(), 2);
        // Every stage is sampled, including the tracker-less source.
        let src = trace.stage("src").expect("source series");
        assert!(!src.samples.is_empty(), "source must be sampled without a tracker");
        let slow = trace.stage("slow").expect("slow series");
        assert!(slow.samples.iter().any(|s| s.queue_depth > 0), "backlog must show up");
        // Adaptation rounds carry the controller internals.
        // The stage finishes once the stream ends (~6 s in), so expect a
        // handful of 1 Hz rounds, not the full 20 s worth.
        assert!(slow.adapt_rounds.len() >= 3, "one round per adapt tick while live");
        let round = slow.adapt_rounds.last().unwrap();
        assert_eq!(round.param, "rate");
        assert!(round.sigma1 > 0.0 && round.sigma2 > 0.0, "gains recorded");
        assert!(round.suggested < 0.5, "overload must shrink the suggestion");
        // JSONL export carries both event kinds.
        let jsonl = rec.to_jsonl();
        assert!(jsonl.contains("\"type\":\"adapt\""));
        assert!(jsonl.contains("\"type\":\"sample\""));
        assert!(jsonl.contains("\"d_tilde\":"));
    }

    #[test]
    fn emit_to_routes_instead_of_broadcasting() {
        // A splitter sends even-seq packets to port 0 and odd to port 1.
        struct Splitter;
        impl StreamProcessor for Splitter {
            fn process(&mut self, p: Packet, api: &mut StageApi) {
                let port = (p.seq % 2) as usize;
                api.emit_to(port, p);
            }
        }
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(40, 8, 1)).unwrap();
        let split = t.add_stage(StageBuilder::new("split").processor(|| Splitter)).unwrap();
        let even = t.add_stage(StageBuilder::new("even").processor(CountingSink::default)).unwrap();
        let odd = t.add_stage(StageBuilder::new("odd").processor(CountingSink::default)).unwrap();
        t.connect(s, split, LinkSpec::local());
        t.connect(split, even, LinkSpec::local()); // port 0
        t.connect(split, odd, LinkSpec::local()); // port 1
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        assert_eq!(report.stage("even").unwrap().packets_in, 20);
        assert_eq!(report.stage("odd").unwrap().packets_in, 20);
        assert_eq!(report.stage("split").unwrap().packets_out, 40, "each packet sent once");
    }

    #[test]
    fn replicated_stage_shards_by_key() {
        // A keyed source into a 2-replica forwarder: every packet lands
        // on exactly one replica (the key's owner) and all of them reach
        // the sink once.
        struct KeyedSource {
            total: u64,
            emitted: u64,
        }
        impl StreamProcessor for KeyedSource {
            fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
            fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
                if self.emitted >= self.total {
                    return SourceStatus::Done;
                }
                let key = gates_core::shard_key(&self.emitted.to_be_bytes());
                api.emit(Packet::data(0, self.emitted, 1, Bytes::from_static(b"k")).with_key(key));
                self.emitted += 1;
                SourceStatus::Continue { next_poll: SimDuration::from_millis(1) }
            }
        }
        let mut t = Topology::new();
        let s = t
            .add_stage_raw(
                StageBuilder::new("src").processor(|| KeyedSource { total: 64, emitted: 0 }),
            )
            .unwrap();
        let f = t.add_stage(StageBuilder::new("fwd").processor(|| Forwarder)).unwrap();
        let k = t.add_stage(StageBuilder::new("sink").processor(CountingSink::default)).unwrap();
        t.connect(s, f, LinkSpec::local());
        t.connect(f, k, LinkSpec::local());
        t.replicate("fwd", 2).unwrap();
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        assert!(engine.is_complete());
        let r0 = report.stage("fwd#0").unwrap().packets_in;
        let r1 = report.stage("fwd#1").unwrap().packets_in;
        assert_eq!(r0 + r1, 64, "each packet visits exactly one replica");
        assert!(r0 > 0 && r1 > 0, "hashing spreads keys over both replicas ({r0}/{r1})");
        assert_eq!(report.stage("sink").unwrap().packets_in, 64);
    }

    #[test]
    fn latency_reflects_link_transit() {
        // 1 packet of ~1000 wire bytes over 1 KB/s => ~1 s of latency.
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(1, 967, 1)).unwrap();
        let k = t.add_stage(StageBuilder::new("sink").processor(CountingSink::default)).unwrap();
        t.connect(s, k, LinkSpec::with_bandwidth(Bandwidth::kb_per_sec(1.0)));
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_to_completion();
        let latency = report.stage("sink").unwrap().latency.mean();
        assert!((latency - 1.0).abs() < 0.05, "latency {latency} should be ~1s");
    }

    #[test]
    fn identical_runs_are_identical() {
        let run = || {
            let mut t = Topology::new();
            let s = t.add_stage_raw(source(50, 32, 2)).unwrap();
            let k =
                t.add_stage(StageBuilder::new("sink").processor(CountingSink::default)).unwrap();
            t.connect(s, k, LinkSpec::with_bandwidth(Bandwidth::kb_per_sec(10.0)));
            let plan = deploy(&t);
            let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
            let r = engine.run_to_completion();
            (r.finished_at, r.events, r.stage("sink").unwrap().packets_in)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_for_partial_progress() {
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(1000, 8, 10)).unwrap();
        let k = t.add_stage(StageBuilder::new("sink").processor(CountingSink::default)).unwrap();
        t.connect(s, k, LinkSpec::local());
        let plan = deploy(&t);
        let mut engine = DesEngine::new(t, &plan, RunOptions::default()).unwrap();
        let report = engine.run_for(SimDuration::from_secs(1));
        let got = report.stage("sink").unwrap().packets_in;
        assert!((95..=105).contains(&got), "≈100 packets in 1 s at 10 ms spacing, got {got}");
        assert!(!engine.is_complete());
    }

    #[test]
    fn max_time_caps_runaway_runs() {
        // Sink is far too slow to ever finish 10k packets; max_time stops it.
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(10_000, 8, 1)).unwrap();
        let k = t
            .add_stage(
                StageBuilder::new("sink")
                    .cost(CostModel::per_packet(10.0))
                    .processor(CountingSink::default),
            )
            .unwrap();
        t.connect(s, k, LinkSpec::local());
        let plan = deploy(&t);
        let opts = RunOptions::default().max_time(SimTime::from_secs_f64(5.0));
        let mut engine = DesEngine::new(t, &plan, opts).unwrap();
        let report = engine.run_to_completion();
        assert!(report.execution_secs() <= 5.5);
        assert!(!engine.is_complete());
    }

    #[test]
    fn chaos_drop_plan_loses_packets_deterministically() {
        use gates_net::FaultPlan;
        let run = || {
            let mut t = Topology::new();
            let s = t.add_stage_raw(source(200, 32, 1)).unwrap();
            let k =
                t.add_stage(StageBuilder::new("sink").processor(CountingSink::default)).unwrap();
            t.connect(s, k, LinkSpec::local());
            let plan = deploy(&t);
            let chaos = FaultPlan::parse("seed=7,drop=0.2").unwrap();
            let opts = RunOptions::default().chaos(chaos);
            let mut engine = DesEngine::new(t, &plan, opts).unwrap();
            let r = engine.run_to_completion();
            (r.faults_injected, r.stage("sink").unwrap().packets_in)
        };
        let (faults, delivered) = run();
        assert!(faults > 10, "20% drop over 200 packets must fire, got {faults}");
        assert_eq!(delivered + faults, 200, "every fault is a lost delivery here");
        assert_eq!(run(), (faults, delivered), "same seed, same casualties");
    }

    #[test]
    fn chaos_duplicates_and_delays_preserve_termination() {
        use gates_net::FaultPlan;
        // Windowed (blocking) edge, heavy dup+delay: the run must still
        // terminate with every surviving packet delivered at least once.
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(100, 16, 1)).unwrap();
        let k = t.add_stage(StageBuilder::new("sink").processor(CountingSink::default)).unwrap();
        t.connect(s, k, LinkSpec::local());
        let plan = deploy(&t);
        let chaos = FaultPlan::parse("seed=11,dup=0.2,delay=1ms..5ms").unwrap();
        let opts = RunOptions::default().chaos(chaos);
        let mut engine = DesEngine::new(t, &plan, opts).unwrap();
        let report = engine.run_to_completion();
        assert!(engine.is_complete(), "dup/delay chaos must not wedge the run");
        assert!(report.faults_injected > 5, "plan must fire, got {}", report.faults_injected);
        assert!(
            report.stage("sink").unwrap().packets_in >= 100,
            "nothing dropped, duplicates only add"
        );
    }

    #[test]
    fn chaos_partition_blacks_out_a_node_window() {
        use gates_net::FaultPlan;
        // Source emits for ~2 s; the sink's node is cut from 0.5 s for
        // 0.5 s. Packets in that window vanish; the rest arrive.
        let mut t = Topology::new();
        let s = t.add_stage_raw(source(200, 8, 10)).unwrap();
        let k = t
            .add_stage(StageBuilder::new("sink").site("far").processor(CountingSink::default))
            .unwrap();
        t.connect(s, k, LinkSpec::local());
        let plan = deploy(&t);
        let node = plan.node_of(k).unwrap().to_string();
        let chaos = FaultPlan::parse(&format!("seed=1,partition={node}@500ms+500ms")).unwrap();
        let opts = RunOptions::default().chaos(chaos);
        let mut engine = DesEngine::new(t, &plan, opts).unwrap();
        let report = engine.run_to_completion();
        let sink = report.stage("sink").unwrap();
        assert!(
            sink.packets_in >= 120 && sink.packets_in <= 170,
            "a ~0.5 s cut out of ~2 s should eat ~50 of 200 packets, got {}",
            sink.packets_in
        );
        assert_eq!(report.faults_injected, 200 - sink.packets_in);
    }

    #[test]
    fn invalid_topology_rejected() {
        let t = Topology::new();
        let registry = ResourceRegistry::uniform_cluster(&["x"]);
        let mut t2 = Topology::new();
        t2.add_stage(StageBuilder::new("only").processor(CountingSink::default)).unwrap();
        let plan = Deployer::new().deploy(&t2, &registry).unwrap();
        assert!(matches!(
            DesEngine::new(t, &plan, RunOptions::default()),
            Err(EngineError::InvalidTopology(_))
        ));
    }
}
