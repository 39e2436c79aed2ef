//! The wall-clock runtime.
//!
//! Every stage runs as a run-to-yield activation on a shared
//! [`crate::executor`] core pool (default size: the machine's available
//! parallelism; override with [`RunOptions::cores`]); bounded
//! `crossbeam` channels are the input queues and token buckets the
//! links. Processing cost is *realized* (a service-time sleep occupies
//! one pool worker — one modeled core), so small runs behave like the
//! paper's real deployment — and the same [`StreamProcessor`]s and the
//! same adaptation state machines run unchanged from the virtual-time
//! engine.
//!
//! The per-stage state machine itself lives in [`crate::runtime`] and is
//! shared with the multi-process [`crate::DistEngine`]; this module only
//! wires every stage to in-process channel peers.
//!
//! This runtime is for demonstrations and the quickstart; every
//! experiment harness uses [`crate::DesEngine`] for speed and
//! repeatability.

use std::time::{Duration, Instant};

use crossbeam::channel::Sender;

use gates_core::report::RunReport;
use gates_core::trace::{RunMeta, TraceEvent};
#[allow(unused_imports)] // rustdoc link target
use gates_core::StreamProcessor;
use gates_core::{StageId, Topology};
use gates_grid::DeploymentPlan;
use gates_sim::SimTime;

use crate::executor::CorePool;
use crate::options::RunOptions;
use crate::runtime::{Control, Inbox, OutPort, RunCtx, StageWorker, Upstream};
use crate::stage_core::{ShardScaling, StageCore};
use crate::EngineError;

/// Wall-clock executor. Build with [`ThreadedEngine::new`], run with
/// [`ThreadedEngine::run`] (blocks until every stream ends or the
/// `max_time` budget elapses).
pub struct ThreadedEngine {
    topology: Topology,
    speeds: Vec<f64>,
    nodes: Vec<String>,
    opts: RunOptions,
}

impl ThreadedEngine {
    /// Build a threaded engine for `topology` as placed by `plan`.
    pub fn new(
        topology: Topology,
        plan: &DeploymentPlan,
        opts: RunOptions,
    ) -> Result<Self, EngineError> {
        topology.validate().map_err(|e| EngineError::InvalidTopology(e.to_string()))?;
        opts.validate()?;
        let speeds =
            (0..topology.stages().len()).map(|i| plan.speed_of(StageId::from_index(i))).collect();
        let nodes = (0..topology.stages().len())
            .map(|i| {
                plan.node_of(StageId::from_index(i))
                    .unwrap_or(&topology.stages()[i].site)
                    .to_string()
            })
            .collect();
        Ok(ThreadedEngine { topology, speeds, nodes, opts })
    }

    /// Execute the pipeline on real threads, blocking until done.
    pub fn run(self) -> Result<RunReport, EngineError> {
        let n = self.topology.stages().len();
        if self.opts.recorder.enabled() {
            let placements = self
                .topology
                .stages()
                .iter()
                .zip(&self.nodes)
                .map(|(s, node)| (s.name.clone(), node.clone()))
                .collect();
            self.opts
                .recorder
                .record(TraceEvent::Meta(RunMeta { engine: "threaded".into(), placements }));
        }

        let pool = CorePool::new(self.opts.effective_cores());
        let run = RunCtx::new(self.opts.clone(), pool.hub());
        let (topology, edges) = (&self.topology, self.topology.edges());
        let mut inboxes: Vec<Inbox> = (0..n).map(|i| Inbox::new(topology, i)).collect();
        let mut task_handles = Vec::with_capacity(n);
        for idx in 0..n {
            let id = StageId::from_index(idx);
            let out = topology
                .out_edges(id)
                .into_iter()
                .map(|ei| OutPort::local(&edges[ei].link, &inboxes[edges[ei].to.index()]))
                .collect();
            let upstream = topology
                .in_edges(id)
                .into_iter()
                .map(|ei| Upstream::local(&inboxes[edges[ei].from.index()]))
                .collect();
            // A replica's overload/underload signal mutates the shared
            // router directly: every in-process sender sees the new map
            // on its next route lookup.
            let core = StageCore::new(
                topology,
                id,
                self.nodes[idx].clone(),
                self.speeds[idx],
                ShardScaling::Local,
                &self.opts,
            );
            let worker =
                StageWorker::new(run.clone(), core, &mut inboxes[idx], out, upstream, None, None);
            task_handles.push(worker.spawn(&pool));
        }
        // Keep only the control channels: queues then disconnect
        // naturally when their producers finish.
        let ctl_tx: Vec<Sender<Control>> = inboxes.into_iter().map(|inbox| inbox.ctl).collect();

        // Wait out the budget here: a stage still running when it
        // elapses gets the stop flag and one `Control::Stop`, and the
        // rest are then joined as they wind down. Every report is
        // collected before any panic propagates, so the pool shutdown
        // always runs.
        let deadline = Instant::now() + Duration::from_secs_f64(self.opts.max_time.as_secs_f64());
        let mut results = Vec::with_capacity(n);
        for handle in task_handles {
            let result = handle.join_by(deadline).unwrap_or_else(|| {
                run.stop_stages(&ctl_tx);
                handle.join()
            });
            results.push(result);
        }
        let events = pool.activations();
        pool.shutdown();

        let mut stages = Vec::with_capacity(n);
        for result in results {
            stages.push(result.map_err(EngineError::WorkerPanic)?);
        }

        let finished_at = SimTime::from_secs_f64(run.clock.now_secs());
        Ok(RunReport {
            finished_at,
            stages,
            events,
            lost_workers: Vec::new(),
            trace: self.opts.recorder.as_flight().map(|f| f.run_trace()),
            faults_injected: 0,
            fault_recoveries: 0,
            // Delivery-layer counters are distributed-runtime-only.
            packets_lost: 0,
            packets_replayed: 0,
            packets_deduped: 0,
            backpressure_us: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gates_core::SourceStatus;
    use gates_core::{Packet, StageApi, StageBuilder, StreamProcessor};
    use gates_grid::{Deployer, ResourceRegistry};
    use gates_net::{Bandwidth, LinkSpec};
    use gates_sim::{SimDuration, SimTime};
    use std::sync::Arc;

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
            api.emit(Packet::data(0, self.left as u64, 1, Bytes::from_static(b"0123456789")));
            SourceStatus::Continue { next_poll: SimDuration::from_millis(1) }
        }
    }

    struct Sink;
    impl StreamProcessor for Sink {
        fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
    }

    fn run_simple(packets: u32, bandwidth: Bandwidth) -> RunReport {
        let mut t = Topology::new();
        let s = t
            .add_stage_raw(StageBuilder::new("src").processor(move || Burst { left: packets }))
            .unwrap();
        let k = t.add_stage(StageBuilder::new("sink").processor(|| Sink)).unwrap();
        t.connect(s, k, LinkSpec::with_bandwidth(bandwidth));
        let registry = ResourceRegistry::uniform_cluster(&["src", "sink"]);
        let plan = Deployer::new().deploy(&t, &registry).unwrap();
        ThreadedEngine::new(t, &plan, RunOptions::default()).unwrap().run().unwrap()
    }

    #[test]
    fn packets_arrive_on_threads() {
        let report = run_simple(20, Bandwidth::mb_per_sec(10.0));
        assert_eq!(report.stage("sink").unwrap().packets_in, 20);
        assert_eq!(report.stage("src").unwrap().packets_out, 20);
    }

    #[test]
    fn token_bucket_throttles_wall_time() {
        // 20 packets × 43 wire bytes ≈ 860 B at 2 KB/s ⇒ ≳0.2 s after the
        // initial burst allowance.
        let t0 = Instant::now();
        let report = run_simple(20, Bandwidth::kb_per_sec(2.0));
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(report.stage("sink").unwrap().packets_in, 20);
        assert!(elapsed > 0.15, "throttled run finished too fast: {elapsed}s");
    }

    #[test]
    fn max_time_stops_runaway_pipelines() {
        struct Forever;
        impl StreamProcessor for Forever {
            fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
            fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
                api.emit(Packet::data(0, 0, 1, Bytes::from_static(b"x")));
                SourceStatus::Continue { next_poll: SimDuration::from_millis(5) }
            }
        }
        let mut t = Topology::new();
        let s = t.add_stage_raw(StageBuilder::new("src").processor(|| Forever)).unwrap();
        let k = t.add_stage(StageBuilder::new("sink").processor(|| Sink)).unwrap();
        t.connect(s, k, LinkSpec::local());
        let registry = ResourceRegistry::uniform_cluster(&["src", "sink"]);
        let plan = Deployer::new().deploy(&t, &registry).unwrap();
        let opts = RunOptions::default().max_time(SimTime::from_secs_f64(0.3));
        let t0 = Instant::now();
        let report = ThreadedEngine::new(t, &plan, opts).unwrap().run().unwrap();
        assert!(t0.elapsed().as_secs_f64() < 3.0, "the budget must stop the run");
        assert!(report.stage("sink").unwrap().packets_in > 0);
    }

    #[test]
    fn saturated_blocking_pipeline_stops_within_budget() {
        // A fast source feeding a 1-slot blocking queue in front of a
        // pathologically slow sink: the source wedges in a blocking send
        // and the sink in a multi-second service sleep. The stop flag
        // must unwedge both well within the test's patience.
        struct Firehose;
        impl StreamProcessor for Firehose {
            fn process(&mut self, _p: Packet, _a: &mut StageApi) {}
            fn poll_generate(&mut self, api: &mut StageApi) -> SourceStatus {
                api.emit(Packet::data(0, 0, 1, Bytes::from_static(b"xxxxxxxx")));
                SourceStatus::Continue { next_poll: SimDuration::from_micros(200) }
            }
        }
        let mut t = Topology::new();
        let s = t.add_stage_raw(StageBuilder::new("src").processor(|| Firehose)).unwrap();
        let k = t
            .add_stage(
                StageBuilder::new("sink")
                    .cost(gates_core::CostModel::per_packet(30.0))
                    .queue_capacity(1)
                    .processor(|| Sink),
            )
            .unwrap();
        t.connect(s, k, LinkSpec::local().blocking());
        let registry = ResourceRegistry::uniform_cluster(&["src", "sink"]);
        let plan = Deployer::new().deploy(&t, &registry).unwrap();
        let opts = RunOptions::default().max_time(SimTime::from_secs_f64(0.4));
        let t0 = Instant::now();
        let report = ThreadedEngine::new(t, &plan, opts).unwrap().run().unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(elapsed < 5.0, "saturated blocking pipeline must stop, took {elapsed}s");
        assert!(report.stage("src").unwrap().packets_out > 0);
    }

    #[test]
    fn flight_recorder_covers_threaded_runs() {
        use gates_core::trace::FlightRecorder;
        use gates_core::Direction;

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
        let s =
            t.add_stage_raw(StageBuilder::new("src").processor(|| Burst { left: 400 })).unwrap();
        let k = t
            .add_stage(
                StageBuilder::new("slow")
                    .cost(gates_core::CostModel::per_packet(0.004))
                    .queue_capacity(16)
                    .processor(|| OneParam(None)),
            )
            .unwrap();
        t.connect(s, k, LinkSpec::local());
        let registry = ResourceRegistry::uniform_cluster(&["src", "slow"]);
        let plan = Deployer::new().deploy(&t, &registry).unwrap();
        let rec = Arc::new(FlightRecorder::new(4_096));
        let opts = RunOptions::default()
            .observe_every(SimDuration::from_millis(20))
            .adapt_every(SimDuration::from_millis(100))
            .max_time(SimTime::from_secs_f64(10.0))
            .recorder(rec.clone());
        let report = ThreadedEngine::new(t, &plan, opts).unwrap().run().unwrap();

        let trace = report.trace.as_ref().expect("recorder attaches a trace");
        assert_eq!(trace.meta.as_ref().unwrap().engine, "threaded");
        let slow = trace.stage("slow").expect("slow stage series");
        assert!(!slow.samples.is_empty(), "observe ticks must sample the stage");
        assert!(!slow.adapt_rounds.is_empty(), "adapt ticks must record rounds");
        let round = slow.adapt_rounds.last().unwrap();
        assert_eq!(round.param, "rate");
        assert!(round.sigma1 > 0.0, "controller internals recorded");
        assert!(rec.to_jsonl().contains("\"type\":\"adapt\""));
    }
}
