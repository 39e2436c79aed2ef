//! The half of a stage that does not depend on how time passes or how
//! packets move.
//!
//! [`StageCore`] owns the stage's [`StreamProcessor`] and its
//! [`StageApi`]; the cost model that turns a packet into service time;
//! the §4 adaptation state (the [`LoadTracker`] observing the input
//! queue, one [`ParamController`] per declared parameter, and their
//! trajectories); the [`StageReport`] counters; the logical output
//! routes; and a replica's shard debounce. Every method takes the time
//! its driver observes: the virtual-time actor in [`crate::des`] passes
//! the simulation clock, the wall-clock [`crate::runtime::StageTask`]
//! its [`crate::clock::EngineClock`].
//!
//! The drivers keep what is theirs: input queues, links, flow control,
//! outbox and pacing, checkpoints, and *when* observation and adaptation
//! rounds fire (virtual timers in one, an `Instant` cadence in the
//! other).

use std::sync::Arc;

use crossbeam::channel::Sender;

use gates_core::adapt::{LoadException, LoadTracker, ParamController};
use gates_core::report::{ParamTrajectory, StageReport};
use gates_core::trace::{AdaptRound, LinkEvent, LinkEventKind, Recorder, StageSample, TraceEvent};
use gates_core::{
    CostModel, OutRoute, Packet, ParamId, ShardRouter, SourceStatus, StageApi, StageId,
    StreamProcessor, Topology,
};
use gates_sim::{SimDuration, SimTime};

use crate::options::RunOptions;

/// Consecutive same-direction load exceptions required before a shard
/// split/merge fires (debounces a single noisy observation).
const SHARD_STREAK: u32 = 3;
/// Minimum observed-time spacing between shard actions from one replica,
/// and between the stage's start and its first action.
const SHARD_COOLDOWN: SimDuration = SimDuration::from_millis(500);

/// How a replica applies a shard split or merge.
pub(crate) enum ShardScaling {
    /// Apply directly on the shared router (single-process engines: the
    /// upstream senders see the new map on their next route lookup).
    Local,
    /// Ship `(group, ordinal, split)` to the hosting worker's main loop,
    /// which asks the coordinator; the coordinator owns the
    /// authoritative map and broadcasts the result to every process.
    Request(Sender<(u32, u32, bool)>),
}

/// A replica's scale-out state: when its d̃ leaves [LT1·C, LT2·C]
/// persistently, the replica splits (overload) or merges (underload)
/// its key range, alongside the paper's parameter shrink.
struct Shard {
    group: u32,
    ordinal: u32,
    router: Arc<ShardRouter>,
    mode: ShardScaling,
    /// Consecutive (overload, underload) observations.
    streak: (u32, u32),
    /// Observed time of the last shard action, or of the stage's start.
    last_action: SimTime,
}

/// One stage's processor, adaptation loop, counters and routes (see
/// module docs).
pub(crate) struct StageCore {
    processor: Box<dyn StreamProcessor + Send>,
    api: StageApi,
    cost: CostModel,
    speed: f64,
    tracker: Option<LoadTracker>,
    controllers: Vec<(ParamId, ParamController)>,
    trajectories: Vec<ParamTrajectory>,
    stats: StageReport,
    /// Logical output routes over the stage's out-edges (see
    /// [`Topology::out_routes`]): a sharded route spans the consumer
    /// group's consecutive ports and picks one by packet key.
    routes: Vec<OutRoute>,
    shard: Option<Shard>,
    recorder: Arc<dyn Recorder>,
    recording: bool,
    /// Packets taken into service.
    serviced: u64,
    /// Counters at the previous flight-recorder sample:
    /// `(t, packets_in, serviced, busy_time, bucket_wait)`.
    last_sample: (f64, u64, u64, SimDuration, f64),
}

impl StageCore {
    /// The core of stage `id`, placed on `placed_on` at node `speed`. A
    /// replica applies shard actions per `scaling`; other stages ignore
    /// it.
    pub(crate) fn new(
        topology: &Topology,
        id: StageId,
        placed_on: String,
        speed: f64,
        scaling: ShardScaling,
        opts: &RunOptions,
    ) -> StageCore {
        let stage = &topology.stages()[id.index()];
        StageCore {
            processor: stage.instantiate(),
            api: StageApi::new(),
            cost: stage.cost,
            speed,
            tracker: stage.adaptation.clone().map(LoadTracker::new),
            controllers: Vec::new(),
            trajectories: Vec::new(),
            stats: StageReport { name: stage.name.clone(), placed_on, ..Default::default() },
            routes: topology.out_routes(id),
            shard: topology.replica_of(id).map(|(gi, ordinal)| Shard {
                group: gi as u32,
                ordinal: ordinal as u32,
                router: Arc::clone(&topology.groups()[gi].router),
                mode: scaling,
                streak: (0, 0),
                last_action: SimTime::ZERO,
            }),
            recorder: Arc::clone(&opts.recorder),
            recording: opts.recorder.enabled(),
            serviced: 0,
            last_sample: (0.0, 0, 0, SimDuration::ZERO, 0.0),
        }
    }

    pub(crate) fn name(&self) -> &str {
        &self.stats.name
    }

    pub(crate) fn placed_on(&self) -> &str {
        &self.stats.placed_on
    }

    /// Whether the stage runs the §4 loop (has a load tracker).
    pub(crate) fn adapts(&self) -> bool {
        self.tracker.is_some()
    }

    /// Whether a flight recorder is attached.
    pub(crate) fn recording(&self) -> bool {
        self.recording
    }

    pub(crate) fn packets_in(&self) -> u64 {
        self.stats.packets_in
    }

    pub(crate) fn packets_out(&self) -> u64 {
        self.stats.packets_out
    }

    /// `on_start`, the failover `restore` (a stage adopted during
    /// failover resumes from its last checkpoint), and one controller
    /// per parameter declared so far, when the stage adapts. What
    /// `on_start` emitted waits for [`StageCore::route_emitted`].
    pub(crate) fn start(&mut self, now: SimTime, restore: Option<&[u8]>) {
        self.api.set_now(now);
        self.processor.on_start(&mut self.api);
        if let Some(state) = restore {
            self.processor.restore(state);
        }
        if let Some(shard) = &mut self.shard {
            shard.last_action = now;
        }
        if let Some(tracker) = &self.tracker {
            let cfg = tracker.config().clone();
            for (pid, spec, _) in self.api.params().iter() {
                self.controllers.push((pid, ParamController::new(cfg.clone(), spec.clone())));
                self.trajectories.push(ParamTrajectory {
                    name: spec.name.clone(),
                    samples: vec![(0.0, spec.init)],
                });
            }
        }
    }

    /// Count one packet entering the stage, and its source-to-here
    /// latency.
    pub(crate) fn arrived(&mut self, packet: &Packet, now: SimTime) {
        self.stats.packets_in += 1;
        self.stats.records_in += packet.records as u64;
        self.stats.bytes_in += packet.payload.len() as u64;
        self.stats.latency.push(now.since(packet.created_at).as_secs_f64());
    }

    /// Run `process` on one packet and return its service time: the
    /// cost model's charge at this node's speed plus whatever the
    /// processor added, scaled the same way.
    pub(crate) fn process(&mut self, packet: Packet, now: SimTime) -> SimDuration {
        let service = self.cost.service_time(&packet, self.speed);
        self.serviced += 1;
        self.api.set_now(now);
        self.processor.process(packet, &mut self.api);
        let extra = self.api.take_extra_cost();
        service + SimDuration::from_secs_f64(extra.as_secs_f64() / self.speed)
    }

    /// Charge realized service time to the stage.
    pub(crate) fn add_busy(&mut self, d: SimDuration) {
        self.stats.busy_time += d;
    }

    /// One source poll.
    pub(crate) fn generate(&mut self, now: SimTime) -> SourceStatus {
        self.api.set_now(now);
        self.processor.poll_generate(&mut self.api)
    }

    /// Clean end of every input stream: let the processor flush.
    pub(crate) fn eos(&mut self, now: SimTime) {
        self.api.set_now(now);
        self.processor.on_eos(&mut self.api);
    }

    /// The processor's checkpoint state.
    pub(crate) fn snapshot(&self) -> Vec<u8> {
        self.processor.snapshot()
    }

    /// Take what the last callback emitted, unrouted (a driver that
    /// releases output only when service ends holds it meanwhile).
    pub(crate) fn take_emitted(&mut self) -> Vec<(Option<usize>, Packet)> {
        self.api.take_emitted()
    }

    /// [`StageCore::route`] everything the last callback emitted.
    pub(crate) fn route_emitted(&mut self, mut send: impl FnMut(usize, Packet)) {
        for (target, packet) in self.api.take_emitted() {
            self.route(target, packet, &mut send);
        }
    }

    /// Count one emission and hand it to `send` once per physical port
    /// it takes. A `Some(route)` target addresses one logical route;
    /// `None` broadcasts to every route. A route whose consumer is a
    /// replica group resolves to exactly one port, the replica owning
    /// the packet's key under the group's current shard map, so a keyed
    /// stream fans out across replicas instead of duplicating.
    pub(crate) fn route(
        &mut self,
        target: Option<usize>,
        packet: Packet,
        mut send: impl FnMut(usize, Packet),
    ) {
        if let Some(r) = target {
            debug_assert!(
                r < self.routes.len(),
                "stage {:?}: emit_to({r}) out of range",
                self.stats.name
            );
            if r >= self.routes.len() {
                return;
            }
        }
        self.stats.packets_out += 1;
        self.stats.records_out += packet.records as u64;
        self.stats.bytes_out += packet.payload.len() as u64;
        let port = |route: &OutRoute, packet: &Packet| match &route.router {
            Some(router) => route.start + router.route(packet.key).min(route.len - 1),
            None => route.start,
        };
        match target {
            Some(r) => send(port(&self.routes[r], &packet), packet),
            // The payload is a cheap `Bytes` handle: each copy clones
            // only the envelope.
            None => {
                for route in &self.routes {
                    send(port(route, &packet), packet.clone());
                }
            }
        }
    }

    /// One §4 observation of the input queue. Returns the exception to
    /// send upstream when d̃ has left [LT1·C, LT2·C], and feeds the
    /// replica's shard debounce. A stage without a tracker observes
    /// nothing.
    pub(crate) fn observe(&mut self, now: SimTime, queue_len: usize) -> Option<LoadException> {
        let exception = self.tracker.as_mut()?.observe(queue_len as f64);
        match exception {
            Some(LoadException::Overload) => self.stats.exceptions_sent.0 += 1,
            Some(LoadException::Underload) => self.stats.exceptions_sent.1 += 1,
            None => {}
        }
        self.note_shard_signal(now, exception);
        exception
    }

    /// Count consecutive same-direction exceptions; once the streak and
    /// the cooldown both allow it, turn the load signal into a shard
    /// action: scale-out (split) on overload, scale-in (merge) on
    /// underload, applied locally or requested from the coordinator
    /// depending on [`ShardScaling`].
    fn note_shard_signal(&mut self, now: SimTime, exception: Option<LoadException>) {
        let Some(sh) = &mut self.shard else { return };
        sh.streak = match exception {
            Some(LoadException::Overload) => (sh.streak.0 + 1, 0),
            Some(LoadException::Underload) => (0, sh.streak.1 + 1),
            // d̃ back inside [LT1·C, LT2·C]: the streak breaks.
            None => (0, 0),
        };
        let split = sh.streak.0 >= SHARD_STREAK;
        let due = split || sh.streak.1 >= SHARD_STREAK;
        if !due || now < sh.last_action + SHARD_COOLDOWN {
            return;
        }
        sh.streak = (0, 0);
        sh.last_action = now;
        let result = match &sh.mode {
            ShardScaling::Request(tx) => {
                let _ = tx.send((sh.group, sh.ordinal, split));
                return;
            }
            ShardScaling::Local if split => sh.router.split_hot(sh.ordinal),
            ShardScaling::Local => sh.router.merge_cold(sh.ordinal),
        };
        if let (Ok(change), true) = (result, self.recording) {
            self.recorder.record(TraceEvent::Link(LinkEvent {
                t: now.as_secs_f64(),
                link: self.stats.name.clone(),
                node: self.stats.placed_on.clone(),
                kind: if split { LinkEventKind::ShardSplit } else { LinkEventKind::ShardMerge },
                detail: format!(
                    "replica {} -> {} (epoch {})",
                    change.from, change.to, change.epoch
                ),
            }));
        }
    }

    /// Flight recorder: one runtime sample, with rates computed against
    /// the previous one. The driver owns the queue and the links, so it
    /// passes the queue depth, the drop count and its total token-bucket
    /// wait in seconds.
    pub(crate) fn sample(
        &mut self,
        now: SimTime,
        queue_depth: usize,
        dropped: u64,
        bucket_wait: f64,
    ) {
        if !self.recording {
            return;
        }
        let t = now.as_secs_f64();
        let (t0, in0, serviced0, busy0, wait0) = self.last_sample;
        let dt = t - t0;
        let d_in = self.stats.packets_in - in0;
        let d_serviced = self.serviced - serviced0;
        let d_busy = (self.stats.busy_time - busy0).as_secs_f64();
        self.last_sample =
            (t, self.stats.packets_in, self.serviced, self.stats.busy_time, bucket_wait);
        self.recorder.record(TraceEvent::Sample(StageSample {
            t,
            stage: self.stats.name.clone(),
            queue_depth,
            packets_in: self.stats.packets_in,
            packets_out: self.stats.packets_out,
            dropped,
            throughput: if dt > 0.0 { d_in as f64 / dt } else { 0.0 },
            service_time: if d_serviced > 0 { d_busy / d_serviced as f64 } else { 0.0 },
            bucket_wait: bucket_wait - wait0,
        }));
    }

    /// One parameter-adaptation round: each controller turns d̃ and the
    /// exceptions received from downstream into a suggested value for
    /// the processor to read.
    pub(crate) fn adapt(&mut self, now: SimTime) {
        let Some(tracker) = &self.tracker else { return };
        let d_tilde = tracker.d_tilde();
        let t = now.as_secs_f64();
        let (phi1, phi2, phi3) = (tracker.phi1(), tracker.phi2(), tracker.phi3());
        for (i, (pid, controller)) in self.controllers.iter_mut().enumerate() {
            let value = controller.adapt(d_tilde);
            let _ = self.api.push_suggestion(*pid, value);
            self.trajectories[i].samples.push((t, value));
            if self.recording {
                let outcome = controller.last_outcome().unwrap_or_default();
                let received = controller.exceptions_received();
                self.recorder.record(TraceEvent::Adapt(AdaptRound {
                    t,
                    stage: self.stats.name.clone(),
                    param: self.trajectories[i].name.clone(),
                    policy: controller.policy_name().to_string(),
                    d_tilde,
                    phi1,
                    phi2,
                    phi3,
                    sigma1: outcome.sigma1,
                    sigma2: outcome.sigma2,
                    suggested: value,
                    overload_sent: self.stats.exceptions_sent.0,
                    underload_sent: self.stats.exceptions_sent.1,
                    overload_received: received.0,
                    underload_received: received.1,
                }));
            }
        }
    }

    /// An over-/under-load exception from a downstream stage.
    pub(crate) fn on_exception(&mut self, exception: LoadException) {
        for (_, controller) in &mut self.controllers {
            controller.on_exception(exception);
        }
    }

    /// The stage's report so far; `dropped` counts the input packets the
    /// driver's queue turned away.
    pub(crate) fn report(&self, dropped: u64) -> StageReport {
        StageReport {
            packets_dropped: dropped,
            queue: self.tracker.as_ref().map(|t| t.queue_stats().clone()).unwrap_or_default(),
            exceptions_received: self.controllers.iter().fold((0, 0), |acc, (_, c)| {
                let (o, u) = c.exceptions_received();
                (acc.0 + o, acc.1 + u)
            }),
            params: self.trajectories.clone(),
            ..self.stats.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use crossbeam::channel::unbounded;
    use gates_core::adapt::AdaptationConfig;
    use gates_core::{StageApi, StageBuilder};
    use gates_net::LinkSpec;

    struct Forwarder;
    impl StreamProcessor for Forwarder {
        fn process(&mut self, p: Packet, api: &mut StageApi) {
            api.emit(p);
        }
    }

    /// d̃ tracks the latest queue length almost exactly: a full queue
    /// (100) is an overload, 20 is in the band, an empty one an underload.
    fn twitchy() -> AdaptationConfig {
        AdaptationConfig {
            alpha: 0.01,
            weights: (0.0, 0.0, 1.0),
            recent_window: 1,
            ..AdaptationConfig::with_capacity(100.0)
        }
    }
    const OVER: usize = 100;
    const IN_BAND: usize = 20;
    const UNDER: usize = 0;

    /// `src -> fwd x2 -> sink` plus `src -> tap`; the replicas adapt.
    fn topology() -> Topology {
        let mut t = Topology::new();
        let src = t.add_stage_raw(StageBuilder::new("src").processor(|| Forwarder)).unwrap();
        let fwd = t
            .add_stage(StageBuilder::new("fwd").adaptation(twitchy()).processor(|| Forwarder))
            .unwrap();
        let sink = t.add_stage_raw(StageBuilder::new("sink").processor(|| Forwarder)).unwrap();
        let tap = t.add_stage_raw(StageBuilder::new("tap").processor(|| Forwarder)).unwrap();
        t.connect(src, fwd, LinkSpec::local());
        t.connect(fwd, sink, LinkSpec::local());
        t.connect(src, tap, LinkSpec::local());
        t.replicate("fwd", 2).unwrap();
        t
    }

    fn started(t: &Topology, name: &str, scaling: ShardScaling) -> StageCore {
        let id = t.stage_by_name(name).unwrap();
        let mut core = StageCore::new(t, id, "n0".into(), 1.0, scaling, &RunOptions::default());
        core.start(SimTime::ZERO, None);
        core
    }

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn epoch(t: &Topology) -> u64 {
        t.groups()[0].router.epoch()
    }

    #[test]
    fn three_consecutive_overloads_split_once() {
        let t = topology();
        let mut core = started(&t, "fwd#0", ShardScaling::Local);
        for (i, secs) in [1.0, 1.1].into_iter().enumerate() {
            assert_eq!(core.observe(at(secs), OVER), Some(LoadException::Overload));
            assert_eq!(epoch(&t), 0, "observation {} must not split yet", i + 1);
        }
        assert_eq!(core.observe(at(1.2), OVER), Some(LoadException::Overload));
        assert_eq!(epoch(&t), 1, "the third overload splits");
        core.observe(at(1.8), OVER);
        core.observe(at(1.9), OVER);
        assert_eq!(epoch(&t), 1, "the streak restarts after an action");
        assert_eq!(core.report(0).exceptions_sent, (5, 0));
    }

    #[test]
    fn an_in_band_observation_breaks_the_streak() {
        let t = topology();
        let mut core = started(&t, "fwd#0", ShardScaling::Local);
        core.observe(at(1.0), OVER);
        core.observe(at(1.1), OVER);
        assert_eq!(core.observe(at(1.2), IN_BAND), None);
        core.observe(at(1.3), OVER);
        core.observe(at(1.4), OVER);
        assert_eq!(epoch(&t), 0, "two overloads since the band are no streak");
        core.observe(at(1.5), OVER);
        assert_eq!(epoch(&t), 1);
    }

    #[test]
    fn the_cooldown_suppresses_actions_within_500ms() {
        let t = topology();
        let (tx, requests) = unbounded();
        let mut core = started(&t, "fwd#1", ShardScaling::Request(tx));
        // Within 500 ms of the start: the streak builds, nothing fires.
        for secs in [0.1, 0.2, 0.3, 0.4] {
            core.observe(at(secs), OVER);
        }
        assert!(requests.try_recv().is_err(), "an action inside the cooldown");
        core.observe(at(0.5), OVER);
        assert_eq!(requests.try_recv(), Ok((0, 1, true)), "fires once the cooldown ends");
        for secs in [0.6, 0.7, 0.8, 0.9] {
            core.observe(at(secs), OVER);
        }
        assert!(requests.try_recv().is_err(), "within 500 ms of the last action");
        core.observe(at(1.0), OVER);
        assert_eq!(requests.try_recv(), Ok((0, 1, true)));
    }

    #[test]
    fn a_request_ships_the_action_and_leaves_the_router_alone() {
        let t = topology();
        let (tx, requests) = unbounded();
        let mut core = started(&t, "fwd#0", ShardScaling::Request(tx));
        for secs in [1.0, 1.1, 1.2] {
            assert_eq!(core.observe(at(secs), UNDER), Some(LoadException::Underload));
        }
        assert_eq!(requests.try_recv(), Ok((0, 0, false)), "underload asks for a merge");
        for secs in [2.0, 2.1, 2.2] {
            core.observe(at(secs), OVER);
        }
        assert_eq!(requests.try_recv(), Ok((0, 0, true)), "overload asks for a split");
        assert_eq!(epoch(&t), 0, "the coordinator owns the map");
    }

    #[test]
    fn a_broadcast_takes_one_port_of_a_sharded_route() {
        let t = topology();
        let mut src = started(&t, "src", ShardScaling::Local);
        let router = &t.groups()[0].router;
        let mut owners = [0; 2];
        for k in 0..64u64 {
            let key = gates_core::shard_key(&k.to_be_bytes());
            let packet = Packet::data(0, k, 1, Bytes::from_static(b"x")).with_key(key);
            let mut ports = Vec::new();
            src.route(None, packet, |port, _| ports.push(port));
            // Ports 0 and 1 are the replicas, port 2 the tap.
            assert_eq!(ports, [router.route(key), 2], "key {key:#x}");
            owners[ports[0]] += 1;
        }
        assert!(owners[0] > 0 && owners[1] > 0, "keys spread over both replicas: {owners:?}");
        assert_eq!(src.packets_out(), 64, "one emission each, however many ports");

        let mut sink = started(&t, "sink", ShardScaling::Local);
        sink.route(None, Packet::data(0, 0, 1, Bytes::new()), |_, _| panic!("a sink has no ports"));
        assert_eq!(sink.packets_out(), 1, "a sink's emissions count too");
    }
}
