//! The actor wrapping one stage instance in the virtual-time engine.
//!
//! The actor is the virtual-time driver of a [`StageCore`]: it owns the
//! input queue, the simulated links with their send buffers, windowed
//! flow control and fault plane, and the timers that decide *when* the
//! core observes its queue, adapts, generates and finishes service. The
//! core owns the processor, service time, the §4 observe/adapt round,
//! the counters, routing and the shard debounce; the actor hands it the
//! simulation clock.

use std::collections::VecDeque;
use std::sync::Arc;

use gates_core::adapt::LoadException;
use gates_core::report::StageReport;
use gates_core::trace::{LinkEvent, LinkEventKind, Recorder, TraceEvent};
use gates_core::{Packet, SourceStatus, StageId, Topology};
use gates_grid::DeploymentPlan;
use gates_net::{FaultFate, FaultInjector, FlowControl, LinkModel, PartitionSpec};
use gates_sim::{Actor, ActorId, Context, Event, SimDuration, SimTime};

use crate::options::RunOptions;
use crate::stage_core::{ShardScaling, StageCore};

/// Messages exchanged between stage actors.
#[derive(Debug, Clone)]
pub(crate) enum EngineMsg {
    /// A data or EOS packet arriving after link transit.
    Packet(Packet),
    /// A load exception reported by a downstream stage.
    Exception(LoadException),
    /// Windowed-flow-control acknowledgement: the receiver consumed (or
    /// finally disposed of) one packet from the sending edge.
    Ack,
}

/// Timer tags.
const TAG_SERVICE_DONE: u64 = 0;
const TAG_OBSERVE: u64 = 1;
const TAG_ADAPT: u64 = 2;
const TAG_GENERATE: u64 = 3;
/// Credit timers are `TAG_CREDIT_BASE + out-edge slot`.
const TAG_CREDIT_BASE: u64 = 4;

/// One outbound connection: the link model plus send-buffer accounting.
struct OutLink {
    to: ActorId,
    link: LinkModel,
    /// `"<from>-><to>"`, the edge's trace label.
    label: String,
    /// Node the destination stage runs on, for partition matching.
    to_node: String,
    /// Seeded per-edge fault decider (`None` when no chaos plan is set).
    injector: Option<FaultInjector>,
    /// Packets accepted by the transmitter but not yet serialized.
    in_flight: usize,
    /// Max `in_flight` before sends queue locally in `pending`.
    buffer: usize,
    /// Packets waiting for a send-buffer slot (or a window slot).
    pending: VecDeque<Packet>,
    /// Windowed flow control: max unacknowledged packets (`None` = lossy
    /// edge, no receiver feedback).
    window: Option<usize>,
    /// Packets sent but not yet acknowledged (windowed edges only).
    unacked: usize,
}

impl OutLink {
    fn can_transmit(&self) -> bool {
        self.in_flight < self.buffer && self.window.is_none_or(|w| self.unacked < w)
    }
}

/// A stage's out edges and the fault plane acting on them, apart from
/// the core so that the core's routing can hand packets straight to a
/// link.
struct Links {
    out: Vec<OutLink>,
    /// Node this stage runs on.
    node: String,
    partition: Option<PartitionSpec>,
    recorder: Arc<dyn Recorder>,
    /// Frames lost, duplicated, or delayed by the fault plane.
    faults_injected: u64,
}

impl Links {
    fn enqueue(&mut self, i: usize, packet: Packet, ctx: &mut Context<'_, EngineMsg>) {
        if !self.out[i].can_transmit() {
            self.out[i].pending.push_back(packet);
            return;
        }
        // The fault plane decides this frame's fate before it reaches the
        // link. EOS is exempt (it carries termination, exactly like the
        // payload-only injectors on real sockets) and does not consume a
        // frame index, so data-frame fates match the distributed runtime's
        // per-payload sequence.
        if !packet.is_eos() {
            if self.partitioned(i, ctx.now()) {
                self.note_fault(i, ctx.now(), "partition");
                self.transmit(i, packet, ctx, SimDuration::ZERO, false);
                return;
            }
            let fate =
                self.out[i].injector.as_mut().map_or(FaultFate::Deliver, FaultInjector::next_fate);
            match fate {
                FaultFate::Deliver => {}
                FaultFate::Drop | FaultFate::Corrupt { .. } | FaultFate::Reset => {
                    // A corrupted frame is discarded by the receiver's CRC
                    // check and a reset has no connection to kill here, so
                    // all three reduce to a lost delivery that still burns
                    // serialization time on the sender.
                    self.note_fault(i, ctx.now(), fate.name());
                    self.transmit(i, packet, ctx, SimDuration::ZERO, false);
                    return;
                }
                FaultFate::Duplicate => {
                    self.note_fault(i, ctx.now(), "dup");
                    self.transmit(i, packet.clone(), ctx, SimDuration::ZERO, true);
                    self.transmit(i, packet, ctx, SimDuration::ZERO, true);
                    return;
                }
                FaultFate::Delay(d) => {
                    self.note_fault(i, ctx.now(), "delay");
                    let extra = SimDuration::from_secs_f64(d.as_secs_f64());
                    self.transmit(i, packet, ctx, extra, true);
                    return;
                }
            }
        }
        self.transmit(i, packet, ctx, SimDuration::ZERO, true);
    }

    /// Put one packet on link `i`: charge transmission, and deliver it
    /// after transit plus `extra` unless the fault plane ate it.
    fn transmit(
        &mut self,
        i: usize,
        packet: Packet,
        ctx: &mut Context<'_, EngineMsg>,
        extra: SimDuration,
        deliver: bool,
    ) {
        let now = ctx.now();
        let link = &mut self.out[i];
        let tx = link.link.transmit(now, packet.wire_len());
        link.in_flight += 1;
        if deliver {
            if link.window.is_some() {
                link.unacked += 1;
            }
            ctx.send(link.to, EngineMsg::Packet(packet), tx.delivered_at - now + extra);
        }
        ctx.set_timer(tx.serialized_at - now, TAG_CREDIT_BASE + i as u64);
    }

    /// True while the chaos plan's partition window covers virtual `now`
    /// and either endpoint of edge `i` sits on the partitioned node.
    fn partitioned(&self, i: usize, now: SimTime) -> bool {
        let Some(spec) = &self.partition else {
            return false;
        };
        if spec.node != self.node && spec.node != self.out[i].to_node {
            return false;
        }
        let t = now.as_secs_f64();
        let start = spec.at.as_secs_f64();
        t >= start && t < start + spec.duration.as_secs_f64()
    }

    /// Count one injected fault and surface it to the flight recorder.
    fn note_fault(&mut self, i: usize, now: SimTime, what: &str) {
        self.faults_injected += 1;
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::Link(LinkEvent {
                t: now.as_secs_f64(),
                link: self.out[i].label.clone(),
                node: self.node.clone(),
                kind: LinkEventKind::FaultInjected,
                detail: what.to_string(),
            }));
        }
    }

    /// Move pending packets onto the link while buffer and window allow.
    fn drain(&mut self, i: usize, ctx: &mut Context<'_, EngineMsg>) {
        while self.out[i].can_transmit() {
            let Some(p) = self.out[i].pending.pop_front() else { break };
            self.enqueue(i, p, ctx);
        }
    }

    fn blocked(&self) -> bool {
        self.out.iter().any(|l| !l.pending.is_empty())
    }
}

/// The per-stage actor.
pub(crate) struct StageActor {
    pub(crate) core: StageCore,
    links: Links,
    queue: VecDeque<(ActorId, Packet)>,
    queue_capacity: usize,
    busy: bool,
    /// Output of the packet currently in service, released when the
    /// service timer fires (route, packet).
    current_output: Vec<(Option<usize>, Packet)>,
    upstream: Vec<ActorId>,
    /// In-edges that have not yet delivered EOS.
    eos_remaining: usize,
    is_source: bool,
    source_done: bool,
    /// Last poll interval requested by a source (used as the retry delay
    /// while the source is output-blocked).
    last_poll: SimDuration,
    /// `on_eos` has run (non-sources) and EOS markers have been queued
    /// on every out link.
    eos_enqueued: bool,
    finished: bool,
    finish_time: Option<SimTime>,
    opts: RunOptions,
    /// Input packets turned away by a full queue.
    drops: u64,
}

impl StageActor {
    /// The actor of stage `id`, placed as `plan` says.
    pub(crate) fn new(
        topology: &Topology,
        plan: &DeploymentPlan,
        id: StageId,
        opts: RunOptions,
    ) -> Self {
        let node =
            |s: StageId| plan.node_of(s).unwrap_or(&topology.stages()[s.index()].site).to_string();
        // Scaling is always local in virtual time: every actor holds the
        // group's shared router, so a split or merge re-routes upstream
        // senders on their next packet.
        let core =
            StageCore::new(topology, id, node(id), plan.speed_of(id), ShardScaling::Local, &opts);
        let chaos = opts.chaos.clone().filter(|p| !p.is_noop());
        let out = topology.out_edges(id).into_iter().map(|ei| {
            let edge = &topology.edges()[ei];
            // Windowed edges get an equal share of the receiver's queue
            // so fan-in senders cannot jointly overrun it.
            let window = (edge.link.flow == FlowControl::Blocking).then(|| {
                let in_degree = topology.in_edges(edge.to).len().max(1);
                (topology.stages()[edge.to.index()].queue_capacity / in_degree).max(1)
            });
            OutLink {
                to: edge.to.index(),
                link: LinkModel::new(edge.link.clone()),
                label: format!("{}->{}", core.name(), topology.stages()[edge.to.index()].name),
                to_node: node(edge.to),
                injector: chaos.as_ref().map(|p| p.injector_for_link(ei as u64)),
                in_flight: 0,
                buffer: edge.link.buffer_packets.max(1),
                pending: VecDeque::new(),
                window,
                unacked: 0,
            }
        });
        let links = Links {
            out: out.collect(),
            node: core.placed_on().to_string(),
            partition: opts.chaos.as_ref().and_then(|p| p.partition.clone()),
            recorder: Arc::clone(&opts.recorder),
            faults_injected: 0,
        };
        let upstream: Vec<ActorId> =
            topology.in_edges(id).into_iter().map(|ei| topology.edges()[ei].from.index()).collect();
        StageActor {
            core,
            links,
            queue: VecDeque::new(),
            queue_capacity: topology.stages()[id.index()].queue_capacity,
            busy: false,
            current_output: Vec::new(),
            eos_remaining: upstream.len(),
            is_source: upstream.is_empty(),
            upstream,
            source_done: false,
            last_poll: SimDuration::from_millis(1),
            eos_enqueued: false,
            finished: false,
            finish_time: None,
            opts,
            drops: 0,
        }
    }

    /// True once this stage will take no further part in the run.
    pub(crate) fn finished(&self) -> bool {
        self.finished
    }

    pub(crate) fn finish_time(&self) -> Option<SimTime> {
        self.finish_time
    }

    /// Faults the chaos plan injected on this stage's out edges.
    pub(crate) fn faults_injected(&self) -> u64 {
        self.links.faults_injected
    }

    /// Snapshot statistics into a report.
    pub(crate) fn report(&self) -> StageReport {
        self.core.report(self.drops)
    }

    // --- internals -------------------------------------------------------

    fn route_emitted(&mut self, ctx: &mut Context<'_, EngineMsg>) {
        let links = &mut self.links;
        self.core.route_emitted(|port, packet| links.enqueue(port, packet, ctx));
    }

    fn try_start_service(&mut self, ctx: &mut Context<'_, EngineMsg>) {
        if self.busy || self.finished || self.links.blocked() {
            return;
        }
        let Some((from, packet)) = self.queue.pop_front() else {
            return;
        };
        // Windowed flow control: the queue slot is free, tell the sender.
        ctx.send(from, EngineMsg::Ack, self.opts.control_latency);
        self.busy = true;
        let total = self.core.process(packet, ctx.now());
        self.core.add_busy(total);
        self.current_output = self.core.take_emitted();
        ctx.set_timer(total, TAG_SERVICE_DONE);
    }

    fn inputs_done(&self) -> bool {
        if self.is_source {
            self.source_done
        } else {
            self.eos_remaining == 0
        }
    }

    fn maybe_finish(&mut self, ctx: &mut Context<'_, EngineMsg>) {
        if self.finished || self.busy || !self.queue.is_empty() || !self.inputs_done() {
            return;
        }
        if !self.eos_enqueued {
            self.eos_enqueued = true;
            // Only now has every delivered packet been processed, so
            // `on_eos` sees the same input here as on the wall-clock
            // engines; what it emits goes out ahead of the markers.
            if !self.is_source {
                self.core.eos(ctx.now());
                self.route_emitted(ctx);
            }
            for i in 0..self.links.out.len() {
                // EOS travels the link like data so it arrives after
                // every previously sent packet.
                let eos = Packet::eos(u32::MAX, 0).at(ctx.now());
                self.links.enqueue(i, eos, ctx);
            }
        }
        // Finished once every link has drained its pending queue and all
        // in-flight serializations completed.
        if self.links.out.iter().all(|l| l.pending.is_empty() && l.in_flight == 0) {
            self.finished = true;
            self.finish_time = Some(ctx.now());
        }
    }

    fn on_observe(&mut self, ctx: &mut Context<'_, EngineMsg>) {
        if self.finished {
            return; // do not re-arm
        }
        if let Some(exception) = self.core.observe(ctx.now(), self.queue.len()) {
            for &up in &self.upstream {
                ctx.send(up, EngineMsg::Exception(exception), self.opts.control_latency);
            }
        }
        // Virtual-time links model transit, not pacing: no bucket wait.
        self.core.sample(ctx.now(), self.queue.len(), self.drops, 0.0);
        ctx.set_timer(self.opts.observe_interval, TAG_OBSERVE);
    }

    fn on_adapt(&mut self, ctx: &mut Context<'_, EngineMsg>) {
        if self.finished {
            return; // do not re-arm
        }
        self.core.adapt(ctx.now());
        ctx.set_timer(self.opts.adapt_interval, TAG_ADAPT);
    }

    fn on_generate(&mut self, ctx: &mut Context<'_, EngineMsg>) {
        if self.finished || self.source_done {
            return;
        }
        // Elastic generation: while this source's out-link buffers are
        // full, hold the stream back instead of piling up unbounded
        // output (the paper's generators read from files/JVM streams,
        // which block under TCP flow control). Sources that must model
        // non-blockable external arrivals use a large link buffer so
        // this never triggers.
        if self.links.blocked() {
            ctx.set_timer(self.last_poll.max(SimDuration::from_micros(100)), TAG_GENERATE);
            return;
        }
        let status = self.core.generate(ctx.now());
        self.route_emitted(ctx);
        match status {
            SourceStatus::Continue { next_poll } => {
                self.last_poll = next_poll.max(SimDuration::from_micros(1));
                ctx.set_timer(self.last_poll, TAG_GENERATE);
            }
            SourceStatus::Done => {
                self.source_done = true;
                self.maybe_finish(ctx);
            }
        }
    }

    fn on_packet(&mut self, from: ActorId, packet: Packet, ctx: &mut Context<'_, EngineMsg>) {
        if self.finished {
            return;
        }
        if packet.is_eos() {
            // EOS never occupies a queue slot; release its window slot
            // immediately.
            ctx.send(from, EngineMsg::Ack, self.opts.control_latency);
            self.eos_remaining = self.eos_remaining.saturating_sub(1);
            self.maybe_finish(ctx);
            return;
        }
        if self.queue.len() >= self.queue_capacity {
            // Dropped on the floor — still acknowledged, so a lossy
            // sender's (absent) window and a misconfigured blocking one
            // both stay consistent.
            ctx.send(from, EngineMsg::Ack, self.opts.control_latency);
            self.drops += 1;
            return;
        }
        self.core.arrived(&packet, ctx.now());
        self.queue.push_back((from, packet));
        self.try_start_service(ctx);
    }

    fn on_ack(&mut self, from: ActorId, ctx: &mut Context<'_, EngineMsg>) {
        if let Some(i) = self.links.out.iter().position(|l| l.to == from) {
            if self.links.out[i].window.is_some() {
                self.links.out[i].unacked = self.links.out[i].unacked.saturating_sub(1);
                self.links.drain(i, ctx);
                self.try_start_service(ctx);
                self.maybe_finish(ctx);
            }
        }
    }
}

impl Actor<EngineMsg> for StageActor {
    fn on_event(&mut self, event: Event<EngineMsg>, ctx: &mut Context<'_, EngineMsg>) {
        match event {
            Event::Start => {
                self.core.start(ctx.now(), None);
                self.route_emitted(ctx);
                if self.is_source {
                    ctx.set_timer(SimDuration::ZERO, TAG_GENERATE);
                }
                // The observe tick doubles as the flight recorder's
                // sampling clock, so a recording run samples every stage
                // even when it has no adaptation tracker.
                if self.core.adapts() || self.core.recording() {
                    ctx.set_timer(self.opts.observe_interval, TAG_OBSERVE);
                }
                if self.core.adapts() {
                    ctx.set_timer(self.opts.adapt_interval, TAG_ADAPT);
                }
            }
            Event::Message { payload: EngineMsg::Packet(p), from } => self.on_packet(from, p, ctx),
            Event::Message { payload: EngineMsg::Exception(e), .. } => {
                if !self.finished {
                    self.core.on_exception(e);
                }
            }
            Event::Message { payload: EngineMsg::Ack, from } => self.on_ack(from, ctx),
            Event::Timer { tag: TAG_SERVICE_DONE } => {
                self.busy = false;
                for (target, packet) in std::mem::take(&mut self.current_output) {
                    let links = &mut self.links;
                    self.core.route(target, packet, |port, p| links.enqueue(port, p, ctx));
                }
                self.try_start_service(ctx);
                self.maybe_finish(ctx);
            }
            Event::Timer { tag: TAG_OBSERVE } => self.on_observe(ctx),
            Event::Timer { tag: TAG_ADAPT } => self.on_adapt(ctx),
            Event::Timer { tag: TAG_GENERATE } => self.on_generate(ctx),
            Event::Timer { tag } => {
                let i = (tag - TAG_CREDIT_BASE) as usize;
                if i < self.links.out.len() {
                    self.links.out[i].in_flight = self.links.out[i].in_flight.saturating_sub(1);
                    self.links.drain(i, ctx);
                    self.try_start_service(ctx);
                    self.maybe_finish(ctx);
                }
            }
        }
    }
}
