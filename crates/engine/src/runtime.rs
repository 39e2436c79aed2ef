//! Shared wall-clock stage plumbing.
//!
//! [`StageWorker`] bundles one stage's [`StageCore`] with its channels,
//! links, and options; [`StageTask`] drives it as a run-to-yield state
//! machine ([`crate::executor::Activation`]) used by both wall-clock
//! runtimes: the single-process [`crate::ThreadedEngine`] and the
//! multi-process [`crate::DistEngine`] schedule every stage onto a
//! [`crate::executor::CorePool`]. The stage is transport-agnostic: it
//! consumes `crossbeam` channels and writes into [`OutPort`]s, and it is
//! the runtime's job to wire those endpoints to an in-process peer or to
//! the bridge channel of a reactor-driven socket sender.
//!
//! The driver owns the queue, the out-ports and their pacing, the
//! outbox, checkpoints, and the `Instant` cadence on which observe and
//! adapt rounds fire. The core owns the processor, service time, the §4
//! observe/adapt round, the counters, routing, and the shard debounce;
//! the driver hands it observed time from the run's
//! [`crate::clock::EngineClock`].
//!
//! The state machine yields at every former blocking point — queue
//! receive, modeled service time, token-bucket pacing, blocking send,
//! source `next_poll` — and caps every wait at one monitoring tick, so
//! an engine stop (stop flag, `Control::Stop`, peer disconnect) takes
//! effect within one tick no matter where a stage is. Modeled service
//! time is realized as an inline sleep that *occupies* a pool worker
//! ("N cores" means N concurrent service slices); a stage waiting for a
//! peer — input, or room in a full queue — releases its core until the
//! peer wakes it, and timed waits park on the pool's timer wheel.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};

use gates_core::adapt::LoadException;
use gates_core::report::StageReport;
use gates_core::{Packet, SourceStatus, Topology};
use gates_net::{FlowControl, LinkSpec, Reactor, Token, TokenBucket};
use gates_sim::{SimDuration, SimTime};

use crate::clock::EngineClock;
use crate::executor::{Activation, CorePool, Step, TaskHandle, WakeHub};
use crate::options::RunOptions;
use crate::stage_core::StageCore;

/// Per-edge input cursors `(edge, seq)`: for each remote in-edge, the
/// highest contiguously delivered link sequence. Recorded with every
/// checkpoint so an adopting worker can resume dedup exactly where the
/// snapshot left off.
pub(crate) type EdgeCursors = Vec<(u32, u64)>;

/// Sampler for a stage's live [`EdgeCursors`]. Runs in stage-task
/// context, between packets, so the sampled floor never exceeds what
/// the snapshot captured.
pub(crate) type CursorProbe = Arc<dyn Fn() -> EdgeCursors + Send + Sync>;

/// Messages on a stage's control channel.
pub(crate) enum Control {
    /// An over-/under-load exception from a downstream stage.
    Exception(LoadException),
    /// Engine-wide shutdown (max_time exceeded).
    Stop,
}

/// Checkpoint wiring for a stage running under the distributed runtime:
/// every `every` input packets the worker snapshots the processor
/// ([`gates_core::StreamProcessor::snapshot`]) and sends
/// `(stage, seq, state, cursors)` on `tx`, from where the
/// hosting process relays it to the coordinator. A checkpoint with an
/// empty state and no cursors is skipped.
pub(crate) struct CheckpointCfg {
    /// Cadence in input packets; zero disables emission.
    pub(crate) every: u64,
    /// Where snapshots go: `(stage, seq, state, cursors)`.
    pub(crate) tx: Sender<(u32, u64, Vec<u8>, EdgeCursors)>,
    /// Samples this stage's per-edge input cursors `(edge, seq)` at
    /// snapshot time — the replay floor the at-least-once layer records
    /// with the state. It runs in stage-task context, between packets,
    /// so the sampled floor never exceeds what the snapshot captured.
    /// `None` for stages without remote in-edges.
    pub(crate) cursors: Option<CursorProbe>,
}

/// Deduplicated wake handle from a stage to a reactor source: the
/// sender draining a remote edge's bridge channel, or the in-edge
/// connection that acks what the stage consumed.
///
/// A per-packet `Reactor::notify` would put a syscall on the hot path;
/// instead the source *arms* the handle just before parking (then
/// re-checks its work, closing the lost-wakeup window), and
/// [`RemoteWake::ping`] notifies only on the armed→disarmed edge. While
/// the source is busy, pings cost one atomic swap.
///
/// On a bridge the handle also carries the other direction: the stage
/// raises [`RemoteWake::note_blocked`] when it finds the bridge full,
/// and the sender wakes it after taking packets.
pub(crate) struct RemoteWake {
    armed: AtomicBool,
    /// The stage writing into the bridge found it full.
    blocked: AtomicBool,
    slot: Mutex<Option<(Reactor, Token)>>,
}

impl RemoteWake {
    pub(crate) fn new() -> Arc<RemoteWake> {
        Arc::new(RemoteWake {
            armed: AtomicBool::new(false),
            blocked: AtomicBool::new(false),
            slot: Mutex::new(None),
        })
    }

    /// Point the handle at the currently registered source, and service
    /// it once: the source may have armed and parked before the slot was
    /// set, and a ping in that window found no reactor to notify.
    pub(crate) fn install(&self, reactor: Reactor, token: Token) {
        *self.slot.lock().unwrap_or_else(|p| p.into_inner()) = Some((reactor.clone(), token));
        reactor.notify(token);
    }

    /// Service the source now, armed or not: stop, a partition flip or
    /// a moved endpoint it must see.
    pub(crate) fn nudge(&self) {
        if let Some((reactor, token)) = self.slot.lock().unwrap_or_else(|p| p.into_inner()).as_ref()
        {
            reactor.notify(*token);
        }
    }

    /// Detach (source left the reactor); pings become no-ops.
    pub(crate) fn clear(&self) {
        self.armed.store(false, Ordering::Relaxed);
        *self.slot.lock().unwrap_or_else(|p| p.into_inner()) = None;
    }

    /// Declare interest in the next ping. Callers must re-check their
    /// work source *after* arming to avoid sleeping through a ping that
    /// raced the arm.
    pub(crate) fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Wake the parked source, once per arm. Returns whether it
    /// notified the reactor.
    pub(crate) fn ping(&self) -> bool {
        if !self.armed.swap(false, Ordering::AcqRel) {
            return false;
        }
        match self.slot.lock().unwrap_or_else(|p| p.into_inner()).as_ref() {
            Some((reactor, token)) => {
                reactor.notify(*token);
                true
            }
            None => false,
        }
    }

    /// The stage found the bridge full and is about to park. It must
    /// retry its send *after* this, so that either the retry finds room
    /// or the sender's next [`RemoteWake::take_blocked`] sees the flag.
    pub(crate) fn note_blocked(&self) {
        self.blocked.store(true, Ordering::SeqCst);
    }

    /// Called by the sender after taking packets from the bridge: true
    /// when the stage is parked on it and needs a wake.
    pub(crate) fn take_blocked(&self) -> bool {
        self.blocked.load(Ordering::SeqCst) && self.blocked.swap(false, Ordering::SeqCst)
    }
}

/// The consuming end of one remote in-edge's credit: the highest link
/// sequence its stage has dequeued, and the wake of the connection that
/// acks it upstream. A new sender incarnation (a fresh sequence space)
/// gets a fresh `EdgeCredit`, so packets of the old one still queued
/// cannot advance the new cursor.
pub(crate) struct EdgeCredit {
    consumed: AtomicU64,
    /// Blocking edges ack the consumed cursor, so each dequeue pings the
    /// connection; lossy edges ack on arrival and skip the ping.
    ack_on_consume: bool,
    pub(crate) ack: Arc<RemoteWake>,
}

impl EdgeCredit {
    pub(crate) fn new(consumed: u64, ack_on_consume: bool) -> Arc<EdgeCredit> {
        Arc::new(EdgeCredit {
            consumed: AtomicU64::new(consumed),
            ack_on_consume,
            ack: RemoteWake::new(),
        })
    }

    /// Highest link sequence the stage has dequeued.
    pub(crate) fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Acquire)
    }
}

/// One entry of a stage's input queue, or of a remote edge's bridge.
pub(crate) struct Queued {
    pub(crate) packet: Packet,
    /// Set on a packet that crossed a remote edge: that edge's credit
    /// and the packet's link sequence.
    pub(crate) credit: Option<(Arc<EdgeCredit>, u64)>,
}

impl Queued {
    /// Take the packet out of the queue entry, handing its edge the
    /// credit back.
    fn dequeued(self) -> Packet {
        if let Some((credit, seq)) = self.credit {
            credit.consumed.fetch_max(seq, Ordering::AcqRel);
            if credit.ack_on_consume {
                // Unlike a sender ping, this arms no yield: a consumer
                // that yields waits out its producer's time slice before
                // it runs again.
                credit.ack.ping();
            }
        }
        self.packet
    }
}

impl From<Packet> for Queued {
    fn from(packet: Packet) -> Queued {
        Queued { packet, credit: None }
    }
}

/// Ping the sender draining a bridge. A notify arms the pool worker's
/// yield after the running step (see [`crate::executor`]).
fn ping_sender(wake: &RemoteWake) {
    if wake.ping() {
        crate::executor::note_sender_ping();
    }
}

/// One outgoing edge of a stage: a bounded channel plus the token bucket
/// realizing the link's bandwidth.
pub(crate) struct OutPort {
    pub(crate) tx: Sender<Queued>,
    pub(crate) bucket: TokenBucket,
    /// Blocking edges use a blocking send; lossy edges drop when full.
    pub(crate) blocking: bool,
    /// Drop counter of the *receiving* stage (or, for a remote edge, the
    /// counter the transport attributes drops to).
    pub(crate) drops: Arc<AtomicU64>,
    /// Executor key of the receiving stage when it lives on the same
    /// pool, so a successful send wakes it; `None` for bridge channels.
    pub(crate) wake_key: Option<u32>,
    /// Wake handle of the reactor source draining this port's bridge
    /// channel; `None` for local (in-process) edges.
    pub(crate) remote_wake: Option<Arc<RemoteWake>>,
}

impl OutPort {
    /// A port writing into `tx`, paced and flow-controlled per `link`,
    /// counting its drops on `drops`; nothing to wake yet. The token
    /// bucket allows ~50 ms of burst for smooth pacing.
    pub(crate) fn new(link: &LinkSpec, tx: Sender<Queued>, drops: &Arc<AtomicU64>) -> OutPort {
        let rate = link.bandwidth.as_bytes_per_sec();
        OutPort {
            tx,
            bucket: TokenBucket::new(rate, (rate * 0.05).clamp(64.0, 4096.0)),
            blocking: link.flow == FlowControl::Blocking,
            drops: Arc::clone(drops),
            wake_key: None,
            remote_wake: None,
        }
    }

    /// An in-process edge over `link` into the stage behind `to`.
    pub(crate) fn local(link: &LinkSpec, to: &Inbox) -> OutPort {
        OutPort { wake_key: Some(to.key), ..OutPort::new(link, to.tx.clone(), &to.drops) }
    }
}

/// What every stage of one wall-clock run shares, built once per run.
#[derive(Clone)]
pub(crate) struct RunCtx {
    pub(crate) opts: RunOptions,
    /// Drives real scheduling (pacing, retry deadlines).
    pub(crate) start: Instant,
    /// Observed-time source (see [`crate::clock::EngineClock`]): every
    /// time the cores see reads from it.
    pub(crate) clock: Arc<dyn EngineClock>,
    /// Engine-wide stop flag. Stages poll it from inside blocking sends
    /// and service sleeps, where a `Control::Stop` alone could arrive
    /// too late (or never, if the stage is wedged in a send).
    pub(crate) stop: Arc<AtomicBool>,
    /// Wake hub of the pool hosting the run's stages.
    pub(crate) hub: Arc<WakeHub>,
}

impl RunCtx {
    /// A run starting now, its stages hosted on the pool behind `hub`.
    pub(crate) fn new(opts: RunOptions, hub: Arc<WakeHub>) -> RunCtx {
        RunCtx { start: Instant::now(), clock: opts.run_clock(), stop: Arc::default(), hub, opts }
    }

    /// Set the stop flag and, the first time only, tell every stage.
    pub(crate) fn stop_stages(&self, stages: &[Sender<Control>]) {
        if !self.stop.swap(true, Ordering::Relaxed) {
            for c in stages {
                let _ = c.send(Control::Stop);
            }
        }
    }
}

/// A stage's bounded queue, control channel, drop counter and executor
/// key. [`StageWorker::new`] moves the receiving ends into the stage: a
/// receiver clone kept elsewhere would wedge shutdown, since a stage
/// blocked on a finished stage's full queue would never see it close.
pub(crate) struct Inbox {
    /// The stage's executor key on its pool: its topology index.
    pub(crate) key: u32,
    pub(crate) tx: Sender<Queued>,
    pub(crate) ctl: Sender<Control>,
    /// Queue-full drops, counted against this stage.
    pub(crate) drops: Arc<AtomicU64>,
    receivers: Option<(Receiver<Queued>, Receiver<Control>)>,
}

impl Inbox {
    /// The inbox of stage index `stage`, its queue bounded by the
    /// stage's `queue_capacity`.
    pub(crate) fn new(topology: &Topology, stage: usize) -> Inbox {
        let (tx, rx) = bounded(topology.stages()[stage].queue_capacity);
        let (ctl, ctl_rx) = unbounded();
        Inbox { key: stage as u32, tx, ctl, drops: Arc::default(), receivers: Some((rx, ctl_rx)) }
    }
}

/// One in-edge as its stage sees it.
pub(crate) struct Upstream {
    /// Where the stage's load exceptions for the producer go.
    pub(crate) ctl: Sender<Control>,
    /// Executor key of a producer on the same pool: after draining input
    /// the stage wakes it, so a send blocked on the full queue retries
    /// at once. `None` for a remote producer, whose in-edge wakes the
    /// stage itself.
    pub(crate) key: Option<u32>,
}

impl Upstream {
    /// A producer on the same pool, behind `producer`.
    pub(crate) fn local(producer: &Inbox) -> Upstream {
        Upstream { ctl: producer.ctl.clone(), key: Some(producer.key) }
    }
}

/// Per-stage wiring for one wall-clock run: the [`StageCore`], its
/// channels and out-edges, and the observe/adapt cadence. Build it with
/// [`StageWorker::new`] and start it with [`StageWorker::spawn`].
pub(crate) struct StageWorker {
    pub(crate) core: StageCore,
    pub(crate) run: RunCtx,
    /// Executor key on the run's pool.
    pub(crate) key: u32,
    pub(crate) rx: Receiver<Queued>,
    pub(crate) ctl: Receiver<Control>,
    pub(crate) my_drops: Arc<AtomicU64>,
    /// Physical out-edges, in [`gates_core::Topology::out_edges`] order:
    /// the ports the core's routes resolve to.
    pub(crate) out: Vec<OutPort>,
    /// One per in-edge; a source has none.
    pub(crate) upstream: Vec<Upstream>,
    /// Periodic state snapshots for failover (dist runtime only).
    pub(crate) checkpoint: Option<CheckpointCfg>,
    /// `(seq, state)` of the checkpoint a stage adopted during failover
    /// resumes from: the state is restored right after `on_start`, and
    /// the stage's own checkpoints count on from `seq`.
    pub(crate) restore: Option<(u64, Vec<u8>)>,
}

impl StageWorker {
    /// The one place a wall-clock stage is wired, for the threaded
    /// engine and the dist worker alike: `core` fed from `inbox`,
    /// writing into `out` (in out-edge order), with one [`Upstream`] per
    /// in-edge.
    pub(crate) fn new(
        run: RunCtx,
        core: StageCore,
        inbox: &mut Inbox,
        out: Vec<OutPort>,
        upstream: Vec<Upstream>,
        checkpoint: Option<CheckpointCfg>,
        restore: Option<(u64, Vec<u8>)>,
    ) -> StageWorker {
        let (rx, ctl) = inbox.receivers.take().expect("an inbox feeds exactly one stage");
        let (key, my_drops) = (inbox.key, Arc::clone(&inbox.drops));
        StageWorker { core, run, key, rx, ctl, my_drops, out, upstream, checkpoint, restore }
    }

    /// Start the stage on `pool`.
    pub(crate) fn spawn(self, pool: &CorePool) -> TaskHandle {
        let key = self.key;
        pool.spawn(Box::new(StageTask::new(self)), key)
    }
}

/// How many queued zero-service packets one activation may process
/// before yielding, so co-scheduled stages stay responsive.
const RECV_BATCH: usize = 64;

/// One packet (or EOS marker) waiting in the stage's outbox.
struct Emit {
    port: usize,
    packet: Packet,
    /// `None`: token-bucket pacing not yet paid. `Some(t)`: hand the
    /// packet to the channel no earlier than `t`.
    ready_at: Option<Instant>,
    /// Final EOS markers block like windowed edges but are exempt from
    /// pacing and never counted as drops.
    final_marker: bool,
}

/// Execution phases. Each `step` runs one bounded slice of exactly one
/// phase; every former blocking point is a transition that yields.
#[derive(Clone, Copy)]
enum Phase {
    /// Poll input (or generate, for a source).
    Loop,
    /// Realizing modeled service time, one tick-slice per step. The
    /// sleep intentionally occupies a pool worker: that is the modeled
    /// core executing the stage.
    Service { remaining: f64 },
    /// Draining the outbox (pacing, blocking sends, drops).
    Flush { after: After },
    /// A source waiting out its `next_poll` delay.
    PollWait { until: Instant },
    /// Stream ended or run stopped: run `on_eos` (clean end only) and
    /// queue one EOS marker per out-edge.
    Finish,
    /// Everything delivered; `step` returns [`Step::Done`].
    Report,
}

/// Where to go once the outbox drains.
#[derive(Clone, Copy)]
enum After {
    /// Back to polling input; try a checkpoint first.
    Loop,
    /// Source: wait until the next poll instant; checkpoint first.
    Poll { until: Instant },
    /// Enter the shutdown sequence.
    Finish,
    /// EOS markers delivered; produce the report.
    Report,
}

/// The run-to-yield stage state machine (see module docs).
pub(crate) struct StageTask {
    w: StageWorker,
    is_source: bool,
    eos_remaining: usize,
    /// The run was cut short (stop flag or `Control::Stop`): skip
    /// `on_eos` and switch sends to last-gasp semantics.
    stopped: bool,
    /// The shutdown sequence has begun; entering it twice would emit
    /// duplicate EOS markers.
    finishing: bool,
    started: bool,
    /// Progress mark (packets in, or out for sources) at the last
    /// checkpoint, so a slow stage doesn't re-snapshot identical state.
    last_ckpt: u64,
    /// Sequence of the checkpoint this stage was restored from: its own
    /// checkpoints are numbered on from there, so the coordinator never
    /// takes them for stale copies of the one it already holds.
    ckpt_base: u64,
    /// Total token-bucket wait realized by this stage, seconds.
    bucket_waited: f64,
    observe_every: Duration,
    adapt_every: Duration,
    tick: Duration,
    last_observe: Instant,
    last_adapt: Instant,
    outbox: VecDeque<Emit>,
    phase: Phase,
}

impl Activation for StageTask {
    fn step(&mut self) -> Step {
        self.advance()
    }

    fn finish(self: Box<Self>) -> StageReport {
        self.w.core.report(self.w.my_drops.load(Ordering::Relaxed))
    }
}

impl StageTask {
    pub(crate) fn new(w: StageWorker) -> Self {
        let observe_every = Duration::from_secs_f64(w.run.opts.observe_interval.as_secs_f64());
        let adapt_every = Duration::from_secs_f64(w.run.opts.adapt_interval.as_secs_f64());
        let tick = observe_every.min(Duration::from_millis(10));
        let is_source = w.upstream.is_empty();
        let eos_remaining = w.upstream.len();
        StageTask {
            w,
            is_source,
            eos_remaining,
            stopped: false,
            finishing: false,
            started: false,
            last_ckpt: 0,
            ckpt_base: 0,
            bucket_waited: 0.0,
            observe_every,
            adapt_every,
            tick,
            last_observe: Instant::now(),
            last_adapt: Instant::now(),
            outbox: VecDeque::new(),
            phase: Phase::Loop,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.w.run.clock.now_secs())
    }

    /// Run one bounded slice of the stage.
    fn advance(&mut self) -> Step {
        if !self.started {
            self.init();
        }
        if !self.stopped && self.w.run.stop.load(Ordering::Relaxed) {
            self.enter_finish(true);
        }
        self.drain_control();
        if !self.finishing {
            self.run_timers();
        }
        match self.phase {
            Phase::Loop => {
                if self.is_source {
                    self.step_source()
                } else {
                    self.step_receive()
                }
            }
            Phase::Service { .. } => self.step_service(),
            Phase::Flush { .. } => self.step_flush(),
            Phase::PollWait { until } => {
                if Instant::now() >= until {
                    self.phase = Phase::Loop;
                    self.step_source()
                } else {
                    self.park(until)
                }
            }
            Phase::Finish => self.step_finish(),
            Phase::Report => Step::Done,
        }
    }

    /// Start the core, restoring an adopted stage's checkpoint.
    fn init(&mut self) {
        self.started = true;
        let restore = self.w.restore.take();
        self.ckpt_base = restore.as_ref().map_or(0, |(seq, _)| *seq);
        self.w.core.start(self.now(), restore.as_ref().map(|(_, state)| state.as_slice()));
        // Ship anything on_start emitted before polling input.
        self.enqueue_emitted();
        self.phase = Phase::Flush { after: After::Loop };
    }

    /// Cap every park at one tick so the stop flag, control messages,
    /// and the observe/adapt timers are serviced even while waiting.
    fn park(&self, until: Instant) -> Step {
        Step::Park { until: until.min(Instant::now() + self.tick) }
    }

    /// Wait for a peer's wake — input, or room in a full queue — for at
    /// most one tick.
    fn wait(&self) -> Step {
        Step::Wait { until: Instant::now() + self.tick }
    }

    /// Begin the shutdown sequence (idempotent). `by_stop` marks the
    /// run as cut short: `on_eos` is skipped and pending sends switch to
    /// last-gasp semantics.
    fn enter_finish(&mut self, by_stop: bool) {
        if by_stop {
            self.stopped = true;
        }
        if self.finishing {
            return;
        }
        self.finishing = true;
        match &mut self.phase {
            // Let the outbox drain first (with stop semantics if
            // stopped); the markers follow in order.
            Phase::Flush { after } => *after = After::Finish,
            _ => self.phase = Phase::Finish,
        }
    }

    /// Apply downstream exceptions; enter shutdown on `Stop`.
    fn drain_control(&mut self) {
        while let Ok(msg) = self.w.ctl.try_recv() {
            match msg {
                Control::Exception(e) => self.w.core.on_exception(e),
                Control::Stop => self.enter_finish(true),
            }
        }
    }

    /// The monitoring heartbeat, run on every activation so a busy or
    /// parked stage keeps observing its queue (the virtual-time engine
    /// gets this for free from independent timer events). The observe
    /// tick doubles as the flight recorder's sampling clock.
    fn run_timers(&mut self) {
        if self.last_observe.elapsed() >= self.observe_every {
            self.last_observe = Instant::now();
            let now = self.now();
            let depth = self.w.rx.len();
            if let Some(exception) = self.w.core.observe(now, depth) {
                for up in &self.w.upstream {
                    let _ = up.ctl.send(Control::Exception(exception));
                }
            }
            let dropped = self.w.my_drops.load(Ordering::Relaxed);
            self.w.core.sample(now, depth, dropped, self.bucket_waited);
        }
        if self.w.core.adapts() && self.last_adapt.elapsed() >= self.adapt_every {
            self.last_adapt = Instant::now();
            self.w.core.adapt(self.now());
        }
    }

    /// Source: one `poll_generate`, then flush and wait out `next_poll`.
    fn step_source(&mut self) -> Step {
        match self.w.core.generate(self.now()) {
            SourceStatus::Continue { next_poll } => {
                self.enqueue_emitted();
                let until = Instant::now() + Duration::from_secs_f64(next_poll.as_secs_f64());
                self.phase = Phase::Flush { after: After::Poll { until } };
                self.step_flush()
            }
            SourceStatus::Done => {
                self.enqueue_emitted();
                self.enter_finish(false);
                Step::Yield
            }
        }
    }

    /// Non-source: drain up to [`RECV_BATCH`] queued packets, mirroring
    /// the old per-packet loop body (stop flag, control messages, and
    /// timers run between packets).
    fn step_receive(&mut self) -> Step {
        let mut consumed = false;
        for _ in 0..RECV_BATCH {
            if self.w.run.stop.load(Ordering::Relaxed) {
                self.enter_finish(true);
                break;
            }
            self.drain_control();
            if self.finishing {
                break;
            }
            self.run_timers();
            let packet = match self.w.rx.try_recv() {
                Ok(queued) => queued.dequeued(),
                Err(TryRecvError::Empty) => {
                    self.wake_upstreams(consumed);
                    return self.wait();
                }
                Err(TryRecvError::Disconnected) => {
                    self.enter_finish(false);
                    break;
                }
            };
            if packet.is_eos() {
                self.eos_remaining = self.eos_remaining.saturating_sub(1);
                if self.eos_remaining == 0 {
                    self.enter_finish(false);
                    break;
                }
                continue;
            }
            consumed = true;
            let now = self.now();
            self.w.core.arrived(&packet, now);
            let total = self.w.core.process(packet, now).as_secs_f64();
            self.enqueue_emitted();
            if total > 0.0 {
                // Realize the service time in tick slices (next steps) so
                // the queue keeps being observed and a stop interrupts a
                // long service.
                self.phase = Phase::Service { remaining: total };
                break;
            }
            // Zero-cost packet: try to flush inline and keep draining;
            // park only if pacing or a full peer queue demands it.
            self.phase = Phase::Flush { after: After::Loop };
            match self.pump_outbox() {
                None => {
                    self.maybe_checkpoint(self.w.core.packets_in());
                    self.phase = Phase::Loop;
                }
                Some(step) => {
                    self.wake_upstreams(consumed);
                    return step;
                }
            }
        }
        self.wake_upstreams(consumed);
        Step::Yield
    }

    /// One tick-slice of modeled service time. The inline sleep is the
    /// point: it occupies this pool worker the way the stage would
    /// occupy its modeled core.
    fn step_service(&mut self) -> Step {
        let Phase::Service { remaining } = &mut self.phase else {
            unreachable!("step_service outside Service phase")
        };
        let slice = remaining.min(self.tick.as_secs_f64());
        if slice > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(slice));
            self.w.core.add_busy(SimDuration::from_secs_f64(slice));
        }
        let left = *remaining - slice;
        if left > 0.0 {
            self.phase = Phase::Service { remaining: left };
            return Step::Yield;
        }
        self.phase = Phase::Flush { after: After::Loop };
        Step::Yield
    }

    /// Pump the outbox; when it drains, move on per `after`.
    fn step_flush(&mut self) -> Step {
        match self.pump_outbox() {
            Some(step) => step,
            None => {
                let Phase::Flush { after } = self.phase else {
                    unreachable!("step_flush outside Flush phase")
                };
                match after {
                    After::Loop => {
                        self.maybe_checkpoint(self.w.core.packets_in());
                        self.phase = Phase::Loop;
                        Step::Yield
                    }
                    After::Poll { until } => {
                        self.maybe_checkpoint(self.w.core.packets_out());
                        self.phase = Phase::PollWait { until };
                        if Instant::now() >= until {
                            Step::Yield
                        } else {
                            self.park(until)
                        }
                    }
                    After::Finish => {
                        self.phase = Phase::Finish;
                        Step::Yield
                    }
                    After::Report => {
                        self.phase = Phase::Report;
                        Step::Done
                    }
                }
            }
        }
    }

    /// Clean end of stream: let the processor flush (`on_eos`), then
    /// queue one EOS marker per out-edge. A stopped run skips `on_eos`
    /// but still offers EOS to live receivers.
    fn step_finish(&mut self) -> Step {
        if !self.stopped && !self.is_source {
            self.w.core.eos(self.now());
            self.enqueue_emitted();
        }
        for port in 0..self.w.out.len() {
            self.outbox.push_back(Emit {
                port,
                packet: Packet::eos(u32::MAX, 0),
                // Markers are exempt from pacing.
                ready_at: Some(Instant::now()),
                final_marker: true,
            });
        }
        self.phase = Phase::Flush { after: After::Report };
        self.step_flush()
    }

    /// Queue everything the processor emitted, as the core routes it.
    fn enqueue_emitted(&mut self) {
        let outbox = &mut self.outbox;
        self.w.core.route_emitted(|port, packet| {
            outbox.push_back(Emit { port, packet, ready_at: None, final_marker: false });
        });
    }

    /// Drain the outbox head-first. Returns the step to take when the
    /// head must wait — a park for token-bucket pacing, a wait for room
    /// in a full queue — and `None` once empty. Once the run is
    /// stopped, pacing is skipped and every packet gets one last-gasp
    /// `try_send` (a failed non-marker counts as a drop) so shutdown
    /// never wedges on a full queue whose consumer already quit.
    fn pump_outbox(&mut self) -> Option<Step> {
        loop {
            let stop = self.stopped || self.w.run.stop.load(Ordering::Relaxed);
            let head = self.outbox.front_mut()?;
            if head.ready_at.is_none() {
                if stop {
                    head.ready_at = Some(Instant::now());
                } else {
                    let now = self.w.run.start.elapsed().as_secs_f64();
                    let wait = self.w.out[head.port].bucket.acquire(head.packet.wire_len(), now);
                    if wait > 0.0 {
                        self.bucket_waited += wait;
                        head.ready_at = Some(Instant::now() + Duration::from_secs_f64(wait));
                    } else {
                        head.ready_at = Some(Instant::now());
                    }
                }
            }
            let ready_at = head.ready_at.expect("pacing decided above");
            if !stop && ready_at > Instant::now() {
                return Some(self.park(ready_at));
            }
            let e = self.outbox.pop_front().expect("head exists");
            let port = &self.w.out[e.port];
            if stop {
                if port.tx.try_send(e.packet.into()).is_err() {
                    if !e.final_marker {
                        port.drops.fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    self.wake_port(e.port);
                }
                continue;
            }
            if port.blocking || e.final_marker {
                // Windowed semantics: wait for the receiver to make room.
                // The consumer wakes us once it has: a local stage after
                // draining its queue, a bridge's sender after taking from
                // it. Note the block on a bridge *before* retrying, so the
                // sender's next take cannot miss it.
                let sent = match (port.tx.try_send(e.packet.into()), &port.remote_wake) {
                    (Err(TrySendError::Full(queued)), Some(w)) => {
                        w.note_blocked();
                        ping_sender(w);
                        port.tx.try_send(queued)
                    }
                    (sent, _) => sent,
                };
                match sent {
                    Ok(()) => self.wake_port(e.port),
                    Err(TrySendError::Full(queued)) => {
                        self.outbox.push_front(Emit {
                            port: e.port,
                            packet: queued.packet,
                            ready_at: e.ready_at,
                            final_marker: e.final_marker,
                        });
                        return Some(self.wait());
                    }
                    // Receiver gone: the packet has nowhere to go.
                    Err(TrySendError::Disconnected(_)) => {}
                }
            } else {
                match port.tx.try_send(e.packet.into()) {
                    Ok(()) => self.wake_port(e.port),
                    Err(_) => {
                        port.drops.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Nudge the consumer behind out-edge `port`: a pool-local stage via
    /// the wake hub, or a reactor-driven remote sender via its ping.
    fn wake_port(&self, port: usize) {
        if let Some(key) = self.w.out[port].wake_key {
            self.w.run.hub.wake(key);
        }
        if let Some(w) = &self.w.out[port].remote_wake {
            ping_sender(w);
        }
    }

    /// After consuming input, nudge senders that may be parked on our
    /// previously-full queue.
    fn wake_upstreams(&self, consumed: bool) {
        if !consumed {
            return;
        }
        for key in self.w.upstream.iter().filter_map(|up| up.key) {
            self.w.run.hub.wake(key);
        }
    }

    /// Ship a state snapshot if the stage has checkpointing wired and
    /// has made `every` packets of progress since the last one.
    /// `progress` is packets consumed (or, for a source, produced); the
    /// checkpoint's seq adds it to the restored checkpoint's.
    /// The per-edge input cursors are sampled here, in stage-task
    /// context between packets, so they are a valid replay floor for
    /// the state in the same snapshot. A checkpoint that carries
    /// neither state nor cursors is skipped: a stateless, source-fed
    /// stage would only be restored to its initial state anyway.
    fn maybe_checkpoint(&mut self, progress: u64) {
        let Some(cfg) = &self.w.checkpoint else { return };
        if cfg.every == 0 || progress < self.last_ckpt + cfg.every {
            return;
        }
        self.last_ckpt = progress;
        let state = self.w.core.snapshot();
        let cursors = cfg.cursors.as_ref().map(|f| f()).unwrap_or_default();
        if !state.is_empty() || !cursors.is_empty() {
            let _ = cfg.tx.send((self.w.key, self.ckpt_base + progress, state, cursors));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates_net::{Directive, Ready, Source};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;

    /// Reports every service; wants nothing but (never-arriving) reads.
    struct Counting {
        sock: UnixStream,
        serviced: mpsc::Sender<()>,
    }
    impl Source for Counting {
        fn fd(&self) -> RawFd {
            self.sock.as_raw_fd()
        }
        fn service(&mut self, _ready: Ready, _now: Instant) -> Directive {
            let _ = self.serviced.send(());
            Directive::read()
        }
    }

    #[test]
    fn ping_before_install_is_not_lost() {
        let reactor = Reactor::spawn("wake-test").expect("spawn reactor");
        let (sock, _peer) = UnixStream::pair().expect("socket pair");
        let (tx, serviced) = mpsc::channel();
        let token = reactor.register(Box::new(Counting { sock, serviced: tx }));
        let patience = Duration::from_secs(5);
        serviced.recv_timeout(patience).expect("registration services the source once");

        // The start-up race: the source armed and parked, the stage
        // pinged, and only then did the handle learn where to send it.
        let wake = RemoteWake::new();
        wake.arm();
        wake.ping();
        wake.install(reactor.clone(), token);
        serviced.recv_timeout(patience).expect("the lost ping is made up on install");
        reactor.shutdown();
    }
}
