//! The worker side of the distributed runtime.
//!
//! A [`DistWorker`] is one OS process hosting a subset of the pipeline's
//! stages (the `gates-cli worker` subcommand is a thin wrapper around
//! it). It registers with the coordinator, receives the application XML
//! plus the full placement table, rebuilds the topology from its local
//! application repository, and runs its stages as the shared
//! [`StageTask`] activations — local edges stay in-process channels,
//! remote edges are bridged over TCP by reactor-driven sources that the
//! stage pool's own threads service between stage steps.
//!
//! During the run the worker heartbeats the coordinator, relays stage
//! checkpoints, and acts on `Reassign` broadcasts: placement rows naming
//! another worker just re-point the local senders' endpoint table (a
//! dead link re-dials the new address), while rows naming *this* worker
//! make it adopt the stage — fresh channels, fresh TCP in-edges for the
//! neighbors to re-dial, and a [`StageWorker`] restored from the stage's
//! last checkpoint, if any, whose own checkpoints count on from that
//! checkpoint's sequence.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use gates_core::report::StageReport;
use gates_core::trace::{LinkEvent, LinkEventKind, NullRecorder, Recorder, TraceEvent};
use gates_core::{Packet, ShardMap, ShardRouter, StageId, Topology};
use gates_grid::{AppConfig, ApplicationRepository};
use gates_net::{
    connect_with_retry, crc32, AckWindow, BufferPool, FlowControl, FrameStream, LinkSpec,
    ReactorPool, RetryPolicy,
};
use gates_sim::{SimDuration, SimTime};

use super::plane::{
    CtrlEvent, CtrlHandle, ListenerSource, NotifyList, OutEdge, PlaneCtx, SenderConn, SenderCtx,
};
use super::proto::{encode_ctrl, CheckpointEntry, CtrlMsg};
use super::{read_ctrl, DistConfig};
use crate::executor::{CorePool, TaskHandle, WakeHub};
use crate::options::RunOptions;
use crate::runtime::{
    CheckpointCfg, Control, CursorProbe, EdgeCredit, OutPort, Queued, StageTask, StageWorker,
};
use crate::stage_core::{ShardScaling, StageCore};
use crate::EngineError;

/// Stable per-process seed for reconnect jitter when no fault plan (and
/// therefore no explicit seed) was configured: derived from the worker's
/// name so two workers never share a jitter sequence.
fn name_seed(name: &str) -> u64 {
    name.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

/// The shared, growable in-edge registry: failover registers new entries
/// mid-run when this worker adopts a stage.
pub(super) type InEdgeRegistry = Arc<RwLock<HashMap<u32, Arc<InEdge>>>>;

/// Worker-global at-least-once delivery counters. One instance per
/// worker process, cloned into every in-edge and remote sender; the
/// totals ride in the final `Report` control message, so the
/// coordinator aggregates exact counts without needing the trace plane.
#[derive(Clone, Default)]
pub(super) struct DeliveryStats {
    /// Frames given up for good: redial-exhaustion drains, unacked
    /// tails on permanently dead links, and receiver-side skip gaps.
    pub(super) lost: Arc<AtomicU64>,
    /// Frames re-transmitted from a replay window (reconnect replay
    /// and NAK-driven gap repair).
    pub(super) replayed: Arc<AtomicU64>,
    /// Duplicate frames discarded by receiver-side sequence dedup.
    pub(super) deduped: Arc<AtomicU64>,
    /// Microseconds sending stages spent parked on a full credit
    /// window (the visible cost of credit-based backpressure).
    pub(super) stalled_us: Arc<AtomicU64>,
}

/// How long a worker waits for the coordinator's next handshake message
/// (assignment, start) before giving up.
const HANDSHAKE_PATIENCE: Duration = Duration::from_secs(120);

/// One worker process of the distributed runtime. Build with
/// [`DistWorker::new`], tune the advertised node properties with the
/// builder methods, then call [`DistWorker::run`] — it blocks until the
/// run completes (or the coordinator disappears).
pub struct DistWorker {
    name: String,
    coordinator: String,
    bind_host: String,
    site: Option<String>,
    speed: f64,
    capacity: u32,
    cores: usize,
    reactors: usize,
}

impl DistWorker {
    /// A worker named `name` that registers with the coordinator at
    /// `coordinator` (`host:port`). Defaults: loopback data listener,
    /// no site affinity, speed 1.0, capacity 4.
    pub fn new(name: impl Into<String>, coordinator: impl Into<String>) -> Self {
        DistWorker {
            name: name.into(),
            coordinator: coordinator.into(),
            bind_host: "127.0.0.1".into(),
            site: None,
            speed: 1.0,
            capacity: 4,
            cores: 0,
            reactors: 1,
        }
    }

    /// Builder: how many of the executor pool's threads also drive this
    /// worker's sockets (data in-edges, per-edge senders, and the
    /// control link), at most [`DistWorker::cores`]. One drives every
    /// connection of a typical worker, on the same thread as the stages
    /// it feeds; raise it only when a single core cannot keep up with
    /// the socket fan-in. `0` selects the default of one.
    pub fn reactors(mut self, n: usize) -> Self {
        self.reactors = n.max(1);
        self
    }

    /// Builder: executor pool size ("modeled cores") this worker hosts
    /// its stages on; `0` selects the machine's available parallelism.
    /// Worker-local — heterogeneous pools across a deployment are fine.
    pub fn cores(mut self, n: usize) -> Self {
        self.cores = n;
        self
    }

    /// Builder: the placement-site label this worker advertises.
    pub fn site(mut self, site: impl Into<String>) -> Self {
        self.site = Some(site.into());
        self
    }

    /// Builder: the CPU speed factor this worker advertises.
    pub fn speed(mut self, factor: f64) -> Self {
        self.speed = factor;
        self
    }

    /// Builder: how many stages this worker will host.
    pub fn capacity(mut self, stages: u32) -> Self {
        self.capacity = stages;
        self
    }

    /// Builder: the host/interface the data listener binds to.
    pub fn bind_host(mut self, host: impl Into<String>) -> Self {
        self.bind_host = host.into();
        self
    }

    /// Register, receive an assignment, run the assigned stages, report.
    ///
    /// `repo` must contain the application named in the coordinator's
    /// XML — every process in a distributed run builds the topology from
    /// the same configuration, which is how stage *code* reaches workers
    /// without shipping binaries (the paper's application repositories).
    pub fn run(self, repo: &ApplicationRepository) -> Result<(), EngineError> {
        // --- register -------------------------------------------------
        let listener = TcpListener::bind((self.bind_host.as_str(), 0u16))
            .map_err(|e| EngineError::Transport(format!("bind data listener: {e}")))?;
        let data_addr =
            listener.local_addr().map_err(|e| EngineError::Transport(e.to_string()))?.to_string();

        // Workers are often launched before the coordinator: be patient.
        let register_policy = RetryPolicy {
            max_attempts: 30,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(1),
        };
        let coord = resolve(&self.coordinator)?;
        let socket = connect_with_retry(coord, Duration::from_secs(2), &register_policy, |_, _| {})
            .map_err(|e| EngineError::Transport(format!("connect to coordinator: {e}")))?;
        let mut ctrl = FrameStream::new(socket);
        ctrl.set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| EngineError::Transport(e.to_string()))?;
        ctrl.send(&encode_ctrl(&CtrlMsg::Hello {
            name: self.name.clone(),
            data_addr: data_addr.clone(),
            site: self.site.clone(),
            speed: self.speed,
            capacity: self.capacity,
        }))
        .map_err(|e| EngineError::Transport(format!("send hello: {e}")))?;

        // --- receive the deployment ----------------------------------
        let deadline = Instant::now() + HANDSHAKE_PATIENCE;
        let assign = loop {
            match read_ctrl(&mut ctrl, deadline, "assignment")? {
                CtrlMsg::Assign(a) => break a,
                CtrlMsg::Stop => return Ok(()),
                CtrlMsg::Reject { reason } => {
                    return Err(EngineError::Protocol(format!(
                        "coordinator rejected registration: {reason}"
                    )))
                }
                _ => {}
            }
        };
        let cfg = assign.config.clone();

        let app = AppConfig::from_xml(&assign.app_xml)
            .map_err(|e| EngineError::Protocol(format!("bad application config: {e}")))?;
        let mut topology = repo
            .build(&app)
            .map_err(|e| EngineError::Protocol(format!("build application: {e}")))?;
        // Override application must mirror the coordinator's exactly:
        // stage indices, edge ids, placement rows and per-stage policies
        // are all expressed against the expanded graph. The policy rides
        // in the Assign's XML, so both sides read the same declaration.
        app.apply_overrides(&mut topology)
            .map_err(|e| EngineError::Protocol(format!("apply stage overrides: {e}")))?;
        let topology = topology;
        topology.validate().map_err(|e| EngineError::InvalidTopology(e.to_string()))?;
        let n = topology.stages().len();
        if assign.placements.len() != n {
            return Err(EngineError::Protocol(format!(
                "placement table has {} rows for {n} stages",
                assign.placements.len()
            )));
        }
        let mut worker_of = vec![String::new(); n];
        let mut endpoint_vec = vec![String::new(); n];
        let mut speed_of = vec![1.0f64; n];
        for p in &assign.placements {
            let i = p.stage as usize;
            if i >= n {
                return Err(EngineError::Protocol(format!("placement for unknown stage {i}")));
            }
            worker_of[i] = p.worker.clone();
            endpoint_vec[i] = p.endpoint.clone();
            speed_of[i] = p.speed;
        }
        let mut is_mine = vec![false; n];
        for &s in &assign.my_stages {
            let i = s as usize;
            if i >= n {
                return Err(EngineError::Protocol(format!("assigned unknown stage {s}")));
            }
            is_mine[i] = true;
        }

        let (trace_tx, trace_rx) = unbounded::<TraceEvent>();
        let recorder: Arc<dyn Recorder> = if assign.trace {
            Arc::new(ChannelRecorder { tx: trace_tx })
        } else {
            drop(trace_tx);
            Arc::new(NullRecorder)
        };
        let opts = RunOptions::default()
            .observe_every(SimDuration::from_micros(assign.observe_us))
            .adapt_every(SimDuration::from_micros(assign.adapt_us))
            .control_latency(SimDuration::from_micros(assign.control_latency_us))
            .max_time(SimTime::from_micros(assign.max_time_us))
            .recorder(Arc::clone(&recorder))
            .cores(self.cores);
        opts.validate()?;

        // Executor pool hosting every stage this worker runs, including
        // any it adopts through failover later. The pool size is
        // worker-local (not on the wire): heterogeneous deployments are
        // expected. Dropping the pool joins its threads and drops every
        // socket registered on them, so every early return below cleans
        // up.
        let pool = CorePool::new(opts.effective_cores());
        let hub = pool.hub();

        // Every socket this worker owns lives on the reactors of the
        // first `reactors` pool threads: a stage, the sockets it feeds
        // and the acks it returns share a thread.
        let driving = self.reactors.min(pool.reactors().len());
        let reactors = Arc::new(ReactorPool::new(pool.reactors()[..driving].to_vec()));
        // Recycled read buffers shared by every data in-edge; steady
        // state reads allocate nothing per packet.
        let buffers = BufferPool::default();
        // Wake handles of every registered source, nudged on stop and
        // partition flips.
        let notify = NotifyList::default();

        // --- wire the data plane -------------------------------------
        let stop = Arc::new(AtomicBool::new(false));
        let start = Instant::now();
        // Observed-time source for trace timestamps; scheduling stays on
        // `start` (see [`crate::clock::EngineClock`]).
        let clock = opts.run_clock();
        // Link events name this worker; each link names itself.
        let reporter = LinkReporter {
            recorder: Arc::clone(&recorder),
            clock: Arc::clone(&clock),
            link: String::new(),
            node: self.name.clone(),
        };
        // True while this worker is inside an injected network partition:
        // senders stop flushing, the accept loop refuses connections,
        // readers drop their sockets, and heartbeats stay home.
        let partitioned = Arc::new(AtomicBool::new(false));
        // Seed for reconnect-backoff jitter (and, when a fault plan is
        // present, the plan's seed so the whole run replays from one
        // number).
        let jitter_root =
            cfg.fault.as_ref().map(|f| f.seed).unwrap_or_else(|| name_seed(&self.name));
        // Stage snapshots (state + per-edge input cursors) funnel
        // through this channel into the main loop, which relays them to
        // the coordinator as checkpoints.
        let (ckpt_tx, ckpt_rx) = unbounded::<(u32, u64, Vec<u8>, Vec<(u32, u64)>)>();
        // At-least-once delivery totals for this process.
        let delivery = DeliveryStats::default();
        // Replica scale-out signals (`(group, ordinal, split)`) follow
        // the same path: a replica whose d̃ left [LT1, LT2] asks the
        // coordinator to split or merge its key range, and the
        // coordinator answers with a `ShardUpdate` broadcast.
        let (shard_tx, shard_rx) = unbounded::<(u32, u32, bool)>();

        let mut data_tx: HashMap<usize, Sender<Queued>> = HashMap::new();
        let mut data_rx: HashMap<usize, Receiver<Queued>> = HashMap::new();
        let mut ctl_tx: HashMap<usize, Sender<Control>> = HashMap::new();
        let mut ctl_rx: HashMap<usize, Receiver<Control>> = HashMap::new();
        let mut drops: HashMap<usize, Arc<AtomicU64>> = HashMap::new();
        for (i, stage) in topology.stages().iter().enumerate() {
            if !is_mine[i] {
                continue;
            }
            let (tx, rx) = bounded(stage.queue_capacity);
            data_tx.insert(i, tx);
            data_rx.insert(i, rx);
            let (ctx, crx) = unbounded::<Control>();
            ctl_tx.insert(i, ctx);
            ctl_rx.insert(i, crx);
            drops.insert(i, Arc::new(AtomicU64::new(0)));
        }

        // Every remote out-edge's sender lives on a pool reactor. The
        // context they share holds `done_tx`, so shutdown can wait for
        // the last sender to end.
        let (done_tx, done_rx) = bounded::<()>(0);
        let out_edges = OutEdges {
            topology: &topology,
            reporter: reporter.clone(),
            ctx: Arc::new(SenderCtx {
                endpoints: RwLock::new(endpoint_vec),
                cfg: cfg.clone(),
                jitter_root,
                partitioned: Arc::clone(&partitioned),
                stop: Arc::clone(&stop),
                reactors: Arc::clone(&reactors),
                notify: notify.clone(),
                hub: Arc::clone(&hub),
                stats: delivery.clone(),
                _done: done_tx,
            }),
        };
        let mut remote_out: HashMap<usize, OutPort> = HashMap::new();
        let mut remote_exc: HashMap<usize, Sender<Control>> = HashMap::new();
        let mut in_edge_reg: HashMap<u32, Arc<InEdge>> = HashMap::new();
        for (ei, edge) in topology.edges().iter().enumerate() {
            let from = edge.from.index();
            let to = edge.to.index();
            match (is_mine[from], is_mine[to]) {
                (true, false) => {
                    // Outgoing remote edge: the stage writes into a
                    // bounded bridge channel drained by a reactor-driven
                    // sender, which starts dialing now.
                    let port = out_edges.open(ei, &drops[&from], ctl_tx[&from].clone(), 0);
                    remote_out.insert(ei, port);
                }
                (false, true) => {
                    let (ie, etx) = InEdge::new(
                        data_tx[&to].clone(),
                        Arc::clone(&drops[&to]),
                        (Arc::clone(&hub), to as u32),
                        edge.link.flow == FlowControl::Blocking,
                        shard_guard(&topology, to, &data_tx),
                        reporter.on(edge_name(&topology, ei)),
                        delivery.clone(),
                        0,
                        0,
                    );
                    remote_exc.insert(ei, etx);
                    in_edge_reg.insert(ei as u32, ie);
                }
                _ => {}
            }
        }
        let in_edge_reg: InEdgeRegistry = Arc::new(RwLock::new(in_edge_reg));

        // The data listener and every connection it accepts live on the
        // reactor pool; there is no accept thread to wake at shutdown.
        {
            let ctx = PlaneCtx {
                reg: Arc::clone(&in_edge_reg),
                stop: Arc::clone(&stop),
                partitioned: Arc::clone(&partitioned),
                cfg: cfg.clone(),
                buffers: buffers.clone(),
                reactors: Arc::clone(&reactors),
                notify: notify.clone(),
            };
            let reactor = reactors.pick();
            let token = reactor.register(Box::new(ListenerSource::new(listener, ctx)));
            notify.add(reactor, token);
        }

        // --- ready / start -------------------------------------------
        ctrl.send(&encode_ctrl(&CtrlMsg::Ready { name: self.name.clone() }))
            .map_err(|e| EngineError::Transport(format!("send ready: {e}")))?;
        let deadline = Instant::now() + HANDSHAKE_PATIENCE;
        loop {
            match read_ctrl(&mut ctrl, deadline, "start")? {
                CtrlMsg::Start => break,
                CtrlMsg::Stop => {
                    stop.store(true, Ordering::Relaxed);
                    return Ok(());
                }
                _ => {}
            }
        }

        // Injected partition: the main loop flips the shared flag for
        // the configured window. Only the named worker partitions;
        // everyone else just observes its silence.
        let mut partition = cfg
            .fault
            .as_ref()
            .and_then(|f| f.partition.clone())
            .filter(|spec| spec.node == self.name)
            .map(|spec| PartitionWindow {
                next: Some(Instant::now() + spec.at),
                lasts: spec.duration,
                reporter: reporter.on("partition"),
            });
        // Control-plane chaos starts only now: the handshake above must
        // stay reliable or no run would ever assemble.
        let ctrl_faults = reporter.on("ctrl");
        if let Some(plan) = cfg.fault.as_ref().filter(|f| f.ctrl) {
            ctrl.set_fault_injector(Some(plan.injector_for_control(name_seed(&self.name))));
        }
        // From here on the control socket lives on a reactor: the main
        // loop queues frames through the handle and consumes decoded
        // messages (and injector records) as events.
        let (ev_tx, ev_rx) = unbounded::<CtrlEvent>();
        let ctrl_handle =
            CtrlHandle::register(reactors.pick(), ctrl, ev_tx, Arc::clone(&partitioned), &notify);

        // --- run the assigned stages ---------------------------------
        let mut handles = Vec::new();
        for i in 0..n {
            if !is_mine[i] {
                continue;
            }
            let id = StageId::from_index(i);
            let mut out = Vec::new();
            for ei in topology.out_edges(id) {
                let edge = &topology.edges()[ei];
                let to = edge.to.index();
                if is_mine[to] {
                    out.push(OutPort {
                        tx: data_tx[&to].clone(),
                        bucket: OutPort::bucket_for(edge.link.bandwidth.as_bytes_per_sec()),
                        blocking: edge.link.flow == FlowControl::Blocking,
                        drops: Arc::clone(&drops[&to]),
                        wake_key: Some(to as u32),
                        remote_wake: None,
                    });
                } else {
                    out.push(remote_out.remove(&ei).expect("remote out-edge wired above"));
                }
            }
            let mut upstream_ctl = Vec::new();
            let mut upstream_keys = Vec::new();
            for ei in topology.in_edges(id) {
                let from = topology.edges()[ei].from.index();
                if is_mine[from] {
                    upstream_ctl.push(ctl_tx[&from].clone());
                    // Local producer: consuming from our queue may
                    // unblock its send retry, so wake it.
                    upstream_keys.push(from as u32);
                } else {
                    upstream_ctl.push(remote_exc[&ei].clone());
                }
            }
            let in_edges = topology.in_edges(id).len();
            let remote_in: Vec<u32> = topology
                .in_edges(id)
                .into_iter()
                .filter(|&ei| !is_mine[topology.edges()[ei].from.index()])
                .map(|ei| ei as u32)
                .collect();
            let worker = StageWorker {
                core: StageCore::new(
                    &topology,
                    id,
                    worker_of[i].clone(),
                    speed_of[i],
                    ShardScaling::Request(shard_tx.clone()),
                    &opts,
                ),
                rx: data_rx[&i].clone(),
                ctl: ctl_rx[&i].clone(),
                out,
                upstream_ctl,
                in_edges,
                my_drops: Arc::clone(&drops[&i]),
                opts: opts.clone(),
                start,
                clock: Arc::clone(&clock),
                stop: Arc::clone(&stop),
                checkpoint: (cfg.checkpoint_every > 0).then(|| CheckpointCfg {
                    stage: i as u32,
                    every: cfg.checkpoint_every,
                    tx: ckpt_tx.clone(),
                    cursors: cursor_probe(remote_in, &in_edge_reg),
                }),
                restore: None,
                hub: Arc::clone(&hub),
                upstream_keys,
            };
            handles.push(pool.spawn(Box::new(StageTask::new(worker)), i as u32));
        }
        // As in the threaded engine, drop local clones so channels
        // disconnect when their peers finish. The in-edge registry
        // legitimately keeps `data_tx` clones alive (reconnects need
        // them); EOS counting, not disconnection, ends a stage with
        // remote inputs.
        drop(data_tx);
        drop(data_rx);
        drop(ctl_rx);
        drop(remote_out);
        drop(remote_exc);
        let mut stage_ctl: Vec<Sender<Control>> = ctl_tx.values().cloned().collect();
        drop(ctl_tx);

        // --- main loop: trace/heartbeat/checkpoint relay + control ---
        // It laps at least every 10 ms, and each lap also runs the
        // partition window, the run budget and the drain backstop, and
        // polls the stages (original and adopted alike) for completion.
        let run_end = Instant::now() + Duration::from_secs_f64(opts.max_time.as_secs_f64());
        let mut backstop = DrainBackstop { window: cfg.drain_window, unsent: Vec::new() };
        let mut coordinator_gone = false;
        let mut last_heartbeat = Instant::now();
        let mut last_epoch = 0u64;
        loop {
            if let Some(p) = partition.as_mut() {
                p.lap(stop.load(Ordering::Relaxed), &partitioned, &notify);
            }
            // The budget ends the run, and so does losing the
            // coordinator: an orphaned worker must not run unbounded.
            if coordinator_gone || Instant::now() >= run_end {
                stop_stages(&stop, &stage_ctl);
            }
            backstop.lap(&in_edge_reg, stop.load(Ordering::Relaxed));
            let cut = partitioned.load(Ordering::Relaxed);
            // All trace events ready this lap coalesce into one write.
            while let Ok(event) = trace_rx.try_recv() {
                if !coordinator_gone {
                    ctrl_handle.queue(encode_ctrl(&CtrlMsg::Trace(event)));
                }
            }
            while let Ok((group, ordinal, split)) = shard_rx.try_recv() {
                if !coordinator_gone {
                    ctrl_handle.queue(encode_ctrl(&CtrlMsg::ShardRequest {
                        group,
                        ordinal,
                        split,
                    }));
                }
            }
            while let Ok((stage, seq, state, cursors)) = ckpt_rx.try_recv() {
                // Durable floors advance regardless of coordinator
                // health: receivers advertise them upstream as durable
                // acks, which is what lets senders trim replay
                // retention.
                {
                    let reg = in_edge_reg.read().unwrap_or_else(|p| p.into_inner());
                    for &(edge, cur) in &cursors {
                        if let Some(ie) = reg.get(&edge) {
                            ie.durable.fetch_max(cur, Ordering::AcqRel);
                        }
                    }
                }
                if !coordinator_gone {
                    // The CRC travels with the snapshot so the
                    // coordinator (and any adopting worker) can tell a
                    // chaos-corrupted checkpoint from a real one.
                    let crc = crc32(&state);
                    ctrl_handle.queue(encode_ctrl(&CtrlMsg::Checkpoint {
                        stage,
                        seq,
                        crc,
                        state,
                        cursors,
                    }));
                }
            }
            if !coordinator_gone
                && !cut
                && !cfg.heartbeat_interval.is_zero()
                && last_heartbeat.elapsed() >= cfg.heartbeat_interval
            {
                last_heartbeat = Instant::now();
                ctrl_handle.queue(encode_ctrl(&CtrlMsg::Heartbeat { name: self.name.clone() }));
            }
            // A partitioned worker goes silent: nothing flushes and
            // nothing is read until the window heals. Queued frames just
            // accumulate and land afterwards, the final report included,
            // so the loop does not end mid-window. An orphaned worker has
            // nothing left to read: it waits for its stopped stages.
            if cut || coordinator_gone {
                if !cut && handles.iter().all(TaskHandle::is_finished) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            // Hand freshly queued frames to the reactor for writing.
            ctrl_handle.kick();
            // Drain control-plane events from the reactor: wait briefly
            // for the first so the loop does not spin, then sweep
            // whatever else arrived in the same lap.
            let mut events = Vec::new();
            match ev_rx.recv_timeout(Duration::from_millis(10)) {
                Ok(ev) => events.push(ev),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => coordinator_gone = true,
            }
            while let Ok(ev) = ev_rx.try_recv() {
                events.push(ev);
            }
            for ev in events {
                match ev {
                    CtrlEvent::Gone => coordinator_gone = true,
                    CtrlEvent::Fault(af) => ctrl_faults.record(
                        LinkEventKind::FaultInjected,
                        format!("ctrl frame {}: {}", af.index, af.fate.name()),
                    ),
                    CtrlEvent::Msg(CtrlMsg::Stop) => stop_stages(&stop, &stage_ctl),
                    CtrlEvent::Msg(CtrlMsg::ShardUpdate { group, epoch, map }) => {
                        // Key-range authority lives with the coordinator;
                        // workers install its broadcasts epoch-guarded,
                        // so a duplicated or reordered frame can never
                        // roll a shard map backwards. Every local sender
                        // and in-edge guard shares the group's router
                        // through the topology, so one install re-routes
                        // all of them at once.
                        match ShardMap::decode(&map) {
                            Ok(m) => match topology.groups().get(group as usize) {
                                Some(g) => {
                                    if !g.router.install(epoch, m) {
                                        ctrl_faults.record(
                                            LinkEventKind::StaleDiscarded,
                                            format!(
                                                "shard map epoch {epoch} for group {group} \
                                                 not newer than installed"
                                            ),
                                        );
                                    }
                                }
                                None => ctrl_faults.record(
                                    LinkEventKind::StaleDiscarded,
                                    format!("shard update for unknown group {group}"),
                                ),
                            },
                            Err(e) => ctrl_faults.record(
                                LinkEventKind::StaleDiscarded,
                                format!("shard map for group {group} undecodable: {e}"),
                            ),
                        }
                    }
                    CtrlEvent::Msg(CtrlMsg::Reassign { epoch, placements: rows, checkpoints }) => {
                        // Idempotency: a duplicated or reordered
                        // broadcast (chaos dup, or a late frame after a
                        // newer failover) must not re-adopt stages or
                        // roll the endpoint table backwards.
                        if epoch <= last_epoch {
                            ctrl_faults.record(
                                LinkEventKind::StaleDiscarded,
                                format!("reassign epoch {epoch} <= applied {last_epoch}"),
                            );
                            continue;
                        }
                        last_epoch = epoch;
                        let ckpt_by_stage: HashMap<u32, CheckpointEntry> = checkpoints
                            .into_iter()
                            .map(|(s, q, crc, st, cur)| (s, (q, crc, st, cur)))
                            .collect();
                        // Re-point the shared endpoint table first: it
                        // wakes the senders aimed at a moved stage, and
                        // a down one re-dials the new address at once.
                        for row in &rows {
                            let i = row.stage as usize;
                            if i >= n {
                                continue;
                            }
                            out_edges.ctx.set_endpoint(i, row.endpoint.clone());
                            worker_of[i] = row.worker.clone();
                            speed_of[i] = row.speed;
                        }
                        for row in &rows {
                            let i = row.stage as usize;
                            if i >= n || row.worker != self.name || is_mine[i] {
                                continue;
                            }
                            // Adopt the stage: fresh channels, TCP
                            // in-edges for the neighbors (and this
                            // process's own senders) to re-dial, fresh
                            // senders for its outputs, and a StageWorker
                            // restored from the last checkpoint.
                            is_mine[i] = true;
                            let stage = &topology.stages()[i];
                            let id = StageId::from_index(i);
                            let (dtx, drx) = bounded(stage.queue_capacity);
                            let (ctx, crx) = unbounded::<Control>();
                            let my_drops = Arc::new(AtomicU64::new(0));
                            // Per-edge input cursors from the stage's
                            // last checkpoint. They install regardless
                            // of the *state* CRC below: cursors ride
                            // the control frame (whose own CRC guards
                            // transit), and seeding them into the fresh
                            // in-edges is what scopes the original
                            // senders' replay to the unprocessed tail.
                            let restored_cursors: HashMap<u32, u64> = ckpt_by_stage
                                .get(&(i as u32))
                                .map(|(_, _, _, cur)| cur.iter().copied().collect())
                                .unwrap_or_default();
                            let mut upstream_ctl = Vec::new();
                            for ei in topology.in_edges(id) {
                                let edge = &topology.edges()[ei];
                                let (ie, etx) = InEdge::new(
                                    dtx.clone(),
                                    Arc::clone(&my_drops),
                                    (Arc::clone(&hub), i as u32),
                                    edge.link.flow == FlowControl::Blocking,
                                    // An adopted replica has no pool-local
                                    // siblings to re-route to; its guard
                                    // rejects instead.
                                    shard_guard(&topology, i, &HashMap::new()),
                                    reporter.on(edge_name(&topology, ei)),
                                    delivery.clone(),
                                    restored_cursors.get(&(ei as u32)).copied().unwrap_or(0),
                                    epoch,
                                );
                                upstream_ctl.push(etx);
                                in_edge_reg
                                    .write()
                                    .unwrap_or_else(|p| p.into_inner())
                                    .insert(ei as u32, ie);
                            }
                            // All adopted outputs go out over TCP, in a
                            // fresh sequence space: receivers see the
                            // epoch in the hello and restart their cursors.
                            let out = topology
                                .out_edges(id)
                                .into_iter()
                                .map(|ei| out_edges.open(ei, &my_drops, ctx.clone(), epoch))
                                .collect();
                            // A checkpoint only counts if its bytes still
                            // match the CRC taken at snapshot time; a
                            // corrupted one restarts the stage fresh
                            // rather than restoring garbage.
                            let ckpt =
                                ckpt_by_stage.get(&(i as u32)).and_then(|(seq, crc, state, _)| {
                                    if crc32(state) == *crc {
                                        Some((*seq, state))
                                    } else {
                                        ctrl_faults.record(
                                            LinkEventKind::CheckpointCorrupt,
                                            format!(
                                                "stage {} checkpoint seq {seq} failed CRC; restarting fresh",
                                                stage.name
                                            ),
                                        );
                                        None
                                    }
                                });
                            reporter.on(stage.name.clone()).record(
                                LinkEventKind::Restored,
                                match &ckpt {
                                    Some((seq, _)) => format!("resumed from checkpoint seq {seq}"),
                                    None => "restarted fresh (no checkpoint)".into(),
                                },
                            );
                            let worker = StageWorker {
                                core: StageCore::new(
                                    &topology,
                                    id,
                                    self.name.clone(),
                                    speed_of[i],
                                    ShardScaling::Request(shard_tx.clone()),
                                    &opts,
                                ),
                                rx: drx,
                                ctl: crx,
                                out,
                                upstream_ctl,
                                in_edges: topology.in_edges(id).len(),
                                my_drops,
                                opts: opts.clone(),
                                start,
                                clock: Arc::clone(&clock),
                                stop: Arc::clone(&stop),
                                checkpoint: (cfg.checkpoint_every > 0).then(|| CheckpointCfg {
                                    stage: i as u32,
                                    every: cfg.checkpoint_every,
                                    tx: ckpt_tx.clone(),
                                    // Every in-edge of an adopted stage
                                    // is remote (all inputs re-dial
                                    // over TCP).
                                    cursors: cursor_probe(
                                        topology
                                            .in_edges(id)
                                            .into_iter()
                                            .map(|ei| ei as u32)
                                            .collect(),
                                        &in_edge_reg,
                                    ),
                                }),
                                restore: ckpt.map(|(seq, state)| (seq, state.clone())),
                                hub: Arc::clone(&hub),
                                // An adopted stage's producers re-dial
                                // over TCP; packets land via `InEdge`,
                                // which wakes this stage itself. There
                                // are no pool-local producers to nudge.
                                upstream_keys: Vec::new(),
                            };
                            stage_ctl.push(ctx);
                            handles.push(pool.spawn(Box::new(StageTask::new(worker)), i as u32));
                        }
                    }
                    CtrlEvent::Msg(_) => {}
                }
            }
            if handles.iter().all(TaskHandle::is_finished) {
                break;
            }
        }
        let reports: Vec<StageReport> =
            handles.into_iter().map(|h| h.join().unwrap_or_default()).collect();

        // --- shutdown ------------------------------------------------
        stop.store(true, Ordering::Relaxed);
        // Every parked reactor source re-checks the stop flag on the
        // next wakeup; this makes that wakeup immediate.
        notify.notify_all();
        // Senders flush queued frames (end-of-stream markers included)
        // within their stop grace; each drops its `done` handle as it
        // ends, so this returns the moment the last one does.
        drop(out_edges);
        let _ = done_rx.recv();
        // The final report is the one control exchange chaos must not
        // touch: a dropped or mangled report would turn every chaos run
        // into a partial one. Injection ends here by design.
        if !coordinator_gone {
            for af in ctrl_handle.disarm_faults(Duration::from_secs(1)) {
                ctrl_faults.record(
                    LinkEventKind::FaultInjected,
                    format!("ctrl frame {}: {}", af.index, af.fate.name()),
                );
            }
        }
        while let Ok(event) = trace_rx.try_recv() {
            if !coordinator_gone {
                ctrl_handle.queue(encode_ctrl(&CtrlMsg::Trace(event)));
            }
        }
        if !coordinator_gone {
            ctrl_handle.queue(encode_ctrl(&CtrlMsg::Report {
                worker: self.name.clone(),
                stages: reports,
                lost: delivery.lost.load(Ordering::Relaxed),
                replayed: delivery.replayed.load(Ordering::Relaxed),
                deduped: delivery.deduped.load(Ordering::Relaxed),
                stalled_us: delivery.stalled_us.load(Ordering::Relaxed),
            }));
            if !ctrl_handle.flush_sync(Duration::from_secs(5)) {
                coordinator_gone = true;
            }
        }
        // The control link and the data-plane sources (listener,
        // in-edges) live on the pool's threads: they close with it, now
        // that the report is out. All stages have reported by now.
        pool.shutdown();
        if coordinator_gone {
            return Err(EngineError::Transport("coordinator connection lost".into()));
        }
        Ok(())
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, EngineError> {
    addr.to_socket_addrs()
        .map_err(|e| EngineError::Transport(format!("resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| EngineError::Transport(format!("no address for {addr}")))
}

/// Recorder that forwards every event into a channel; the worker's main
/// loop relays them to the coordinator as `Trace` control messages.
pub(super) struct ChannelRecorder {
    pub(super) tx: Sender<TraceEvent>,
}

impl Recorder for ChannelRecorder {
    fn enabled(&self) -> bool {
        true
    }
    fn record(&self, event: TraceEvent) {
        let _ = self.tx.send(event);
    }
}

/// Emits [`LinkEvent`]s for one remote edge from one process's view.
#[derive(Clone)]
pub(super) struct LinkReporter {
    pub(super) recorder: Arc<dyn Recorder>,
    pub(super) clock: Arc<dyn crate::clock::EngineClock>,
    pub(super) link: String,
    pub(super) node: String,
}

impl LinkReporter {
    /// The same recorder, clock and node, reporting on `link`.
    fn on(&self, link: impl Into<String>) -> LinkReporter {
        LinkReporter { link: link.into(), ..self.clone() }
    }

    pub(super) fn record(&self, kind: LinkEventKind, detail: impl Into<String>) {
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::Link(LinkEvent {
                t: self.clock.now_secs(),
                link: self.link.clone(),
                node: self.node.clone(),
                kind,
                detail: detail.into(),
            }));
        }
    }
}

/// The flight-recorder name of edge `ei`: `from->to` stage names.
fn edge_name(topology: &Topology, ei: usize) -> String {
    let edge = &topology.edges()[ei];
    let stages = topology.stages();
    format!("{}->{}", stages[edge.from.index()].name, stages[edge.to.index()].name)
}

/// Shard identity of a receiving replica, carried by its in-edges so
/// the in-edge sources can verify ownership of every delivered key.
pub(super) struct InShard {
    /// The replica group's shared router (the receiver's current view).
    pub(super) router: Arc<ShardRouter>,
    /// This replica's ordinal within the group.
    pub(super) ordinal: u32,
    /// Input queues of same-group replicas hosted in this process,
    /// keyed by ordinal — the local re-route targets for packets a
    /// stale-mapped sender aimed at the wrong shard.
    pub(super) siblings: HashMap<u32, (Sender<Queued>, u32)>,
}

/// Build the [`InShard`] guard for packets arriving at stage index
/// `stage`, when that stage is a replica. `local_tx` holds the input
/// queues of locally hosted stages (re-route targets); pass an empty map
/// for a reject-only guard.
fn shard_guard(
    topology: &Topology,
    stage: usize,
    local_tx: &HashMap<usize, Sender<Queued>>,
) -> Option<InShard> {
    let (gi, ordinal) = topology.replica_of(StageId::from_index(stage))?;
    let group = &topology.groups()[gi];
    let mut siblings = HashMap::new();
    for (k, m) in group.members.iter().enumerate() {
        if k != ordinal {
            if let Some(tx) = local_tx.get(&m.index()) {
                siblings.insert(k as u32, (tx.clone(), m.index() as u32));
            }
        }
    }
    Some(InShard { router: Arc::clone(&group.router), ordinal: ordinal as u32, siblings })
}

/// Build the per-stage checkpoint cursor sampler: for each remote
/// in-edge, the highest input sequence the stage has *consumed* (taken
/// off its queue, so processed by the time the sampler runs between
/// packets). Stages with no remote inputs get `None` (their checkpoints
/// carry no cursors).
fn cursor_probe(remote_in: Vec<u32>, reg: &InEdgeRegistry) -> Option<CursorProbe> {
    if remote_in.is_empty() {
        return None;
    }
    let reg = Arc::clone(reg);
    Some(Arc::new(move || {
        let edges = reg.read().unwrap_or_else(|p| p.into_inner());
        remote_in
            .iter()
            .filter_map(|ei| {
                let credit = edges.get(ei)?.credit.lock().unwrap_or_else(|p| p.into_inner());
                Some((*ei, credit.consumed()))
            })
            .collect()
    }))
}

/// Capacity of a remote out-edge's bridge channel: the link's buffer.
/// `LinkSpec::local()` advertises an effectively unbounded buffer and
/// crossbeam preallocates, so it is capped.
fn bridge_cap(link: &LinkSpec) -> usize {
    link.buffer_packets.clamp(1, 1024)
}

/// The acked replay window of a remote out-edge. A blocking edge's
/// credit is its bridge capacity, capped by `ack_window`, so no more
/// packets wait at the receiver than the link buffers; a lossy edge
/// keeps the whole `ack_window`.
fn edge_window(link: &LinkSpec, cfg: &DistConfig) -> AckWindow {
    let credit = match link.flow {
        FlowControl::Blocking => bridge_cap(link).min(cfg.ack_window),
        FlowControl::Lossy => cfg.ack_window,
    };
    AckWindow::new(credit, cfg.replay_retain)
}

/// Wires the remote out-edges of one worker: [`OutEdges::open`] builds
/// one edge's bridge channel, the sending stage's [`OutPort`] onto it,
/// and the [`SenderConn`] that drains it, at run start and for a stage
/// adopted through failover alike.
struct OutEdges<'a> {
    topology: &'a Topology,
    /// This worker's link-event reporter; each edge names its own link.
    reporter: LinkReporter,
    ctx: Arc<SenderCtx>,
}

impl OutEdges<'_> {
    /// Wire out-edge `ei` of a stage whose drop counter is `drops` and
    /// whose control channel is `upstream`. While the link is down the
    /// transport attributes dropped packets to that *sending* stage (it
    /// cannot see the receiver's queue). `incarnation` is zero at run
    /// start and the failover epoch for an adopted stage.
    fn open(
        &self,
        ei: usize,
        drops: &Arc<AtomicU64>,
        upstream: Sender<Control>,
        incarnation: u64,
    ) -> OutPort {
        let edge = &self.topology.edges()[ei];
        let (tx, rx) = bounded::<Queued>(bridge_cap(&edge.link));
        let wake = SenderConn::start(
            &self.ctx,
            OutEdge {
                edge: ei as u32,
                to_stage: edge.to.index(),
                incarnation,
                rx,
                upstream,
                drops: Arc::clone(drops),
                reporter: self.reporter.on(edge_name(self.topology, ei)),
                producer: edge.from.index() as u32,
                window: edge_window(&edge.link, &self.ctx.cfg),
            },
        );
        OutPort {
            tx,
            bucket: OutPort::bucket_for(edge.link.bandwidth.as_bytes_per_sec()),
            blocking: edge.link.flow == FlowControl::Blocking,
            drops: Arc::clone(drops),
            // Drained by a reactor source, not a pool-local stage.
            wake_key: None,
            remote_wake: Some(wake),
        }
    }
}

/// Receiver-side state of one remote in-edge, shared between the
/// reactor sources pumping its connections and the drain backstop.
pub(super) struct InEdge {
    /// Input queue of the receiving stage.
    pub(super) data_tx: Sender<Queued>,
    /// Ownership guard when the receiving stage is a replica.
    pub(super) shard: Option<InShard>,
    pub(super) blocking: bool,
    /// Queue-full drop counter of the receiving stage.
    pub(super) drops: Arc<AtomicU64>,
    /// Exceptions from the receiving stage, to be written upstream.
    pub(super) exc_rx: Receiver<Control>,
    /// Exactly-once end-of-stream delivery: set by the first EOS frame
    /// or by the drain backstop, whichever comes first.
    pub(super) eos_forwarded: AtomicBool,
    pub(super) connected: AtomicBool,
    /// When the link last went down (or registration time, if the
    /// sender has not connected yet); cleared while connected.
    pub(super) disconnected_at: Mutex<Option<Instant>>,
    /// Total accepted connections for this edge (>1 means reconnects).
    pub(super) connections: AtomicU64,
    /// Set on edges registered during failover: the first data packet
    /// emits a `Resumed` event, marking the moment the adopted stage's
    /// input stream came back to life.
    pub(super) announce_resume: AtomicBool,
    /// Wake hub of the pool hosting the receiving stage, plus that
    /// stage's executor key: a delivered packet nudges the stage out of
    /// its empty-queue park immediately instead of waiting out the tick.
    pub(super) hub: Arc<WakeHub>,
    pub(super) wake_key: u32,
    pub(super) reporter: LinkReporter,
    /// Highest contiguously delivered sequence on this edge — the
    /// receiver-side at-least-once cursor. Frames at or below it are
    /// duplicates; frame `cursor + 1` is the next deliverable.
    pub(super) cursor: AtomicU64,
    /// Highest sequence covered by a relayed checkpoint, acked back as
    /// durable so the sender can trim replay retention.
    pub(super) durable: AtomicU64,
    /// Consume side of the current sender incarnation's sequence space;
    /// replaced together with the cursor reset.
    pub(super) credit: Mutex<Arc<EdgeCredit>>,
    /// Incarnation of the sender currently attached (`u64::MAX` until
    /// the first hello). A changed incarnation means a fresh sequence
    /// space: cursor and durable reset to zero.
    pub(super) sender_incarnation: AtomicU64,
    /// Failover epoch at which this edge was (re)registered. A first
    /// hello with `incarnation >= adoption_epoch` comes from a sender
    /// that was itself adopted (fresh sequence space); an older
    /// incarnation is the original sender resuming into the restored
    /// cursor.
    pub(super) adoption_epoch: u64,
    /// Worker-global delivery counters.
    pub(super) stats: DeliveryStats,
}

impl InEdge {
    /// A fresh in-edge into the stage behind `data_tx`, woken through
    /// `wake`, and the sender its stage reports exceptions upstream on.
    /// No sender is connected yet, so one that never connects at all
    /// still drains after the window. `cursor` seeds the delivered,
    /// durable and consumed cursors: zero at run start, the restored
    /// checkpoint's for an adopted stage. An edge registered by failover
    /// (`adoption_epoch` > 0) announces its first packet.
    #[allow(clippy::too_many_arguments)]
    fn new(
        data_tx: Sender<Queued>,
        drops: Arc<AtomicU64>,
        (hub, wake_key): (Arc<WakeHub>, u32),
        blocking: bool,
        shard: Option<InShard>,
        reporter: LinkReporter,
        stats: DeliveryStats,
        cursor: u64,
        adoption_epoch: u64,
    ) -> (Arc<InEdge>, Sender<Control>) {
        let (exc_tx, exc_rx) = unbounded::<Control>();
        let edge = InEdge {
            data_tx,
            shard,
            blocking,
            drops,
            exc_rx,
            eos_forwarded: AtomicBool::new(false),
            connected: AtomicBool::new(false),
            disconnected_at: Mutex::new(Some(Instant::now())),
            connections: AtomicU64::new(0),
            announce_resume: AtomicBool::new(adoption_epoch > 0),
            hub,
            wake_key,
            reporter,
            cursor: AtomicU64::new(cursor),
            durable: AtomicU64::new(cursor),
            credit: Mutex::new(EdgeCredit::new(cursor, blocking)),
            sender_incarnation: AtomicU64::new(u64::MAX),
            adoption_epoch,
            stats,
        };
        (Arc::new(edge), exc_tx)
    }

    pub(super) fn wake_receiver(&self) {
        self.hub.wake(self.wake_key);
    }
}

/// Set the stop flag and, the first time only, tell every stage.
fn stop_stages(stop: &AtomicBool, stages: &[Sender<Control>]) {
    if stop.swap(true, Ordering::Relaxed) {
        return;
    }
    for c in stages {
        let _ = c.send(Control::Stop);
    }
}

/// An injected partition window, flipped by the main loop.
struct PartitionWindow {
    /// When the cut starts, then when it heals; `None` once over.
    next: Option<Instant>,
    lasts: Duration,
    reporter: LinkReporter,
}

impl PartitionWindow {
    /// Cut or heal when due. A stopping run heals at once and never
    /// cuts.
    fn lap(&mut self, stopping: bool, flag: &AtomicBool, nudge: &NotifyList) {
        let Some(at) = self.next else { return };
        let now = Instant::now();
        let cut = flag.load(Ordering::Relaxed);
        if !cut && stopping {
            self.next = None;
        } else if !cut && now >= at {
            flag.store(true, Ordering::Relaxed);
            // Parked sources re-check the flag immediately.
            nudge.notify_all();
            self.reporter.record(
                LinkEventKind::FaultInjected,
                format!("partition cut for {:?}", self.lasts),
            );
            self.next = Some(Instant::now() + self.lasts);
        } else if cut && (stopping || now >= at) {
            flag.store(false, Ordering::Relaxed);
            nudge.notify_all();
            self.reporter.record(LinkEventKind::FaultInjected, "partition healed");
            self.next = None;
        }
    }
}

/// The drain backstop, run once per main-loop lap: an in-edge whose
/// sender stays disconnected for the drain window gets an injected
/// end-of-stream marker, so the local pipeline drains instead of
/// waiting forever on a dead sender. The registry is re-read on every
/// lap, since failover registers adopted in-edges mid-run. Nothing here
/// blocks: a marker that meets a full stage queue stays claimed and is
/// offered again on the next lap, and once the run stops it gets one
/// last try.
struct DrainBackstop {
    window: Duration,
    /// Claimed markers still waiting for queue room.
    unsent: Vec<Arc<InEdge>>,
}

impl DrainBackstop {
    fn lap(&mut self, reg: &InEdgeRegistry, stopping: bool) {
        for ie in reg.read().unwrap_or_else(|p| p.into_inner()).values() {
            if ie.eos_forwarded.load(Ordering::SeqCst) || ie.connected.load(Ordering::Relaxed) {
                continue;
            }
            let expired = ie
                .disconnected_at
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .is_some_and(|since| since.elapsed() >= self.window);
            if expired && !ie.eos_forwarded.swap(true, Ordering::SeqCst) {
                self.unsent.push(Arc::clone(ie));
            }
        }
        let window = self.window;
        self.unsent.retain(|ie| match ie.data_tx.try_send(Packet::eos(u32::MAX, 0).into()) {
            Ok(()) => {
                ie.wake_receiver();
                ie.reporter.record(
                    LinkEventKind::Drained,
                    format!("no reconnect within {window:?}; injected end-of-stream"),
                );
                false
            }
            Err(TrySendError::Full(_)) => !stopping,
            Err(TrySendError::Disconnected(_)) => false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RealClock;

    /// An in-edge into a stage queue of `capacity`, reporting link
    /// events on the returned channel, registered as edge 0 of `reg`.
    fn edge(
        capacity: usize,
    ) -> (InEdgeRegistry, Arc<InEdge>, Receiver<Queued>, Receiver<TraceEvent>) {
        let (data_tx, data_rx) = bounded(capacity);
        let (trace_tx, trace_rx) = unbounded();
        let reporter = LinkReporter {
            recorder: Arc::new(ChannelRecorder { tx: trace_tx }),
            clock: Arc::new(RealClock::anchored_now()),
            link: "up->down".into(),
            node: "w".into(),
        };
        let wake = (Arc::new(WakeHub::new()), 0);
        let (ie, _exc) = InEdge::new(
            data_tx,
            Arc::default(),
            wake,
            true,
            None,
            reporter,
            DeliveryStats::default(),
            0,
            0,
        );
        let reg: InEdgeRegistry = Arc::new(RwLock::new(HashMap::from([(0, Arc::clone(&ie))])));
        (reg, ie, data_rx, trace_rx)
    }

    fn drained_events(trace: &Receiver<TraceEvent>) -> usize {
        std::iter::from_fn(|| trace.try_recv().ok())
            .filter(|e| matches!(e, TraceEvent::Link(l) if l.kind == LinkEventKind::Drained))
            .count()
    }

    /// A backstop whose window has passed for every edge already.
    fn backstop() -> DrainBackstop {
        DrainBackstop { window: Duration::ZERO, unsent: Vec::new() }
    }

    #[test]
    fn an_edge_down_past_the_window_gets_one_marker_and_one_drained_event() {
        let (reg, _ie, queue, trace) = edge(4);
        let mut backstop = backstop();
        for _ in 0..3 {
            backstop.lap(&reg, false);
        }
        let got: Vec<Queued> = std::iter::from_fn(|| queue.try_recv().ok()).collect();
        assert_eq!(got.len(), 1, "exactly one marker");
        assert!(got[0].packet.is_eos());
        assert_eq!(drained_events(&trace), 1);
    }

    #[test]
    fn a_full_stage_queue_gets_the_marker_on_a_later_lap_without_blocking() {
        let (reg, ie, queue, trace) = edge(1);
        assert!(ie.data_tx.try_send(Packet::data(0, 0, 1, bytes::Bytes::new()).into()).is_ok());
        let mut backstop = backstop();
        let began = Instant::now();
        backstop.lap(&reg, false);
        backstop.lap(&reg, false);
        assert!(began.elapsed() < Duration::from_millis(100), "a lap never waits for room");
        assert_eq!(drained_events(&trace), 0, "nothing landed yet");
        assert!(!queue.recv().unwrap().packet.is_eos(), "the data packet came first");
        backstop.lap(&reg, false);
        assert!(queue.try_recv().unwrap().packet.is_eos(), "the marker landed once room opened");
        assert_eq!(drained_events(&trace), 1);
        backstop.lap(&reg, false);
        assert!(queue.try_recv().is_err(), "and only once");
    }

    #[test]
    fn a_stopping_run_gives_an_unsent_marker_one_last_try() {
        let (reg, ie, queue, _trace) = edge(1);
        assert!(ie.data_tx.try_send(Packet::data(0, 0, 1, bytes::Bytes::new()).into()).is_ok());
        let mut backstop = backstop();
        backstop.lap(&reg, true);
        assert!(backstop.unsent.is_empty(), "given up after the try");
        queue.recv().unwrap();
        backstop.lap(&reg, true);
        assert!(queue.try_recv().is_err(), "the claim is not retried");
    }

    #[test]
    fn a_connected_or_forwarded_edge_gets_nothing() {
        let (reg, ie, queue, trace) = edge(4);
        let (reg2, ie2, queue2, trace2) = edge(4);
        ie.connected.store(true, Ordering::Relaxed);
        ie2.eos_forwarded.store(true, Ordering::SeqCst);
        let mut backstop = backstop();
        for _ in 0..3 {
            backstop.lap(&reg, false);
            backstop.lap(&reg2, false);
        }
        assert!(queue.try_recv().is_err() && queue2.try_recv().is_err());
        assert_eq!(drained_events(&trace) + drained_events(&trace2), 0);
    }
}
