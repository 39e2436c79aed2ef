//! The worker side of the distributed runtime.
//!
//! A [`DistWorker`] is one OS process hosting a subset of the pipeline's
//! stages (the `gates-cli worker` subcommand is a thin wrapper around
//! it). It registers with the coordinator, receives the application XML
//! plus the full placement table, rebuilds the topology from its local
//! application repository, and runs its stages as the shared
//! [`crate::runtime::StageTask`] activations — local edges stay
//! in-process channels, remote edges are bridged over TCP by
//! reactor-driven sources that the stage pool's own threads service
//! between stage steps.
//!
//! During the run the worker heartbeats the coordinator, relays stage
//! checkpoints, and acts on `Reassign` broadcasts: placement rows naming
//! another worker just re-point the local senders' endpoint table (a
//! dead link re-dials the new address), while rows naming *this* worker
//! make it adopt the stage. Adoption hosts the stage through the same
//! [`Host::stage`] as run start, with no local peers, the cursors of
//! the stage's last checkpoint and the failover epoch; the restored
//! stage's own checkpoints count on from that checkpoint's sequence.

use std::collections::HashMap;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, RecvTimeoutError, Sender, TrySendError};

use gates_core::report::StageReport;
use gates_core::trace::{LinkEvent, LinkEventKind, NullRecorder, Recorder, TraceEvent};
use gates_core::{Packet, ShardMap, Topology};
use gates_grid::{AppConfig, ApplicationRepository};
use gates_net::{connect_with_retry, crc32, BufferPool, FrameStream, ReactorPool, RetryPolicy};
use gates_sim::{SimDuration, SimTime};

use super::host::{Host, InEdge, InEdgeRegistry, Restore};
use super::plane::{CtrlEvent, CtrlHandle, ListenerSource, NotifyList, PlaneCtx, SenderCtx};
use super::proto::{encode_ctrl, AssignMsg, CheckpointEntry, CtrlMsg};
use super::read_ctrl;
use crate::executor::{CorePool, TaskHandle};
use crate::options::RunOptions;
use crate::runtime::{Control, Inbox, RunCtx, StageWorker};
use crate::EngineError;

/// Stable per-process seed for reconnect jitter when no fault plan (and
/// therefore no explicit seed) was configured: derived from the worker's
/// name so two workers never share a jitter sequence.
fn name_seed(name: &str) -> u64 {
    name.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

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
        // --- handshake: register, receive the deployment -------------
        let listener = TcpListener::bind((self.bind_host.as_str(), 0u16))
            .map_err(|e| EngineError::Transport(format!("bind data listener: {e}")))?;
        let data_addr =
            listener.local_addr().map_err(|e| EngineError::Transport(e.to_string()))?.to_string();
        let Some((mut ctrl, assign, topology)) = self.handshake(repo, data_addr)? else {
            return Ok(());
        };
        let cfg = &assign.config;
        let n = topology.stages().len();
        if assign.placements.len() != n {
            return Err(EngineError::Protocol(format!(
                "placement table has {} rows for {n} stages",
                assign.placements.len()
            )));
        }
        let mut placed = vec![(String::new(), 1.0f64); n];
        let mut endpoints = vec![String::new(); n];
        for p in &assign.placements {
            let i = p.stage as usize;
            if i >= n {
                return Err(EngineError::Protocol(format!("placement for unknown stage {i}")));
            }
            placed[i] = (p.worker.clone(), p.speed);
            endpoints[i] = p.endpoint.clone();
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

        // Every socket this worker owns lives on the reactors of the
        // first `reactors` pool threads: a stage, the sockets it feeds
        // and the acks it returns share a thread.
        let driving = self.reactors.min(pool.reactors().len());
        let reactors = Arc::new(ReactorPool::new(pool.reactors()[..driving].to_vec()));
        // Wake handles of every registered source, nudged on stop and
        // partition flips.
        let notify = NotifyList::default();

        // --- wire the stages and the data plane ----------------------
        let run = RunCtx::new(opts, pool.hub());
        let stop = Arc::clone(&run.stop);
        // Link events name this worker; each link names itself.
        let reporter = LinkReporter {
            recorder,
            clock: Arc::clone(&run.clock),
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
        let (ckpt_tx, ckpt_rx) = unbounded();
        // At-least-once delivery totals for this process.
        let delivery = DeliveryStats::default();
        // Replica scale-out signals (`(group, ordinal, split)`) follow
        // the same path: a replica whose d̃ left [LT1, LT2] asks the
        // coordinator to split or merge its key range, and the
        // coordinator answers with a `ShardUpdate` broadcast.
        let (shard_tx, shard_rx) = unbounded();

        // Every remote out-edge's sender lives on a pool reactor. The
        // context they share holds `done_tx`, so shutdown can wait for
        // the last sender to end.
        let (done_tx, done_rx) = bounded::<()>(0);
        let senders = Arc::new(SenderCtx {
            endpoints: RwLock::new(endpoints),
            cfg: cfg.clone(),
            jitter_root,
            partitioned: Arc::clone(&partitioned),
            stop: Arc::clone(&stop),
            reactors: Arc::clone(&reactors),
            notify: notify.clone(),
            hub: Arc::clone(&run.hub),
            stats: delivery.clone(),
            _done: done_tx,
        });
        let mut host = Host {
            topology: &topology,
            run,
            placed,
            senders,
            in_edges: InEdgeRegistry::default(),
            reporter,
            shard_tx,
            ckpt_tx,
        };
        // In-edges are registered, and senders dial, before the listener
        // accepts; the stages spawn only once the run starts.
        let (stages, mut stage_ctl) = host_assigned(&host, &is_mine);

        // The data listener and every connection it accepts live on the
        // reactor pool; there is no accept thread to wake at shutdown.
        {
            let ctx = PlaneCtx {
                reg: Arc::clone(&host.in_edges),
                stop: Arc::clone(&stop),
                partitioned: Arc::clone(&partitioned),
                cfg: cfg.clone(),
                // Recycled read buffers shared by every data in-edge;
                // steady state reads allocate nothing per packet.
                buffers: BufferPool::default(),
                reactors: Arc::clone(&reactors),
                notify: notify.clone(),
            };
            let reactor = reactors.pick();
            let token = reactor.register(Box::new(ListenerSource::new(listener, ctx)));
            notify.add(reactor, token);
        }

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
                reporter: host.reporter.on("partition"),
            });
        // Control-plane chaos starts only now: the handshake above must
        // stay reliable or no run would ever assemble.
        let ctrl_faults = host.reporter.on("ctrl");
        if let Some(plan) = cfg.fault.as_ref().filter(|f| f.ctrl) {
            ctrl.set_fault_injector(Some(plan.injector_for_control(name_seed(&self.name))));
        }
        // From here on the control socket lives on a reactor: the main
        // loop queues frames through the handle and consumes decoded
        // messages (and injector records) as events.
        let (ev_tx, ev_rx) = unbounded::<CtrlEvent>();
        let ctrl_handle =
            CtrlHandle::register(reactors.pick(), ctrl, ev_tx, Arc::clone(&partitioned), &notify);
        let mut handles: Vec<TaskHandle> =
            stages.into_iter().map(|stage| stage.spawn(&pool)).collect();

        // --- main loop: trace/heartbeat/checkpoint relay + control ---
        // It laps at least every 10 ms, and each lap also runs the
        // partition window, the run budget and the drain backstop, and
        // polls the stages (original and adopted alike) for completion.
        let run_end =
            Instant::now() + Duration::from_secs_f64(host.run.opts.max_time.as_secs_f64());
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
                host.run.stop_stages(&stage_ctl);
            }
            backstop.lap(&host.in_edges, stop.load(Ordering::Relaxed));
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
                    let reg = host.in_edges.read().unwrap_or_else(|p| p.into_inner());
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
                    CtrlEvent::Msg(CtrlMsg::Stop) => host.run.stop_stages(&stage_ctl),
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
                        let mut ckpt_by_stage: HashMap<u32, CheckpointEntry> = checkpoints
                            .into_iter()
                            .map(|(s, q, crc, st, cur)| (s, (q, crc, st, cur)))
                            .collect();
                        // Re-point the shared endpoint table first: it
                        // wakes the senders aimed at a moved stage, and
                        // a down one re-dials the new address at once.
                        for row in &rows {
                            let i = row.stage as usize;
                            if i < n {
                                host.senders.set_endpoint(i, row.endpoint.clone());
                                host.placed[i] = (row.worker.clone(), row.speed);
                            }
                        }
                        for row in &rows {
                            let i = row.stage as usize;
                            if i >= n || row.worker != self.name || is_mine[i] {
                                continue;
                            }
                            is_mine[i] = true;
                            let ckpt = ckpt_by_stage.remove(&row.stage);
                            let (stage, ctl) = adopt(&host, i, ckpt, epoch, &ctrl_faults);
                            stage_ctl.push(ctl);
                            handles.push(stage.spawn(&pool));
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
        drop(host);
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

    /// Register with the coordinator, wait for the deployment, and
    /// rebuild its topology. `None`: the coordinator stopped the run
    /// first.
    fn handshake(
        &self,
        repo: &ApplicationRepository,
        data_addr: String,
    ) -> Result<Option<(FrameStream, Box<AssignMsg>, Topology)>, EngineError> {
        // Workers are often launched before the coordinator: be patient.
        let register_policy = RetryPolicy {
            max_attempts: 30,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(1),
        };
        let addr = &self.coordinator;
        let coord = addr
            .to_socket_addrs()
            .map_err(|e| EngineError::Transport(format!("resolve {addr}: {e}")))?
            .next()
            .ok_or_else(|| EngineError::Transport(format!("no address for {addr}")))?;
        let socket = connect_with_retry(coord, Duration::from_secs(2), &register_policy, |_, _| {})
            .map_err(|e| EngineError::Transport(format!("connect to coordinator: {e}")))?;
        let mut ctrl = FrameStream::new(socket);
        ctrl.set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| EngineError::Transport(e.to_string()))?;
        ctrl.send(&encode_ctrl(&CtrlMsg::Hello {
            name: self.name.clone(),
            data_addr,
            site: self.site.clone(),
            speed: self.speed,
            capacity: self.capacity,
        }))
        .map_err(|e| EngineError::Transport(format!("send hello: {e}")))?;

        let deadline = Instant::now() + HANDSHAKE_PATIENCE;
        let assign = loop {
            match read_ctrl(&mut ctrl, deadline, "assignment")? {
                CtrlMsg::Assign(a) => break a,
                CtrlMsg::Stop => return Ok(None),
                CtrlMsg::Reject { reason } => {
                    return Err(EngineError::Protocol(format!(
                        "coordinator rejected registration: {reason}"
                    )))
                }
                _ => {}
            }
        };
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
        topology.validate().map_err(|e| EngineError::InvalidTopology(e.to_string()))?;
        Ok(Some((ctrl, assign, topology)))
    }
}

/// Host every stage assigned at run start, in stage order: the stages
/// assigned here are each other's local peers, and the incarnation is
/// zero. Returns the stages, ready to spawn, and their control channels.
fn host_assigned(host: &Host, is_mine: &[bool]) -> (Vec<StageWorker>, Vec<Sender<Control>>) {
    let mine = || (0..is_mine.len()).filter(|&i| is_mine[i]);
    let mut local: HashMap<usize, Inbox> =
        mine().map(|i| (i, Inbox::new(host.topology, i))).collect();
    let stages = mine().map(|i| host.stage(i, &mut local, None, 0)).collect();
    (stages, local.into_values().map(|inbox| inbox.ctl).collect())
}

/// Adopt stage `i` through failover at `epoch`: no local peers, and
/// the last checkpoint `entry`, if any. Its cursors install regardless
/// of the *state* CRC (the control frame's own CRC guarded them); a
/// state failing its CRC restarts the stage fresh instead of restoring
/// garbage. Returns the stage, ready to spawn, and its control channel.
fn adopt(
    host: &Host,
    i: usize,
    entry: Option<CheckpointEntry>,
    epoch: u64,
    ctrl_faults: &LinkReporter,
) -> (StageWorker, Sender<Control>) {
    let name = &host.topology.stages()[i].name;
    let restore = entry.map(|(seq, crc, state, cursors)| {
        let intact = crc32(&state) == crc;
        if !intact {
            ctrl_faults.record(
                LinkEventKind::CheckpointCorrupt,
                format!("stage {name} checkpoint seq {seq} failed CRC; restarting fresh"),
            );
        }
        Restore { cursors: cursors.into_iter().collect(), state: intact.then_some((seq, state)) }
    });
    host.reporter.on(name.clone()).record(
        LinkEventKind::Restored,
        match restore.as_ref().and_then(|r| r.state.as_ref()) {
            Some((seq, _)) => format!("resumed from checkpoint seq {seq}"),
            None => "restarted fresh (no checkpoint)".into(),
        },
    );
    let mut own = HashMap::from([(i, Inbox::new(host.topology, i))]);
    let stage = host.stage(i, &mut own, restore, epoch);
    (stage, own.remove(&i).expect("the adopted stage's inbox").ctl)
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
    pub(super) fn on(&self, link: impl Into<String>) -> LinkReporter {
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
    use crate::executor::WakeHub;
    use crate::runtime::Queued;
    use crossbeam::channel::Receiver;
    use gates_core::{StageApi, StageBuilder, StageId, StreamProcessor};
    use gates_net::{FrameKind, LinkSpec, Reactor};

    use super::super::proto::decode_ctrl;
    use super::super::DistConfig;

    struct Idle;
    impl StreamProcessor for Idle {
        fn process(&mut self, _packet: Packet, _api: &mut StageApi) {}
    }

    /// Stages `(name, queue capacity)` joined by blocking edges
    /// `(from, to)`, in edge-id order.
    fn topology(stages: &[(&str, usize)], edges: &[(usize, usize)]) -> Topology {
        let mut t = Topology::new();
        for &(name, capacity) in stages {
            t.add_stage_raw(StageBuilder::new(name).queue_capacity(capacity).processor(|| Idle))
                .expect("unique names");
        }
        for &(from, to) in edges {
            let link = LinkSpec::local().blocking();
            t.connect(StageId::from_index(from), StageId::from_index(to), link);
        }
        t
    }

    /// The reactor a test host's senders run on, and the link events
    /// the host records. Shuts the reactor down on drop.
    struct Rig {
        reactor: Reactor,
        events: Receiver<TraceEvent>,
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            self.reactor.shutdown();
        }
    }

    impl Rig {
        /// Details of the link events of `kind` recorded so far.
        fn recorded(&self, kind: LinkEventKind) -> Vec<String> {
            std::iter::from_fn(|| self.events.try_recv().ok())
                .filter_map(|e| match e {
                    TraceEvent::Link(l) if l.kind == kind => Some(l.detail),
                    _ => None,
                })
                .collect()
        }
    }

    /// A worker's host for `topology`, every stage placed at `endpoint`.
    fn host<'t>(topology: &'t Topology, endpoint: &str) -> (Host<'t>, Rig) {
        let reactor = Reactor::spawn("host-test").expect("spawn reactor");
        let (trace_tx, events) = unbounded();
        let run = RunCtx::new(RunOptions::default(), Arc::new(WakeHub::new()));
        let n = topology.stages().len();
        let senders = Arc::new(SenderCtx {
            endpoints: RwLock::new(vec![endpoint.to_string(); n]),
            cfg: DistConfig::default(),
            jitter_root: 7,
            partitioned: Arc::default(),
            stop: Arc::clone(&run.stop),
            reactors: Arc::new(ReactorPool::new(vec![reactor.clone()])),
            notify: NotifyList::default(),
            hub: Arc::clone(&run.hub),
            stats: DeliveryStats::default(),
            _done: bounded(0).0,
        });
        let reporter = LinkReporter {
            recorder: Arc::new(ChannelRecorder { tx: trace_tx }),
            clock: Arc::clone(&run.clock),
            link: String::new(),
            node: "w".into(),
        };
        let host = Host {
            topology,
            run,
            placed: vec![("w".into(), 1.0); n],
            senders,
            in_edges: InEdgeRegistry::default(),
            reporter,
            shard_tx: unbounded().0,
            ckpt_tx: unbounded().0,
        };
        (host, Rig { reactor, events })
    }

    #[test]
    fn run_start_wires_local_producers_in_process_and_remote_ones_over_tcp() {
        // `a` and `j` are assigned here, `b` elsewhere; both feed `j`.
        let t = topology(&[("a", 8), ("b", 8), ("j", 8)], &[(0, 2), (1, 2)]);
        let (host, _rig) = host(&t, "127.0.0.1:1");
        let (stages, ctl) = host_assigned(&host, &[true, false, true]);
        assert_eq!(ctl.len(), 2);
        let (a, j) = (&stages[0], &stages[1]);
        assert_eq!(a.out[0].wake_key, Some(2), "a feeds j in-process");
        assert!(a.out[0].remote_wake.is_none());
        let keys: Vec<Option<u32>> = j.upstream.iter().map(|up| up.key).collect();
        assert_eq!(keys, [Some(0), None], "only the local producer is woken");
        let registered: Vec<u32> = host.in_edges.read().unwrap().keys().copied().collect();
        assert_eq!(registered, vec![1], "only the remote edge is registered");
        let probe = j.checkpoint.as_ref().and_then(|c| c.cursors.as_ref()).expect("a probe");
        assert_eq!(probe(), vec![(1, 0)], "the probe samples the remote edge only");
        assert!(a.checkpoint.as_ref().unwrap().cursors.is_none(), "a has no remote input");
    }

    const EPOCH: u64 = 3;

    /// `src0` and `src1` feed `mid`, which feeds `sink`: adopt `mid` at
    /// [`EPOCH`] from a checkpoint at seq 9 that put edge 0's cursor at
    /// 42 and edge 1's at 7, its state intact or not, every stage placed
    /// at `listener`.
    fn adopt_mid(listener: &TcpListener, intact: bool) -> (StageWorker, InEdgeRegistry, Rig) {
        let t = topology(
            &[("src0", 8), ("src1", 8), ("mid", 8), ("sink", 8)],
            &[(0, 2), (1, 2), (2, 3)],
        );
        let (host, rig) = host(&t, &listener.local_addr().unwrap().to_string());
        let state = b"counts".to_vec();
        let crc = crc32(&state) ^ u32::from(!intact);
        let entry = (9, crc, state, vec![(0, 42), (1, 7)]);
        let (mid, _ctl) = adopt(&host, 2, Some(entry), EPOCH, &host.reporter.on("ctrl"));
        (mid, Arc::clone(&host.in_edges), rig)
    }

    /// The first frame a sender opens its connection to `listener` with.
    fn first_frame(listener: &TcpListener) -> gates_net::Frame {
        listener.set_nonblocking(true).expect("nonblocking");
        let deadline = Instant::now() + Duration::from_secs(5);
        let socket = loop {
            match listener.accept() {
                Ok((socket, _)) => break socket,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("the sender never connected: {e}"),
            }
        };
        socket.set_nonblocking(false).expect("blocking");
        let mut fs = FrameStream::new(socket);
        fs.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        fs.read_frame().expect("read").expect("a frame")
    }

    #[test]
    fn adoption_resumes_every_in_edge_at_its_cursor_and_dials_out_in_the_new_incarnation() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (mid, reg, rig) = adopt_mid(&listener, true);
        assert_eq!(mid.restore, Some((9, b"counts".to_vec())));
        assert_eq!(mid.upstream.len(), 2);
        assert!(mid.upstream.iter().all(|up| up.key.is_none()), "no producer is local");
        let reg = reg.read().unwrap();
        for (edge, cursor) in [(0, 42), (1, 7)] {
            let ie = &reg[&edge];
            assert_eq!(ie.cursor.load(Ordering::Relaxed), cursor);
            assert_eq!(ie.durable.load(Ordering::Relaxed), cursor);
            assert_eq!(ie.credit.lock().unwrap().consumed(), cursor);
            assert_eq!(ie.adoption_epoch, EPOCH);
            assert!(ie.announce_resume.load(Ordering::Relaxed));
        }
        assert!(mid.out.iter().all(|p| p.wake_key.is_none() && p.remote_wake.is_some()));
        let hello = first_frame(&listener);
        assert_eq!(hello.kind, FrameKind::Control);
        assert!(matches!(
            decode_ctrl(&hello),
            Ok(CtrlMsg::EdgeHello { edge: 2, incarnation: EPOCH })
        ));
        assert_eq!(rig.recorded(LinkEventKind::Restored), ["resumed from checkpoint seq 9"]);
    }

    #[test]
    fn a_checkpoint_failing_its_crc_restores_no_state_but_keeps_its_cursors() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (mid, reg, rig) = adopt_mid(&listener, false);
        assert_eq!(mid.restore, None);
        assert_eq!(reg.read().unwrap()[&0].cursor.load(Ordering::Relaxed), 42);
        let events: Vec<TraceEvent> = std::iter::from_fn(|| rig.events.try_recv().ok()).collect();
        let kinds = |kind| {
            events.iter().filter(|e| matches!(e, TraceEvent::Link(l) if l.kind == kind)).count()
        };
        assert_eq!(kinds(LinkEventKind::CheckpointCorrupt), 1);
        assert_eq!(kinds(LinkEventKind::Restored), 1);
    }

    /// An in-edge into a stage queue of `capacity`, registered as edge 0
    /// of the returned registry; the rig records its link events.
    fn edge(capacity: usize) -> (InEdgeRegistry, Arc<InEdge>, Receiver<Queued>, Rig) {
        let t = topology(&[("up", 1), ("down", capacity)], &[(0, 1)]);
        let (host, rig) = host(&t, "127.0.0.1:1");
        let (stages, _ctl) = host_assigned(&host, &[false, true]);
        let ie = Arc::clone(&host.in_edges.read().unwrap()[&0]);
        (Arc::clone(&host.in_edges), ie, stages[0].rx.clone(), rig)
    }

    fn drained_events(rig: &Rig) -> usize {
        rig.recorded(LinkEventKind::Drained).len()
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
