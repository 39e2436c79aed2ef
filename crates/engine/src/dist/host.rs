//! Hosting one stage on a dist worker.
//!
//! [`Host::stage`] is the one place a worker wires a stage, at run start
//! and in failover alike. Three inputs tell the two apart: which peers
//! count as local (at run start, every stage assigned to this worker;
//! an adopted stage has none, so all its edges go over TCP), an
//! optional restored checkpoint (its cursors seed the in-edges, its
//! state restores the processor), and the incarnation epoch (zero at
//! run start, the failover epoch for an adopted stage).
//!
//! The rest of this module is the wiring it uses: [`InEdge`] and its
//! registry, a replica's shard guard, the checkpoint cursor probe, and
//! a remote out-edge's bridge and credit window.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use gates_core::{ShardRouter, StageId, Topology};
use gates_net::{AckWindow, FlowControl, LinkSpec};

use super::plane::{OutEdge, SenderConn, SenderCtx};
use super::worker::{DeliveryStats, LinkReporter};
use super::DistConfig;
use crate::executor::WakeHub;
use crate::runtime::{
    CheckpointCfg, Control, CursorProbe, EdgeCredit, EdgeCursors, Inbox, OutPort, Queued, RunCtx,
    StageWorker, Upstream,
};
use crate::stage_core::{ShardScaling, StageCore};

/// The shared, growable in-edge registry: failover registers new entries
/// mid-run when this worker adopts a stage.
pub(super) type InEdgeRegistry = Arc<RwLock<HashMap<u32, Arc<InEdge>>>>;

/// The checkpoint an adopted stage resumes from.
#[derive(Default)]
pub(super) struct Restore {
    /// Per-edge input cursors `edge → seq`. Seeding them into the fresh
    /// in-edges scopes the original senders' replay to the unprocessed
    /// tail.
    pub(super) cursors: HashMap<u32, u64>,
    /// `(seq, state)`, when the state passed its CRC check.
    pub(super) state: Option<(u64, Vec<u8>)>,
}

/// What every stage one worker hosts is wired with, built once per run.
pub(super) struct Host<'t> {
    pub(super) topology: &'t Topology,
    pub(super) run: RunCtx,
    /// Worker name and node speed of each stage's placement, as last
    /// assigned.
    pub(super) placed: Vec<(String, f64)>,
    /// What every remote out-edge sender shares, the endpoint table and
    /// the delivery counters included.
    pub(super) senders: Arc<SenderCtx>,
    pub(super) in_edges: InEdgeRegistry,
    /// This worker's link-event reporter; each edge names its own link.
    pub(super) reporter: LinkReporter,
    /// Where replicas ask for a shard split or merge.
    pub(super) shard_tx: Sender<(u32, u32, bool)>,
    /// Where stage snapshots go, for relay to the coordinator.
    pub(super) ckpt_tx: Sender<(u32, u64, Vec<u8>, EdgeCursors)>,
}

impl Host<'_> {
    /// Wire stage `i`, ready to spawn: register its remote in-edges and
    /// open its remote out-edges. `local` holds the inboxes of the
    /// stages wired in-process, `i`'s own included (see module docs).
    pub(super) fn stage(
        &self,
        i: usize,
        local: &mut HashMap<usize, Inbox>,
        restore: Option<Restore>,
        epoch: u64,
    ) -> StageWorker {
        let topology = self.topology;
        let edges = topology.edges();
        let id = StageId::from_index(i);
        let Restore { cursors, state } = restore.unwrap_or_default();
        let site = Site { host: self, stage: i, local, cursors: &cursors, epoch };
        let mut upstream = Vec::new();
        let mut remote_in = Vec::new();
        for ei in topology.in_edges(id) {
            match local.get(&edges[ei].from.index()) {
                Some(producer) => upstream.push(Upstream::local(producer)),
                None => {
                    let (ie, exc) = InEdge::new(&site, ei);
                    self.in_edges.write().unwrap_or_else(|p| p.into_inner()).insert(ei as u32, ie);
                    remote_in.push(ei as u32);
                    upstream.push(Upstream { ctl: exc, key: None });
                }
            }
        }
        let out = topology
            .out_edges(id)
            .into_iter()
            .map(|ei| match local.get(&edges[ei].to.index()) {
                Some(to) => OutPort::local(&edges[ei].link, to),
                None => self.open(ei, &local[&i], epoch),
            })
            .collect();
        let (node, speed) = &self.placed[i];
        let core = StageCore::new(
            topology,
            id,
            node.clone(),
            *speed,
            ShardScaling::Request(self.shard_tx.clone()),
            &self.run.opts,
        );
        let every = self.senders.cfg.checkpoint_every;
        let checkpoint = (every > 0).then(|| CheckpointCfg {
            every,
            tx: self.ckpt_tx.clone(),
            cursors: cursor_probe(remote_in, &self.in_edges),
        });
        let inbox = local.get_mut(&i).expect("a hosted stage has an inbox");
        StageWorker::new(self.run.clone(), core, inbox, out, upstream, checkpoint, state)
    }

    /// Wire remote out-edge `ei` of the stage behind `from`: a bounded
    /// bridge channel, the stage's [`OutPort`] onto it, and the
    /// [`SenderConn`] that drains it. While the link is down the
    /// transport attributes dropped packets to the *sending* stage (it
    /// cannot see the receiver's queue).
    fn open(&self, ei: usize, from: &Inbox, incarnation: u64) -> OutPort {
        let edge = &self.topology.edges()[ei];
        let (tx, rx) = bounded::<Queued>(bridge_cap(&edge.link));
        let wake = SenderConn::start(
            &self.senders,
            OutEdge {
                edge: ei as u32,
                to_stage: edge.to.index(),
                incarnation,
                rx,
                upstream: from.ctl.clone(),
                drops: Arc::clone(&from.drops),
                reporter: self.reporter.on(edge_name(self.topology, ei)),
                producer: from.key,
                window: edge_window(&edge.link, &self.senders.cfg),
            },
        );
        // Drained by a reactor source, not a pool-local stage.
        OutPort { remote_wake: Some(wake), ..OutPort::new(&edge.link, tx, &from.drops) }
    }
}

/// One stage being hosted, as its in-edges see it: the per-stage
/// context of [`InEdge::new`].
struct Site<'a> {
    host: &'a Host<'a>,
    /// The stage's index; its inbox is `local[&stage]`.
    stage: usize,
    /// Inboxes of the stages wired in-process (see [`Host::stage`]).
    local: &'a HashMap<usize, Inbox>,
    /// Restored per-edge cursors; empty at run start.
    cursors: &'a HashMap<u32, u64>,
    epoch: u64,
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
/// `stage`, when that stage is a replica. Its re-route targets are the
/// siblings among the `local` inboxes; with none, the guard rejects
/// instead.
fn shard_guard(
    topology: &Topology,
    stage: usize,
    local: &HashMap<usize, Inbox>,
) -> Option<InShard> {
    let (gi, ordinal) = topology.replica_of(StageId::from_index(stage))?;
    let group = &topology.groups()[gi];
    let mut siblings = HashMap::new();
    for (k, m) in group.members.iter().enumerate() {
        if k != ordinal {
            if let Some(inbox) = local.get(&m.index()) {
                siblings.insert(k as u32, (inbox.tx.clone(), inbox.key));
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

/// Capacity of a remote out-edge's bridge channel: the link's buffer,
/// capped. `LinkSpec::local()` advertises an effectively unbounded
/// buffer, and the cap bounds both how many packets the bridge holds
/// and a blocking edge's credit (see [`edge_window`]).
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

/// Receiver-side state of one remote in-edge, shared between the
/// reactor sources pumping its connections and the drain backstop.
pub(super) struct InEdge {
    /// Input queue of the receiving stage. The registry keeps it open
    /// for reconnects, so EOS counting, not disconnection, ends a stage
    /// with remote inputs.
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
    /// A fresh in-edge `ei` into the stage `site` hosts, and the sender
    /// that stage reports exceptions upstream on. No sender is connected
    /// yet, so one that never connects at all still drains after the
    /// window. The edge's restored cursor (zero without one) seeds the
    /// delivered, durable and consumed cursors. An edge registered by
    /// failover (epoch > 0) announces its first packet.
    fn new(site: &Site, ei: usize) -> (Arc<InEdge>, Sender<Control>) {
        let host = site.host;
        let inbox = &site.local[&site.stage];
        let blocking = host.topology.edges()[ei].link.flow == FlowControl::Blocking;
        let cursor = site.cursors.get(&(ei as u32)).copied().unwrap_or(0);
        let (exc_tx, exc_rx) = unbounded::<Control>();
        let edge = InEdge {
            data_tx: inbox.tx.clone(),
            shard: shard_guard(host.topology, site.stage, site.local),
            blocking,
            drops: Arc::clone(&inbox.drops),
            exc_rx,
            eos_forwarded: AtomicBool::new(false),
            connected: AtomicBool::new(false),
            disconnected_at: Mutex::new(Some(Instant::now())),
            connections: AtomicU64::new(0),
            announce_resume: AtomicBool::new(site.epoch > 0),
            hub: Arc::clone(&host.run.hub),
            wake_key: inbox.key,
            reporter: host.reporter.on(edge_name(host.topology, ei)),
            cursor: AtomicU64::new(cursor),
            durable: AtomicU64::new(cursor),
            credit: Mutex::new(EdgeCredit::new(cursor, blocking)),
            sender_incarnation: AtomicU64::new(u64::MAX),
            adoption_epoch: site.epoch,
            stats: host.senders.stats.clone(),
        };
        (Arc::new(edge), exc_tx)
    }

    pub(super) fn wake_receiver(&self) {
        self.hub.wake(self.wake_key);
    }
}
