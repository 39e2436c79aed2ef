//! Wire protocol of the distributed runtime.
//!
//! Every message is one [`gates_net::Frame`]. Stream data travels as the
//! packet's own frame (kind `Data`/`Summary`/`Eos`, produced by
//! [`gates_core::Packet::to_frame`]); everything else is a `Control`
//! frame whose payload starts with a one-byte message tag, or an
//! `Exception` frame whose payload is the one-byte load-exception kind.
//! Encodings use the fixed-width big-endian [`PayloadWriter`] /
//! [`PayloadReader`] primitives shared with application payloads.

use bytes::Bytes;

use gates_core::adapt::LoadException;
use gates_core::report::{ParamTrajectory, StageReport};
use gates_core::trace::{AdaptRound, LinkEvent, LinkEventKind, RunMeta, StageSample, TraceEvent};
use gates_core::{CoreError, PayloadReader, PayloadWriter};
use gates_net::{Frame, FrameKind};
use gates_sim::stats::Welford;
use gates_sim::SimDuration;

use super::DistConfig;
use crate::runtime::EdgeCursors;
use gates_net::RetryPolicy;
use std::time::Duration;

/// A stage checkpoint as the coordinator stores it, keyed by stage
/// elsewhere: `(seq, crc, state, cursors)` — input-packet sequence at
/// snapshot time, CRC32 of the state bytes, the opaque processor
/// snapshot, and the per-input-edge delivery cursors recorded with it.
pub(crate) type CheckpointEntry = (u64, u32, Vec<u8>, EdgeCursors);

/// A stage checkpoint on the wire, in a [`CtrlMsg::Reassign`]:
/// `(stage, seq, crc, state, cursors)` — a [`CheckpointEntry`] prefixed
/// with the global stage index it belongs to.
pub(crate) type StageCheckpoint = (u32, u64, u32, Vec<u8>, EdgeCursors);

const TAG_HELLO: u8 = 1;
const TAG_ASSIGN: u8 = 2;
const TAG_READY: u8 = 3;
const TAG_START: u8 = 4;
const TAG_REPORT: u8 = 5;
const TAG_TRACE: u8 = 6;
const TAG_EDGE_HELLO: u8 = 7;
const TAG_STOP: u8 = 8;
const TAG_HEARTBEAT: u8 = 9;
const TAG_CHECKPOINT: u8 = 10;
const TAG_REJECT: u8 = 11;
const TAG_REASSIGN: u8 = 12;
const TAG_SHARD_REQUEST: u8 = 13;
const TAG_SHARD_UPDATE: u8 = 14;

/// One row of the coordinator's placement table, shipped to every worker
/// so senders can resolve remote endpoints without further round-trips.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StagePlacement {
    /// Stage index in topology order.
    pub(crate) stage: u32,
    /// Hosting worker's name.
    pub(crate) worker: String,
    /// Hosting worker's data endpoint (`host:port`).
    pub(crate) endpoint: String,
    /// Speed factor of the hosting node.
    pub(crate) speed: f64,
}

/// The deployment a worker receives: the full application config plus
/// where every stage (its own and everyone else's) runs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AssignMsg {
    /// The application XML, re-parsed by the worker against its local
    /// application repository.
    pub(crate) app_xml: String,
    /// Observation interval, microseconds.
    pub(crate) observe_us: u64,
    /// Adaptation interval, microseconds.
    pub(crate) adapt_us: u64,
    /// Modeled control latency, microseconds.
    pub(crate) control_latency_us: u64,
    /// Run budget, microseconds.
    pub(crate) max_time_us: u64,
    /// Whether the worker should stream trace events back.
    pub(crate) trace: bool,
    /// Placement row per stage, in stage order.
    pub(crate) placements: Vec<StagePlacement>,
    /// Stage indexes this worker hosts.
    pub(crate) my_stages: Vec<u32>,
    /// Transport tuning, shared by every process in the run.
    pub(crate) config: DistConfig,
}

/// A control-plane message.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CtrlMsg {
    /// Worker → coordinator: registration.
    Hello {
        /// Worker name (unique per run).
        name: String,
        /// Where the worker accepts data connections.
        data_addr: String,
        /// Optional placement-site label.
        site: Option<String>,
        /// Node speed factor.
        speed: f64,
        /// Stage-hosting capacity.
        capacity: u32,
    },
    /// Coordinator → worker: the deployment.
    Assign(Box<AssignMsg>),
    /// Worker → coordinator: topology built, data plane wired.
    Ready {
        /// Worker name.
        name: String,
    },
    /// Coordinator → worker: begin execution.
    Start,
    /// Worker → coordinator: final per-stage statistics.
    Report {
        /// Worker name.
        worker: String,
        /// Reports for the worker's stages, in its `my_stages` order.
        stages: Vec<StageReport>,
        /// Frames this worker's links gave up on (redial exhaustion,
        /// retention skips) — summed into `RunReport::packets_lost`.
        lost: u64,
        /// Frames this worker's senders re-transmitted (reconnect
        /// replay and gap NAKs).
        replayed: u64,
        /// Duplicate frames this worker's receivers discarded by edge
        /// sequence number.
        deduped: u64,
        /// Microseconds this worker's senders spent stalled on a full
        /// ack credit window.
        stalled_us: u64,
    },
    /// Worker → coordinator: one live flight-recorder event.
    Trace(TraceEvent),
    /// Sender worker → receiver worker, first frame on a data socket:
    /// which topology edge this connection carries.
    EdgeHello {
        /// Global edge index.
        edge: u32,
        /// Sender incarnation: `0` for the sender instance created at run
        /// start, or the failover epoch that created it (an adopted
        /// stage's re-emitting sender). A receiver that sees a *new*
        /// incarnation resets its delivery cursor to zero — the fresh
        /// sender instance numbers its frames from 1 — while a plain
        /// reconnect of the same instance keeps the cursor so replayed
        /// frames dedup.
        incarnation: u64,
    },
    /// Coordinator → worker: abort/stop the run.
    Stop,
    /// Worker → coordinator: periodic liveness signal, sent every
    /// [`DistConfig::heartbeat_interval`] once the run has started.
    Heartbeat {
        /// Worker name.
        name: String,
    },
    /// Worker → coordinator: a stage's state snapshot, taken every
    /// [`DistConfig::checkpoint_every`] input packets. The coordinator
    /// keeps only the newest checkpoint per stage and ships it back out
    /// during failover.
    Checkpoint {
        /// Stage index in topology order.
        stage: u32,
        /// Number of input packets the stage had consumed when the
        /// snapshot was taken (monotonic per stage).
        seq: u64,
        /// CRC-32 of `state`, computed when the snapshot was taken. The
        /// coordinator and any adopting worker verify it before trusting
        /// the bytes; a mismatch discards the checkpoint rather than
        /// restoring garbage into a stage.
        crc: u32,
        /// Opaque state bytes from [`gates_core::StreamProcessor::snapshot`].
        state: Vec<u8>,
        /// Per-input-edge delivery cursors at snapshot time:
        /// `(edge, highest link sequence number folded into `state`)`.
        /// During failover the adopting worker installs these so its
        /// receivers dedup the pre-snapshot prefix, and the re-dialing
        /// upstream senders replay exactly the unconsumed tail.
        cursors: Vec<(u32, u64)>,
    },
    /// Coordinator → worker: registration refused (malformed hello,
    /// duplicate name, ...). The worker should report the reason and exit
    /// rather than retry.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Coordinator → every surviving worker: a lost worker's stages have
    /// new homes. `placements` holds only the *changed* rows; each
    /// receiver updates its endpoint table, and the worker named in a row
    /// adopts that stage, restoring from the paired checkpoint if one
    /// exists.
    Reassign {
        /// Failover generation: the coordinator increments this on every
        /// reassignment it broadcasts. Workers remember the highest epoch
        /// they have applied and idempotently discard duplicates and
        /// stale reorderings (epoch ≤ last applied).
        epoch: u64,
        /// Updated placement rows (changed stages only).
        placements: Vec<StagePlacement>,
        /// Last known checkpoint per reassigned stage:
        /// `(stage, seq, crc, state, cursors)` with `cursors` the
        /// per-input-edge delivery cursors recorded alongside the
        /// snapshot. Stages without an entry restart fresh; an entry
        /// whose CRC does not match its bytes is treated the same
        /// (restart fresh) rather than restoring garbage.
        checkpoints: Vec<StageCheckpoint>,
    },
    /// Worker → coordinator: a replica's adaptation loop wants its shard
    /// split (overload) or merged away (underload). The coordinator owns
    /// the authoritative shard map, applies the change there, and
    /// broadcasts the result as a [`CtrlMsg::ShardUpdate`]; the worker
    /// changes nothing locally until that update arrives.
    ShardRequest {
        /// Replica group index in the topology.
        group: u32,
        /// Requesting replica's ordinal within the group.
        ordinal: u32,
        /// True to split the replica's range, false to merge it away.
        split: bool,
    },
    /// Coordinator → every worker: a replica group's new shard map.
    /// Workers install it into the group's local router epoch-guarded
    /// ([`gates_core::ShardRouter::install`]), so duplicates and
    /// out-of-order deliveries are no-ops.
    ShardUpdate {
        /// Replica group index in the topology.
        group: u32,
        /// Map epoch after the change (strictly increasing per group).
        epoch: u64,
        /// The map, encoded by [`gates_core::ShardMap::encode`].
        map: Vec<u8>,
    },
}

fn put_str(w: &mut PayloadWriter, s: &str) {
    w.put_u32(s.len() as u32);
    w.put_bytes(s.as_bytes());
}

fn get_str(r: &mut PayloadReader) -> Result<String, CoreError> {
    let len = r.get_u32()? as usize;
    let bytes = r.get_bytes(len)?;
    // `into_vec` reclaims the allocation when this view is the last
    // owner (the common case for a frame decoded into a fresh payload),
    // so the bytes move into the String instead of being copied twice.
    String::from_utf8(bytes.into_vec())
        .map_err(|e| CoreError::PayloadDecode(format!("invalid utf-8 string: {e}")))
}

fn put_opt_str(w: &mut PayloadWriter, s: &Option<String>) {
    match s {
        Some(s) => {
            w.put_bytes(&[1]);
            put_str(w, s);
        }
        None => {
            w.put_bytes(&[0]);
        }
    }
}

fn get_opt_str(r: &mut PayloadReader) -> Result<Option<String>, CoreError> {
    Ok(if r.get_u8()? == 1 { Some(get_str(r)?) } else { None })
}

fn put_cursors(w: &mut PayloadWriter, cursors: &[(u32, u64)]) {
    w.put_u32(cursors.len() as u32);
    for &(edge, cursor) in cursors {
        w.put_u32(edge);
        w.put_u64(cursor);
    }
}

fn get_cursors(r: &mut PayloadReader) -> Result<Vec<(u32, u64)>, CoreError> {
    let n = r.get_u32()? as usize;
    let mut cursors = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        cursors.push((r.get_u32()?, r.get_u64()?));
    }
    Ok(cursors)
}

fn put_welford(w: &mut PayloadWriter, s: &Welford) {
    w.put_u64(s.count());
    w.put_f64(s.mean());
    w.put_f64(s.m2());
    w.put_f64(s.min());
    w.put_f64(s.max());
}

fn get_welford(r: &mut PayloadReader) -> Result<Welford, CoreError> {
    let count = r.get_u64()?;
    let mean = r.get_f64()?;
    let m2 = r.get_f64()?;
    let min = r.get_f64()?;
    let max = r.get_f64()?;
    Ok(Welford::from_parts(count, mean, m2, min, max))
}

fn put_stage_report(w: &mut PayloadWriter, s: &StageReport) {
    put_str(w, &s.name);
    put_str(w, &s.placed_on);
    w.put_u64(s.packets_in);
    w.put_u64(s.packets_out);
    w.put_u64(s.records_in);
    w.put_u64(s.records_out);
    w.put_u64(s.bytes_in);
    w.put_u64(s.bytes_out);
    w.put_u64(s.packets_dropped);
    put_welford(w, &s.queue);
    put_welford(w, &s.latency);
    w.put_u64(s.busy_time.as_micros());
    w.put_u64(s.exceptions_sent.0);
    w.put_u64(s.exceptions_sent.1);
    w.put_u64(s.exceptions_received.0);
    w.put_u64(s.exceptions_received.1);
    w.put_u32(s.params.len() as u32);
    for p in &s.params {
        put_str(w, &p.name);
        w.put_u32(p.samples.len() as u32);
        for &(t, v) in &p.samples {
            w.put_f64(t);
            w.put_f64(v);
        }
    }
}

fn get_stage_report(r: &mut PayloadReader) -> Result<StageReport, CoreError> {
    let name = get_str(r)?;
    let placed_on = get_str(r)?;
    let packets_in = r.get_u64()?;
    let packets_out = r.get_u64()?;
    let records_in = r.get_u64()?;
    let records_out = r.get_u64()?;
    let bytes_in = r.get_u64()?;
    let bytes_out = r.get_u64()?;
    let packets_dropped = r.get_u64()?;
    let queue = get_welford(r)?;
    let latency = get_welford(r)?;
    let busy_time = SimDuration::from_micros(r.get_u64()?);
    let exceptions_sent = (r.get_u64()?, r.get_u64()?);
    let exceptions_received = (r.get_u64()?, r.get_u64()?);
    let n_params = r.get_u32()? as usize;
    let mut params = Vec::with_capacity(n_params.min(1024));
    for _ in 0..n_params {
        let pname = get_str(r)?;
        let n_samples = r.get_u32()? as usize;
        let mut samples = Vec::with_capacity(n_samples.min(65_536));
        for _ in 0..n_samples {
            let t = r.get_f64()?;
            let v = r.get_f64()?;
            samples.push((t, v));
        }
        params.push(ParamTrajectory { name: pname, samples });
    }
    Ok(StageReport {
        name,
        placed_on,
        packets_in,
        packets_out,
        records_in,
        records_out,
        bytes_in,
        bytes_out,
        packets_dropped,
        queue,
        latency,
        busy_time,
        exceptions_sent,
        exceptions_received,
        params,
    })
}

fn put_trace_event(w: &mut PayloadWriter, e: &TraceEvent) {
    match e {
        TraceEvent::Meta(m) => {
            w.put_bytes(&[0]);
            put_str(w, &m.engine);
            w.put_u32(m.placements.len() as u32);
            for (stage, node) in &m.placements {
                put_str(w, stage);
                put_str(w, node);
            }
        }
        TraceEvent::Sample(s) => {
            w.put_bytes(&[1]);
            w.put_f64(s.t);
            put_str(w, &s.stage);
            w.put_u64(s.queue_depth as u64);
            w.put_u64(s.packets_in);
            w.put_u64(s.packets_out);
            w.put_u64(s.dropped);
            w.put_f64(s.throughput);
            w.put_f64(s.service_time);
            w.put_f64(s.bucket_wait);
        }
        TraceEvent::Adapt(a) => {
            w.put_bytes(&[2]);
            w.put_f64(a.t);
            put_str(w, &a.stage);
            put_str(w, &a.param);
            put_str(w, &a.policy);
            for v in [a.d_tilde, a.phi1, a.phi2, a.phi3, a.sigma1, a.sigma2, a.suggested] {
                w.put_f64(v);
            }
            for v in [a.overload_sent, a.underload_sent, a.overload_received, a.underload_received]
            {
                w.put_u64(v);
            }
        }
        TraceEvent::Link(l) => {
            w.put_bytes(&[3]);
            w.put_f64(l.t);
            put_str(w, &l.link);
            put_str(w, &l.node);
            w.put_bytes(&[link_kind_to_u8(l.kind)]);
            put_str(w, &l.detail);
        }
    }
}

fn link_kind_to_u8(k: LinkEventKind) -> u8 {
    match k {
        LinkEventKind::Connected => 0,
        LinkEventKind::Reconnecting => 1,
        LinkEventKind::Reconnected => 2,
        LinkEventKind::Dead => 3,
        LinkEventKind::CrcDrop => 4,
        LinkEventKind::PeerEof => 5,
        LinkEventKind::Drained => 6,
        LinkEventKind::WorkerLost => 7,
        LinkEventKind::Reassigned => 8,
        LinkEventKind::Restored => 9,
        LinkEventKind::Resumed => 10,
        LinkEventKind::Rejected => 11,
        LinkEventKind::FaultInjected => 12,
        LinkEventKind::StaleDiscarded => 13,
        LinkEventKind::CheckpointCorrupt => 14,
        LinkEventKind::ReconnectExhausted => 15,
        LinkEventKind::ShardSplit => 16,
        LinkEventKind::ShardMerge => 17,
        LinkEventKind::Misrouted => 18,
        LinkEventKind::Acked => 19,
        LinkEventKind::Replayed => 20,
        LinkEventKind::Deduped => 21,
        LinkEventKind::Stalled => 22,
        LinkEventKind::Skipped => 23,
    }
}

fn link_kind_from_u8(v: u8) -> Result<LinkEventKind, CoreError> {
    Ok(match v {
        0 => LinkEventKind::Connected,
        1 => LinkEventKind::Reconnecting,
        2 => LinkEventKind::Reconnected,
        3 => LinkEventKind::Dead,
        4 => LinkEventKind::CrcDrop,
        5 => LinkEventKind::PeerEof,
        6 => LinkEventKind::Drained,
        7 => LinkEventKind::WorkerLost,
        8 => LinkEventKind::Reassigned,
        9 => LinkEventKind::Restored,
        10 => LinkEventKind::Resumed,
        11 => LinkEventKind::Rejected,
        12 => LinkEventKind::FaultInjected,
        13 => LinkEventKind::StaleDiscarded,
        14 => LinkEventKind::CheckpointCorrupt,
        15 => LinkEventKind::ReconnectExhausted,
        16 => LinkEventKind::ShardSplit,
        17 => LinkEventKind::ShardMerge,
        18 => LinkEventKind::Misrouted,
        19 => LinkEventKind::Acked,
        20 => LinkEventKind::Replayed,
        21 => LinkEventKind::Deduped,
        22 => LinkEventKind::Stalled,
        23 => LinkEventKind::Skipped,
        other => return Err(CoreError::PayloadDecode(format!("bad link event kind {other}"))),
    })
}

fn get_trace_event(r: &mut PayloadReader) -> Result<TraceEvent, CoreError> {
    Ok(match r.get_u8()? {
        0 => {
            let engine = get_str(r)?;
            let n = r.get_u32()? as usize;
            let mut placements = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                placements.push((get_str(r)?, get_str(r)?));
            }
            TraceEvent::Meta(RunMeta { engine, placements })
        }
        1 => TraceEvent::Sample(StageSample {
            t: r.get_f64()?,
            stage: get_str(r)?,
            queue_depth: r.get_u64()? as usize,
            packets_in: r.get_u64()?,
            packets_out: r.get_u64()?,
            dropped: r.get_u64()?,
            throughput: r.get_f64()?,
            service_time: r.get_f64()?,
            bucket_wait: r.get_f64()?,
        }),
        2 => TraceEvent::Adapt(AdaptRound {
            t: r.get_f64()?,
            stage: get_str(r)?,
            param: get_str(r)?,
            policy: get_str(r)?,
            d_tilde: r.get_f64()?,
            phi1: r.get_f64()?,
            phi2: r.get_f64()?,
            phi3: r.get_f64()?,
            sigma1: r.get_f64()?,
            sigma2: r.get_f64()?,
            suggested: r.get_f64()?,
            overload_sent: r.get_u64()?,
            underload_sent: r.get_u64()?,
            overload_received: r.get_u64()?,
            underload_received: r.get_u64()?,
        }),
        3 => TraceEvent::Link(LinkEvent {
            t: r.get_f64()?,
            link: get_str(r)?,
            node: get_str(r)?,
            kind: link_kind_from_u8(r.get_u8()?)?,
            detail: get_str(r)?,
        }),
        other => return Err(CoreError::PayloadDecode(format!("bad trace event tag {other}"))),
    })
}

fn put_config(w: &mut PayloadWriter, c: &DistConfig) {
    w.put_u64(c.connect_timeout.as_micros() as u64);
    w.put_u32(c.retry.max_attempts);
    w.put_u64(c.retry.base_delay.as_micros() as u64);
    w.put_u64(c.retry.max_delay.as_micros() as u64);
    w.put_u64(c.drain_window.as_micros() as u64);
    w.put_u64(c.report_grace.as_micros() as u64);
    w.put_u64(c.heartbeat_interval.as_micros() as u64);
    w.put_u64(c.heartbeat_timeout.as_micros() as u64);
    w.put_u64(c.checkpoint_every);
    w.put_u64(c.max_redial.as_micros() as u64);
    // The fault plan ships as its canonical spec string: compact, and
    // the parser is the single source of truth for its grammar.
    put_opt_str(w, &c.fault.as_ref().map(|f| f.to_spec()));
    w.put_u64(c.ack_window as u64);
    w.put_u64(c.replay_retain as u64);
}

fn get_config(r: &mut PayloadReader) -> Result<DistConfig, CoreError> {
    Ok(DistConfig {
        connect_timeout: Duration::from_micros(r.get_u64()?),
        retry: RetryPolicy {
            max_attempts: r.get_u32()?,
            base_delay: Duration::from_micros(r.get_u64()?),
            max_delay: Duration::from_micros(r.get_u64()?),
        },
        drain_window: Duration::from_micros(r.get_u64()?),
        report_grace: Duration::from_micros(r.get_u64()?),
        heartbeat_interval: Duration::from_micros(r.get_u64()?),
        heartbeat_timeout: Duration::from_micros(r.get_u64()?),
        checkpoint_every: r.get_u64()?,
        max_redial: Duration::from_micros(r.get_u64()?),
        fault: match get_opt_str(r)? {
            Some(spec) => Some(
                gates_net::FaultPlan::parse(&spec)
                    .map_err(|e| CoreError::PayloadDecode(format!("bad fault spec: {e}")))?,
            ),
            None => None,
        },
        ack_window: r.get_u64()? as usize,
        replay_retain: r.get_u64()? as usize,
    })
}

/// Encode a control message into a `Control` frame.
pub(crate) fn encode_ctrl(msg: &CtrlMsg) -> Frame {
    let mut w = PayloadWriter::new();
    match msg {
        CtrlMsg::Hello { name, data_addr, site, speed, capacity } => {
            w.put_bytes(&[TAG_HELLO]);
            put_str(&mut w, name);
            put_str(&mut w, data_addr);
            put_opt_str(&mut w, site);
            w.put_f64(*speed);
            w.put_u32(*capacity);
        }
        CtrlMsg::Assign(a) => {
            w.put_bytes(&[TAG_ASSIGN]);
            put_str(&mut w, &a.app_xml);
            w.put_u64(a.observe_us);
            w.put_u64(a.adapt_us);
            w.put_u64(a.control_latency_us);
            w.put_u64(a.max_time_us);
            w.put_bytes(&[a.trace as u8]);
            w.put_u32(a.placements.len() as u32);
            for p in &a.placements {
                w.put_u32(p.stage);
                put_str(&mut w, &p.worker);
                put_str(&mut w, &p.endpoint);
                w.put_f64(p.speed);
            }
            w.put_u32(a.my_stages.len() as u32);
            for &s in &a.my_stages {
                w.put_u32(s);
            }
            put_config(&mut w, &a.config);
        }
        CtrlMsg::Ready { name } => {
            w.put_bytes(&[TAG_READY]);
            put_str(&mut w, name);
        }
        CtrlMsg::Start => {
            w.put_bytes(&[TAG_START]);
        }
        CtrlMsg::Report { worker, stages, lost, replayed, deduped, stalled_us } => {
            w.put_bytes(&[TAG_REPORT]);
            put_str(&mut w, worker);
            w.put_u64(*lost);
            w.put_u64(*replayed);
            w.put_u64(*deduped);
            w.put_u64(*stalled_us);
            w.put_u32(stages.len() as u32);
            for s in stages {
                put_stage_report(&mut w, s);
            }
        }
        CtrlMsg::Trace(e) => {
            w.put_bytes(&[TAG_TRACE]);
            put_trace_event(&mut w, e);
        }
        CtrlMsg::EdgeHello { edge, incarnation } => {
            w.put_bytes(&[TAG_EDGE_HELLO]);
            w.put_u32(*edge);
            w.put_u64(*incarnation);
        }
        CtrlMsg::Stop => {
            w.put_bytes(&[TAG_STOP]);
        }
        CtrlMsg::Heartbeat { name } => {
            w.put_bytes(&[TAG_HEARTBEAT]);
            put_str(&mut w, name);
        }
        CtrlMsg::Checkpoint { stage, seq, crc, state, cursors } => {
            w.put_bytes(&[TAG_CHECKPOINT]);
            w.put_u32(*stage);
            w.put_u64(*seq);
            w.put_u32(*crc);
            w.put_u32(state.len() as u32);
            w.put_bytes(state);
            put_cursors(&mut w, cursors);
        }
        CtrlMsg::Reject { reason } => {
            w.put_bytes(&[TAG_REJECT]);
            put_str(&mut w, reason);
        }
        CtrlMsg::Reassign { epoch, placements, checkpoints } => {
            w.put_bytes(&[TAG_REASSIGN]);
            w.put_u64(*epoch);
            w.put_u32(placements.len() as u32);
            for p in placements {
                w.put_u32(p.stage);
                put_str(&mut w, &p.worker);
                put_str(&mut w, &p.endpoint);
                w.put_f64(p.speed);
            }
            w.put_u32(checkpoints.len() as u32);
            for (stage, seq, crc, state, cursors) in checkpoints {
                w.put_u32(*stage);
                w.put_u64(*seq);
                w.put_u32(*crc);
                w.put_u32(state.len() as u32);
                w.put_bytes(state);
                put_cursors(&mut w, cursors);
            }
        }
        CtrlMsg::ShardRequest { group, ordinal, split } => {
            w.put_bytes(&[TAG_SHARD_REQUEST]);
            w.put_u32(*group);
            w.put_u32(*ordinal);
            w.put_bytes(&[*split as u8]);
        }
        CtrlMsg::ShardUpdate { group, epoch, map } => {
            w.put_bytes(&[TAG_SHARD_UPDATE]);
            w.put_u32(*group);
            w.put_u64(*epoch);
            w.put_u32(map.len() as u32);
            w.put_bytes(map);
        }
    }
    Frame { kind: FrameKind::Control, stream_id: 0, seq: 0, payload: w.finish() }
}

/// Decode a `Control` frame into a message.
pub(crate) fn decode_ctrl(frame: &Frame) -> Result<CtrlMsg, CoreError> {
    if frame.kind != FrameKind::Control {
        return Err(CoreError::PayloadDecode(format!(
            "expected control frame, got {:?}",
            frame.kind
        )));
    }
    let mut r = PayloadReader::new(frame.payload.clone());
    Ok(match r.get_u8()? {
        TAG_HELLO => CtrlMsg::Hello {
            name: get_str(&mut r)?,
            data_addr: get_str(&mut r)?,
            site: get_opt_str(&mut r)?,
            speed: r.get_f64()?,
            capacity: r.get_u32()?,
        },
        TAG_ASSIGN => {
            let app_xml = get_str(&mut r)?;
            let observe_us = r.get_u64()?;
            let adapt_us = r.get_u64()?;
            let control_latency_us = r.get_u64()?;
            let max_time_us = r.get_u64()?;
            let trace = r.get_u8()? != 0;
            let n = r.get_u32()? as usize;
            let mut placements = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                placements.push(StagePlacement {
                    stage: r.get_u32()?,
                    worker: get_str(&mut r)?,
                    endpoint: get_str(&mut r)?,
                    speed: r.get_f64()?,
                });
            }
            let n = r.get_u32()? as usize;
            let mut my_stages = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                my_stages.push(r.get_u32()?);
            }
            let config = get_config(&mut r)?;
            CtrlMsg::Assign(Box::new(AssignMsg {
                app_xml,
                observe_us,
                adapt_us,
                control_latency_us,
                max_time_us,
                trace,
                placements,
                my_stages,
                config,
            }))
        }
        TAG_READY => CtrlMsg::Ready { name: get_str(&mut r)? },
        TAG_START => CtrlMsg::Start,
        TAG_REPORT => {
            let worker = get_str(&mut r)?;
            let lost = r.get_u64()?;
            let replayed = r.get_u64()?;
            let deduped = r.get_u64()?;
            let stalled_us = r.get_u64()?;
            let n = r.get_u32()? as usize;
            let mut stages = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                stages.push(get_stage_report(&mut r)?);
            }
            CtrlMsg::Report { worker, stages, lost, replayed, deduped, stalled_us }
        }
        TAG_TRACE => CtrlMsg::Trace(get_trace_event(&mut r)?),
        TAG_EDGE_HELLO => CtrlMsg::EdgeHello { edge: r.get_u32()?, incarnation: r.get_u64()? },
        TAG_STOP => CtrlMsg::Stop,
        TAG_HEARTBEAT => CtrlMsg::Heartbeat { name: get_str(&mut r)? },
        TAG_CHECKPOINT => {
            let stage = r.get_u32()?;
            let seq = r.get_u64()?;
            let crc = r.get_u32()?;
            let len = r.get_u32()? as usize;
            let state = r.get_bytes(len)?.into_vec();
            let cursors = get_cursors(&mut r)?;
            CtrlMsg::Checkpoint { stage, seq, crc, state, cursors }
        }
        TAG_REJECT => CtrlMsg::Reject { reason: get_str(&mut r)? },
        TAG_REASSIGN => {
            let epoch = r.get_u64()?;
            let n = r.get_u32()? as usize;
            let mut placements = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                placements.push(StagePlacement {
                    stage: r.get_u32()?,
                    worker: get_str(&mut r)?,
                    endpoint: get_str(&mut r)?,
                    speed: r.get_f64()?,
                });
            }
            let n = r.get_u32()? as usize;
            let mut checkpoints = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let stage = r.get_u32()?;
                let seq = r.get_u64()?;
                let crc = r.get_u32()?;
                let len = r.get_u32()? as usize;
                let state = r.get_bytes(len)?.into_vec();
                checkpoints.push((stage, seq, crc, state, get_cursors(&mut r)?));
            }
            CtrlMsg::Reassign { epoch, placements, checkpoints }
        }
        TAG_SHARD_REQUEST => CtrlMsg::ShardRequest {
            group: r.get_u32()?,
            ordinal: r.get_u32()?,
            split: r.get_u8()? != 0,
        },
        TAG_SHARD_UPDATE => {
            let group = r.get_u32()?;
            let epoch = r.get_u64()?;
            let len = r.get_u32()? as usize;
            CtrlMsg::ShardUpdate { group, epoch, map: r.get_bytes(len)?.into_vec() }
        }
        other => return Err(CoreError::PayloadDecode(format!("unknown control tag {other}"))),
    })
}

/// Encode an upstream-bound load exception.
pub(crate) fn encode_exception(e: LoadException) -> Frame {
    let byte = match e {
        LoadException::Overload => 0u8,
        LoadException::Underload => 1u8,
    };
    Frame { kind: FrameKind::Exception, stream_id: 0, seq: 0, payload: Bytes::from(vec![byte]) }
}

/// Decode an `Exception` frame.
pub(crate) fn decode_exception(frame: &Frame) -> Result<LoadException, CoreError> {
    let mut r = PayloadReader::new(frame.payload.clone());
    Ok(match r.get_u8()? {
        0 => LoadException::Overload,
        1 => LoadException::Underload,
        other => return Err(CoreError::PayloadDecode(format!("bad exception kind {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: CtrlMsg) {
        let frame = encode_ctrl(&msg);
        let back = decode_ctrl(&frame).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn hello_round_trips() {
        round_trip(CtrlMsg::Hello {
            name: "w0".into(),
            data_addr: "127.0.0.1:4000".into(),
            site: Some("source-0".into()),
            speed: 1.5,
            capacity: 4,
        });
        round_trip(CtrlMsg::Hello {
            name: "w1".into(),
            data_addr: "127.0.0.1:4001".into(),
            site: None,
            speed: 1.0,
            capacity: 2,
        });
    }

    #[test]
    fn assign_round_trips() {
        round_trip(CtrlMsg::Assign(Box::new(AssignMsg {
            app_xml: "<application name=\"x\" repository=\"count-samps\"/>".into(),
            observe_us: 100_000,
            adapt_us: 1_000_000,
            control_latency_us: 1_000,
            max_time_us: 60_000_000,
            trace: true,
            placements: vec![
                StagePlacement {
                    stage: 0,
                    worker: "w0".into(),
                    endpoint: "127.0.0.1:4000".into(),
                    speed: 1.0,
                },
                StagePlacement {
                    stage: 1,
                    worker: "w1".into(),
                    endpoint: "127.0.0.1:4001".into(),
                    speed: 2.0,
                },
            ],
            my_stages: vec![1],
            config: DistConfig::default(),
        })));
    }

    #[test]
    fn simple_messages_round_trip() {
        round_trip(CtrlMsg::Ready { name: "w2".into() });
        round_trip(CtrlMsg::Start);
        round_trip(CtrlMsg::EdgeHello { edge: 3, incarnation: 0 });
        round_trip(CtrlMsg::EdgeHello { edge: 7, incarnation: 2 });
        round_trip(CtrlMsg::Stop);
        round_trip(CtrlMsg::Heartbeat { name: "w0".into() });
        round_trip(CtrlMsg::Reject { reason: "duplicate worker name w0".into() });
    }

    #[test]
    fn checkpoint_round_trips() {
        round_trip(CtrlMsg::Checkpoint {
            stage: 4,
            seq: 128,
            crc: gates_net::crc32(&[1, 2, 3, 4, 5]),
            state: vec![1, 2, 3, 4, 5],
            cursors: vec![(2, 120), (5, 8)],
        });
        round_trip(CtrlMsg::Checkpoint {
            stage: 0,
            seq: 0,
            crc: 0,
            state: Vec::new(),
            cursors: Vec::new(),
        });
    }

    #[test]
    fn reassign_round_trips() {
        round_trip(CtrlMsg::Reassign {
            epoch: 3,
            placements: vec![StagePlacement {
                stage: 0,
                worker: "w1".into(),
                endpoint: "127.0.0.1:4001".into(),
                speed: 2.0,
            }],
            checkpoints: vec![(0, 64, gates_net::crc32(&[9, 8, 7]), vec![9, 8, 7], vec![(1, 60)])],
        });
        round_trip(CtrlMsg::Reassign { epoch: 0, placements: Vec::new(), checkpoints: Vec::new() });
    }

    #[test]
    fn failover_link_kinds_round_trip() {
        for kind in [
            LinkEventKind::Reassigned,
            LinkEventKind::Restored,
            LinkEventKind::Resumed,
            LinkEventKind::Rejected,
        ] {
            round_trip(CtrlMsg::Trace(TraceEvent::Link(LinkEvent {
                t: 4.2,
                link: "collector".into(),
                node: "coordinator".into(),
                kind,
                detail: "w2 -> w0".into(),
            })));
        }
    }

    #[test]
    fn delivery_link_kinds_round_trip() {
        for kind in [
            LinkEventKind::Acked,
            LinkEventKind::Replayed,
            LinkEventKind::Deduped,
            LinkEventKind::Stalled,
            LinkEventKind::Skipped,
        ] {
            round_trip(CtrlMsg::Trace(TraceEvent::Link(LinkEvent {
                t: 0.5,
                link: "summarizer-0->collector".into(),
                node: "w1".into(),
                kind,
                detail: "cursor 64".into(),
            })));
        }
    }

    #[test]
    fn non_default_config_round_trips() {
        // Every field differs from its default, so each codec line is
        // checked by the round trip.
        let ms = Duration::from_millis;
        let config = DistConfig { connect_timeout: ms(750), ..DistConfig::default() }
            .retry(RetryPolicy { max_attempts: 4, base_delay: ms(30), max_delay: ms(900) })
            .drain_window(ms(1_500))
            .report_grace(ms(2_500))
            .heartbeat_interval(ms(120))
            .heartbeat_timeout(ms(1_200))
            .checkpoint_every(7)
            .max_redial(ms(9_000))
            .ack_window(32)
            .replay_retain(96)
            .fault(gates_net::FaultPlan::parse("seed=7,drop=0.02,dup=0.01").unwrap());
        round_trip(CtrlMsg::Assign(Box::new(AssignMsg {
            app_xml: "<application name=\"x\" repository=\"count-samps\"/>".into(),
            observe_us: 1,
            adapt_us: 2,
            control_latency_us: 3,
            max_time_us: 4,
            trace: false,
            placements: Vec::new(),
            my_stages: Vec::new(),
            config,
        })));
    }

    #[test]
    fn shard_messages_round_trip() {
        round_trip(CtrlMsg::ShardRequest { group: 0, ordinal: 2, split: true });
        round_trip(CtrlMsg::ShardRequest { group: 1, ordinal: 0, split: false });
        let map = gates_core::ShardMap::uniform(4);
        round_trip(CtrlMsg::ShardUpdate { group: 0, epoch: 7, map: map.encode() });
        round_trip(CtrlMsg::ShardUpdate { group: 3, epoch: 1, map: Vec::new() });
    }

    #[test]
    fn shard_link_kinds_round_trip() {
        for kind in [LinkEventKind::ShardSplit, LinkEventKind::ShardMerge, LinkEventKind::Misrouted]
        {
            round_trip(CtrlMsg::Trace(TraceEvent::Link(LinkEvent {
                t: 1.0,
                link: "agg#0".into(),
                node: "w1".into(),
                kind,
                detail: "epoch 2".into(),
            })));
        }
    }

    #[test]
    fn report_round_trips_with_welford_and_params() {
        let mut queue = Welford::new();
        for x in [0.0, 4.0, 2.0, 7.0] {
            queue.push(x);
        }
        let report = StageReport {
            name: "summarizer-0".into(),
            placed_on: "w1".into(),
            packets_in: 100,
            packets_out: 60,
            records_in: 5_000,
            records_out: 600,
            bytes_in: 81_920,
            bytes_out: 9_600,
            packets_dropped: 3,
            queue: queue.clone(),
            latency: Welford::new(),
            busy_time: SimDuration::from_millis(1_234),
            exceptions_sent: (2, 9),
            exceptions_received: (0, 4),
            params: vec![ParamTrajectory {
                name: "k".into(),
                samples: vec![(0.0, 100.0), (0.2, 110.0), (0.4, 120.0)],
            }],
        };
        let frame = encode_ctrl(&CtrlMsg::Report {
            worker: "w1".into(),
            stages: vec![report.clone()],
            lost: 3,
            replayed: 17,
            deduped: 9,
            stalled_us: 12_500,
        });
        match decode_ctrl(&frame).unwrap() {
            CtrlMsg::Report { worker, stages, lost, replayed, deduped, stalled_us } => {
                assert_eq!(worker, "w1");
                assert_eq!((lost, replayed, deduped, stalled_us), (3, 17, 9, 12_500));
                assert_eq!(stages.len(), 1);
                let s = &stages[0];
                assert_eq!(s.name, "summarizer-0");
                assert_eq!(s.queue.count(), queue.count());
                assert!((s.queue.mean() - queue.mean()).abs() < 1e-12);
                assert!((s.queue.variance() - queue.variance()).abs() < 1e-9);
                assert_eq!(s.params[0].samples.len(), 3);
                assert_eq!(s.params[0].final_value(), Some(120.0));
                assert_eq!(s.busy_time.as_micros(), 1_234_000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_events_round_trip() {
        for event in [
            TraceEvent::Meta(RunMeta {
                engine: "dist".into(),
                placements: vec![("collector".into(), "w0".into())],
            }),
            TraceEvent::Sample(StageSample {
                t: 1.5,
                stage: "collector".into(),
                queue_depth: 12,
                packets_in: 40,
                packets_out: 0,
                dropped: 1,
                throughput: 26.7,
                service_time: 0.002,
                bucket_wait: 0.0,
            }),
            TraceEvent::Adapt(AdaptRound {
                t: 2.0,
                stage: "summarizer-0".into(),
                param: "k".into(),
                policy: "aimd".into(),
                d_tilde: 0.25,
                phi1: 0.1,
                phi2: 0.2,
                phi3: 0.3,
                sigma1: 1.0,
                sigma2: 0.5,
                suggested: 130.0,
                overload_sent: 1,
                underload_sent: 7,
                overload_received: 0,
                underload_received: 3,
            }),
            TraceEvent::Link(LinkEvent {
                t: 3.0,
                link: "summarizer-0->collector".into(),
                node: "w1".into(),
                kind: LinkEventKind::Reconnected,
                detail: "attempt 2".into(),
            }),
        ] {
            round_trip(CtrlMsg::Trace(event));
        }
    }

    #[test]
    fn exceptions_round_trip() {
        for e in [LoadException::Overload, LoadException::Underload] {
            let frame = encode_exception(e);
            assert_eq!(frame.kind, FrameKind::Exception);
            assert_eq!(decode_exception(&frame).unwrap(), e);
        }
    }

    #[test]
    fn decode_rejects_wrong_kind_and_bad_tag() {
        let data = Frame { kind: FrameKind::Data, stream_id: 0, seq: 0, payload: Bytes::new() };
        assert!(decode_ctrl(&data).is_err());
        let bogus = Frame {
            kind: FrameKind::Control,
            stream_id: 0,
            seq: 0,
            payload: Bytes::from_static(&[200]),
        };
        assert!(decode_ctrl(&bogus).is_err());
    }
}
