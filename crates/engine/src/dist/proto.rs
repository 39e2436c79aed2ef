//! Wire protocol of the distributed runtime.
//!
//! Every message is one [`gates_net::Frame`]. Stream data travels as the
//! packet's own frame (kind `Data`/`Summary`/`Eos`, produced by
//! [`gates_core::Packet::to_frame`]); everything else is a `Control`
//! frame whose payload starts with a one-byte message tag, or an
//! `Exception` frame whose payload is the one-byte load-exception kind.
//! Encodings use the fixed-width big-endian [`PayloadWriter`] /
//! [`PayloadReader`] primitives shared with application payloads.
//!
//! Each message is declared once: `Wire` is implemented once per leaf
//! type, and `wire_struct!` / `wire_enum!` list each struct's fields and
//! each enum's tags in wire order, emitting both directions. Tags are
//! append-only. Every decoded count is checked against the bytes left
//! before allocating, so any payload decodes to a value or an `Err`.

use gates_core::adapt::LoadException;
use gates_core::report::{ParamTrajectory, StageReport};
use gates_core::trace::{AdaptRound, LinkEvent, LinkEventKind, RunMeta, StageSample, TraceEvent};
use gates_core::{CoreError, PayloadReader, PayloadWriter};
use gates_net::{FaultPlan, Frame, FrameKind, RetryPolicy};
use gates_sim::stats::Welford;
use gates_sim::SimDuration;

use super::DistConfig;
use crate::runtime::EdgeCursors;
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

/// A value with one wire encoding: `get` reads back what `put` wrote.
trait Wire: Sized {
    /// The fewest bytes any value of the type encodes to (at least 1). A
    /// decoded count of values is checked against it before allocating.
    const MIN: usize;

    /// Append the encoding.
    fn put(&self, w: &mut PayloadWriter);

    /// Read one value; `Err` on truncation or a malformed field.
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError>;

    /// Append a run of values; bytes override it with one bulk copy.
    fn put_run(run: &[Self], w: &mut PayloadWriter) {
        for v in run {
            v.put(w);
        }
    }

    /// Read `n` values, `n` already checked against the bytes left.
    fn get_run(n: usize, r: &mut PayloadReader) -> Result<Vec<Self>, CoreError> {
        let mut run = Vec::with_capacity(n);
        for _ in 0..n {
            run.push(Self::get(r)?);
        }
        Ok(run)
    }
}

/// `T::MIN` for the field `_field` reads, so `wire_struct!` needs no field types.
const fn min_of<S, T: Wire>(_field: fn(&S) -> &T) -> usize {
    T::MIN
}

fn bad_tag(ty: &str, tag: u8) -> CoreError {
    CoreError::PayloadDecode(format!("unknown {ty} tag {tag}"))
}

impl Wire for u8 {
    const MIN: usize = 1;
    fn put(&self, w: &mut PayloadWriter) {
        w.put_bytes(&[*self]);
    }
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
        r.get_u8()
    }
    fn put_run(run: &[u8], w: &mut PayloadWriter) {
        w.put_bytes(run);
    }
    fn get_run(n: usize, r: &mut PayloadReader) -> Result<Vec<u8>, CoreError> {
        Ok(r.get_bytes(n)?.into_vec())
    }
}

/// Fixed-width big-endian numbers.
macro_rules! wire_number {
    ($($ty:ident: $put:ident, $get:ident;)+) => {$(
        impl Wire for $ty {
            const MIN: usize = std::mem::size_of::<$ty>();
            fn put(&self, w: &mut PayloadWriter) {
                w.$put(*self);
            }
            fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
                r.$get()
            }
        }
    )+};
}

wire_number! {
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    f64: put_f64, get_f64;
}

impl Wire for bool {
    const MIN: usize = 1;
    fn put(&self, w: &mut PayloadWriter) {
        u8::from(*self).put(w);
    }
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(bad_tag("bool", tag)),
        }
    }
}

/// A presence flag, then the value if present.
impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;
    fn put(&self, w: &mut PayloadWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
        Ok(if bool::get(r)? { Some(T::get(r)?) } else { None })
    }
}

/// As a `u64`.
impl Wire for usize {
    const MIN: usize = 8;
    fn put(&self, w: &mut PayloadWriter) {
        (*self as u64).put(w);
    }
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
        usize::try_from(u64::get(r)?).map_err(|e| CoreError::PayloadDecode(e.to_string()))
    }
}

/// As whole microseconds.
impl Wire for Duration {
    const MIN: usize = 8;
    fn put(&self, w: &mut PayloadWriter) {
        (self.as_micros() as u64).put(w);
    }
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
        Ok(Duration::from_micros(u64::get(r)?))
    }
}

/// As microseconds.
impl Wire for SimDuration {
    const MIN: usize = 8;
    fn put(&self, w: &mut PayloadWriter) {
        self.as_micros().put(w);
    }
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
        Ok(SimDuration::from_micros(u64::get(r)?))
    }
}

/// A `u32` count, then the items.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;
    fn put(&self, w: &mut PayloadWriter) {
        put_counted(self, w);
    }
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
        let n = u32::get(r)? as usize;
        if n.saturating_mul(T::MIN) > r.remaining() {
            return Err(CoreError::PayloadDecode(format!("{n} items overrun the payload")));
        }
        T::get_run(n, r)
    }
}

fn put_counted<T: Wire>(run: &[T], w: &mut PayloadWriter) {
    (run.len() as u32).put(w);
    T::put_run(run, w);
}

/// As its UTF-8 bytes.
impl Wire for String {
    const MIN: usize = 4;
    fn put(&self, w: &mut PayloadWriter) {
        put_counted(self.as_bytes(), w);
    }
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
        String::from_utf8(Wire::get(r)?)
            .map_err(|e| CoreError::PayloadDecode(format!("invalid utf-8 string: {e}")))
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN: usize = T::MIN;
    fn put(&self, w: &mut PayloadWriter) {
        (**self).put(w);
    }
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
        Ok(Box::new(T::get(r)?))
    }
}

/// The fields in order.
macro_rules! wire_tuple {
    ($(($($t:ident $i:tt),+))+) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN: usize = 0 $(+ $t::MIN)+;
            fn put(&self, w: &mut PayloadWriter) {
                $(self.$i.put(w);)+
            }
            fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    )+};
}

wire_tuple! { (A 0, B 1) (A 0, B 1, C 2, D 3, E 4) }

/// As `(count, mean, m2, min, max)`, which rebuilds it losslessly.
impl Wire for Welford {
    const MIN: usize = <(u64, f64, f64, f64, f64)>::MIN;
    fn put(&self, w: &mut PayloadWriter) {
        (self.count(), self.mean(), self.m2(), self.min(), self.max()).put(w);
    }
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
        let (count, mean, m2, min, max) = Wire::get(r)?;
        Ok(Welford::from_parts(count, mean, m2, min, max))
    }
}

/// As its canonical spec string: compact, and the parser stays the
/// single source of truth for its grammar.
impl Wire for FaultPlan {
    const MIN: usize = String::MIN;
    fn put(&self, w: &mut PayloadWriter) {
        self.to_spec().put(w);
    }
    fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
        FaultPlan::parse(&String::get(r)?)
            .map_err(|e| CoreError::PayloadDecode(format!("bad fault spec: {e}")))
    }
}

/// Implement `Wire` for structs from their field lists, in wire order:
/// `put` writes the fields in the listed order and `get` reads them back
/// in it, so each field is named once for both directions.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),+ $(,)? })+) => {$(
        impl Wire for $ty {
            const MIN: usize = 0 $(+ min_of(|s: &$ty| &s.$field))+;
            fn put(&self, w: &mut PayloadWriter) {
                $(Wire::put(&self.$field, w);)+
            }
            fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
                Ok($ty { $($field: Wire::get(r)?),+ })
            }
        }
    )+};
}

/// Implement `Wire` for enums from their variant lists: a one-byte
/// tag, then the variant's fields in the listed order. A tag not listed
/// decodes to `Err`. Tags are append-only: a retired tag is never
/// reused.
macro_rules! wire_enum {
    ($($ty:ident {
        $($tag:literal => $var:ident $(($($tup:ident),+))? $({ $($field:ident),+ })?),+ $(,)?
    })+) => {$(
        impl Wire for $ty {
            const MIN: usize = 1;
            fn put(&self, w: &mut PayloadWriter) {
                match self {
                    $($ty::$var $(($($tup),+))? $({ $($field),+ })? => {
                        u8::put(&$tag, w);
                        $($(Wire::put($tup, w);)+)?
                        $($(Wire::put($field, w);)+)?
                    })+
                }
            }
            fn get(r: &mut PayloadReader) -> Result<Self, CoreError> {
                Ok(match r.get_u8()? {
                    $($tag => {
                        $($(let $tup = Wire::get(r)?;)+)?
                        $($(let $field = Wire::get(r)?;)+)?
                        $ty::$var $(($($tup),+))? $({ $($field),+ })?
                    })+
                    tag => return Err(bad_tag(stringify!($ty), tag)),
                })
            }
        }
    )+};
}

wire_struct! {
    StagePlacement { stage, worker, endpoint, speed }
    AssignMsg {
        app_xml, observe_us, adapt_us, control_latency_us, max_time_us, trace, placements,
        my_stages, config,
    }
    DistConfig {
        connect_timeout, retry, drain_window, report_grace, heartbeat_interval,
        heartbeat_timeout, checkpoint_every, max_redial, fault, ack_window, replay_retain,
    }
    RetryPolicy { max_attempts, base_delay, max_delay }
    StageReport {
        name, placed_on, packets_in, packets_out, records_in, records_out, bytes_in, bytes_out,
        packets_dropped, queue, latency, busy_time, exceptions_sent, exceptions_received, params,
    }
    ParamTrajectory { name, samples }
    RunMeta { engine, placements }
    StageSample {
        t, stage, queue_depth, packets_in, packets_out, dropped, throughput, service_time,
        bucket_wait,
    }
    AdaptRound {
        t, stage, param, policy, d_tilde, phi1, phi2, phi3, sigma1, sigma2, suggested,
        overload_sent, underload_sent, overload_received, underload_received,
    }
    LinkEvent { t, link, node, kind, detail }
}

wire_enum! {
    CtrlMsg {
        1 => Hello { name, data_addr, site, speed, capacity },
        2 => Assign(assign),
        3 => Ready { name },
        4 => Start,
        // The counters go before the stage reports.
        5 => Report { worker, lost, replayed, deduped, stalled_us, stages },
        6 => Trace(event),
        7 => EdgeHello { edge, incarnation },
        8 => Stop,
        9 => Heartbeat { name },
        10 => Checkpoint { stage, seq, crc, state, cursors },
        11 => Reject { reason },
        12 => Reassign { epoch, placements, checkpoints },
        13 => ShardRequest { group, ordinal, split },
        14 => ShardUpdate { group, epoch, map },
    }
    TraceEvent { 0 => Meta(meta), 1 => Sample(sample), 2 => Adapt(round), 3 => Link(event) }
    LinkEventKind {
        0 => Connected, 1 => Reconnecting, 2 => Reconnected, 3 => Dead, 4 => CrcDrop,
        5 => PeerEof, 6 => Drained, 7 => WorkerLost, 8 => Reassigned, 9 => Restored,
        10 => Resumed, 11 => Rejected, 12 => FaultInjected, 13 => StaleDiscarded,
        14 => CheckpointCorrupt, 15 => ReconnectExhausted, 16 => ShardSplit, 17 => ShardMerge,
        18 => Misrouted, 19 => Acked, 20 => Replayed, 21 => Deduped, 22 => Stalled,
        23 => Skipped,
    }
    LoadException { 0 => Overload, 1 => Underload }
}

fn encode(kind: FrameKind, msg: &impl Wire) -> Frame {
    let mut w = PayloadWriter::new();
    msg.put(&mut w);
    Frame { kind, stream_id: 0, seq: 0, payload: w.finish() }
}

/// Encode a control message into a `Control` frame.
pub(crate) fn encode_ctrl(msg: &CtrlMsg) -> Frame {
    encode(FrameKind::Control, msg)
}

/// Decode a `Control` frame into a message.
pub(crate) fn decode_ctrl(frame: &Frame) -> Result<CtrlMsg, CoreError> {
    if frame.kind != FrameKind::Control {
        return Err(CoreError::PayloadDecode(format!(
            "expected control frame, got {:?}",
            frame.kind
        )));
    }
    CtrlMsg::get(&mut PayloadReader::new(frame.payload.clone()))
}

/// Encode an upstream-bound load exception.
pub(crate) fn encode_exception(e: LoadException) -> Frame {
    encode(FrameKind::Exception, &e)
}

/// Decode an `Exception` frame.
pub(crate) fn decode_exception(frame: &Frame) -> Result<LoadException, CoreError> {
    LoadException::get(&mut PayloadReader::new(frame.payload.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::fmt::Debug;

    /// Passes every allocation to the system allocator and, on a thread
    /// that armed it, remembers the largest single request, so a test can
    /// bound what a decoder allocates for a given payload.
    struct PeakAlloc;

    thread_local! {
        static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn note(size: usize) {
        let _ = PEAK.try_with(|p| {
            if let Some(peak) = p.get() {
                p.set(Some(peak.max(size)));
            }
        });
    }

    // SAFETY: forwards every call to `System` unchanged.
    unsafe impl GlobalAlloc for PeakAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: PeakAlloc = PeakAlloc;

    /// `f`'s result and the largest single allocation it made.
    fn peak_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
        PEAK.with(|p| p.set(Some(0)));
        let out = f();
        (out, PEAK.with(|p| p.replace(None)).unwrap_or(0))
    }

    /// `x`'s encoding, decoded back: checks that the decoder reads exactly
    /// what the encoder wrote, and that no value encodes to fewer than
    /// `MIN` bytes (the bound the length checks rely on).
    fn put_get<T: Wire + Debug>(x: &T) -> (bytes::Bytes, T) {
        let mut w = PayloadWriter::new();
        x.put(&mut w);
        let bytes = w.finish();
        assert!(bytes.len() >= T::MIN, "{x:?} encodes to {} < MIN {}", bytes.len(), T::MIN);
        let mut r = PayloadReader::new(bytes.clone());
        let back = T::get(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "{x:?} left bytes unread");
        (bytes, back)
    }

    /// The property every wire type keeps: `get(put(x)) == x`.
    fn round_trip<T: Wire + PartialEq + Debug>(x: &T) {
        assert_eq!(&put_get(x).1, x);
    }

    /// The same property for values that may hold a NaN, which equals
    /// nothing: the decoded value re-encodes to the same bytes.
    fn round_trip_bytes<T: Wire + Debug>(x: &T) {
        let (bytes, back) = put_get(x);
        assert_eq!(put_get(&back).0, bytes, "{x:?} re-encodes differently");
    }

    /// One value of the golden corpus.
    #[derive(Debug, Clone, PartialEq)]
    enum Golden {
        Ctrl(CtrlMsg),
        Exception(LoadException),
    }

    fn golden() -> Vec<(String, Golden)> {
        let ms = Duration::from_millis;
        let placement = |stage, worker: &str, endpoint: &str, speed| StagePlacement {
            stage,
            worker: worker.into(),
            endpoint: endpoint.into(),
            speed,
        };
        let assign = |trace, config| {
            Golden::Ctrl(CtrlMsg::Assign(Box::new(AssignMsg {
                app_xml: "<application name=\"cs\" repository=\"count-samps\"/>".into(),
                observe_us: 100_000,
                adapt_us: 1_000_000,
                control_latency_us: 1_000,
                max_time_us: 60_000_000,
                trace,
                placements: vec![
                    placement(0, "w0", "127.0.0.1:4000", 1.0),
                    placement(1, "w1", "[::1]:4001", 2.5),
                ],
                my_stages: vec![1, 2],
                config,
            })))
        };
        let plain = DistConfig {
            connect_timeout: ms(2_000),
            retry: RetryPolicy { max_attempts: 6, base_delay: ms(50), max_delay: ms(1_000) },
            drain_window: ms(5_000),
            report_grace: ms(10_000),
            heartbeat_interval: ms(500),
            heartbeat_timeout: ms(3_000),
            checkpoint_every: 64,
            max_redial: ms(15_000),
            fault: None,
            ack_window: 256,
            replay_retain: 1_024,
        };
        let tuned = DistConfig {
            connect_timeout: Duration::from_micros(750_001),
            retry: RetryPolicy { max_attempts: 4, base_delay: ms(30), max_delay: ms(900) },
            drain_window: ms(1_500),
            report_grace: ms(2_500),
            heartbeat_interval: ms(120),
            heartbeat_timeout: ms(1_200),
            checkpoint_every: 7,
            max_redial: ms(9_000),
            fault: Some(
                gates_net::FaultPlan::parse(
                    "seed=7,drop=0.02,corrupt=0.005,delay=5ms..40ms,dup=0.01,\
                     partition=wc@2s+800ms,reset=0.002,ctrl=on",
                )
                .unwrap(),
            ),
            ack_window: 32,
            replay_retain: 96,
        };
        let mut queue = Welford::new();
        for x in [0.0, 4.0, 2.0, 7.0] {
            queue.push(x);
        }
        let mut latency = Welford::new();
        latency.push(0.003);
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
            queue,
            latency,
            busy_time: SimDuration::from_millis(1_234),
            exceptions_sent: (2, 9),
            exceptions_received: (0, 4),
            params: vec![
                ParamTrajectory {
                    name: "k".into(),
                    samples: vec![(0.0, 100.0), (0.2, 110.0), (0.4, 120.0)],
                },
                ParamTrajectory { name: "k1".into(), samples: Vec::new() },
            ],
        };
        // Recorded when `Welford::default()` still had min = max = 0.
        let idle = StageReport {
            name: "collector".into(),
            queue: Welford::from_parts(0, 0.0, 0.0, 0.0, 0.0),
            latency: Welford::new(),
            ..StageReport::default()
        };
        let state: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(37)).collect();
        let mut out: Vec<(String, Golden)> = vec![
            (
                "hello".into(),
                Golden::Ctrl(CtrlMsg::Hello {
                    name: "w0".into(),
                    data_addr: "127.0.0.1:4000".into(),
                    site: Some("source-0".into()),
                    speed: 1.5,
                    capacity: 4,
                }),
            ),
            (
                "hello-no-site".into(),
                Golden::Ctrl(CtrlMsg::Hello {
                    name: "w1".into(),
                    data_addr: "127.0.0.1:4001".into(),
                    site: None,
                    speed: 1.0,
                    capacity: 2,
                }),
            ),
            ("assign".into(), assign(false, plain)),
            ("assign-tuned".into(), assign(true, tuned)),
            ("ready".into(), Golden::Ctrl(CtrlMsg::Ready { name: "w2".into() })),
            ("start".into(), Golden::Ctrl(CtrlMsg::Start)),
            (
                "report".into(),
                Golden::Ctrl(CtrlMsg::Report {
                    worker: "w1".into(),
                    stages: vec![report, idle],
                    lost: 3,
                    replayed: 17,
                    deduped: 9,
                    stalled_us: 12_500,
                }),
            ),
            (
                "report-empty".into(),
                Golden::Ctrl(CtrlMsg::Report {
                    worker: "w2".into(),
                    stages: Vec::new(),
                    lost: 0,
                    replayed: 0,
                    deduped: 0,
                    stalled_us: 0,
                }),
            ),
            (
                "trace-meta".into(),
                Golden::Ctrl(CtrlMsg::Trace(TraceEvent::Meta(RunMeta {
                    engine: "dist".into(),
                    placements: vec![
                        ("source-0".into(), "w0".into()),
                        ("collector".into(), "w1".into()),
                    ],
                }))),
            ),
            (
                "trace-sample".into(),
                Golden::Ctrl(CtrlMsg::Trace(TraceEvent::Sample(StageSample {
                    t: 1.5,
                    stage: "collector".into(),
                    queue_depth: 12,
                    packets_in: 40,
                    packets_out: 0,
                    dropped: 1,
                    throughput: 26.75,
                    service_time: 0.002,
                    bucket_wait: 0.125,
                }))),
            ),
            (
                "trace-adapt".into(),
                Golden::Ctrl(CtrlMsg::Trace(TraceEvent::Adapt(AdaptRound {
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
                    overload_received: 5,
                    underload_received: 3,
                }))),
            ),
        ];
        for (i, kind) in [
            LinkEventKind::Connected,
            LinkEventKind::Reconnecting,
            LinkEventKind::Reconnected,
            LinkEventKind::Dead,
            LinkEventKind::CrcDrop,
            LinkEventKind::PeerEof,
            LinkEventKind::Drained,
            LinkEventKind::WorkerLost,
            LinkEventKind::Reassigned,
            LinkEventKind::Restored,
            LinkEventKind::Resumed,
            LinkEventKind::Rejected,
            LinkEventKind::FaultInjected,
            LinkEventKind::StaleDiscarded,
            LinkEventKind::CheckpointCorrupt,
            LinkEventKind::ReconnectExhausted,
            LinkEventKind::ShardSplit,
            LinkEventKind::ShardMerge,
            LinkEventKind::Misrouted,
            LinkEventKind::Acked,
            LinkEventKind::Replayed,
            LinkEventKind::Deduped,
            LinkEventKind::Stalled,
            LinkEventKind::Skipped,
        ]
        .into_iter()
        .enumerate()
        {
            out.push((
                format!("trace-link-{}", kind.as_str()),
                Golden::Ctrl(CtrlMsg::Trace(TraceEvent::Link(LinkEvent {
                    t: 3.0 + i as f64 / 4.0,
                    link: "summarizer-0->collector".into(),
                    node: format!("w{i}"),
                    kind,
                    detail: format!("attempt {i}"),
                }))),
            ));
        }
        out.extend([
            ("edge-hello".into(), Golden::Ctrl(CtrlMsg::EdgeHello { edge: 7, incarnation: 2 })),
            ("stop".into(), Golden::Ctrl(CtrlMsg::Stop)),
            ("heartbeat".into(), Golden::Ctrl(CtrlMsg::Heartbeat { name: "w0".into() })),
            (
                "checkpoint".into(),
                Golden::Ctrl(CtrlMsg::Checkpoint {
                    stage: 4,
                    seq: 128,
                    crc: gates_net::crc32(&state),
                    state: state.clone(),
                    cursors: vec![(2, 120), (5, 8)],
                }),
            ),
            (
                "checkpoint-empty".into(),
                Golden::Ctrl(CtrlMsg::Checkpoint {
                    stage: 0,
                    seq: 0,
                    crc: 0,
                    state: Vec::new(),
                    cursors: Vec::new(),
                }),
            ),
            (
                "reject".into(),
                Golden::Ctrl(CtrlMsg::Reject { reason: "duplicate worker name w0".into() }),
            ),
            (
                "reassign".into(),
                Golden::Ctrl(CtrlMsg::Reassign {
                    epoch: 3,
                    placements: vec![placement(0, "w1", "127.0.0.1:4001", 2.0)],
                    checkpoints: vec![
                        (0, 64, gates_net::crc32(&state), state.clone(), vec![(1, 60)]),
                        (3, 9, 0, Vec::new(), Vec::new()),
                    ],
                }),
            ),
            (
                "reassign-empty".into(),
                Golden::Ctrl(CtrlMsg::Reassign {
                    epoch: 0,
                    placements: Vec::new(),
                    checkpoints: Vec::new(),
                }),
            ),
            (
                "shard-request-split".into(),
                Golden::Ctrl(CtrlMsg::ShardRequest { group: 0, ordinal: 2, split: true }),
            ),
            (
                "shard-request-merge".into(),
                Golden::Ctrl(CtrlMsg::ShardRequest { group: 1, ordinal: 0, split: false }),
            ),
            (
                "shard-update".into(),
                Golden::Ctrl(CtrlMsg::ShardUpdate {
                    group: 0,
                    epoch: 7,
                    map: gates_core::ShardMap::uniform(4).encode(),
                }),
            ),
            (
                "shard-update-empty".into(),
                Golden::Ctrl(CtrlMsg::ShardUpdate { group: 3, epoch: 1, map: Vec::new() }),
            ),
            ("exception-overload".into(), Golden::Exception(LoadException::Overload)),
            ("exception-underload".into(), Golden::Exception(LoadException::Underload)),
        ]);
        out
    }

    fn encode_golden(g: &Golden) -> Frame {
        match g {
            Golden::Ctrl(m) => encode_ctrl(m),
            Golden::Exception(e) => encode_exception(*e),
        }
    }

    fn decode_golden(f: &Frame) -> Result<Golden, CoreError> {
        match f.kind {
            FrameKind::Exception => decode_exception(f).map(Golden::Exception),
            _ => decode_ctrl(f).map(Golden::Ctrl),
        }
    }

    /// The recorded corpus: `(name, payload)` per line of the fixture.
    fn fixture() -> Vec<(String, Vec<u8>)> {
        include_str!("../../testdata/ctrl_golden.hex")
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let (name, hex) = l.split_once(' ').expect("`<name> <hex>`");
                let bytes = (0..hex.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
                    .collect();
                (name.to_string(), bytes)
            })
            .collect()
    }

    fn frame_like(f: &Frame, payload: Vec<u8>) -> Frame {
        Frame { kind: f.kind, stream_id: 0, seq: 0, payload: payload.into() }
    }

    #[test]
    fn golden_corpus_encodes_byte_for_byte() {
        let golden = golden();
        let fixture = fixture();
        assert_eq!(golden.len(), fixture.len(), "corpus and fixture differ in length");
        for ((name, g), (fixture_name, bytes)) in golden.iter().zip(&fixture) {
            assert_eq!(name, fixture_name);
            let frame = encode_golden(g);
            assert_eq!(&frame.payload[..], &bytes[..], "{name}: wire bytes changed");
            let back = decode_golden(&frame_like(&frame, bytes.clone()));
            assert_eq!(back.as_ref().ok(), Some(g), "{name}: decodes to {back:?}");
            match g {
                Golden::Ctrl(m) => round_trip(m),
                Golden::Exception(e) => round_trip(e),
            }
        }
    }

    proptest! {
        #[test]
        fn leaf_types_round_trip(
            byte in any::<u8>(),
            word in any::<u32>(),
            wide in any::<u64>(),
            real in -1e12f64..1e12,
            flag in any::<bool>(),
            count in any::<usize>(),
            text in "\\PC{0,24}",
            site in proptest::option::of("[a-z0-9:.]{0,12}"),
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            cursors in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..8),
            xs in proptest::collection::vec(-1e6f64..1e6, 0..16),
            drop in 0.0f64..1.0,
        ) {
            round_trip(&byte);
            round_trip(&word);
            round_trip(&wide);
            round_trip(&real);
            round_trip(&flag);
            round_trip(&count);
            round_trip(&Duration::from_micros(wide));
            round_trip(&SimDuration::from_micros(wide));
            round_trip(&text);
            round_trip(&Box::new(text.clone()));
            round_trip(&site);
            round_trip(&bytes);
            round_trip(&cursors);
            round_trip(&(word, wide, word, bytes.clone(), cursors.clone()));
            let mut stats = Welford::new();
            for &x in &xs {
                stats.push(x);
            }
            round_trip(&stats);
            round_trip(&RetryPolicy {
                max_attempts: word,
                base_delay: Duration::from_micros(wide / 2),
                max_delay: Duration::from_micros(wide),
            });
            round_trip(&FaultPlan::parse(&format!("seed={wide},drop={drop}")).unwrap());
        }
    }

    /// One seeded corruption of `bytes`: overwrite, bit flip, a `u32`
    /// field set to `u32::MAX`, insertion, deletion or truncation.
    fn mutate(bytes: &[u8], rng: &mut TestRng) -> Vec<u8> {
        let mut m = bytes.to_vec();
        let at = rng.usize_in(0, m.len().max(1));
        match rng.usize_in(0, 6) {
            0 if !m.is_empty() => m[at] = rng.next_u64() as u8,
            1 if !m.is_empty() => m[at] ^= 1 << rng.usize_in(0, 8),
            2 if m.len() >= 4 => {
                let at = rng.usize_in(0, m.len() - 3);
                m[at..at + 4].copy_from_slice(&[0xFF; 4]);
            }
            3 => m.insert(at.min(m.len()), rng.next_u64() as u8),
            4 if !m.is_empty() => {
                m.remove(at);
            }
            _ => m.truncate(at),
        }
        m
    }

    /// Largest allocation a decode of a `len`-byte payload may make. A
    /// count sizes at most `len / MIN` items, and no counted item type
    /// takes more than 6× its `MIN` in memory (a `String`: 24 bytes for
    /// a 4-byte minimum); 8× leaves margin, 256 bytes an error message.
    fn alloc_bound(len: usize) -> usize {
        8 * len + 256
    }

    #[test]
    fn decoders_are_total_over_truncations_and_mutations() {
        let mutations = ProptestConfig::default().cases.max(1_000);
        for (name, g) in golden() {
            let frame = encode_golden(&g);
            for cut in 0..frame.payload.len() {
                let cut_frame = frame_like(&frame, frame.payload[..cut].to_vec());
                assert!(decode_golden(&cut_frame).is_err(), "{name} cut at {cut} decoded");
            }
            let mut rng =
                TestRng::from_seed(name.bytes().fold(0, |h, b| h.wrapping_mul(31) ^ b as u64));
            for i in 0..mutations {
                let bytes = mutate(&frame.payload, &mut rng);
                let len = bytes.len();
                let (decoded, peak) = peak_alloc(|| decode_golden(&frame_like(&frame, bytes)));
                assert!(
                    peak <= alloc_bound(len),
                    "{name} mutation {i}: a {len}-byte payload allocated {peak} bytes"
                );
                match decoded {
                    Ok(Golden::Ctrl(m)) => round_trip_bytes(&m),
                    Ok(Golden::Exception(e)) => round_trip_bytes(&e),
                    Err(_) => {}
                }
            }
        }
    }

    /// Payloads every decoder must refuse.
    fn malformed() -> Vec<(&'static str, Frame)> {
        let ctrl = |payload: Vec<u8>| Frame {
            kind: FrameKind::Control,
            stream_id: 0,
            seq: 0,
            payload: payload.into(),
        };
        let golden: std::collections::HashMap<_, _> = golden().into_iter().collect();
        let payload = |name: &str| encode_golden(&golden[name]).payload.to_vec();
        // `trace` follows the tag, `app_xml` and four `u64`s.
        let plain = payload("assign");
        let Golden::Ctrl(CtrlMsg::Assign(assign)) = &golden["assign"] else { unreachable!() };
        let mut bad_bool = plain.clone();
        let flag = 1 + 4 + assign.app_xml.len() + 4 * 8;
        assert_eq!(bad_bool[flag], 0);
        bad_bool[flag] = 2;
        // `fault: None` is the tag before the two trailing `usize`s.
        let mut bad_option = plain.clone();
        let tag = bad_option.len() - 17;
        assert_eq!(bad_option[tag], 0);
        bad_option[tag] = 2;
        let mut bad_site = payload("hello");
        let site = 1 + 4 + 2 + 4 + "127.0.0.1:4000".len();
        assert_eq!(bad_site[site], 1);
        bad_site[site] = 2;
        // `stages` is the last field of an empty report.
        let mut huge_report = payload("report-empty");
        let n = huge_report.len() - 4;
        huge_report[n..].copy_from_slice(&u32::MAX.to_be_bytes());
        huge_report.extend_from_slice(&payload("report")[..64]);
        vec![
            (
                "data frame",
                Frame { kind: FrameKind::Data, stream_id: 0, seq: 0, payload: Vec::new().into() },
            ),
            ("unknown tag", ctrl(vec![200])),
            ("bool tag 2", ctrl(bad_bool)),
            ("option tag 2", ctrl(bad_option)),
            ("site tag 2", ctrl(bad_site)),
            ("u32::MAX stages", ctrl(huge_report)),
        ]
    }

    #[test]
    fn malformed_payloads_are_refused() {
        for (what, frame) in malformed() {
            let (decoded, peak) = peak_alloc(|| decode_ctrl(&frame));
            assert!(decoded.is_err(), "{what}: decoded to {decoded:?}");
            assert!(peak <= alloc_bound(frame.payload.len()), "{what}: allocated {peak} bytes");
        }
        let bad =
            Frame { kind: FrameKind::Exception, stream_id: 0, seq: 0, payload: vec![2].into() };
        assert!(decode_exception(&bad).is_err());
    }
}
