//! The developer-facing stage API.
//!
//! A GATES application "comprises a set of stages"; each stage "accepts
//! data from one or more input streams and outputs zero or more streams"
//! (paper §3.1). Developers implement [`StreamProcessor`] — the Rust
//! equivalent of the paper's Java `StreamProcessor` interface — and
//! interact with the middleware through [`StageApi`], which carries the
//! paper's `specifyPara` / `getSuggestedValue` self-adaptation surface.

use gates_sim::{SimDuration, SimTime};

use crate::packet::Packet;
use crate::param::{AdjustmentParameter, Direction, ParamId, ParamTable};
use crate::{CoreError, Result};

/// Result of polling a source stage for data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// The source emitted zero or more packets and wants to be polled
    /// again after `next_poll` (this models the stream's arrival rate).
    Continue {
        /// Delay until the next poll.
        next_poll: SimDuration,
    },
    /// The stream has ended; the engine propagates end-of-stream.
    Done,
}

/// Per-packet processing cost, used by the executors to model service
/// time. Costs compose: `per_packet + records·per_record + bytes·per_byte`,
/// divided by the hosting node's speed factor.
///
/// This is the knob the comp-steer experiments turn: the paper's
/// "time required for post-processing was 1, 5, 8, 10, and 20 ms/byte"
/// is `CostModel::per_byte(0.001)` … `per_byte(0.020)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed seconds per packet.
    pub per_packet_s: f64,
    /// Seconds per logical record.
    pub per_record_s: f64,
    /// Seconds per payload byte.
    pub per_byte_s: f64,
}

impl CostModel {
    /// Free processing (pure forwarding).
    pub const fn zero() -> Self {
        CostModel { per_packet_s: 0.0, per_record_s: 0.0, per_byte_s: 0.0 }
    }

    /// Only a fixed per-packet cost.
    pub const fn per_packet(seconds: f64) -> Self {
        CostModel { per_packet_s: seconds, per_record_s: 0.0, per_byte_s: 0.0 }
    }

    /// Only a per-record cost.
    pub const fn per_record(seconds: f64) -> Self {
        CostModel { per_packet_s: 0.0, per_record_s: seconds, per_byte_s: 0.0 }
    }

    /// Only a per-byte cost (the comp-steer analysis model).
    pub const fn per_byte(seconds: f64) -> Self {
        CostModel { per_packet_s: 0.0, per_record_s: 0.0, per_byte_s: seconds }
    }

    /// Service time for `packet` on a node with the given speed factor
    /// (1.0 = reference speed; 2.0 = twice as fast).
    pub fn service_time(&self, packet: &Packet, speed: f64) -> SimDuration {
        assert!(speed > 0.0, "node speed must be positive");
        let secs = (self.per_packet_s
            + self.per_record_s * packet.records as f64
            + self.per_byte_s * packet.payload.len() as f64)
            / speed;
        SimDuration::from_secs_f64(secs)
    }

    /// True when all components are zero.
    pub fn is_zero(&self) -> bool {
        self.per_packet_s == 0.0 && self.per_record_s == 0.0 && self.per_byte_s == 0.0
    }
}

/// A stage's processing logic, written by the application developer.
///
/// All methods receive a [`StageApi`] for emitting packets, reading
/// suggested parameter values, and charging explicit processing cost.
pub trait StreamProcessor: 'static {
    /// Called once before any data flows. Declare adjustment parameters
    /// here with [`StageApi::specify_para`].
    fn on_start(&mut self, _api: &mut StageApi) {}

    /// Handle one input packet (never called with end-of-stream markers).
    fn process(&mut self, packet: Packet, api: &mut StageApi);

    /// For source stages (no inbound edges): produce data and say when to
    /// be polled next. The default marks the source as immediately done.
    fn poll_generate(&mut self, _api: &mut StageApi) -> SourceStatus {
        SourceStatus::Done
    }

    /// Called once after every input stream has delivered end-of-stream.
    /// Flush any pending output here; the engine then forwards EOS.
    ///
    /// On every engine it runs after every packet delivered to the stage
    /// has been processed, so a sink may compute its answer here alone.
    /// It is not called on source stages, nor when a run is stopped
    /// before its streams end.
    fn on_eos(&mut self, _api: &mut StageApi) {}

    /// Serialize this stage's replayable state for failover.
    ///
    /// The distributed runtime calls this periodically (every
    /// `checkpoint_every` input packets) and ships the bytes to the
    /// coordinator; when the hosting worker dies, a replacement stage is
    /// started from the last snapshot via [`StreamProcessor::restore`].
    ///
    /// The default returns an empty vector, which the runtime treats as
    /// "nothing to checkpoint": the replacement stage restarts fresh.
    ///
    /// Recovery is **at-least-once**: each checkpoint also records the
    /// stage's per-edge input cursors, upstream senders retain sent
    /// frames in acked replay buffers until a checkpoint covers them,
    /// and a restored stage is re-fed exactly the frames between its
    /// snapshot and the failure (receivers deduplicate by edge sequence
    /// number, so reconnect replay and chaos duplicates never
    /// double-deliver). A packet may still be *processed* more than once
    /// across a crash — snapshot state must therefore be self-contained,
    /// with no external side effects that a replayed packet would
    /// double-apply. A stage that skips checkpointing restarts fresh and
    /// opts out of replay coverage for its own inputs.
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Rebuild state from bytes produced by [`StreamProcessor::snapshot`].
    ///
    /// Called at most once, after [`StreamProcessor::on_start`] and
    /// before any data flows, on a replacement stage instance during
    /// failover. The default ignores the state (fresh restart).
    fn restore(&mut self, _state: &[u8]) {}
}

/// The middleware surface a processor sees during a callback.
///
/// Owned by the executor; `now` is refreshed before every callback and
/// emitted packets are drained afterwards.
#[derive(Debug, Default)]
pub struct StageApi {
    now: SimTime,
    params: ParamTable,
    emitted: Vec<(Option<usize>, Packet)>,
    extra_cost: SimDuration,
    eos_requested: bool,
}

impl StageApi {
    /// A fresh API (executors create one per stage instance).
    pub fn new() -> Self {
        StageApi::default()
    }

    /// Current virtual (or wall-mapped) time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Declare an adjustment parameter. Mirrors the paper's
    /// `specifyPara(init, max, min, increment, decrease)`; prefer the
    /// typed [`AdjustmentParameter`] + [`Direction`] form.
    pub fn specify_para(
        &mut self,
        name: &str,
        init: f64,
        min: f64,
        max: f64,
        increment: f64,
        direction: Direction,
    ) -> Result<ParamId> {
        let spec = AdjustmentParameter::new(name, init, min, max, increment, direction)?;
        Ok(self.params.register(spec))
    }

    /// The current middleware-suggested value for a declared parameter
    /// (the paper's `getSuggestedValue()`).
    pub fn suggested_value(&self, id: ParamId) -> Result<f64> {
        self.params.suggested(id)
    }

    /// Emit a packet downstream on **every** out edge (broadcast). Its
    /// `created_at` is stamped with the current time if unset.
    pub fn emit(&mut self, mut packet: Packet) {
        if packet.created_at == SimTime::ZERO {
            packet.created_at = self.now;
        }
        self.emitted.push((None, packet));
    }

    /// Emit a packet on a single out edge, identified by its 0-based
    /// *port* — the position of the edge among this stage's outgoing
    /// connections in topology declaration order. Lets a stage split a
    /// stream (e.g. route by key) instead of broadcasting. Emitting to a
    /// port the stage does not have silently drops the packet (executors
    /// debug-assert on it).
    pub fn emit_to(&mut self, port: usize, mut packet: Packet) {
        if packet.created_at == SimTime::ZERO {
            packet.created_at = self.now;
        }
        self.emitted.push((Some(port), packet));
    }

    /// Charge additional service time beyond the stage's static
    /// [`CostModel`] (e.g. cost proportional to a data-dependent value).
    pub fn add_cost(&mut self, cost: SimDuration) {
        self.extra_cost += cost;
    }

    /// Declare this stage's own output finished even though inputs may
    /// continue (rarely needed; sources normally end via
    /// [`SourceStatus::Done`]).
    pub fn request_eos(&mut self) {
        self.eos_requested = true;
    }

    // ---- Executor-facing accessors -------------------------------------

    /// Set the time visible to the next callback (executor use).
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Drain packets emitted during the last callback, each tagged with
    /// its destination port (`None` = broadcast). Executor use.
    pub fn take_emitted(&mut self) -> Vec<(Option<usize>, Packet)> {
        std::mem::take(&mut self.emitted)
    }

    /// Take and reset the extra service cost (executor use).
    pub fn take_extra_cost(&mut self) -> SimDuration {
        std::mem::replace(&mut self.extra_cost, SimDuration::ZERO)
    }

    /// Whether [`StageApi::request_eos`] was called (executor use).
    pub fn eos_requested(&self) -> bool {
        self.eos_requested
    }

    /// The parameter table (executor/adaptation use).
    pub fn params(&self) -> &ParamTable {
        &self.params
    }

    /// Mutable parameter table (adaptation writes suggestions here).
    pub fn params_mut(&mut self) -> &mut ParamTable {
        &mut self.params
    }

    /// Write a new suggested value (adaptation use).
    pub fn push_suggestion(&mut self, id: ParamId, value: f64) -> Result<f64> {
        self.params.set_suggested(id, value)
    }

    /// Fail with a decode error (helper for processors parsing payloads).
    pub fn decode_error(&self, msg: impl Into<String>) -> CoreError {
        CoreError::PayloadDecode(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn cost_model_components_add() {
        let m = CostModel { per_packet_s: 0.001, per_record_s: 0.0001, per_byte_s: 0.00001 };
        let p = Packet::data(0, 0, 10, Bytes::from(vec![0u8; 100]));
        // 0.001 + 10*0.0001 + 100*0.00001 = 0.003 s
        let t = m.service_time(&p, 1.0);
        assert_eq!(t.as_micros(), 3_000);
    }

    #[test]
    fn node_speed_divides_cost() {
        let m = CostModel::per_packet(0.010);
        let p = Packet::data(0, 0, 1, Bytes::new());
        assert_eq!(m.service_time(&p, 2.0).as_micros(), 5_000);
        assert_eq!(m.service_time(&p, 0.5).as_micros(), 20_000);
    }

    #[test]
    fn zero_cost_is_zero_time() {
        let p = Packet::data(0, 0, 1, Bytes::from_static(b"abc"));
        assert!(CostModel::zero().service_time(&p, 1.0).is_zero());
        assert!(CostModel::zero().is_zero());
    }

    #[test]
    #[should_panic(expected = "node speed must be positive")]
    fn zero_speed_panics() {
        let p = Packet::data(0, 0, 1, Bytes::new());
        let _ = CostModel::per_packet(1.0).service_time(&p, 0.0);
    }

    #[test]
    fn per_byte_matches_paper_units() {
        // 20 ms/byte on a 16-byte payload = 320 ms.
        let m = CostModel::per_byte(0.020);
        let p = Packet::data(0, 0, 1, Bytes::from(vec![0u8; 16]));
        assert_eq!(m.service_time(&p, 1.0).as_micros(), 320_000);
    }

    #[test]
    fn api_emit_stamps_creation_time() {
        let mut api = StageApi::new();
        api.set_now(SimTime::from_secs_f64(2.0));
        api.emit(Packet::data(0, 0, 1, Bytes::new()));
        let already = Packet::data(0, 1, 1, Bytes::new()).at(SimTime::from_secs_f64(1.0));
        api.emit(already);
        let out = api.take_emitted();
        assert_eq!(out[0].1.created_at.as_secs_f64(), 2.0);
        assert_eq!(out[0].0, None, "plain emit broadcasts");
        assert_eq!(out[1].1.created_at.as_secs_f64(), 1.0, "existing stamp preserved");
        assert!(api.take_emitted().is_empty(), "drained");
    }

    #[test]
    fn api_emit_to_tags_the_port() {
        let mut api = StageApi::new();
        api.set_now(SimTime::from_secs_f64(1.0));
        api.emit_to(2, Packet::data(0, 0, 1, Bytes::new()));
        let out = api.take_emitted();
        assert_eq!(out[0].0, Some(2));
        assert_eq!(out[0].1.created_at.as_secs_f64(), 1.0);
    }

    #[test]
    fn api_specify_para_and_read_back() {
        let mut api = StageApi::new();
        let id =
            api.specify_para("rate", 0.2, 0.01, 1.0, 0.01, Direction::IncreaseSlowsDown).unwrap();
        assert_eq!(api.suggested_value(id).unwrap(), 0.2);
        api.push_suggestion(id, 0.5).unwrap();
        assert_eq!(api.suggested_value(id).unwrap(), 0.5);
    }

    #[test]
    fn api_invalid_param_spec_propagates() {
        let mut api = StageApi::new();
        assert!(api.specify_para("bad", 2.0, 0.0, 1.0, 0.1, Direction::IncreaseSlowsDown).is_err());
    }

    #[test]
    fn api_extra_cost_accumulates_and_resets() {
        let mut api = StageApi::new();
        api.add_cost(SimDuration::from_millis(5));
        api.add_cost(SimDuration::from_millis(7));
        assert_eq!(api.take_extra_cost().as_micros(), 12_000);
        assert!(api.take_extra_cost().is_zero());
    }

    #[test]
    fn default_poll_generate_is_done() {
        struct Nop;
        impl StreamProcessor for Nop {
            fn process(&mut self, _packet: Packet, _api: &mut StageApi) {}
        }
        let mut nop = Nop;
        let mut api = StageApi::new();
        assert_eq!(nop.poll_generate(&mut api), SourceStatus::Done);
    }
}
