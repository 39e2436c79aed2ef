//! The multi-process distributed runtime.
//!
//! This is the paper's actual deployment shape (§3): a coordinator
//! process plays Launcher + Deployer, and every stage runs inside a
//! worker process on some grid node. The pieces:
//!
//! * [`DistEngine`] — the coordinator. Accepts worker registrations,
//!   builds a [`gates_grid::ResourceRegistry`] from them, places stages
//!   with the matchmaker, ships each worker the application XML plus the
//!   full placement table, and collects per-stage reports (and, with a
//!   recorder attached, live trace events) when the run ends.
//! * [`DistWorker`] — one worker process (`gates-cli worker`). Registers
//!   with the coordinator, rebuilds the topology locally from the same
//!   XML, runs its assigned stages as the same
//!   [`crate::runtime::StageTask`] activations as the threaded engine,
//!   and bridges remote edges over TCP. One function, `Host::stage` in
//!   `host.rs`, wires each stage it hosts: those assigned at run start
//!   (co-assigned peers local, epoch 0) and those it adopts through
//!   failover (no local peers, checkpoint cursors, the failover epoch).
//! * [`DistConfig`] — transport tuning (timeouts, reconnect policy,
//!   drain window), chosen on the coordinator and shipped to every
//!   worker inside the assignment.
//!
//! ## Data plane
//!
//! Each topology edge whose endpoints live in different processes gets
//! exactly one TCP connection, opened by the *sending* worker to the
//! receiving worker's data listener and identified by an `EdgeHello`
//! control frame. Stream packets travel downstream as
//! [`gates_net::Frame`]s ([`gates_core::Packet::to_frame`]), paced by the
//! sender's token bucket so `LinkSpec` bandwidths apply exactly as in the
//! threaded engine; over-/under-load exceptions travel upstream as
//! `Exception` frames on the same socket, so the §4 adaptation loop runs
//! unchanged across process boundaries.
//!
//! Every data edge is **at-least-once**: the sender stamps a per-edge
//! monotonic sequence number into each frame header and retains the
//! encoded frame in an acked replay window ([`gates_net::AckWindow`],
//! bounded by [`DistConfig::ack_window`] /
//! [`DistConfig::replay_retain`]); the receiver delivers contiguously,
//! deduplicates by sequence number, and streams cumulative `Ack` frames
//! back on the same socket (coalesced by the reactor, exempt from the
//! chaos fate walk like other control traffic). A full credit window
//! parks the sending stage on the executor's timer wheel — graceful
//! backpressure instead of unbounded buffering.
//!
//! ## Robustness
//!
//! A broken data connection is re-dialed on one jittered exponential
//! ladder ([`gates_net::RetryPolicy`]), by the same reactor source that
//! sends, without a thread of its own; while dead, the sender parks on
//! its replay window and re-transmits the unacked tail once the link is
//! back (only a link whose re-dial budget runs out gives its retained
//! frames up as lost; receiver-side queue-full drops stay with the
//! receiving stage, as in the paper). A receiver
//! that sees EOF waits one [`DistConfig::drain_window`] for a reconnect,
//! then injects an end-of-stream marker so the rest of the pipeline
//! drains instead of hanging. Frames failing their CRC are counted and
//! skipped. Every such transition is recorded as a
//! [`gates_core::trace::LinkEvent`], so `--trace` shows per-link
//! reconnects and drops for distributed runs.
//!
//! Whole-worker failures go beyond link repair: workers heartbeat over
//! the control plane and ship periodic stage checkpoints
//! ([`DistConfig::checkpoint_every`]); when the coordinator loses a
//! worker (closed control connection or
//! [`DistConfig::heartbeat_timeout`] without a frame) it re-runs the
//! matchmaker over the survivors, broadcasts a `Reassign` with the new
//! placements plus the last checkpoints, and a survivor adopts the
//! stranded stages while its neighbors re-dial the new data address.
//! Recovery is **at-least-once replay**: each checkpoint records the
//! stage's per-edge input cursors alongside its state, upstream replay
//! windows retain every frame past the last durable (checkpoint-covered)
//! ack, and the re-dialing neighbors replay that tail to the adopted
//! stage — packets in flight between the last checkpoint and the
//! failure are reprocessed, not lost. Partial runs are still named in
//! [`gates_core::report::RunReport::lost_workers`], and any frames the
//! layer did give up on (redial exhaustion, retention-cap eviction)
//! are counted in [`gates_core::report::RunReport::packets_lost`].

mod coordinator;
mod host;
mod plane;
mod proto;
mod worker;

use std::time::{Duration, Instant};

use gates_net::{FrameKind, FrameStream, RetryPolicy, TransportError};

use crate::EngineError;
use proto::{decode_ctrl, CtrlMsg};

pub use coordinator::DistEngine;
pub use worker::DistWorker;

/// Read control frames from `fs` until one decodes, the peer hangs up,
/// or `deadline` passes. Non-control frames are ignored (the control
/// plane never interleaves stream data on the same socket).
pub(crate) fn read_ctrl(
    fs: &mut FrameStream,
    deadline: Instant,
    what: &str,
) -> Result<CtrlMsg, EngineError> {
    loop {
        if Instant::now() >= deadline {
            return Err(EngineError::Transport(format!("timed out waiting for {what}")));
        }
        match fs.read_frame() {
            Ok(Some(frame)) if frame.kind == FrameKind::Control => {
                return decode_ctrl(&frame).map_err(|e| EngineError::Protocol(e.to_string()))
            }
            Ok(Some(_)) => {}
            Ok(None) => {
                return Err(EngineError::Transport(format!(
                    "connection closed while waiting for {what}"
                )))
            }
            Err(TransportError::TimedOut) => {}
            Err(TransportError::Io(e)) => return Err(EngineError::Transport(e.to_string())),
        }
    }
}

/// Transport tuning for a distributed run. Built on the coordinator and
/// shipped to every worker inside the stage assignment, so one knob set
/// governs the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Reconnect ladder for data connections: after `n` failed dials in
    /// a row the next waits [`RetryPolicy::jittered_delay`]`(n)`, and the
    /// link is reported dead once `max_attempts` dials in a row have
    /// failed (it keeps re-dialing until `max_redial` runs out).
    pub retry: RetryPolicy,
    /// How long a receiver waits after a peer EOF (without a clean
    /// end-of-stream marker) before injecting one itself and letting the
    /// pipeline drain. Should exceed the retry policy's total backoff,
    /// or a transient sender outage turns into a truncated stream.
    pub drain_window: Duration,
    /// Extra wall-clock the coordinator waits beyond `max_time` for
    /// worker reports before declaring them lost.
    pub report_grace: Duration,
    /// How often each worker sends a heartbeat on its control connection
    /// once the run has started.
    pub heartbeat_interval: Duration,
    /// How long the coordinator tolerates silence (no heartbeat, trace,
    /// checkpoint, or report) on a worker's control connection before
    /// declaring the worker lost and starting failover. Must comfortably
    /// exceed `heartbeat_interval`; zero disables heartbeat detection
    /// (a closed connection is still detected immediately).
    pub heartbeat_timeout: Duration,
    /// A stage snapshots its state ([`gates_core::StreamProcessor::snapshot`])
    /// every this many input packets and ships it to the coordinator as a
    /// checkpoint; zero disables checkpointing (failover then restarts
    /// stages fresh).
    pub checkpoint_every: u64,
    /// Wall-clock budget a sender spends re-dialing one endpoint, counted
    /// from its first failed dial, before declaring the link exhausted:
    /// the link stays down until failover moves the receiver, and the
    /// event is reported once instead of retrying forever. An ack getting
    /// through, or a moved endpoint, restarts the budget.
    pub max_redial: Duration,
    /// Deterministic fault plan for this run, applied on every data and
    /// control socket by each process. `None` (the default) injects
    /// nothing and leaves the hot paths untouched.
    pub fault: Option<gates_net::FaultPlan>,
    /// Credit window per data edge: how many frames may be in flight
    /// (sent but not delivered-acked) before the sender stops ingesting
    /// and backpressure parks the stage. Also the floor of
    /// `replay_retain`.
    pub ack_window: usize,
    /// Retention cap per data edge: how many encoded frames the replay
    /// buffer keeps past the last durable (checkpoint-covered) ack
    /// before evicting delivered ones oldest-first. Sized so it
    /// comfortably covers `checkpoint_every` packets per upstream edge.
    pub replay_retain: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            connect_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            drain_window: Duration::from_secs(5),
            report_grace: Duration::from_secs(10),
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(3),
            checkpoint_every: 64,
            max_redial: Duration::from_secs(15),
            fault: None,
            ack_window: 256,
            replay_retain: 1024,
        }
    }
}

impl DistConfig {
    /// Builder: reconnect policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Builder: drain window after a peer EOF.
    pub fn drain_window(mut self, window: Duration) -> Self {
        self.drain_window = window;
        self
    }

    /// Builder: report grace beyond `max_time`.
    pub fn report_grace(mut self, grace: Duration) -> Self {
        self.report_grace = grace;
        self
    }

    /// Builder: heartbeat send interval.
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Builder: control-connection silence tolerated before a worker is
    /// declared lost (zero disables heartbeat-based detection).
    pub fn heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.heartbeat_timeout = timeout;
        self
    }

    /// Builder: checkpoint cadence in input packets per stage (zero
    /// disables checkpointing).
    pub fn checkpoint_every(mut self, packets: u64) -> Self {
        self.checkpoint_every = packets;
        self
    }

    /// Builder: total re-dial budget per endpoint before a link is
    /// declared exhausted.
    pub fn max_redial(mut self, budget: Duration) -> Self {
        self.max_redial = budget;
        self
    }

    /// Builder: deterministic fault plan for the run.
    pub fn fault(mut self, plan: gates_net::FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builder: per-edge credit window (frames in flight before the
    /// sender stalls).
    pub fn ack_window(mut self, frames: usize) -> Self {
        self.ack_window = frames;
        self
    }

    /// Builder: per-edge replay retention cap in frames.
    pub fn replay_retain(mut self, frames: usize) -> Self {
        self.replay_retain = frames;
        self
    }
}
