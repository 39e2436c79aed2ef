#![deny(missing_docs)]

//! # gates-engine
//!
//! Executors for GATES pipelines.
//!
//! Three engines run the same [`gates_core::Topology`] and produce the
//! same [`gates_core::report::RunReport`]:
//!
//! * [`DesEngine`] — a deterministic **virtual-time** executor built on
//!   the `gates-sim` discrete-event kernel. Stage service times come from
//!   each stage's cost model and its node's speed factor; links are
//!   store-and-forward models with bounded send buffers (backpressure).
//!   Every experiment in the repository runs here: a 250-virtual-second
//!   run finishes in milliseconds and is bit-for-bit repeatable.
//! * [`ThreadedEngine`] — a native-thread **wall-clock** runtime: stages
//!   scheduled onto a work-stealing core pool, bounded `crossbeam`
//!   channels as queues, and token-bucket throttles as links. It
//!   demonstrates that the same processors and the same adaptation
//!   algorithm run unchanged on real threads; the quickstart example
//!   uses it.
//! * [`DistEngine`] — a **multi-process** runtime reproducing the paper's
//!   actual deployment shape: a coordinator process (Launcher/Deployer)
//!   assigns stages to `gates-cli worker` processes and remote edges
//!   carry [`gates_net::Frame`]s over real TCP sockets, with exceptions
//!   and suggested values crossing process boundaries on the same
//!   connections.
//!
//! All engines implement the paper's execution semantics: per-stage
//! input queues observed by a [`gates_core::adapt::LoadTracker`],
//! over-/under-load exceptions flowing upstream, and one
//! [`gates_core::adapt::ParamController`] per declared adjustment
//! parameter pushing suggested values into the stage's `StageApi`.

pub mod clock;
mod des;
mod dist;
mod executor;
mod options;
mod runtime;
mod stage_core;
mod threaded;

pub use clock::{EngineClock, ManualClock, RealClock};
pub use des::DesEngine;
pub use dist::{DistConfig, DistEngine, DistWorker};
pub use options::RunOptions;
pub use threaded::ThreadedEngine;

/// Errors raised while building or running an engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The topology failed validation.
    InvalidTopology(String),
    /// Options were inconsistent.
    BadOptions(String),
    /// A worker thread panicked (threaded engine).
    WorkerPanic(String),
    /// A socket operation failed (distributed engine).
    Transport(String),
    /// A peer sent a malformed or unexpected control message.
    Protocol(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            EngineError::BadOptions(msg) => write!(f, "bad run options: {msg}"),
            EngineError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            EngineError::Transport(msg) => write!(f, "transport failure: {msg}"),
            EngineError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}
