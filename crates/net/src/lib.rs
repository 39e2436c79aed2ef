#![deny(missing_docs)]

//! # gates-net
//!
//! The network substrate for the GATES reproduction.
//!
//! The original GATES evaluation ran "within a single cluster" and
//! "introduced delay in the networks to create execution configurations
//! with different bandwidths" (paper §5). This crate is that mechanism,
//! made explicit and deterministic:
//!
//! * [`LinkSpec`] — a point-to-point link description (bandwidth, latency,
//!   buffer capacity).
//! * [`LinkModel`] — a pure store-and-forward transmission model for the
//!   virtual-time engine: given a packet size and the current clock it
//!   yields the serialization-complete and delivery times.
//! * [`TokenBucket`] — a wall-clock rate limiter for the threaded runtime,
//!   producing the same average bandwidth by telling senders how long to
//!   sleep.
//! * [`Frame`] / framing — the on-wire encoding (length-prefixed, CRC-32
//!   protected) used when stages exchange packets, so experiment byte
//!   counts come from an actual encoding rather than a guess.
//! * [`FrameStream`] / [`dial`] — the same framing carried over real
//!   `std::net` TCP sockets for the distributed runtime, with buffered
//!   streaming decode and CRC-failure skip-and-count. [`dial`] starts a
//!   nonblocking connect that a reactor source completes on
//!   writability and retries on its own deadline, on the seeded
//!   [`RetryPolicy::jittered_delay`] ladder; the blocking
//!   [`connect_with_retry`] is left for one-off dials such as a worker
//!   registering with its coordinator.
//! * [`AckWindow`] — the sender-side acked replay buffer behind the
//!   distributed runtime's at-least-once delivery: per-edge sequence
//!   numbers, cumulative delivered/durable acks, bounded retention that
//!   doubles as a credit-based backpressure window.
//! * [`FaultPlan`] / [`FaultInjector`] — the seeded, deterministic fault
//!   plane: per-frame drop/corrupt/duplicate/delay/reset decisions that
//!   are a pure function of (seed, link, frame index), applied by
//!   [`FrameStream`] on flush and by the virtual-time engine on its
//!   simulated links.

pub mod ackwin;
mod crc32;
mod fault;
mod frame;
mod link;
pub mod pool;
pub mod reactor;
pub mod reader;
mod spec;
mod token_bucket;
mod transport;

pub use ackwin::AckWindow;
pub use crc32::{crc32, Crc32};
pub use epoll::dial;
pub use fault::{derive, AppliedFault, FaultFate, FaultInjector, FaultPlan, PartitionSpec};
pub use frame::{
    decode_frame, decode_frame_slice, encode_frame, encode_frame_into, encode_segments_into, Frame,
    FrameDecodeError, FrameKind, FrameView, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
pub use link::LinkModel;
pub use pool::{BufferPool, FrozenBuf, PoolBuf, PoolStats};
pub use reactor::{Directive, Driver, Reactor, ReactorPool, Ready, Source, Token};
pub use reader::{PooledReader, READ_CHUNK};
pub use spec::{Bandwidth, FlowControl, LinkSpec};
pub use token_bucket::TokenBucket;
pub use transport::{connect_with_retry, FlushProgress, FrameStream, RetryPolicy, TransportError};
