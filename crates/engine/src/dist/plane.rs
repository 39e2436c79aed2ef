//! Reactor-driven data plane of the distributed worker.
//!
//! Every worker socket — the data listener, each accepted in-edge, each
//! remote out-edge's sender, and (after the handshake) the control link
//! to the coordinator — is a [`Source`] registered on the reactor of one
//! of the worker's executor pool threads (a [`ReactorPool`] over the
//! first `--reactors` of them) instead of owning a blocking OS thread.
//! The reactor watches readiness (level-triggered `epoll`) and calls each
//! source's `service` exactly when there is something to do; an idle
//! data plane makes no wakeups beyond the 25 ms exception sweep on
//! attached in-edges. A sender dials with a nonblocking connect and
//! waits out its backoff as a socketless source, so no thread ever
//! blocks in `connect(2)` or sleeps between re-dials.
//!
//! Protocol behavior is kept byte-identical to the old thread-per-socket
//! plane: the same handshake, the same coalescing and reconnect
//! semantics, and the same deterministic chaos-injection points, so a
//! seeded fault run produces the same fault trace either way. What
//! changes is the cost model — reads land in recycled [`BufferPool`]
//! leases (zero allocations per packet in steady state, see
//! `gates_net::reader`), and writes go through
//! [`FrameStream::flush_nonblocking`] with write-interest armed only
//! while bytes are actually queued.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};

use gates_core::trace::LinkEventKind;
use gates_core::{Packet, ShardError};
use gates_net::{
    derive, encode_frame_into, AckWindow, AppliedFault, BufferPool, Directive, FaultInjector,
    FlushProgress, Frame, FrameKind, FrameStream, PooledReader, Reactor, ReactorPool, Ready,
    Source, Token, TransportError,
};

use super::host::{InEdge, InEdgeRegistry};
use super::proto::{decode_ctrl, decode_exception, encode_ctrl, encode_exception, CtrlMsg};
use super::worker::{DeliveryStats, LinkReporter};
use super::DistConfig;
use crate::executor::WakeHub;
use crate::runtime::{Control, EdgeCredit, Queued, RemoteWake};

/// How often an attached in-edge sweeps for stage exceptions to relay
/// upstream (and for partition flips). The old thread plane polled its
/// socket every `read_timeout` (100 ms default); 25 ms strictly tightens
/// exception latency while staying cheap.
const EXC_SWEEP: Duration = Duration::from_millis(25);

/// Retry cadence when a delivery into a full blocking stage queue is
/// parked (mirror of the old 10 ms blocking `send_timeout` loop).
const DELIVER_RETRY: Duration = Duration::from_millis(5);

/// Registry-lookup retry cadence while an `EdgeHello` names an edge this
/// worker has not (yet) registered — failover re-dials race `Reassign`.
const LOOKUP_RETRY: Duration = Duration::from_millis(10);

/// Cap on the bytes a sender coalesces into one socket write. Past this
/// the batch flushes even if more packets are waiting, bounding both the
/// encode buffer and the burst a reconnect might have to replay.
pub(super) const MAX_COALESCED_BYTES: usize = 256 * 1024;

/// `stream_id` tags on [`FrameKind::Ack`] frames; the frame's `seq`
/// field carries the cursor. All flow receiver → sender except
/// [`ACK_SKIP`]. Ack frames are control traffic: the chaos fate walk
/// never touches them.
///
/// Cumulative delivered cursor: on a blocking edge, everything `<= seq`
/// was *dequeued* by the receiving stage; on a lossy edge, it reached
/// the stage's queue. Opens sender credit, so a blocking edge has at
/// most its credit window of packets waiting at the receiver; retained
/// frames stay for possible failover replay until a durable ack covers
/// them.
pub(super) const ACK_DELIVERED: u32 = 0;
/// The receiver is missing `seq + 1` but has seen later frames: replay
/// everything retained past `seq`. Opens no credit: `seq` is the queue
/// cursor, which on a blocking edge runs ahead of what was consumed.
pub(super) const ACK_NAK: u32 = 1;
/// A checkpoint covering everything `<= seq` was relayed toward the
/// coordinator: the sender may trim its replay retention to `seq`.
pub(super) const ACK_DURABLE: u32 = 2;
/// Sender → receiver: a NAK asked for frames below the sender's
/// retention floor. Jump the delivery cursor to `seq` and count the
/// gap as lost instead of re-requesting forever.
pub(super) const ACK_SKIP: u32 = 3;

/// Build a payload-less ack frame (tag in `stream_id`, cursor in `seq`).
fn ack_frame(tag: u32, seq: u64) -> Frame {
    Frame { kind: FrameKind::Ack, stream_id: tag, seq, payload: Bytes::new() }
}

/// No interest in the socket (if any); service again at `at`.
fn park(at: Option<Instant>) -> Directive {
    Directive { want_read: false, want_write: false, deadline: at, close: false }
}

/// Shared list of every registered source's wake handle. Stop and
/// partition flips nudge all of them so parked sources re-check the
/// flags instead of waiting out a deadline. Senders re-register under a
/// new token whenever their socket changes, so they are listed by
/// their wake handle (which follows them) and the stage they dial.
#[derive(Clone, Default)]
pub(super) struct NotifyList {
    inner: Arc<Mutex<Nudges>>,
}

#[derive(Default)]
struct Nudges {
    sources: Vec<(Reactor, Token)>,
    senders: Vec<(usize, Arc<RemoteWake>)>,
}

impl NotifyList {
    fn lock(&self) -> std::sync::MutexGuard<'_, Nudges> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub(super) fn add(&self, reactor: Reactor, token: Token) {
        self.lock().sources.push((reactor, token));
    }

    /// List the sender behind `wake`, which dials stage `to_stage`.
    pub(super) fn add_sender(&self, to_stage: usize, wake: Arc<RemoteWake>) {
        self.lock().senders.push((to_stage, wake));
    }

    pub(super) fn notify_all(&self) {
        let nudges = self.lock();
        for (r, t) in &nudges.sources {
            r.notify(*t);
        }
        for (_, wake) in &nudges.senders {
            wake.nudge();
        }
    }

    fn nudge_senders_to(&self, stage: usize) {
        for (_, wake) in self.lock().senders.iter().filter(|(to, _)| *to == stage) {
            wake.nudge();
        }
    }
}

/// Everything a freshly accepted data connection needs, cloned once per
/// listener instead of once per connection spawn.
#[derive(Clone)]
pub(super) struct PlaneCtx {
    pub(super) reg: InEdgeRegistry,
    pub(super) stop: Arc<AtomicBool>,
    pub(super) partitioned: Arc<AtomicBool>,
    pub(super) cfg: DistConfig,
    pub(super) buffers: BufferPool,
    pub(super) reactors: Arc<ReactorPool>,
    pub(super) notify: NotifyList,
}

/// Accepts incoming data connections on a nonblocking listener and
/// registers each as a [`DataInSource`] on the reactor pool. A
/// partitioned node is unreachable: the dialer's socket is dropped on
/// the floor, exactly like the old accept loop.
pub(super) struct ListenerSource {
    listener: TcpListener,
    ctx: PlaneCtx,
}

impl ListenerSource {
    pub(super) fn new(listener: TcpListener, ctx: PlaneCtx) -> ListenerSource {
        ListenerSource { listener, ctx }
    }
}

impl Source for ListenerSource {
    fn fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }

    fn service(&mut self, _ready: Ready, now: Instant) -> Directive {
        loop {
            if self.ctx.stop.load(Ordering::Relaxed) {
                return Directive::close();
            }
            match accept_data(&self.listener) {
                Ok(socket) => {
                    if self.ctx.partitioned.load(Ordering::Relaxed) {
                        continue;
                    }
                    let reactor = self.ctx.reactors.pick();
                    let token = reactor.register_with(|token| {
                        let me = (reactor.clone(), token);
                        Box::new(DataInSource::new(socket, self.ctx.clone(), now, me))
                    });
                    self.ctx.notify.add(reactor, token);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient accept errors (EMFILE, aborted handshakes):
                // back off briefly rather than spinning on the ready fd.
                Err(_) => return Directive::read().with_deadline(now + Duration::from_millis(50)),
            }
        }
        Directive::read()
    }
}

/// Accept one data connection. Its acks and exception frames are small
/// writes the peer waits for: with Nagle on, each could sit behind the
/// peer's delayed ACK for tens of milliseconds.
fn accept_data(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (socket, _peer) = listener.accept()?;
    socket.set_nodelay(true)?;
    Ok(socket)
}

/// Where one accepted data connection is in its lifecycle.
enum InState {
    /// Waiting for the identifying `EdgeHello` control frame.
    Hello,
    /// Hello seen (edge id, sender incarnation); waiting for the named
    /// edge to appear in the registry (failover re-dials can beat this
    /// worker's own `Reassign`).
    Lookup(u32, u64),
    /// Pumping frames into the receiving stage.
    Attached(Arc<InEdge>),
}

/// A delivery that found the stage queue full on a blocking edge: the
/// routing decision is captured so the retry does not re-route (or
/// re-log) the packet.
enum Held {
    /// Into the edge's own stage queue.
    Stage(Queued),
    /// Re-route to a sibling replica's queue (shard-ownership fixup).
    Sibling(Queued, Sender<Queued>, u32),
    /// The edge's single end-of-stream marker.
    Eos(Queued),
}

/// One accepted data connection, reactor-driven: `EdgeHello` →
/// registry lookup → pump. Frames decode zero-copy out of pooled read
/// buffers; exception frames ride the same socket upstream.
pub(super) struct DataInSource {
    stream: TcpStream,
    reader: PooledReader,
    /// Encoded exception and ack frames awaiting a (nonblocking) write.
    out: BytesMut,
    state: InState,
    ctx: PlaneCtx,
    /// This connection's own reactor and token, for the credit wake.
    me: (Reactor, Token),
    /// Credit of the attached edge's current sequence space: tagged onto
    /// every delivered packet, acked back as the stage consumes.
    credit: Option<Arc<EdgeCredit>>,
    /// At most one parked delivery: decoding pauses while it waits for
    /// queue space, so backpressure reaches the socket (and the sender).
    held: Option<Held>,
    /// Link sequence number of the parked delivery; the edge cursor
    /// advances only once the packet actually lands in a queue.
    held_seq: Option<u64>,
    /// Highest link sequence number seen on *this* connection; a gap
    /// between it and the edge cursor drives the NAK request.
    highest_seen: u64,
    /// Last delivered cursor acked upstream (suppresses no-op acks).
    last_acked: u64,
    /// Last durable cursor acked upstream.
    last_durable: u64,
    /// Last NAK sent `(cursor, when)`: one request per cursor value per
    /// sweep, so a persistent gap does not flood the upstream path.
    last_nak: Option<(u64, Instant)>,
    /// This source performed the `eos_forwarded` swap and owns delivery
    /// of the (possibly parked) end-of-stream marker.
    eos_claimed: bool,
    crc_seen: u64,
    hello_deadline: Instant,
    lookup_deadline: Instant,
}

impl DataInSource {
    fn new(stream: TcpStream, ctx: PlaneCtx, now: Instant, me: (Reactor, Token)) -> DataInSource {
        let reader = PooledReader::new(ctx.buffers.clone());
        let hello_deadline = now + ctx.cfg.connect_timeout;
        let lookup_deadline = now + 2 * ctx.cfg.connect_timeout;
        DataInSource {
            stream,
            reader,
            out: BytesMut::new(),
            state: InState::Hello,
            ctx,
            me,
            credit: None,
            held: None,
            held_seq: None,
            highest_seen: 0,
            last_acked: 0,
            last_durable: 0,
            last_nak: None,
            eos_claimed: false,
            crc_seen: 0,
            hello_deadline,
            lookup_deadline,
        }
    }

    /// Decode the next buffered frame, filling from the socket as
    /// needed.
    fn read_step(&mut self) -> ReadStep {
        loop {
            match self.reader.next_frame() {
                Ok(Some(f)) => return ReadStep::Frame(f),
                Ok(None) => {}
                // Untrustworthy length prefix: the stream is poisoned.
                Err(e) => return ReadStep::Err(e.to_string()),
            }
            match self.reader.fill(&mut (&self.stream)) {
                Ok(0) => {
                    return if self.reader.pending() > 0 {
                        ReadStep::Err("connection closed mid-frame".into())
                    } else {
                        ReadStep::Eof
                    }
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ReadStep::Idle,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return ReadStep::Err(e.to_string()),
            }
        }
    }

    /// Route one packet toward its stage queue without blocking; a full
    /// blocking queue hands the packet back as a [`Held`] to retry.
    fn route(&mut self, ie: &Arc<InEdge>, packet: Packet, seq: u64) -> Option<Held> {
        if !packet.is_eos()
            && ie.announce_resume.load(Ordering::Relaxed)
            && ie.announce_resume.swap(false, Ordering::Relaxed)
        {
            ie.reporter.record(LinkEventKind::Resumed, "first packet after failover");
        }
        let credit = self.credit.clone().expect("an attached connection has a credit");
        let queued = Queued { packet, credit: Some((credit, seq)) };
        if queued.packet.is_eos() {
            // Exactly-once: a reconnecting sender re-sends nothing, but
            // a drain-injected marker may race a late real one.
            if !self.eos_claimed {
                if ie.eos_forwarded.swap(true, Ordering::SeqCst) {
                    return None;
                }
                self.eos_claimed = true;
            }
            return self.push_eos(ie, queued);
        }
        // Ownership check: a sender that routed with a shard map older
        // than a mid-flight split/merge (or a placement-table race
        // during Reassign) may aim a key at the wrong replica. Re-route
        // to the owning sibling when it lives in this process, else
        // reject with the typed error — never process on the wrong
        // shard.
        if let Some(sh) = &ie.shard {
            let key = queued.packet.key;
            let owner = sh.router.route(key) as u32;
            if owner != sh.ordinal {
                let err = ShardError::WrongShard { key, owner, delivered_to: sh.ordinal };
                match sh.siblings.get(&owner) {
                    Some((tx, wake)) => {
                        ie.reporter
                            .record(LinkEventKind::Misrouted, format!("{err}; re-routed locally"));
                        let (tx, wake) = (tx.clone(), *wake);
                        if ie.blocking {
                            return match tx.try_send(queued) {
                                Ok(()) => {
                                    ie.hub.wake(wake);
                                    None
                                }
                                Err(TrySendError::Full(q)) => Some(Held::Sibling(q, tx, wake)),
                                Err(TrySendError::Disconnected(_)) => None,
                            };
                        }
                        if tx.try_send(queued).is_ok() {
                            ie.hub.wake(wake);
                        } else {
                            ie.drops.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    None => {
                        ie.drops.fetch_add(1, Ordering::Relaxed);
                        ie.reporter.record(
                            LinkEventKind::Misrouted,
                            format!("{err}; owner not local, rejected"),
                        );
                    }
                }
                return None;
            }
        }
        if ie.blocking {
            return match ie.data_tx.try_send(queued) {
                Ok(()) => {
                    ie.wake_receiver();
                    None
                }
                Err(TrySendError::Full(q)) => Some(Held::Stage(q)),
                Err(TrySendError::Disconnected(_)) => None,
            };
        }
        if ie.data_tx.try_send(queued).is_ok() {
            ie.wake_receiver();
        } else {
            ie.drops.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    fn push_eos(&mut self, ie: &Arc<InEdge>, queued: Queued) -> Option<Held> {
        match ie.data_tx.try_send(queued) {
            Ok(()) => {
                ie.wake_receiver();
                self.eos_claimed = false;
                None
            }
            Err(TrySendError::Full(p)) => Some(Held::Eos(p)),
            Err(TrySendError::Disconnected(_)) => {
                self.eos_claimed = false;
                None
            }
        }
    }

    /// Retry the parked delivery; true when the lane is clear again.
    fn retry_held(&mut self, ie: &Arc<InEdge>) -> bool {
        let Some(held) = self.held.take() else { return true };
        let back = match held {
            Held::Stage(p) => match ie.data_tx.try_send(p) {
                Ok(()) => {
                    ie.wake_receiver();
                    None
                }
                Err(TrySendError::Full(p)) => Some(Held::Stage(p)),
                Err(TrySendError::Disconnected(_)) => None,
            },
            Held::Sibling(p, tx, wake) => match tx.try_send(p) {
                Ok(()) => {
                    ie.hub.wake(wake);
                    None
                }
                Err(TrySendError::Full(p)) => Some(Held::Sibling(p, tx, wake)),
                Err(TrySendError::Disconnected(_)) => None,
            },
            Held::Eos(p) => self.push_eos(ie, p),
        };
        self.held = back;
        self.held.is_none()
    }

    /// Drain stage exceptions into the out buffer.
    fn queue_exceptions(&mut self, ie: &Arc<InEdge>) {
        while let Ok(msg) = ie.exc_rx.try_recv() {
            if let Control::Exception(e) = msg {
                encode_frame_into(&encode_exception(e), &mut self.out);
            }
        }
    }

    /// What the sender may count as delivered: on a blocking edge only
    /// what the stage dequeued, so the sender's credit window bounds the
    /// packets waiting here; on a lossy edge, arrival in the queue.
    fn delivered(&self, ie: &InEdge) -> u64 {
        match (&self.credit, ie.blocking) {
            (Some(credit), true) => credit.consumed(),
            _ => ie.cursor.load(Ordering::Acquire),
        }
    }

    /// Queue at-least-once acks for the sender: cumulative delivered
    /// and durable cursors when they moved, plus (throttled) a NAK when
    /// this connection has seen past a gap the stage never received.
    /// NAKs are suppressed while a delivery is parked — the "gap" would
    /// just be the held frame itself.
    fn queue_acks(&mut self, ie: &Arc<InEdge>, now: Instant) {
        let delivered = self.delivered(ie);
        if delivered > self.last_acked {
            encode_frame_into(&ack_frame(ACK_DELIVERED, delivered), &mut self.out);
            self.last_acked = delivered;
        }
        let cursor = ie.cursor.load(Ordering::Acquire);
        let durable = ie.durable.load(Ordering::Acquire);
        if durable > self.last_durable {
            encode_frame_into(&ack_frame(ACK_DURABLE, durable), &mut self.out);
            self.last_durable = durable;
        }
        if self.highest_seen > cursor && self.held.is_none() {
            let due = match self.last_nak {
                Some((c, at)) => c != cursor || now.duration_since(at) >= EXC_SWEEP,
                None => true,
            };
            if due {
                encode_frame_into(&ack_frame(ACK_NAK, cursor), &mut self.out);
                self.last_nak = Some((cursor, now));
            }
        }
    }

    /// Flush what fits of the upstream-bound buffer (exceptions and
    /// acks). Returns whether unsent bytes remain (write interest).
    fn pump_out(&mut self) -> bool {
        while !self.out.is_empty() {
            match (&self.stream).write(&self.out) {
                Ok(0) => break,
                Ok(n) => {
                    let _ = self.out.split_to(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // The read path will observe and report the broken
                // socket; just stop writing.
                Err(_) => {
                    self.out.clear();
                    break;
                }
            }
        }
        !self.out.is_empty()
    }
}

enum ReadStep {
    Frame(Frame),
    Idle,
    Eof,
    Err(String),
}

impl Source for DataInSource {
    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    fn service(&mut self, _ready: Ready, now: Instant) -> Directive {
        if self.ctx.stop.load(Ordering::Relaxed) {
            // Engine shutdown, not a link failure: one last held-packet
            // attempt (mirror of the old stop-path try_send) and one
            // last ack, so a sender waiting on the final credit can
            // finish, then out.
            if let InState::Attached(ie) = &self.state {
                let ie = Arc::clone(ie);
                self.retry_held(&ie);
                self.queue_acks(&ie, now);
                self.pump_out();
            }
            return Directive::close();
        }
        if self.ctx.partitioned.load(Ordering::Relaxed) {
            // Partition cut on the receiving side: sever the connection
            // so the sender's end fails fast instead of silently
            // queuing into a black hole.
            if let InState::Attached(ie) = &self.state {
                ie.reporter.record(LinkEventKind::PeerEof, "injected partition cut");
            }
            return Directive::close();
        }
        loop {
            match &self.state {
                InState::Hello => {
                    return match self.read_step() {
                        ReadStep::Frame(f) if f.kind == FrameKind::Control => {
                            match decode_ctrl(&f) {
                                Ok(CtrlMsg::EdgeHello { edge, incarnation }) => {
                                    self.state = InState::Lookup(edge, incarnation);
                                    continue;
                                }
                                _ => Directive::close(),
                            }
                        }
                        ReadStep::Frame(_) | ReadStep::Eof | ReadStep::Err(_) => Directive::close(),
                        ReadStep::Idle => {
                            if now >= self.hello_deadline {
                                Directive::close()
                            } else {
                                Directive::read().with_deadline(self.hello_deadline)
                            }
                        }
                    };
                }
                InState::Lookup(edge, incarnation) => {
                    let incarnation = *incarnation;
                    let found = self
                        .ctx
                        .reg
                        .read()
                        .unwrap_or_else(|p| p.into_inner())
                        .get(edge)
                        .map(Arc::clone);
                    match found {
                        Some(ie) => {
                            // Sequence-space attach: a hello from a new
                            // sender incarnation (a replacement stage
                            // adopted at some failover epoch) numbers
                            // its frames from 1 again, so the delivery
                            // cursor restarts; the same incarnation
                            // reconnecting resumes the old space. On an
                            // edge restored from a checkpoint (sentinel
                            // still unset) the original sender — born
                            // in an older epoch — resumes against the
                            // restored cursor.
                            let stored = ie.sender_incarnation.load(Ordering::Acquire);
                            let reset = if stored == u64::MAX {
                                incarnation >= ie.adoption_epoch
                            } else {
                                incarnation != stored
                            };
                            let credit = {
                                let mut credit =
                                    ie.credit.lock().unwrap_or_else(|p| p.into_inner());
                                if reset {
                                    ie.cursor.store(0, Ordering::Release);
                                    ie.durable.store(0, Ordering::Release);
                                    *credit = EdgeCredit::new(0, ie.blocking);
                                }
                                Arc::clone(&credit)
                            };
                            credit.ack.install(self.me.0.clone(), self.me.1);
                            self.credit = Some(credit);
                            ie.sender_incarnation.store(incarnation, Ordering::Release);
                            let nth = ie.connections.fetch_add(1, Ordering::Relaxed);
                            ie.connected.store(true, Ordering::Relaxed);
                            *ie.disconnected_at.lock().unwrap_or_else(|p| p.into_inner()) = None;
                            ie.reporter.record(
                                if nth == 0 {
                                    LinkEventKind::Connected
                                } else {
                                    LinkEventKind::Reconnected
                                },
                                format!("connection {}", nth + 1),
                            );
                            self.state = InState::Attached(ie);
                            continue;
                        }
                        None if now >= self.lookup_deadline => return Directive::close(),
                        // Park without read interest: buffered data must
                        // not spin the reactor while we wait for the
                        // edge to register.
                        None => return park(Some(now + LOOKUP_RETRY)),
                    }
                }
                InState::Attached(ie) => {
                    let ie = Arc::clone(ie);
                    self.queue_exceptions(&ie);
                    if !self.retry_held(&ie) {
                        // Still backed up: keep the socket unread so the
                        // pressure propagates, retry shortly.
                        let want_write = self.pump_out();
                        return Directive { want_write, ..park(Some(now + DELIVER_RETRY)) };
                    }
                    if let Some(seq) = self.held_seq.take() {
                        // The parked delivery landed: its sequence slot
                        // is consumed now (and only now), so a crash
                        // between hold and landing replays the packet.
                        ie.cursor.fetch_max(seq, Ordering::AcqRel);
                    }
                    let mut dead: Option<String> = None;
                    loop {
                        match self.read_step() {
                            ReadStep::Frame(f) => match f.kind {
                                FrameKind::Data | FrameKind::Summary | FrameKind::Eos => {
                                    self.highest_seen = self.highest_seen.max(f.seq);
                                    let cursor = ie.cursor.load(Ordering::Acquire);
                                    if f.seq <= cursor {
                                        // Already delivered: a chaos
                                        // duplicate or an over-covering
                                        // replay. Dropping it here (before
                                        // routing) is what makes replayed
                                        // EOS markers idempotent.
                                        ie.stats.deduped.fetch_add(1, Ordering::Relaxed);
                                        ie.reporter.record(
                                            LinkEventKind::Deduped,
                                            format!("seq {} at cursor {cursor}", f.seq),
                                        );
                                    } else if f.seq == cursor + 1 {
                                        // Contiguous. An undecodable
                                        // payload still consumes the slot:
                                        // the sender's frame arrived, and
                                        // re-requesting it cannot fix it.
                                        if let Ok(packet) = Packet::from_frame(&f) {
                                            self.held = self.route(&ie, packet, f.seq);
                                            if self.held.is_some() {
                                                self.held_seq = Some(f.seq);
                                                break;
                                            }
                                        }
                                        ie.cursor.fetch_max(f.seq, Ordering::AcqRel);
                                        self.last_nak = None;
                                    }
                                    // else: a gap — frames past a loss are
                                    // discarded and re-requested via NAK,
                                    // keeping delivery strictly in order.
                                }
                                FrameKind::Ack if f.stream_id == ACK_SKIP => {
                                    // The sender no longer retains the
                                    // frames we are missing: jump forward
                                    // and account the gap as lost.
                                    let cursor = ie.cursor.load(Ordering::Acquire);
                                    if f.seq > cursor {
                                        let gap = f.seq - cursor;
                                        ie.stats.lost.fetch_add(gap, Ordering::Relaxed);
                                        ie.cursor.fetch_max(f.seq, Ordering::AcqRel);
                                        self.last_nak = None;
                                        ie.reporter.record(
                                            LinkEventKind::Skipped,
                                            format!(
                                                "cursor {cursor} -> {}: {gap} frames lost \
                                                 upstream of retention",
                                                f.seq
                                            ),
                                        );
                                    }
                                }
                                _ => {}
                            },
                            ReadStep::Idle => break,
                            ReadStep::Eof => {
                                dead = Some("connection closed".into());
                                break;
                            }
                            ReadStep::Err(e) => {
                                dead = Some(e);
                                break;
                            }
                        }
                    }
                    let crc = self.reader.crc_failures();
                    if crc > self.crc_seen {
                        ie.reporter.record(
                            LinkEventKind::CrcDrop,
                            format!("{crc} corrupted frames total"),
                        );
                        self.crc_seen = crc;
                    }
                    if let Some(why) = dead {
                        ie.reporter.record(LinkEventKind::PeerEof, why);
                        return Directive::close();
                    }
                    self.queue_acks(&ie, now);
                    let want_write = self.pump_out();
                    // Wait for the stage's next dequeue; one that raced
                    // the ack above is acked on the next service.
                    if let Some(credit) = self.credit.as_ref().filter(|_| ie.blocking) {
                        credit.ack.arm();
                        if credit.consumed() > self.last_acked {
                            credit.ack.ping();
                        }
                    }
                    if self.held.is_some() {
                        return Directive { want_write, ..park(Some(now + DELIVER_RETRY)) };
                    }
                    // Idle: wake on data, sweep for exceptions, acks
                    // (and partition flips) on a coarse timer.
                    return Directive {
                        want_write,
                        ..Directive::read().with_deadline(now + EXC_SWEEP)
                    };
                }
            }
        }
    }

    fn closed(&mut self) {
        // Engine shutdown leaves the connected flag alone so the drain
        // monitor does not misread an orderly stop as a dead link.
        if self.ctx.stop.load(Ordering::Relaxed) {
            return;
        }
        if let InState::Attached(ie) = &self.state {
            ie.connected.store(false, Ordering::Relaxed);
            *ie.disconnected_at.lock().unwrap_or_else(|p| p.into_inner()) = Some(Instant::now());
        }
    }
}

/// How long a stopping worker's sender may keep dialing and flushing
/// (end-of-stream markers, trailing acks) before it gives up.
const STOP_GRACE: Duration = Duration::from_secs(1);

/// What every remote out-edge sender of one worker shares. The last
/// sender to end drops the last clone of `_done`.
pub(super) struct SenderCtx {
    /// The worker's live view of every stage's data endpoint, rewritten
    /// by `Reassign` messages through [`SenderCtx::set_endpoint`].
    pub(super) endpoints: RwLock<Vec<String>>,
    pub(super) cfg: DistConfig,
    /// Run seed (or worker-name seed) each edge's backoff jitter derives
    /// from, so no two links sync their retry storms.
    pub(super) jitter_root: u64,
    pub(super) partitioned: Arc<AtomicBool>,
    pub(super) stop: Arc<AtomicBool>,
    pub(super) reactors: Arc<ReactorPool>,
    pub(super) notify: NotifyList,
    /// Wake hub of the stages writing into the bridges.
    pub(super) hub: Arc<WakeHub>,
    pub(super) stats: DeliveryStats,
    /// Held until the worker's shutdown waits for every sender to end.
    pub(super) _done: Sender<()>,
}

impl SenderCtx {
    fn endpoint(&self, stage: usize) -> String {
        // A poisoned table (a panicking reader elsewhere) still holds
        // valid endpoints; recover instead of cascading the panic.
        self.endpoints.read().unwrap_or_else(|p| p.into_inner())[stage].clone()
    }

    /// Move stage `stage` to `endpoint`, waking the senders aimed at it
    /// so a down one re-dials the replacement at once.
    pub(super) fn set_endpoint(&self, stage: usize, endpoint: String) {
        let mut endpoints = self.endpoints.write().unwrap_or_else(|p| p.into_inner());
        if std::mem::replace(&mut endpoints[stage], endpoint) != endpoints[stage] {
            drop(endpoints);
            self.notify.nudge_senders_to(stage);
        }
    }
}

/// The wiring of one remote out-edge, owned by its [`SenderConn`].
pub(super) struct OutEdge {
    pub(super) edge: u32,
    /// Receiving stage index — the key into the placement table.
    pub(super) to_stage: usize,
    /// Sequence-space incarnation stamped into the edge hello: zero for
    /// run-start senders, the failover epoch for adopted ones. The
    /// receiver resets its cursor when the incarnation changes.
    pub(super) incarnation: u64,
    /// The bridge channel the sending stage writes into.
    pub(super) rx: Receiver<Queued>,
    /// Control channel of the sending stage (relayed exceptions).
    pub(super) upstream: Sender<Control>,
    /// Drop counter of the *sending* stage: packets a link whose
    /// re-dial budget ran out has no room for.
    pub(super) drops: Arc<AtomicU64>,
    pub(super) reporter: LinkReporter,
    /// Wake key of the sending stage, woken when it is blocked on a full
    /// bridge and packets were taken.
    pub(super) producer: u32,
    /// Acked replay window: frames stay here until the receiver's
    /// cumulative delivered ack confirms them, and every new connection
    /// replays from it before sending anything new.
    pub(super) window: AckWindow,
}

/// One live connection of a [`SenderConn`].
struct Conn {
    fs: FrameStream,
    /// The window's delivered cursor when the dial completed: a
    /// connection that ends with no ack past it was a failed dial.
    acked_at_dial: u64,
    /// The credit window is full: ingestion is paused and backpressure
    /// is backing the bridge (and the stage behind it) up.
    credit_blocked: bool,
    /// When the current credit stall began, for `stalled_us` accounting.
    stall_started: Option<Instant>,
    /// Peer half-closed: no ack can ever arrive on this connection.
    peer_eof: bool,
    crc_seen: u64,
    /// An injected delay is pending: flush resumes at this instant.
    stall_until: Option<Instant>,
}

impl Conn {
    fn backlog(&self) -> bool {
        self.fs.queued_len() > 0 || self.fs.has_staged()
    }
}

/// Where a [`SenderConn`] is in its connection lifecycle.
enum Phase {
    /// No socket. The sender stashes bridge packets into the replay
    /// window, dials when the retry ladder's next rung is due, and
    /// otherwise waits for a notify: a partition heal, a moved
    /// endpoint, stop, or bridge traffic it has room for.
    Down,
    /// A nonblocking connect in flight, abandoned at `deadline`.
    Dialing { fs: FrameStream, deadline: Instant },
    /// Connected: the hello and the replay went out ahead of new traffic.
    Live(Conn),
}

/// Sender side of one remote out-edge, for the edge's whole life, as a
/// reactor source: it dials with a nonblocking connect, backs off on
/// one retry ladder, stashes into the replay window while the link is
/// down, and follows failover to a moved endpoint. While live it
/// coalesces bridge-channel packets into single writes (up to
/// [`MAX_COALESCED_BYTES`]), relays upstream-bound exception frames,
/// and applies the link's seeded fault injector at fixed per-frame
/// points, so a seed replays the same fault trace.
///
/// The ladder: after `n` failed dials in a row the next one waits
/// `retry.jittered_delay(n)`, capped at `retry.max_delay`. A failed
/// connect and a connection that ends before any ack gets through both
/// count as failed dials. A completed connect restarts the count, so a
/// peer that accepts and drops (a partitioned worker) is re-dialed on
/// the first rung and reached soon after it heals. `max_redial` runs
/// from the first failed dial until an ack gets through or failover
/// moves the endpoint; once spent, the link reports
/// `ReconnectExhausted` once and stays down until failover moves it.
///
/// The reactor polls an fd fixed at registration, so a service that
/// opens or drops the socket ends by closing the registration, and the
/// sender registers again under a new token (see [`Registration`]).
pub(super) struct SenderConn {
    ctx: Arc<SenderCtx>,
    edge: OutEdge,
    /// Emit-path wake handle shared with the sending stage's `OutPort`;
    /// it always points at the current registration.
    wake: Arc<RemoteWake>,
    reactor: Reactor,
    phase: Phase,
    /// Bumped whenever the socket changes.
    socket: u64,
    /// The socket the last phase change dropped: it is closed only once
    /// the reactor has stopped polling it.
    retired: Option<FrameStream>,
    /// The link's fault injector while no connection holds it: frame
    /// indices count on across connections.
    injector: Option<FaultInjector>,
    /// The endpoint the ladder is dialing.
    dialed: String,
    connections: u64,
    /// Failed dials since the last completed connect.
    failures: u32,
    /// The first failed dial since an ack last got through (or the
    /// endpoint moved): the re-dial budget's clock.
    first_failure: Option<Instant>,
    next_dial: Instant,
    /// The re-dial budget ran out: no dial until the endpoint moves.
    exhausted: bool,
    rx_down: bool,
    /// When the bridge was found closed with frames unacked on a down
    /// link: the clock on how long the sender waits for failover.
    closed_at: Option<Instant>,
    stop_deadline: Option<Instant>,
    finished: bool,
}

/// Record (and clear) the faults an injector applied since last asked.
fn record_faults(reporter: &LinkReporter, injector: Option<&mut FaultInjector>) {
    for af in injector.map(FaultInjector::take_log).unwrap_or_default() {
        let detail = format!("frame {}: {}", af.index, af.fate.name());
        reporter.record(LinkEventKind::FaultInjected, detail);
    }
}

/// A [`SenderConn`]'s current registration, made for the socket the
/// sender had then. The sender moves to a new registration whenever its
/// socket changes.
struct Registration {
    sender: Option<Box<SenderConn>>,
    socket: u64,
}

impl SenderConn {
    /// Put a new out-edge's sender on a pool reactor; it dials at once.
    /// Returns the wake handle for the sending stage's `OutPort`.
    pub(super) fn start(ctx: &Arc<SenderCtx>, edge: OutEdge) -> Arc<RemoteWake> {
        let injector = ctx.cfg.fault.as_ref().map(|p| p.injector_for_link(u64::from(edge.edge)));
        let dialed = ctx.endpoint(edge.to_stage);
        let wake = RemoteWake::new();
        ctx.notify.add_sender(edge.to_stage, Arc::clone(&wake));
        Box::new(SenderConn {
            ctx: Arc::clone(ctx),
            edge,
            wake: Arc::clone(&wake),
            reactor: ctx.reactors.pick(),
            phase: Phase::Down,
            socket: 0,
            retired: None,
            injector,
            dialed,
            connections: 0,
            failures: 0,
            first_failure: None,
            next_dial: Instant::now(),
            exhausted: false,
            rx_down: false,
            closed_at: None,
            stop_deadline: None,
            finished: false,
        })
        .register();
        wake
    }

    /// Register under a new token, pointing the wake handle at it before
    /// the reactor can service it: the service may already move the
    /// sender on to a newer token, which a late install would clobber.
    fn register(self: Box<Self>) {
        let reactor = self.reactor.clone();
        let socket = self.socket;
        reactor.register_with(|token| {
            self.wake.install(self.reactor.clone(), token);
            Box::new(Registration { sender: Some(self), socket })
        });
    }

    fn fd(&self) -> RawFd {
        match &self.phase {
            Phase::Down => -1,
            Phase::Dialing { fs, .. } => fs.get_ref().as_raw_fd(),
            Phase::Live(conn) => conn.fs.get_ref().as_raw_fd(),
        }
    }

    fn step(&mut self, ready: Ready, now: Instant) -> Directive {
        if self.ctx.stop.load(Ordering::Relaxed) {
            self.stop_deadline.get_or_insert(now + STOP_GRACE);
        }
        match std::mem::replace(&mut self.phase, Phase::Down) {
            Phase::Down => self.down(now),
            Phase::Dialing { fs, deadline } => self.dialing(fs, deadline, ready, now),
            Phase::Live(conn) => self.live(conn, ready, now),
        }
    }

    fn finish(&mut self) -> Directive {
        self.finished = true;
        Directive::close()
    }

    /// The sender left the reactor for good: surface the faults injected
    /// on its final frames and detach the emit path's wake.
    fn wrap_up(&mut self) {
        record_faults(&self.edge.reporter, self.injector.as_mut());
        self.wake.clear();
    }

    /// Drop the current socket (closed once the reactor lets go of it),
    /// keeping the fault injector for the next connection.
    fn retire(&mut self, mut fs: FrameStream) {
        if let Some(inj) = fs.take_fault_injector() {
            self.injector = Some(inj);
        }
        self.retired = Some(fs);
        self.socket += 1;
    }

    /// Queue every retained frame past `from` for (re)transmission.
    fn replay(&self, fs: &mut FrameStream, from: u64, why: &str) {
        let buf = fs.queue_buffer();
        let mut n = 0u64;
        for frame in self.edge.window.replay_from(from) {
            buf.extend_from_slice(frame);
            n += 1;
        }
        if n > 0 {
            self.ctx.stats.replayed.fetch_add(n, Ordering::Relaxed);
            let detail = format!("{n} frames from seq {}{why}", from + 1);
            self.edge.reporter.record(LinkEventKind::Replayed, detail);
        }
    }

    fn reset_ladder(&mut self, now: Instant) {
        self.failures = 0;
        self.first_failure = None;
        self.next_dial = now;
    }

    /// Count a failed dial and schedule the next one; returns the wait.
    fn climb(&mut self, now: Instant) -> Duration {
        let retry = &self.ctx.cfg.retry;
        self.failures += 1;
        self.first_failure.get_or_insert(now);
        let seed = derive(self.ctx.jitter_root, u64::from(self.edge.edge));
        let delay = retry.jittered_delay(self.failures, seed);
        self.next_dial = now + delay;
        if self.failures == retry.max_attempts {
            self.edge.reporter.record(
                LinkEventKind::Dead,
                format!(
                    "{} dials failed; parking on the replay window, re-dialing until the \
                     budget ends or failover moves the receiver",
                    self.failures
                ),
            );
        }
        delay
    }

    /// A dial that never connected.
    fn dial_failed(&mut self, why: impl std::fmt::Display, now: Instant) {
        let delay = self.climb(now);
        self.edge.reporter.record(
            LinkEventKind::Reconnecting,
            format!("attempt {}: dial {}: {why}; next in {delay:?}", self.failures, self.dialed),
        );
    }

    /// Down: follow a moved endpoint, dial when the ladder says so, and
    /// otherwise absorb the bridge into the replay window. Stop ends a
    /// down sender at once, unless a dial is due right now (a link that
    /// broke after acks got through re-dials straight away).
    fn down(&mut self, now: Instant) -> Directive {
        let partitioned = self.ctx.partitioned.load(Ordering::Relaxed);
        if !partitioned {
            let current = self.ctx.endpoint(self.edge.to_stage);
            if current != self.dialed {
                // A new endpoint deserves a fresh budget.
                self.edge
                    .reporter
                    .record(LinkEventKind::Reconnecting, format!("failover re-dial to {current}"));
                self.dialed = current;
                self.exhausted = false;
                self.reset_ladder(now);
            }
        }
        let due = !partitioned && !self.exhausted && now >= self.next_dial;
        if due && self.first_failure.is_some_and(|t| now >= t + self.ctx.cfg.max_redial) {
            self.exhausted = true;
            self.edge.reporter.record(
                LinkEventKind::ReconnectExhausted,
                format!(
                    "re-dial budget {:?} spent on {}; link down until failover",
                    self.ctx.cfg.max_redial, self.dialed
                ),
            );
        }
        let due = due && !self.exhausted;
        if let Some(limit) = self.stop_deadline {
            if !due || now >= limit {
                return self.finish();
            }
        }
        self.absorb();
        let mut give_up = None;
        if self.rx_down {
            // The stream has ended with frames stranded on a dead link.
            // Failover gets one drain window to move the receiver so the
            // replay lands at the replacement; after that the frames are
            // lost with the link and the receiver's backstop closes the
            // stream out.
            let unacked = self.edge.window.in_flight();
            if unacked == 0 {
                return self.finish();
            }
            let at = *self.closed_at.get_or_insert(now) + self.ctx.cfg.drain_window;
            if now >= at {
                self.ctx.stats.lost.fetch_add(unacked as u64, Ordering::Relaxed);
                self.edge.reporter.record(
                    LinkEventKind::Dead,
                    format!("{unacked} unacked frames lost with the link"),
                );
                return self.finish();
            }
            give_up = Some(at);
        }
        if due {
            let dialed = self.dialed.parse::<SocketAddr>().map_err(|e| e.to_string());
            match dialed.and_then(|addr| gates_net::dial(&addr).map_err(|e| e.to_string())) {
                Ok(socket) => {
                    let deadline = now + self.ctx.cfg.connect_timeout;
                    self.phase = Phase::Dialing { fs: FrameStream::new(socket), deadline };
                    self.socket += 1;
                    return park(None);
                }
                Err(why) => self.dial_failed(why, now),
            }
        }
        let room = self.edge.window.in_flight() < self.ctx.cfg.ack_window;
        if !self.rx_down && (self.exhausted || room) {
            // More bridge traffic can be absorbed: have the stage's next
            // emit wake us.
            self.wake.arm();
            if !self.edge.rx.is_empty() {
                self.wake.ping();
            }
        }
        let redial = (!partitioned && !self.exhausted).then_some(self.next_dial);
        park(redial.into_iter().chain(give_up).min())
    }

    /// Stamp and retain bridge packets in the replay window while the
    /// link is down; they ride to the receiver with the next
    /// connection's replay. The window takes up to `ack_window` in
    /// flight, whatever the edge's credit, so an outage absorbs as much
    /// as it is sized for. A full window leaves packets in the bridge,
    /// pushing back on the stage — unless the re-dial budget is spent:
    /// then no reconnect is coming, failover is the only way out, and
    /// what the window cannot hold is dropped and counted lost so the
    /// stage behind it is not wedged.
    fn absorb(&mut self) {
        if self.rx_down {
            return;
        }
        let (ctx, edge) = (&self.ctx, &mut self.edge);
        let win = &mut edge.window;
        let mut taken = false;
        loop {
            let room = win.in_flight() < ctx.cfg.ack_window;
            if !room && !self.exhausted {
                break;
            }
            match edge.rx.try_recv() {
                Ok(Queued { packet, .. }) => {
                    taken = true;
                    if room {
                        let seq = win.next_seq();
                        let mut buf = BytesMut::new();
                        packet.encode_into_with_seq(seq, &mut buf);
                        win.push(buf.freeze());
                    } else if !packet.is_eos() {
                        edge.drops.fetch_add(1, Ordering::Relaxed);
                        ctx.stats.lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.rx_down = true;
                    break;
                }
            }
        }
        if taken && self.wake.take_blocked() {
            ctx.hub.wake(edge.producer);
        }
    }

    /// Dialing: the handshake ends when the socket turns writable;
    /// `SO_ERROR` tells a connection from a failure.
    fn dialing(
        &mut self,
        fs: FrameStream,
        deadline: Instant,
        ready: Ready,
        now: Instant,
    ) -> Directive {
        if self.ctx.partitioned.load(Ordering::Relaxed) {
            return self.cut(fs, now);
        }
        if self.stop_deadline.is_some_and(|limit| now >= limit) {
            self.retire(fs);
            return self.finish();
        }
        let failed = if ready.writable {
            match fs.get_ref().take_error() {
                Ok(None) => return self.connected(fs, now),
                Ok(Some(e)) | Err(e) => Some(e.to_string()),
            }
        } else {
            (now >= deadline).then(|| "connect timed out".to_string())
        };
        if let Some(why) = failed {
            self.retire(fs);
            self.dial_failed(why, now);
            return park(None);
        }
        let wake_at = self.stop_deadline.map_or(deadline, |limit| limit.min(deadline));
        self.phase = Phase::Dialing { fs, deadline };
        Directive { want_write: true, ..park(Some(wake_at)) }
    }

    /// The dial completed: queue the edge hello and then everything past
    /// the receiver's delivered cursor ahead of any new traffic; the
    /// receiver dedups whatever its cursor already covers.
    fn connected(&mut self, mut fs: FrameStream, now: Instant) -> Directive {
        let edge = &self.edge;
        fs.queue(&encode_ctrl(&CtrlMsg::EdgeHello {
            edge: edge.edge,
            incarnation: edge.incarnation,
        }));
        fs.set_fault_injector(self.injector.take());
        let from = edge.window.delivered();
        self.replay(&mut fs, from, " on reconnect");
        let kind = if self.connections == 0 {
            LinkEventKind::Connected
        } else {
            LinkEventKind::Reconnected
        };
        edge.reporter.record(kind, self.dialed.clone());
        self.connections += 1;
        self.failures = 0;
        let conn = Conn {
            fs,
            acked_at_dial: from,
            credit_blocked: false,
            stall_started: None,
            peer_eof: false,
            crc_seen: 0,
            stall_until: None,
        };
        self.live(conn, Ready::default(), now)
    }

    /// An injected partition severed the socket: stay down until the
    /// window heals, whose notify re-dials.
    fn cut(&mut self, fs: FrameStream, now: Instant) -> Directive {
        self.retire(fs);
        self.next_dial = now;
        self.edge.reporter.record(LinkEventKind::Dead, "injected partition cut");
        park(None)
    }

    /// The connection ended: a partition cut or a break. An ack getting
    /// through resets the ladder; a break without one is a failed dial.
    fn lose(&mut self, conn: Conn, now: Instant) -> Directive {
        let acked = self.edge.window.delivered() > conn.acked_at_dial;
        if acked {
            self.reset_ladder(now);
        }
        if self.ctx.partitioned.load(Ordering::Relaxed) {
            return self.cut(conn.fs, now);
        }
        self.retire(conn.fs);
        if !acked {
            let delay = self.climb(now);
            self.edge
                .reporter
                .record(LinkEventKind::Dead, format!("broke before any ack; re-dial in {delay:?}"));
        }
        park(None)
    }

    /// End the sender with its connection (complete or stopped).
    fn end(&mut self, conn: Conn) -> Directive {
        self.retire(conn.fs);
        self.finish()
    }

    /// Encode waiting bridge packets into the write buffer (stamping
    /// each with the next link sequence number and retaining the frame
    /// in the replay window), up to the coalescing cap, the credit
    /// window, or the end-of-stream marker; then wake the stage if it is
    /// parked on the bridge.
    fn ingest(&mut self, conn: &mut Conn) {
        if self.rx_down {
            return;
        }
        let (ctx, edge) = (&self.ctx, &mut self.edge);
        let win = &mut edge.window;
        if conn.credit_blocked && !win.is_full() {
            conn.credit_blocked = false;
            if let Some(at) = conn.stall_started.take() {
                let us = at.elapsed().as_micros() as u64;
                ctx.stats.stalled_us.fetch_add(us, Ordering::Relaxed);
                edge.reporter
                    .record(LinkEventKind::Stalled, format!("credit window full for {us} us"));
            }
        }
        let mut taken = false;
        while conn.fs.queued_len() < MAX_COALESCED_BYTES {
            if win.is_full() {
                // Out of credit: stop consuming so the bridge (and the
                // stage behind it) backs up — that is the backpressure.
                if !conn.credit_blocked {
                    conn.credit_blocked = true;
                    conn.stall_started = Some(Instant::now());
                }
                break;
            }
            match edge.rx.try_recv() {
                Ok(Queued { packet, .. }) => {
                    taken = true;
                    let seq = win.next_seq();
                    let buf = conn.fs.queue_buffer();
                    let start = buf.len();
                    packet.encode_into_with_seq(seq, buf);
                    win.push(Bytes::from(buf[start..].to_vec()));
                    if packet.is_eos() {
                        // An end-of-stream marker ends the batch so it
                        // (and everything before it) flushes at once.
                        break;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.rx_down = true;
                    break;
                }
            }
        }
        if taken && self.wake.take_blocked() {
            ctx.hub.wake(edge.producer);
        }
    }

    /// Apply one ack frame from the receiver to the replay window.
    fn on_ack(&mut self, conn: &mut Conn, f: &Frame) {
        let (win, reporter) = (&mut self.edge.window, &self.edge.reporter);
        match f.stream_id {
            ACK_DELIVERED => {
                win.ack_delivered(f.seq);
            }
            ACK_DURABLE => {
                win.ack_durable(f.seq);
                reporter.record(LinkEventKind::Acked, format!("durable through seq {}", f.seq));
            }
            ACK_NAK => {
                // The receiver is missing `seq + 1`: everything retained
                // past it goes out again. A gap that starts below the
                // retention floor is unanswerable — tell the receiver to
                // skip it.
                let floor = win.floor();
                if floor > f.seq {
                    encode_frame_into(&ack_frame(ACK_SKIP, floor), conn.fs.queue_buffer());
                    reporter.record(
                        LinkEventKind::Skipped,
                        format!("NAK at {} below retention floor {floor}", f.seq),
                    );
                }
                // Replay only into a draining buffer: a blocked socket
                // re-requests naturally via the receiver's next NAK.
                if conn.fs.queued_len() < MAX_COALESCED_BYTES {
                    self.replay(&mut conn.fs, floor.max(f.seq), "");
                }
            }
            _ => {}
        }
    }

    /// Relay exception frames from the remote downstream stage into the
    /// sending stage's control channel, and apply ack frames to the
    /// replay window.
    fn read_upstream(&mut self, conn: &mut Conn) {
        loop {
            match conn.fs.read_frame() {
                Ok(Some(f)) if f.kind == FrameKind::Exception => {
                    if let Ok(e) = decode_exception(&f) {
                        let _ = self.edge.upstream.send(Control::Exception(e));
                    }
                }
                Ok(Some(f)) if f.kind == FrameKind::Ack => self.on_ack(conn, &f),
                Ok(Some(_)) => {}
                Err(TransportError::TimedOut) => break,
                Ok(None) | Err(TransportError::Io(_)) => {
                    conn.peer_eof = true;
                    break;
                }
            }
        }
    }

    fn report_faults(&self, conn: &mut Conn) {
        let reporter = &self.edge.reporter;
        record_faults(reporter, conn.fs.fault_injector_mut());
        let crc = conn.fs.crc_failures();
        if crc > conn.crc_seen {
            reporter.record(LinkEventKind::CrcDrop, format!("{crc} corrupted frames total"));
            conn.crc_seen = crc;
        }
    }

    /// Ingest + flush until dry, blocked, stalled, out of credit, or
    /// broken. `false` means the send failed.
    fn pump(&mut self, conn: &mut Conn, now: Instant) -> bool {
        loop {
            self.ingest(conn);
            match conn.fs.flush_nonblocking() {
                Ok(FlushProgress::Done) => {
                    if self.rx_down || conn.credit_blocked || self.edge.rx.is_empty() {
                        return true;
                    }
                }
                Ok(FlushProgress::Blocked) => return true,
                Ok(FlushProgress::Stalled(d)) => {
                    if let Some(d) = d {
                        conn.stall_until = Some(now + d);
                    }
                    return true;
                }
                Err(err) => {
                    self.edge
                        .reporter
                        .record(LinkEventKind::Reconnecting, format!("send failed: {err}"));
                    return false;
                }
            }
        }
    }

    fn live(&mut self, mut conn: Conn, ready: Ready, now: Instant) -> Directive {
        // An injected delay parks the connection wholesale: nothing is
        // read, written, or ingested until it elapses, so the fault
        // schedule does not depend on timing.
        if let Some(until) = conn.stall_until {
            if now < until {
                self.phase = Phase::Live(conn);
                return park(Some(until));
            }
            conn.stall_until = None;
            conn.fs.resume_stall();
        }
        if self.ctx.partitioned.load(Ordering::Relaxed) {
            return self.lose(conn, now);
        }
        if !self.pump(&mut conn, now) {
            return self.lose(conn, now);
        }
        if ready.readable && !conn.peer_eof {
            self.read_upstream(&mut conn);
            // Acks may have opened the credit window (or queued a skip
            // frame / replay): make progress now rather than waiting
            // for the next readiness event.
            if !self.pump(&mut conn, now) {
                return self.lose(conn, now);
            }
        }
        self.report_faults(&mut conn);
        // Once the worker stops, the sender gets one bounded last chance
        // to flush and to collect its trailing acks.
        let stop_passed = self.stop_deadline.is_some_and(|limit| now >= limit);
        if self.rx_down && !conn.backlog() && conn.stall_until.is_none() {
            let in_flight = self.edge.window.in_flight();
            if in_flight == 0 {
                // Every frame flushed *and* delivery-acked: the edge is
                // complete for real, not just buffered in a socket.
                return self.end(conn);
            }
            if !conn.peer_eof && !stop_passed {
                // Everything flushed; wait (readable) for the trailing
                // acks, re-checking on the sweep cadence. A stopping
                // worker waits too: a flushed frame the receiver dropped
                // is still owed its replay.
                self.phase = Phase::Live(conn);
                return Directive::read().with_deadline(now + EXC_SWEEP);
            }
        }
        if conn.peer_eof {
            // A half-closed peer can never ack: re-dial and replay the
            // unacked tail.
            self.edge.reporter.record(LinkEventKind::Reconnecting, "peer closed before final ack");
            return self.lose(conn, now);
        }
        if self.stop_deadline.is_some() {
            // Best-effort final flush (end-of-stream markers), bounded.
            // Packets left in a bridge out of credit wait for the acks
            // of a receiver still consuming them (a clean finish stops
            // the sending worker before its last packets are sent).
            let stranded = conn.credit_blocked && !self.edge.rx.is_empty();
            if (!conn.backlog() && !stranded) || stop_passed {
                return self.end(conn);
            }
            let want_write = conn.backlog();
            self.phase = Phase::Live(conn);
            let recheck = now + Duration::from_millis(20);
            return Directive { want_write, ..Directive::read().with_deadline(recheck) };
        }
        // Park until the stage pings us (or the socket turns writable /
        // readable / the stall elapses). Re-check the channel after
        // arming: a packet that slipped in between drain and arm would
        // otherwise sleep forever. A credit-blocked sender must NOT
        // ping itself on a non-empty bridge — the wake it needs is the
        // receiver's ack (readable), not its own spin.
        let wake = &self.wake;
        wake.arm();
        if !self.rx_down && !conn.credit_blocked && !self.edge.rx.is_empty() {
            wake.ping();
        }
        let d = Directive {
            want_write: conn.backlog() && conn.stall_until.is_none(),
            deadline: conn.stall_until.or_else(|| conn.credit_blocked.then(|| now + EXC_SWEEP)),
            ..Directive::read()
        };
        self.phase = Phase::Live(conn);
        d
    }
}

impl Source for Registration {
    fn fd(&self) -> RawFd {
        self.sender.as_ref().map_or(-1, |s| s.fd())
    }

    fn service(&mut self, ready: Ready, now: Instant) -> Directive {
        let Some(sender) = self.sender.as_mut() else { return Directive::close() };
        let d = sender.step(ready, now);
        // The reactor polls the fd it registered: a new socket (or none)
        // needs a new registration.
        if sender.socket != self.socket {
            return Directive::close();
        }
        d
    }

    fn closed(&mut self) {
        let Some(mut sender) = self.sender.take() else { return };
        // The reactor no longer polls the retired socket's fd.
        sender.retired = None;
        if !sender.finished && sender.socket != self.socket {
            sender.register();
        } else {
            sender.wrap_up();
        }
    }
}

/// Events surfaced by the [`CtrlSource`] to the worker's main loop.
pub(super) enum CtrlEvent {
    /// A decoded control message from the coordinator.
    Msg(CtrlMsg),
    /// A fault the control link's injector applied.
    Fault(AppliedFault),
    /// The coordinator connection is gone (EOF or I/O error).
    Gone,
}

#[derive(Default)]
struct CtrlQueue {
    frames: VecDeque<Frame>,
    flush_ack: Option<Sender<bool>>,
    disarm: Option<Sender<Vec<AppliedFault>>>,
}

/// Thread-safe handle to the reactor-driven coordinator link: the main
/// loop queues frames and kicks; barrier calls synchronize the final
/// report exchange.
pub(super) struct CtrlHandle {
    reactor: Reactor,
    token: Token,
    shared: Arc<Mutex<CtrlQueue>>,
}

impl CtrlHandle {
    /// Move an established (post-handshake) control stream onto
    /// `reactor`; `events` receives everything it produces.
    pub(super) fn register(
        reactor: Reactor,
        fs: FrameStream,
        events: Sender<CtrlEvent>,
        partitioned: Arc<AtomicBool>,
        notify: &NotifyList,
    ) -> CtrlHandle {
        let shared = Arc::new(Mutex::new(CtrlQueue::default()));
        let source = CtrlSource {
            fs,
            shared: Arc::clone(&shared),
            events,
            partitioned,
            stall_until: None,
            done: false,
        };
        let token = reactor.register(Box::new(source));
        notify.add(reactor.clone(), token);
        CtrlHandle { reactor, token, shared }
    }

    /// Queue a frame for the coordinator (sent on the next service).
    pub(super) fn queue(&self, frame: Frame) {
        self.shared.lock().unwrap_or_else(|p| p.into_inner()).frames.push_back(frame);
    }

    /// Nudge the source to drain the queue now.
    pub(super) fn kick(&self) {
        self.reactor.notify(self.token);
    }

    /// Barrier: true once every queued frame reached the socket.
    pub(super) fn flush_sync(&self, timeout: Duration) -> bool {
        let (tx, rx) = bounded(1);
        self.shared.lock().unwrap_or_else(|p| p.into_inner()).flush_ack = Some(tx);
        self.kick();
        matches!(rx.recv_timeout(timeout), Ok(true))
    }

    /// Remove the link's fault injector (the final report exchange must
    /// stay untouched by chaos) and collect its remaining log.
    pub(super) fn disarm_faults(&self, timeout: Duration) -> Vec<AppliedFault> {
        let (tx, rx) = bounded(1);
        self.shared.lock().unwrap_or_else(|p| p.into_inner()).disarm = Some(tx);
        self.kick();
        rx.recv_timeout(timeout).unwrap_or_default()
    }
}

/// The coordinator link as a reactor source: outbound frames drain from
/// the shared queue, inbound control messages surface as [`CtrlEvent`]s.
/// While the worker is partitioned the source goes silent — nothing
/// flushes and nothing is read; queued frames simply accumulate and land
/// after the window heals, exactly like the old polling loop.
struct CtrlSource {
    fs: FrameStream,
    shared: Arc<Mutex<CtrlQueue>>,
    events: Sender<CtrlEvent>,
    partitioned: Arc<AtomicBool>,
    stall_until: Option<Instant>,
    done: bool,
}

impl CtrlSource {
    fn gone(&mut self) -> Directive {
        self.done = true;
        let mut q = self.shared.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(ack) = q.flush_ack.take() {
            let _ = ack.send(false);
        }
        if let Some(tx) = q.disarm.take() {
            let log = match self.fs.take_fault_injector() {
                Some(mut inj) => inj.take_log(),
                None => Vec::new(),
            };
            let _ = tx.send(log);
        }
        drop(q);
        let _ = self.events.send(CtrlEvent::Gone);
        Directive::close()
    }

    fn relay_faults(&mut self) {
        if let Some(inj) = self.fs.fault_injector_mut() {
            for af in inj.take_log() {
                let _ = self.events.send(CtrlEvent::Fault(af));
            }
        }
    }
}

impl Source for CtrlSource {
    fn fd(&self) -> RawFd {
        self.fs.get_ref().as_raw_fd()
    }

    fn service(&mut self, ready: Ready, now: Instant) -> Directive {
        if self.done {
            return Directive::close();
        }
        if let Some(until) = self.stall_until {
            if now < until {
                return park(Some(until));
            }
            self.stall_until = None;
            self.fs.resume_stall();
        }
        if self.partitioned.load(Ordering::Relaxed) {
            // Silent: re-checked on the next notify (partition flips
            // nudge every source) or this coarse fallback deadline.
            return park(Some(now + Duration::from_millis(25)));
        }
        // Drain the shared queue into the wire buffer, then flush.
        let (disarm, mut flush_ack) = {
            let mut q = self.shared.lock().unwrap_or_else(|p| p.into_inner());
            while let Some(f) = q.frames.pop_front() {
                self.fs.queue(&f);
            }
            (q.disarm.take(), q.flush_ack.take())
        };
        if let Some(tx) = disarm {
            let log = match self.fs.take_fault_injector() {
                Some(mut inj) => inj.take_log(),
                None => Vec::new(),
            };
            let _ = tx.send(log);
        }
        let mut blocked = false;
        match self.fs.flush_nonblocking() {
            Ok(FlushProgress::Done) => {
                if let Some(ack) = flush_ack.take() {
                    let _ = ack.send(true);
                }
            }
            Ok(FlushProgress::Blocked) => blocked = true,
            Ok(FlushProgress::Stalled(d)) => {
                if let Some(d) = d {
                    self.stall_until = Some(now + d);
                }
            }
            Err(_) => {
                if let Some(ack) = flush_ack.take() {
                    let _ = ack.send(false);
                }
                return self.gone();
            }
        }
        // A pending barrier with bytes still queued stays pending.
        if let Some(ack) = flush_ack {
            self.shared.lock().unwrap_or_else(|p| p.into_inner()).flush_ack = Some(ack);
        }
        self.relay_faults();
        if ready.readable {
            loop {
                match self.fs.read_frame() {
                    Ok(Some(f)) if f.kind == FrameKind::Control => {
                        if let Ok(msg) = decode_ctrl(&f) {
                            let _ = self.events.send(CtrlEvent::Msg(msg));
                        }
                    }
                    Ok(Some(_)) => {}
                    Err(TransportError::TimedOut) => break,
                    Ok(None) | Err(TransportError::Io(_)) => return self.gone(),
                }
            }
            self.relay_faults();
        }
        Directive {
            want_write: blocked || (self.fs.queued_len() > 0 && self.stall_until.is_none()),
            deadline: self.stall_until,
            ..Directive::read()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_data_sockets_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let _client = TcpStream::connect(listener.local_addr().expect("address")).expect("dial");
        let socket = accept_data(&listener).expect("accept");
        assert!(socket.nodelay().expect("read TCP_NODELAY"), "acks must not wait for Nagle");
    }

    use super::super::worker::ChannelRecorder;
    use crate::clock::RealClock;
    use bytes::Bytes;
    use crossbeam::channel::{unbounded, RecvTimeoutError};
    use gates_core::trace::TraceEvent;
    use gates_net::RetryPolicy;

    const PATIENCE: Duration = Duration::from_secs(5);

    /// One out-edge sender on its own reactor, with the handles a test
    /// drives it through.
    struct Rig {
        reactor: Reactor,
        bridge: Sender<Queued>,
        /// Holds the sender's `done` handle: drop it to wait for the end.
        ctx: Arc<SenderCtx>,
        events: Receiver<TraceEvent>,
        done: Receiver<()>,
    }

    const JITTER_ROOT: u64 = 7;

    /// A loopback address nothing listens on (until a test binds it).
    fn vacant() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("address")
    }

    /// The ladder of [`rig`]: the first rung waits 50–100 % of `base`,
    /// doubling up to `8 * base`; the link is reported dead after three.
    fn ladder(base: Duration) -> RetryPolicy {
        RetryPolicy { max_attempts: 3, base_delay: base, max_delay: base * 8 }
    }

    /// Edge 0's sender, aimed at `endpoint`, dialing at once.
    fn rig(endpoint: SocketAddr, base: Duration, max_redial: Duration) -> Rig {
        let reactor = Reactor::spawn("sender-test").expect("spawn reactor");
        let (bridge, rx) = bounded(16);
        let (trace_tx, events) = unbounded();
        let (done_tx, done) = bounded(0);
        let ctx = Arc::new(SenderCtx {
            endpoints: RwLock::new(vec![endpoint.to_string()]),
            cfg: DistConfig { retry: ladder(base), max_redial, ..DistConfig::default() },
            jitter_root: JITTER_ROOT,
            partitioned: Arc::default(),
            stop: Arc::default(),
            reactors: Arc::new(ReactorPool::new(vec![reactor.clone()])),
            notify: NotifyList::default(),
            hub: Arc::new(WakeHub::new()),
            stats: DeliveryStats::default(),
            _done: done_tx,
        });
        let reporter = LinkReporter {
            recorder: Arc::new(ChannelRecorder { tx: trace_tx }),
            clock: Arc::new(RealClock::anchored_now()),
            link: "up->down".into(),
            node: "w".into(),
        };
        SenderConn::start(
            &ctx,
            OutEdge {
                edge: 0,
                to_stage: 0,
                incarnation: 0,
                rx,
                upstream: unbounded().0,
                drops: Arc::default(),
                reporter,
                producer: 0,
                window: AckWindow::new(16, 64),
            },
        );
        Rig { reactor, bridge, ctx, events, done }
    }

    impl Rig {
        /// The next link event of `kind`: its time and detail.
        fn next(&self, kind: LinkEventKind) -> (f64, String) {
            loop {
                match self.events.recv_timeout(PATIENCE) {
                    Ok(TraceEvent::Link(l)) if l.kind == kind => return (l.t, l.detail),
                    Ok(_) => {}
                    Err(e) => panic!("no {kind:?} event: {e:?}"),
                }
            }
        }

        /// Every link event kind recorded within `quiet`.
        fn drain(&self, quiet: Duration) -> Vec<LinkEventKind> {
            std::iter::from_fn(|| match self.events.recv_timeout(quiet) {
                Ok(TraceEvent::Link(l)) => Some(Some(l.kind)),
                Ok(_) => Some(None),
                Err(_) => None,
            })
            .flatten()
            .collect()
        }

        fn emit(&self, seq: u64) {
            let packet = Packet::data(0, seq, 1, Bytes::from_static(b"stash"));
            assert!(self.bridge.try_send(packet.into()).is_ok(), "bridge room");
        }
    }

    /// Accept the sender's connection and read what it opened with. The
    /// connection stays open as long as the returned stream lives.
    fn accept_frames(listener: &TcpListener, frames: usize) -> (FrameStream, Vec<Frame>) {
        listener.set_nonblocking(true).expect("nonblocking");
        let deadline = Instant::now() + PATIENCE;
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
        fs.set_read_timeout(Some(PATIENCE)).expect("read timeout");
        let got = (0..frames).map(|_| fs.read_frame().expect("read").expect("a frame")).collect();
        (fs, got)
    }

    #[test]
    fn a_refused_dial_climbs_the_jittered_ladder_then_connects_and_replays() {
        let addr = vacant();
        let base = Duration::from_millis(20);
        let rig = rig(addr, base, Duration::from_secs(60));
        for seq in 1..=3 {
            rig.emit(seq);
        }
        let seed = derive(JITTER_ROOT, 0);
        let mut last = rig.next(LinkEventKind::Reconnecting).0;
        for n in 1..=4u32 {
            let (t, detail) = rig.next(LinkEventKind::Reconnecting);
            let rung = ladder(base).jittered_delay(n, seed);
            // Timestamps are taken just after each failure, so allow
            // the 1 ms the first one may trail its dial by.
            assert!(
                t - last + 0.001 >= rung.as_secs_f64(),
                "dial {} came {:.1} ms after dial {n}, inside its {rung:?} backoff ({detail})",
                n + 1,
                (t - last) * 1e3,
            );
            last = t;
        }
        // One socket at a time: the listener sees exactly one dial, and
        // it opens with the hello, then the replay of the stash.
        let listener = TcpListener::bind(addr).expect("rebind the vacant port");
        let (_conn, frames) = accept_frames(&listener, 4);
        assert!(matches!(
            decode_ctrl(&frames[0]),
            Ok(CtrlMsg::EdgeHello { edge: 0, incarnation: 0 })
        ));
        let seqs: Vec<u64> = frames[1..].iter().map(|f| f.seq).collect();
        assert_eq!(seqs, [1, 2, 3], "the stash replays in order");
        std::thread::sleep(Duration::from_millis(200));
        assert!(listener.accept().is_err(), "a second socket dialed");
        rig.next(LinkEventKind::Connected);
        rig.reactor.shutdown();
    }

    #[test]
    fn a_peer_that_accepts_and_drops_is_redialed_on_the_first_rung_until_the_budget_ends() {
        // A partitioned worker's listener: every connection is accepted
        // and dropped at once, so no ack ever gets through.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("address");
        let open = Arc::new(AtomicBool::new(true));
        let dropper = {
            let open = Arc::clone(&open);
            std::thread::spawn(move || {
                while open.load(Ordering::Relaxed) {
                    if listener.accept().is_err() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        };
        // On the first rung a dial follows a drop within 5–10 ms, dozens
        // in the 400 ms budget; a ladder that kept climbing to 80 ms
        // would fit about a dozen.
        let rig = rig(addr, Duration::from_millis(10), Duration::from_millis(400));
        let mut connects = 0;
        loop {
            match rig.events.recv_timeout(PATIENCE) {
                Ok(TraceEvent::Link(l)) => match l.kind {
                    LinkEventKind::ReconnectExhausted => break,
                    LinkEventKind::Connected | LinkEventKind::Reconnected => connects += 1,
                    _ => {}
                },
                Ok(_) => {}
                Err(e) => panic!("connections restarted the budget: {e:?}"),
            }
        }
        assert!(connects >= 20, "{connects} connections in the budget: the ladder climbed");
        open.store(false, Ordering::Relaxed);
        dropper.join().expect("dropper thread");
        rig.reactor.shutdown();
    }

    #[test]
    fn an_exhausted_sender_waits_for_failover_and_dials_the_moved_endpoint_at_once() {
        let rig = rig(vacant(), Duration::from_millis(5), Duration::from_millis(40));
        rig.next(LinkEventKind::ReconnectExhausted);
        let after = rig.drain(Duration::from_millis(300));
        assert!(
            !after.contains(&LinkEventKind::ReconnectExhausted),
            "exhaustion is reported once: {after:?}"
        );
        assert!(!after.contains(&LinkEventKind::Reconnecting), "it dialed again: {after:?}");
        // Failover moves the receiver. The parked sender has no
        // deadline left: only the table's nudge can make it dial.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        rig.ctx.set_endpoint(0, listener.local_addr().expect("address").to_string());
        let (_conn, frames) = accept_frames(&listener, 1);
        assert!(matches!(decode_ctrl(&frames[0]), Ok(CtrlMsg::EdgeHello { .. })));
        assert!(rig.next(LinkEventKind::Reconnecting).1.starts_with("failover re-dial"));
        rig.reactor.shutdown();
    }

    #[test]
    fn stop_ends_a_down_sender_within_a_turn() {
        // A 1–2 s backoff: the sender is waiting on the ladder, not
        // about to dial, when the stop lands.
        let rig = rig(vacant(), Duration::from_secs(2), Duration::from_secs(60));
        rig.emit(1);
        rig.emit(2);
        rig.next(LinkEventKind::Reconnecting);
        let began = Instant::now();
        rig.ctx.stop.store(true, Ordering::Relaxed);
        rig.ctx.notify.notify_all();
        let stats = rig.ctx.stats.clone();
        drop(rig.ctx);
        assert_eq!(rig.done.recv_timeout(PATIENCE), Err(RecvTimeoutError::Disconnected));
        assert!(began.elapsed() < Duration::from_millis(500), "it waited out its backoff");
        // As a stopping run always has: the stash is abandoned, not
        // counted lost.
        assert_eq!(stats.lost.load(Ordering::Relaxed), 0);
        rig.reactor.shutdown();
    }
}
