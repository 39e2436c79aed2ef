//! Reactor-driven data plane of the distributed worker.
//!
//! Every worker socket — the data listener, each accepted in-edge, each
//! per-edge sender connection, and (after the handshake) the control
//! link to the coordinator — is a [`Source`] registered on the reactor
//! of one of the worker's executor pool threads (a [`ReactorPool`] over
//! the first `--reactors` of them) instead of owning a blocking OS
//! thread. The reactor watches readiness (level-triggered `epoll`) and
//! calls each source's `service` exactly when there is something to do;
//! an idle data plane makes no wakeups beyond the 25 ms exception sweep
//! on attached in-edges.
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
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};

use gates_core::trace::LinkEventKind;
use gates_core::{Packet, ShardError};
use gates_net::{
    encode_frame_into, AckWindow, AppliedFault, BufferPool, Directive, FaultInjector,
    FlushProgress, Frame, FrameKind, FrameStream, PooledReader, Reactor, ReactorPool, Ready,
    Source, Token, TransportError,
};

use super::proto::{decode_ctrl, decode_exception, encode_exception, CtrlMsg};
use super::worker::{DeliveryStats, InEdge, InEdgeRegistry, LinkReporter};
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

/// Shared list of every registered source's wake handle. Stop and
/// partition flips nudge all of them so parked sources re-check the
/// flags instead of waiting out a deadline.
#[derive(Clone, Default)]
pub(super) struct NotifyList {
    inner: Arc<Mutex<Vec<(Reactor, Token)>>>,
}

impl NotifyList {
    pub(super) fn add(&self, reactor: Reactor, token: Token) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).push((reactor, token));
    }

    pub(super) fn notify_all(&self) {
        for (r, t) in self.inner.lock().unwrap_or_else(|p| p.into_inner()).iter() {
            r.notify(*t);
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
                        None => {
                            return Directive {
                                want_read: false,
                                want_write: false,
                                deadline: Some(now + LOOKUP_RETRY),
                                close: false,
                            }
                        }
                    }
                }
                InState::Attached(ie) => {
                    let ie = Arc::clone(ie);
                    self.queue_exceptions(&ie);
                    if !self.retry_held(&ie) {
                        // Still backed up: keep the socket unread so the
                        // pressure propagates, retry shortly.
                        let want_write = self.pump_out();
                        return Directive {
                            want_read: false,
                            want_write,
                            deadline: Some(now + DELIVER_RETRY),
                            close: false,
                        };
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
                        return Directive {
                            want_read: false,
                            want_write,
                            deadline: Some(now + DELIVER_RETRY),
                            close: false,
                        };
                    }
                    // Idle: wake on data, sweep for exceptions, acks
                    // (and partition flips) on a coarse timer.
                    return Directive {
                        want_read: true,
                        want_write,
                        deadline: Some(now + EXC_SWEEP),
                        close: false,
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

/// Why a [`SenderConn`] left the reactor, reported back to its tender
/// thread (which owns reconnect policy and the redial budget).
pub(super) enum ConnFate {
    /// The connection failed (write error or peer EOF before the final
    /// ack). Nothing is carried over byte-wise: every unacked frame
    /// lives in the shared replay window, and the tender re-sends from
    /// there on the next connection.
    Broken {
        /// The link's fault injector, so frame indices keep counting.
        carried: Option<FaultInjector>,
    },
    /// An injected partition severed the link.
    Partitioned {
        /// The link's fault injector, carried across the outage.
        carried: Option<FaultInjector>,
    },
    /// The bridge channel disconnected and everything flushed: the edge
    /// is complete.
    Finished {
        /// The injector, surrendered for the final fault-log drain.
        carried: Option<FaultInjector>,
    },
    /// Engine stop: flushed what was possible.
    Stopped,
}

/// Sender side of one live remote-edge connection, reactor-driven: it
/// coalesces bridge-channel packets into single writes (same
/// [`MAX_COALESCED_BYTES`] batching as the old sender thread), relays
/// upstream-bound exception frames, and applies the link's seeded fault
/// injector at exactly the same per-frame points — chaos traces are
/// bit-identical to the blocking plane's. On any terminal condition it
/// reports a [`ConnFate`] and leaves the reactor.
pub(super) struct SenderConn {
    fs: FrameStream,
    rx: Receiver<Queued>,
    upstream: Sender<Control>,
    partitioned: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    reporter: LinkReporter,
    fate: Sender<ConnFate>,
    wake: Arc<RemoteWake>,
    /// Wake hub and key of the stage writing into the bridge, woken
    /// when it is blocked on a full bridge and packets were taken.
    producer: (Arc<WakeHub>, u32),
    /// The edge's acked replay window, shared with the tender thread
    /// (which replays from it across reconnects).
    window: Arc<Mutex<AckWindow>>,
    /// Worker-global delivery counters.
    stats: DeliveryStats,
    /// The credit window is full: ingestion is paused and backpressure
    /// is backing the bridge (and the stage behind it) up.
    credit_blocked: bool,
    /// When the current credit stall began, for `stalled_us` accounting.
    stall_started: Option<Instant>,
    rx_down: bool,
    /// Peer half-closed: no ack can ever arrive, so the connection is
    /// finished `Broken` and the tender re-dials to replay.
    peer_eof: bool,
    crc_seen: u64,
    /// An injected delay is pending: flush resumes at this instant.
    stall_until: Option<Instant>,
    stop_deadline: Option<Instant>,
    done: bool,
}

impl SenderConn {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        fs: FrameStream,
        rx: Receiver<Queued>,
        upstream: Sender<Control>,
        partitioned: Arc<AtomicBool>,
        stop: Arc<AtomicBool>,
        reporter: LinkReporter,
        fate: Sender<ConnFate>,
        wake: Arc<RemoteWake>,
        producer: (Arc<WakeHub>, u32),
        window: Arc<Mutex<AckWindow>>,
        stats: DeliveryStats,
    ) -> SenderConn {
        SenderConn {
            fs,
            rx,
            upstream,
            partitioned,
            stop,
            reporter,
            fate,
            wake,
            producer,
            window,
            stats,
            credit_blocked: false,
            stall_started: None,
            rx_down: false,
            peer_eof: false,
            crc_seen: 0,
            stall_until: None,
            stop_deadline: None,
            done: false,
        }
    }

    fn finish(&mut self, fate: ConnFate) -> Directive {
        self.done = true;
        let _ = self.fate.send(fate);
        Directive::close()
    }

    /// Encode waiting bridge packets into the write buffer (stamping
    /// each with the next link sequence number and retaining the frame
    /// in the replay window), up to the coalescing cap, the credit
    /// window, or the end-of-stream marker; then wake the stage if it is
    /// parked on the bridge.
    fn ingest(&mut self) {
        if self.rx_down {
            return;
        }
        let mut win = self.window.lock().unwrap_or_else(|p| p.into_inner());
        if self.credit_blocked && !win.is_full() {
            self.credit_blocked = false;
            if let Some(at) = self.stall_started.take() {
                let us = at.elapsed().as_micros() as u64;
                self.stats.stalled_us.fetch_add(us, Ordering::Relaxed);
                self.reporter
                    .record(LinkEventKind::Stalled, format!("credit window full for {us} us"));
            }
        }
        let mut taken = false;
        while self.fs.queued_len() < MAX_COALESCED_BYTES {
            if win.is_full() {
                // Out of credit: stop consuming so the bridge (and the
                // stage behind it) backs up — that is the backpressure.
                if !self.credit_blocked {
                    self.credit_blocked = true;
                    self.stall_started = Some(Instant::now());
                }
                break;
            }
            match self.rx.try_recv() {
                Ok(Queued { packet, .. }) => {
                    taken = true;
                    let seq = win.next_seq();
                    let buf = self.fs.queue_buffer();
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
        drop(win);
        if taken && self.wake.take_blocked() {
            let (hub, key) = &self.producer;
            hub.wake(*key);
        }
    }

    /// Apply one ack frame from the receiver to the replay window.
    fn on_ack(&mut self, f: &Frame) {
        let mut win = self.window.lock().unwrap_or_else(|p| p.into_inner());
        match f.stream_id {
            ACK_DELIVERED => {
                win.ack_delivered(f.seq);
            }
            ACK_DURABLE => {
                win.ack_durable(f.seq);
                self.reporter
                    .record(LinkEventKind::Acked, format!("durable through seq {}", f.seq));
            }
            ACK_NAK => {
                // The receiver is missing `seq + 1`: everything retained
                // past it goes out again. A gap that starts below the
                // retention floor is unanswerable — tell the receiver to
                // skip it.
                let floor = win.floor();
                if floor > f.seq {
                    encode_frame_into(&ack_frame(ACK_SKIP, floor), self.fs.queue_buffer());
                    self.reporter.record(
                        LinkEventKind::Skipped,
                        format!("NAK at {} below retention floor {floor}", f.seq),
                    );
                }
                // Replay only into a draining buffer: a blocked socket
                // re-requests naturally via the receiver's next NAK.
                if self.fs.queued_len() < MAX_COALESCED_BYTES {
                    let from = floor.max(f.seq);
                    let mut n = 0u64;
                    for b in win.replay_from(from) {
                        self.fs.queue_buffer().extend_from_slice(b);
                        n += 1;
                    }
                    if n > 0 {
                        self.stats.replayed.fetch_add(n, Ordering::Relaxed);
                        self.reporter.record(
                            LinkEventKind::Replayed,
                            format!("{n} frames from seq {}", from + 1),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    /// Relay exception frames from the remote downstream stage into the
    /// sending stage's control channel, and apply ack frames to the
    /// replay window.
    fn read_upstream(&mut self) {
        loop {
            match self.fs.read_frame() {
                Ok(Some(f)) if f.kind == FrameKind::Exception => {
                    if let Ok(e) = decode_exception(&f) {
                        let _ = self.upstream.send(Control::Exception(e));
                    }
                }
                Ok(Some(f)) if f.kind == FrameKind::Ack => self.on_ack(&f),
                Ok(Some(_)) => {}
                Err(TransportError::TimedOut) => break,
                Ok(None) | Err(TransportError::Io(_)) => {
                    self.peer_eof = true;
                    break;
                }
            }
        }
    }

    fn report_faults(&mut self) {
        if let Some(inj) = self.fs.fault_injector_mut() {
            for af in inj.take_log() {
                self.reporter.record(
                    LinkEventKind::FaultInjected,
                    format!("frame {}: {}", af.index, af.fate.name()),
                );
            }
        }
        let crc = self.fs.crc_failures();
        if crc > self.crc_seen {
            self.reporter.record(LinkEventKind::CrcDrop, format!("{crc} corrupted frames total"));
            self.crc_seen = crc;
        }
    }

    fn backlog(&self) -> bool {
        self.fs.queued_len() > 0 || self.fs.has_staged()
    }

    /// Ingest + flush until dry, blocked, stalled, out of credit, or
    /// broken. `Some` carries the terminal directive for a broken link.
    fn pump(&mut self, now: Instant) -> Option<Directive> {
        loop {
            self.ingest();
            match self.fs.flush_nonblocking() {
                Ok(FlushProgress::Done) => {
                    if self.rx_down || self.credit_blocked || self.rx.is_empty() {
                        return None;
                    }
                }
                Ok(FlushProgress::Blocked) => return None,
                Ok(FlushProgress::Stalled(d)) => {
                    if let Some(d) = d {
                        self.stall_until = Some(now + d);
                    }
                    return None;
                }
                Err(err) => {
                    self.reporter
                        .record(LinkEventKind::Reconnecting, format!("send failed: {err}"));
                    let carried = self.fs.take_fault_injector();
                    return Some(self.finish(ConnFate::Broken { carried }));
                }
            }
        }
    }
}

impl Source for SenderConn {
    fn fd(&self) -> RawFd {
        self.fs.get_ref().as_raw_fd()
    }

    fn service(&mut self, ready: Ready, now: Instant) -> Directive {
        if self.done {
            return Directive::close();
        }
        // An injected delay parks the connection wholesale, mirroring
        // the old inline sleep: nothing is read, written, or ingested
        // until it elapses, so the fault schedule stays identical.
        if let Some(until) = self.stall_until {
            if now < until {
                return Directive {
                    want_read: false,
                    want_write: false,
                    deadline: Some(until),
                    close: false,
                };
            }
            self.stall_until = None;
            self.fs.resume_stall();
        }
        if self.partitioned.load(Ordering::Relaxed) {
            let carried = self.fs.take_fault_injector();
            return self.finish(ConnFate::Partitioned { carried });
        }
        if let Some(d) = self.pump(now) {
            return d;
        }
        if ready.readable && !self.peer_eof {
            self.read_upstream();
            // Acks may have opened the credit window (or queued a skip
            // frame / replay): make progress now rather than waiting
            // for the next readiness event.
            if let Some(d) = self.pump(now) {
                return d;
            }
        }
        self.report_faults();
        // Once the worker stops, the connection gets one bounded last
        // chance to flush and to collect its trailing acks.
        let stopping = self.stop.load(Ordering::Relaxed);
        let stop_passed =
            stopping && now >= *self.stop_deadline.get_or_insert(now + Duration::from_secs(1));
        if self.rx_down && !self.backlog() && self.stall_until.is_none() {
            let in_flight = self.window.lock().unwrap_or_else(|p| p.into_inner()).in_flight();
            if in_flight == 0 {
                // Every frame flushed *and* delivery-acked: the edge is
                // complete for real, not just buffered in a socket.
                let carried = self.fs.take_fault_injector();
                return self.finish(ConnFate::Finished { carried });
            }
            if !self.peer_eof && !stop_passed {
                // Everything flushed; wait (readable) for the trailing
                // acks, re-checking on the sweep cadence. A stopping
                // worker waits too: a flushed frame the receiver dropped
                // is still owed its replay.
                return Directive {
                    want_read: true,
                    want_write: false,
                    deadline: Some(now + EXC_SWEEP),
                    close: false,
                };
            }
        }
        if self.peer_eof {
            // A half-closed peer can never ack: hand the unacked tail
            // back to the tender, which re-dials and replays it.
            self.reporter.record(LinkEventKind::Reconnecting, "peer closed before final ack");
            let carried = self.fs.take_fault_injector();
            return self.finish(ConnFate::Broken { carried });
        }
        if stopping {
            // Best-effort final flush (end-of-stream markers), bounded.
            // Packets left in a bridge out of credit wait for the acks
            // of a receiver still consuming them (a clean finish stops
            // the sending worker before its last packets are sent).
            let stranded = self.credit_blocked && !self.rx.is_empty();
            if (!self.backlog() && !stranded) || stop_passed {
                return self.finish(ConnFate::Stopped);
            }
            return Directive {
                want_read: true,
                want_write: self.backlog(),
                deadline: Some(now + Duration::from_millis(20)),
                close: false,
            };
        }
        // Park until the stage pings us (or the socket turns writable /
        // readable / the stall elapses). Re-check the channel after
        // arming: a packet that slipped in between drain and arm would
        // otherwise sleep forever. A credit-blocked sender must NOT
        // ping itself on a non-empty bridge — the wake it needs is the
        // receiver's ack (readable), not its own spin.
        self.wake.arm();
        if !self.rx_down && !self.credit_blocked && !self.rx.is_empty() {
            self.wake.ping();
        }
        Directive {
            want_read: true,
            want_write: self.backlog() && self.stall_until.is_none(),
            deadline: self.stall_until.or_else(|| self.credit_blocked.then(|| now + EXC_SWEEP)),
            close: false,
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
                return Directive {
                    want_read: false,
                    want_write: false,
                    deadline: Some(until),
                    close: false,
                };
            }
            self.stall_until = None;
            self.fs.resume_stall();
        }
        if self.partitioned.load(Ordering::Relaxed) {
            // Silent: re-checked on the next notify (partition flips
            // nudge every source) or this coarse fallback deadline.
            return Directive {
                want_read: false,
                want_write: false,
                deadline: Some(now + Duration::from_millis(25)),
                close: false,
            };
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
            want_read: true,
            want_write: blocked || (self.fs.queued_len() > 0 && self.stall_until.is_none()),
            deadline: self.stall_until,
            close: false,
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
}
