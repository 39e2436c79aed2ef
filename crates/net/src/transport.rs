//! Socket transport: framed IO over `std::net::TcpStream`.
//!
//! The frame encoding in [`crate::frame`] was designed for the wire; this
//! module actually puts it there. A [`FrameStream`] wraps a connected TCP
//! stream and speaks length-prefixed CRC-32 frames with the streaming
//! decode contract of [`crate::decode_frame`]: short reads accumulate in
//! an internal buffer, and a frame that fails its checksum is *counted
//! and skipped* (the header's length field is trusted for resync) instead
//! of poisoning the connection. A header whose length field exceeds
//! [`crate::MAX_FRAME_LEN`] *does* poison the connection — the length
//! prefix is the resync point, so once it is corrupt there is nothing
//! left to trust.
//!
//! On the write side each stream owns a long-lived encode buffer:
//! [`FrameStream::queue`] encodes frames into it allocation-free and
//! [`FrameStream::flush_queued`] writes the whole batch in one syscall,
//! so sender loops coalesce every frame ready in one wake.
//! [`FrameStream::send`] is the queue-then-flush convenience for
//! latency-sensitive frames (control, EOS, exceptions).
//!
//! [`connect_with_retry`] provides the bounded-retry, exponential-backoff
//! blocking connect a distributed worker registers with: workers come up
//! before the coordinator, so the first attempts routinely land before
//! its listener exists. Data links dial with the nonblocking
//! [`crate::dial`] instead and retry on [`RetryPolicy::jittered_delay`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bytes::{Buf, BytesMut};

use crate::fault::{derive, FaultFate, FaultInjector};
use crate::frame::{decode_frame, encode_frame_into, Frame, FrameDecodeError, FRAME_HEADER_LEN};

/// Errors surfaced by [`FrameStream`].
#[derive(Debug)]
pub enum TransportError {
    /// The underlying socket failed (includes remote resets).
    Io(std::io::Error),
    /// A read timed out before a full frame arrived (only when a read
    /// timeout is configured). The stream stays usable; retry later.
    TimedOut,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport io error: {e}"),
            TransportError::TimedOut => write!(f, "transport read timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                TransportError::TimedOut
            }
            _ => TransportError::Io(e),
        }
    }
}

/// Bounded exponential backoff for reconnect loops.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum connect attempts before giving up (min 1).
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles each further attempt.
    pub base_delay: Duration,
    /// Ceiling on the per-attempt delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt` (0-based; attempt 0 is immediate).
    pub fn delay(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = 1u64 << (attempt - 1).min(20);
        self.base_delay.saturating_mul(factor as u32).min(self.max_delay)
    }

    /// Backoff before attempt `attempt` with seeded jitter: between 50%
    /// and 100% of [`RetryPolicy::delay`], the fraction drawn
    /// deterministically from `(jitter_seed, attempt)`. Desynchronizes
    /// the reconnect herd after a partition heals without giving up
    /// replayability.
    pub fn jittered_delay(&self, attempt: u32, jitter_seed: u64) -> Duration {
        let base = self.delay(attempt);
        if base.is_zero() {
            return base;
        }
        let frac = (derive(jitter_seed, attempt as u64) >> 11) as f64 / (1u64 << 53) as f64;
        base.mul_f64(0.5 + 0.5 * frac)
    }
}

/// Connect to `addr` with a per-attempt timeout, retrying with
/// exponential backoff per `policy`. `on_retry(attempt, error)` is called
/// before each backoff sleep (for logging / flight-recorder hooks).
///
/// This blocks the calling thread; it is for one-off dials such as a
/// worker registering with its coordinator. A reactor-driven link dials
/// with [`crate::dial`] and times its own backoff instead.
pub fn connect_with_retry(
    addr: SocketAddr,
    connect_timeout: Duration,
    policy: &RetryPolicy,
    mut on_retry: impl FnMut(u32, &std::io::Error),
) -> std::io::Result<TcpStream> {
    let attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        let backoff = policy.delay(attempt);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        match TcpStream::connect_timeout(&addr, connect_timeout) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) => {
                if attempt + 1 < attempts {
                    on_retry(attempt, &e);
                }
                last_err = Some(e);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("no connect attempts made")))
}

/// Progress report from [`FrameStream::flush_nonblocking`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushProgress {
    /// Everything queued has reached the socket.
    Done,
    /// The socket would block; staged bytes remain. Register write
    /// interest and call again on writability.
    Blocked,
    /// A chaos delay is holding the flush walk. `Some(d)` the first time
    /// the fate fires (arm a timer for `d`, then call
    /// [`FrameStream::resume_stall`]); `None` on subsequent calls while
    /// the stall is still in effect.
    Stalled(Option<Duration>),
}

/// What [`FrameStream::stage_next_frame`] did with the frame at the
/// front of the queue.
enum StageOutcome {
    /// Frame (or verbatim tail) moved into the staged buffer.
    Staged,
    /// A `Delay` fate fired: pause the walk for this long.
    Stall(Duration),
    /// A `Reset` fate fired: kill the connection.
    Reset,
}

/// A framed, buffered view over a connected TCP stream.
///
/// Reading yields whole [`Frame`]s; corrupted frames (bad checksum or
/// unknown kind tag) are skipped using the header's declared length and
/// counted in [`FrameStream::crc_failures`], so one flipped bit drops one
/// frame instead of killing the link.
#[derive(Debug)]
pub struct FrameStream {
    stream: TcpStream,
    buf: BytesMut,
    /// Long-lived outgoing encode buffer: frames queue here and leave in
    /// one `write_all` per [`FrameStream::flush_queued`], so a sender
    /// loop can coalesce every frame ready in one wake into one syscall.
    wbuf: BytesMut,
    /// Bytes that already passed the chaos fate walk but have not fully
    /// reached a nonblocking socket yet (see
    /// [`FrameStream::flush_nonblocking`]).
    staged: BytesMut,
    /// A chaos `Delay` fate is holding the nonblocking flush walk; the
    /// caller times the resume and calls [`FrameStream::resume_stall`].
    stalled: bool,
    /// The frame at the front of `wbuf` already had its (Delay) fate
    /// drawn; stage it without drawing another when the stall clears.
    delay_fired: bool,
    crc_failures: u64,
    /// Optional chaos shim: when set, every flush walks the queued
    /// frames and lets the injector drop/corrupt/duplicate/delay them or
    /// reset the connection. `None` (the default) keeps the fast
    /// single-`write_all` path byte-for-byte unchanged.
    injector: Option<FaultInjector>,
}

impl FrameStream {
    /// Wrap a connected stream. Disables Nagle so small control frames
    /// (EOS, exceptions) are not delayed behind data.
    pub fn new(stream: TcpStream) -> Self {
        stream.set_nodelay(true).ok();
        FrameStream {
            stream,
            buf: BytesMut::with_capacity(8 * 1024),
            wbuf: BytesMut::with_capacity(8 * 1024),
            staged: BytesMut::new(),
            stalled: false,
            delay_fired: false,
            crc_failures: 0,
            injector: None,
        }
    }

    /// Attach (or clear) a fault injector. Subsequent flushes pass every
    /// queued frame through it; see [`crate::FaultPlan`].
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// The attached fault injector, if any — e.g. to drain its log of
    /// injected faults into a flight recorder after a flush.
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.injector.as_mut()
    }

    /// Detach and return the fault injector, preserving its frame index
    /// so a reconnecting caller can carry it to the replacement stream.
    pub fn take_fault_injector(&mut self) -> Option<FaultInjector> {
        self.injector.take()
    }

    /// Set (or clear) the socket read timeout used by
    /// [`FrameStream::read_frame`].
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// The underlying socket (e.g. for reactor registration by fd).
    pub fn get_ref(&self) -> &std::net::TcpStream {
        &self.stream
    }

    /// Corrupted frames skipped so far on this stream.
    pub fn crc_failures(&self) -> u64 {
        self.crc_failures
    }

    /// The peer's address.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Encode and write one frame, flushing to the socket immediately.
    ///
    /// Equivalent to [`FrameStream::queue`] + [`FrameStream::flush_queued`];
    /// any previously queued frames go out in the same write.
    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.queue(frame);
        self.flush_queued()
    }

    /// Encode one frame into the outgoing buffer without writing to the
    /// socket. Nothing reaches the wire until [`FrameStream::flush_queued`]
    /// (or [`FrameStream::send`]) runs.
    pub fn queue(&mut self, frame: &Frame) {
        encode_frame_into(frame, &mut self.wbuf);
    }

    /// Direct access to the outgoing buffer, for callers that encode
    /// frames themselves (e.g. `gates-core`'s segmented packet encoder).
    /// Only append complete, correctly encoded frames — the buffer's
    /// contents go to the peer verbatim on the next flush.
    pub fn queue_buffer(&mut self) -> &mut BytesMut {
        &mut self.wbuf
    }

    /// Bytes queued for the next flush.
    pub fn queued_len(&self) -> usize {
        self.wbuf.len()
    }

    /// Write every queued frame to the socket in one `write_all`, then
    /// flush. On error the queued bytes are retained, so a caller that
    /// reconnects can carry them to a new stream via
    /// [`FrameStream::take_queued`].
    ///
    /// With a fault injector attached, the frames take the chaos fate
    /// walk of [`FrameStream::flush_nonblocking`]: a `Delay` fate sleeps
    /// here, and a socket in nonblocking mode that fills up is reported
    /// as [`std::io::ErrorKind::WouldBlock`]. An injected reset leaves
    /// the reset frame and everything after it queued for the reconnect.
    pub fn flush_queued(&mut self) -> std::io::Result<()> {
        if self.injector.is_some() {
            loop {
                match self.flush_nonblocking()? {
                    FlushProgress::Done => return Ok(()),
                    FlushProgress::Blocked => return Err(std::io::ErrorKind::WouldBlock.into()),
                    FlushProgress::Stalled(delay) => {
                        std::thread::sleep(delay.unwrap_or_default());
                        self.resume_stall();
                    }
                }
            }
        }
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.stream.flush()?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Take the queued-but-unflushed bytes, leaving the buffer empty.
    ///
    /// Bytes staged by [`FrameStream::flush_nonblocking`] are *not*
    /// included: they already passed the chaos fate walk, so they cannot
    /// be un-sent and are abandoned with the dead connection.
    pub fn take_queued(&mut self) -> BytesMut {
        self.staged.clear();
        self.stalled = false;
        self.delay_fired = false;
        std::mem::take(&mut self.wbuf)
    }

    /// Whether fate-walked bytes are still waiting for socket space
    /// (only ever true between [`FrameStream::flush_nonblocking`] calls
    /// that reported [`FlushProgress::Blocked`] or a stall).
    pub fn has_staged(&self) -> bool {
        !self.staged.is_empty()
    }

    /// Clear a chaos stall previously reported as
    /// [`FlushProgress::Stalled`]`(Some(d))`, after waiting `d`.
    pub fn resume_stall(&mut self) {
        self.stalled = false;
    }

    /// Nonblocking counterpart of [`FrameStream::flush_queued`] for
    /// reactor-driven senders; the socket must be in nonblocking mode.
    ///
    /// Writes as much as the socket accepts without blocking, applying
    /// the chaos fate walk incrementally in frame order. This is the one
    /// fate walk: [`FrameStream::flush_queued`] drives it too, so the
    /// fault trace does not depend on which flush ran. A `Delay` fate is
    /// reported as [`FlushProgress::Stalled`] for the caller to turn
    /// into a reactor deadline instead of a `sleep`, and socket
    /// backpressure is reported as [`FlushProgress::Blocked`] for the
    /// caller to turn into write interest. An injected reset shuts the
    /// connection down and leaves the reset frame and everything after
    /// it queued for the caller's reconnect path.
    pub fn flush_nonblocking(&mut self) -> std::io::Result<FlushProgress> {
        let mut fresh_stall = None;
        loop {
            // Drain already-fate-walked bytes first.
            while !self.staged.is_empty() {
                match self.stream.write(&self.staged) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WriteZero,
                            "socket accepted zero bytes",
                        ))
                    }
                    Ok(n) => self.staged.advance(n),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return Ok(FlushProgress::Blocked)
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        // Walked bytes cannot be un-sent; keep only the
                        // unwalked remainder for the reconnect.
                        self.staged.clear();
                        return Err(e);
                    }
                }
            }
            if let Some(d) = fresh_stall {
                return Ok(FlushProgress::Stalled(Some(d)));
            }
            if self.stalled {
                return Ok(FlushProgress::Stalled(None));
            }
            if self.wbuf.is_empty() {
                return Ok(FlushProgress::Done);
            }
            if self.injector.is_none() {
                // Fast path: no fate walk, write straight from the queue.
                match self.stream.write(&self.wbuf) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WriteZero,
                            "socket accepted zero bytes",
                        ))
                    }
                    Ok(n) => self.wbuf.advance(n),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return Ok(FlushProgress::Blocked)
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
                continue;
            }
            match self.stage_next_frame() {
                StageOutcome::Staged => continue,
                StageOutcome::Stall(d) => {
                    self.stalled = true;
                    self.delay_fired = true;
                    fresh_stall = Some(d);
                    // Loop once more to push staged bytes before pausing.
                }
                StageOutcome::Reset => {
                    // Best-effort delivery of the frames before the
                    // reset, then kill the connection for real.
                    let _ = self.stream.write(&self.staged);
                    self.staged.clear();
                    let _ = self.stream.shutdown(std::net::Shutdown::Both);
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "injected connection reset (chaos)",
                    ));
                }
            }
        }
    }

    /// Move the frame at the front of `wbuf` into `staged` according to
    /// its chaos fate. Fate indices advance exactly once per frame in
    /// queue order, however the flushes that stage them are split.
    fn stage_next_frame(&mut self) -> StageOutcome {
        let avail = self.wbuf.len();
        debug_assert!(avail > 0);
        let header_ok = avail >= FRAME_HEADER_LEN;
        let total = if header_ok {
            let len = u32::from_be_bytes([self.wbuf[0], self.wbuf[1], self.wbuf[2], self.wbuf[3]])
                as usize;
            FRAME_HEADER_LEN + len
        } else {
            0
        };
        if !header_ok || total > avail {
            // Incomplete tail: send verbatim.
            self.staged.extend_from_slice(&self.wbuf);
            self.wbuf.advance(avail);
            return StageOutcome::Staged;
        }
        if self.delay_fired {
            // This frame's Delay fate was drawn before the stall; deliver
            // it now without drawing another.
            self.delay_fired = false;
            self.staged.extend_from_slice(&self.wbuf[..total]);
            self.wbuf.advance(total);
            return StageOutcome::Staged;
        }
        let kind = self.wbuf[4];
        // Data-plane injectors leave control and EOS frames alone: a
        // dropped EOS is not a fault drill, it is a guaranteed hang.
        let payload_frame = kind == 0 || kind == 1;
        let inj = self.injector.as_mut().expect("injector present in chaos stage");
        let fate =
            if payload_frame || !inj.payload_only() { inj.next_fate() } else { FaultFate::Deliver };
        match fate {
            FaultFate::Deliver => {
                self.staged.extend_from_slice(&self.wbuf[..total]);
                self.wbuf.advance(total);
            }
            FaultFate::Drop => self.wbuf.advance(total),
            FaultFate::Duplicate => {
                self.staged.extend_from_slice(&self.wbuf[..total]);
                self.staged.extend_from_slice(&self.wbuf[..total]);
                self.wbuf.advance(total);
            }
            FaultFate::Corrupt { len_prefix, bit } => {
                let at = self.staged.len();
                self.staged.extend_from_slice(&self.wbuf[..total]);
                if len_prefix {
                    // Force an Oversized header: unresyncable, so the
                    // receiver must poison and reconnect the link.
                    self.staged[at] ^= 0x80;
                } else {
                    // Flip one bit inside the CRC region: the receiver
                    // must skip and count exactly this frame.
                    let bits = ((total - 4) * 8) as u64;
                    let b = (bit % bits) as usize;
                    self.staged[at + 4 + b / 8] ^= 1 << (b % 8);
                }
                self.wbuf.advance(total);
            }
            FaultFate::Delay(d) => return StageOutcome::Stall(d),
            FaultFate::Reset => return StageOutcome::Reset,
        }
        StageOutcome::Staged
    }

    /// Read the next intact frame.
    ///
    /// Returns `Ok(None)` on clean EOF (peer closed the connection),
    /// `Err(TransportError::TimedOut)` when a configured read timeout
    /// expires mid-frame (retryable), and `Err(TransportError::Io)` on a
    /// socket error. Corrupted frames are skipped and counted, never
    /// returned.
    pub fn read_frame(&mut self) -> Result<Option<Frame>, TransportError> {
        loop {
            match decode_frame(&mut self.buf) {
                Ok(frame) => return Ok(Some(frame)),
                Err(FrameDecodeError::Truncated(_)) => {
                    if !self.fill()? {
                        if self.buf.is_empty() {
                            return Ok(None);
                        }
                        // A partial frame followed by EOF: the tail can
                        // never complete, treat it as a truncated link.
                        return Err(TransportError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            format!(
                                "connection closed mid-frame ({} bytes pending)",
                                self.buf.len()
                            ),
                        )));
                    }
                }
                Err(FrameDecodeError::BadChecksum(..)) | Err(FrameDecodeError::BadKind(_)) => {
                    self.skip_bad_frame();
                }
                Err(FrameDecodeError::Oversized(claimed)) => {
                    // The length prefix itself is corrupt, so there is no
                    // trustworthy resync point: poison the connection and
                    // let the caller's reconnect logic recover.
                    return Err(TransportError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("frame header claims a {claimed}-byte payload; stream corrupt"),
                    )));
                }
            }
        }
    }

    /// Drop the frame at the front of the buffer using the length its
    /// header claims (the length prefix is outside the CRC region, so it
    /// is the best available resync point).
    fn skip_bad_frame(&mut self) {
        debug_assert!(self.buf.len() >= FRAME_HEADER_LEN);
        let payload_len =
            u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        let total = (FRAME_HEADER_LEN + payload_len).min(self.buf.len());
        self.buf.advance(total);
        self.crc_failures += 1;
    }

    /// Read more bytes from the socket into the buffer. Returns `false`
    /// on EOF.
    fn fill(&mut self) -> Result<bool, TransportError> {
        let mut chunk = [0u8; 8 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(false),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e) => Err(TransportError::from(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, FrameKind};
    use bytes::Bytes;
    use std::net::TcpListener;

    fn frame(seq: u64, payload: &'static [u8]) -> Frame {
        Frame { kind: FrameKind::Data, stream_id: 1, seq, payload: Bytes::from_static(payload) }
    }

    /// Loopback pair: returns (client stream, server-accepted stream).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn frames_round_trip_over_loopback() {
        let (client, server) = pair();
        let mut tx = FrameStream::new(client);
        let mut rx = FrameStream::new(server);
        for seq in 0..10u64 {
            tx.send(&frame(seq, b"hello over tcp")).unwrap();
        }
        drop(tx);
        for seq in 0..10u64 {
            let got = rx.read_frame().unwrap().expect("frame");
            assert_eq!(got.seq, seq);
            assert_eq!(&got.payload[..], b"hello over tcp");
        }
        assert!(rx.read_frame().unwrap().is_none(), "clean EOF after sender closes");
        assert_eq!(rx.crc_failures(), 0);
    }

    #[test]
    fn corrupted_frame_is_counted_and_skipped() {
        let (mut client, server) = pair();
        let mut rx = FrameStream::new(server);
        let good = encode_frame(&frame(1, b"first"));
        let mut bad = encode_frame(&frame(2, b"corrupt me")).to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF; // flip a payload bit -> CRC mismatch
        let tail = encode_frame(&frame(3, b"after the damage"));
        client.write_all(&good).unwrap();
        client.write_all(&bad).unwrap();
        client.write_all(&tail).unwrap();
        drop(client);

        assert_eq!(rx.read_frame().unwrap().unwrap().seq, 1);
        let after = rx.read_frame().unwrap().expect("stream survives the bad frame");
        assert_eq!(after.seq, 3, "corrupted frame 2 skipped");
        assert_eq!(&after.payload[..], b"after the damage");
        assert_eq!(rx.crc_failures(), 1);
        assert!(rx.read_frame().unwrap().is_none());
    }

    #[test]
    fn queued_frames_coalesce_into_one_flush() {
        let (client, server) = pair();
        let mut tx = FrameStream::new(client);
        let mut rx = FrameStream::new(server);
        for seq in 0..50u64 {
            tx.queue(&frame(seq, b"batched"));
        }
        assert!(tx.queued_len() > 0, "nothing on the wire before the flush");
        assert_eq!(
            tx.queued_len(),
            50 * (FRAME_HEADER_LEN + b"batched".len()),
            "queue holds exactly the encoded frames"
        );
        tx.flush_queued().unwrap();
        assert_eq!(tx.queued_len(), 0);
        drop(tx);
        for seq in 0..50u64 {
            assert_eq!(rx.read_frame().unwrap().expect("frame").seq, seq);
        }
        assert!(rx.read_frame().unwrap().is_none());
    }

    #[test]
    fn take_queued_carries_pending_bytes_to_a_new_stream() {
        let (client_a, _server_a) = pair();
        let mut tx = FrameStream::new(client_a);
        tx.queue(&frame(1, b"carried"));
        let pending = tx.take_queued();
        assert_eq!(tx.queued_len(), 0);

        let (client_b, server_b) = pair();
        let mut tx2 = FrameStream::new(client_b);
        let mut rx = FrameStream::new(server_b);
        tx2.queue_buffer().extend_from_slice(&pending);
        tx2.flush_queued().unwrap();
        drop(tx2);
        assert_eq!(rx.read_frame().unwrap().expect("frame").seq, 1);
    }

    #[test]
    fn corrupted_length_prefix_poisons_the_stream() {
        let (mut client, server) = pair();
        let mut rx = FrameStream::new(server);
        let mut bytes = encode_frame(&frame(1, b"soon oversized")).to_vec();
        bytes[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        client.write_all(&bytes).unwrap();
        match rx.read_frame() {
            Err(TransportError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected poisoned stream, got {other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let (mut client, server) = pair();
        let mut rx = FrameStream::new(server);
        let encoded = encode_frame(&frame(1, b"will be cut short"));
        client.write_all(&encoded[..encoded.len() - 4]).unwrap();
        drop(client);
        match rx.read_frame() {
            Err(TransportError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("expected mid-frame EOF error, got {other:?}"),
        }
    }

    #[test]
    fn read_timeout_is_retryable() {
        let (client, server) = pair();
        let mut rx = FrameStream::new(server);
        rx.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        assert!(matches!(rx.read_frame(), Err(TransportError::TimedOut)));
        // The stream is still usable afterwards.
        let mut tx = FrameStream::new(client);
        tx.send(&frame(9, b"late")).unwrap();
        assert_eq!(rx.read_frame().unwrap().unwrap().seq, 9);
    }

    #[test]
    fn connect_with_retry_reaches_a_late_listener() {
        // Reserve a port, close the listener, re-open it after a delay.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            let listener = TcpListener::bind(addr).unwrap();
            listener.accept().map(|_| ()).ok();
        });
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(40),
            max_delay: Duration::from_millis(200),
        };
        let mut retries = 0;
        let stream =
            connect_with_retry(addr, Duration::from_millis(200), &policy, |_, _| retries += 1);
        assert!(stream.is_ok(), "late listener must be reached: {stream:?}");
        assert!(retries >= 1, "at least one backoff retry happened");
        opener.join().unwrap();
    }

    #[test]
    fn connect_with_retry_gives_up_after_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener); // nobody listening
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(20),
        };
        let mut attempts_logged = 0;
        let res = connect_with_retry(addr, Duration::from_millis(100), &policy, |_, _| {
            attempts_logged += 1
        });
        assert!(res.is_err());
        assert_eq!(attempts_logged, 2, "on_retry fires between attempts, not after the last");
    }

    #[test]
    fn chaos_flush_drops_corrupts_and_duplicates_deterministically() {
        use crate::fault::{FaultFate, FaultPlan};
        let plan = FaultPlan::parse("seed=3,drop=0.2,corrupt=0.1,dup=0.1").unwrap();
        // Length-prefix corruptions poison the receiver (tested
        // separately); keep this run inside the poison-free prefix.
        let probe = plan.injector_for_link(2);
        let n = (0..400u64)
            .take_while(|i| {
                !matches!(probe.fate_of(*i), FaultFate::Corrupt { len_prefix: true, .. })
            })
            .count() as u64;
        assert!(n >= 30, "seed 3 leaves a usable poison-free prefix, got {n}");

        let run = || {
            let (client, server) = pair();
            let mut tx = FrameStream::new(client);
            tx.set_fault_injector(Some(plan.injector_for_link(2)));
            let mut rx = FrameStream::new(server);
            for seq in 0..n {
                tx.queue(&frame(seq, b"chaos payload"));
            }
            tx.flush_queued().expect("no reset in this plan");
            let injected = tx.fault_injector_mut().unwrap().take_log();
            drop(tx);
            let mut seqs = Vec::new();
            while let Some(f) = rx.read_frame().unwrap() {
                seqs.push(f.seq);
            }
            (seqs, rx.crc_failures(), injected)
        };

        let (seqs, crc_failures, injected) = run();
        let drops =
            injected.iter().filter(|f| matches!(f.fate, crate::FaultFate::Drop)).count() as u64;
        let dups = injected.iter().filter(|f| matches!(f.fate, crate::FaultFate::Duplicate)).count()
            as u64;
        let corrupts =
            injected.iter().filter(|f| matches!(f.fate, crate::FaultFate::Corrupt { .. })).count()
                as u64;
        assert!(drops > 0 && dups > 0 && corrupts > 0, "plan must fire each fault: {injected:?}");
        assert_eq!(crc_failures, corrupts, "every corruption is caught by the receiver's CRC");
        assert_eq!(seqs.len() as u64, n - drops - corrupts + dups);
        let mut expected: Vec<u64> = (0..n).collect();
        for f in injected.iter().rev() {
            match f.fate {
                crate::FaultFate::Drop | crate::FaultFate::Corrupt { .. } => {
                    expected.remove(f.index as usize);
                }
                crate::FaultFate::Duplicate => expected.insert(f.index as usize, f.index),
                _ => {}
            }
        }
        assert_eq!(seqs, expected, "surviving frames arrive in order");

        // Replay: the same seed injects the identical fault sequence.
        let (seqs2, crc2, injected2) = run();
        assert_eq!(seqs2, seqs);
        assert_eq!(crc2, crc_failures);
        assert_eq!(injected2, injected);
    }

    #[test]
    fn chaos_len_prefix_corruption_poisons_the_receiver() {
        use crate::fault::{FaultFate, FaultPlan};
        // Find a frame index whose corruption hits the length prefix.
        let plan = FaultPlan::parse("seed=1,corrupt=1.0").unwrap();
        let probe = plan.injector_for_link(0);
        let poison_at = (0..200u64)
            .find(|i| matches!(probe.fate_of(*i), FaultFate::Corrupt { len_prefix: true, .. }))
            .expect("a 100% corrupt plan must hit the length prefix within 200 frames");

        let (client, server) = pair();
        let mut tx = FrameStream::new(client);
        tx.set_fault_injector(Some(plan.injector_for_link(0)));
        let mut rx = FrameStream::new(server);
        for seq in 0..=poison_at {
            tx.queue(&frame(seq, b"poison pending"));
        }
        tx.flush_queued().unwrap();
        let err = loop {
            match rx.read_frame() {
                Ok(Some(_)) => panic!("every frame in this plan is corrupted"),
                Ok(None) => panic!("stream must poison before EOF"),
                Err(TransportError::TimedOut) => continue,
                Err(TransportError::Io(e)) => break e,
            }
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "length corruption poisons");
    }

    #[test]
    fn chaos_reset_keeps_remaining_frames_queued_for_reconnect() {
        use crate::fault::{FaultFate, FaultPlan};
        let plan = FaultPlan::parse("seed=1,reset=0.05").unwrap();
        let probe = plan.injector_for_link(7);
        let reset_at = (0..500u64)
            .find(|i| probe.fate_of(*i) == FaultFate::Reset)
            .expect("a 5% reset plan fires within 500 frames");
        // The retained frames are re-walked at fresh indices after the
        // reconnect; this seed must not fire a second reset there.
        assert!(
            (reset_at + 1..reset_at + 11).all(|i| probe.fate_of(i) != FaultFate::Reset),
            "pick a seed whose first reset is not immediately followed by another"
        );

        let (client, server) = pair();
        let mut tx = FrameStream::new(client);
        tx.set_fault_injector(Some(plan.injector_for_link(7)));
        let mut rx = FrameStream::new(server);
        let total = reset_at + 10;
        for seq in 0..total {
            tx.queue(&frame(seq, b"reset me"));
        }
        let err = tx.flush_queued().expect_err("plan injects a reset");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert!(tx.queued_len() > 0, "frames after the reset stay queued");

        // The standard reconnect dance: carry pending bytes and the
        // injector to a new stream, and the tail arrives.
        let pending = tx.take_queued();
        let injector = tx.take_fault_injector();
        let (client2, server2) = pair();
        let mut tx2 = FrameStream::new(client2);
        tx2.queue_buffer().extend_from_slice(&pending);
        tx2.set_fault_injector(injector);
        let mut rx2 = FrameStream::new(server2);
        tx2.flush_queued().expect("second reset at these indices would be vanishingly likely");
        drop(tx2);

        let mut first_leg = Vec::new();
        while let Some(f) = rx.read_frame().unwrap_or(None) {
            first_leg.push(f.seq);
        }
        let mut second_leg = Vec::new();
        while let Some(f) = rx2.read_frame().unwrap() {
            second_leg.push(f.seq);
        }
        assert_eq!(*second_leg.last().expect("tail delivered"), total - 1);
        assert_eq!(
            first_leg.len() + second_leg.len(),
            total as usize,
            "no frame lost or duplicated across the reset"
        );
    }

    #[test]
    fn nonblocking_flush_fast_path_delivers_and_handles_backpressure() {
        let (client, server) = pair();
        client.set_nonblocking(true).unwrap();
        let mut tx = FrameStream::new(client);
        let mut rx = FrameStream::new(server);

        // Small batch: goes out in one call.
        for seq in 0..10u64 {
            tx.queue(&frame(seq, b"nonblocking"));
        }
        assert_eq!(tx.flush_nonblocking().unwrap(), FlushProgress::Done);
        for seq in 0..10u64 {
            assert_eq!(rx.read_frame().unwrap().unwrap().seq, seq);
        }

        // Overfill the socket buffer without reading: must report
        // Blocked, then finish once the reader drains.
        let big = vec![0xABu8; 32 * 1024];
        let mut queued = 0u64;
        let blocked = loop {
            tx.queue(&Frame {
                kind: FrameKind::Data,
                stream_id: 1,
                seq: queued,
                payload: bytes::Bytes::from(big.clone()),
            });
            queued += 1;
            match tx.flush_nonblocking().unwrap() {
                FlushProgress::Done => {
                    assert!(queued < 10_000, "socket buffer never filled");
                }
                FlushProgress::Blocked => break true,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert!(blocked);
        let reader = std::thread::spawn(move || {
            let mut got = 0u64;
            while let Some(f) = rx.read_frame().unwrap() {
                assert_eq!(f.seq, got);
                got += 1;
            }
            got
        });
        // Drain the remainder as the reader consumes.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match tx.flush_nonblocking().unwrap() {
                FlushProgress::Done => break,
                FlushProgress::Blocked => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("unexpected {other:?}"),
            }
            assert!(std::time::Instant::now() < deadline, "flush never completed");
        }
        drop(tx);
        assert_eq!(reader.join().unwrap(), queued);
    }

    #[test]
    fn nonblocking_chaos_flush_matches_blocking_fault_trace() {
        use crate::fault::{FaultFate, FaultPlan};
        let plan = FaultPlan::parse("seed=3,drop=0.2,corrupt=0.1,dup=0.1").unwrap();
        let probe = plan.injector_for_link(2);
        let n = (0..400u64)
            .take_while(|i| {
                !matches!(probe.fate_of(*i), FaultFate::Corrupt { len_prefix: true, .. })
            })
            .count() as u64;

        // Blocking reference run.
        let blocking = {
            let (client, server) = pair();
            let mut tx = FrameStream::new(client);
            tx.set_fault_injector(Some(plan.injector_for_link(2)));
            let mut rx = FrameStream::new(server);
            for seq in 0..n {
                tx.queue(&frame(seq, b"chaos payload"));
            }
            tx.flush_queued().unwrap();
            let injected = tx.fault_injector_mut().unwrap().take_log();
            drop(tx);
            let mut seqs = Vec::new();
            while let Some(f) = rx.read_frame().unwrap() {
                seqs.push(f.seq);
            }
            (seqs, rx.crc_failures(), injected)
        };

        // Nonblocking run, flushing after every queued frame to prove
        // incremental fate-walking gives the same trace as one big walk.
        let nonblocking = {
            let (client, server) = pair();
            client.set_nonblocking(true).unwrap();
            let mut tx = FrameStream::new(client);
            tx.set_fault_injector(Some(plan.injector_for_link(2)));
            let mut rx = FrameStream::new(server);
            for seq in 0..n {
                tx.queue(&frame(seq, b"chaos payload"));
                loop {
                    match tx.flush_nonblocking().unwrap() {
                        FlushProgress::Done => break,
                        FlushProgress::Blocked => std::thread::sleep(Duration::from_millis(1)),
                        FlushProgress::Stalled(_) => unreachable!("plan has no delay"),
                    }
                }
            }
            let injected = tx.fault_injector_mut().unwrap().take_log();
            drop(tx);
            let mut seqs = Vec::new();
            while let Some(f) = rx.read_frame().unwrap() {
                seqs.push(f.seq);
            }
            (seqs, rx.crc_failures(), injected)
        };

        assert_eq!(nonblocking.2, blocking.2, "identical fault traces");
        assert_eq!(nonblocking.0, blocking.0, "identical surviving frames");
        assert_eq!(nonblocking.1, blocking.1, "identical CRC-skip counts");
    }

    #[test]
    fn nonblocking_chaos_delay_stalls_instead_of_sleeping() {
        use crate::fault::{FaultFate, FaultPlan};
        let plan = FaultPlan::parse("seed=5,delay=5ms..10ms").unwrap();
        let probe = plan.injector_for_link(1);
        let delay_at = (0..200u64)
            .find(|i| matches!(probe.fate_of(*i), FaultFate::Delay(_)))
            .expect("delay plan fires within 200 frames");

        let (client, server) = pair();
        client.set_nonblocking(true).unwrap();
        let mut tx = FrameStream::new(client);
        tx.set_fault_injector(Some(plan.injector_for_link(1)));
        let mut rx = FrameStream::new(server);
        let total = delay_at + 3;
        for seq in 0..total {
            tx.queue(&frame(seq, b"delay me"));
        }
        let started = std::time::Instant::now();
        let d = loop {
            match tx.flush_nonblocking().unwrap() {
                FlushProgress::Stalled(Some(d)) => break d,
                FlushProgress::Stalled(None) => panic!("first stall must carry the duration"),
                FlushProgress::Blocked => std::thread::sleep(Duration::from_millis(1)),
                FlushProgress::Done => panic!("plan must stall before finishing"),
            }
        };
        assert!(
            started.elapsed() < d,
            "flush returned without sleeping the {d:?} delay (took {:?})",
            started.elapsed()
        );
        // Still stalled until the caller resumes.
        assert_eq!(tx.flush_nonblocking().unwrap(), FlushProgress::Stalled(None));
        tx.resume_stall();
        loop {
            match tx.flush_nonblocking().unwrap() {
                FlushProgress::Done => break,
                FlushProgress::Blocked => std::thread::sleep(Duration::from_millis(1)),
                FlushProgress::Stalled(_) => panic!("only one delay in this window"),
            }
        }
        drop(tx);
        let mut seqs = Vec::new();
        while let Some(f) = rx.read_frame().unwrap() {
            seqs.push(f.seq);
        }
        assert_eq!(seqs, (0..total).collect::<Vec<_>>(), "delay reorders nothing");
    }

    #[test]
    fn jittered_backoff_stays_within_half_and_full_delay() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
        };
        assert_eq!(p.jittered_delay(0, 7), Duration::ZERO);
        for attempt in 1..6 {
            let base = p.delay(attempt);
            let j = p.jittered_delay(attempt, 7);
            assert!(
                j >= base / 2 && j <= base,
                "attempt {attempt}: {j:?} not in [{base:?}/2, {base:?}]"
            );
            assert_eq!(j, p.jittered_delay(attempt, 7), "jitter is deterministic");
        }
        assert_ne!(
            p.jittered_delay(3, 1),
            p.jittered_delay(3, 2),
            "different seeds should land on different jitter"
        );
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(300),
        };
        assert_eq!(p.delay(0), Duration::ZERO);
        assert_eq!(p.delay(1), Duration::from_millis(50));
        assert_eq!(p.delay(2), Duration::from_millis(100));
        assert_eq!(p.delay(3), Duration::from_millis(200));
        assert_eq!(p.delay(4), Duration::from_millis(300), "capped");
        assert_eq!(p.delay(5), Duration::from_millis(300));
    }
}
