//! Readiness-driven I/O reactor.
//!
//! A [`Reactor`] owns one epoll instance and drives any number of
//! registered [`Source`]s — sockets, listeners, anything with an fd, and
//! fd-less sources that only wait for a notify or a deadline — with
//! level-triggered readiness instead of blocking reads and
//! `set_read_timeout` polling. Cross-thread coordination goes through a
//! command queue flushed by an `eventfd` wakeup: other threads
//! [`Reactor::register`] new sources, [`Reactor::notify`] a source
//! (e.g. "your send queue is non-empty"), or [`Reactor::close`] one,
//! all without touching the driving thread's state directly.
//!
//! Each time a source is serviced it returns a [`Directive`] declaring
//! what it wants next: read interest (dropped for backpressure pauses),
//! write interest (registered only while there is something to flush),
//! an optional deadline (retry timers, chaos delay stalls), or close.
//! The reactor translates those into `epoll_ctl` interest changes and
//! its `epoll_wait` timeout, so an idle data plane makes zero wakeups.
//!
//! The loop itself is a [`Driver`] that any one thread turns.
//! [`Reactor::spawn`] gives it a thread of its own that turns it
//! forever; [`Reactor::with_driver`] hands it to the caller instead —
//! the engine's pool workers each turn one between stage steps, so a
//! stage and the sockets it feeds share a thread. A notify, register
//! or close issued *by the driving thread* skips the eventfd write: it
//! only flags the driver, which services it on its next
//! [`Driver::service_pending`] or turn.

use std::cell::Cell;
use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use epoll::{Epoll, Event, EventFd, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Identifies a registered source within its reactor.
pub type Token = u64;

/// Why a source is being serviced.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ready {
    /// The fd is readable (or hung up / errored, which a read reports).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// Another thread called [`Reactor::notify`] for this source.
    pub notified: bool,
    /// The deadline the source asked for has passed.
    pub timed_out: bool,
}

/// What a source wants after being serviced.
#[derive(Clone, Copy, Debug)]
pub struct Directive {
    /// Keep read interest. Dropping it pauses delivery (backpressure)
    /// until a later directive or notify re-arms it.
    pub want_read: bool,
    /// Register write interest. Sources ask for this only while their
    /// flush queue is non-empty, so an idle connection never wakes the
    /// reactor with "still writable".
    pub want_write: bool,
    /// Service again (with `timed_out` set) once this instant passes.
    pub deadline: Option<Instant>,
    /// Deregister and drop the source.
    pub close: bool,
}

impl Directive {
    /// Keep read interest only: the steady state of a receive path.
    pub fn read() -> Directive {
        Directive { want_read: true, want_write: false, deadline: None, close: false }
    }

    /// Read interest plus write interest (flush queue non-empty).
    pub fn read_write() -> Directive {
        Directive { want_read: true, want_write: true, deadline: None, close: false }
    }

    /// Deregister and drop the source.
    pub fn close() -> Directive {
        Directive { want_read: false, want_write: false, deadline: None, close: true }
    }

    /// Add a deadline to this directive.
    pub fn with_deadline(mut self, at: Instant) -> Directive {
        self.deadline = Some(at);
        self
    }
}

/// An object driven by a [`Reactor`], usually around an fd.
///
/// The source owns its socket. `service` performs the actual
/// nonblocking I/O; it is always called from the driving thread, so a
/// source needs no internal locking for state only it touches.
pub trait Source: Send {
    /// The fd to poll, read once at registration. Must stay valid and
    /// constant while registered: a source whose socket changes closes
    /// and registers again under a new token. `-1` means no socket (a
    /// link waiting out a backoff): the reactor then services the source
    /// only on [`Reactor::notify`] and on its deadline.
    fn fd(&self) -> RawFd;

    /// Handle readiness/notify/deadline; say what to watch for next.
    fn service(&mut self, ready: Ready, now: Instant) -> Directive;

    /// Called once when the reactor drops the source (close directive,
    /// [`Reactor::close`], or reactor shutdown).
    fn closed(&mut self) {}
}

enum Cmd {
    Register(Token, Box<dyn Source>),
    Close(Token),
}

struct Shared {
    epoll: Epoll,
    wakeup: EventFd,
    cmds: Mutex<Vec<Cmd>>,
    notifies: Mutex<Vec<Token>>,
    next_token: AtomicU64,
    shutdown: AtomicBool,
    /// The driving thread queued a command or notify and skipped the
    /// eventfd write. Written and read only by the driving thread.
    local_pending: AtomicBool,
    /// Eventfd writes made to wake the driver.
    wakeups: AtomicU64,
}

thread_local! {
    /// Address of the [`Shared`] of the reactor this thread drives, or 0.
    static DRIVING: Cell<usize> = const { Cell::new(0) };
}

impl Shared {
    /// Make sure the driver sees what was just queued: a flag when the
    /// caller is the driving thread, else an eventfd write.
    fn signal(&self) {
        if DRIVING.with(Cell::get) == self as *const Shared as usize {
            self.local_pending.store(true, Ordering::Relaxed);
        } else {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            self.wakeup.notify();
        }
    }
}

/// Handle to a reactor. Cheap to clone; all methods are safe from any
/// thread (including from inside a source's `service`).
#[derive(Clone)]
pub struct Reactor {
    shared: Arc<Shared>,
    thread: Arc<Mutex<Option<JoinHandle<()>>>>,
}

/// Wakeup fd's reserved token; sources start above it.
const WAKE_TOKEN: Token = 0;

impl Reactor {
    /// Spawn a reactor with a thread of its own that turns its driver
    /// until [`Reactor::shutdown`].
    pub fn spawn(name: &str) -> io::Result<Reactor> {
        let (reactor, mut driver) = Reactor::with_driver()?;
        let thread =
            std::thread::Builder::new().name(format!("gates-reactor-{name}")).spawn(move || {
                driver.attach();
                while driver.turn(None) {}
            })?;
        *reactor.thread.lock().unwrap_or_else(|p| p.into_inner()) = Some(thread);
        Ok(reactor)
    }

    /// A reactor without a thread: the caller turns the returned
    /// [`Driver`] on a thread of its choosing.
    pub fn with_driver() -> io::Result<(Reactor, Driver)> {
        let epoll = Epoll::new()?;
        let wakeup = EventFd::new()?;
        epoll.add(wakeup.fd(), EPOLLIN, WAKE_TOKEN)?;
        let shared = Arc::new(Shared {
            epoll,
            wakeup,
            cmds: Mutex::new(Vec::new()),
            notifies: Mutex::new(Vec::new()),
            next_token: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            local_pending: AtomicBool::new(false),
            wakeups: AtomicU64::new(0),
        });
        let driver = Driver {
            shared: Arc::clone(&shared),
            entries: HashMap::new(),
            events: Vec::with_capacity(64),
            cmds: Vec::new(),
            notifies: Vec::new(),
            due: Vec::new(),
        };
        Ok((Reactor { shared, thread: Arc::new(Mutex::new(None)) }, driver))
    }

    /// Register a source; it is serviced once immediately (with only
    /// `notified` set) so it can arm timers or start flushing.
    pub fn register(&self, source: Box<dyn Source>) -> Token {
        self.register_with(move |_| source)
    }

    /// Register the source `make` builds from its own token — for a
    /// source that hands its `(Reactor, Token)` to others to be
    /// notified through.
    pub fn register_with(&self, make: impl FnOnce(Token) -> Box<dyn Source>) -> Token {
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        let source = make(token);
        self.shared
            .cmds
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Cmd::Register(token, source));
        self.shared.signal();
        token
    }

    /// Service a source out-of-band (e.g. its send queue went
    /// non-empty, or backpressure downstream cleared).
    pub fn notify(&self, token: Token) {
        self.shared.notifies.lock().unwrap_or_else(|p| p.into_inner()).push(token);
        self.shared.signal();
    }

    /// Deregister and drop a source.
    pub fn close(&self, token: Token) {
        self.shared.cmds.lock().unwrap_or_else(|p| p.into_inner()).push(Cmd::Close(token));
        self.shared.signal();
    }

    /// Interrupt the driver's wait without servicing any source (a pool
    /// worker idling in its reactor has new work).
    pub fn wake(&self) {
        self.shared.signal();
    }

    /// Eventfd writes made so far to wake this reactor's driver.
    pub fn wakeups(&self) -> u64 {
        self.shared.wakeups.load(Ordering::Relaxed)
    }

    /// Stop the reactor, dropping every source, and join its thread if
    /// it has one; a caller-driven reactor closes its sources on the
    /// driver's next turn. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wakeup.notify();
        if let Some(t) = self.thread.lock().unwrap_or_else(|p| p.into_inner()).take() {
            let _ = t.join();
        }
    }
}

struct Entry {
    source: Box<dyn Source>,
    fd: RawFd,
    interest: u32,
    deadline: Option<Instant>,
}

fn interest_mask(d: &Directive) -> u32 {
    let mut m = 0;
    if d.want_read {
        m |= EPOLLIN | EPOLLRDHUP;
    }
    if d.want_write {
        m |= EPOLLOUT;
    }
    m
}

/// Whole milliseconds covering `d`, rounded up so a deadline never fires
/// early and a turn never busy-spins on a sub-millisecond remainder.
fn ceil_ms(d: Duration) -> i32 {
    let ms = d.as_millis().min(i32::MAX as u128) as i32;
    ms.saturating_add(i32::from(!d.subsec_nanos().is_multiple_of(1_000_000)))
}

/// The event loop of one reactor, turned by exactly one thread at a
/// time. Dropping it drops every registered source.
pub struct Driver {
    shared: Arc<Shared>,
    entries: HashMap<Token, Entry>,
    events: Vec<Event>,
    // Scratch buffers swapped with the shared queues each turn so the
    // steady-state loop never allocates.
    cmds: Vec<Cmd>,
    notifies: Vec<Token>,
    due: Vec<Token>,
}

impl Driver {
    /// Make the calling thread this reactor's driving thread: its
    /// notifies, registrations and closes skip the eventfd write.
    pub fn attach(&self) {
        DRIVING.with(|d| d.set(Arc::as_ptr(&self.shared) as usize));
    }

    /// Service the registrations, closes and notifies the driving thread
    /// queued since the last turn, without polling any fd.
    pub fn service_pending(&mut self) {
        if self.shared.local_pending.swap(false, Ordering::Relaxed) {
            self.run_queues(Instant::now());
        }
    }

    /// One turn of the loop: wait until an fd is ready, a wakeup
    /// arrives, the nearest source deadline passes or `cap` elapses
    /// (`None`: no cap), then service queued commands and notifies, fd
    /// readiness, and expired deadlines. Returns `false` once the
    /// reactor is shut down; its sources are dropped by then.
    pub fn turn(&mut self, cap: Option<Duration>) -> bool {
        let now = Instant::now();
        let nearest = self.entries.values().filter_map(|e| e.deadline).min();
        let mut timeout = nearest.map(|d| ceil_ms(d.saturating_duration_since(now)));
        if let Some(cap) = cap {
            let cap = ceil_ms(cap);
            timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
        }
        if self.shared.local_pending.swap(false, Ordering::Relaxed) {
            timeout = Some(0);
        }
        let mut events = std::mem::take(&mut self.events);
        if self.shared.epoll.wait(&mut events, timeout).is_err() {
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        let now = Instant::now();
        if events.iter().any(|e| e.token == WAKE_TOKEN) {
            self.shared.wakeup.drain();
        }
        self.run_queues(now);
        for ev in events.iter().copied() {
            if ev.token == WAKE_TOKEN {
                continue;
            }
            let ready =
                Ready { readable: ev.readable(), writable: ev.writable(), ..Ready::default() };
            self.service_one(ev.token, ready, now);
        }
        self.events = events;

        self.due.clear();
        for (t, e) in self.entries.iter() {
            if e.deadline.is_some_and(|d| d <= now) {
                self.due.push(*t);
            }
        }
        let mut due = std::mem::take(&mut self.due);
        for token in due.drain(..) {
            if let Some(e) = self.entries.get_mut(&token) {
                e.deadline = None;
            }
            self.service_one(token, Ready { timed_out: true, ..Ready::default() }, now);
        }
        self.due = due;

        if self.shared.shutdown.load(Ordering::SeqCst) {
            self.close_all();
            return false;
        }
        true
    }

    /// Drain the cross-thread queues: registrations and closes first,
    /// then explicit notifies.
    fn run_queues(&mut self, now: Instant) {
        let mut cmds = std::mem::take(&mut self.cmds);
        std::mem::swap(&mut cmds, &mut *self.shared.cmds.lock().unwrap_or_else(|p| p.into_inner()));
        for cmd in cmds.drain(..) {
            match cmd {
                Cmd::Register(token, source) => self.add(token, source, now),
                Cmd::Close(token) => {
                    if let Some(e) = self.entries.remove(&token) {
                        self.drop_entry(e);
                    }
                }
            }
        }
        self.cmds = cmds;

        let mut notifies = std::mem::take(&mut self.notifies);
        std::mem::swap(
            &mut notifies,
            &mut *self.shared.notifies.lock().unwrap_or_else(|p| p.into_inner()),
        );
        for token in notifies.drain(..) {
            self.service_one(token, Ready { notified: true, ..Ready::default() }, now);
        }
        self.notifies = notifies;
    }

    fn add(&mut self, token: Token, mut source: Box<dyn Source>, now: Instant) {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            source.closed();
            return;
        }
        let fd = source.fd();
        if fd >= 0 {
            let _ = epoll::set_nonblocking(fd, true);
        }
        // Initial service lets the source arm itself.
        let d = source.service(Ready { notified: true, ..Ready::default() }, now);
        if d.close {
            source.closed();
            return;
        }
        let interest = interest_mask(&d);
        if fd < 0 || self.shared.epoll.add(fd, interest, token).is_ok() {
            self.entries.insert(token, Entry { source, fd, interest, deadline: d.deadline });
        } else {
            source.closed();
        }
    }

    fn service_one(&mut self, token: Token, ready: Ready, now: Instant) {
        let Some(entry) = self.entries.get_mut(&token) else { return };
        let d = entry.source.service(ready, now);
        if d.close {
            let e = self.entries.remove(&token).expect("entry present");
            self.drop_entry(e);
            return;
        }
        entry.deadline = d.deadline;
        let mask = interest_mask(&d);
        if mask != entry.interest {
            entry.interest = mask;
            if entry.fd >= 0 {
                let _ = self.shared.epoll.modify(entry.fd, mask, token);
            }
        }
    }

    /// Stop polling a removed entry's fd, then tell its source.
    fn drop_entry(&self, mut e: Entry) {
        if e.fd >= 0 {
            let _ = self.shared.epoll.delete(e.fd);
        }
        e.source.closed();
    }

    fn close_all(&mut self) {
        for (_, e) in std::mem::take(&mut self.entries) {
            self.drop_entry(e);
        }
    }
}

impl Drop for Driver {
    fn drop(&mut self) {
        self.close_all();
    }
}

/// A fixed set of reactors; sources are dealt round-robin.
pub struct ReactorPool {
    reactors: Vec<Reactor>,
    next: AtomicUsize,
}

impl ReactorPool {
    /// Deal over `reactors`, which must not be empty.
    pub fn new(reactors: Vec<Reactor>) -> ReactorPool {
        assert!(!reactors.is_empty(), "a reactor pool needs at least one reactor");
        ReactorPool { reactors, next: AtomicUsize::new(0) }
    }

    /// The next reactor in round-robin order. Register the returned
    /// handle's sources through it; keep a clone to notify them later.
    pub fn pick(&self) -> Reactor {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.reactors.len();
        self.reactors[i].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Reads everything available and forwards it on a channel.
    struct Echo {
        stream: TcpStream,
        out: mpsc::Sender<Vec<u8>>,
    }

    impl Source for Echo {
        fn fd(&self) -> RawFd {
            self.stream.as_raw_fd()
        }
        fn service(&mut self, ready: Ready, _now: Instant) -> Directive {
            if !ready.readable {
                return Directive::read();
            }
            let mut buf = [0u8; 1024];
            loop {
                match self.stream.read(&mut buf) {
                    Ok(0) => return Directive::close(),
                    Ok(n) => {
                        let _ = self.out.send(buf[..n].to_vec());
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Directive::read(),
                    Err(_) => return Directive::close(),
                }
            }
        }
    }

    #[test]
    fn reactor_reads_on_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        let reactor = Reactor::spawn("test").unwrap();
        let (tx, rx) = mpsc::channel();
        reactor.register(Box::new(Echo { stream: server, out: tx }));

        client.write_all(b"hello").unwrap();
        let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, b"hello");

        // Peer close drops the source.
        drop(client);
        assert!(rx.recv_timeout(Duration::from_secs(2)).is_err());
        reactor.shutdown();
    }

    /// Counts notifies and deadline firings.
    struct Ticker {
        stream: TcpStream,
        evs: mpsc::Sender<&'static str>,
        armed: bool,
    }

    impl Source for Ticker {
        fn fd(&self) -> RawFd {
            self.stream.as_raw_fd()
        }
        fn service(&mut self, ready: Ready, now: Instant) -> Directive {
            if ready.timed_out {
                let _ = self.evs.send("deadline");
                return Directive::read();
            }
            if ready.notified && !self.armed {
                self.armed = true;
                let _ = self.evs.send("notified");
                return Directive::read().with_deadline(now + Duration::from_millis(20));
            }
            Directive::read()
        }
    }

    #[test]
    fn notify_then_deadline_fires_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        let reactor = Reactor::spawn("tick").unwrap();
        let (tx, rx) = mpsc::channel();
        let token = reactor.register(Box::new(Ticker { stream: server, evs: tx, armed: false }));
        // Registration's initial service already counts as the notify.
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), "notified");
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), "deadline");
        // No further deadline: the directive after firing had none.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        reactor.close(token);
        reactor.shutdown();
    }

    /// No fd: reports every service on a channel, asking for a deadline
    /// 30 ms after its first one and none after that.
    struct Socketless {
        evs: mpsc::Sender<Ready>,
        armed: bool,
    }

    impl Source for Socketless {
        fn fd(&self) -> RawFd {
            -1
        }
        fn service(&mut self, ready: Ready, now: Instant) -> Directive {
            let _ = self.evs.send(ready);
            // Interest in an fd it does not have must not matter.
            let d = Directive::read_write();
            if std::mem::replace(&mut self.armed, true) {
                d
            } else {
                d.with_deadline(now + Duration::from_millis(30))
            }
        }
    }

    #[test]
    fn a_socketless_source_runs_on_notify_and_deadline_only() {
        let reactor = Reactor::spawn("socketless").unwrap();
        let (tx, rx) = mpsc::channel();
        let began = Instant::now();
        let token = reactor.register(Box::new(Socketless { evs: tx, armed: false }));
        let first = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(first.notified && !first.timed_out, "registration services it once");
        let second = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(second.timed_out && !second.notified && !second.readable && !second.writable);
        assert!(began.elapsed() >= Duration::from_millis(30), "never early");
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "no deadline, no fd: idle");
        reactor.notify(token);
        let third = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(third.notified && !third.timed_out);
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "idle again");
        reactor.close(token);
        reactor.shutdown();
    }

    #[test]
    fn pool_deals_round_robin() {
        let (r0, _d0) = Reactor::with_driver().unwrap();
        let (r1, _d1) = Reactor::with_driver().unwrap();
        let pool = ReactorPool::new(vec![r0, r1]);
        let a = pool.pick();
        let b = pool.pick();
        let c = pool.pick();
        assert!(!Arc::ptr_eq(&a.shared, &b.shared));
        assert!(Arc::ptr_eq(&a.shared, &c.shared));
    }
}
