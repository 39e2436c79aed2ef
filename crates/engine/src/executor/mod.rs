//! Work-stealing multi-core stage executor.
//!
//! The wall-clock runtimes run every stage as a run-to-yield
//! **activation** scheduled onto a fixed [`CorePool`], so a 4-stage
//! pipeline can use a 32-core box and a worker hosting hundreds of stage
//! replicas needs no thread per replica:
//!
//! * each pool worker (`gates-exec-N`) owns a FIFO run queue plus a LIFO
//!   wake slot; idle workers steal from the back of their peers' queues;
//! * a shared [`timer::TimerWheel`] (1 ms granularity) turns every wait
//!   for a peer ([`Step::Wait`]: an empty input queue, a full output
//!   queue) and every park longer than one granularity (source
//!   `next_poll`, token-bucket pacing) into a timed re-enqueue, so a
//!   waiting stage costs no core at all and the peer's wake ends the
//!   wait. No thread drives the wheel: the pool workers fire it
//!   themselves (see the timer module), and a task keeps at most one
//!   armed entry, so re-waiting on every empty poll costs nothing;
//! * a park of one granularity or less — fast token buckets, tight poll
//!   loops — is slept inline on the pool worker. A wake cannot cut such
//!   a sleep short; it only makes the task run again right after it;
//! * modeled *service time* deliberately still occupies a pool worker
//!   (an inline stop-aware sleep per tick slice): `--cores N` means "N
//!   modeled cores", and stages contend for them exactly as the paper's
//!   bounded-capacity nodes would.
//!
//! Activations yield at every former blocking point, so the engine stop
//! flag takes effect within one tick even mid-service, mid-poll, or
//! mid-bucket-wait. Wakes route through a [`WakeHub`] keyed by stage
//! index: a producer wakes its consumer right after a successful send,
//! and a consumer wakes blocked producers after draining its queue.
//!
//! **One event loop per worker.** Every pool worker owns a
//! [`gates_net::Driver`] and idles in its `epoll_wait` rather than on a
//! condvar, so the distributed runtime registers its sockets on the pool
//! workers themselves (see [`CorePool::reactors`]) and a stage, the
//! sockets it feeds and the acks it returns share one thread. A task
//! pushed from another thread writes the sleeping worker's eventfd; a
//! notify a step makes to its own worker's reactor only sets a flag, and
//! the worker services it right after the step. An idle worker's
//! `epoll_wait` times out at its nearest timer deadline. A busy worker
//! also polls readiness (`epoll_wait(0)`) once per timer granularity at
//! most, and an inline sleep services ready sockets before and after;
//! each of these turns fires the timers due by then.
//!
//! **Yield after a flush.** A worker in a closed loop never blocks, so
//! the process its flushed bytes wake may wait for the kernel to preempt
//! the worker — on a small VM, a slice of about 1.5 ms. So a step that
//! did not wait and that pinged a remote sender ([`note_sender_ping`])
//! is followed, once its reactor has flushed, by one
//! `std::thread::yield_now()`.

mod queue;
mod task;
mod timer;

pub(crate) use task::{Activation, Step, TaskHandle, WakeHub};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gates_net::{Driver, Reactor};

use task::Task;
use timer::GRANULARITY;

/// Pool-ids start at 1 so the thread-local "no pool" default (0) can
/// never collide with a real pool.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The running step pinged a remote sender.
    static PINGED_SENDER: Cell<bool> = const { Cell::new(false) };
}

/// Record that the calling thread just pinged a remote sender. On a pool
/// worker this arms the yield after the step (module docs); on any other
/// thread the flag is never read.
pub(crate) fn note_sender_ping() {
    PINGED_SENDER.with(|w| w.set(true));
}

/// State shared by the pool handle, its workers, and (via `Weak`) every
/// task.
pub(crate) struct Shared {
    pub(super) queues: queue::Queues,
    pub(super) timers: timer::TimerWheel,
    hub: Arc<WakeHub>,
    shutdown: AtomicBool,
    activations: AtomicU64,
    /// Yields taken after a flush (module docs).
    yields: AtomicU64,
}

impl Shared {
    /// Enqueue a freshly-woken task (wake fast path: if the caller is one
    /// of this pool's workers the task lands in its LIFO slot).
    pub(super) fn enqueue(&self, task: Arc<Task>) {
        self.queues.push_woken(task);
    }

    /// Fire the timers due now from worker `idx`, waking a sleeper to
    /// cover the next deadline when none does (timer module docs).
    fn fire_timers(&self, idx: usize) {
        if let Some(sleeper) = self.timers.fire(idx, Instant::now()) {
            self.queues.wake(sleeper);
        }
    }
}

/// A fixed pool of executor threads hosting stage activations.
///
/// Create with [`CorePool::new`], add stages with [`CorePool::spawn`]
/// (also valid mid-run — failover-adopted stages join the same pool),
/// collect reports through the returned [`TaskHandle`]s, and finally
/// [`CorePool::shutdown`] to join every pool thread. Nothing is
/// detached: after `shutdown` returns, no executor thread survives.
pub(crate) struct CorePool {
    shared: Arc<Shared>,
    reactors: Vec<Reactor>,
    workers: Vec<JoinHandle<()>>,
}

impl CorePool {
    /// Spin up `cores` worker threads (clamped to at least 1), each
    /// driving a reactor of its own.
    pub(crate) fn new(cores: usize) -> Self {
        let cores = cores.max(1);
        let pool_id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let (reactors, drivers): (Vec<Reactor>, Vec<Driver>) = (0..cores)
            .map(|_| Reactor::with_driver().expect("create a pool worker's reactor"))
            .unzip();
        let shared = Arc::new(Shared {
            queues: queue::Queues::new(pool_id, &reactors),
            timers: timer::TimerWheel::new(cores),
            hub: Arc::new(WakeHub::new()),
            shutdown: AtomicBool::new(false),
            activations: AtomicU64::new(0),
            yields: AtomicU64::new(0),
        });
        let workers = drivers
            .into_iter()
            .enumerate()
            .map(|(idx, driver)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gates-exec-{idx}"))
                    .spawn(move || worker_loop(&shared, idx, driver))
                    .expect("spawn executor worker")
            })
            .collect();
        CorePool { shared, reactors, workers }
    }

    /// The reactor each worker drives, in worker order. Sources
    /// registered here are serviced on that worker between steps, and
    /// are dropped when the pool shuts down.
    pub(crate) fn reactors(&self) -> &[Reactor] {
        &self.reactors
    }

    /// The wake hub stages use to nudge their channel peers.
    pub(crate) fn hub(&self) -> Arc<WakeHub> {
        Arc::clone(&self.shared.hub)
    }

    /// Total activations (calls into `Activation::step`) so far.
    pub(crate) fn activations(&self) -> u64 {
        self.shared.activations.load(Ordering::Relaxed)
    }

    /// Schedule an activation, registering it in the wake hub under
    /// `key` (the stage's global index). Valid at any point in the
    /// pool's life, including mid-run for failover-adopted stages.
    pub(crate) fn spawn(&self, act: Box<dyn Activation>, key: u32) -> TaskHandle {
        let (task, handle) = Task::new(act, key, Arc::downgrade(&self.shared));
        self.shared.hub.register(key, Arc::clone(&task));
        self.shared.queues.push_woken(task);
        handle
    }

    /// Stop and join every pool worker, dropping every source registered
    /// on their reactors.
    /// Callers are expected to have joined all [`TaskHandle`]s first —
    /// shutdown does not wait for unfinished activations. Dropping the
    /// pool does the same, so early error returns cannot leak threads.
    pub(crate) fn shutdown(self) {
        // Drop does the work.
    }
}

impl Drop for CorePool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queues.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One pool worker: pop (LIFO slot → local FIFO → injector → steal),
/// run one activation step, requeue or park per its verdict, service
/// the reactor, and yield after a flush when due (module docs); with
/// nothing to run, sleep in the reactor until the nearest timer
/// deadline. Every turn fires the timers due by then.
fn worker_loop(shared: &Arc<Shared>, idx: usize, mut driver: Driver) {
    queue::set_current_worker(shared.queues.pool_id(), idx);
    driver.attach();
    let mut tick: u64 = 0;
    // Last readiness poll, by a turn of any kind.
    let mut polled = Instant::now();
    while !shared.shutdown.load(Ordering::Acquire) {
        tick = tick.wrapping_add(1);
        let task = match shared.queues.pop(idx, tick) {
            Some(task) => task,
            None => {
                let plan = || shared.timers.plan_sleep(idx, Instant::now());
                match shared.queues.idle(idx, tick, &mut driver, plan) {
                    Some(task) => task,
                    None => {
                        shared.fire_timers(idx);
                        polled = Instant::now();
                        continue;
                    }
                }
            }
        };
        PINGED_SENDER.with(|w| w.set(false));
        let waited = run_one(shared, idx, task, &mut driver);
        // Flush what the step queued on this worker's own sockets.
        driver.service_pending();
        if PINGED_SENDER.with(Cell::get) && !waited {
            std::thread::yield_now();
            shared.yields.fetch_add(1, Ordering::Relaxed);
        }
        let now = Instant::now();
        if waited {
            polled = now;
        } else if now.duration_since(polled) >= GRANULARITY {
            poll(shared, idx, &mut driver);
            polled = now;
        }
    }
}

/// Service ready sockets without waiting, then fire due timers.
fn poll(shared: &Shared, idx: usize, driver: &mut Driver) {
    driver.turn(Some(Duration::ZERO));
    shared.fire_timers(idx);
}

/// Run one activation step and act on its verdict. Returns whether the
/// worker waited: parks at or below the timer granularity are realized
/// as a sleep on the current worker, keeping sub-millisecond pacing
/// (fast token buckets, tight poll loops) at full precision, with the
/// worker's ready sockets serviced before and after it.
fn run_one(shared: &Arc<Shared>, idx: usize, task: Arc<Task>, driver: &mut Driver) -> bool {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    task.begin_running();
    shared.activations.fetch_add(1, Ordering::Relaxed);
    let verdict = {
        let mut act = task.activation();
        let Some(inner) = act.as_mut() else { return false };
        match catch_unwind(AssertUnwindSafe(|| inner.step())) {
            Ok(Step::Done) => {
                let inner = act.take().expect("activation present");
                drop(act);
                let report = catch_unwind(AssertUnwindSafe(move || inner.finish()));
                task.complete(shared, report.map_err(task::panic_message));
                return false;
            }
            Ok(step) => step,
            Err(payload) => {
                act.take();
                drop(act);
                task.complete(shared, Err(task::panic_message(payload)));
                return false;
            }
        }
    };
    match verdict {
        Step::Yield => {
            task.requeue_local(shared, idx);
            false
        }
        Step::Park { until } if until.saturating_duration_since(Instant::now()) <= GRANULARITY => {
            // Sub-granularity wait: sleep it here (state stays RUNNING,
            // so a concurrent wake coalesces to NOTIFIED and the requeue
            // below covers it). A wait that is already over still counts
            // as one: the step asked to wait, so the yield rule has
            // nothing to add.
            poll(shared, idx, driver);
            let now = Instant::now();
            if until > now {
                std::thread::sleep(until - now);
                poll(shared, idx, driver);
            }
            task.requeue_local(shared, idx);
            true
        }
        Step::Park { until } | Step::Wait { until } => {
            // Register the timer *before* releasing RUNNING so a lost
            // wake is impossible: either the CAS to IDLE wins (the timer
            // or an external wake will requeue us) or a wake raced in
            // and we requeue immediately (the armed entry then fires
            // early, and the step re-checks).
            if let Some(sleeper) = shared.timers.register(until, &task) {
                shared.queues.wake(sleeper);
            }
            if !task.try_park() {
                task.requeue_local(shared, idx);
            }
            false
        }
        Step::Done => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::timer::IDLE_CAP;
    use super::*;
    use gates_core::report::StageReport;
    use gates_net::{Directive, Ready, Source, Token};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// Counts steps, parks between them, finishes after `steps`.
    struct Ticker {
        steps: u32,
        park: Duration,
        ran: Arc<AtomicU64>,
    }
    impl Activation for Ticker {
        fn step(&mut self) -> Step {
            self.ran.fetch_add(1, Ordering::Relaxed);
            if self.steps == 0 {
                return Step::Done;
            }
            self.steps -= 1;
            Step::Park { until: Instant::now() + self.park }
        }
        fn finish(self: Box<Self>) -> StageReport {
            StageReport { name: "ticker".into(), ..Default::default() }
        }
    }

    #[test]
    fn pool_runs_parked_tasks_to_completion() {
        let pool = CorePool::new(2);
        let ran = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                pool.spawn(
                    Box::new(Ticker {
                        steps: 5,
                        park: Duration::from_millis(2 + (i % 3)),
                        ran: Arc::clone(&ran),
                    }),
                    i as u32,
                )
            })
            .collect();
        for h in handles {
            let report = h.join().expect("no panic");
            assert_eq!(report.name, "ticker");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 8 * 6);
        assert!(pool.activations() >= 8 * 6);
        pool.shutdown();
    }

    #[test]
    fn panicking_activation_reports_error() {
        struct Bomb;
        impl Activation for Bomb {
            fn step(&mut self) -> Step {
                panic!("boom in step");
            }
            fn finish(self: Box<Self>) -> StageReport {
                unreachable!()
            }
        }
        let pool = CorePool::new(1);
        let h = pool.spawn(Box::new(Bomb), 0);
        let err = h.join().expect_err("panic surfaces");
        assert!(err.contains("boom"), "payload preserved: {err}");
        pool.shutdown();
    }

    #[test]
    fn wake_preempts_a_long_park() {
        let pool = CorePool::new(1);
        let ran = Arc::new(AtomicU64::new(0));
        let h = pool.spawn(
            Box::new(Ticker { steps: 1, park: Duration::from_secs(30), ran: Arc::clone(&ran) }),
            7,
        );
        let hub = pool.hub();
        let t0 = Instant::now();
        // Let it park, then wake it early; the second step finishes it.
        while ran.load(Ordering::Relaxed) < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(5));
        hub.wake(7);
        h.join().expect("no panic");
        assert!(t0.elapsed() < Duration::from_secs(5), "wake must cut the park short");
        pool.shutdown();
    }

    #[test]
    fn a_pinging_step_that_did_not_wait_yields_once() {
        /// Never waits; pings a remote sender on every other step.
        struct Spinner {
            steps: u32,
        }
        impl Activation for Spinner {
            fn step(&mut self) -> Step {
                if self.steps == 0 {
                    return Step::Done;
                }
                self.steps -= 1;
                if self.steps.is_multiple_of(2) {
                    note_sender_ping();
                }
                Step::Yield
            }
            fn finish(self: Box<Self>) -> StageReport {
                StageReport::default()
            }
        }
        let pool = CorePool::new(1);
        let shared = Arc::clone(&pool.shared);
        pool.spawn(Box::new(Spinner { steps: 200 }), 0).join().expect("no panic");
        // Joined workers have taken every yield they ever will.
        pool.shutdown();
        assert_eq!(shared.yields.load(Ordering::Relaxed), 100, "one yield per pinging step");
    }

    #[test]
    fn worker_that_waits_between_reactor_wakes_never_yields() {
        /// Forty rounds of: ping a remote sender and wait inline (a
        /// quarter granularity), then a step that neither waits nor
        /// pings.
        struct Napper {
            left: u32,
            napped: bool,
        }
        impl Activation for Napper {
            fn step(&mut self) -> Step {
                if std::mem::take(&mut self.napped) {
                    return Step::Yield;
                }
                if self.left == 0 {
                    return Step::Done;
                }
                self.left -= 1;
                self.napped = true;
                note_sender_ping();
                Step::Park { until: Instant::now() + GRANULARITY / 4 }
            }
            fn finish(self: Box<Self>) -> StageReport {
                StageReport::default()
            }
        }
        let pool = CorePool::new(1);
        let shared = Arc::clone(&pool.shared);
        pool.spawn(Box::new(Napper { left: 40, napped: false }), 0).join().expect("no panic");
        // Joined workers have taken every yield they ever will.
        pool.shutdown();
        assert_eq!(shared.yields.load(Ordering::Relaxed), 0);
        assert!(shared.activations.load(Ordering::Relaxed) > 80);
    }

    /// Reports every service; wants nothing but (never-arriving) reads.
    struct Counting {
        sock: UnixStream,
        serviced: Arc<AtomicU64>,
    }
    impl Source for Counting {
        fn fd(&self) -> RawFd {
            self.sock.as_raw_fd()
        }
        fn service(&mut self, _ready: Ready, _now: Instant) -> Directive {
            self.serviced.fetch_add(1, Ordering::SeqCst);
            Directive::read()
        }
    }

    #[test]
    fn idle_worker_is_woken_from_its_reactor_by_a_foreign_push() {
        let pool = CorePool::new(1);
        let shared = Arc::clone(&pool.shared);
        while !shared.queues.is_sleeping(0) {
            std::thread::sleep(Duration::from_micros(100));
        }
        let before = pool.reactors()[0].wakeups();
        let t0 = Instant::now();
        let ran = Arc::new(AtomicU64::new(0));
        let ticker = Ticker { steps: 0, park: Duration::ZERO, ran: Arc::clone(&ran) };
        pool.spawn(Box::new(ticker), 0).join().expect("no panic");
        let took = t0.elapsed();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(pool.reactors()[0].wakeups(), before + 1, "the push wrote the eventfd");
        assert!(took < IDLE_CAP, "woken by the push, not the idle cap: {took:?}");
        pool.shutdown();
    }

    #[test]
    fn own_notify_skips_the_eventfd_and_is_serviced_before_the_next_step() {
        /// Step 1 notifies a source on its worker's reactor; step 2
        /// records what happened in between.
        struct Notifier {
            reactor: Reactor,
            token: Token,
            serviced: Arc<AtomicU64>,
            before: Option<(u64, u64)>,
            seen: Arc<Mutex<Option<(u64, u64)>>>,
        }
        impl Activation for Notifier {
            fn step(&mut self) -> Step {
                let now = (self.serviced.load(Ordering::SeqCst), self.reactor.wakeups());
                match self.before {
                    None => {
                        self.before = Some(now);
                        self.reactor.notify(self.token);
                        Step::Yield
                    }
                    Some((serviced, wakeups)) => {
                        *self.seen.lock().unwrap() = Some((now.0 - serviced, now.1 - wakeups));
                        Step::Done
                    }
                }
            }
            fn finish(self: Box<Self>) -> StageReport {
                StageReport::default()
            }
        }
        let pool = CorePool::new(1);
        let reactor = pool.reactors()[0].clone();
        let (sock, _peer) = UnixStream::pair().expect("socket pair");
        let serviced = Arc::new(AtomicU64::new(0));
        let token = reactor.register(Box::new(Counting { sock, serviced: Arc::clone(&serviced) }));
        while serviced.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
        let seen = Arc::new(Mutex::new(None));
        let notifier = Notifier { reactor, token, serviced, before: None, seen: Arc::clone(&seen) };
        pool.spawn(Box::new(notifier), 0).join().expect("no panic");
        pool.shutdown();
        let (services, wakeups) = seen.lock().unwrap().expect("second step ran");
        assert_eq!(services, 1, "the notify is serviced between the two steps");
        assert_eq!(wakeups, 0, "and made no eventfd write");
    }

    /// The park a timer test asks for: long enough to go on the wheel.
    const PARK: Duration = Duration::from_millis(5);

    /// How late a parked task ran past its deadline, at best over three
    /// attempts (a loaded host may delay any one of them), after checking
    /// that no attempt ran early.
    fn best_lateness(attempt: impl Fn() -> (Instant, Instant)) -> Duration {
        (0..3)
            .map(|_| {
                let (until, ran) = attempt();
                assert!(ran >= until, "fired {:?} before its deadline", until - ran);
                ran - until
            })
            .min()
            .expect("three attempts")
    }

    /// `(deadline, second step)` of a task that parks once.
    type Stamps = Arc<Mutex<(Option<Instant>, Option<Instant>)>>;

    /// Runs `before_park`, parks for [`PARK`], then records when its
    /// second step ran.
    struct Stamp<F: FnMut() + Send> {
        before_park: F,
        stamps: Stamps,
    }
    impl<F: FnMut() + Send> Activation for Stamp<F> {
        fn step(&mut self) -> Step {
            let mut stamps = self.stamps.lock().unwrap();
            if stamps.0.is_some() {
                stamps.1 = Some(Instant::now());
                return Step::Done;
            }
            drop(stamps);
            (self.before_park)();
            let until = Instant::now() + PARK;
            self.stamps.lock().unwrap().0 = Some(until);
            Step::Park { until }
        }
        fn finish(self: Box<Self>) -> StageReport {
            StageReport::default()
        }
    }

    fn deadline_and_run(stamps: &Stamps) -> (Instant, Instant) {
        let stamps = stamps.lock().unwrap();
        (stamps.0.expect("parked"), stamps.1.expect("ran again"))
    }

    #[test]
    fn an_idle_worker_fires_a_parked_task_from_its_own_epoll_timeout() {
        let lateness = best_lateness(|| {
            let pool = CorePool::new(1);
            let stamps = Stamps::default();
            let h = pool.spawn(Box::new(Stamp { before_park: || {}, stamps: stamps.clone() }), 0);
            while stamps.lock().unwrap().0.is_none() {
                std::thread::sleep(Duration::from_micros(100));
            }
            let before = pool.reactors()[0].wakeups();
            h.join().expect("no panic");
            assert_eq!(pool.reactors()[0].wakeups(), before, "the fire wrote no eventfd");
            deadline_and_run(&stamps)
        });
        assert!(lateness <= 2 * GRANULARITY, "fired {lateness:?} late");
    }

    #[test]
    fn an_idle_peer_fires_a_task_its_busy_worker_parked() {
        /// Waits for a wake, then runs one ~20 ms step.
        struct Long {
            woken: Arc<AtomicBool>,
        }
        impl Activation for Long {
            fn step(&mut self) -> Step {
                if !self.woken.swap(true, Ordering::SeqCst) {
                    return Step::Wait { until: Instant::now() + Duration::from_secs(30) };
                }
                std::thread::sleep(Duration::from_millis(20));
                Step::Done
            }
            fn finish(self: Box<Self>) -> StageReport {
                StageReport::default()
            }
        }
        const LONG: u32 = 1;
        let lateness = best_lateness(|| {
            let pool = CorePool::new(2);
            let shared = Arc::clone(&pool.shared);
            let waiting = Arc::new(AtomicBool::new(false));
            let long = pool.spawn(Box::new(Long { woken: Arc::clone(&waiting) }), LONG);
            // Both workers asleep after the long task's first step: it
            // is parked.
            while !(waiting.load(Ordering::SeqCst)
                && shared.timers.is_asleep(0)
                && shared.timers.is_asleep(1))
            {
                std::thread::sleep(Duration::from_micros(100));
            }
            let hub = pool.hub();
            // Wake the long task into this worker's LIFO slot, where no
            // peer may steal it, and park only once the peer that push
            // woke (clearing its sleeping flag) has published a new plan
            // to sleep.
            let before_park = move || {
                let name = std::thread::current().name().map(str::to_owned);
                let me: usize =
                    name.and_then(|n| n.strip_prefix("gates-exec-")?.parse().ok()).unwrap();
                hub.wake(LONG);
                let peer = 1 - me;
                while !(shared.queues.is_sleeping(peer) && shared.timers.is_asleep(peer)) {
                    std::thread::yield_now();
                }
            };
            let stamps = Stamps::default();
            let parker = pool.spawn(Box::new(Stamp { before_park, stamps: stamps.clone() }), 0);
            parker.join().expect("no panic");
            long.join().expect("no panic");
            deadline_and_run(&stamps)
        });
        assert!(lateness <= 2 * GRANULARITY, "fired {lateness:?} late");
    }
}
