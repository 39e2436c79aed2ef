//! Work-stealing multi-core stage executor.
//!
//! Wall-clock runtimes used to burn one OS thread per stage, so a
//! 4-stage pipeline could not use a 32-core box and a worker hosting
//! hundreds of stage replicas drowned in threads. This module replaces
//! that with run-to-yield **activations** scheduled onto a fixed
//! [`CorePool`]:
//!
//! * each pool worker (`gates-exec-N`) owns a FIFO run queue plus a LIFO
//!   wake slot; idle workers steal from the back of their peers' queues;
//! * a shared [`timer::TimerWheel`] (1 ms granularity, `gates-timer`
//!   driver thread) turns every former blocking wait longer than one
//!   granularity — source `next_poll`, token-bucket pacing, empty-queue
//!   receive — into a timed re-enqueue, so a parked stage costs no core
//!   at all. A task keeps at most one armed wheel entry (see the timer
//!   module), so re-parking on every empty poll costs no driver wake;
//! * a wait of one granularity or less — the 1 ms blocking-send retry,
//!   fast token buckets — is slept inline on the pool worker. A wake
//!   cannot cut such a sleep short; it only makes the task run again
//!   right after it;
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
//! **Bounded cooperative yield.** A pool worker in a closed loop (a
//! source and its co-located consumer handing packets back and forth)
//! never blocks, so a reactor thread it wakes on the same core waits
//! for the kernel to preempt the worker — on a small VM, a slice of
//! about 1.5 ms. So a worker that has run for one timer granularity
//! without blocking, and has since woken a reactor
//! ([`note_reactor_notify`]), calls `std::thread::yield_now()` once and
//! starts counting again. Blocking — an idle wait for work or an inline
//! sleep — resets both conditions, so a worker that waits anyway never
//! yields, and none yields more than once per granularity.

mod queue;
mod task;
mod timer;

pub(crate) use task::{Activation, Step, TaskHandle, WakeHub};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use task::Task;
use timer::GRANULARITY;

/// Pool-ids start at 1 so the thread-local "no pool" default (0) can
/// never collide with a real pool.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread woke a reactor since it last blocked or yielded.
    static WOKE_REACTOR: Cell<bool> = const { Cell::new(false) };
}

/// Record that the calling thread just signalled a reactor thread. On a
/// pool worker this arms the bounded cooperative yield (module docs);
/// on any other thread the flag is never read.
pub(crate) fn note_reactor_notify() {
    WOKE_REACTOR.with(|w| w.set(true));
}

/// State shared by the pool handle, its workers, the timer driver, and
/// (via `Weak`) every task.
pub(crate) struct Shared {
    pub(super) queues: queue::Queues,
    pub(super) timers: timer::TimerWheel,
    hub: Arc<WakeHub>,
    shutdown: AtomicBool,
    activations: AtomicU64,
    /// Bounded cooperative yields taken by the workers.
    yields: AtomicU64,
}

impl Shared {
    /// Enqueue a freshly-woken task (wake fast path: if the caller is one
    /// of this pool's workers the task lands in its LIFO slot).
    pub(super) fn enqueue(&self, task: Arc<Task>) {
        self.queues.push_woken(task);
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
    workers: Vec<JoinHandle<()>>,
    timer_driver: Option<JoinHandle<()>>,
}

impl CorePool {
    /// Spin up `cores` worker threads (clamped to at least 1) plus the
    /// timer driver.
    pub(crate) fn new(cores: usize) -> Self {
        let cores = cores.max(1);
        let pool_id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            queues: queue::Queues::new(pool_id, cores),
            timers: timer::TimerWheel::new(),
            hub: Arc::new(WakeHub::new()),
            shutdown: AtomicBool::new(false),
            activations: AtomicU64::new(0),
            yields: AtomicU64::new(0),
        });
        let workers = (0..cores)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gates-exec-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn executor worker")
            })
            .collect();
        let timer_shared = Arc::clone(&shared);
        let timer_driver = std::thread::Builder::new()
            .name("gates-timer".into())
            .spawn(move || timer_shared.timers.drive())
            .expect("spawn timer driver");
        CorePool { shared, workers, timer_driver: Some(timer_driver) }
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

    /// Stop and join every pool thread (workers and timer driver).
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
        self.shared.timers.shutdown();
        if let Some(t) = self.timer_driver.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One pool worker: pop (LIFO slot → local FIFO → injector → steal),
/// run one activation step, requeue or park per its verdict, and take
/// the bounded cooperative yield when it is due (module docs).
fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    queue::set_current_worker(shared.queues.pool_id(), idx);
    let mut tick: u64 = 0;
    // Start of the current stretch without blocking or yielding.
    let mut busy_since = Instant::now();
    while !shared.shutdown.load(Ordering::Acquire) {
        tick = tick.wrapping_add(1);
        let waited = match shared.queues.pop(idx, tick) {
            Some(task) => run_one(shared, idx, task),
            None => {
                shared.queues.idle_wait();
                true
            }
        };
        if waited {
            busy_since = Instant::now();
            WOKE_REACTOR.with(|w| w.set(false));
        } else if WOKE_REACTOR.with(Cell::get) && busy_since.elapsed() >= GRANULARITY {
            std::thread::yield_now();
            shared.yields.fetch_add(1, Ordering::Relaxed);
            busy_since = Instant::now();
            WOKE_REACTOR.with(|w| w.set(false));
        }
    }
}

/// Run one activation step and act on its verdict. Returns whether the
/// worker waited: parks at or below the timer granularity are realized
/// as a sleep on the current worker, keeping sub-millisecond pacing
/// (fast token buckets, tight poll loops) at full precision.
fn run_one(shared: &Arc<Shared>, idx: usize, task: Arc<Task>) -> bool {
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
        Step::Park { until } => {
            let now = Instant::now();
            if until.saturating_duration_since(now) <= GRANULARITY {
                // Sub-granularity wait: sleep it here (state stays
                // RUNNING, so a concurrent wake coalesces to NOTIFIED
                // and the requeue below covers it). A wait that is
                // already over still ends the busy stretch: the step
                // asked to wait, so the yield rule has nothing to add.
                if until > now {
                    std::thread::sleep(until - now);
                }
                task.requeue_local(shared, idx);
                true
            } else {
                // Register the timer *before* releasing RUNNING so a
                // lost wake is impossible: either the CAS to IDLE wins
                // (the timer or an external wake will requeue us) or a
                // wake raced in and we requeue immediately (the armed
                // entry then fires early, and the step re-checks).
                shared.timers.register(until, &task);
                if !task.try_park() {
                    task.requeue_local(shared, idx);
                }
                false
            }
        }
        Step::Done => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates_core::report::StageReport;
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
    fn busy_worker_that_woke_a_reactor_yields_at_most_once_per_granularity() {
        /// Never blocks and signals a reactor on every step; done once
        /// five granularities have passed since its first step.
        struct Spinner {
            started: Option<Instant>,
            steps: Arc<AtomicU64>,
        }
        impl Activation for Spinner {
            fn step(&mut self) -> Step {
                self.steps.fetch_add(1, Ordering::Relaxed);
                note_reactor_notify();
                let started = *self.started.get_or_insert_with(Instant::now);
                if started.elapsed() >= 5 * GRANULARITY {
                    Step::Done
                } else {
                    Step::Yield
                }
            }
            fn finish(self: Box<Self>) -> StageReport {
                StageReport::default()
            }
        }
        let t0 = Instant::now();
        let pool = CorePool::new(1);
        let shared = Arc::clone(&pool.shared);
        let steps = Arc::new(AtomicU64::new(0));
        let h = pool.spawn(Box::new(Spinner { started: None, steps: Arc::clone(&steps) }), 0);
        h.join().expect("no panic");
        // Joined workers have taken every yield they ever will, all of
        // them inside `elapsed`.
        pool.shutdown();
        let elapsed = t0.elapsed();
        let yields = shared.yields.load(Ordering::Relaxed);
        assert!(yields >= 1, "a busy stretch past one granularity after a wake yields");
        assert!(
            u128::from(yields) <= elapsed.as_nanos() / GRANULARITY.as_nanos(),
            "{yields} yields in {elapsed:?}: at most one per granularity"
        );
        assert!(steps.load(Ordering::Relaxed) > yields, "a wake on every step, far fewer yields");
    }

    #[test]
    fn worker_that_waits_between_reactor_wakes_never_yields() {
        /// Forty rounds of: signal a reactor and wait inline (a quarter
        /// granularity), then a step that neither waits nor signals —
        /// where a yield would be taken if the wait had not reset the
        /// rule. Ten granularities in all.
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
                note_reactor_notify();
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
}
