//! Task lifecycle: the run-to-yield activation contract, the wake
//! coalescing state machine, and the per-stage wake hub.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, Weak};
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use gates_core::report::StageReport;

use super::Shared;

/// What an activation wants after one step.
pub(crate) enum Step {
    /// More work is immediately available: requeue at the back of the
    /// local run queue so co-located stages round-robin fairly.
    Yield,
    /// Nothing to do before `until`: park on the timer wheel. An
    /// external wake (new input, freed queue slot) requeues the task
    /// earlier. The task keeps at most one armed wheel entry, so it may
    /// also run *before* `until` (an entry armed by an earlier park
    /// fires first): every park site re-checks its own condition. A
    /// park of one timer granularity or less is slept inline instead.
    Park {
        /// Earliest instant the task wants to run again.
        until: Instant,
    },
    /// Nothing to do until another task or a socket wakes this one: an
    /// input arrived, or a full queue has room. `until` only bounds the
    /// wait; unlike a short [`Step::Park`] it is never slept inline, so
    /// the wake always ends it.
    Wait {
        /// Latest instant the task wants to run again.
        until: Instant,
    },
    /// The stage is finished; `finish` produces its report.
    Done,
}

/// A run-to-yield stage activation hosted on a [`super::CorePool`].
///
/// `step` must return in bounded time (at most one tick of inline
/// sleeping) — every former blocking point becomes a [`Step::Park`],
/// [`Step::Wait`] or [`Step::Yield`] so the pool can multiplex many stages per core and
/// an engine stop is observed within one tick.
pub(crate) trait Activation: Send {
    /// Run one bounded slice of work.
    fn step(&mut self) -> Step;
    /// Consume the activation and produce the stage's final report.
    fn finish(self: Box<Self>) -> StageReport;
}

// Task states, with tokio-style wake coalescing:
//
//   IDLE    — parked; a wake must enqueue the task.
//   QUEUED  — sitting in a run queue (or being carried to one).
//   RUNNING — a worker is inside step().
//   NOTIFIED— woken while RUNNING; the runner requeues it instead of
//             parking, so a wake that races a park is never lost.
//   DONE    — finished; report delivered; wakes are no-ops.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// One scheduled activation.
pub(crate) struct Task {
    state: AtomicU8,
    /// Wheel tick of this task's live timer entry, 0 when none is armed.
    /// Read and written only under the timer wheel's lock (hence
    /// `Relaxed`); an entry whose tick differs is superseded.
    pub(super) timer_tick: AtomicU64,
    /// The activation, taken on completion. Uncontended in practice —
    /// only the worker currently running the task locks it; the mutex
    /// exists to make the container `Sync`.
    act: Mutex<Option<Box<dyn Activation>>>,
    /// Stage key in the wake hub; unregistered on completion.
    key: u32,
    shared: Weak<Shared>,
    report_tx: Sender<Result<StageReport, String>>,
    done: Arc<AtomicBool>,
}

impl Task {
    pub(super) fn new(
        act: Box<dyn Activation>,
        key: u32,
        shared: Weak<Shared>,
    ) -> (Arc<Task>, TaskHandle) {
        let (report_tx, report_rx) = bounded(1);
        let done = Arc::new(AtomicBool::new(false));
        let task = Arc::new(Task {
            state: AtomicU8::new(QUEUED),
            timer_tick: AtomicU64::new(0),
            act: Mutex::new(Some(act)),
            key,
            shared,
            report_tx,
            done: Arc::clone(&done),
        });
        (task, TaskHandle { report_rx, done })
    }

    /// Wake the task: enqueue it if parked, or flag it if currently
    /// running so the runner requeues instead of parking.
    pub(crate) fn wake(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        if let Some(shared) = self.shared.upgrade() {
                            shared.enqueue(Arc::clone(self));
                        }
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // QUEUED / NOTIFIED: already scheduled. DONE: nothing to do.
                _ => return,
            }
        }
    }

    /// Mark the task as running (called by the worker right after
    /// popping it; the popped state is always QUEUED).
    pub(super) fn begin_running(&self) {
        self.state.store(RUNNING, Ordering::Release);
    }

    /// RUNNING → IDLE. Fails (returning `false`) if a wake raced in
    /// while the step ran, in which case the caller must requeue.
    pub(super) fn try_park(&self) -> bool {
        self.state.compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Requeue on the current worker's local queue after a yield, an
    /// inline sub-tick sleep, or a failed park.
    pub(super) fn requeue_local(self: &Arc<Self>, shared: &Arc<Shared>, worker: usize) {
        self.state.store(QUEUED, Ordering::Release);
        shared.queues.push_local(worker, Arc::clone(self));
    }

    pub(super) fn activation(&self) -> MutexGuard<'_, Option<Box<dyn Activation>>> {
        self.act.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deliver the final report (or panic message), unregister from the
    /// wake hub, and retire the task.
    pub(super) fn complete(&self, shared: &Arc<Shared>, result: Result<StageReport, String>) {
        self.state.store(DONE, Ordering::Release);
        shared.hub.unregister(self.key);
        let _ = self.report_tx.send(result);
        self.done.store(true, Ordering::Release);
    }
}

/// What a join reports for a stage whose pool shut down first.
const POOL_GONE: &str = "executor pool shut down before the stage finished";

/// Owner-side handle for one spawned activation, shaped like a thread's
/// `JoinHandle`.
pub(crate) struct TaskHandle {
    report_rx: Receiver<Result<StageReport, String>>,
    done: Arc<AtomicBool>,
}

impl TaskHandle {
    /// Block until the stage finishes; `Err` carries a panic message.
    pub(crate) fn join(self) -> Result<StageReport, String> {
        self.report_rx.recv().unwrap_or_else(|_| Err(POOL_GONE.into()))
    }

    /// [`TaskHandle::join`], giving up at `deadline`: `None` while the
    /// stage still runs then.
    pub(crate) fn join_by(&self, deadline: Instant) -> Option<Result<StageReport, String>> {
        match self.report_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(report) => Some(report),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(POOL_GONE.into())),
        }
    }

    /// Whether the stage has delivered its report (never blocks).
    pub(crate) fn is_finished(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

/// Registry mapping stage keys to their tasks so channel peers can wake
/// each other: a producer wakes its consumer after a successful send, a
/// consumer wakes blocked producers after draining its queue, and the
/// dist runtime's socket bridges wake the stage they deliver into.
pub(crate) struct WakeHub {
    slots: RwLock<HashMap<u32, Arc<Task>>>,
}

impl WakeHub {
    pub(crate) fn new() -> Self {
        WakeHub { slots: RwLock::new(HashMap::new()) }
    }

    pub(super) fn register(&self, key: u32, task: Arc<Task>) {
        self.slots.write().unwrap_or_else(|e| e.into_inner()).insert(key, task);
    }

    pub(super) fn unregister(&self, key: u32) {
        self.slots.write().unwrap_or_else(|e| e.into_inner()).remove(&key);
    }

    /// Wake the task registered under `key`, if any (a finished or
    /// never-registered stage is a no-op).
    pub(crate) fn wake(&self, key: u32) {
        let task = self.slots.read().unwrap_or_else(|e| e.into_inner()).get(&key).cloned();
        if let Some(task) = task {
            task.wake();
        }
    }
}

/// Render a panic payload into the message `EngineError::WorkerPanic`
/// carries.
pub(super) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "stage activation panicked".into()
    }
}
