//! Run queues: per-worker FIFO + LIFO wake slot, a shared injector for
//! wakes arriving from foreign threads, and work stealing.
//!
//! The local queue is FIFO so stages co-located on one core round-robin
//! fairly; the LIFO slot is a wake fast path (the most-recently-woken
//! task runs next on the core that woke it, keeping producer→consumer
//! handoffs hot in cache). Idle workers steal single tasks from the
//! *back* of a victim's FIFO queue — never from the LIFO slot.
//!
//! An idle worker sleeps in its own reactor's `epoll_wait`, so socket
//! readiness wakes it as well as work, and its timeout is its own
//! planned timer wake (see the timer module). It raises its `sleeping`
//! flag, then looks at every queue once more before it waits; a push
//! raises nothing itself but, after queueing, clears one sleeper's flag
//! and writes that worker's eventfd. Both flags are `SeqCst` and every
//! queue is behind a mutex, so either the sleeper's last look finds the
//! task or the pusher finds the flag: no wake-up is lost.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use gates_net::{Driver, Reactor};

use super::task::Task;

thread_local! {
    /// `(pool_id, worker_idx)` of the pool worker running on this
    /// thread; pool_id 0 means "not a pool worker".
    static CURRENT_WORKER: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

pub(super) fn set_current_worker(pool_id: u64, idx: usize) {
    CURRENT_WORKER.with(|c| c.set((pool_id, idx)));
}

struct Local {
    /// Wake fast path; not stealable.
    lifo: Mutex<Option<Arc<Task>>>,
    /// The run queue proper.
    fifo: Mutex<VecDeque<Arc<Task>>>,
    /// The worker is (about to be) waiting in its reactor.
    sleeping: AtomicBool,
    /// The reactor the worker drives; its eventfd wakes the worker.
    reactor: Reactor,
}

pub(crate) struct Queues {
    pool_id: u64,
    locals: Box<[Local]>,
    /// Landing zone for tasks enqueued by non-pool threads (spawns, and
    /// wakes from threads outside the pool).
    injector: Mutex<VecDeque<Arc<Task>>>,
}

impl Queues {
    /// One local queue per reactor, i.e. per worker.
    pub(super) fn new(pool_id: u64, reactors: &[Reactor]) -> Self {
        let locals = reactors
            .iter()
            .map(|reactor| Local {
                lifo: Mutex::new(None),
                fifo: Mutex::new(VecDeque::new()),
                sleeping: AtomicBool::new(false),
                reactor: reactor.clone(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Queues { pool_id, locals, injector: Mutex::new(VecDeque::new()) }
    }

    pub(super) fn pool_id(&self) -> u64 {
        self.pool_id
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue a freshly-woken (or freshly-spawned) task. From one of
    /// this pool's own workers the task lands in that worker's LIFO
    /// slot (displacing any previous occupant to the FIFO back); from
    /// any other thread it goes to the shared injector.
    pub(super) fn push_woken(&self, task: Arc<Task>) {
        let (pool, idx) = CURRENT_WORKER.with(|c| c.get());
        if pool == self.pool_id {
            let displaced = Self::lock(&self.locals[idx].lifo).replace(task);
            if let Some(prev) = displaced {
                Self::lock(&self.locals[idx].fifo).push_back(prev);
            }
        } else {
            Self::lock(&self.injector).push_back(task);
        }
        self.maybe_notify();
    }

    /// Requeue at the back of `worker`'s FIFO queue (yields and
    /// post-sleep requeues; stealable by other workers).
    pub(super) fn push_local(&self, worker: usize, task: Arc<Task>) {
        Self::lock(&self.locals[worker].fifo).push_back(task);
        self.maybe_notify();
    }

    /// Pop the next runnable task for `worker`: LIFO slot, local FIFO
    /// front, injector, then steal one from the back of a peer's FIFO.
    ///
    /// Every other call (odd `tick`) the injector is polled *first*.
    /// Without that, a task that yields constantly (a stage burning
    /// modeled service time in tick slices) keeps its worker's FIFO
    /// non-empty forever and tasks woken from other threads starve.
    pub(super) fn pop(&self, worker: usize, tick: u64) -> Option<Arc<Task>> {
        if tick % 2 == 1 {
            if let Some(task) = Self::lock(&self.injector).pop_front() {
                return Some(task);
            }
        }
        if let Some(task) = Self::lock(&self.locals[worker].lifo).take() {
            return Some(task);
        }
        if let Some(task) = Self::lock(&self.locals[worker].fifo).pop_front() {
            return Some(task);
        }
        if let Some(task) = Self::lock(&self.injector).pop_front() {
            return Some(task);
        }
        let n = self.locals.len();
        for off in 1..n {
            let victim = (worker + off) % n;
            if let Some(task) = Self::lock(&self.locals[victim].fifo).pop_back() {
                return Some(task);
            }
        }
        None
    }

    /// Wake one sleeping worker other than the caller, if any.
    fn maybe_notify(&self) {
        let (pool, me) = CURRENT_WORKER.with(|c| c.get());
        for (idx, local) in self.locals.iter().enumerate() {
            if pool == self.pool_id && idx == me {
                continue;
            }
            if local.sleeping.load(Ordering::SeqCst) && local.sleeping.swap(false, Ordering::SeqCst)
            {
                local.reactor.wake();
                return;
            }
        }
    }

    /// Wake `worker` out of its reactor wait (a timer registration
    /// earlier than its planned wake).
    pub(super) fn wake(&self, worker: usize) {
        self.locals[worker].reactor.wake();
    }

    /// Wake every worker (shutdown).
    pub(super) fn notify_all(&self) {
        for local in self.locals.iter() {
            local.reactor.wake();
        }
    }

    /// Sleep in the worker's reactor until work, I/O, a reactor deadline
    /// or the timeout `plan` publishes arrives (module docs). Returns a
    /// task found by the last look before sleeping.
    pub(super) fn idle(
        &self,
        worker: usize,
        tick: u64,
        driver: &mut Driver,
        plan: impl FnOnce() -> Duration,
    ) -> Option<Arc<Task>> {
        let sleeping = &self.locals[worker].sleeping;
        sleeping.store(true, Ordering::SeqCst);
        let found = self.pop(worker, tick);
        if found.is_none() {
            driver.turn(Some(plan()));
        }
        sleeping.store(false, Ordering::SeqCst);
        found
    }

    /// Whether `worker` is waiting in its reactor (test probe).
    #[cfg(test)]
    pub(super) fn is_sleeping(&self, worker: usize) -> bool {
        self.locals[worker].sleeping.load(Ordering::SeqCst)
    }
}
