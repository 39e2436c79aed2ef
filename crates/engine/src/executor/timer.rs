//! The shared timer wheel.
//!
//! One hashed wheel (1 ms granularity, 256 slots) serves every parked
//! task in the pool: source `next_poll` delays and token-bucket pacing
//! longer than one tick, and the one-tick backstop of every stage
//! waiting for a peer (an empty or a full queue) become entries here
//! instead of per-thread `thread::sleep`s. No thread drives the wheel:
//! each pool worker fires the due entries itself whenever it turns its
//! reactor — after an idle turn, at its once-per-granularity busy poll,
//! and around an inline park — so a fired task lands in that worker's
//! LIFO slot, with no injector push and no eventfd write.
//!
//! Entries fire at the first wheel tick at or after their deadline —
//! never early — and the pool realizes sub-granularity parks inline, so
//! the 1 ms coarseness never distorts fast pacing.
//!
//! Three rules keep a busy pool from waking threads that have nothing
//! to do, and an idle one from firing late:
//!
//! * **At most one live entry per task.** A task remembers the tick of
//!   its armed entry ([`Task::timer_tick`]). A re-park whose deadline
//!   falls at or after that tick adds nothing: the armed entry fires
//!   first, and every park site re-checks its own condition when it is
//!   woken early. An earlier deadline arms a new entry and *supersedes*
//!   the old one, which stays in its slot until its tick passes and is
//!   then dropped without waking anyone.
//! * **An idle worker sleeps until the nearest live deadline**, at most
//!   [`IDLE_CAP`]. The wheel keeps a lower bound on that tick, so an
//!   idle transition reads it instead of scanning slots; only once the
//!   bound has passed does the next one look ahead, at most one idle
//!   cap's worth of slots.
//! * **While a worker sleeps, some sleeper covers the nearest
//!   deadline.** A worker publishes the tick it plans to wake at under
//!   the wheel lock before it sleeps. A registration earlier than every
//!   sleeper's plan wakes one sleeper, and so does a worker that fires
//!   and leaves the nearest remaining deadline earlier than every
//!   sleeper's plan. So a worker that parks or fires a task and then
//!   runs a long step leaves the next fire to an idle peer, on time.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use super::task::Task;

pub(super) const GRANULARITY: Duration = Duration::from_millis(1);
/// Longest an idle worker stays in `epoll_wait` with nothing due: a
/// safety bound only, since a push, a ready socket and every earlier
/// registration wake a sleeper explicitly.
pub(super) const IDLE_CAP: Duration = Duration::from_millis(50);
const SLOTS: usize = 256;
/// Ticks an idle worker looks ahead for the nearest deadline: one idle
/// cap, since it wakes by then anyway.
const HORIZON: u64 = (IDLE_CAP.as_nanos() / GRANULARITY.as_nanos()) as u64;
/// `next_tick` while nothing is armed.
const NEVER: u64 = u64::MAX;

struct Entry {
    /// Absolute wheel tick (ceil of deadline − epoch over granularity).
    tick: u64,
    task: Arc<Task>,
}

impl Entry {
    /// Whether this is still its task's live entry (not superseded by
    /// an earlier one, not already fired). Caller holds the wheel lock.
    fn live(&self) -> bool {
        self.task.timer_tick.load(Ordering::Relaxed) == self.tick
    }
}

struct Inner {
    epoch: Instant,
    wheel: Vec<Vec<Entry>>,
    /// Entries across all slots, superseded ones included.
    armed: usize,
    /// Highest absolute tick already fired.
    fired_through: u64,
    /// No live entry fires before this tick ([`NEVER`] while nothing is
    /// armed). A lower bound only: the entry it names may have been
    /// superseded, and once `fired_through` reaches it the next sleeper
    /// looks ahead afresh.
    next_tick: u64,
    /// Per worker, the tick a sleeping worker wakes at on its own;
    /// `None` while it is awake.
    planned: Box<[Option<u64>]>,
}

impl Inner {
    /// The tick `at` falls in.
    fn tick_of(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.epoch).as_nanos() / GRANULARITY.as_nanos()) as u64
    }

    /// Remove every entry due at `now` and return the tasks of the live
    /// ones, disarming them.
    fn take_due(&mut self, now: Instant) -> Vec<Arc<Task>> {
        let now_tick = self.tick_of(now);
        let mut due = Vec::new();
        if now_tick <= self.fired_through {
            return due;
        }
        if self.armed > 0 {
            let span = now_tick - self.fired_through;
            let mut fired = 0;
            if span >= SLOTS as u64 {
                // Slept past a full rotation: sweep every slot once.
                for slot in self.wheel.iter_mut() {
                    fired += take_slot(slot, now_tick, &mut due);
                }
            } else {
                for t in (self.fired_through + 1)..=now_tick {
                    let slot = &mut self.wheel[(t % SLOTS as u64) as usize];
                    fired += take_slot(slot, now_tick, &mut due);
                }
            }
            self.armed -= fired;
            if self.armed == 0 {
                self.next_tick = NEVER;
            }
        }
        self.fired_through = now_tick;
        due
    }

    /// Make sure a sleeper wakes by `tick`: when none plans to, the
    /// first sleeper's plan moves up to it, and it is returned for the
    /// caller to wake.
    fn cover(&mut self, tick: u64) -> Option<usize> {
        if self.planned.iter().flatten().any(|&wake| wake <= tick) {
            return None;
        }
        let sleeper = self.planned.iter().position(Option::is_some)?;
        self.planned[sleeper] = Some(tick);
        Some(sleeper)
    }

    /// The earliest tick a live entry may fire at, looking ahead at most
    /// [`HORIZON`] slots once the cached bound has passed.
    fn nearest(&mut self) -> u64 {
        if self.next_tick <= self.fired_through {
            let from = self.fired_through + 1;
            let wheel = &self.wheel;
            self.next_tick = (from..from + HORIZON)
                .find(|&t| {
                    wheel[(t % SLOTS as u64) as usize].iter().any(|e| e.tick == t && e.live())
                })
                .unwrap_or(from + HORIZON);
        }
        self.next_tick
    }
}

/// Move the entries of `slot` due by `now_tick` out of the wheel; push
/// the tasks of the live ones onto `due`. Returns how many left.
fn take_slot(slot: &mut Vec<Entry>, now_tick: u64, due: &mut Vec<Arc<Task>>) -> usize {
    let mut fired = 0;
    let mut i = 0;
    while i < slot.len() {
        if slot[i].tick > now_tick {
            i += 1;
            continue;
        }
        let e = slot.swap_remove(i);
        fired += 1;
        if e.live() {
            e.task.timer_tick.store(0, Ordering::Relaxed);
            due.push(e.task);
        }
    }
    fired
}

pub(crate) struct TimerWheel {
    inner: Mutex<Inner>,
}

impl TimerWheel {
    /// A wheel fired by `workers` pool workers.
    pub(super) fn new(workers: usize) -> Self {
        TimerWheel {
            inner: Mutex::new(Inner {
                epoch: Instant::now(),
                wheel: (0..SLOTS).map(|_| Vec::new()).collect(),
                armed: 0,
                fired_through: 0,
                next_tick: NEVER,
                planned: vec![None; workers].into_boxed_slice(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arm a wake for `task` at the first wheel tick ≥ `until`, unless
    /// its live entry already fires at or before that tick. Returns the
    /// sleeping worker the caller must wake, if every sleeper plans to
    /// wake after the new tick (module docs).
    pub(super) fn register(&self, until: Instant, task: &Arc<Task>) -> Option<usize> {
        let mut inner = self.lock();
        let offset = until.saturating_duration_since(inner.epoch);
        let g = GRANULARITY.as_nanos();
        let tick = (offset.as_nanos().div_ceil(g) as u64).max(inner.fired_through + 1);
        let pending = task.timer_tick.load(Ordering::Relaxed);
        if pending != 0 && pending <= tick {
            return None;
        }
        task.timer_tick.store(tick, Ordering::Relaxed);
        inner.wheel[(tick % SLOTS as u64) as usize].push(Entry { tick, task: Arc::clone(task) });
        inner.armed += 1;
        inner.next_tick = inner.next_tick.min(tick);
        inner.cover(tick)
    }

    /// Publish that `worker` is about to sleep, and return how long it
    /// may: until the nearest live deadline, at most [`IDLE_CAP`].
    pub(super) fn plan_sleep(&self, worker: usize, now: Instant) -> Duration {
        let mut inner = self.lock();
        let next = inner.nearest();
        // The first tick the capped sleep is sure to have reached.
        let cap_tick = inner.tick_of(now + IDLE_CAP) + 1;
        inner.planned[worker] = Some(next.min(cap_tick));
        if next >= cap_tick {
            return IDLE_CAP;
        }
        let deadline = inner.epoch + Duration::from_nanos(GRANULARITY.as_nanos() as u64 * next);
        deadline.saturating_duration_since(now).min(IDLE_CAP)
    }

    /// Fire, from the awake `worker`, every entry due at `now`: each
    /// task lands in that worker's LIFO slot. The worker may run a long
    /// step next, so this returns the sleeping worker the caller must
    /// wake, if every sleeper plans to wake after the nearest deadline
    /// left (module docs).
    pub(super) fn fire(&self, worker: usize, now: Instant) -> Option<usize> {
        let (due, sleeper) = {
            let mut inner = self.lock();
            inner.planned[worker] = None;
            let due = inner.take_due(now);
            let next = inner.nearest();
            (due, inner.cover(next))
        };
        for task in &due {
            task.wake();
        }
        sleeper
    }

    /// Whether `worker` has published a plan to sleep (test probe).
    #[cfg(test)]
    pub(super) fn is_asleep(&self, worker: usize) -> bool {
        self.lock().planned[worker].is_some()
    }

    #[cfg(test)]
    fn armed(&self) -> usize {
        self.lock().armed
    }

    /// What a worker would fire if it fired at `now`.
    #[cfg(test)]
    fn fire_at(&self, now: Instant) -> Vec<Arc<Task>> {
        self.lock().take_due(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Activation, Step};
    use gates_core::report::StageReport;
    use std::sync::Weak;

    struct Idle;
    impl Activation for Idle {
        fn step(&mut self) -> Step {
            Step::Done
        }
        fn finish(self: Box<Self>) -> StageReport {
            StageReport::default()
        }
    }

    /// A parked task of no pool: a wake only flips it to QUEUED.
    fn parked() -> Arc<Task> {
        let (task, _handle) = Task::new(Box::new(Idle), 0, Weak::new());
        task.begin_running();
        assert!(task.try_park());
        task
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn later_repark_keeps_one_entry_that_fires_once() {
        let wheel = TimerWheel::new(1);
        let t0 = Instant::now();
        let task = parked();
        wheel.register(t0 + ms(5), &task);
        wheel.register(t0 + ms(8), &task);
        wheel.register(t0 + ms(5), &task);
        assert_eq!(wheel.armed(), 1, "a re-park at or after the armed tick adds nothing");
        let fired = wheel.fire_at(t0 + ms(6));
        assert_eq!(fired.len(), 1);
        assert!(Arc::ptr_eq(&fired[0], &task));
        assert!(wheel.fire_at(t0 + ms(30)).is_empty(), "nothing left to fire");
        assert_eq!(wheel.armed(), 0);
    }

    #[test]
    fn earlier_deadline_supersedes_and_the_stale_entry_stays_silent() {
        let wheel = TimerWheel::new(1);
        let t0 = Instant::now();
        let task = parked();
        wheel.register(t0 + ms(8), &task);
        wheel.register(t0 + ms(3), &task);
        assert_eq!(wheel.armed(), 2, "the superseded entry waits for its tick");
        assert_eq!(wheel.fire_at(t0 + ms(4)).len(), 1, "the earlier deadline fires");
        assert!(wheel.fire_at(t0 + ms(30)).is_empty(), "the stale entry activates nothing");
        assert_eq!(wheel.armed(), 0, "and it left the wheel");
        // Disarmed by the fire: the next park arms afresh.
        wheel.register(t0 + ms(40), &task);
        assert_eq!(wheel.fire_at(t0 + ms(41)).len(), 1);
    }

    #[test]
    fn a_sleeper_sleeps_to_the_nearest_live_deadline() {
        let wheel = TimerWheel::new(1);
        let t0 = Instant::now();
        assert_eq!(wheel.plan_sleep(0, t0), IDLE_CAP, "nothing armed: the cap");
        let (a, b) = (parked(), parked());
        wheel.register(t0 + ms(20), &a);
        wheel.register(t0 + ms(9), &b);
        let nap = wheel.plan_sleep(0, t0);
        assert!(nap >= ms(9) && nap <= ms(10), "the earlier deadline bounds the nap: {nap:?}");
        wheel.fire(0, t0 + ms(10));
        let nap = wheel.plan_sleep(0, t0 + ms(10));
        assert!(nap >= ms(10) && nap <= ms(11), "then the next one: {nap:?}");
        wheel.fire(0, t0 + ms(21));
        assert_eq!(wheel.plan_sleep(0, t0 + ms(21)), IDLE_CAP, "all fired: the cap again");
    }

    #[test]
    fn a_worker_that_fires_hands_the_next_deadline_to_a_sleeper() {
        let wheel = TimerWheel::new(3);
        let t0 = Instant::now();
        wheel.plan_sleep(1, t0);
        wheel.plan_sleep(2, t0);
        let (x, y) = (parked(), parked());
        assert_eq!(wheel.register(t0 + ms(5), &x), Some(1), "no sleeper covered x");
        assert_eq!(wheel.register(t0 + ms(10), &y), None, "worker 1 wakes before y is due");
        assert_eq!(wheel.fire(1, t0 + ms(6)), Some(2), "worker 1 runs x: worker 2 covers y");
        assert_eq!(wheel.fire(2, t0 + ms(11)), None, "nothing left to cover");
    }
}
