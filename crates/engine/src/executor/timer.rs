//! The shared timer wheel.
//!
//! One hashed wheel (1 ms granularity, 256 slots) serves every parked
//! task in the pool: source `next_poll` delays and token-bucket pacing
//! longer than one tick, and the one-tick backstop of every stage
//! waiting for a peer (an empty or a full queue) become entries here
//! instead of per-thread `thread::sleep`s. A single driver thread
//! (`gates-timer`) sleeps on a condvar until the nearest deadline, then
//! wakes every due task.
//!
//! Entries fire at the first wheel tick at or after their deadline —
//! never early — and the pool realizes sub-granularity parks inline, so
//! the 1 ms coarseness never distorts fast pacing.
//!
//! Two rules keep a busy pool from waking threads that have nothing to
//! do:
//!
//! * **At most one live entry per task.** A task remembers the tick of
//!   its armed entry ([`Task::timer_tick`]). A re-park whose deadline
//!   falls at or after that tick adds nothing: the armed entry fires
//!   first, and every park site re-checks its own condition when it is
//!   woken early. An earlier deadline arms a new entry and *supersedes*
//!   the old one, which stays in its slot until its tick passes and is
//!   then dropped without waking anyone.
//! * **The driver is signalled only when it would otherwise sleep past
//!   a new deadline.** Before it waits, the driver publishes the tick it
//!   plans to wake at; a registration signals the condvar only when its
//!   tick is earlier. While the driver is awake it rescans before
//!   sleeping again, so no registration needs to signal it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use super::task::Task;

pub(super) const GRANULARITY: Duration = Duration::from_millis(1);
const SLOTS: usize = 256;
/// Cap on the driver's nap while no timers are armed; an earlier
/// registration signals the condvar, so this is only a safety bound.
const IDLE_NAP: Duration = Duration::from_millis(50);
/// `planned_wake` of a driver that is awake and will rescan the wheel
/// before it sleeps: no registration is earlier.
const AWAKE: u64 = 0;
/// `planned_wake` of a driver with nothing armed: every registration is
/// earlier.
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
    /// The tick the driver will wake at on its own ([`AWAKE`] while it
    /// runs, [`NEVER`] while nothing live is armed).
    planned_wake: u64,
    shutdown: bool,
}

impl Inner {
    /// Remove every entry due at `now` and return the tasks of the live
    /// ones, disarming them.
    fn take_due(&mut self, now: Instant) -> Vec<Arc<Task>> {
        let now_tick =
            (now.saturating_duration_since(self.epoch).as_nanos() / GRANULARITY.as_nanos()) as u64;
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
        }
        self.fired_through = now_tick;
        due
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
    cv: Condvar,
    /// Condvar signals sent by [`TimerWheel::register`].
    signals: AtomicU64,
}

impl TimerWheel {
    pub(super) fn new() -> Self {
        TimerWheel {
            inner: Mutex::new(Inner {
                epoch: Instant::now(),
                wheel: (0..SLOTS).map(|_| Vec::new()).collect(),
                armed: 0,
                fired_through: 0,
                planned_wake: NEVER,
                shutdown: false,
            }),
            cv: Condvar::new(),
            signals: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arm a wake for `task` at the first wheel tick ≥ `until`, unless
    /// its live entry already fires at or before that tick.
    pub(super) fn register(&self, until: Instant, task: &Arc<Task>) {
        let mut inner = self.lock();
        let offset = until.saturating_duration_since(inner.epoch);
        let g = GRANULARITY.as_nanos();
        let tick = (offset.as_nanos().div_ceil(g) as u64).max(inner.fired_through + 1);
        let pending = task.timer_tick.load(Ordering::Relaxed);
        if pending != 0 && pending <= tick {
            return;
        }
        task.timer_tick.store(tick, Ordering::Relaxed);
        inner.wheel[(tick % SLOTS as u64) as usize].push(Entry { tick, task: Arc::clone(task) });
        inner.armed += 1;
        let signal = tick < inner.planned_wake;
        if signal {
            inner.planned_wake = tick;
        }
        drop(inner);
        if signal {
            self.signals.fetch_add(1, Ordering::Relaxed);
            self.cv.notify_one();
        }
    }

    /// Stop the driver; it wakes every still-armed task on the way out
    /// so nothing stays parked past shutdown.
    pub(super) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
    }

    /// The driver loop (runs on the dedicated `gates-timer` thread).
    pub(super) fn drive(&self) {
        let mut inner = self.lock();
        loop {
            inner.planned_wake = AWAKE;
            if inner.shutdown {
                let mut leftovers = Vec::new();
                for slot in inner.wheel.iter_mut() {
                    take_slot(slot, u64::MAX, &mut leftovers);
                }
                inner.armed = 0;
                drop(inner);
                for task in &leftovers {
                    task.wake();
                }
                return;
            }

            let due = inner.take_due(Instant::now());
            if !due.is_empty() {
                drop(inner);
                for task in &due {
                    task.wake();
                }
                inner = self.lock();
                continue;
            }

            let next = inner.wheel.iter().flatten().filter(|e| e.live()).map(|e| e.tick).min();
            inner.planned_wake = next.unwrap_or(NEVER);
            let nap = match next {
                None => IDLE_NAP,
                Some(next_tick) => {
                    let deadline = inner.epoch
                        + Duration::from_nanos((GRANULARITY.as_nanos() as u64) * next_tick);
                    deadline
                        .saturating_duration_since(Instant::now())
                        .clamp(Duration::from_micros(100), IDLE_NAP.max(GRANULARITY))
                }
            };
            let (guard, _) = self.cv.wait_timeout(inner, nap).unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    #[cfg(test)]
    fn signals(&self) -> u64 {
        self.signals.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    fn armed(&self) -> usize {
        self.lock().armed
    }

    /// What the driver would wake if it woke at `now`.
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
        let wheel = TimerWheel::new();
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
        let wheel = TimerWheel::new();
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
    fn only_an_earlier_registration_signals_the_driver() {
        // No driver thread: its planned wake starts at "never" and moves
        // only with the registrations that signal it.
        let wheel = TimerWheel::new();
        let t0 = Instant::now();
        let (a, b, c) = (parked(), parked(), parked());
        wheel.register(t0 + ms(50), &a);
        assert_eq!(wheel.signals(), 1, "first deadline: the driver must learn of it");
        wheel.register(t0 + ms(80), &b);
        wheel.register(t0 + ms(90), &a);
        assert_eq!(wheel.signals(), 1, "later deadlines wait for the planned wake");
        wheel.register(t0 + ms(20), &c);
        assert_eq!(wheel.signals(), 2, "an earlier deadline moves the planned wake");
        wheel.register(t0 + ms(10), &a);
        assert_eq!(wheel.signals(), 3, "so does an earlier re-park of a parked task");
    }

    #[test]
    fn shutdown_wakes_every_armed_task() {
        let wheel = Arc::new(TimerWheel::new());
        let t0 = Instant::now();
        let tasks: Vec<_> = (0..4).map(|_| parked()).collect();
        for (i, task) in tasks.iter().enumerate() {
            wheel.register(t0 + Duration::from_secs(30 + i as u64), task);
        }
        // One superseded entry: its task still wakes exactly through the
        // live one.
        wheel.register(t0 + Duration::from_secs(20), &tasks[3]);
        let driver = {
            let wheel = Arc::clone(&wheel);
            std::thread::spawn(move || wheel.drive())
        };
        wheel.shutdown();
        driver.join().expect("driver exits cleanly");
        for task in &tasks {
            assert!(task.is_queued(), "every parked task is woken on shutdown");
        }
    }
}
