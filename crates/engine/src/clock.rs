//! Observed-time source for the wall-clock runtimes.
//!
//! The threaded and distributed engines *schedule* on real
//! [`std::time::Instant`]s (parks, poll deadlines, token-bucket pacing)
//! — that cannot be faked without also faking the OS scheduler. What
//! *can* be virtualized is the time the run **observes**: the `t` values
//! stamped on flight-recorder events and parameter trajectories, the
//! clock exposed to processors via `StageApi::now`, a replica's shard
//! cooldown, and the report's `finished_at`. Every time a stage's core
//! sees is read here, at microsecond resolution (`SimTime`). Routing
//! those reads through [`EngineClock`] lets a
//! replayed run re-stamp its observations from a recording, so two runs
//! of the same recipe produce comparable traces even though their real
//! schedulers interleaved differently.

use std::sync::Mutex;
use std::time::Instant;

/// A monotonic source of observed run time, in seconds since run start.
///
/// Implementations must be cheap (`now_secs` is called on every packet
/// and timer tick) and monotone non-decreasing.
pub trait EngineClock: Send + Sync + std::fmt::Debug {
    /// Seconds elapsed since the start of the run, as observed.
    fn now_secs(&self) -> f64;
}

/// The default clock: real elapsed time since the anchor was created.
///
/// Engines construct one per run (at `run()` entry), so all stages of a
/// run share the same zero point.
#[derive(Debug)]
pub struct RealClock {
    start: Instant,
}

impl RealClock {
    /// Anchor the clock at the current instant.
    pub fn anchored_now() -> Self {
        RealClock { start: Instant::now() }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::anchored_now()
    }
}

impl EngineClock for RealClock {
    fn now_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// A hand-driven clock for tests and replay: reads return whatever was
/// last [`set`](ManualClock::set). Time never advances on its own.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: Mutex<f64>,
}

impl ManualClock {
    /// A manual clock starting at `t` seconds.
    pub fn at(t: f64) -> Self {
        ManualClock { now: Mutex::new(t) }
    }

    /// Move observed time to `t`. Clamped to be monotone: moving
    /// backwards is ignored.
    pub fn set(&self, t: f64) {
        let mut now = self.now.lock().unwrap();
        if t > *now {
            *now = t;
        }
    }

    /// Advance observed time by `dt` seconds (negative deltas ignored).
    pub fn advance(&self, dt: f64) {
        if dt > 0.0 {
            let mut now = self.now.lock().unwrap();
            *now += dt;
        }
    }
}

impl EngineClock for ManualClock {
    fn now_secs(&self) -> f64 {
        *self.now.lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotone() {
        let c = RealClock::anchored_now();
        let a = c.now_secs();
        let b = c.now_secs();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    fn manual_clock_holds_and_advances() {
        let c = ManualClock::at(5.0);
        assert_eq!(c.now_secs(), 5.0);
        c.advance(2.5);
        assert_eq!(c.now_secs(), 7.5);
        c.set(3.0); // backwards: ignored
        assert_eq!(c.now_secs(), 7.5);
        c.set(10.0);
        assert_eq!(c.now_secs(), 10.0);
        c.advance(-4.0); // negative: ignored
        assert_eq!(c.now_secs(), 10.0);
    }
}
