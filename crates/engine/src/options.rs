//! Run options shared by both engines.

use std::sync::Arc;

use gates_core::trace::{NullRecorder, Recorder};
use gates_sim::{SimDuration, SimTime};

use crate::EngineError;

/// Timing knobs for a run.
#[derive(Clone)]
pub struct RunOptions {
    /// How often each stage samples its input-queue length.
    pub observe_interval: SimDuration,
    /// How often each stage runs a parameter-adaptation round.
    pub adapt_interval: SimDuration,
    /// Delivery delay for control traffic (exception reports) between
    /// stages. Control packets are tiny; they are modeled with a fixed
    /// latency rather than charged against link bandwidth.
    pub control_latency: SimDuration,
    /// Hard stop: `run_to_completion` gives up at this virtual time even
    /// if streams have not ended (safety net for saturated pipelines).
    pub max_time: SimTime,
    /// Flight recorder fed by both engines on observe/adapt ticks. The
    /// default [`NullRecorder`] is disabled and costs nothing beyond one
    /// `enabled()` check per tick.
    pub recorder: Arc<dyn Recorder>,
    /// Deterministic fault plan applied to the virtual-time engine's
    /// simulated links (the distributed runtime carries its plan in
    /// [`crate::DistConfig::fault`] instead). `None` injects nothing.
    pub chaos: Option<gates_net::FaultPlan>,
    /// Executor worker threads for the wall-clock runtimes — the number
    /// of *modeled cores* stages contend for (service-time sleeps
    /// occupy a worker; pure waits park on the timer wheel). `0` means
    /// auto: the machine's available parallelism.
    pub cores: usize,
    /// Observed-time source for the wall-clock runtimes (see
    /// [`crate::clock::EngineClock`]): trace timestamps, trajectories,
    /// `StageApi::now`, and report times read from it. `None` means real
    /// elapsed time anchored at run start. Scheduling (parks, poll
    /// deadlines, pacing) always uses real time. The virtual-time
    /// [`crate::DesEngine`] ignores this — it already owns its clock.
    pub clock: Option<Arc<dyn crate::clock::EngineClock>>,
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("observe_interval", &self.observe_interval)
            .field("adapt_interval", &self.adapt_interval)
            .field("control_latency", &self.control_latency)
            .field("max_time", &self.max_time)
            .field("recorder_enabled", &self.recorder.enabled())
            .field("chaos", &self.chaos)
            .field("cores", &self.cores)
            .field("clock_overridden", &self.clock.is_some())
            .finish()
    }
}

// Equality intentionally ignores the recorder and the clock: they are
// observers, not run parameters, and trait objects have no meaningful
// equality.
impl PartialEq for RunOptions {
    fn eq(&self, other: &Self) -> bool {
        self.observe_interval == other.observe_interval
            && self.adapt_interval == other.adapt_interval
            && self.control_latency == other.control_latency
            && self.max_time == other.max_time
            && self.chaos == other.chaos
            && self.cores == other.cores
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            observe_interval: SimDuration::from_millis(100),
            adapt_interval: SimDuration::from_secs(1),
            control_latency: SimDuration::from_millis(1),
            max_time: SimTime::from_secs_f64(3_600.0),
            recorder: Arc::new(NullRecorder),
            chaos: None,
            cores: 0,
            clock: None,
        }
    }
}

impl RunOptions {
    /// Validate invariants.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.observe_interval.is_zero() {
            return Err(EngineError::BadOptions("observe_interval must be positive".into()));
        }
        if self.adapt_interval.is_zero() {
            return Err(EngineError::BadOptions("adapt_interval must be positive".into()));
        }
        if self.max_time == SimTime::ZERO {
            return Err(EngineError::BadOptions("max_time must be positive".into()));
        }
        Ok(())
    }

    /// Builder: observation interval.
    pub fn observe_every(mut self, d: SimDuration) -> Self {
        self.observe_interval = d;
        self
    }

    /// Builder: adaptation interval.
    pub fn adapt_every(mut self, d: SimDuration) -> Self {
        self.adapt_interval = d;
        self
    }

    /// Builder: control-message latency.
    pub fn control_latency(mut self, d: SimDuration) -> Self {
        self.control_latency = d;
        self
    }

    /// Builder: maximum virtual time.
    pub fn max_time(mut self, t: SimTime) -> Self {
        self.max_time = t;
        self
    }

    /// Builder: attach a flight recorder (see
    /// [`gates_core::trace::FlightRecorder`]).
    pub fn recorder(mut self, r: Arc<dyn Recorder>) -> Self {
        self.recorder = r;
        self
    }

    /// Builder: deterministic fault plan for the virtual-time engine's
    /// simulated links.
    pub fn chaos(mut self, plan: gates_net::FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Builder: executor pool size ("modeled cores") for the wall-clock
    /// runtimes; `0` selects the machine's available parallelism.
    pub fn cores(mut self, n: usize) -> Self {
        self.cores = n;
        self
    }

    /// Builder: observed-time source for the wall-clock runtimes (tests
    /// and replay pass a [`crate::clock::ManualClock`]).
    pub fn clock(mut self, c: Arc<dyn crate::clock::EngineClock>) -> Self {
        self.clock = Some(c);
        self
    }

    /// The observed-time source a run should use: the override if one
    /// was attached, otherwise real elapsed time anchored now.
    pub(crate) fn run_clock(&self) -> Arc<dyn crate::clock::EngineClock> {
        self.clock.clone().unwrap_or_else(|| Arc::new(crate::clock::RealClock::anchored_now()))
    }

    /// The pool size the wall-clock runtimes actually use.
    pub(crate) fn effective_cores(&self) -> usize {
        if self.cores > 0 {
            self.cores
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates_core::trace::FlightRecorder;

    #[test]
    fn default_is_valid() {
        RunOptions::default().validate().unwrap();
    }

    #[test]
    fn zero_intervals_rejected() {
        assert!(RunOptions::default().observe_every(SimDuration::ZERO).validate().is_err());
        assert!(RunOptions::default().adapt_every(SimDuration::ZERO).validate().is_err());
        assert!(RunOptions::default().max_time(SimTime::ZERO).validate().is_err());
    }

    #[test]
    fn builder_sets_fields() {
        let o = RunOptions::default()
            .observe_every(SimDuration::from_millis(50))
            .adapt_every(SimDuration::from_millis(500))
            .control_latency(SimDuration::from_millis(2))
            .max_time(SimTime::from_secs_f64(10.0));
        assert_eq!(o.observe_interval.as_micros(), 50_000);
        assert_eq!(o.adapt_interval.as_micros(), 500_000);
        assert_eq!(o.control_latency.as_micros(), 2_000);
        assert_eq!(o.max_time.as_secs_f64(), 10.0);
    }

    #[test]
    fn recorder_defaults_off_and_attaches() {
        let o = RunOptions::default();
        assert!(!o.recorder.enabled());
        let rec = Arc::new(FlightRecorder::new(16));
        let o = o.recorder(rec.clone());
        assert!(o.recorder.enabled());
        // Equality ignores the observer.
        assert_eq!(o, RunOptions::default());
        let debug = format!("{o:?}");
        assert!(debug.contains("recorder_enabled: true"));
    }
}
