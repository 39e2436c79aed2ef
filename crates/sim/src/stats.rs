//! Online statistics used by the adaptation algorithm and run reports.
//!
//! Everything here is O(1) per observation: Welford accumulation for
//! whole-run statistics, a fixed-capacity ring for windowed statistics
//! (the paper's "recent" load indicators), an EWMA (the paper's learning
//! rate α), and a linear histogram for queue-length distributions.

/// Whole-stream mean/variance via Welford's algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Welford { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Add an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Raw sum of squared deviations (the `M2` accumulator). Exposed so
    /// accumulators can cross process boundaries losslessly.
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Rebuild an accumulator from its raw parts (the inverse of reading
    /// `count`/`mean`/`m2`/`min`/`max`), e.g. after a network hop.
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Welford { count, mean, m2, min, max }
    }
}

impl Default for Welford {
    /// The empty accumulator, as [`Welford::new`]: nothing observed, so
    /// `min` is `+∞` and `max` is `-∞`.
    fn default() -> Self {
        Welford::new()
    }
}

/// Mean/std over the last `capacity` observations (ring buffer).
#[derive(Debug, Clone)]
pub struct RingStat {
    buf: Vec<f64>,
    capacity: usize,
    next: usize,
    filled: bool,
}

impl RingStat {
    /// Window of the given capacity (must be > 0).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        RingStat { buf: Vec::with_capacity(capacity), capacity, next: 0, filled: false }
    }

    /// Add an observation, evicting the oldest when full.
    pub fn push(&mut self, x: f64) {
        if self.buf.len() < self.capacity {
            self.buf.push(x);
            if self.buf.len() == self.capacity {
                self.filled = true;
            }
        } else {
            self.buf[self.next] = x;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True when the window has reached capacity at least once.
    pub fn is_full(&self) -> bool {
        self.filled
    }

    /// Mean of the window (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        self.buf.iter().sum::<f64>() / self.buf.len() as f64
    }

    /// Population standard deviation of the window.
    pub fn std_dev(&self) -> f64 {
        let n = self.buf.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.buf.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        var.sqrt()
    }

    /// Coefficient of variation relative to `scale` (std/scale). Used by
    /// the σ-gain functions, which need variability normalized to the
    /// parameter's range rather than to the mean (the mean can be ~0).
    pub fn variability(&self, scale: f64) -> f64 {
        if scale <= 0.0 {
            return 0.0;
        }
        self.std_dev() / scale
    }

    /// Remove all observations.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.filled = false;
    }
}

/// Exponentially-weighted moving average: `v ← α·v + (1−α)·x`.
///
/// Matches the paper's Equation for d̃, where α is the "learning rate which
/// helps remove transient behavior" (α close to 1 ⇒ slow, smooth).
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    primed: bool,
}

impl Ewma {
    /// New EWMA with smoothing factor `alpha ∈ [0, 1)`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..1.0).contains(&alpha), "alpha must be in [0,1)");
        Ewma { alpha, value: 0.0, primed: false }
    }

    /// Fold in an observation and return the new value. The first
    /// observation initializes the average directly.
    pub fn update(&mut self, x: f64) -> f64 {
        if self.primed {
            self.value = self.alpha * self.value + (1.0 - self.alpha) * x;
        } else {
            self.value = x;
            self.primed = true;
        }
        self.value
    }

    /// Current value (0 before any update).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Reset to the unprimed state.
    pub fn reset(&mut self) {
        self.value = 0.0;
        self.primed = false;
    }
}

/// Windowed event-rate estimator: events per second over a sliding time
/// window, driven by explicit timestamps (virtual or wall seconds).
///
/// The paper's middleware "monitors the arrival rate at each source";
/// this is that monitor, usable from both engines because it never reads
/// a clock itself.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window_secs: f64,
    /// (timestamp, weight) events inside the window.
    events: std::collections::VecDeque<(f64, f64)>,
    total_weight: f64,
}

impl RateEstimator {
    /// Estimator over the trailing `window_secs` (> 0).
    pub fn new(window_secs: f64) -> Self {
        assert!(window_secs > 0.0, "window must be positive");
        RateEstimator { window_secs, events: std::collections::VecDeque::new(), total_weight: 0.0 }
    }

    fn evict(&mut self, now: f64) {
        while let Some(&(t, w)) = self.events.front() {
            if now - t > self.window_secs {
                self.events.pop_front();
                self.total_weight -= w;
            } else {
                break;
            }
        }
    }

    /// Record `weight` units (e.g. records, bytes) at time `now`.
    /// Timestamps must be non-decreasing.
    pub fn record(&mut self, now: f64, weight: f64) {
        debug_assert!(
            self.events.back().is_none_or(|&(t, _)| now >= t),
            "timestamps must be monotone"
        );
        self.events.push_back((now, weight));
        self.total_weight += weight;
        self.evict(now);
    }

    /// Estimated rate (units/second) over the window ending at `now`.
    pub fn rate(&mut self, now: f64) -> f64 {
        self.evict(now);
        if self.events.is_empty() {
            return 0.0;
        }
        // Use the real span covered (up to the window) so early estimates
        // aren't diluted by the empty part of the window.
        let span = (now - self.events.front().unwrap().0).max(1e-9).min(self.window_secs);
        self.total_weight / span.max(self.window_secs * 0.1)
    }

    /// Events currently inside the window.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are inside the window.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Fixed-range linear histogram (used for queue-occupancy reports).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Histogram over `[lo, hi)` with `buckets` equal-width bins.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram { lo, hi, buckets: vec![0; buckets], underflow: 0, overflow: 0 }
    }

    /// Record an observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.buckets.len() as f64) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total observations, including out-of-range.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate quantile (`q ∈ [0,1]`) using bucket midpoints.
    /// Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.lo + (i as f64 + 0.5) * width);
            }
        }
        Some(self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_default_is_empty() {
        let w = Welford::default();
        assert_eq!(w, Welford::new());
        assert_eq!((w.min(), w.max()), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_empty_is_benign() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = RingStat::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            r.push(x);
        }
        // Window is now {2,3,4}.
        assert!((r.mean() - 3.0).abs() < 1e-12);
        assert!(r.is_full());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ring_std_of_constant_is_zero() {
        let mut r = RingStat::new(4);
        for _ in 0..10 {
            r.push(5.0);
        }
        assert_eq!(r.std_dev(), 0.0);
        assert_eq!(r.variability(10.0), 0.0);
    }

    #[test]
    fn ring_variability_normalizes_by_scale() {
        let mut r = RingStat::new(2);
        r.push(0.0);
        r.push(10.0);
        // std of {0,10} is 5; variability on scale 10 is 0.5.
        assert!((r.variability(10.0) - 0.5).abs() < 1e-12);
        assert_eq!(r.variability(0.0), 0.0);
    }

    #[test]
    fn ring_clear_resets() {
        let mut r = RingStat::new(2);
        r.push(1.0);
        r.push(2.0);
        r.clear();
        assert!(r.is_empty());
        assert!(!r.is_full());
        assert_eq!(r.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window capacity must be positive")]
    fn ring_zero_capacity_panics() {
        let _ = RingStat::new(0);
    }

    #[test]
    fn ewma_first_update_primes() {
        let mut e = Ewma::new(0.9);
        assert_eq!(e.update(10.0), 10.0);
        let v = e.update(0.0);
        assert!((v - 9.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.5);
        for _ in 0..60 {
            e.update(3.0);
        }
        assert!((e.value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_reset() {
        let mut e = Ewma::new(0.5);
        e.update(5.0);
        e.reset();
        assert_eq!(e.value(), 0.0);
        assert_eq!(e.update(1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1)")]
    fn ewma_alpha_one_panics() {
        let _ = Ewma::new(1.0);
    }

    #[test]
    fn rate_estimator_tracks_constant_rate() {
        let mut r = RateEstimator::new(10.0);
        // 5 units/second for 20 seconds.
        for i in 0..200 {
            r.record(i as f64 * 0.1, 0.5);
        }
        let rate = r.rate(19.9);
        assert!((rate - 5.0).abs() < 0.5, "rate {rate} should be ≈5");
    }

    #[test]
    fn rate_estimator_decays_after_burst() {
        let mut r = RateEstimator::new(5.0);
        for i in 0..50 {
            r.record(i as f64 * 0.1, 1.0); // 10/s burst for 5s
        }
        assert!(r.rate(5.0) > 8.0);
        assert_eq!(r.rate(100.0), 0.0, "window empties after the burst");
        assert!(r.is_empty());
    }

    #[test]
    fn rate_estimator_weights_count() {
        let mut r = RateEstimator::new(10.0);
        r.record(0.0, 100.0);
        r.record(1.0, 100.0);
        // 200 units over ≥1s span, floored at 10% of the window.
        let rate = r.rate(1.0);
        assert!(rate > 0.0 && rate <= 200.0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rate_estimator_zero_window_panics() {
        let _ = RateEstimator::new(0.0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.6, 9.99, 10.0, -1.0] {
            h.record(x);
        }
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_quantile_median() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 49.5).abs() < 1.0, "median ≈ 49.5, got {median}");
        assert!(h.quantile(0.0).is_some());
        assert!(h.quantile(1.0).unwrap() <= 100.0);
    }

    #[test]
    fn histogram_quantile_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!(h.quantile(0.5).is_none());
    }
}
