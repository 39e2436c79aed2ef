//! A log-linear latency histogram: 128 linear sub-buckets per power of
//! two, so a reported percentile is within 0.4 % of the sample it stands
//! for (1 % is the promise), where the log2 buckets recorded in
//! `BENCH_PR8.json` were 2x wide. Fixed size; `record` is one index
//! computation and two increments, and never allocates.
//!
//! Values are unsigned integers in the caller's unit (the ledger records
//! nanoseconds). Everything at or above 2^48 lands in the last bucket —
//! for nanoseconds that is over three days.

/// Mantissa bits: 2^7 sub-buckets per octave.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Highest octave kept apart; values with a higher top bit saturate.
const MAX_EXP: u32 = 47;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 2) as usize * SUB;

/// See the module docs.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: Box::new([0; BUCKETS]), total: 0 }
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    // Top bit is implicit: the next SUB_BITS bits pick the sub-bucket.
    (shift as usize + 1) * SUB + ((v >> shift) as usize & (SUB - 1))
}

/// The value a bucket reports: exact below `SUB`, the bucket's midpoint
/// above.
fn value_of(index: usize) -> f64 {
    if index < SUB {
        return index as f64;
    }
    let shift = (index / SUB - 1) as u32;
    let low = ((SUB + index % SUB) as u64) << shift;
    low as f64 + (1u64 << shift) as f64 / 2.0
}

impl Histogram {
    /// Count one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile (`p` in 0..=100); 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(i);
            }
        }
        value_of(BUCKETS - 1)
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Non-empty buckets as `index:count` pairs separated by spaces —
    /// how a worker hands its histogram to the parent.
    pub fn to_sparse(&self) -> String {
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&format!("{i}:{c}"));
            }
        }
        out
    }

    /// Inverse of [`Histogram::to_sparse`]; `None` on malformed input.
    pub fn from_sparse(text: &str) -> Option<Histogram> {
        let mut h = Histogram::default();
        for pair in text.split_whitespace() {
            let (i, c) = pair.split_once(':')?;
            let (i, c): (usize, u64) = (i.parse().ok()?, c.parse().ok()?);
            *h.counts.get_mut(i)? += c;
            h.total += c;
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Nearest-rank percentile of a sorted vector: the reference.
    fn exact(sorted: &[u64], p: f64) -> f64 {
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    fn check(values: Vec<u64>) {
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values;
        sorted.sort_unstable();
        assert_eq!(h.count(), sorted.len() as u64);
        for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let (got, want) = (h.percentile(p), exact(&sorted, p));
            let err = (got - want).abs() / want.max(1.0);
            assert!(err <= 0.01, "p{p}: histogram {got} vs exact {want} ({err:.4} off)");
        }
    }

    #[test]
    fn within_one_percent_of_a_sorted_vector_across_nine_decades() {
        let mut rng = SmallRng::seed_from_u64(11);
        // Log-uniform from 1 ns to 1000 s.
        check((0..200_000).map(|_| 10f64.powf(rng.gen_range(0.0..12.0)) as u64).collect());
    }

    #[test]
    fn within_one_percent_on_a_tight_latency_cluster_with_a_tail() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut v: Vec<u64> = (0..50_000).map(|_| rng.gen_range(450_000..550_000)).collect();
        v.extend((0..600).map(|_| rng.gen_range(5_000_000..9_000_000u64)));
        check(v);
    }

    #[test]
    fn small_values_are_exact_and_huge_ones_saturate() {
        check((0..300).collect());
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(1 << 60);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) >= (1u64 << MAX_EXP) as f64);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in [127u64, 128, 129, 255, 256, 1_000, 123_456_789, (1 << 48) - 1] {
            let mid = value_of(index_of(v));
            assert!((mid - v as f64).abs() / v as f64 <= 0.004, "{v} -> {mid}");
        }
        assert!(index_of(u64::MAX) == BUCKETS - 1 && index_of((1 << 48) - 1) == BUCKETS - 1);
    }

    #[test]
    fn merge_and_sparse_round_trip() {
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        for v in 0..1_000u64 {
            a.record(v * 997);
            b.record(v * 13 + 5_000_000);
        }
        let mut both = a.clone();
        both.merge(&b);
        assert_eq!(both.count(), 2_000);
        let back = Histogram::from_sparse(&both.to_sparse()).unwrap();
        assert_eq!(back.count(), 2_000);
        for p in [10.0, 50.0, 99.0] {
            assert_eq!(back.percentile(p), both.percentile(p));
        }
        assert!(Histogram::from_sparse("12:x").is_none());
        assert!(Histogram::from_sparse("99999999:1").is_none());
    }
}
