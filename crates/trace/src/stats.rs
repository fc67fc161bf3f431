//! The one histogram: every percentile the workspace reports comes from
//! [`Histogram`].
//!
//! Buckets are HDR-style: exact below 32, then 32 sub-buckets per power
//! of two (≈ 3 % relative error). A percentile is its bucket's midpoint
//! clamped to the recorded `[min, max]`, so it never lies outside the
//! samples.

/// Sub-buckets per power of two. 32 gives ~3% relative error, plenty for
/// latency percentiles.
const SUBBUCKETS: usize = 32;
const SUBBUCKET_BITS: u32 = 5;

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Values are bucketed with bounded relative error; percentile queries
/// return a representative value for the bucket.
///
/// # Examples
///
/// ```
/// use aurora_trace::Histogram;
///
/// let mut h = Histogram::default();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((450..=550).contains(&p50));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    min: u64,
    max: u64,
}

impl Default for Histogram {
    /// The empty histogram.
    fn default() -> Self {
        Self { buckets: Vec::new(), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUBBUCKET_BITS;
    let sub = ((v >> shift) as usize) & (SUBBUCKETS - 1);
    // Buckets 0..SUBBUCKETS are exact; each further power of two
    // contributes SUBBUCKETS buckets.
    SUBBUCKETS + (msb - SUBBUCKET_BITS) as usize * SUBBUCKETS + sub
}

fn bucket_value(index: usize) -> u64 {
    if index < SUBBUCKETS {
        return index as u64;
    }
    let rest = index - SUBBUCKETS;
    let exp = (rest / SUBBUCKETS) as u32 + SUBBUCKET_BITS;
    let sub = (rest % SUBBUCKETS) as u64;
    // Midpoint of the bucket.
    (1u64 << exp) + (sub << (exp - SUBBUCKET_BITS)) + (1u64 << (exp - SUBBUCKET_BITS)) / 2
}

/// The 1-based rank of the `p`-th percentile among `count` samples:
/// `ceil(p/100 · count)`, at least 1.
fn rank(count: u64, p: f64) -> u64 {
    ((p / 100.0) * count as f64).ceil().max(1.0) as u64
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`, as if every sample recorded into
    /// `other` had been recorded here.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Integer mean of samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (0 < p ≤ 100); 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = rank(self.count, p);
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_small_values_exact() {
        for v in 0..32u64 {
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for shift in 6..40u32 {
            for off in [0u64, 1, 1234] {
                let v = (1u64 << shift) + off * ((1 << shift) / 2000 + 1);
                let rep = bucket_value(bucket_index(v));
                let err = (rep as f64 - v as f64).abs() / v as f64;
                assert!(err < 0.05, "v={v} rep={rep} err={err}");
            }
        }
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut h = Histogram::default();
        for v in (0..10_000u64).map(|i| i * 37 % 100_000) {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let p95 = h.percentile(95.0);
        let p999 = h.percentile(99.9);
        assert!(p50 <= p95 && p95 <= p999);
        assert!(p999 <= h.max());
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert!(a.max() >= 900_000);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::default();
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn default_is_the_empty_histogram() {
        let mut h = Histogram::default();
        h.record(5);
        assert_eq!((h.min(), h.max()), (5, 5), "min must not stick at a default 0");
        assert_eq!(h.percentile(50.0), 5);
    }

    #[test]
    fn percentiles_stay_inside_the_samples() {
        // Ten identical flushes: every percentile is the sample itself.
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.record(11_869);
        }
        for p in [50.0, 95.0, 99.0] {
            assert_eq!(h.percentile(p), 11_869, "p{p}");
        }

        // Sweep 0..2⁴⁰: one 0, 98 copies of v and one far larger sample
        // put p50/p95/p99 in v's bucket without the [min, max] clamp.
        let mut pool = Histogram::default();
        let mut sweep: Vec<u64> = (0..64).collect();
        for s in 6..=40u32 {
            sweep.extend([0u64, 1, 1234, 9_999].map(|o| (1u64 << s) + o * ((1 << s) / 10_000 + 1)));
        }
        for &v in &sweep {
            pool.record(v);
            let mut h = Histogram::default();
            h.record(0);
            for _ in 0..98 {
                h.record(v);
            }
            h.record(1 << 41);
            let (p50, p95, p99) = (h.percentile(50.0), h.percentile(95.0), h.percentile(99.0));
            assert!(h.min() <= p50 && p50 <= p95 && p95 <= p99 && p99 <= h.max(), "v={v}");
            if v < 32 {
                assert_eq!(p50, v, "values below 32 are exact");
            } else {
                let err = (p50 as f64 - v as f64).abs() / v as f64;
                assert!(err < 0.05, "v={v} p50={p50} err={err}");
            }
        }
        let (p50, p95, p99) = (pool.percentile(50.0), pool.percentile(95.0), pool.percentile(99.0));
        assert!(pool.min() <= p50 && p50 <= p95 && p95 <= p99 && p99 <= pool.max());
    }

    #[test]
    fn rank_matches_the_integer_rule_at_reported_percentiles() {
        // For the percentiles the reports print, the float rank equals
        // the integer `ceil(p·n / 100)` the old histograms used.
        for n in 1..=1_000_000u64 {
            for p in [50u64, 95, 99] {
                assert_eq!(rank(n, p as f64), (n * p).div_ceil(100), "n={n} p={p}");
            }
        }
    }
}
