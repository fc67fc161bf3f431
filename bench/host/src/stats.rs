//! Percentiles that know their own support, and the small summaries the
//! metrics are built from.
//!
//! The rule (choosing-metrics §1): a timing is reported as a median plus
//! the highest percentile that still has at least ten samples beyond it.
//! [`Samples::percentile`] enforces the second half: an upper-tail
//! percentile without ten samples above its rank is refused, and the
//! refusal carries the unsupported value so a caller has to opt in to
//! using it. The median is exempt — it is always reportable, and is
//! printed with its sample count like every other percentile.

/// Samples beyond a tail percentile's rank needed to report it.
pub const MIN_BEYOND: usize = 10;

/// A percentile the sample cannot support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thin {
    /// What the percentile would have been.
    pub value: f64,
    /// Samples available.
    pub n: usize,
    /// Samples beyond the percentile's rank.
    pub beyond: usize,
}

/// A bag of measurements of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    v: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a bag from raw values.
    pub fn from_vec(v: Vec<f64>) -> Self {
        Self { v, sorted: false }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.v.push(x);
        self.sorted = false;
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// True without samples.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// The samples in insertion order (only meaningful before the first
    /// percentile call sorts them).
    pub fn values(&self) -> &[f64] {
        &self.v
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.v.iter().sum()
    }

    /// Arithmetic mean (0 without samples).
    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            0.0
        } else {
            self.sum() / self.v.len() as f64
        }
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.v
                .sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (nearest rank, `0 < p < 100`). Upper-tail
    /// percentiles (`p > 50`) with fewer than [`MIN_BEYOND`] samples
    /// beyond their rank are refused; so is any percentile of an empty
    /// bag.
    pub fn percentile(&mut self, p: f64) -> Result<f64, Thin> {
        assert!(p > 0.0 && p < 100.0, "percentile out of range: {p}");
        let n = self.v.len();
        if n == 0 {
            return Err(Thin {
                value: 0.0,
                n: 0,
                beyond: 0,
            });
        }
        self.sort();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        let value = self.v[rank - 1];
        let beyond = n - rank;
        if p > 50.0 && beyond < MIN_BEYOND {
            return Err(Thin { value, n, beyond });
        }
        Ok(value)
    }

    /// The median; 0 for an empty bag (callers that need a non-empty
    /// bag check [`len`](Self::len) themselves).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0).unwrap_or(0.0)
    }
}

/// Median of the last quarter of `ops` over the median of the first
/// quarter: ≈ 1 at steady state, > 1 when retained state makes later
/// operations slower.
pub fn drift_ratio(ops: &[f64]) -> f64 {
    let q = (ops.len() / 4).max(1);
    let first = Samples::from_vec(ops[..q].to_vec()).median();
    let last = Samples::from_vec(ops[ops.len() - q..].to_vec()).median();
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::from_vec((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 199 samples: rank 190, nine beyond — refused, value attached.
        let thin = ramp(199).percentile(95.0).unwrap_err();
        assert_eq!((thin.n, thin.beyond, thin.value), (199, 9, 190.0));
        // 200 samples: rank 190, ten beyond — accepted.
        assert_eq!(ramp(200).percentile(95.0), Ok(190.0));
    }

    #[test]
    fn median_is_always_reportable_but_never_of_nothing() {
        assert_eq!(ramp(1).percentile(50.0), Ok(1.0));
        assert_eq!(ramp(4).percentile(50.0), Ok(2.0));
        assert!(Samples::new().percentile(50.0).is_err());
    }

    #[test]
    fn drift_compares_quarter_medians() {
        let flat: Vec<f64> = vec![5.0; 40];
        assert_eq!(drift_ratio(&flat), 1.0);
        let grow: Vec<f64> = (0..40)
            .map(|i| {
                if i < 10 {
                    10.0
                } else if i >= 30 {
                    15.0
                } else {
                    12.0
                }
            })
            .collect();
        assert_eq!(drift_ratio(&grow), 1.5);
    }
}
