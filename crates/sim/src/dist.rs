//! Deterministic workload distributions.
//!
//! The evaluation uses two published workload shapes:
//!
//! * **Mutilate's Facebook "ETC" profile** (Atikoglu et al., SIGMETRICS'12)
//!   for Memcached: log-normal key sizes, generalized-Pareto value sizes,
//!   a 30:1 GET:SET ratio.
//! * **Zipfian key popularity** for the RocksDB `Prefix_dist` workload
//!   (Cao et al., FAST'20): hot key prefixes follow a power law.
//!
//! The container builds with no crates.io mirror, so the samplers
//! (normal via Box–Muller, Pareto via inversion, Zipf via
//! rejection-inversion) draw from the in-tree [`crate::rng`] generator.

use crate::rng::Rng;

/// Samples a standard normal via Box–Muller.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_f64();
        let u2: f64 = rng.gen_f64();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// A log-normal distribution parameterized by the underlying normal's
/// `mu`/`sigma`.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with the given location/scale.
    pub(crate) fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        Self { mu, sigma }
    }

    /// Draws one sample.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// A generalized Pareto distribution (location `mu`, scale `sigma`,
/// shape `xi`), used by Mutilate for Facebook value sizes.
#[derive(Clone, Copy, Debug)]
pub struct GeneralizedPareto {
    mu: f64,
    sigma: f64,
    xi: f64,
}

impl GeneralizedPareto {
    /// Creates a generalized Pareto distribution.
    pub fn new(mu: f64, sigma: f64, xi: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        Self { mu, sigma, xi }
    }

    /// Draws one sample by inverse-CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_f64().max(f64::MIN_POSITIVE);
        if self.xi.abs() < 1e-12 {
            self.mu - self.sigma * u.ln()
        } else {
            self.mu + self.sigma * (u.powf(-self.xi) - 1.0) / self.xi
        }
    }
}

/// Zipf distribution over `{0, …, n-1}` with exponent `s`, sampled by
/// Hörmann's rejection-inversion method (constant time, no tables).
#[derive(Clone, Copy, Debug)]
pub struct Zipf {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    dividing: f64,
}

impl Zipf {
    /// Creates a Zipf sampler over `n` items with exponent `s > 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "need at least one item");
        assert!(s > 0.0, "exponent must be positive");
        let h = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                (1.0 + x).ln()
            } else {
                ((1.0 + x).powf(1.0 - s) - 1.0) / (1.0 - s)
            }
        };
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        let dividing = h(2.5) - 2.0f64.powf(-s);
        Self { n, s, h_x1, h_n, dividing }
    }

    fn h_inv(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.exp() - 1.0
        } else {
            (1.0 + x * (1.0 - self.s)).powf(1.0 / (1.0 - self.s)) - 1.0
        }
    }

    /// Draws one rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_x1 + rng.gen_f64() * (self.h_n - self.h_x1);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            let h_k = if (self.s - 1.0).abs() < 1e-12 {
                (k + 0.5).ln()
            } else {
                ((k + 0.5).powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
            };
            if u >= h_k - k.powf(-self.s) || u >= self.dividing {
                return k as u64 - 1;
            }
        }
    }
}

/// The Mutilate Facebook ("ETC") workload profile used in Figures 4–5.
#[derive(Clone, Copy, Debug)]
pub struct FacebookEtc {
    key_size: LogNormal,
    value_size: GeneralizedPareto,
    /// Fraction of operations that are SETs (Mutilate's 30:1 GET:SET).
    pub set_fraction: f64,
}

impl Default for FacebookEtc {
    fn default() -> Self {
        Self {
            // Mutilate's --keysize=fb_key: lognormal-ish around 31 bytes.
            key_size: LogNormal::new(3.43, 0.33),
            // Mutilate's --valuesize=fb_value: GPD(15, 214.476, 0.348).
            value_size: GeneralizedPareto::new(15.0, 214.476, 0.348),
            set_fraction: 1.0 / 31.0,
        }
    }
}

impl FacebookEtc {
    /// Samples a key size in bytes, clamped to Memcached's limits.
    pub fn key_bytes<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        (self.key_size.sample(rng).round() as usize).clamp(16, 250)
    }

    /// Samples a value size in bytes (clamped to 1 MiB).
    pub fn value_bytes<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        (self.value_size.sample(rng).round() as usize).clamp(1, 1 << 20)
    }

    /// Returns true if the next operation should be a SET.
    pub fn is_set<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen_f64() < self.set_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn zipf_first_rank_is_most_popular() {
        let mut rng = DetRng::seed_from_u64(7);
        let z = Zipf::new(1000, 0.99);
        let mut counts = vec![0u64; 1000];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[500]);
    }

    #[test]
    fn zipf_respects_bounds() {
        let mut rng = DetRng::seed_from_u64(3);
        for n in [1u64, 2, 17, 100_000] {
            let z = Zipf::new(n, 1.2);
            for _ in 0..2000 {
                assert!(z.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    fn etc_sizes_match_published_means() {
        let mut rng = DetRng::seed_from_u64(42);
        let etc = FacebookEtc::default();
        let n = 100_000;
        let key_mean: f64 =
            (0..n).map(|_| etc.key_bytes(&mut rng) as f64).sum::<f64>() / n as f64;
        let val_mean: f64 =
            (0..n).map(|_| etc.value_bytes(&mut rng) as f64).sum::<f64>() / n as f64;
        // Published: keys ~31 B, values a few hundred bytes.
        assert!((25.0..40.0).contains(&key_mean), "key mean {key_mean}");
        assert!((200.0..800.0).contains(&val_mean), "value mean {val_mean}");
    }

    #[test]
    fn set_fraction_is_about_one_in_31() {
        let mut rng = DetRng::seed_from_u64(1);
        let etc = FacebookEtc::default();
        let sets = (0..100_000).filter(|_| etc.is_set(&mut rng)).count();
        assert!((2200..4200).contains(&sets), "sets {sets}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = DetRng::seed_from_u64(5);
        let ln = LogNormal::new(0.0, 1.0);
        for _ in 0..1000 {
            assert!(ln.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn pareto_exceeds_location() {
        let mut rng = DetRng::seed_from_u64(5);
        let gp = GeneralizedPareto::new(15.0, 214.476, 0.348);
        for _ in 0..1000 {
            assert!(gp.sample(&mut rng) >= 15.0);
        }
    }
}
