//! The exponentially-modified Gaussian (exGaussian) distribution.
//!
//! The paper's measurements show function communication delays in AWS Lambda
//! follow an exGaussian (§IV-A); the performance model predicts the maximum
//! delay of `n` concurrent invocations with the `n`-th order statistic of the
//! fitted distribution. This module provides sampling, density/CDF, moments,
//! and a numerical expected-maximum.

use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::error::FaasError;
use crate::stats::{normal_cdf, sample_exponential, sample_standard_normal};
use crate::Result;

/// ExGaussian distribution: `Normal(mu, sigma) + Exp(rate)`, all in the same
/// unit (the simulator uses milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExGaussian {
    /// Gaussian mean.
    pub mu: f64,
    /// Gaussian standard deviation.
    pub sigma: f64,
    /// Exponential rate (inverse of the exponential tail's mean).
    pub rate: f64,
}

impl ExGaussian {
    /// Creates an exGaussian, validating its parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] unless `sigma > 0` and
    /// `rate > 0`.
    pub fn new(mu: f64, sigma: f64, rate: f64) -> Result<Self> {
        if sigma <= 0.0 || sigma.is_nan() || rate <= 0.0 || rate.is_nan() || !mu.is_finite() {
            return Err(FaasError::InvalidArgument(format!(
                "exgaussian needs sigma > 0 and rate > 0, got mu={mu}, sigma={sigma}, rate={rate}"
            )));
        }
        Ok(ExGaussian { mu, sigma, rate })
    }

    /// Distribution mean: `mu + 1/rate`.
    pub fn mean(&self) -> f64 {
        self.mu + 1.0 / self.rate
    }

    /// Distribution variance: `sigma^2 + 1/rate^2`.
    pub fn variance(&self) -> f64 {
        self.sigma * self.sigma + 1.0 / (self.rate * self.rate)
    }

    /// Distribution skewness.
    pub fn skewness(&self) -> f64 {
        let tau = 1.0 / self.rate;
        2.0 * tau.powi(3) / self.variance().powf(1.5)
    }

    /// Draws one sample.
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mu + self.sigma * sample_standard_normal(rng) + sample_exponential(rng, self.rate)
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        let u = (x - self.mu) / self.sigma;
        let ls = self.rate * self.sigma;
        // F(x) = Phi(u) - exp(-rate (x - mu) + (rate sigma)^2 / 2) Phi(u - ls)
        let v = u - ls;
        let exponent = -self.rate * (x - self.mu) + 0.5 * ls * ls;
        let correction = if v < -6.0 {
            // The exponential amplifies Phi(v)'s absolute error
            // catastrophically when ls is large. In log space with the
            // Mills-ratio asymptotic Phi(v) ~ phi(v)/(-v), the product
            // collapses algebraically: exp(exponent) * phi(v) = phi(u), so
            // exp(exponent) * Phi(v) ~ phi(u)/(-v) — stable and monotone.
            crate::stats::normal_pdf(u) / (-v)
        } else if exponent > 700.0 {
            // Far left tail with moderate v: the CDF is 0 to double
            // precision.
            return 0.0;
        } else {
            exponent.exp() * normal_cdf(v)
        };
        (normal_cdf(u) - correction).clamp(0.0, 1.0)
    }

    /// Approximate upper quantile at probability `p` (e.g. `0.95`):
    /// `mu + sigma * z_p + (-ln(1 - p)) / rate`, the Gaussian quantile plus
    /// the exponential tail's quantile. The sum of component quantiles
    /// slightly over-estimates the true quantile, which is the conservative
    /// direction for deriving timeouts and hedge delays.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `(0, 1)`.
    pub fn upper_quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0, 1)");
        // Acklam-style rational approximation of the standard normal
        // quantile, accurate to ~1e-9 over (0, 1).
        let z = {
            let (a, b) = if p < 0.5 { (p, -1.0) } else { (1.0 - p, 1.0) };
            let t = (-2.0 * a.ln()).sqrt();
            b * (t
                - (2.515517 + 0.802853 * t + 0.010328 * t * t)
                    / (1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t * t * t))
        };
        self.mu + self.sigma * z + (-(1.0 - p).ln()) / self.rate
    }

    /// Expected maximum of `n` i.i.d. draws (the `n`-th order statistic's
    /// mean), `E[max] = lo + ∫ (1 − F(x)^n) dx` over a generous support
    /// `[lo, hi]`: the quantity the paper's performance model uses to
    /// predict the fork latency of `n` concurrent worker invocations.
    ///
    /// The rule is 32-point Gauss–Legendre on 12 panels, 384 CDF
    /// evaluations: the core `[μ − 8σ, μ + 8σ]` in quarters, cut again where
    /// [`ExGaussian::cdf`] steps inside it (at `v = 0`, where the erf
    /// approximation jumps by ~1e-9, and at the `v = −6` branch), then the
    /// tail up to `hi` in equal panels, as many as the core left. For every
    /// `n` up to 64 it is within 1e-10 relative of a 2^17-cell midpoint rule,
    /// on exGaussians as skewed as `σ = 0.02, rate = 1/20` too.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn expected_max(&self, n: usize) -> f64 {
        self.integrate_max(n, |x| self.cdf(x))
    }

    /// [`ExGaussian::expected_max`] over a given CDF (the tests count its
    /// evaluations).
    fn integrate_max(&self, n: usize, mut cdf: impl FnMut(f64) -> f64) -> f64 {
        const PANELS: usize = 12;
        assert!(n > 0, "expected_max of zero samples");
        // Support comfortably covering the max of n draws; hi > μ + 10σ.
        let lo = self.mu - 8.0 * self.sigma;
        let hi = self.mean() + self.variance().sqrt() * (10.0 + 3.0 * (n as f64).ln());
        let ls = self.rate * self.sigma;
        let (mut edges, mut core) = ([hi; PANELS + 1], 0);
        for z in [-8.0, -4.0, 0.0, 4.0, ls, ls - 6.0] {
            if z < 8.0 {
                edges[core] = self.mu + z * self.sigma;
                core += 1;
            }
        }
        edges[..core].sort_by(f64::total_cmp);
        let (mid, tail) = (self.mu + 8.0 * self.sigma, PANELS - core);
        for k in 0..tail {
            edges[core + k] = mid + (hi - mid) * k as f64 / tail as f64;
        }
        // P(max > x); the max is below lo with negligible probability.
        let mut survival = |x: f64| 1.0 - cdf(x).powi(n as i32);
        let mut acc = lo;
        for panel in edges.windows(2) {
            let (half, centre) = (0.5 * (panel[1] - panel[0]), 0.5 * (panel[0] + panel[1]));
            let mut sum = 0.0;
            for &(x, w) in &GAUSS_LEGENDRE_32 {
                sum += w * (survival(centre - half * x) + survival(centre + half * x));
            }
            acc += half * sum;
        }
        acc
    }
}

/// The 32-point Gauss–Legendre rule on `[-1, 1]` as 16 pairs `(±x, w)`: the
/// roots of P₃₂ by Newton iteration from `cos(π(i + 3/4) / 32.5)` and
/// `w = 2 / ((1 − x²) P₃₂′(x)²)`, rebuilt bit for bit by a test.
const GAUSS_LEGENDRE_32: [(f64, f64); 16] = [
    (0.9972638618494816, 0.007018610009470136),
    (0.9856115115452684, 0.01627439473090571),
    (0.9647622555875064, 0.02539206530926214),
    (0.9349060759377397, 0.03427386291302141),
    (0.8963211557660521, 0.042835898022226704),
    (0.84936761373257, 0.050998059262376154),
    (0.7944837959679424, 0.05868409347853558),
    (0.7321821187402897, 0.06582222277636195),
    (0.6630442669302152, 0.07234579410884862),
    (0.5877157572407623, 0.07819389578707044),
    (0.5068999089322294, 0.08331192422694672),
    (0.42135127613063533, 0.08765209300440374),
    (0.33186860228212767, 0.0911738786957639),
    (0.23928736225213706, 0.09384439908080454),
    (0.1444719615827965, 0.09563872007927485),
    (0.0483076656877383, 0.09654008851472785),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean as smean, skewness as sskew, variance as svar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dist() -> ExGaussian {
        ExGaussian::new(5.0, 1.5, 1.0 / 7.0).unwrap()
    }

    #[test]
    fn constructor_validates() {
        assert!(ExGaussian::new(1.0, 0.0, 1.0).is_err());
        assert!(ExGaussian::new(1.0, 1.0, 0.0).is_err());
        assert!(ExGaussian::new(f64::NAN, 1.0, 1.0).is_err());
        assert!(ExGaussian::new(0.0, 0.1, 10.0).is_ok());
    }

    #[test]
    fn analytic_moments() {
        let d = dist();
        assert!((d.mean() - 12.0).abs() < 1e-9);
        assert!((d.variance() - (2.25 + 49.0)).abs() < 1e-9);
        assert!(d.skewness() > 0.0);
    }

    #[test]
    fn sample_moments_match_analytic() {
        let d = dist();
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..30_000).map(|_| d.sample(&mut rng)).collect();
        assert!((smean(&xs) - d.mean()).abs() / d.mean() < 0.02);
        assert!((svar(&xs) - d.variance()).abs() / d.variance() < 0.06);
        assert!((sskew(&xs) - d.skewness()).abs() < 0.15);
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let d = dist();
        let mut prev = 0.0;
        for i in 0..200 {
            let x = -20.0 + i as f64 * 0.5;
            let f = d.cdf(x);
            assert!(f >= prev - 1e-12, "cdf not monotone at {x}");
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        assert!(d.cdf(-100.0) < 1e-9);
        assert!(d.cdf(500.0) > 1.0 - 1e-9);
    }

    #[test]
    fn cdf_median_brackets_mean_for_skewed_dist() {
        let d = dist();
        // Positively skewed: median < mean.
        assert!(d.cdf(d.mean()) > 0.5);
    }

    #[test]
    fn upper_quantile_is_conservative_and_monotone() {
        let d = dist();
        let mut prev = f64::NEG_INFINITY;
        for p in [0.9, 0.95, 0.99] {
            let q = d.upper_quantile(p);
            assert!(q > prev);
            prev = q;
            // Component-quantile sum over-estimates: at least p of the mass
            // lies below it (small slack for the normal-quantile approx).
            assert!(d.cdf(q) >= p - 0.005, "p={p}: cdf({q}) = {}", d.cdf(q));
        }
        // Not wildly conservative at p95.
        assert!(d.cdf(d.upper_quantile(0.95)) < 0.999);
    }

    #[test]
    fn expected_max_is_monotone_in_n() {
        let d = dist();
        let m1 = d.expected_max(1);
        let m2 = d.expected_max(2);
        let m8 = d.expected_max(8);
        let m16 = d.expected_max(16);
        assert!((m1 - d.mean()).abs() / d.mean() < 0.02, "E[max_1] = {m1}");
        assert!(m1 < m2 && m2 < m8 && m8 < m16);
    }

    #[test]
    fn gauss_legendre_table_is_regenerated_by_newton() {
        // P₃₂(x) and P₃₂′(x) by the three-term recurrence.
        let legendre = |x: f64| {
            let (mut p0, mut p1) = (1.0, x);
            for k in 2..=32 {
                let k = k as f64;
                (p0, p1) = (p1, ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k);
            }
            (p1, 32.0 * (x * p1 - p0) / (x * x - 1.0))
        };
        for (i, &(x_table, w_table)) in GAUSS_LEGENDRE_32.iter().enumerate() {
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / 32.5).cos();
            for _ in 0..100 {
                let (p, dp) = legendre(x);
                let next = x - p / dp;
                if next == x {
                    break;
                }
                x = next;
            }
            let dp = legendre(x).1;
            let w = 2.0 / ((1.0 - x * x) * dp * dp);
            assert_eq!(x.to_bits(), x_table.to_bits(), "node {i}");
            assert_eq!(w.to_bits(), w_table.to_bits(), "weight {i}");
        }
        // The rule integrates x^62 exactly (degree 2·32 − 1 = 63).
        let even: f64 = GAUSS_LEGENDRE_32
            .iter()
            .map(|&(x, w)| 2.0 * w * x.powi(62))
            .sum();
        assert!((even - 2.0 / 63.0).abs() < 1e-15, "{even}");
    }

    #[test]
    fn a_statistic_costs_384_cdf_evaluations() {
        const CDF_EVALUATIONS: usize = 384;
        // ls = rate·σ: both breakpoints in the core, one, and neither.
        for rate in [1.0 / 7.0, 9.0 / 1.5, 20.0 / 1.5] {
            let d = ExGaussian::new(5.0, 1.5, rate).unwrap();
            for n in [1, 12, 64] {
                let mut evaluations = 0;
                let counted = d.integrate_max(n, |x| {
                    evaluations += 1;
                    d.cdf(x)
                });
                assert_eq!(evaluations, CDF_EVALUATIONS);
                assert_eq!(counted.to_bits(), d.expected_max(n).to_bits());
            }
        }
    }

    #[test]
    fn expected_max_matches_monte_carlo() {
        let d = dist();
        let mut rng = StdRng::seed_from_u64(9);
        for n in [2usize, 4, 8, 16] {
            let mc: f64 = (0..4000)
                .map(|_| {
                    (0..n)
                        .map(|_| d.sample(&mut rng))
                        .fold(f64::NEG_INFINITY, f64::max)
                })
                .sum::<f64>()
                / 4000.0;
            let analytic = d.expected_max(n);
            let rel = (analytic - mc).abs() / mc;
            assert!(rel < 0.05, "n={n}: analytic {analytic:.2} vs mc {mc:.2}");
        }
    }
}
