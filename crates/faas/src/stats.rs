//! Scalar statistics utilities shared across the workspace: the error
//! function, normal pdf/cdf, and Box–Muller normal sampling.
//!
//! Implemented here (rather than pulling `rand_distr`/`statrs`) to keep the
//! dependency set to the sanctioned offline crates.

use rand::RngExt;

/// Error function, Abramowitz & Stegun approximation 7.1.26
/// (max absolute error ≈ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal probability density function.
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Draws a standard normal sample via Box–Muller.
pub fn sample_standard_normal<R: RngExt + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws an exponential sample with the given rate (inverse mean).
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn sample_exponential<R: RngExt + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    -u.ln() / rate
}

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample skewness (adjusted Fisher–Pearson).
pub fn skewness(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 3 {
        return 0.0;
    }
    let m = mean(xs);
    let s = variance(xs).sqrt();
    if s == 0.0 {
        return 0.0;
    }
    let n_f = n as f64;
    let m3 = xs.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>();
    m3 * n_f / ((n_f - 1.0) * (n_f - 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!((normal_pdf(0.0) - 0.3989422804).abs() < 1e-9);
    }

    #[test]
    fn box_muller_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| sample_standard_normal(&mut rng))
            .collect();
        assert!(mean(&xs).abs() < 0.03, "mean {}", mean(&xs));
        assert!((variance(&xs) - 1.0).abs() < 0.05, "var {}", variance(&xs));
        assert!(skewness(&xs).abs() < 0.06, "skew {}", skewness(&xs));
    }

    #[test]
    fn exponential_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let rate = 0.25;
        let xs: Vec<f64> = (0..20_000)
            .map(|_| sample_exponential(&mut rng, rate))
            .collect();
        assert!((mean(&xs) - 4.0).abs() < 0.15, "mean {}", mean(&xs));
        // Exponential skewness is 2.
        assert!((skewness(&xs) - 2.0).abs() < 0.3, "skew {}", skewness(&xs));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = sample_exponential(&mut rng, 0.0);
    }

    #[test]
    fn descriptive_stats_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(skewness(&[1.0, 2.0]), 0.0);
        assert_eq!(skewness(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }
}
