//! Gaussian-process regression with an RBF kernel.

use gillis_core::CoreError;

use crate::Result;

/// Observation noise variance [`Gp::fit_auto`] adds to the kernel diagonal.
const NOISE_VAR: f64 = 1e-3;

/// GP hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GpConfig {
    /// RBF length scale.
    length_scale: f64,
    /// Signal variance (kernel amplitude).
    signal_var: f64,
    /// Observation noise variance (added to the kernel diagonal).
    noise_var: f64,
}

/// A fitted Gaussian process over standardized targets.
#[derive(Debug, Clone)]
pub struct Gp {
    config: GpConfig,
    xs: Vec<Vec<f64>>,
    /// Cholesky factor L of (K + noise I), lower-triangular, row-major.
    chol: Vec<Vec<f64>>,
    /// alpha = (K + noise I)^-1 y (on standardized y).
    alpha: Vec<f64>,
    /// yᵀα on the standardized targets: the data-fit term of the log
    /// marginal likelihood.
    y_alpha: f64,
    y_mean: f64,
    y_std: f64,
}

fn rbf(a: &[f64], b: &[f64], config: &GpConfig) -> f64 {
    let d2: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
    config.signal_var * (-0.5 * d2 / (config.length_scale * config.length_scale)).exp()
}

impl Gp {
    /// Fits the GP to observations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for empty or mismatched data
    /// and for numerically non-positive-definite kernels.
    fn fit(xs: Vec<Vec<f64>>, ys: &[f64], config: GpConfig) -> Result<Gp> {
        let n = xs.len();
        if n == 0 || n != ys.len() {
            return Err(CoreError::InvalidArgument(format!(
                "gp needs matching non-empty data: {n} xs vs {} ys",
                ys.len()
            )));
        }
        let y_mean = ys.iter().sum::<f64>() / n as f64;
        let y_var = ys.iter().map(|y| (y - y_mean) * (y - y_mean)).sum::<f64>() / n as f64;
        let y_std = y_var.sqrt().max(1e-9);
        let ys_std: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_std).collect();

        // K + noise I.
        let mut k = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let v = rbf(&xs[i], &xs[j], &config);
                k[i][j] = v;
                k[j][i] = v;
            }
            k[i][i] += config.noise_var;
        }
        // Cholesky.
        let mut chol = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = k[i][j];
                for (cit, cjt) in chol[i][..j].iter().zip(&chol[j][..j]) {
                    sum -= cit * cjt;
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(CoreError::InvalidArgument(
                            "kernel matrix not positive definite".into(),
                        ));
                    }
                    chol[i][j] = sum.sqrt();
                } else {
                    chol[i][j] = sum / chol[j][j];
                }
            }
        }
        // alpha = L^-T L^-1 y.
        let mut alpha = ys_std.clone();
        for i in 0..n {
            for t in 0..i {
                alpha[i] -= chol[i][t] * alpha[t];
            }
            alpha[i] /= chol[i][i];
        }
        for i in (0..n).rev() {
            for t in i + 1..n {
                alpha[i] -= chol[t][i] * alpha[t];
            }
            alpha[i] /= chol[i][i];
        }
        let y_alpha = ys_std.iter().zip(&alpha).map(|(y, a)| y * a).sum();
        Ok(Gp {
            config,
            xs,
            chol,
            alpha,
            y_alpha,
            y_mean,
            y_std,
        })
    }

    /// Posterior mean and variance at `x` (in original target units).
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        let n = self.xs.len();
        let kstar: Vec<f64> = self.xs.iter().map(|xi| rbf(xi, x, &self.config)).collect();
        let mean_std: f64 = kstar
            .iter()
            .zip(self.alpha.iter())
            .map(|(k, a)| k * a)
            .sum();
        // v = L^-1 k*; var = k(x,x) - v.v
        let mut v = kstar;
        for i in 0..n {
            for t in 0..i {
                v[i] -= self.chol[i][t] * v[t];
            }
            v[i] /= self.chol[i][i];
        }
        let kxx = self.config.signal_var;
        let var_std = (kxx - v.iter().map(|x| x * x).sum::<f64>()).max(1e-12);
        (
            mean_std * self.y_std + self.y_mean,
            var_std * self.y_std * self.y_std,
        )
    }
}

impl Gp {
    /// Log marginal likelihood of the fitted GP (up to a constant), on the
    /// standardized targets: `-0.5 yᵀα − Σ log L_ii`.
    pub fn log_marginal_likelihood(&self) -> f64 {
        // log p(y) = -0.5 yᵀα − Σ log Lᵢᵢ − n/2 log 2π.
        let n = self.xs.len();
        let logdet: f64 = (0..n).map(|i| self.chol[i][i].ln()).sum();
        -0.5 * self.y_alpha - logdet - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    }

    /// Fits the GP with the length scale chosen by maximizing the log
    /// marginal likelihood over a small grid — Cherrypick-style automatic
    /// hyper-parameter selection — at unit signal variance and
    /// [`NOISE_VAR`] observation noise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for empty or mismatched data,
    /// or when no grid point gives a positive-definite kernel.
    pub fn fit_auto(xs: Vec<Vec<f64>>, ys: &[f64]) -> Result<Gp> {
        let mut best: Option<(f64, Gp)> = None;
        for ls in [0.3, 0.7, 1.0, 1.5, 2.5, 4.0] {
            let config = GpConfig {
                length_scale: ls,
                signal_var: 1.0,
                noise_var: NOISE_VAR,
            };
            if let Ok(gp) = Gp::fit(xs.clone(), ys, config) {
                let lml = gp.log_marginal_likelihood();
                if best.as_ref().map(|(b, _)| lml > *b).unwrap_or(true) {
                    best = Some((lml, gp));
                }
            }
        }
        best.map(|(_, gp)| gp).ok_or_else(|| {
            gillis_core::CoreError::InvalidArgument(
                "no GP hyper-parameter setting produced a valid fit".into(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFAULT: GpConfig = GpConfig {
        length_scale: 1.0,
        signal_var: 1.0,
        noise_var: 1e-4,
    };

    #[test]
    fn interpolates_training_points() {
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 0.5]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 1.7).sin() * 10.0 + 5.0).collect();
        let gp = Gp::fit(xs.clone(), &ys, DEFAULT).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            let (mean, var) = gp.predict(x);
            assert!((mean - y).abs() < 0.1, "at {x:?}: {mean} vs {y}");
            assert!(var < 0.1, "training-point variance {var}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = [0.0, 1.0];
        let gp = Gp::fit(xs, &ys, DEFAULT).unwrap();
        let (_, var_near) = gp.predict(&[0.5]);
        let (_, var_far) = gp.predict(&[10.0]);
        assert!(var_far > var_near);
        // Far from data the mean reverts toward the prior (training mean).
        let (mean_far, _) = gp.predict(&[100.0]);
        assert!((mean_far - 0.5).abs() < 0.05);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Gp::fit(vec![], &[], DEFAULT).is_err());
        assert!(Gp::fit(vec![vec![0.0]], &[1.0, 2.0], DEFAULT).is_err());
    }

    #[test]
    fn marginal_likelihood_prefers_matching_length_scale() {
        // Data generated from a smooth function: a reasonable length scale
        // should beat an absurdly small one.
        let xs: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 * 0.4]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() * 3.0).collect();
        let smooth = Gp::fit(xs.clone(), &ys, DEFAULT).unwrap();
        let jagged = Gp::fit(
            xs,
            &ys,
            GpConfig {
                length_scale: 0.01,
                ..DEFAULT
            },
        )
        .unwrap();
        assert!(smooth.log_marginal_likelihood() > jagged.log_marginal_likelihood());
    }

    #[test]
    fn fit_auto_generalizes_better_than_worst_grid_point() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.3]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 0.9).cos() * 5.0 + 1.0).collect();
        let auto = Gp::fit_auto(xs.clone(), &ys).unwrap();
        // Held-out point between training samples.
        let x_test = vec![1.05];
        let truth = (1.05f64 * 0.9).cos() * 5.0 + 1.0;
        let (mean, _) = auto.predict(&x_test);
        assert!((mean - truth).abs() < 0.5, "auto mean {mean} vs {truth}");
    }

    #[test]
    fn duplicate_points_survive_via_noise() {
        // Exact duplicates make K singular without the noise jitter.
        let xs = vec![vec![1.0], vec![1.0], vec![2.0]];
        let ys = [3.0, 3.1, 5.0];
        let gp = Gp::fit(xs, &ys, DEFAULT).unwrap();
        let (mean, _) = gp.predict(&[1.0]);
        assert!((mean - 3.05).abs() < 0.2);
    }
}
