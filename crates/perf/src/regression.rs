//! Ordinary least squares via normal equations (small feature counts).

use serde::{Deserialize, Serialize};

use crate::error::PerfError;
use crate::Result;

/// A fitted linear model `y = intercept + coeffs · x`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRegression {
    /// Feature coefficients.
    pub coeffs: Vec<f64>,
    /// Intercept term.
    pub intercept: f64,
}

impl LinearRegression {
    /// Fits by ordinary least squares.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::InsufficientData`] when there are fewer samples
    /// than parameters (or inconsistent feature lengths), and
    /// [`PerfError::SingularSystem`] for degenerate designs.
    pub fn fit<X: AsRef<[f64]>>(xs: &[X], ys: &[f64]) -> Result<Self> {
        Self::fit_weighted(xs, ys, None)
    }

    /// Fits by weighted least squares. With `weights = 1/y²` this minimizes
    /// *relative* residuals — appropriate when samples span several orders
    /// of magnitude, as layer-runtime profiling sweeps do.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LinearRegression::fit`]; additionally rejects a
    /// weight vector whose length differs from the sample count.
    pub fn fit_weighted<X: AsRef<[f64]>>(
        xs: &[X],
        ys: &[f64],
        weights: Option<&[f64]>,
    ) -> Result<Self> {
        let n = xs.len();
        if n == 0 || n != ys.len() {
            return Err(PerfError::InsufficientData(format!(
                "{} samples vs {} targets",
                n,
                ys.len()
            )));
        }
        if let Some(w) = weights {
            if w.len() != n {
                return Err(PerfError::InsufficientData(format!(
                    "{} weights for {n} samples",
                    w.len()
                )));
            }
        }
        let d = xs[0].as_ref().len();
        if xs.iter().any(|x| x.as_ref().len() != d) {
            return Err(PerfError::InsufficientData(
                "inconsistent feature lengths".into(),
            ));
        }
        let p = d + 1; // + intercept
        if n < p {
            return Err(PerfError::InsufficientData(format!(
                "{n} samples for {p} parameters"
            )));
        }
        // Build X^T X (p x p) and X^T y (p) with an implicit leading 1.
        let mut xtx = vec![vec![0.0; p]; p];
        let mut xty = vec![0.0; p];
        for (k, (x, &y)) in xs.iter().zip(ys.iter()).enumerate() {
            let w = weights.map(|w| w[k]).unwrap_or(1.0);
            let row = |i: usize| if i == 0 { 1.0 } else { x.as_ref()[i - 1] };
            for (i, (xty, xtx)) in xty.iter_mut().zip(&mut xtx).enumerate() {
                *xty += w * row(i) * y;
                for (j, a) in xtx.iter_mut().enumerate() {
                    *a += w * row(i) * row(j);
                }
            }
        }
        let sol = solve_spd(&mut xtx, &mut xty)?;
        Ok(LinearRegression {
            intercept: sol[0],
            coeffs: sol[1..].to_vec(),
        })
    }

    /// Predicts `y` for features `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coeffs.len(), "feature count mismatch");
        self.intercept
            + self
                .coeffs
                .iter()
                .zip(x.iter())
                .map(|(c, v)| c * v)
                .sum::<f64>()
    }

    /// Coefficient of determination on a dataset: the tests' measure of a
    /// fit.
    #[cfg(test)]
    fn r_squared(&self, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
        if ys.is_empty() {
            return 0.0;
        }
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean) * (y - mean)).sum();
        let ss_res: f64 = xs
            .iter()
            .zip(ys.iter())
            .map(|(x, y)| {
                let e = y - self.predict(x);
                e * e
            })
            .sum();
        if ss_tot == 0.0 {
            if ss_res == 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            1.0 - ss_res / ss_tot
        }
    }
}

/// Solves a symmetric positive-definite system in place by Cholesky
/// decomposition. Also used by the Gaussian-process baseline.
///
/// # Errors
///
/// Returns [`PerfError::SingularSystem`] when the matrix is not (numerically)
/// positive definite.
pub fn solve_spd(a: &mut [Vec<f64>], b: &mut [f64]) -> Result<Vec<f64>> {
    let n = b.len();
    // Cholesky: A = L L^T, stored in the lower triangle of `a`.
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i][j];
            for (aik, ajk) in a[i][..j].iter().zip(&a[j][..j]) {
                sum -= aik * ajk;
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(PerfError::SingularSystem);
                }
                a[i][j] = sum.sqrt();
            } else {
                a[i][j] = sum / a[j][j];
            }
        }
    }
    // Forward solve L z = b.
    for i in 0..n {
        for k in 0..i {
            b[i] -= a[i][k] * b[k];
        }
        b[i] /= a[i][i];
    }
    // Back solve L^T x = z.
    for i in (0..n).rev() {
        for k in i + 1..n {
            b[i] -= a[k][i] * b[k];
        }
        b[i] /= a[i][i];
    }
    Ok(b.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_linear_data() {
        // y = 3 + 2 x0 - x1
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x[0] - x[1]).collect();
        let model = LinearRegression::fit(&xs, &ys).unwrap();
        assert!((model.intercept - 3.0).abs() < 1e-8);
        assert!((model.coeffs[0] - 2.0).abs() < 1e-8);
        assert!((model.coeffs[1] + 1.0).abs() < 1e-8);
        assert!(model.r_squared(&xs, &ys) > 0.999999);
    }

    #[test]
    fn fits_noisy_data_approximately() {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 5.0 + 0.5 * x[0] + if i % 2 == 0 { 0.3 } else { -0.3 })
            .collect();
        let model = LinearRegression::fit(&xs, &ys).unwrap();
        assert!((model.coeffs[0] - 0.5).abs() < 0.01);
        assert!((model.intercept - 5.0).abs() < 0.5);
        assert!(model.r_squared(&xs, &ys) > 0.99);
    }

    #[test]
    fn rejects_underdetermined_and_singular() {
        assert!(LinearRegression::fit::<[f64; 1]>(&[], &[]).is_err());
        assert!(LinearRegression::fit(&[vec![1.0, 2.0]], &[1.0]).is_err());
        // Duplicate feature column -> singular.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert!(matches!(
            LinearRegression::fit(&xs, &ys),
            Err(PerfError::SingularSystem)
        ));
        // Mismatched lengths.
        assert!(LinearRegression::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_spd_known_system() {
        // A = [[4, 2], [2, 3]], b = [10, 8] -> x = [1.75, 1.5]
        let mut a = vec![vec![4.0, 2.0], vec![2.0, 3.0]];
        let mut b = vec![10.0, 8.0];
        let x = solve_spd(&mut a, &mut b).unwrap();
        assert!((x[0] - 1.75).abs() < 1e-12);
        assert!((x[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_validates_arity() {
        let model = LinearRegression {
            coeffs: vec![1.0],
            intercept: 0.0,
        };
        let _ = model.predict(&[1.0, 2.0]);
    }
}
