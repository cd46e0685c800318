//! Function communication delay model (paper §IV-A, "Function Communication
//! Delay").
//!
//! The model has two parts, both learned from profiling transfers of varying
//! sizes through REST invocations:
//!
//! - a per-byte streaming cost (the master's bandwidth share), and
//! - an exGaussian per-invocation jitter, whose `n`-th order statistic
//!   predicts the max delay of `n` concurrent worker invocations.

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;

use gillis_faas::{ExGaussian, PlatformProfile};

use crate::fit::fit_exgaussian;
use crate::regression::LinearRegression;

/// Fitted communication model.
#[derive(Debug, Clone)]
pub struct CommModel {
    jitter: ExGaussian,
    per_byte_ms: f64,
    /// `E[max of n]` for n = 1..=MAX_FANOUT_TABLE, each integrated the
    /// first time a prediction asks for it: the integration is too slow to
    /// repeat inside the DP/RL/BO loops, and a search touches only the
    /// fan-outs of its degree set — about a dozen of the 64. Clones share
    /// the table, so one model's searches warm it for all of them.
    max_table: Arc<[OnceLock<f64>]>,
}

const MAX_FANOUT_TABLE: usize = 64;

fn empty_max_table() -> Arc<[OnceLock<f64>]> {
    (0..MAX_FANOUT_TABLE).map(|_| OnceLock::new()).collect()
}

impl CommModel {
    /// Profiles the platform: transfers payloads of varying sizes, regresses
    /// delay on size to recover the per-byte cost, and fits an exGaussian to
    /// the residual jitter.
    pub fn profiled(platform: &PlatformProfile, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let sizes: [u64; 6] = [
            64 * 1024,
            256 * 1024,
            512 * 1024,
            1024 * 1024,
            2 * 1024 * 1024,
            4 * 1024 * 1024,
        ];
        const REPS: usize = 400;
        let mut xs = Vec::with_capacity(sizes.len() * REPS);
        let mut ys = Vec::with_capacity(sizes.len() * REPS);
        for &size in &sizes {
            for _ in 0..REPS {
                let delay =
                    platform.invoke_latency_ms.sample(&mut rng) + platform.transfer_ms(size);
                xs.push([size as f64]);
                ys.push(delay);
            }
        }
        let line = LinearRegression::fit(&xs, &ys).expect("delay sweep is well-posed");
        let per_byte_ms = line.coeffs[0].max(0.0);
        // Jitter = measured delay minus the size-dependent part.
        let residuals: Vec<f64> = xs
            .iter()
            .zip(ys.iter())
            .map(|(x, y)| y - per_byte_ms * x[0])
            .collect();
        let jitter = fit_exgaussian(&residuals).expect("jitter residuals fit an exGaussian");
        CommModel {
            jitter,
            per_byte_ms,
            max_table: empty_max_table(),
        }
    }

    /// Builds the exact communication model from ground-truth constants.
    pub fn analytic(platform: &PlatformProfile) -> Self {
        CommModel {
            jitter: platform.invoke_latency_ms,
            per_byte_ms: 8.0 / platform.network_bandwidth_bps * 1000.0,
            max_table: empty_max_table(),
        }
    }

    /// The fitted invocation-jitter distribution.
    pub fn jitter(&self) -> &ExGaussian {
        &self.jitter
    }

    /// `E[max of n]` of the jitter: the table entry, integrated on first
    /// use (direct integration beyond the table). Every path evaluates the
    /// same `ExGaussian::expected_max(n)`, so the value does not depend on
    /// who asked first.
    fn expected_max_jitter(&self, n: usize) -> f64 {
        match n.checked_sub(1).and_then(|k| self.max_table.get(k)) {
            Some(entry) => *entry.get_or_init(|| self.jitter.expected_max(n)),
            None => self.jitter.expected_max(n),
        }
    }

    /// How many order statistics this model (and its clones) have
    /// integrated so far.
    pub fn order_statistics_computed(&self) -> usize {
        self.max_table.iter().filter(|e| e.get().is_some()).count()
    }

    /// Fitted per-byte streaming cost in milliseconds.
    pub fn per_byte_ms(&self) -> f64 {
        self.per_byte_ms
    }

    /// Predicted mean delay of one transfer of `bytes`.
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        self.jitter.mean() + self.per_byte_ms * bytes as f64
    }

    /// Predicted delay for the master to exchange `bytes` with each of `n`
    /// workers concurrently: payload streams share the master's bandwidth
    /// (so they serialize), while invocation jitters overlap and cost the
    /// expected maximum of `n` draws — the order-statistic prediction of
    /// §IV-A.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn group_transfer_ms(&self, bytes: u64, n: usize) -> f64 {
        assert!(n > 0, "group transfer needs at least one worker");
        self.expected_max_jitter(n) + self.per_byte_ms * (bytes as f64) * n as f64
    }

    /// Like [`CommModel::group_transfer_ms`] but for `n` payloads of
    /// different sizes that sum to `total_bytes` (spatial partitions at the
    /// tensor border carry fewer halo rows than interior ones): the streams
    /// serialize, so only the sum matters.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn group_transfer_total_ms(&self, n: usize, total_bytes: u64) -> f64 {
        assert!(n > 0, "group transfer needs at least one worker");
        self.expected_max_jitter(n) + self.per_byte_ms * total_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn profiled_matches_analytic() {
        let platform = PlatformProfile::aws_lambda();
        let profiled = CommModel::profiled(&platform, 3);
        let analytic = CommModel::analytic(&platform);
        let rel_bw =
            (profiled.per_byte_ms() - analytic.per_byte_ms()).abs() / analytic.per_byte_ms();
        assert!(rel_bw < 0.05, "per-byte rel error {rel_bw}");
        for bytes in [100_000u64, 1_000_000, 4_000_000] {
            let a = analytic.transfer_ms(bytes);
            let p = profiled.transfer_ms(bytes);
            assert!((a - p).abs() / a < 0.08, "{bytes}: {p} vs {a}");
        }
    }

    #[test]
    fn order_statistic_prediction_error_is_small() {
        // Fig 15 (top right): ~6% average error predicting max-of-n delays.
        let platform = PlatformProfile::aws_lambda();
        let profiled = CommModel::profiled(&platform, 11);
        let mut rng = StdRng::seed_from_u64(99);
        let bytes = 1_000_000u64;
        let mut total_rel = 0.0;
        let ns = [1usize, 2, 4, 8, 16];
        for &n in &ns {
            // Monte-Carlo ground truth of the concurrent exchange.
            let mc: f64 = (0..2000)
                .map(|_| {
                    let jitter_max = (0..n)
                        .map(|_| platform.invoke_latency_ms.sample(&mut rng))
                        .fold(f64::NEG_INFINITY, f64::max);
                    jitter_max + platform.transfer_ms(bytes) * n as f64
                })
                .sum::<f64>()
                / 2000.0;
            let pred = profiled.group_transfer_ms(bytes, n);
            total_rel += (pred - mc).abs() / mc;
        }
        let avg_rel = total_rel / ns.len() as f64;
        assert!(avg_rel < 0.08, "average prediction error {avg_rel}");
    }

    #[test]
    fn group_transfer_monotone_in_n_and_bytes() {
        let m = CommModel::analytic(&PlatformProfile::aws_lambda());
        assert!(m.group_transfer_ms(1_000_000, 2) < m.group_transfer_ms(1_000_000, 4));
        assert!(m.group_transfer_ms(1_000_000, 4) < m.group_transfer_ms(2_000_000, 4));
        let _ = rand::rngs::StdRng::seed_from_u64(0).random::<u8>(); // keep RngExt import used
    }

    #[test]
    fn on_demand_order_statistics_are_the_direct_integrals() {
        let platform = PlatformProfile::aws_lambda();
        for m in [
            CommModel::analytic(&platform),
            CommModel::profiled(&platform, 5),
        ] {
            assert_eq!(m.order_statistics_computed(), 0, "nothing is eager");
            let bytes = 123_457u64;
            // Inside the table, at its edge, and beyond it.
            for n in (1..=MAX_FANOUT_TABLE).chain([65, 200]) {
                let direct = m.jitter().expected_max(n) + m.per_byte_ms() * bytes as f64 * n as f64;
                // First query integrates, second reads the entry.
                for _ in 0..2 {
                    assert_eq!(m.group_transfer_ms(bytes, n).to_bits(), direct.to_bits());
                }
                let direct_total =
                    m.jitter().expected_max(n) + m.per_byte_ms() * (bytes * n as u64) as f64;
                assert_eq!(
                    m.group_transfer_total_ms(n, bytes * n as u64).to_bits(),
                    direct_total.to_bits()
                );
            }
            assert_eq!(m.order_statistics_computed(), MAX_FANOUT_TABLE);
        }
    }

    #[test]
    fn clones_share_one_table() {
        let original = CommModel::analytic(&PlatformProfile::aws_lambda());
        let early_clone = original.clone();
        original.group_transfer_ms(1, 8);
        original.group_transfer_ms(1, 16);
        assert_eq!(early_clone.order_statistics_computed(), 2);
        early_clone.group_transfer_ms(1, 3);
        assert_eq!(original.order_statistics_computed(), 3);
    }

    #[test]
    fn racing_first_queries_agree() {
        let m = CommModel::analytic(&PlatformProfile::aws_lambda());
        let start = std::sync::Barrier::new(8);
        let seen: Vec<u64> = std::thread::scope(|scope| {
            let askers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        m.group_transfer_ms(0, 12).to_bits()
                    })
                })
                .collect();
            askers.into_iter().map(|a| a.join().unwrap()).collect()
        });
        assert!(seen
            .iter()
            .all(|&bits| bits == m.jitter().expected_max(12).to_bits()));
        assert_eq!(m.order_statistics_computed(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let m = CommModel::analytic(&PlatformProfile::aws_lambda());
        let _ = m.group_transfer_ms(1, 0);
    }

    /// `ExGaussian::expected_max` against slow midpoint rules: a 2^17-cell
    /// reference, and the 4,000-point rule fan-outs were priced with before
    /// the Gauss–Legendre panels. Every n from 1 to 64, on the platforms'
    /// jitters, on jitters fitted by profiling, and on a grid of exGaussians
    /// far more skewed than either.
    mod expected_max_rule {
        use super::*;

        fn platforms() -> [PlatformProfile; 3] {
            [
                PlatformProfile::aws_lambda(),
                PlatformProfile::gcf(),
                PlatformProfile::knix(),
            ]
        }

        /// `lo + ∫ (1 − F^n)` over `expected_max`'s support
        /// `[μ − 8σ, mean + sd·(10 + 3 ln n)]` by the midpoint rule on
        /// `cells` cells, each piece between two of `cuts` getting its share.
        fn midpoint(d: &ExGaussian, n: usize, cells: usize, cuts: &[f64]) -> f64 {
            let lo = d.mu - 8.0 * d.sigma;
            let hi = d.mean() + d.variance().sqrt() * (10.0 + 3.0 * (n as f64).ln());
            let mut edges: Vec<f64> = cuts.iter().copied().filter(|&c| c > lo && c < hi).collect();
            edges.extend([lo, hi]);
            edges.sort_by(f64::total_cmp);
            let mut acc = 0.0;
            for piece in edges.windows(2) {
                let share = ((piece[1] - piece[0]) / (hi - lo) * cells as f64).round();
                let dx = (piece[1] - piece[0]) / share.max(1.0);
                for i in 0..share.max(1.0) as usize {
                    let x = piece[0] + (i as f64 + 0.5) * dx;
                    acc += (1.0 - d.cdf(x).powi(n as i32)) * dx;
                }
            }
            lo + acc
        }

        /// The 2^17-cell reference. Its cells also break where `cdf` steps
        /// (u = 0 and v = 0, where the erf approximation jumps by ~1e-9, and
        /// the v = −6 branch), so a step costs it nothing either.
        fn reference(d: &ExGaussian, n: usize) -> f64 {
            let ls = d.rate * d.sigma;
            let cuts = [0.0, ls, ls - 6.0].map(|z| d.mu + z * d.sigma);
            midpoint(d, n, 1 << 17, &cuts)
        }

        fn relative(a: f64, b: f64) -> f64 {
            (a - b).abs() / b.abs()
        }

        /// Every n up to 64: within 1e-10 relative of the reference, and
        /// no smaller than at n − 1.
        fn assert_accurate_and_non_decreasing(name: &str, d: &ExGaussian) {
            let mut previous = f64::NEG_INFINITY;
            for n in 1..=MAX_FANOUT_TABLE {
                let value = d.expected_max(n);
                let error = relative(value, reference(d, n));
                assert!(
                    error <= 1e-10,
                    "{name}, n = {n}: {error:.2e} off the reference"
                );
                assert!(value >= previous, "{name}, n = {n}: {value} < {previous}");
                previous = value;
            }
        }

        /// On the fits the model prices with, the old rule (4,000 uniform
        /// cells) was already this accurate, so nothing it priced moves by
        /// more; and `expected_max(1)` is the mean less the mass the support
        /// cuts off above `hi` (~e^-11 of the exponential tail's mean).
        fn assert_old_rule_agrees(name: &str, d: &ExGaussian) {
            for n in 1..=MAX_FANOUT_TABLE {
                let error = relative(d.expected_max(n), midpoint(d, n, 4000, &[]));
                assert!(
                    error <= 1e-10,
                    "{name}, n = {n}: {error:.2e} off the old rule"
                );
            }
            let truncated = relative(d.expected_max(1), d.mean());
            assert!(
                truncated <= 1e-5,
                "{name}: E[max of 1] {truncated:.2e} off the mean"
            );
        }

        #[test]
        fn platform_jitters() {
            for platform in platforms() {
                let name = format!("{:?} jitter", platform.kind);
                assert_accurate_and_non_decreasing(&name, &platform.invoke_latency_ms);
                assert_old_rule_agrees(&name, &platform.invoke_latency_ms);
            }
        }

        #[test]
        fn profiled_fits() {
            for platform in platforms() {
                let name = format!("{:?} fit", platform.kind);
                let fit = *crate::PerfModel::profiled(&platform, 7).comm.jitter();
                assert_accurate_and_non_decreasing(&name, &fit);
                assert_old_rule_agrees(&name, &fit);
            }
        }

        /// μ = 2σ, σ from 0.02 to 3, rate from 1/20 to 5: σ = 0.02, rate =
        /// 1/20 is a near-pure exponential, and at σ = 1, rate = 5 the v = −6
        /// branch steps `cdf` by ~1e-3. The old rule is off the reference by
        /// up to 2.4e-8 here, so it is not compared.
        #[test]
        fn skewed_grid() {
            for sigma in [0.02, 0.1, 1.0, 3.0] {
                for rate in [1.0 / 20.0, 1.0 / 7.0, 5.0] {
                    let d = ExGaussian::new(2.0 * sigma, sigma, rate).unwrap();
                    let name = format!("σ = {sigma}, rate = {rate}");
                    assert_accurate_and_non_decreasing(&name, &d);
                }
            }
        }
    }
}
