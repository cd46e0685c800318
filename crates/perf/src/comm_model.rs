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
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &size in &sizes {
            for _ in 0..400 {
                let delay =
                    platform.invoke_latency_ms.sample(&mut rng) + platform.transfer_ms(size);
                xs.push(vec![size as f64]);
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

    /// Like [`CommModel::group_transfer_ms`] but with per-worker payload
    /// sizes (spatial partitions at the tensor border carry fewer halo rows
    /// than interior ones).
    ///
    /// # Panics
    ///
    /// Panics if `part_bytes` is empty.
    pub fn group_transfer_parts_ms(&self, part_bytes: &[u64]) -> f64 {
        assert!(
            !part_bytes.is_empty(),
            "group transfer needs at least one worker"
        );
        let total: u64 = part_bytes.iter().sum();
        self.expected_max_jitter(part_bytes.len()) + self.per_byte_ms * total as f64
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
                let parts = vec![bytes; n];
                let direct_parts =
                    m.jitter().expected_max(n) + m.per_byte_ms() * (bytes * n as u64) as f64;
                assert_eq!(
                    m.group_transfer_parts_ms(&parts).to_bits(),
                    direct_parts.to_bits()
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
}
