//! The sampling primitives of every simulated execution: noisy compute and
//! the fork/join transfer model.

use rand::RngExt;

use super::ForkJoinRuntime;
use crate::partition::PartitionWork;

impl ForkJoinRuntime<'_> {
    pub(super) fn sample_compute_ms<R: RngExt + ?Sized>(
        &self,
        work: &PartitionWork,
        rng: &mut R,
    ) -> f64 {
        work.flops
            .iter()
            .map(|&(class, flops)| self.platform.compute_ms_noisy(flops, class, rng))
            .sum()
    }

    /// Samples the master-side delay of exchanging one payload each with
    /// `parts` functions, `bytes` in all: the payloads serialize over the
    /// master's egress while the per-invocation jitters overlap and cost
    /// their maximum. This is *the* fork/join model, and it matches the
    /// order-statistic predictor (`CommModel::group_transfer_total_ms`) in
    /// expectation.
    pub(super) fn sample_transfer<R: RngExt + ?Sized>(
        &self,
        parts: usize,
        bytes: u64,
        rng: &mut R,
    ) -> f64 {
        let jitter_max = (0..parts)
            .map(|_| self.platform.invoke_latency_ms.sample(rng))
            .fold(0.0f64, f64::max);
        jitter_max + self.platform.transfer_ms(bytes)
    }
}
