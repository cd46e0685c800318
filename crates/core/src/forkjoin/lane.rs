//! Sampling primitives shared by every simulated path: noisy compute, the
//! fork/join transfer model, and one worker-lane execution with its fault.

use rand::RngExt;

use gillis_faas::chaos::{Fault, FaultSite, ResilienceCounters};

use super::ForkJoinRuntime;
use crate::partition::PartitionWork;

/// One worker-lane execution as observed by the master: sampled noise plus
/// any injected fault, capped by the per-attempt timeout.
#[derive(Debug, Clone, Copy)]
pub(super) struct LaneExec {
    /// Invocation jitter before work starts (zero when the fork transfer
    /// already covered it).
    pub jitter_ms: f64,
    /// Master-observed time from work start to resolution: full compute,
    /// partial compute for a crash, zero for an invocation failure, or the
    /// timeout cap when the master abandons the lane.
    pub run_ms: f64,
    /// Worker-side busy time to bill — never capped by the abandon, the
    /// function keeps running.
    pub billed_ms: f64,
    /// The lane produced a usable result.
    pub success: bool,
    /// The master abandoned the lane at its timeout.
    pub timed_out: bool,
    /// The lane returned a payload whose checksum failed at the join: the
    /// master received it (not a timeout) but must discard it.
    pub corrupt: bool,
}

impl LaneExec {
    /// Counts this launched execution into `counters`.
    pub fn count_into(&self, counters: &mut ResilienceCounters) {
        counters.worker_invocations += 1;
        if self.timed_out {
            counters.timeouts += 1;
        }
        if self.corrupt {
            counters.corruptions_detected += 1;
        }
    }
}

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

    /// Samples the master-side delay of exchanging one payload per part with
    /// `sizes.len()` functions: payload streams serialize over the master's
    /// egress (one transfer of the total bytes) while the per-invocation
    /// jitters overlap and cost their maximum. This is *the* fork/join
    /// model — [`ForkJoinRuntime::simulate_query`] and the fleet path
    /// ([`ForkJoinRuntime::run_query_at`] / workload serving) both sample
    /// it, so single-query simulation and fleet serving agree by
    /// construction, and both match the order-statistic predictor
    /// (`CommModel::group_transfer_total_ms`) in expectation.
    pub(super) fn sample_transfer_parts<R: RngExt + ?Sized>(
        &self,
        sizes: &[u64],
        rng: &mut R,
    ) -> f64 {
        let total: u64 = sizes.iter().sum();
        let jitter_max = (0..sizes.len())
            .map(|_| self.platform.invoke_latency_ms.sample(rng))
            .fold(0.0f64, f64::max);
        jitter_max + self.platform.transfer_ms(total)
    }

    /// Samples one worker-lane execution: invocation jitter (unless the fork
    /// transfer covered it — true of a lane's first primary attempt only),
    /// noisy compute, the injected fault at `site`, and the per-attempt
    /// timeout cap. Every simulated path runs every lane through this — the
    /// single shared failure model.
    pub(super) fn sample_lane<R: RngExt + ?Sized>(
        &self,
        site: FaultSite,
        work: &PartitionWork,
        timeout_ms: f64,
        now_ms: f64,
        rng: &mut R,
    ) -> LaneExec {
        let jitter_ms = if site.attempt == 0 && site.lane == 0 {
            0.0
        } else {
            self.platform.invoke_latency_ms.sample(rng)
        };
        let compute_ms = self.sample_compute_ms(work, rng);
        // Outage episodes covering this instant multiply the fault rates:
        // the product of every active enabled domain's severity.
        let tier_mb = self.platform.instance_memory_bytes / 1_000_000;
        let mult = self.outage.as_ref().map_or(1.0, |o| {
            o.multiplier(site.group, site.part, tier_mb, now_ms)
        });
        let fault = self
            .injector
            .as_ref()
            .and_then(|inj| inj.fault_scaled(site, mult));
        let (natural_ms, ok) = match fault {
            None => (compute_ms, true),
            // Fails right after the invocation round-trip.
            Some(Fault::InvokeFailure) => (0.0, false),
            Some(Fault::Crash { work_done }) => (work_done * compute_ms, false),
            Some(Fault::Straggler { slowdown }) => (slowdown * compute_ms, true),
            // Full compute, but the master rejects the response at the join.
            Some(Fault::Corrupt) => (compute_ms, false),
        };
        if jitter_ms + natural_ms > timeout_ms {
            LaneExec {
                jitter_ms,
                run_ms: (timeout_ms - jitter_ms).max(0.0),
                billed_ms: natural_ms,
                success: false,
                corrupt: false,
                timed_out: true,
            }
        } else {
            LaneExec {
                jitter_ms,
                run_ms: natural_ms,
                billed_ms: natural_ms,
                success: ok,
                // A corrupted payload only reaches the join if the master
                // actually waited for it.
                corrupt: matches!(fault, Some(Fault::Corrupt)),
                timed_out: false,
            }
        }
    }
}
