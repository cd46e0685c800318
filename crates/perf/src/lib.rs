//! The Gillis performance model (paper §IV-A).
//!
//! Gillis predicts the latency and cost of candidate parallelization schemes
//! from two profiled components:
//!
//! 1. **Model runtime** — for each layer type, layer executions are profiled
//!    in a single function and a regression model is fitted
//!    ([`layer_model::LayerRuntimeModel`]). A DNN's runtime is the sum of its
//!    predicted layer times.
//! 2. **Function communication delay** — transfer delays are profiled across
//!    payload sizes; the jitter follows an exponentially-modified Gaussian,
//!    and the fork delay of `n` concurrent workers is predicted with the
//!    `n`-th order statistic ([`comm_model::CommModel`]).
//!
//! [`PerfModel`] bundles both and is what the partitioning algorithms (DP,
//! RL, BO) consult. [`PerfModel::profiled`] runs the actual profiling
//! workflow against the simulator's ground truth — prediction error is
//! evaluated in the Fig 15 reproduction; [`PerfModel::analytic`] short-cuts
//! to the exact ground-truth surface for tests.

pub mod comm_model;
pub mod error;
pub mod fit;
pub mod layer_model;
pub mod regression;

pub use comm_model::CommModel;
pub use error::PerfError;
pub use layer_model::{class_of_op, eff_class_of_layer, flops_by_class, LayerRuntimeModel};
pub use regression::LinearRegression;

use gillis_faas::compute::EffClass;
use gillis_faas::PlatformProfile;

/// Convenient result alias for fallible performance-model operations.
pub type Result<T> = std::result::Result<T, PerfError>;

/// On-wire encoding of tensor payloads between master and workers.
///
/// The planner prices transfers through [`PerfModel::wire_bytes`], so
/// switching the deployment to the int8 wire shrinks every fork/join payload
/// ~4× and lets the DP/RL/BO searches trade differently between compute
/// splits and communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferFormat {
    /// Raw little-endian `f32` tensors (exact).
    #[default]
    F32,
    /// Per-payload symmetric int8: one `i8` per element, `round(v / s)` for
    /// `s = max|v| / 127`, plus `s` as a 4-byte `f32` header. A price the
    /// planner and the simulator charge; the real-tensor path ships `f32`.
    Int8,
}

impl TransferFormat {
    /// Bytes on the wire for a raw `f32` payload of `raw_bytes`.
    pub fn wire_bytes(self, raw_bytes: u64) -> u64 {
        match self {
            TransferFormat::F32 => raw_bytes,
            // One i8 per f32 element, plus the f32 scale header.
            TransferFormat::Int8 => raw_bytes.div_ceil(4) + 4,
        }
    }
}

/// The complete performance model for one platform.
#[derive(Debug, Clone)]
pub struct PerfModel {
    /// Per-layer-class runtime regressions.
    pub layer: LayerRuntimeModel,
    /// Communication delay model.
    pub comm: CommModel,
    /// The platform being modelled (used for billing constants and memory
    /// budgets, which are published, not profiled).
    pub platform: PlatformProfile,
    /// Wire encoding of fork/join payloads (default: raw f32).
    pub transfer_format: TransferFormat,
}

impl PerfModel {
    /// Builds the performance model by *profiling* the platform: running
    /// layer executions and transfers against the simulator's noisy ground
    /// truth and fitting regressions, as the paper does on real functions.
    pub fn profiled(platform: &PlatformProfile, seed: u64) -> Self {
        PerfModel {
            layer: LayerRuntimeModel::profiled(platform, seed),
            comm: CommModel::profiled(platform, seed ^ 0x9e37_79b9_7f4a_7c15),
            platform: platform.clone(),
            transfer_format: TransferFormat::default(),
        }
    }

    /// Builds an exact (noise-free) performance model directly from the
    /// platform's ground-truth constants. Useful in tests and when the
    /// profiling step itself is not under evaluation.
    pub fn analytic(platform: &PlatformProfile) -> Self {
        PerfModel {
            layer: LayerRuntimeModel::analytic(platform),
            comm: CommModel::analytic(platform),
            platform: platform.clone(),
            transfer_format: TransferFormat::default(),
        }
    }

    /// The same model with fork/join payloads priced under `format`.
    pub fn with_transfer_format(mut self, format: TransferFormat) -> Self {
        self.transfer_format = format;
        self
    }

    /// Bytes a raw `f32` payload of `raw_bytes` occupies on the wire under
    /// this model's [`TransferFormat`]. All transfer-size accounting in the
    /// planners and the runtime sampler routes through here.
    pub fn wire_bytes(&self, raw_bytes: u64) -> u64 {
        self.transfer_format.wire_bytes(raw_bytes)
    }

    /// Predicted execution time of `flops` of work of `class` in one
    /// function, in milliseconds.
    pub fn predict_compute_ms(&self, flops: u64, class: EffClass) -> f64 {
        self.layer.predict_ms(flops, class)
    }

    /// Predicted time for the master to fork `n` workers, shipping
    /// `payload_bytes` to each: payload uploads share the master's egress
    /// bandwidth (serialized), while per-invocation jitter overlaps and
    /// costs the expected maximum of `n` draws.
    pub fn fork_ms(&self, payload_bytes: u64, n: usize) -> f64 {
        self.comm.group_transfer_ms(payload_bytes, n)
    }

    /// Predicted time for the master to collect `n` worker responses of
    /// `payload_bytes` each (same structure as [`PerfModel::fork_ms`]).
    pub fn join_ms(&self, payload_bytes: u64, n: usize) -> f64 {
        self.comm.group_transfer_ms(payload_bytes, n)
    }

    /// Predicted time to hand a raw `f32` activation of `raw_bytes` from one
    /// pipeline stage to the next: a single transfer of the wire-encoded
    /// payload, jitter included. This is the inbound-transfer term of the
    /// pipeline stage-time model `t_pipeline` (stage time = hand-off +
    /// group latency).
    pub fn handoff_ms(&self, raw_bytes: u64) -> f64 {
        self.comm.transfer_ms(self.wire_bytes(raw_bytes))
    }
}

/// Marginal cost of re-executing one stage, as a fraction of a full-restart
/// retry: the stage's predicted latency over the whole plan's. This is the
/// price a checkpointed resume debits from the retry budget — a resumed
/// attempt redoes one stage, not the plan — floored at 5% so even a
/// near-free stage pays *something* (retries are never entirely free load).
#[must_use]
pub fn marginal_retry_cost(stage_ms: f64, plan_total_ms: f64) -> f64 {
    // `partial_cmp` (not `!(x > 0.0)`): a NaN plan total must fall through
    // to the conservative full-token price.
    if plan_total_ms.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !stage_ms.is_finite()
    {
        return 1.0;
    }
    (stage_ms / plan_total_ms).clamp(0.05, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_model_tracks_analytic_within_a_few_percent() {
        let platform = PlatformProfile::aws_lambda();
        let analytic = PerfModel::analytic(&platform);
        let profiled = PerfModel::profiled(&platform, 42);
        for flops in [100_000_000u64, 1_000_000_000, 10_000_000_000] {
            for class in [EffClass::Conv, EffClass::Dense, EffClass::Recurrent] {
                let a = analytic.predict_compute_ms(flops, class);
                let p = profiled.predict_compute_ms(flops, class);
                let rel = (a - p).abs() / a;
                assert!(rel < 0.05, "{class:?} {flops}: analytic {a}, profiled {p}");
            }
        }
    }

    #[test]
    fn fork_cost_grows_with_fanout() {
        let model = PerfModel::analytic(&PlatformProfile::aws_lambda());
        let f1 = model.fork_ms(1_000_000, 1);
        let f4 = model.fork_ms(1_000_000, 4);
        let f16 = model.fork_ms(1_000_000, 16);
        assert!(f1 < f4 && f4 < f16);
        // Payload serialization dominates at high fan-out: at least linear
        // growth in total payload.
        assert!(f16 > 12.0 * (f1 - model.comm.jitter().mean()));
    }

    #[test]
    fn int8_wire_shrinks_payloads_4x() {
        let f32_model = PerfModel::analytic(&PlatformProfile::aws_lambda());
        let int8_model = f32_model.clone().with_transfer_format(TransferFormat::Int8);
        assert_eq!(f32_model.wire_bytes(1_000_000), 1_000_000);
        assert_eq!(int8_model.wire_bytes(1_000_000), 250_004);
        // Odd raw sizes round the element count up.
        assert_eq!(int8_model.wire_bytes(7), 6);
        // The smaller wire makes the same fork strictly cheaper.
        assert!(
            int8_model.fork_ms(int8_model.wire_bytes(1_000_000), 8)
                < f32_model.fork_ms(f32_model.wire_bytes(1_000_000), 8)
        );
    }

    #[test]
    fn marginal_retry_cost_is_the_stage_share() {
        assert!((marginal_retry_cost(25.0, 100.0) - 0.25).abs() < 1e-12);
        // Floored and capped.
        assert_eq!(marginal_retry_cost(0.1, 1000.0), 0.05);
        assert_eq!(marginal_retry_cost(500.0, 100.0), 1.0);
        // Degenerate totals price conservatively at full cost.
        assert_eq!(marginal_retry_cost(10.0, 0.0), 1.0);
        assert_eq!(marginal_retry_cost(10.0, f64::NAN), 1.0);
        assert_eq!(marginal_retry_cost(f64::NAN, 100.0), 1.0);
    }

    #[test]
    fn knix_forks_much_faster_than_lambda() {
        let lambda = PerfModel::analytic(&PlatformProfile::aws_lambda());
        let knix = PerfModel::analytic(&PlatformProfile::knix());
        assert!(knix.fork_ms(1_000_000, 8) < lambda.fork_ms(1_000_000, 8) / 4.0);
    }
}
