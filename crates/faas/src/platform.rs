//! Platform profiles: the constants that distinguish AWS Lambda, Google
//! Cloud Functions, and KNIX in the paper's experiments.

use serde::{Deserialize, Serialize};

use crate::exgauss::ExGaussian;
use crate::time::Micros;

/// Which serverless platform a profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformKind {
    /// AWS Lambda (3 GB instances, 1 ms billing, §V-A).
    AwsLambda,
    /// Google Cloud Functions (4 GB instances, 100 ms billing).
    GoogleCloudFunctions,
    /// KNIX: open-source platform with compute-collocated storage and fast
    /// function communication (paper Figs 7, 10).
    Knix,
}

impl PlatformKind {
    /// Short display name used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            PlatformKind::AwsLambda => "Lambda",
            PlatformKind::GoogleCloudFunctions => "GCF",
            PlatformKind::Knix => "KNIX",
        }
    }
}

/// Relative compute efficiency per layer class: how far from peak FLOP
/// throughput each kind of kernel runs (dense and recurrent layers are
/// memory-bound on function-class vCPUs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeEfficiency {
    /// Convolution kernels (compute-bound).
    pub conv: f64,
    /// Dense / fully-connected kernels.
    pub dense: f64,
    /// LSTM steps.
    pub recurrent: f64,
    /// Pooling sweeps.
    pub pool: f64,
    /// Element-wise kernels.
    pub element_wise: f64,
}

/// Everything the simulator needs to know about a platform.
///
/// Numbers follow the paper (§II-B, §V-A) and public platform documentation
/// circa the paper's experiments (September–October 2020): Lambda 3 GB
/// instances with 1 ms billing, GCF 4 GB with 100 ms billing and ~300 Mbps
/// networking, KNIX matched to Lambda compute with much faster function
/// interaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformProfile {
    /// Which platform this profile models.
    pub kind: PlatformKind,
    /// Maximum instance memory in bytes.
    pub instance_memory_bytes: u64,
    /// Model-memory budget `M` per function: the part of instance memory
    /// available for weights after OS/runtime overheads (1.4 GB on Lambda,
    /// paper §V-A).
    pub model_memory_budget: u64,
    /// Billing granularity `D` in milliseconds (paper Eq. 2).
    pub billing_granularity_ms: u64,
    /// Price per GB-second of billed duration (USD).
    pub price_per_gb_s: f64,
    /// Price per invocation (USD); two orders of magnitude below duration
    /// charges in the paper's experiments, kept for completeness.
    pub price_per_invocation: f64,
    /// Function network bandwidth in bits per second (master egress/ingress).
    pub network_bandwidth_bps: f64,
    /// Per-invocation latency jitter (ms), exGaussian per §IV-A.
    pub invoke_latency_ms: ExGaussian,
    /// Cold-start penalty in milliseconds (container provisioning, before
    /// package load).
    pub cold_start_ms: f64,
    /// How long a warm instance lingers before reclaim.
    pub warm_idle_timeout: Micros,
    /// Peak floating-point throughput of one instance, in GFLOP/s.
    pub cpu_gflops: f64,
    /// Per-layer-class efficiency factors.
    pub efficiency: ComputeEfficiency,
    /// Relative standard deviation of compute-time noise.
    pub compute_noise_rel_std: f64,
    /// Fixed per-layer framework overhead in milliseconds.
    pub per_layer_overhead_ms: f64,
    /// Object-store (S3-like) streaming bandwidth in bits per second.
    pub storage_bandwidth_bps: f64,
    /// Object-store per-request latency in milliseconds.
    pub storage_latency_ms: f64,
}

impl PlatformProfile {
    /// AWS Lambda profile at the paper's experiment time: 3 GB instances,
    /// `M = 1.4 GB`, 1 ms billing, ~0.6 Gbps networking.
    pub fn aws_lambda() -> Self {
        PlatformProfile {
            kind: PlatformKind::AwsLambda,
            instance_memory_bytes: 3_000_000_000,
            model_memory_budget: 1_400_000_000,
            billing_granularity_ms: 1,
            price_per_gb_s: 0.0000166667,
            price_per_invocation: 0.0000002,
            network_bandwidth_bps: 600e6,
            invoke_latency_ms: ExGaussian::new(5.0, 1.5, 1.0 / 7.0)
                .expect("valid lambda latency distribution"),
            cold_start_ms: 250.0,
            warm_idle_timeout: Micros::from_secs(600),
            cpu_gflops: 28.0,
            efficiency: ComputeEfficiency {
                conv: 1.0,
                dense: 0.35,
                recurrent: 0.40,
                pool: 0.60,
                element_wise: 0.30,
            },
            compute_noise_rel_std: 0.02,
            per_layer_overhead_ms: 0.05,
            storage_bandwidth_bps: 960e6, // ~120 MB/s per S3 connection
            storage_latency_ms: 30.0,
        }
    }

    /// Google Cloud Functions profile: 4 GB instances, 100 ms billing,
    /// ~300 Mbps networking (§II-B), somewhat faster CPU than a 3 GB Lambda.
    pub fn gcf() -> Self {
        PlatformProfile {
            kind: PlatformKind::GoogleCloudFunctions,
            instance_memory_bytes: 4_000_000_000,
            model_memory_budget: 2_000_000_000,
            billing_granularity_ms: 100,
            price_per_gb_s: 0.0000025,
            price_per_invocation: 0.0000004,
            network_bandwidth_bps: 300e6,
            invoke_latency_ms: ExGaussian::new(9.0, 2.5, 1.0 / 10.0)
                .expect("valid gcf latency distribution"),
            cold_start_ms: 400.0,
            warm_idle_timeout: Micros::from_secs(600),
            cpu_gflops: 45.0,
            efficiency: ComputeEfficiency {
                conv: 1.0,
                dense: 0.35,
                recurrent: 0.40,
                pool: 0.60,
                element_wise: 0.30,
            },
            compute_noise_rel_std: 0.02,
            per_layer_overhead_ms: 0.05,
            storage_bandwidth_bps: 960e6,
            storage_latency_ms: 35.0,
        }
    }

    /// KNIX profile: function resources configured to match a Lambda
    /// instance (§V-A) with compute-collocated storage, so function
    /// interaction is an order of magnitude faster (Figs 7, 10).
    pub fn knix() -> Self {
        PlatformProfile {
            kind: PlatformKind::Knix,
            instance_memory_bytes: 3_000_000_000,
            model_memory_budget: 1_400_000_000,
            billing_granularity_ms: 1,
            price_per_gb_s: 0.0000166667,
            price_per_invocation: 0.0000002,
            network_bandwidth_bps: 4e9,
            invoke_latency_ms: ExGaussian::new(0.8, 0.3, 1.0 / 1.2)
                .expect("valid knix latency distribution"),
            cold_start_ms: 120.0,
            warm_idle_timeout: Micros::from_secs(600),
            cpu_gflops: 28.0,
            efficiency: ComputeEfficiency {
                conv: 1.0,
                dense: 0.35,
                recurrent: 0.40,
                pool: 0.60,
                element_wise: 0.30,
            },
            compute_noise_rel_std: 0.02,
            per_layer_overhead_ms: 0.05,
            storage_bandwidth_bps: 4e9,
            storage_latency_ms: 1.0,
        }
    }

    /// A Lambda-style memory-scaled variant of this profile.
    ///
    /// Serverless platforms allocate CPU proportionally to the configured
    /// memory size (AWS documents linear vCPU scaling with memory), so a
    /// bigger function runs compute faster but bills more GB-seconds for
    /// the same wall time: `cpu_gflops` and the model-memory budget scale
    /// linearly with the memory factor, while network bandwidth, invocation
    /// jitter, and per-GB-second pricing stay fixed — compute amortizes with
    /// memory, transfers do not. The pipeline stage sizer applies the same
    /// rule to its memory ladder.
    ///
    /// # Panics
    ///
    /// Panics if `memory_bytes` is zero.
    pub fn with_memory_bytes(&self, memory_bytes: u64) -> Self {
        assert!(memory_bytes > 0, "instance memory must be positive");
        let factor = memory_bytes as f64 / self.instance_memory_bytes as f64;
        let mut scaled = self.clone();
        scaled.instance_memory_bytes = memory_bytes;
        scaled.model_memory_budget = (self.model_memory_budget as f64 * factor).round() as u64;
        scaled.cpu_gflops = self.cpu_gflops * factor;
        scaled
    }

    /// Mean time to move `bytes` over the function network (excluding
    /// invocation jitter).
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 / self.network_bandwidth_bps * 1000.0
    }

    /// Mean time to read `bytes` from the object store (one GET).
    pub fn storage_read_ms(&self, bytes: u64) -> f64 {
        self.storage_latency_ms + bytes as f64 * 8.0 / self.storage_bandwidth_bps * 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_paper_constants() {
        let lambda = PlatformProfile::aws_lambda();
        assert_eq!(lambda.billing_granularity_ms, 1);
        assert_eq!(lambda.model_memory_budget, 1_400_000_000);
        assert_eq!(lambda.instance_memory_bytes, 3_000_000_000);

        let gcf = PlatformProfile::gcf();
        assert_eq!(gcf.billing_granularity_ms, 100);
        assert_eq!(gcf.instance_memory_bytes, 4_000_000_000);

        let knix = PlatformProfile::knix();
        // KNIX compute is configured to match Lambda (§V-A)...
        assert_eq!(knix.cpu_gflops, lambda.cpu_gflops);
        // ...but its function interaction is much faster (Fig 7).
        assert!(knix.invoke_latency_ms.mean() < lambda.invoke_latency_ms.mean() / 3.0);
        assert!(knix.network_bandwidth_bps > lambda.network_bandwidth_bps);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let p = PlatformProfile::aws_lambda();
        let t1 = p.transfer_ms(1_000_000);
        let t2 = p.transfer_ms(2_000_000);
        assert!((t2 - 2.0 * t1).abs() < 1e-9);
        // 1 MB at 600 Mbps ≈ 13.3 ms.
        assert!((t1 - 13.33).abs() < 0.1, "t1 = {t1}");
    }

    #[test]
    fn storage_read_includes_latency_floor() {
        let p = PlatformProfile::aws_lambda();
        assert!(p.storage_read_ms(0) >= 30.0);
        let big = p.storage_read_ms(1_000_000_000);
        // 1 GB at ~120 MB/s ≈ 8.3 s.
        assert!(big > 8000.0 && big < 9000.0, "big = {big}");
    }

    #[test]
    fn memory_scaling_is_linear_in_cpu_and_budget() {
        let base = PlatformProfile::aws_lambda();
        let double = base.with_memory_bytes(2 * base.instance_memory_bytes);
        assert_eq!(double.instance_memory_bytes, 6_000_000_000);
        assert!((double.cpu_gflops - 2.0 * base.cpu_gflops).abs() < 1e-9);
        assert_eq!(double.model_memory_budget, 2_800_000_000);
        // Network and pricing constants do not scale with memory.
        assert_eq!(double.network_bandwidth_bps, base.network_bandwidth_bps);
        assert_eq!(double.price_per_gb_s, base.price_per_gb_s);
        assert_eq!(double.billing_granularity_ms, base.billing_granularity_ms);
        // Scaling down works too.
        let half = base.with_memory_bytes(base.instance_memory_bytes / 2);
        assert!((half.cpu_gflops - base.cpu_gflops / 2.0).abs() < 1e-9);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PlatformKind::AwsLambda.label(), "Lambda");
        assert_eq!(PlatformKind::GoogleCloudFunctions.label(), "GCF");
        assert_eq!(PlatformKind::Knix.label(), "KNIX");
    }
}
