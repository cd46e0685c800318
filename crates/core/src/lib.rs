//! Gillis model partitioning and fork-join serving (the paper's core
//! contribution).
//!
//! - [`partition`] — tensor-dependency-driven partition geometry (§III-C):
//!   spatial splits with halos, channel/weight splits, grouping rules.
//! - [`plan`] — execution plans: layer groups, options, placements.
//! - [`predict`] — latency/cost prediction of a plan with the performance
//!   model (what the DP and the RL reward both consume).
//! - [`dp`] — the latency-optimal dynamic-programming partitioner (§IV-B,
//!   Algorithm 1).
//! - [`forkjoin`] — the fork-join serving runtime over the platform
//!   simulator (§III-B), including semantics-preserving tensor execution and
//!   closed-loop workload serving.
//! - [`baselines`] — Default (single function) and Pipeline (S3-staged)
//!   baselines (§V-B).
//!
//! The SLO-aware reinforcement-learning partitioner lives in `gillis-rl`;
//! the Bayesian-optimization and brute-force baselines in `gillis-bo`.
//!
//! # Examples
//!
//! ```
//! use gillis_core::{DpPartitioner, PartitionerConfig};
//! use gillis_core::predict::predict_plan;
//! use gillis_faas::PlatformProfile;
//! use gillis_model::zoo;
//! use gillis_perf::PerfModel;
//!
//! # fn main() -> Result<(), gillis_core::CoreError> {
//! let model = zoo::vgg11();
//! let platform = PlatformProfile::aws_lambda();
//! let perf = PerfModel::analytic(&platform);
//! let plan = DpPartitioner::new(PartitionerConfig::default()).partition(&model, &perf)?;
//! let prediction = predict_plan(&model, &plan, &perf)?;
//! assert!(prediction.latency_ms > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod baselines;
pub mod cache;
pub mod compiled_exec;
pub mod dp;
pub mod error;
pub mod forkjoin;
pub mod partition;
pub mod plan;
pub mod predict;
pub mod tail;

pub use cache::{CacheStats, EvalCache};
pub use compiled_exec::CompiledPlanExec;
pub use dp::{DpPartitioner, GroupEval, PartitionerConfig, PlanObjective};
pub use error::CoreError;
pub use forkjoin::{
    execute_plan_tensors, execute_plan_tensors_resilient, execute_plan_tensors_with_threads,
    plan_batch_schedule, replication_seed, BatchSchedule, ClassSchedule, ForkJoinRuntime,
    QueryOutcome, ServingReport, SimulationReport,
};
pub use gillis_faas::batch::{BatchCounters, BatchPolicy, SloClass};
pub use gillis_faas::brownout::{
    ArrivalDecision, BrownoutController, BrownoutCounters, BrownoutLevel, BrownoutPolicy,
};
pub use gillis_faas::budget::{RetryBudget, RetryBudgetPolicy};
pub use gillis_faas::chaos::{
    wire_checksum, ChaosConfig, Fault, FaultDomain, FaultInjector, FaultSite, OutageConfig,
    OutageModel, QueryStatus, ResilienceCounters, ResiliencePolicy,
};
pub use gillis_faas::knobs::PolicyStack;
pub use gillis_faas::metrics::StatusLatency;
pub use gillis_faas::overload::{
    BreakerPolicy, BreakerState, CircuitBreaker, OverloadCounters, OverloadPolicy,
};
pub use gillis_faas::pipeline::{PipelineCounters, PipelinePolicy};
pub use gillis_faas::recovery::{
    CheckpointCache, RecoveryCounters, RecoveryPolicy, StageCheckpoint,
};
pub use partition::{
    analyze_group, analyze_group_with, group_options, ModelFlops, PartDim, PartitionOption,
};
pub use plan::{ExecutionPlan, Placement, PlannedGroup};
pub use predict::{
    predict_plan, predict_plan_batched, predict_plan_cached, predict_plan_pipelined,
    predict_recovery, scale_analysis_for_batch, t_pipeline, PipelinePrediction, PlanPrediction,
    RecoveryPrediction, StagePrediction, BATCH_AMORTIZED_FRACTION,
};
pub use tail::predict_latency_quantile;

/// Convenient result alias for fallible partitioning/serving operations.
pub type Result<T> = std::result::Result<T, CoreError>;
