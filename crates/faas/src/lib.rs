//! Discrete-event serverless platform simulator.
//!
//! The Gillis paper deploys on AWS Lambda, Google Cloud Functions, and KNIX.
//! This crate simulates those platforms at the level of detail the paper's
//! algorithms and experiments observe:
//!
//! - [`platform::PlatformProfile`] — per-platform constants: instance memory,
//!   model-memory budget (the paper's `M = 1.4 GB` on Lambda), billing
//!   granularity (1 ms Lambda, 100 ms GCF), network bandwidth, CPU speed, and
//!   invocation-latency distributions.
//! - [`exgauss::ExGaussian`] — the exponentially-modified Gaussian the paper
//!   fits to function communication delays (§IV-A), with numerical order
//!   statistics for the max of `n` concurrent invocations.
//! - [`fleet`] — warm pools with cold starts and idle expiry.
//! - [`billing`] — pay-per-use metering rounded to the platform granularity
//!   (paper Eq. 2).
//! - [`store`] — an S3-like object store (used by the Pipeline baseline).
//! - [`workload`] / [`metrics`] — client workload generators and
//!   latency/cost recorders for end-to-end serving experiments (100 clients
//!   × 1000 queries, §V-C).
//! - [`des`] — a stand-alone event queue the serving runtime does not use
//!   (its scheduler keeps its own heap); only the repo benchmark's
//!   `faas.des.push_pop_ns` probe still times it.
//!
//! The simulated "hardware ground truth" for layer compute lives here too
//! ([`compute`]); the performance model in `gillis-perf` must *learn* it by
//! profiling, exactly as the paper profiles real functions.

pub mod batch;
pub mod billing;
pub mod brownout;
pub mod budget;
pub mod chaos;
pub mod compute;
pub mod des;
pub mod envutil;
pub mod error;
pub mod exgauss;
pub mod fleet;
pub mod knobs;
pub mod metrics;
pub mod overload;
pub mod pipeline;
pub mod platform;
pub mod recovery;
pub mod stats;
pub mod store;
pub mod time;
pub mod workload;

pub use batch::{BatchCounters, BatchPolicy, SloClass};
pub use brownout::{
    ArrivalDecision, BrownoutController, BrownoutCounters, BrownoutLevel, BrownoutPolicy,
};
pub use budget::{RetryBudget, RetryBudgetPolicy};
pub use chaos::{
    ChaosConfig, Fault, FaultDomain, FaultInjector, FaultSite, OutageConfig, OutageModel,
    QueryStatus, ResilienceCounters, ResiliencePolicy,
};
pub use error::FaasError;
pub use exgauss::ExGaussian;
pub use knobs::{Knob, Knobs, PolicyStack};
pub use overload::{BreakerPolicy, BreakerState, CircuitBreaker, OverloadCounters, OverloadPolicy};
pub use pipeline::{PipelineCounters, PipelinePolicy};
pub use platform::{PlatformKind, PlatformProfile};
pub use recovery::{RecoveryCounters, RecoveryPolicy, FAILOVER_MS};
pub use time::Micros;

/// Convenient result alias for fallible simulator operations.
pub type Result<T> = std::result::Result<T, FaasError>;
