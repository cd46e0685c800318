//! Pipeline-parallel serving policy: per-stage lane pools and bounded
//! inter-stage queues.
//!
//! Fork-join serving executes one layer group at a time per query, so at
//! steady state every other group's workers idle. Pipeline serving
//! (FuncPipe-style) turns each layer group into a *stage* with its own pool
//! of `lanes` concurrent stage executors and a bounded hand-off queue in
//! front of it; different queries occupy different stages simultaneously,
//! and steady-state throughput is bounded by the slowest stage rather than
//! by the end-to-end latency.
//!
//! This module holds the *policy* half (how many lanes per stage, how deep
//! the inter-stage queues are); the serving runtime in `gillis-core` turns
//! it into a discrete-event pipeline on the virtual clock with deterministic
//! backpressure: a query that finishes a stage while the downstream queue is
//! full *parks*, holding its lane, until the downstream stage drains — no
//! query is ever dropped silently.
//!
//! Like the batching and overload policies ([`crate::batch`],
//! [`crate::overload`]), every decision here is a pure function of the
//! policy, the virtual arrival times, and the seed — never of wall-clock
//! time or thread scheduling.

use serde::{Deserialize, Serialize};

use crate::error::FaasError;
use crate::knobs::{family, parse};
use crate::Result;

/// How the serving path streams queries through layer-group stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelinePolicy {
    /// Concurrent stage executors per stage (≥ 1). Each lane is one master
    /// function instance of that stage, with its own worker fan-out.
    pub lanes: usize,
    /// Bounded inter-stage queue depth (≥ 1). When a downstream queue is
    /// full, the upstream query parks and holds its lane — backpressure
    /// propagates toward admission instead of growing unbounded buffers.
    pub queue_depth: usize,
}

impl PipelinePolicy {
    /// A pipeline with `lanes` executors per stage and a default queue depth
    /// of two entries per lane (enough to absorb stage-time jitter without
    /// hiding a persistent imbalance).
    pub fn with_lanes(lanes: usize) -> Self {
        PipelinePolicy {
            lanes,
            queue_depth: lanes.saturating_mul(2).max(1),
        }
    }

    /// One lane per stage: queries still overlap across stages, but each
    /// stage serves strictly in arrival order.
    pub fn single_lane() -> Self {
        PipelinePolicy::with_lanes(1)
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] for zero lanes or a zero
    /// queue depth.
    pub fn validate(&self) -> Result<()> {
        if self.lanes == 0 {
            return Err(FaasError::InvalidArgument(
                "pipeline lanes must be >= 1".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(FaasError::InvalidArgument(
                "pipeline queue_depth must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

family! {
    PipelinePolicy, "pipeline", env;
    base PipelinePolicy::single_lane();
    check PipelinePolicy::validate;
    "GILLIS_PIPELINE_LANES", "lanes", "unset",
        "per-stage lane count; enables pipeline-parallel serving" => {
            // The queue bound follows the lane count unless set itself.
            |p, raw| parse(raw).map(|lanes| *p = PipelinePolicy::with_lanes(lanes)),
            |p| p.lanes.to_string()
        };
    "GILLIS_PIPELINE_QUEUE", "queue_depth", "2 × lanes",
        "bounded inter-stage queue depth" => [queue_depth];
}

/// Honest pipeline accounting across a serving run, reported next to the
/// overload and batch counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PipelineCounters {
    /// Stages in the served plan (max across absorbed replications).
    pub stages: u64,
    /// Stage executions dispatched (one per query per stage it reached).
    pub stage_dispatches: u64,
    /// Inter-stage activation hand-offs performed (dispatches past stage 0).
    pub handoffs: u64,
    /// Times a query finished a stage while the downstream queue was full
    /// and parked holding its lane (backpressure events).
    pub backpressure_stalls: u64,
    /// Largest inter-stage queue occupancy observed.
    pub peak_stage_queue: u64,
}

impl PipelineCounters {
    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: &PipelineCounters) {
        self.stages = self.stages.max(other.stages);
        self.stage_dispatches += other.stage_dispatches;
        self.handoffs += other.handoffs;
        self.backpressure_stalls += other.backpressure_stalls;
        self.peak_stage_queue = self.peak_stage_queue.max(other.peak_stage_queue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_validation() {
        assert!(PipelinePolicy::single_lane().validate().is_ok());
        assert!(PipelinePolicy::with_lanes(4).validate().is_ok());
        assert!(PipelinePolicy {
            lanes: 0,
            queue_depth: 4
        }
        .validate()
        .is_err());
        assert!(PipelinePolicy {
            lanes: 2,
            queue_depth: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn with_lanes_sizes_the_queue() {
        let p = PipelinePolicy::with_lanes(4);
        assert_eq!(p.lanes, 4);
        assert_eq!(p.queue_depth, 8);
        assert_eq!(PipelinePolicy::single_lane().queue_depth, 2);
    }

    #[test]
    fn policy_text_round_trips() {
        for policy in [
            PipelinePolicy::single_lane(),
            PipelinePolicy::with_lanes(4),
            PipelinePolicy {
                lanes: 3,
                queue_depth: 17,
            },
        ] {
            let text = policy.to_text();
            let parsed = PipelinePolicy::from_text(&text).unwrap();
            assert_eq!(policy, parsed, "{text}");
        }
        assert!(PipelinePolicy::from_text("").is_err());
        assert!(PipelinePolicy::from_text("nope\nlanes=2").is_err());
        assert!(PipelinePolicy::from_text("gillis-pipeline v1\nlanes").is_err());
        assert!(PipelinePolicy::from_text("gillis-pipeline v1\nlanes=x").is_err());
        assert!(PipelinePolicy::from_text("gillis-pipeline v1\nwat=1").is_err());
        // Parsed policies are validated.
        assert!(PipelinePolicy::from_text("gillis-pipeline v1\nlanes=0").is_err());
    }

    #[test]
    fn env_parsing_requires_the_enabling_variable() {
        // Driven through a closure, never the process environment.
        assert_eq!(PipelinePolicy::from_lookup(&|_| None), Ok(None));
        let queue_only = |name: &str| (name == "GILLIS_PIPELINE_QUEUE").then(|| "9".to_string());
        assert_eq!(PipelinePolicy::from_lookup(&queue_only), Ok(None));
    }

    #[test]
    fn counters_absorb() {
        let a = PipelineCounters {
            stages: 3,
            stage_dispatches: 30,
            handoffs: 20,
            backpressure_stalls: 4,
            peak_stage_queue: 6,
        };
        let mut b = PipelineCounters {
            stages: 2,
            peak_stage_queue: 9,
            ..PipelineCounters::default()
        };
        b.absorb(&a);
        assert_eq!(b.stages, 3, "stages is a max, not a sum");
        assert_eq!(b.stage_dispatches, 30);
        assert_eq!(b.peak_stage_queue, 9, "peak is a max, not a sum");
        b.absorb(&a);
        assert_eq!(b.handoffs, 40);
        assert_eq!(b.backpressure_stalls, 8);
    }
}
