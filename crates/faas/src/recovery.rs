//! Stage-level recovery from orchestrator crashes.
//!
//! Gillis splits a plan into layer groups (stages), and the orchestrator
//! drives them one after another. An orchestrator that crashes at a stage
//! boundary loses its in-flight state. Without recovery, the replacement
//! restarts the query from group 0. With a [`RecoveryPolicy`], every
//! completed stage leaves a boundary checkpoint before the crash at that
//! boundary is sampled, so the replacement always finds the crashed
//! boundary's own checkpoint and resumes at the next stage, re-executing
//! nothing. Either way the replacement first pays [`FAILOVER_MS`].
//!
//! [`RecoveryCounters`] keep the accounting: checkpoints stored, stages
//! saved, recompute avoided, and orchestrator crashes split into failover
//! replays, full restarts and resumes skipped at the deadline.
//!
//! Everything here is deterministic: the serving runtime samples
//! orchestrator crashes as a pure function of `(chaos seed, query,
//! boundary, incarnation)`, so a crashed run replayed from checkpoints is
//! bit-identical at any `GILLIS_THREADS`.

use serde::{Deserialize, Serialize};

use crate::knobs::family;

/// Delay a replacement orchestrator pays to reconstruct in-flight state
/// after a crash, in milliseconds. Orchestrator crashes are sampled by the
/// chaos layer whether or not recovery is configured; without a
/// [`RecoveryPolicy`] every crash is a full restart after this delay.
pub const FAILOVER_MS: f64 = 25.0;

/// Stage-level recovery: setting it turns checkpointing on. It has no
/// settings; its presence in a [`crate::PolicyStack`] is the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryPolicy;

family! {
    RecoveryPolicy, "recovery", env;
    base RecoveryPolicy;
    check |_: &RecoveryPolicy| Ok(());
    "GILLIS_RECOVERY", "", "unset",
        "`true` enables stage-level recovery" => {
            |_, raw| match raw {
                "true" => Ok(()),
                _ => Err("expected true".to_string()),
            },
            |_| "true".to_string()
        };
}

/// Honest recovery accounting across a run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryCounters {
    /// Boundary checkpoints written: one per completed stage under a
    /// [`RecoveryPolicy`].
    pub checkpoints_stored: u64,
    /// Stages whose re-execution a resume avoided.
    pub stages_saved: u64,
    /// Execution milliseconds a resume avoided recomputing.
    pub recompute_avoided_ms: f64,
    /// Orchestrator crashes sampled (both arms: replay and restart).
    pub orchestrator_crashes: u64,
    /// Crashes recovered by failover replay from a checkpoint.
    pub failover_replays: u64,
    /// Crashes that restarted the query from stage 0 (no recovery policy).
    pub full_restarts: u64,
    /// Resumes skipped because the deadline could no longer be met.
    pub resume_skipped_deadline: u64,
}

impl RecoveryCounters {
    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: &RecoveryCounters) {
        self.checkpoints_stored += other.checkpoints_stored;
        self.stages_saved += other.stages_saved;
        self.recompute_avoided_ms += other.recompute_avoided_ms;
        self.orchestrator_crashes += other.orchestrator_crashes;
        self.failover_replays += other.failover_replays;
        self.full_restarts += other.full_restarts;
        self.resume_skipped_deadline += other.resume_skipped_deadline;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_is_the_bare_header() {
        let text = RecoveryPolicy.to_text();
        assert_eq!(text, "gillis-recovery v1\n");
        assert_eq!(RecoveryPolicy::from_text(&text), Ok(RecoveryPolicy));
        assert!(RecoveryPolicy::from_text("nope").is_err());
        assert!(RecoveryPolicy::from_text("gillis-recovery v1\nwhat=1\n").is_err());
        assert!(RecoveryPolicy::from_text("gillis-recovery v1\ncapacity\n").is_err());
    }

    #[test]
    fn counters_absorb_all_fields() {
        let a = RecoveryCounters {
            checkpoints_stored: 1,
            stages_saved: 6,
            recompute_avoided_ms: 7.5,
            orchestrator_crashes: 8,
            failover_replays: 9,
            full_restarts: 10,
            resume_skipped_deadline: 11,
        };
        let mut b = RecoveryCounters::default();
        b.absorb(&a);
        b.absorb(&a);
        assert_eq!(b.checkpoints_stored, 2);
        assert_eq!(b.stages_saved, 12);
        assert!((b.recompute_avoided_ms - 15.0).abs() < 1e-12);
        assert_eq!(b.orchestrator_crashes, 16);
        assert_eq!(b.failover_replays, 18);
        assert_eq!(b.full_restarts, 20);
        assert_eq!(b.resume_skipped_deadline, 22);
    }

    #[test]
    fn policy_validation() {
        // `true` is the enabler's one valid value: anything else is an
        // error naming the variable, not a silently disabled family.
        for bad in ["false", "0", "1", "yes", ""] {
            let set = |name: &str| (name == "GILLIS_RECOVERY").then(|| bad.to_string());
            let err = RecoveryPolicy::from_lookup(&set).unwrap_err().to_string();
            assert!(err.contains("GILLIS_RECOVERY"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn from_env_requires_true() {
        // Driven through a closure, never the process environment.
        assert_eq!(RecoveryPolicy::from_lookup(&|_| None), Ok(None));
        let on = |name: &str| (name == "GILLIS_RECOVERY").then(|| "true".to_string());
        assert_eq!(RecoveryPolicy::from_lookup(&on), Ok(Some(RecoveryPolicy)));
    }
}
