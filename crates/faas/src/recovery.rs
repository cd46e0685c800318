//! Stage-level checkpointed recovery.
//!
//! Gillis splits a plan into layer groups (stages); before this module every
//! retry, hedge, or orchestrator failure recomputed the query from group 0 —
//! at 5%+ fault rates most of the retry amplification paid for work on
//! stages that had already succeeded. The pieces here make recovery
//! *incremental*:
//!
//! - [`CheckpointCache`] — a deterministic stage-output checkpoint store
//!   keyed by `(query id, stage index, weight-identity token)` with FIFO
//!   capacity eviction. The weight token ties a checkpoint to the exact
//!   weights that produced it, so a redeployed model can never resume from
//!   a stale activation.
//! - [`RecoveryPolicy`] — the one knob: the cache capacity, whose presence
//!   turns recovery on. A crashed orchestrator's replacement always pays
//!   [`FAILOVER_MS`].
//! - [`RecoveryCounters`] — honest accounting: checkpoint hits/misses/
//!   evictions, stages saved, recompute avoided, and orchestrator crashes
//!   split into failover replays vs full restarts.
//!
//! Everything here is deterministic: the cache is a pure function of the
//! put/lookup sequence, and the serving runtime samples orchestrator crashes
//! as a pure function of `(chaos seed, query, boundary, incarnation)` — so a
//! crashed run replayed from checkpoints is bit-identical at any
//! `GILLIS_THREADS`.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::error::FaasError;
use crate::knobs::family;
use crate::Result;

/// Delay a replacement orchestrator pays to reconstruct in-flight state
/// after a crash, in milliseconds. Orchestrator crashes are sampled by the
/// chaos layer whether or not recovery is configured; without a
/// [`RecoveryPolicy`] every crash is a full restart after this delay.
pub const FAILOVER_MS: f64 = 25.0;

/// Stage-level recovery: setting it turns checkpointing on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Maximum checkpoints held; the oldest stored entry is evicted first.
    pub capacity: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { capacity: 256 }
    }
}

impl RecoveryPolicy {
    /// Validates the knob range.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] for a zero capacity.
    pub fn validate(&self) -> Result<()> {
        if self.capacity == 0 {
            return Err(FaasError::InvalidArgument(
                "recovery capacity must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

family! {
    RecoveryPolicy, "recovery", env;
    base RecoveryPolicy::default();
    check RecoveryPolicy::validate;
    "GILLIS_RECOVERY_CAPACITY", "capacity", "unset",
        "checkpoint-cache entries; enables stage-level recovery" => [capacity];
}

/// One stage-boundary checkpoint: the durable record that a query's groups
/// `0..=stage` completed. The simulator does not persist activations, so the
/// payload is the accounting needed to price what a resume avoids.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCheckpoint {
    /// Cumulative execution time through the end of this stage, in
    /// milliseconds — the work a full restart would redo.
    pub elapsed_ms: f64,
    /// Whether any stage so far completed degraded (local fallback).
    pub degraded: bool,
}

/// Honest recovery accounting across a run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryCounters {
    /// Checkpoints written (including overwrites of the same key).
    pub checkpoints_stored: u64,
    /// Lookups that found a checkpoint.
    pub checkpoint_hits: u64,
    /// Lookups that found nothing (never stored, or evicted).
    pub checkpoint_misses: u64,
    /// Checkpoints evicted by capacity pressure.
    pub checkpoint_evictions: u64,
    /// Stages whose re-execution a resume avoided.
    pub stages_saved: u64,
    /// Execution milliseconds a resume avoided recomputing.
    pub recompute_avoided_ms: f64,
    /// Orchestrator crashes sampled (both arms: replay and restart).
    pub orchestrator_crashes: u64,
    /// Crashes recovered by failover replay from a checkpoint.
    pub failover_replays: u64,
    /// Crashes that restarted the query from stage 0 (no usable checkpoint).
    pub full_restarts: u64,
    /// Resumes skipped because the deadline could no longer be met.
    pub resume_skipped_deadline: u64,
}

impl RecoveryCounters {
    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: &RecoveryCounters) {
        self.checkpoints_stored += other.checkpoints_stored;
        self.checkpoint_hits += other.checkpoint_hits;
        self.checkpoint_misses += other.checkpoint_misses;
        self.checkpoint_evictions += other.checkpoint_evictions;
        self.stages_saved += other.stages_saved;
        self.recompute_avoided_ms += other.recompute_avoided_ms;
        self.orchestrator_crashes += other.orchestrator_crashes;
        self.failover_replays += other.failover_replays;
        self.full_restarts += other.full_restarts;
        self.resume_skipped_deadline += other.resume_skipped_deadline;
    }
}

/// Deterministic stage-output checkpoint cache.
///
/// Keys are `(query id, stage index, weight-identity token)`; values record
/// the cumulative work the checkpoint makes skippable. Capacity eviction is
/// FIFO over first-store order (an overwrite refreshes the entry in place
/// without renewing its eviction position) — a pure function of the call
/// sequence, so every run is bit-identical regardless of threading.
#[derive(Debug, Clone)]
pub struct CheckpointCache {
    capacity: usize,
    map: BTreeMap<(u64, u32, u64), StageCheckpoint>,
    fifo: VecDeque<(u64, u32, u64)>,
}

impl CheckpointCache {
    /// Fresh cache under `policy` (assumed validated).
    #[must_use]
    pub fn new(policy: RecoveryPolicy) -> Self {
        CheckpointCache {
            capacity: policy.capacity,
            map: BTreeMap::new(),
            fifo: VecDeque::new(),
        }
    }

    /// Live entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no checkpoints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Stores (or refreshes) the checkpoint for `(query, stage, token)`,
    /// evicting the oldest stored entry on capacity pressure.
    pub fn put(
        &mut self,
        query: u64,
        stage: u32,
        token: u64,
        ckpt: StageCheckpoint,
        rec: &mut RecoveryCounters,
    ) {
        let key = (query, stage, token);
        if self.map.insert(key, ckpt).is_none() {
            while self.map.len() > self.capacity {
                if let Some(old) = self.fifo.pop_front() {
                    if self.map.remove(&old).is_some() {
                        rec.checkpoint_evictions += 1;
                    }
                } else {
                    break;
                }
            }
            self.fifo.push_back(key);
        }
        rec.checkpoints_stored += 1;
    }

    /// Latest checkpointed stage at or below `upto` for `query` — the
    /// walk-back a partially evicted query resumes from. Counts one hit or
    /// one miss for the outcome of the walk.
    pub fn latest_before(
        &self,
        query: u64,
        upto: u32,
        token: u64,
        rec: &mut RecoveryCounters,
    ) -> Option<(u32, StageCheckpoint)> {
        for stage in (0..=upto).rev() {
            if let Some(&c) = self.map.get(&(query, stage, token)) {
                rec.checkpoint_hits += 1;
                return Some((stage, c));
            }
        }
        rec.checkpoint_misses += 1;
        None
    }

    /// Drops every checkpoint a finished query holds, freeing capacity.
    /// Retirement is consumption, not pressure — it does not count as
    /// eviction.
    pub fn retire_query(&mut self, query: u64, token: u64) {
        let keys: Vec<(u64, u32, u64)> = self
            .map
            .range((query, 0, 0)..=(query, u32::MAX, u64::MAX))
            .map(|(k, _)| *k)
            .filter(|k| k.2 == token)
            .collect();
        for k in keys {
            self.map.remove(&k);
        }
        self.fifo.retain(|k| self.map.contains_key(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(elapsed_ms: f64) -> StageCheckpoint {
        StageCheckpoint {
            elapsed_ms,
            degraded: false,
        }
    }

    #[test]
    fn policy_validation() {
        assert!(RecoveryPolicy::default().validate().is_ok());
        assert!(RecoveryPolicy { capacity: 0 }.validate().is_err());
    }

    #[test]
    fn text_round_trips_including_infinities() {
        for p in [RecoveryPolicy::default(), RecoveryPolicy { capacity: 8 }] {
            let text = p.to_text();
            let back = RecoveryPolicy::from_text(&text).unwrap();
            assert_eq!(p, back, "{text}");
        }
        assert!(RecoveryPolicy::from_text("nope").is_err());
        assert!(RecoveryPolicy::from_text("gillis-recovery v1\ncapacity=zero\n").is_err());
        assert!(RecoveryPolicy::from_text("gillis-recovery v1\nwhat=1\n").is_err());
        assert!(RecoveryPolicy::from_text("gillis-recovery v1\ncapacity\n").is_err());
        // Out-of-range values fail validation, not just parsing.
        assert!(RecoveryPolicy::from_text("gillis-recovery v1\ncapacity=0\n").is_err());
    }

    #[test]
    fn cache_hits_misses_and_capacity_eviction() {
        let mut rec = RecoveryCounters::default();
        let mut cache = CheckpointCache::new(RecoveryPolicy { capacity: 2 });
        let tok = 7;
        cache.put(1, 0, tok, ckpt(10.0), &mut rec);
        cache.put(1, 1, tok, ckpt(25.0), &mut rec);
        assert_eq!(
            cache.latest_before(1, 1, tok, &mut rec).unwrap(),
            (1, ckpt(25.0))
        );
        assert!(cache.latest_before(2, 0, tok, &mut rec).is_none());
        // Third insert evicts the oldest stored key (query 1 stage 0).
        cache.put(2, 0, tok, ckpt(5.0), &mut rec);
        assert_eq!(cache.len(), 2);
        assert!(cache.latest_before(1, 0, tok, &mut rec).is_none());
        assert_eq!(cache.latest_before(1, 1, tok, &mut rec).unwrap().0, 1);
        // Wrong weight token never matches.
        assert!(cache.latest_before(1, 1, tok + 1, &mut rec).is_none());
        assert_eq!(rec.checkpoints_stored, 3);
        assert_eq!(rec.checkpoint_hits, 2);
        assert_eq!(rec.checkpoint_misses, 3);
        assert_eq!(rec.checkpoint_evictions, 1);
    }

    #[test]
    fn overwrite_refreshes_without_duplicating() {
        let mut rec = RecoveryCounters::default();
        let mut cache = CheckpointCache::new(RecoveryPolicy { capacity: 2 });
        cache.put(1, 0, 0, ckpt(10.0), &mut rec);
        cache.put(1, 0, 0, ckpt(12.0), &mut rec);
        assert_eq!(cache.len(), 1);
        // The refresh replaced the payload in place.
        assert_eq!(
            cache.latest_before(1, 0, 0, &mut rec).unwrap(),
            (0, ckpt(12.0))
        );
        assert_eq!(rec.checkpoints_stored, 2);
        assert_eq!(rec.checkpoint_evictions, 0);
    }

    #[test]
    fn latest_before_walks_back_and_retire_clears() {
        let mut rec = RecoveryCounters::default();
        let mut cache = CheckpointCache::new(RecoveryPolicy::default());
        cache.put(5, 0, 1, ckpt(10.0), &mut rec);
        cache.put(5, 1, 1, ckpt(20.0), &mut rec);
        let (stage, c) = cache.latest_before(5, 3, 1, &mut rec).unwrap();
        assert_eq!((stage, c.elapsed_ms), (1, 20.0));
        assert!(cache.latest_before(6, 3, 1, &mut rec).is_none());
        cache.retire_query(5, 1);
        assert!(cache.is_empty());
        assert!(cache.latest_before(5, 3, 1, &mut rec).is_none());
    }

    #[test]
    fn counters_absorb_all_fields() {
        let a = RecoveryCounters {
            checkpoints_stored: 1,
            checkpoint_hits: 2,
            checkpoint_misses: 3,
            checkpoint_evictions: 4,
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
        assert_eq!(b.checkpoint_evictions, 8);
        assert_eq!(b.stages_saved, 12);
        assert!((b.recompute_avoided_ms - 15.0).abs() < 1e-12);
        assert_eq!(b.full_restarts, 20);
        assert_eq!(b.resume_skipped_deadline, 22);
    }

    #[test]
    fn from_env_requires_capacity() {
        // Driven through a closure, never the process environment.
        assert_eq!(RecoveryPolicy::from_lookup(&|_| None), Ok(None));
        let capacity = |name: &str| (name == "GILLIS_RECOVERY_CAPACITY").then(|| "5".to_string());
        assert_eq!(
            RecoveryPolicy::from_lookup(&capacity),
            Ok(Some(RecoveryPolicy { capacity: 5 }))
        );
    }
}
