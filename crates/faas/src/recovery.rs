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
//!   capacity eviction and TTL expiry. The weight token ties a checkpoint to
//!   the exact weights that produced it, so a redeployed model can never
//!   resume from a stale activation.
//! - [`RecoveryPolicy`] — the knobs: cache capacity/TTL, the orchestrator
//!   failover replay delay, and the speculative re-execution trigger
//!   (straggler stages past `spec_factor` × predicted p95 get a second
//!   execution seeded from the cached upstream output, first result wins).
//! - [`RecoveryCounters`] — honest accounting: checkpoint hits/misses/
//!   evictions/expirations, stages saved, recompute avoided, orchestrator
//!   crashes split into failover replays vs full restarts, and speculation
//!   outcomes.
//!
//! Everything here is deterministic: the cache is a pure function of the
//! put/get sequence, and the serving runtime samples orchestrator crashes as
//! a pure function of `(chaos seed, query, boundary, incarnation)` — so a
//! crashed run replayed from checkpoints is bit-identical at any
//! `GILLIS_THREADS`.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::error::FaasError;
use crate::knobs::family;
use crate::Result;

/// Failover replay delay charged when no [`RecoveryPolicy`] overrides it
/// (orchestrator crashes are sampled by the chaos layer whether or not
/// recovery is configured; without a policy every crash is a full restart).
pub const DEFAULT_FAILOVER_MS: f64 = 25.0;

/// Stage-level recovery knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Maximum checkpoints held; the oldest stored entry is evicted first.
    pub capacity: usize,
    /// Checkpoint time-to-live in virtual milliseconds; `inf` never expires.
    pub ttl_ms: f64,
    /// Delay a replacement orchestrator pays to reconstruct in-flight state
    /// from checkpoints after a crash, in milliseconds.
    pub failover_ms: f64,
    /// Speculative re-execution trigger: a stage still running past this
    /// factor × its predicted attempt p95 gets a second execution seeded
    /// from the cached upstream output (first result wins, the loser is
    /// cancelled at its next checkpoint). `inf` disables speculation.
    pub spec_factor: f64,
    /// Maximum speculative executions per query.
    pub max_speculations: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            capacity: 256,
            ttl_ms: f64::INFINITY,
            failover_ms: DEFAULT_FAILOVER_MS,
            spec_factor: f64::INFINITY,
            max_speculations: 1,
        }
    }
}

impl RecoveryPolicy {
    /// Validates the knob ranges.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] for a zero capacity, a
    /// non-positive TTL, a negative or non-finite failover delay, or a
    /// speculation factor below 1.
    pub fn validate(&self) -> Result<()> {
        if self.capacity == 0 {
            return Err(FaasError::InvalidArgument(
                "recovery capacity must be >= 1".to_string(),
            ));
        }
        // NaN-rejecting: `ttl_ms` must be definitely positive (inf is fine).
        if self.ttl_ms.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(FaasError::InvalidArgument(format!(
                "recovery ttl_ms must be positive: {}",
                self.ttl_ms
            )));
        }
        if !self.failover_ms.is_finite() || self.failover_ms < 0.0 {
            return Err(FaasError::InvalidArgument(format!(
                "recovery failover_ms must be finite and >= 0: {}",
                self.failover_ms
            )));
        }
        // NaN-rejecting: a speculation threshold below the p95 itself would
        // re-execute healthy stages.
        if self.spec_factor.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater)
            && self.spec_factor != 1.0
        {
            return Err(FaasError::InvalidArgument(format!(
                "recovery spec_factor must be >= 1 (inf disables): {}",
                self.spec_factor
            )));
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
    "GILLIS_RECOVERY_TTL_MS", "ttl_ms", "inf", "checkpoint time-to-live" => [ttl_ms];
    "GILLIS_RECOVERY_FAILOVER_MS", "failover_ms", "25",
        "replacement-orchestrator failover delay" => [failover_ms];
    "GILLIS_RECOVERY_SPEC_FACTOR", "spec_factor", "inf (off)",
        "speculate when a stage exceeds this × its predicted p95" => [spec_factor];
    "GILLIS_RECOVERY_MAX_SPEC", "max_speculations", "1",
        "speculative re-executions per query" => [max_speculations];
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
    /// Virtual time the checkpoint was (last) stored, for TTL expiry.
    pub stored_at_ms: f64,
}

/// Honest recovery accounting across a run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryCounters {
    /// Checkpoints written (including overwrites of the same key).
    pub checkpoints_stored: u64,
    /// Lookups that found a live checkpoint.
    pub checkpoint_hits: u64,
    /// Lookups that found nothing (never stored, or evicted).
    pub checkpoint_misses: u64,
    /// Checkpoints evicted by capacity pressure.
    pub checkpoint_evictions: u64,
    /// Checkpoints dropped at lookup because their TTL had passed.
    pub checkpoint_expirations: u64,
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
    /// Failed stages retried from the last checkpointed boundary.
    pub resume_retries: u64,
    /// Resume retries that turned a failed stage into a success.
    pub resume_retry_wins: u64,
    /// Speculative stage re-executions launched.
    pub speculative_executions: u64,
    /// Speculations whose result was accepted over the primary's.
    pub speculation_wins: u64,
    /// Speculations cancelled at their next checkpoint (primary won).
    pub speculation_cancelled: u64,
}

impl RecoveryCounters {
    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: &RecoveryCounters) {
        self.checkpoints_stored += other.checkpoints_stored;
        self.checkpoint_hits += other.checkpoint_hits;
        self.checkpoint_misses += other.checkpoint_misses;
        self.checkpoint_evictions += other.checkpoint_evictions;
        self.checkpoint_expirations += other.checkpoint_expirations;
        self.stages_saved += other.stages_saved;
        self.recompute_avoided_ms += other.recompute_avoided_ms;
        self.orchestrator_crashes += other.orchestrator_crashes;
        self.failover_replays += other.failover_replays;
        self.full_restarts += other.full_restarts;
        self.resume_skipped_deadline += other.resume_skipped_deadline;
        self.resume_retries += other.resume_retries;
        self.resume_retry_wins += other.resume_retry_wins;
        self.speculative_executions += other.speculative_executions;
        self.speculation_wins += other.speculation_wins;
        self.speculation_cancelled += other.speculation_cancelled;
    }
}

/// Deterministic stage-output checkpoint cache.
///
/// Keys are `(query id, stage index, weight-identity token)`; values record
/// the cumulative work the checkpoint makes skippable. Capacity eviction is
/// FIFO over first-store order (an overwrite refreshes the entry in place
/// without renewing its eviction position), and TTL expiry is checked at
/// lookup — both pure functions of the call sequence, so every run is
/// bit-identical regardless of threading.
#[derive(Debug, Clone)]
pub struct CheckpointCache {
    policy: RecoveryPolicy,
    map: BTreeMap<(u64, u32, u64), StageCheckpoint>,
    fifo: VecDeque<(u64, u32, u64)>,
}

impl CheckpointCache {
    /// Fresh cache under `policy` (assumed validated).
    #[must_use]
    pub fn new(policy: RecoveryPolicy) -> Self {
        CheckpointCache {
            policy,
            map: BTreeMap::new(),
            fifo: VecDeque::new(),
        }
    }

    /// The policy this cache enforces.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
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
            while self.map.len() > self.policy.capacity {
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

    /// Looks up the checkpoint for `(query, stage, token)` at virtual time
    /// `now_ms`, counting the hit/miss/expiry honestly. An expired entry is
    /// dropped and reported as a miss.
    pub fn get(
        &mut self,
        query: u64,
        stage: u32,
        token: u64,
        now_ms: f64,
        rec: &mut RecoveryCounters,
    ) -> Option<StageCheckpoint> {
        let key = (query, stage, token);
        match self.map.get(&key) {
            Some(c) if now_ms - c.stored_at_ms <= self.policy.ttl_ms => {
                rec.checkpoint_hits += 1;
                Some(*c)
            }
            Some(_) => {
                self.map.remove(&key);
                rec.checkpoint_expirations += 1;
                rec.checkpoint_misses += 1;
                None
            }
            None => {
                rec.checkpoint_misses += 1;
                None
            }
        }
    }

    /// Non-counting liveness probe (TTL-aware): used by gates that only ask
    /// whether a resume *would* find its upstream checkpoint.
    #[must_use]
    pub fn contains(&self, query: u64, stage: u32, token: u64, now_ms: f64) -> bool {
        self.map
            .get(&(query, stage, token))
            .is_some_and(|c| now_ms - c.stored_at_ms <= self.policy.ttl_ms)
    }

    /// Latest live checkpointed stage at or below `upto` for `query` — the
    /// walk-back a partially evicted query resumes from. Counts one hit or
    /// one miss for the outcome of the walk.
    pub fn latest_before(
        &mut self,
        query: u64,
        upto: u32,
        token: u64,
        now_ms: f64,
        rec: &mut RecoveryCounters,
    ) -> Option<(u32, StageCheckpoint)> {
        for stage in (0..=upto).rev() {
            if self.contains(query, stage, token, now_ms) {
                let c = self.map[&(query, stage, token)];
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

    fn ckpt(elapsed_ms: f64, at: f64) -> StageCheckpoint {
        StageCheckpoint {
            elapsed_ms,
            degraded: false,
            stored_at_ms: at,
        }
    }

    #[test]
    fn policy_validation() {
        assert!(RecoveryPolicy::default().validate().is_ok());
        assert!(RecoveryPolicy {
            capacity: 0,
            ..RecoveryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RecoveryPolicy {
            ttl_ms: 0.0,
            ..RecoveryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RecoveryPolicy {
            ttl_ms: f64::NAN,
            ..RecoveryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RecoveryPolicy {
            failover_ms: -1.0,
            ..RecoveryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RecoveryPolicy {
            failover_ms: f64::INFINITY,
            ..RecoveryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RecoveryPolicy {
            spec_factor: 0.5,
            ..RecoveryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RecoveryPolicy {
            spec_factor: 1.0,
            ..RecoveryPolicy::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn text_round_trips_including_infinities() {
        let policies = [
            RecoveryPolicy::default(),
            RecoveryPolicy {
                capacity: 8,
                ttl_ms: 1500.0,
                failover_ms: 0.0,
                spec_factor: 2.5,
                max_speculations: 3,
            },
        ];
        for p in policies {
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
        let mut cache = CheckpointCache::new(RecoveryPolicy {
            capacity: 2,
            ..RecoveryPolicy::default()
        });
        let tok = 7;
        cache.put(1, 0, tok, ckpt(10.0, 10.0), &mut rec);
        cache.put(1, 1, tok, ckpt(25.0, 25.0), &mut rec);
        assert_eq!(
            cache.get(1, 1, tok, 30.0, &mut rec).unwrap().elapsed_ms,
            25.0
        );
        assert!(cache.get(2, 0, tok, 30.0, &mut rec).is_none());
        // Third insert evicts the oldest stored key (query 1 stage 0).
        cache.put(2, 0, tok, ckpt(5.0, 30.0), &mut rec);
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(1, 0, tok, 30.0));
        assert!(cache.contains(1, 1, tok, 30.0));
        // Wrong weight token never matches.
        assert!(cache.get(1, 1, tok + 1, 30.0, &mut rec).is_none());
        assert_eq!(rec.checkpoints_stored, 3);
        assert_eq!(rec.checkpoint_hits, 1);
        assert_eq!(rec.checkpoint_misses, 2);
        assert_eq!(rec.checkpoint_evictions, 1);
    }

    #[test]
    fn overwrite_refreshes_without_duplicating() {
        let mut rec = RecoveryCounters::default();
        let mut cache = CheckpointCache::new(RecoveryPolicy {
            capacity: 2,
            ttl_ms: 100.0,
            ..RecoveryPolicy::default()
        });
        cache.put(1, 0, 0, ckpt(10.0, 0.0), &mut rec);
        cache.put(1, 0, 0, ckpt(12.0, 50.0), &mut rec);
        assert_eq!(cache.len(), 1);
        // Refresh restarted the TTL clock.
        assert!(cache.contains(1, 0, 0, 140.0));
        assert_eq!(rec.checkpoints_stored, 2);
        assert_eq!(rec.checkpoint_evictions, 0);
    }

    #[test]
    fn ttl_expiry_counts_and_drops() {
        let mut rec = RecoveryCounters::default();
        let mut cache = CheckpointCache::new(RecoveryPolicy {
            ttl_ms: 100.0,
            ..RecoveryPolicy::default()
        });
        cache.put(3, 2, 9, ckpt(40.0, 1000.0), &mut rec);
        assert!(cache.contains(3, 2, 9, 1100.0));
        assert!(!cache.contains(3, 2, 9, 1100.1));
        assert!(cache.get(3, 2, 9, 1200.0, &mut rec).is_none());
        assert!(cache.is_empty(), "expired entry is dropped");
        assert_eq!(rec.checkpoint_expirations, 1);
        assert_eq!(rec.checkpoint_misses, 1);
    }

    #[test]
    fn latest_before_walks_back_and_retire_clears() {
        let mut rec = RecoveryCounters::default();
        let mut cache = CheckpointCache::new(RecoveryPolicy::default());
        cache.put(5, 0, 1, ckpt(10.0, 10.0), &mut rec);
        cache.put(5, 1, 1, ckpt(20.0, 20.0), &mut rec);
        let (stage, c) = cache.latest_before(5, 3, 1, 25.0, &mut rec).unwrap();
        assert_eq!((stage, c.elapsed_ms), (1, 20.0));
        assert!(cache.latest_before(6, 3, 1, 25.0, &mut rec).is_none());
        cache.retire_query(5, 1);
        assert!(cache.is_empty());
        assert!(cache.latest_before(5, 3, 1, 25.0, &mut rec).is_none());
    }

    #[test]
    fn counters_absorb_all_fields() {
        let a = RecoveryCounters {
            checkpoints_stored: 1,
            checkpoint_hits: 2,
            checkpoint_misses: 3,
            checkpoint_evictions: 4,
            checkpoint_expirations: 5,
            stages_saved: 6,
            recompute_avoided_ms: 7.5,
            orchestrator_crashes: 8,
            failover_replays: 9,
            full_restarts: 10,
            resume_skipped_deadline: 11,
            resume_retries: 12,
            resume_retry_wins: 13,
            speculative_executions: 14,
            speculation_wins: 15,
            speculation_cancelled: 16,
        };
        let mut b = RecoveryCounters::default();
        b.absorb(&a);
        b.absorb(&a);
        assert_eq!(b.checkpoints_stored, 2);
        assert_eq!(b.checkpoint_expirations, 10);
        assert_eq!(b.stages_saved, 12);
        assert!((b.recompute_avoided_ms - 15.0).abs() < 1e-12);
        assert_eq!(b.full_restarts, 20);
        assert_eq!(b.speculation_cancelled, 32);
    }

    #[test]
    fn from_env_requires_capacity() {
        // Driven through a closure, never the process environment.
        assert_eq!(RecoveryPolicy::from_lookup(&|_| None), Ok(None));
        let ttl_only = |name: &str| (name == "GILLIS_RECOVERY_TTL_MS").then(|| "5".to_string());
        assert_eq!(RecoveryPolicy::from_lookup(&ttl_only), Ok(None));
    }
}
