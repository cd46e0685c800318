//! Memoized group evaluations shared across DP cells, RL episodes, and BO
//! plan scoring.
//!
//! Every planner in the workspace keeps re-deriving the same two quantities:
//!
//! 1. **Group analyses** — the partition geometry of a `(start, end, option)`
//!    triple ([`analyze_group`](crate::partition::analyze_group)). The RL
//!    trainer re-analyzes the groups of every sampled episode and the BO
//!    baseline re-analyzes every candidate plan it scores. (The DP visits
//!    each triple once per run, carried from its neighbour by one step of
//!    the same walk, so it neither reads nor fills this table.)
//! 2. **Candidate cells** — the candidates Algorithm 1 evaluates for a
//!    `(i, j, budget)` key: each option under each placement with its
//!    latency, billed worker time and budget need. A cell holds no
//!    objective's verdict, so every [`DpPartitioner`](crate::dp) search on
//!    the cache — latency, pipeline bottleneck, each multiplier of a cost
//!    sweep — reduces the same cells, and repeated invocations (RL
//!    incumbent seeding, ablation sweeps, serving loops) build none twice.
//!
//! [`EvalCache`] memoizes both behind a [`parking_lot::RwLock`]. Entries are
//! scoped by content fingerprints of the model (and, for choices, the
//! performance model and partitioner configuration), so a cache can be
//! shared freely across models and platforms without invalidation hazards:
//! a different model or perf surface simply hashes to a different key space.
//! Cached values are returned verbatim, so results are bit-identical with
//! the cache on, off, or warm.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use gillis_faas::compute::EffClass;
use gillis_model::LinearModel;
use gillis_perf::PerfModel;

use crate::dp::GroupEval;
use crate::partition::{analyze_group_with, GroupAnalysis, ModelFlops, PartitionOption};
use crate::Result;

/// One `(group, budget)` cell of the DP's candidate table: the group's
/// candidates in option order, less those no objective can pick (see
/// [`crate::dp`]).
pub type Cell = Arc<[GroupEval]>;

/// Counters describing a cache's effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Group analyses currently stored.
    pub analyses: usize,
    /// DP candidate cells currently stored.
    pub choices: usize,
}

#[derive(Default)]
struct State {
    /// Hoisted per-layer FLOPs tables, one per model fingerprint.
    flops: HashMap<u64, Arc<ModelFlops>>,
    /// `(model, start, end, option)` → analysis.
    analyses: HashMap<(u64, usize, usize, PartitionOption), Arc<GroupAnalysis>>,
    /// `(eval scope, i, j, budget)` → candidate cell. The eval scope
    /// fingerprints the model, the performance model, and the partitioner
    /// knobs that shape a cell — degrees, master participation, memory
    /// grid — so distinct configurations occupy disjoint key spaces.
    choices: HashMap<(u64, usize, usize, u64), Cell>,
}

/// A concurrent memoization layer over group analyses and DP candidate cells.
///
/// Cheap to share (`Arc`) and safe to use from multiple threads: lookups
/// take a read lock, inserts a write lock. See the module docs for the
/// scoping rules.
#[derive(Default)]
pub struct EvalCache {
    state: RwLock<State>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EvalCache")
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("analyses", &stats.analyses)
            .field("choices", &stats.choices)
            .finish()
    }
}

impl EvalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// Content fingerprint of a model: its name, layer count, and total
    /// weight bytes. Two models agreeing on all three share cache entries —
    /// names in the zoo encode the architecture, so this is an identity in
    /// practice while surviving re-construction of equal models.
    pub fn model_key(model: &LinearModel) -> u64 {
        let mut h = DefaultHasher::new();
        model.name().hash(&mut h);
        model.layers().len().hash(&mut h);
        model.weight_bytes().hash(&mut h);
        h.finish()
    }

    /// Content fingerprint of a DP evaluation scope: the model, a probe of
    /// the performance model's prediction surface, and the partitioner
    /// configuration tag ([`crate::dp::PartitionerConfig`] knobs that affect
    /// Algorithm 1's candidates).
    pub fn eval_key(model: &LinearModel, perf: &PerfModel, config_tag: &[u64]) -> u64 {
        let mut h = DefaultHasher::new();
        Self::model_key(model).hash(&mut h);
        for bits in perf_probe(perf) {
            bits.hash(&mut h);
        }
        config_tag.hash(&mut h);
        h.finish()
    }

    /// The hoisted [`ModelFlops`] table for `model`, computed on first use.
    pub fn flops(&self, model: &LinearModel) -> Arc<ModelFlops> {
        let key = Self::model_key(model);
        if let Some(f) = self.state.read().flops.get(&key) {
            return Arc::clone(f);
        }
        let table = Arc::new(ModelFlops::new(model));
        let mut state = self.state.write();
        Arc::clone(state.flops.entry(key).or_insert(table))
    }

    /// Memoized [`analyze_group`](crate::partition::analyze_group): returns
    /// the cached analysis of `(start, end, option)` for `model`, computing
    /// and storing it on a miss. Errors (invalid group/option pairs) are not
    /// cached.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::InvalidArgument`](crate::CoreError) from the
    /// underlying analysis.
    pub fn analysis(
        &self,
        model: &LinearModel,
        start: usize,
        end: usize,
        option: PartitionOption,
    ) -> Result<Arc<GroupAnalysis>> {
        let key = (Self::model_key(model), start, end, option);
        if let Some(a) = self.state.read().analyses.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(a));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let flops = self.flops(model);
        let analysis = Arc::new(analyze_group_with(model, &flops, start, end, option)?);
        let mut state = self.state.write();
        Ok(Arc::clone(state.analyses.entry(key).or_insert(analysis)))
    }

    /// Looks up the memoized candidates of cell `(i, j)` under `budget`
    /// bytes in the given evaluation scope.
    pub fn choice(&self, eval_key: u64, i: usize, j: usize, budget: u64) -> Option<Cell> {
        let found = self
            .state
            .read()
            .choices
            .get(&(eval_key, i, j, budget))
            .cloned();
        match found {
            Some(pair) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(pair)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a cell's candidates for later [`EvalCache::choice`] lookups.
    pub fn store_choice(&self, eval_key: u64, i: usize, j: usize, budget: u64, cell: Cell) {
        self.state
            .write()
            .choices
            .insert((eval_key, i, j, budget), cell);
    }

    /// Current hit/miss counters and entry counts.
    pub fn stats(&self) -> CacheStats {
        let state = self.state.read();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            analyses: state.analyses.len(),
            choices: state.choices.len(),
        }
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        let mut state = self.state.write();
        state.flops.clear();
        state.analyses.clear();
        state.choices.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// Samples the performance model's prediction surface at fixed probe points.
/// Two `PerfModel`s producing identical probes are interchangeable for the
/// planner's purposes (same regressions, same communication model, same
/// wire format, same budget), so the probe bit patterns serve as the perf
/// fingerprint.
fn perf_probe(perf: &PerfModel) -> Vec<u64> {
    const CLASSES: [EffClass; 5] = [
        EffClass::Conv,
        EffClass::Dense,
        EffClass::ElementWise,
        EffClass::Pool,
        EffClass::Recurrent,
    ];
    let mut probe = Vec::with_capacity(CLASSES.len() * 2 + 6);
    for class in CLASSES {
        probe.push(perf.predict_compute_ms(1_000_000, class).to_bits());
        probe.push(perf.predict_compute_ms(10_000_000_000, class).to_bits());
    }
    probe.push(perf.fork_ms(65_536, 1).to_bits());
    probe.push(perf.fork_ms(8 << 20, 4).to_bits());
    probe.push(perf.join_ms(1 << 20, 16).to_bits());
    // `fork_ms`/`join_ms` price the bytes they are handed; what a payload
    // weighs on the wire is the transfer format's doing.
    probe.push(perf.wire_bytes(1 << 20));
    probe.push(perf.platform.model_memory_budget);
    probe.push(perf.platform.billing_granularity_ms);
    probe
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::analyze_group;
    use gillis_faas::PlatformProfile;
    use gillis_model::zoo;
    use gillis_perf::TransferFormat;

    #[test]
    fn analysis_matches_uncached_and_hits_on_reuse() {
        let cache = EvalCache::new();
        let vgg = zoo::vgg11();
        let option = PartitionOption::Split {
            dim: crate::partition::PartDim::Height,
            parts: 4,
        };
        let direct = analyze_group(&vgg, 0, 2, option).unwrap();
        let first = cache.analysis(&vgg, 0, 2, option).unwrap();
        assert_eq!(*first, direct);
        let second = cache.analysis(&vgg, 0, 2, option).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.analyses, 1);
    }

    #[test]
    fn models_occupy_disjoint_key_spaces() {
        let cache = EvalCache::new();
        let vgg = zoo::vgg11();
        let resnet = zoo::resnet34();
        let a = cache.analysis(&vgg, 0, 1, PartitionOption::Single).unwrap();
        let b = cache
            .analysis(&resnet, 0, 1, PartitionOption::Single)
            .unwrap();
        assert_ne!(*a, *b);
        assert_eq!(cache.stats().analyses, 2);
        // Rebuilding an equal model still hits.
        cache
            .analysis(&zoo::vgg11(), 0, 1, PartitionOption::Single)
            .unwrap();
        assert_eq!(cache.stats().analyses, 2);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn eval_key_scopes_perf_and_config() {
        let vgg = zoo::vgg11();
        let lambda = PerfModel::analytic(&PlatformProfile::aws_lambda());
        let knix = PerfModel::analytic(&PlatformProfile::knix());
        let k1 = EvalCache::eval_key(&vgg, &lambda, &[2, 4, 1]);
        assert_eq!(k1, EvalCache::eval_key(&vgg, &lambda, &[2, 4, 1]));
        assert_ne!(k1, EvalCache::eval_key(&vgg, &knix, &[2, 4, 1]));
        assert_ne!(k1, EvalCache::eval_key(&vgg, &lambda, &[2, 4, 0]));
        let int8 = lambda.clone().with_transfer_format(TransferFormat::Int8);
        assert_ne!(k1, EvalCache::eval_key(&vgg, &int8, &[2, 4, 1]));
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = EvalCache::new();
        let rnn = zoo::rnn(2);
        let bad = PartitionOption::Split {
            dim: crate::partition::PartDim::Height,
            parts: 2,
        };
        assert!(cache.analysis(&rnn, 0, 1, bad).is_err());
        assert_eq!(cache.stats().analyses, 0);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = EvalCache::new();
        let vgg = zoo::vgg11();
        cache.analysis(&vgg, 0, 1, PartitionOption::Single).unwrap();
        cache.store_choice(7, 0, 1, 1024, Cell::from(Vec::new()));
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats, CacheStats::default());
        assert!(cache.choice(7, 0, 1, 1024).is_none());
    }
}
