//! Latency-optimal partitioning by dynamic programming (paper §IV-B).
//!
//! The recursion is the paper's `L(i, j, m)` specialized to prefixes:
//! `L(j, m)` is the optimal latency of serving merged layers `0..j` with
//! master memory budget `m`; the last group `i..j` is parallelized with the
//! best option Algorithm 1 finds, either worker-only (consuming no master
//! budget) or with master participation (consuming the master partition's
//! weight bytes from the budget).
//!
//! The master budget is discretized on a configurable grid (the paper leaves
//! this implementation detail open); optimality holds up to one grid step of
//! memory-allocation granularity.

use std::sync::Arc;

use gillis_model::LinearModel;
use gillis_perf::PerfModel;

use crate::cache::{ChoicePair, EvalCache};
use crate::error::CoreError;
use crate::partition::{group_options, GroupWalker, ModelFlops, PartitionOption};
use crate::plan::{ExecutionPlan, Placement, PlannedGroup};
use crate::predict::predict_group;
use crate::Result;

/// What a plan search optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanObjective {
    /// Minimize single-query end-to-end latency: the sum of group latencies
    /// (the paper's objective).
    #[default]
    Latency,
    /// Minimize the pipeline bottleneck — the maximum *stage time* (inbound
    /// activation hand-off plus group latency) over the plan's groups,
    /// FuncPipe's non-uniform stage balancing. Steady-state pipeline
    /// throughput is `1000 / bottleneck_ms`, so this mode maximizes it;
    /// ties break toward the smaller pipeline-fill latency (the sum of
    /// stage times).
    PipelineBottleneck,
}

/// Configuration of the latency-optimal partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionerConfig {
    /// Parallelism degrees to consider for split options.
    pub degrees: Vec<usize>,
    /// Master-memory discretization step in bytes.
    pub mem_grid_bytes: u64,
    /// Per-function memory budget; `None` uses the platform's model budget
    /// (the paper's `M`).
    pub budget_bytes: Option<u64>,
    /// Optional cap on group length (layers per group), to bound search.
    /// `Some(1)` disables grouping entirely — the layer-wise ablation.
    pub max_group_len: Option<usize>,
    /// Whether the master may compute partitions (§III-B). Disabling this
    /// forces worker-only placements — the master-participation ablation.
    pub allow_master_participation: bool,
    /// What the search minimizes: single-query latency (default) or the
    /// pipeline-stage bottleneck.
    pub objective: PlanObjective,
}

impl Default for PartitionerConfig {
    fn default() -> Self {
        PartitionerConfig {
            degrees: vec![2, 3, 4, 6, 8, 12, 16],
            mem_grid_bytes: 16 * 1024 * 1024,
            budget_bytes: None,
            max_group_len: None,
            allow_master_participation: true,
            objective: PlanObjective::default(),
        }
    }
}

/// The latency-optimal dynamic-programming partitioner.
#[derive(Debug, Clone, Default)]
pub struct DpPartitioner {
    config: PartitionerConfig,
    /// Shared memoization layer for the FLOPs table and Algorithm 1 results.
    cache: Option<Arc<EvalCache>>,
    /// Thread-count override for building the candidate table; `None`
    /// follows `GILLIS_THREADS` / the machine parallelism.
    eval_threads: Option<usize>,
}

/// Result of Algorithm 1 for one (group, budget-threshold) pair: the best
/// evaluated latency with the option and placement achieving it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupEval {
    /// Predicted end-to-end latency of the group under this choice.
    pub latency_ms: f64,
    /// The winning parallelization option.
    pub option: PartitionOption,
    /// Where the partitions run.
    pub placement: Placement,
    /// Grid steps of master budget this choice consumes.
    pub budget_steps: usize,
}

impl DpPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: PartitionerConfig) -> Self {
        DpPartitioner {
            config,
            cache: None,
            eval_threads: None,
        }
    }

    /// Attaches a shared [`EvalCache`]: Algorithm 1 results are looked up
    /// before computing and stored after, so repeated `partition` calls
    /// skip re-evaluating identical cells, and the model's FLOPs table is
    /// shared with the other planners on the cache. Plans are identical
    /// with or without a cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the number of threads used to build the candidate table
    /// (default: `GILLIS_THREADS` or the machine parallelism). Results are
    /// bit-identical for any thread count; this exists for tests and for
    /// callers embedding the partitioner in an already-parallel context.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.eval_threads = Some(threads.max(1));
        self
    }

    /// Overrides the planning objective (see [`PlanObjective`]).
    #[must_use]
    pub fn with_objective(mut self, objective: PlanObjective) -> Self {
        self.config.objective = objective;
        self
    }

    /// Fingerprint of the configuration knobs that shape Algorithm 1's
    /// per-cell result (the memory grid changes `budget_steps`, the degree
    /// set and master flag change the candidate space, and the objective
    /// changes what a cell's `latency_ms` *means*: group latency under
    /// [`PlanObjective::Latency`], stage time — hand-off included — under
    /// [`PlanObjective::PipelineBottleneck`]). Omitting the objective here
    /// would let one mode serve poisoned cells to the other through a
    /// shared [`EvalCache`].
    fn config_tag(&self) -> Vec<u64> {
        let mut tag: Vec<u64> = self.config.degrees.iter().map(|&d| d as u64).collect();
        tag.push(u64::from(self.config.allow_master_participation));
        tag.push(self.config.mem_grid_bytes.max(1));
        tag.push(self.config.objective as u64);
        tag
    }

    /// Finds the latency-optimal plan for `model` on the platform behind
    /// `perf`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when no plan fits the memory
    /// budget (a layer too large for any partitioning option), and
    /// propagates analysis errors.
    pub fn partition(&self, model: &LinearModel, perf: &PerfModel) -> Result<ExecutionPlan> {
        let n = model.layers().len();
        if n == 0 {
            return Ok(ExecutionPlan::new(Vec::new()));
        }
        let budget = self
            .config
            .budget_bytes
            .unwrap_or(perf.platform.model_memory_budget);
        let grid = self.config.mem_grid_bytes.max(1);
        let steps = (budget / grid) as usize;

        // Hoist the per-layer FLOPs tables: every group analysis below reads
        // them, and recomputing per (group, option) pair dominates the run.
        let flops = match &self.cache {
            Some(cache) => cache.flops(model),
            None => Arc::new(ModelFlops::new(model)),
        };
        // The cache with this search's key into its choice table.
        let cache = self
            .cache
            .as_deref()
            .map(|c| (c, EvalCache::eval_key(model, perf, &self.config_tag())));

        // columns[j - 1][j - 1 - i]: best worker-only and master-participating
        // choices (Algorithm 1) for group i..j. A column is one task: its
        // groups share an end, so one backward walk analyzes them all. The
        // longest columns are claimed first to keep the pool's tail short.
        let column =
            |c: usize| self.column_choices(model, perf, &flops, cache, n - c, budget, grid);
        let threads = self
            .eval_threads
            .unwrap_or_else(gillis_pool::gillis_threads);
        // A search finishes every column, so a cache that holds the last
        // column's longest group holds the whole table: n² lookups, which
        // a pool batch would only slow down.
        let warm = cache
            .is_some_and(|(c, key)| c.choice(key, self.shortest_start(n), n, budget).is_some());
        let mut columns: Vec<Vec<ChoicePair>> = if threads <= 1 || warm {
            (0..n).map(column).collect()
        } else {
            gillis_pool::Pool::global().run(n, column)
        };
        columns.reverse();

        // L[j][m]: best score for layers 0..j with m grid steps of master
        // budget; back[j][m] records the chosen group. A score is the
        // lexicographic pair (Σ group latency, 0) under the latency
        // objective and (max stage time, Σ stage time) under the pipeline
        // objective — the second component breaks bottleneck ties toward
        // the smaller pipeline-fill latency.
        const INF: f64 = f64::INFINITY;
        let objective = self.config.objective;
        let combine = |prev: (f64, f64), cell_ms: f64| -> (f64, f64) {
            match objective {
                PlanObjective::Latency => (prev.0 + cell_ms, 0.0),
                PlanObjective::PipelineBottleneck => (prev.0.max(cell_ms), prev.1 + cell_ms),
            }
        };
        let mut best = vec![vec![(INF, INF); steps + 1]; n + 1];
        let mut back: Vec<Vec<Option<(usize, GroupEval)>>> = vec![vec![None; steps + 1]; n + 1];
        best[0].fill((0.0, 0.0));
        for j in 1..=n {
            for m in 0..=steps {
                for i in 0..j {
                    let Some(&(worker_only, with_master)) = columns[j - 1].get(j - 1 - i) else {
                        continue;
                    };
                    if let Some(c) = worker_only {
                        let prev = best[i][m];
                        if prev.0.is_finite() {
                            let cand = combine(prev, c.latency_ms);
                            if cand < best[j][m] {
                                best[j][m] = cand;
                                back[j][m] = Some((i, c));
                            }
                        }
                    }
                    if let Some(c) = with_master {
                        if m >= c.budget_steps {
                            let prev = best[i][m - c.budget_steps];
                            if prev.0.is_finite() {
                                let cand = combine(prev, c.latency_ms);
                                if cand < best[j][m] {
                                    best[j][m] = cand;
                                    back[j][m] = Some((i, c));
                                }
                            }
                        }
                    }
                }
            }
        }

        if !best[n][steps].0.is_finite() {
            return Err(CoreError::Infeasible(format!(
                "no partitioning of {} fits the {budget}-byte budget",
                model.name()
            )));
        }

        // Reconstruct.
        let mut groups = Vec::new();
        let (mut j, mut m) = (n, steps);
        while j > 0 {
            let (i, choice) =
                back[j][m].ok_or_else(|| CoreError::Infeasible("broken backpointer".into()))?;
            groups.push(PlannedGroup {
                start: i,
                end: j,
                option: choice.option,
                placement: choice.placement,
            });
            m -= choice.budget_steps;
            j = i;
        }
        groups.reverse();
        // Under the latency objective, adjacent master-resident groups are
        // an artifact of the recursion boundaries, not a serving decision:
        // coalesce them. Under the pipeline objective they are deliberate
        // stage boundaries (merging would grow the bottleneck), so keep
        // them.
        let plan = match objective {
            PlanObjective::Latency => ExecutionPlan::new(groups).coalesce_master_runs(),
            PlanObjective::PipelineBottleneck => ExecutionPlan::new(groups),
        };
        plan.validate(model, budget)?;
        Ok(plan)
    }

    /// Start of the longest group ending at `j` that the search considers.
    fn shortest_start(&self, j: usize) -> usize {
        self.config.max_group_len.map_or(0, |l| j.saturating_sub(l))
    }

    /// Column `j` of the candidate table: Algorithm 1's choices for every
    /// group `i..j`, at index `j - 1 - i`. Each option's analysis is carried
    /// from `i + 1..j` to `i..j` by one [`GroupWalker`] step, so the column
    /// costs one backward walk per option rather than one per group.
    #[allow(clippy::too_many_arguments)]
    fn column_choices(
        &self,
        model: &LinearModel,
        perf: &PerfModel,
        flops: &ModelFlops,
        cache: Option<(&EvalCache, u64)>,
        j: usize,
        budget: u64,
        grid: u64,
    ) -> Vec<ChoicePair> {
        let shortest = self.shortest_start(j);
        // Every longer group's options are among the last layer's own.
        let mut walkers: Vec<GroupWalker> = group_options(model, j - 1, j, &self.config.degrees)
            .into_iter()
            .map(|option| GroupWalker::new(&model.layers()[..j], flops.layers(0, j), option))
            .collect();
        let mut column = Vec::with_capacity(j - shortest);
        for i in (shortest..j).rev() {
            if let Some(pair) = cache.and_then(|(c, key)| c.choice(key, i, j, budget)) {
                column.push(pair);
                continue;
            }
            // Catch up to `i` (cached cells were skipped). An option that
            // stops applying here applies to no longer group either.
            walkers.retain_mut(|w| (w.len()..j - i).all(|_| w.extend().is_ok()));
            let pair = self.find_opt_latency(model, perf, &walkers, i, budget, grid);
            if let Some((c, key)) = cache {
                c.store_choice(key, i, j, budget, pair);
            }
            column.push(pair);
        }
        column
    }

    /// Algorithm 1: search the options of the group starting at layer `i`
    /// (one walker each, in [`group_options`] order) and return the best
    /// worker-only choice and the best master-participating choice (whose
    /// budget requirement is the master partition's weight bytes).
    fn find_opt_latency(
        &self,
        model: &LinearModel,
        perf: &PerfModel,
        walkers: &[GroupWalker],
        i: usize,
        budget: u64,
        grid: u64,
    ) -> ChoicePair {
        // Under the pipeline objective a cell's value is the *stage time*:
        // group latency plus the inbound activation hand-off the stage pays
        // to receive its input from the upstream stage (zero for the first
        // stage, which is fed by the client).
        let handoff_ms = match self.config.objective {
            PlanObjective::Latency => 0.0,
            PlanObjective::PipelineBottleneck if i == 0 => 0.0,
            PlanObjective::PipelineBottleneck => perf.handoff_ms(model.layers()[i].in_bytes()),
        };
        // Reduction in option order: first strictly-better latency wins the
        // worker-only slot; the master slot additionally prefers fewer
        // budget steps at equal latency.
        let mut best_worker_only: Option<GroupEval> = None;
        let mut best_with_master: Option<GroupEval> = None;
        for walker in walkers {
            let analysis = walker.analysis();
            let option = analysis.option;
            // Partition too large to fit into any function: skip option.
            if analysis.partitions.iter().any(|p| p.mem_bytes() > budget) {
                continue;
            }

            // Worker-only placement: every partition on a worker.
            let wo = predict_group(perf, analysis, Placement::Workers);
            let latency_ms = handoff_ms + wo.latency_ms();
            if best_worker_only
                .map(|b| latency_ms < b.latency_ms)
                .unwrap_or(true)
            {
                best_worker_only = Some(GroupEval {
                    latency_ms,
                    option,
                    placement: Placement::Workers,
                    budget_steps: 0,
                });
            }

            if !self.config.allow_master_participation {
                continue;
            }
            // Master-participating placement: partition 0 in the master.
            let placement = if option.parts() == 1 {
                Placement::Master
            } else {
                Placement::MasterAndWorkers
            };
            let mp = predict_group(perf, analysis, placement);
            let latency_ms = handoff_ms + mp.latency_ms();
            let budget_steps = analysis.partitions[0].weight_bytes.div_ceil(grid) as usize;
            if best_with_master
                .map(|b| {
                    latency_ms < b.latency_ms
                        || (latency_ms == b.latency_ms && budget_steps < b.budget_steps)
                })
                .unwrap_or(true)
            {
                best_with_master = Some(GroupEval {
                    latency_ms,
                    option,
                    placement,
                    budget_steps,
                });
            }
        }
        (best_worker_only, best_with_master)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::predict_plan;
    use gillis_faas::PlatformProfile;
    use gillis_model::zoo;
    use proptest::prelude::*;

    fn perf(platform: &PlatformProfile) -> PerfModel {
        PerfModel::analytic(platform)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn dp_plans_invariant_to_threads_and_cache(
            (model_idx, grid_shift, degree_mask) in (0usize..4, 0u32..3, 1usize..8),
        ) {
            let model = match model_idx {
                0 => zoo::tiny_vgg(),
                1 => zoo::vgg11(),
                2 => zoo::rnn(6),
                _ => zoo::mobilenet(),
            };
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let base = [2usize, 4, 8];
            let degrees: Vec<usize> = base
                .iter()
                .enumerate()
                .filter(|(i, _)| degree_mask & (1 << i) != 0)
                .map(|(_, &d)| d)
                .collect();
            let config = PartitionerConfig {
                degrees,
                mem_grid_bytes: (16u64 * 1024 * 1024) << grid_shift,
                ..PartitionerConfig::default()
            };
            let serial = DpPartitioner::new(config.clone())
                .with_threads(1)
                .partition(&model, &perf)
                .unwrap();
            let threaded = DpPartitioner::new(config.clone())
                .with_threads(8)
                .partition(&model, &perf)
                .unwrap();
            prop_assert_eq!(&serial, &threaded);

            let cache = Arc::new(EvalCache::new());
            let cold = DpPartitioner::new(config.clone())
                .with_cache(Arc::clone(&cache))
                .partition(&model, &perf)
                .unwrap();
            prop_assert_eq!(&serial, &cold);
            // Warm cache (and a different thread count): identical plan, and
            // every DP cell answers from the cache.
            let warm = DpPartitioner::new(config)
                .with_cache(Arc::clone(&cache))
                .with_threads(8)
                .partition(&model, &perf)
                .unwrap();
            prop_assert_eq!(&serial, &warm);
            prop_assert!(cache.stats().hits > 0);
        }
    }

    #[test]
    fn dp_beats_single_function_on_vgg() {
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let vgg = zoo::vgg16();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let dp_pred = predict_plan(&vgg, &plan, &perf).unwrap();
        let single = predict_plan(&vgg, &ExecutionPlan::single_function(&vgg), &perf).unwrap();
        let speedup = single.latency_ms / dp_pred.latency_ms;
        // Paper Fig 9: 1.9x speedup for VGG-16 on Lambda.
        assert!(speedup > 1.3, "speedup only {speedup:.2}");
        assert!(speedup < 4.0, "speedup implausibly high: {speedup:.2}");
    }

    #[test]
    fn dp_handles_models_too_large_for_one_function() {
        // WRN-50-4 exceeds the 1.4 GB budget: Default OOMs, the DP must
        // still find a plan (paper Fig 11).
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let wrn = zoo::wrn50(4);
        assert!(wrn.weight_bytes() > platform.model_memory_budget);
        let plan = DpPartitioner::default().partition(&wrn, &perf).unwrap();
        plan.validate(&wrn, platform.model_memory_budget).unwrap();
        // Some group must be split or offloaded to workers.
        assert!(plan.groups().iter().any(|g| g.worker_count() > 0));
    }

    #[test]
    fn dp_respects_master_budget() {
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let wrn = zoo::wrn34(5);
        let plan = DpPartitioner::default().partition(&wrn, &perf).unwrap();
        let master = plan.master_weight_bytes(&wrn).unwrap();
        assert!(master <= platform.model_memory_budget);
    }

    #[test]
    fn rnn_plan_places_layers_without_parallelism() {
        // RNN layers cannot be parallelized (paper §V-B): the DP must
        // produce Single groups only, offloading layers to workers once the
        // master is full.
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let rnn = zoo::rnn(12); // too big for one function
        let plan = DpPartitioner::default().partition(&rnn, &perf).unwrap();
        assert!(plan
            .groups()
            .iter()
            .all(|g| g.option == PartitionOption::Single));
        plan.validate(&rnn, platform.model_memory_budget).unwrap();
        assert!(plan.groups().iter().any(|g| g.worker_count() > 0));
    }

    #[test]
    fn small_rnn_stays_in_master() {
        // RNN-3 fits in one function; parallelization cannot help (§V-B), so
        // the optimal plan is master-only with no communication.
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let rnn = zoo::rnn(3);
        let plan = DpPartitioner::default().partition(&rnn, &perf).unwrap();
        assert!(plan.groups().iter().all(|g| g.worker_count() == 0));
        let pred = predict_plan(&rnn, &plan, &perf).unwrap();
        let single = predict_plan(&rnn, &ExecutionPlan::single_function(&rnn), &perf).unwrap();
        assert!((pred.latency_ms - single.latency_ms).abs() / single.latency_ms < 0.05);
    }

    #[test]
    fn dp_matches_exhaustive_search_on_tiny_model() {
        // Brute-force all (grouping, option, placement) plans of a tiny model
        // and check the DP is no worse.
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let tiny = zoo::tiny_vgg();
        let config = PartitionerConfig {
            degrees: vec![2, 4],
            ..PartitionerConfig::default()
        };
        let plan = DpPartitioner::new(config.clone())
            .partition(&tiny, &perf)
            .unwrap();
        let dp_latency = predict_plan(&tiny, &plan, &perf).unwrap().latency_ms;

        let budget = platform.model_memory_budget;
        let n = tiny.layers().len();
        let mut best = f64::INFINITY;
        // Enumerate all segmentations (n is small).
        fn enumerate(
            model: &LinearModel,
            perf: &PerfModel,
            config: &PartitionerConfig,
            budget: u64,
            start: usize,
            n: usize,
            acc: &mut Vec<PlannedGroup>,
            master_used: u64,
            latency: f64,
            best: &mut f64,
        ) {
            if start == n {
                if latency < *best {
                    *best = latency;
                }
                return;
            }
            for end in start + 1..=n {
                for option in group_options(model, start, end, &config.degrees) {
                    let analysis =
                        crate::partition::analyze_group(model, start, end, option).unwrap();
                    if analysis.partitions.iter().any(|p| p.mem_bytes() > budget) {
                        continue;
                    }
                    for placement in [
                        Placement::Workers,
                        if option.parts() == 1 {
                            Placement::Master
                        } else {
                            Placement::MasterAndWorkers
                        },
                    ] {
                        let used = if placement == Placement::Workers {
                            0
                        } else {
                            analysis.partitions[0].weight_bytes
                        };
                        if master_used + used > budget {
                            continue;
                        }
                        let g = predict_group(perf, &analysis, placement);
                        acc.push(PlannedGroup {
                            start,
                            end,
                            option,
                            placement,
                        });
                        enumerate(
                            model,
                            perf,
                            config,
                            budget,
                            end,
                            n,
                            acc,
                            master_used + used,
                            latency + g.latency_ms(),
                            best,
                        );
                        acc.pop();
                    }
                }
            }
        }
        enumerate(
            &tiny,
            &perf,
            &config,
            budget,
            0,
            n,
            &mut Vec::new(),
            0,
            0.0,
            &mut best,
        );
        assert!(best.is_finite());
        assert!(
            dp_latency <= best * 1.0001,
            "dp {dp_latency} vs brute force {best}"
        );
    }

    #[test]
    fn objectives_share_a_cache_without_poisoning_each_other() {
        // Regression: the eval-cache choice key must include the planning
        // objective. Pipeline-mode cells store *stage times* (inbound
        // hand-off included), so a mode-blind key would let one objective
        // answer the other's DP cells with the wrong quantity.
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let vgg = zoo::vgg11();
        let latency_cfg = PartitionerConfig::default();
        let pipeline_cfg = PartitionerConfig {
            objective: PlanObjective::PipelineBottleneck,
            ..PartitionerConfig::default()
        };
        let lat_plain = DpPartitioner::new(latency_cfg.clone())
            .partition(&vgg, &perf)
            .unwrap();
        let pipe_plain = DpPartitioner::new(pipeline_cfg.clone())
            .partition(&vgg, &perf)
            .unwrap();
        assert_ne!(lat_plain, pipe_plain, "objectives must differ on VGG-11");
        // Both run orders through one shared cache must reproduce the
        // uncached plans exactly.
        for latency_first in [true, false] {
            let cache = Arc::new(EvalCache::new());
            let run = |cfg: &PartitionerConfig| {
                DpPartitioner::new(cfg.clone())
                    .with_cache(Arc::clone(&cache))
                    .partition(&vgg, &perf)
                    .unwrap()
            };
            let (lat, pipe) = if latency_first {
                let l = run(&latency_cfg);
                (l, run(&pipeline_cfg))
            } else {
                let p = run(&pipeline_cfg);
                (run(&latency_cfg), p)
            };
            assert_eq!(lat, lat_plain, "latency_first={latency_first}");
            assert_eq!(pipe, pipe_plain, "latency_first={latency_first}");
        }
    }

    #[test]
    fn wire_formats_share_a_cache_without_poisoning_each_other() {
        // Regression: the eval-cache choice key ignored the wire format, so
        // an int8 search after an f32 one on the same cache was answered
        // with the f32 cells and returned the f32 plan.
        use gillis_perf::TransferFormat;
        let f32_perf = perf(&PlatformProfile::aws_lambda());
        let int8_perf = f32_perf.clone().with_transfer_format(TransferFormat::Int8);
        for model in [zoo::vgg11(), zoo::vgg16()] {
            let fresh = DpPartitioner::default()
                .partition(&model, &int8_perf)
                .unwrap();
            let cache = Arc::new(EvalCache::new());
            let shared = DpPartitioner::default().with_cache(Arc::clone(&cache));
            let f32_plan = shared.partition(&model, &f32_perf).unwrap();
            assert_ne!(f32_plan, fresh, "{}: formats must differ", model.name());
            let int8_plan = shared.partition(&model, &int8_perf).unwrap();
            assert_eq!(int8_plan, fresh, "{}", model.name());
        }
    }

    #[test]
    fn a_search_integrates_only_the_order_statistics_it_asks_for() {
        // The guard against a return to the eager 64-entry table: a fresh
        // model has integrated nothing, and a default-degree search needs
        // the fan-outs of its degree set (with and without the master).
        let perf = perf(&PlatformProfile::aws_lambda());
        assert_eq!(perf.comm.order_statistics_computed(), 0);
        DpPartitioner::default()
            .partition(&zoo::vgg11(), &perf)
            .unwrap();
        let computed = perf.comm.order_statistics_computed();
        assert!((1..=16).contains(&computed), "{computed} entries computed");
    }

    #[test]
    fn pipeline_objective_cuts_the_bottleneck() {
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let vgg = zoo::vgg11();
        let latency_plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let pipe_plan = DpPartitioner::default()
            .with_objective(PlanObjective::PipelineBottleneck)
            .partition(&vgg, &perf)
            .unwrap();
        let t_lat = crate::predict::t_pipeline(&vgg, &latency_plan, &perf).unwrap();
        let t_pipe = crate::predict::t_pipeline(&vgg, &pipe_plan, &perf).unwrap();
        assert!(
            t_pipe < t_lat,
            "stage balancing should beat the latency plan: {t_pipe} vs {t_lat}"
        );
        // Balancing needs more, smaller stages than the latency plan.
        assert!(pipe_plan.groups().len() >= latency_plan.groups().len());
        pipe_plan
            .validate(&vgg, platform.model_memory_budget)
            .unwrap();
    }

    #[test]
    fn infeasible_when_budget_is_absurdly_small() {
        let platform = PlatformProfile::aws_lambda();
        let perf = perf(&platform);
        let config = PartitionerConfig {
            budget_bytes: Some(1024), // 1 KB: nothing fits
            ..PartitionerConfig::default()
        };
        let err = DpPartitioner::new(config).partition(&zoo::tiny_vgg(), &perf);
        assert!(matches!(err, Err(CoreError::Infeasible(_))));
    }

    #[test]
    fn empty_model_produces_empty_plan() {
        use gillis_model::{Graph, LayerOp};
        use gillis_tensor::Shape;
        let mut g = Graph::new();
        g.add(
            "input",
            LayerOp::Input {
                shape: Shape::new(vec![1]),
            },
            &[],
        )
        .unwrap();
        let model = gillis_model::merge::merge_graph("empty", g).unwrap();
        let platform = PlatformProfile::aws_lambda();
        let plan = DpPartitioner::default()
            .partition(&model, &perf(&platform))
            .unwrap();
        assert!(plan.groups().is_empty());
    }
}
