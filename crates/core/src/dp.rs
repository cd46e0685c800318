//! Plan search by dynamic programming (paper §IV-B): the latency-optimal
//! partitioner, its pipeline-balancing variant, and the cheapest plan within
//! a latency SLO.
//!
//! The recursion is the paper's `L(i, j, m)` specialized to prefixes:
//! `L(j, m)` is the optimal value of serving merged layers `0..j` with
//! master memory budget `m`; the last group `i..j` is parallelized with the
//! best option Algorithm 1 finds, either worker-only (consuming no master
//! budget) or with master participation (consuming the master partition's
//! weight bytes from the budget).
//!
//! The search is split into *build* and *reduce*. Building walks every group
//! once and lists its candidates — each option under each placement, with
//! its predicted latency, billed worker time and budget need. Reducing picks
//! one worker-only and one master-participating candidate per group under an
//! objective's value function and runs the recursion over the picks. The
//! candidate table does not depend on the objective, so every search on one
//! [`EvalCache`] shares it, and [`DpPartitioner::cheapest_within`] reduces
//! it many times without analysing a group twice.
//!
//! The master budget is discretized on a configurable grid (the paper leaves
//! this implementation detail open); optimality holds up to one grid step of
//! memory-allocation granularity.

use std::sync::Arc;

use gillis_faas::billing::billed_ms;
use gillis_model::LinearModel;
use gillis_perf::PerfModel;

use crate::cache::{Cell, EvalCache};
use crate::error::CoreError;
use crate::partition::{group_options, GroupWalker, ModelFlops, PartDim, PartitionOption};
use crate::plan::{ExecutionPlan, Placement, PlannedGroup};
use crate::predict::{group_cost, predict_plan, predict_plan_cached, PlanPrediction};
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
    /// Optional cap on group length (layers per group), to bound search.
    /// `Some(1)` disables grouping entirely — the layer-wise ablation.
    pub max_group_len: Option<usize>,
    /// Whether the master may compute partitions (§III-B). Disabling this
    /// forces worker-only placements — the master-participation ablation.
    pub allow_master_participation: bool,
    /// What [`DpPartitioner::partition`] minimizes: single-query latency
    /// (default) or the pipeline-stage bottleneck.
    pub objective: PlanObjective,
}

impl Default for PartitionerConfig {
    fn default() -> Self {
        PartitionerConfig {
            degrees: vec![2, 3, 4, 6, 8, 12, 16],
            mem_grid_bytes: 16 * 1024 * 1024,
            max_group_len: None,
            allow_master_participation: true,
            objective: PlanObjective::default(),
        }
    }
}

/// The dynamic-programming partitioner.
#[derive(Debug, Clone, Default)]
pub struct DpPartitioner {
    config: PartitionerConfig,
    /// Shared memoization layer for the FLOPs table and the candidate table.
    cache: Option<Arc<EvalCache>>,
}

/// One candidate of a group: an option under a placement, as Algorithm 1
/// evaluates it. A cell of the candidate table lists a group's candidates
/// in [`group_options`] order, worker-only before master-participating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupEval {
    /// Predicted end-to-end latency of the group under this choice.
    pub latency_ms: f64,
    /// The parallelization option.
    pub option: PartitionOption,
    /// Where the partitions run.
    pub placement: Placement,
    /// Grid steps of master budget this choice consumes.
    pub budget_steps: usize,
    /// Billed duration summed over the group's workers, each rounded up to
    /// the platform's billing granularity.
    pub worker_billed_ms: u64,
}

/// The value function a reduction ranks candidates and plans by.
#[derive(Debug, Clone, Copy)]
enum Objective {
    /// Σ group latency.
    Latency,
    /// max stage time, then Σ stage time; a stage time is the inbound
    /// hand-off plus the group latency.
    PipelineBottleneck,
    /// Σ (billed worker ms + (1 + λ) · group latency): the plan's bill — the
    /// master is billed for the whole latency — plus λ times its latency,
    /// the Lagrangian of "cheapest plan with latency ≤ T". The master's
    /// final round-up to the billing granularity is a constant below one
    /// granule and is left out.
    Cost { lambda: f64 },
}

impl From<PlanObjective> for Objective {
    fn from(objective: PlanObjective) -> Self {
        match objective {
            PlanObjective::Latency => Objective::Latency,
            PlanObjective::PipelineBottleneck => Objective::PipelineBottleneck,
        }
    }
}

impl Objective {
    /// What separates a value from a rank for the group starting at layer
    /// `i`: under the pipeline objective a group's value is its *stage
    /// time*, the group latency plus the inbound activation hand-off the
    /// stage pays to receive its input from the upstream stage (zero for the
    /// first stage, which is fed by the client).
    fn handoff_ms(self, model: &LinearModel, perf: &PerfModel, i: usize) -> f64 {
        match self {
            Objective::PipelineBottleneck if i > 0 => perf.handoff_ms(model.layers()[i].in_bytes()),
            _ => 0.0,
        }
    }

    /// What a candidate is ranked by within its cell. The hand-off is the
    /// same for every candidate of a cell, so the pipeline objective ranks
    /// by latency too and adds it to the winners ([`Picks::finish`]).
    fn rank(self, c: &GroupEval) -> f64 {
        match self {
            Objective::Latency | Objective::PipelineBottleneck => c.latency_ms,
            Objective::Cost { lambda } => c.worker_billed_ms as f64 + (1.0 + lambda) * c.latency_ms,
        }
    }
}

/// A cell reduced under one objective: Algorithm 1's best worker-only and
/// best master-participating candidate, each with its value.
#[derive(Debug, Clone, Copy, Default)]
struct Picks {
    worker_only: Option<(f64, GroupEval)>,
    with_master: Option<(f64, GroupEval)>,
}

impl Picks {
    /// Offers the cell's next candidate, in option order: the first
    /// strictly better rank wins the worker-only slot; the master slot
    /// additionally prefers fewer budget steps at equal rank.
    fn offer(&mut self, objective: Objective, c: GroupEval) {
        let rank = objective.rank(&c);
        if c.placement == Placement::Workers {
            if self.worker_only.is_none_or(|(best, _)| rank < best) {
                self.worker_only = Some((rank, c));
            }
        } else if self.with_master.is_none_or(|(best, b)| {
            rank < best || (rank == best && c.budget_steps < b.budget_steps)
        }) {
            self.with_master = Some((rank, c));
        }
    }

    /// Turns the winners' ranks into the cell's values by adding the
    /// group's [`Objective::handoff_ms`].
    fn finish(mut self, handoff_ms: f64) -> Picks {
        for (value, _) in self.worker_only.iter_mut().chain(&mut self.with_master) {
            *value += handoff_ms;
        }
        self
    }

    fn of(cell: &[GroupEval], objective: Objective, handoff_ms: f64) -> Picks {
        let mut picks = Picks::default();
        for &c in cell {
            picks.offer(objective, c);
        }
        picks.finish(handoff_ms)
    }
}

/// Appends `c`, the next candidate in option order, to a cell under
/// construction unless a listed candidate of its slot makes it unpickable,
/// and drops the listed candidates `c` makes unpickable. With `p` ahead of
/// `q` in option order, no reduction picks `q` when `p` is no slower, bills
/// its workers no more and (master slot) needs no more budget steps — `q`
/// ranks no better under any objective at any λ ≥ 0 and loses the tie —
/// and none picks `p` when `q` is *strictly* faster and no worse otherwise.
/// What stays keeps its order, so every reduction picks as it would over
/// the full list.
fn keep_undominated(cell: &mut Vec<GroupEval>, c: GroupEval) {
    let same_slot =
        |a: &GroupEval| (a.placement == Placement::Workers) == (c.placement == Placement::Workers);
    let no_worse = |a: &GroupEval, b: &GroupEval| {
        a.worker_billed_ms <= b.worker_billed_ms && a.budget_steps <= b.budget_steps
    };
    let beaten = |p: &GroupEval| same_slot(p) && p.latency_ms <= c.latency_ms && no_worse(p, &c);
    if cell.iter().any(beaten) {
        return;
    }
    cell.retain(|q| !(same_slot(q) && c.latency_ms < q.latency_ms && no_worse(&c, q)));
    cell.push(c);
}

/// The most Lagrangian probes [`DpPartitioner::cheapest_within`] makes
/// between its two end plans; each is one reduction of the built table.
const MAX_COST_PROBES: usize = 30;

/// The memory budget of a search, in bytes and in grid steps.
#[derive(Clone, Copy)]
struct Budget {
    bytes: u64,
    grid: u64,
    steps: usize,
}

impl DpPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: PartitionerConfig) -> Self {
        DpPartitioner {
            config,
            cache: None,
        }
    }

    /// Attaches a shared [`EvalCache`]: a group's candidates are looked up
    /// before computing and stored after, so repeated searches — under any
    /// objective — skip re-evaluating identical cells, and the model's
    /// FLOPs table is shared with the other planners on the cache. Plans
    /// are identical with or without a cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the planning objective (see [`PlanObjective`]).
    #[must_use]
    pub fn with_objective(mut self, objective: PlanObjective) -> Self {
        self.config.objective = objective;
        self
    }

    /// Fingerprint of the configuration knobs that shape a cell of the
    /// candidate table: the memory grid changes `budget_steps`, the degree
    /// set and master flag change the candidate space. The objective is not
    /// among them — it only decides how a cell is reduced.
    fn config_tag(&self) -> Vec<u64> {
        let mut tag: Vec<u64> = self.config.degrees.iter().map(|&d| d as u64).collect();
        tag.push(u64::from(self.config.allow_master_participation));
        tag.push(self.config.mem_grid_bytes.max(1));
        tag
    }

    fn budget(&self, perf: &PerfModel) -> Budget {
        let bytes = perf.platform.model_memory_budget;
        let grid = self.config.mem_grid_bytes.max(1);
        Budget {
            bytes,
            grid,
            steps: (bytes / grid) as usize,
        }
    }

    /// Finds the optimal plan for `model` on the platform behind `perf`
    /// under the configured [`PlanObjective`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when no plan fits the memory
    /// budget (a layer too large for any partitioning option), and
    /// propagates analysis errors.
    pub fn partition(&self, model: &LinearModel, perf: &PerfModel) -> Result<ExecutionPlan> {
        let objective = Objective::from(self.config.objective);
        let budget = self.budget(perf);
        let picks = if self.cache.is_some() {
            reduce(model, perf, &self.table(model, perf, budget), objective)
        } else {
            // One objective and nowhere to keep the table: reduce each cell
            // as its walk step finishes and list nothing.
            let flops = ModelFlops::new(model);
            self.columns(model.layers().len(), false, |j| {
                self.column(
                    model,
                    &flops,
                    j,
                    |_| None,
                    |i, walkers| {
                        let mut picks = Picks::default();
                        self.candidates(perf, walkers, budget, |c| picks.offer(objective, c));
                        picks.finish(objective.handoff_ms(model, perf, i))
                    },
                )
            })
        };
        search(model, &picks, objective, budget)
    }

    /// Finds the cheapest plan — by billed milliseconds — among those the
    /// search visits that `meets_slo` accepts, or `None` when it accepts
    /// none of them (it is asked about the latency-optimal plan last, so an
    /// SLO that plan misses has no answer here).
    ///
    /// The search is a Lagrangian relaxation of "minimize the bill subject
    /// to latency ≤ T" inside the DP: a cell's value becomes
    /// `billed worker ms + (1 + λ) · latency`, λ = 0 gives the cheapest
    /// plan outright and λ → ∞ the latency-optimal one. Starting from those
    /// two, each probe sets λ to the slope between the cheapest rejected
    /// and the latest accepted plan (the multiplier at which the two tie),
    /// reduces the already-built table once more, and replaces whichever
    /// end the new plan falls on, until no new plan appears. The result is
    /// a vertex of the cost–latency hull, so it can sit above the true
    /// optimum by a duality gap; `meets_slo` sees every plan with its
    /// [`predict_plan`] prediction, and only plans it accepted are
    /// returned. The configured [`PlanObjective`] plays no part. The
    /// result is a pure function of the arguments at any thread count and
    /// cache state.
    ///
    /// # Errors
    ///
    /// As [`DpPartitioner::partition`].
    pub fn cheapest_within(
        &self,
        model: &LinearModel,
        perf: &PerfModel,
        meets_slo: &dyn Fn(&ExecutionPlan, &PlanPrediction) -> bool,
    ) -> Result<Option<(ExecutionPlan, PlanPrediction)>> {
        let budget = self.budget(perf);
        let table = self.table(model, perf, budget);
        let plan_under = |objective| {
            search(
                model,
                &reduce(model, perf, &table, objective),
                objective,
                budget,
            )
        };
        let price = |plan: ExecutionPlan| -> Result<(ExecutionPlan, PlanPrediction)> {
            let predicted = match &self.cache {
                Some(cache) => predict_plan_cached(model, &plan, perf, cache)?,
                None => predict_plan(model, &plan, perf)?,
            };
            Ok((plan, predicted))
        };
        // Billed worker ms plus latency: the bill without the master's final
        // round-up, which is what the multiplier trades against latency.
        let granularity = perf.platform.billing_granularity_ms;
        let cost = |p: &PlanPrediction| {
            (p.billed_ms - billed_ms(p.latency_ms, granularity)) as f64 + p.latency_ms
        };

        let cheapest = price(plan_under(Objective::Cost { lambda: 0.0 })?)?;
        if meets_slo(&cheapest.0, &cheapest.1) {
            return Ok(Some(cheapest));
        }
        let fastest = price(plan_under(Objective::Latency)?)?;
        if !meets_slo(&fastest.0, &fastest.1) {
            return Ok(None);
        }
        let (mut rejected, mut accepted) = (cheapest, fastest);
        let mut best = accepted.clone();
        for _ in 0..MAX_COST_PROBES {
            let dearer = cost(&accepted.1) - cost(&rejected.1);
            let faster = rejected.1.latency_ms - accepted.1.latency_ms;
            if !(dearer > 0.0 && faster > 0.0) {
                break;
            }
            let plan = plan_under(Objective::Cost {
                lambda: dearer / faster,
            })?;
            if plan == rejected.0 || plan == accepted.0 {
                break;
            }
            let probe = price(plan)?;
            if meets_slo(&probe.0, &probe.1) {
                if probe.1.billed_ms < best.1.billed_ms {
                    best = probe.clone();
                }
                accepted = probe;
            } else {
                rejected = probe;
            }
        }
        Ok(Some(best))
    }

    /// Start of the longest group ending at `j` that the search considers.
    fn shortest_start(&self, j: usize) -> usize {
        self.config.max_group_len.map_or(0, |l| j.saturating_sub(l))
    }

    /// The candidate table: `table[j - 1][j - 1 - i]` lists the candidates
    /// of group `i..j`, read from the attached cache where it has them and
    /// stored there where it has not.
    fn table(&self, model: &LinearModel, perf: &PerfModel, budget: Budget) -> Vec<Vec<Cell>> {
        let n = model.layers().len();
        let flops = match &self.cache {
            Some(cache) => cache.flops(model),
            None => Arc::new(ModelFlops::new(model)),
        };
        // The cache with this search's key into its cell table.
        let cache = self
            .cache
            .as_deref()
            .map(|c| (c, EvalCache::eval_key(model, perf, &self.config_tag())));
        // A search finishes every column, so a cache that holds the last
        // column's longest group holds the whole table: n² lookups, which
        // a pool batch would only slow down.
        let warm = n > 0
            && cache.is_some_and(|(c, key)| {
                c.choice(key, self.shortest_start(n), n, budget.bytes)
                    .is_some()
            });
        self.columns(n, warm, |j| {
            self.column(
                model,
                &flops,
                j,
                |i| cache.and_then(|(c, key)| c.choice(key, i, j, budget.bytes)),
                |i, walkers| {
                    let mut cell = Vec::new();
                    self.candidates(perf, walkers, budget, |c| keep_undominated(&mut cell, c));
                    let cell = Cell::from(cell);
                    if let Some((c, key)) = cache {
                        c.store_choice(key, i, j, budget.bytes, Cell::clone(&cell));
                    }
                    cell
                },
            )
        })
    }

    /// Runs `column(j)` for `j` in `1..=n` and returns the results with
    /// column `j` at index `j - 1`. A column is one task: its groups share
    /// an end, so one backward walk analyzes them all. The longest columns
    /// are claimed first to keep the pool's tail short.
    fn columns<T: Send>(
        &self,
        n: usize,
        sequential: bool,
        column: impl Fn(usize) -> Vec<T> + Sync,
    ) -> Vec<Vec<T>> {
        let threads = gillis_pool::kernel_threads();
        let mut columns: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        let longest_first = columns.iter_mut().enumerate().rev();
        let fill = |(i, slot): (usize, &mut Vec<T>)| *slot = column(i + 1);
        if threads <= 1 || sequential {
            longest_first.for_each(fill);
        } else {
            gillis_pool::Pool::global().for_each_item(longest_first, fill);
        }
        columns
    }

    /// Column `j` of a table: one entry per group `i..j`, at index
    /// `j - 1 - i` — `lookup(i)` where it answers, else `cell(i, walkers)`
    /// with one walker per option of the group, in [`group_options`] order.
    /// Each option's analysis is carried from `i + 1..j` to `i..j` by one
    /// [`GroupWalker`] step, so the column costs one backward walk per
    /// option rather than one per group.
    fn column<T>(
        &self,
        model: &LinearModel,
        flops: &ModelFlops,
        j: usize,
        lookup: impl Fn(usize) -> Option<T>,
        mut cell: impl FnMut(usize, &[GroupWalker]) -> T,
    ) -> Vec<T> {
        let shortest = self.shortest_start(j);
        // Over square layers a `Width` walker equals its `Height` twin field
        // for field (one receptive field serves both axes) and loses every
        // tie to it: build none where every layer a spatial walker reaches
        // is square.
        let square = |s: &gillis_tensor::Shape| s.dims()[1] == s.dims()[2];
        let reach = model.layers()[shortest..j].iter().rev();
        let mut spatial = reach.take_while(|l| l.class.supports_spatial());
        let skip = spatial.all(|l| square(&l.in_shape) && square(&l.out_shape));
        let skip = skip.then_some(PartDim::Width);
        // Every longer group's options are among the last layer's own.
        let mut walkers: Vec<GroupWalker> = group_options(model, j - 1, j, &self.config.degrees)
            .into_iter()
            .filter(|o| !matches!(o, PartitionOption::Split { dim, .. } if Some(*dim) == skip))
            .map(|option| GroupWalker::new(&model.layers()[..j], flops.layers(0, j), option))
            .collect();
        let mut column = Vec::with_capacity(j - shortest);
        for i in (shortest..j).rev() {
            if let Some(hit) = lookup(i) {
                column.push(hit);
                continue;
            }
            // Catch up to `i` (looked-up cells were skipped). An option that
            // stops applying here applies to no longer group either.
            walkers.retain_mut(|w| (w.len()..j - i).all(|_| w.extend().is_ok()));
            column.push(cell(i, &walkers));
        }
        column
    }

    /// Algorithm 1's evaluation loop: hands `sink` the candidates of the
    /// group the walkers stand on, in option order — each option that fits
    /// a function worker-only, then (when the master may participate) with
    /// partition 0 in the master, whose budget requirement is that
    /// partition's weight bytes. One pass over an option's partitions
    /// prices both placements.
    fn candidates(
        &self,
        perf: &PerfModel,
        walkers: &[GroupWalker],
        budget: Budget,
        mut sink: impl FnMut(GroupEval),
    ) {
        for walker in walkers {
            let analysis = walker.analysis();
            let option = analysis.option;
            // Partition too large to fit into any function: skip option.
            if analysis.max_partition_mem() > budget.bytes {
                continue;
            }
            let cost = group_cost(perf, analysis);
            let mut evaluate = |placement, budget_steps| {
                let (latency_ms, worker_billed_ms) = cost(placement);
                sink(GroupEval {
                    latency_ms,
                    option,
                    placement,
                    budget_steps,
                    worker_billed_ms,
                });
            };
            evaluate(Placement::Workers, 0);
            if self.config.allow_master_participation {
                let placement = if option.parts() == 1 {
                    Placement::Master
                } else {
                    Placement::MasterAndWorkers
                };
                let steps = analysis.partitions[0].weight_bytes.div_ceil(budget.grid);
                evaluate(placement, steps as usize);
            }
        }
    }
}

/// Reduces every cell of a table under `objective`.
fn reduce(
    model: &LinearModel,
    perf: &PerfModel,
    table: &[Vec<Cell>],
    objective: Objective,
) -> Vec<Vec<Picks>> {
    table
        .iter()
        .enumerate()
        .map(|(end, column)| {
            column
                .iter()
                .enumerate()
                .map(|(k, cell)| {
                    Picks::of(cell, objective, objective.handoff_ms(model, perf, end - k))
                })
                .collect()
        })
        .collect()
}

/// The recursion over a reduced table, and the plan it reconstructs.
fn search(
    model: &LinearModel,
    picks: &[Vec<Picks>],
    objective: Objective,
    budget: Budget,
) -> Result<ExecutionPlan> {
    let n = picks.len();
    let steps = budget.steps;
    // best[j][m]: best score for layers 0..j with m grid steps of master
    // budget; back[j][m] records the chosen last group as its start and
    // whether it took its cell's master pick. A score is the lexicographic
    // pair (Σ value, 0), or (max stage time, Σ stage time) under the
    // pipeline objective — the second component breaks bottleneck ties
    // toward the smaller pipeline-fill latency.
    let bottleneck = matches!(objective, Objective::PipelineBottleneck);
    let extend = |prev: (f64, f64), value: f64| {
        if bottleneck {
            (prev.0.max(value), prev.1 + value)
        } else {
            (prev.0 + value, 0.0)
        }
    };
    const INF: f64 = f64::INFINITY;
    let mut best = vec![vec![(INF, INF); steps + 1]; n + 1];
    let mut back: Vec<Vec<Option<(u32, bool)>>> = vec![vec![None; steps + 1]; n + 1];
    best[0].fill((0.0, 0.0));
    for j in 1..=n {
        let (done, rest) = best.split_at_mut(j);
        let (best_j, back_j) = (&mut rest[0], &mut back[j]);
        // Starts in ascending order, worker-only before master: at equal
        // scores the first offer to an `m` stands.
        for (k, cell) in picks[j - 1].iter().enumerate().rev() {
            let i = j - 1 - k;
            // Offers a pick to every budget `m` it fits: its score there
            // extends the prefix's score at `m - shift`.
            let mut offer = |value: f64, shift: usize, master: bool| {
                let from = shift.min(steps + 1);
                let slots = best_j[from..].iter_mut().zip(&mut back_j[from..]);
                for (prev, (best, back)) in done[i].iter().zip(slots) {
                    if prev.0.is_finite() {
                        let cand = extend(*prev, value);
                        if cand < *best {
                            *best = cand;
                            *back = Some((i as u32, master));
                        }
                    }
                }
            };
            if let Some((value, _)) = cell.worker_only {
                offer(value, 0, false);
            }
            if let Some((value, c)) = cell.with_master {
                offer(value, c.budget_steps, true);
            }
        }
    }

    if n > 0 && !best[n][steps].0.is_finite() {
        return Err(CoreError::Infeasible(format!(
            "no partitioning of {} fits the {}-byte budget",
            model.name(),
            budget.bytes
        )));
    }

    // Reconstruct.
    let mut groups = Vec::new();
    let (mut j, mut m) = (n, steps);
    while j > 0 {
        let (i, choice) = back[j][m]
            .and_then(|(i, master)| {
                let cell = &picks[j - 1][j - 1 - i as usize];
                let (_, c) = if master {
                    cell.with_master
                } else {
                    cell.worker_only
                }?;
                Some((i as usize, c))
            })
            .ok_or_else(|| CoreError::Infeasible("broken backpointer".into()))?;
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
    // Adjacent master-resident groups are an artifact of the recursion
    // boundaries, not a serving decision: coalesce them. Under the pipeline
    // objective they are deliberate stage boundaries (merging would grow
    // the bottleneck), so keep them.
    let plan = match objective {
        Objective::PipelineBottleneck => ExecutionPlan::new(groups),
        Objective::Latency | Objective::Cost { .. } => {
            ExecutionPlan::new(groups).coalesce_master_runs()
        }
    };
    plan.validate(model, budget.bytes)?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::analyze_group_with;
    use crate::predict::{predict_group, predict_plan};
    use gillis_faas::PlatformProfile;
    use gillis_model::zoo;
    use proptest::prelude::*;

    fn perf(platform: &PlatformProfile) -> PerfModel {
        PerfModel::analytic(platform)
    }

    /// Four 3×3 convolutions over a `3 × h × w` input, then a classifier.
    fn conv_chain(h: usize, w: usize) -> LinearModel {
        use gillis_model::{Graph, LayerOp};
        let conv = |out_channels| LayerOp::Conv2d {
            out_channels,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut g = Graph::new();
        let shape = gillis_tensor::Shape::new(vec![3, h, w]);
        let mut cur = g.add("input", LayerOp::Input { shape }, &[]).unwrap();
        for (i, channels) in [128, 256, 256, 512].into_iter().enumerate() {
            cur = g.add(format!("conv{i}"), conv(channels), &[cur]).unwrap();
            cur = g.add(format!("relu{i}"), LayerOp::Relu, &[cur]).unwrap();
        }
        cur = g.add("gap", LayerOp::GlobalAvgPool, &[cur]).unwrap();
        cur = g.add("flatten", LayerOp::Flatten, &[cur]).unwrap();
        g.add("fc", LayerOp::Dense { out_features: 10 }, &[cur])
            .unwrap();
        gillis_model::merge::merge_graph(format!("conv-chain-{h}x{w}"), g).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn dp_plans_invariant_to_threads_and_cache(
            (model_idx, grid_shift, degree_mask) in (0usize..4, 0u32..3, 1usize..8),
            (h, w) in (2usize..9, 2usize..9),
        ) {
            let zoo_model = match model_idx {
                0 => zoo::tiny_vgg(),
                1 => zoo::vgg11(),
                2 => zoo::rnn(6),
                _ => zoo::mobilenet(),
            };
            // A chain over a mostly non-square input: its groups build
            // `Width` walkers, which no catalog model does.
            for model in [zoo_model, conv_chain(8 * h, 8 * w)] {
                dp_plan_is_invariant_to_threads_and_cache(&model, grid_shift, degree_mask)?;
            }
        }
    }

    fn dp_plan_is_invariant_to_threads_and_cache(
        model: &LinearModel,
        grid_shift: u32,
        degree_mask: usize,
    ) -> proptest::TestCaseResult {
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
        let search = |width| {
            gillis_pool::with_width_cap(width, || {
                DpPartitioner::new(config.clone()).partition(model, &perf)
            })
        };
        let serial = search(1).unwrap();
        let threaded = search(8).unwrap();
        prop_assert_eq!(&serial, &threaded);

        let cache = Arc::new(EvalCache::new());
        let cold = DpPartitioner::new(config.clone())
            .with_cache(Arc::clone(&cache))
            .partition(model, &perf)
            .unwrap();
        prop_assert_eq!(&serial, &cold);
        // Warm cache (and a different width): identical plan, and every DP
        // cell answers from the cache.
        let warm = gillis_pool::with_width_cap(8, || {
            DpPartitioner::new(config)
                .with_cache(Arc::clone(&cache))
                .partition(model, &perf)
        })
        .unwrap();
        prop_assert_eq!(&serial, &warm);
        prop_assert!(cache.stats().hits > 0);
        Ok(())
    }

    /// The candidate table as Algorithm 1 states it, with none of the
    /// search's shortcuts: every [`group_options`] option of every group
    /// analysed on its own, both placements priced by [`predict_group`],
    /// folded in option order by [`keep_undominated`]. Indexed as
    /// [`DpPartitioner::table`].
    fn reference_table(model: &LinearModel, perf: &PerfModel) -> Vec<Vec<Vec<GroupEval>>> {
        let dp = DpPartitioner::default();
        let budget = dp.budget(perf);
        let flops = ModelFlops::new(model);
        let granularity = perf.platform.billing_granularity_ms;
        let cell = |i: usize, j: usize| {
            let mut cell = Vec::new();
            for option in group_options(model, i, j, &dp.config.degrees) {
                let analysis = analyze_group_with(model, &flops, i, j, option).unwrap();
                if analysis.max_partition_mem() > budget.bytes {
                    continue;
                }
                let master = if option.parts() == 1 {
                    Placement::Master
                } else {
                    Placement::MasterAndWorkers
                };
                let steps = analysis.partitions[0].weight_bytes.div_ceil(budget.grid);
                for (placement, budget_steps) in [(Placement::Workers, 0), (master, steps as usize)]
                {
                    let g = predict_group(perf, &analysis, placement);
                    let billed = g.worker_ms.iter().map(|&w| billed_ms(w, granularity));
                    let c = GroupEval {
                        latency_ms: g.latency_ms(),
                        option,
                        placement,
                        budget_steps,
                        worker_billed_ms: billed.sum(),
                    };
                    keep_undominated(&mut cell, c);
                }
            }
            cell
        };
        let n = model.layers().len();
        (1..=n)
            .map(|j| (0..j).rev().map(|i| cell(i, j)).collect())
            .collect()
    }

    #[test]
    fn the_table_holds_every_distinct_candidate_of_every_catalog_group() {
        let mut models = crate::partition::tests::catalog();
        models.push(conv_chain(32, 128));
        for platform in [
            PlatformProfile::aws_lambda(),
            PlatformProfile::gcf(),
            PlatformProfile::knix(),
        ] {
            let perf = perf(&platform);
            for model in &models {
                let dp = DpPartitioner::default();
                let table = dp.table(model, &perf, dp.budget(&perf));
                let expected = reference_table(model, &perf);
                assert_eq!(table.len(), expected.len());
                for (j, (column, want)) in (1..).zip(table.iter().zip(&expected)) {
                    assert_eq!(column.len(), want.len());
                    for (i, (cell, want)) in (0..j).rev().zip(column.iter().zip(want)) {
                        let at = format!("{} on {} {i}..{j}", model.name(), platform.kind.label());
                        assert_eq!(&cell[..], &want[..], "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_wide_input_is_split_along_its_width() {
        // On a 32×128 input a `Width` split cuts the long axis: the same
        // degree leaves each piece a wider slab and a smaller halo share.
        let perf = perf(&PlatformProfile::aws_lambda());
        let model = conv_chain(32, 128);
        let dp = DpPartitioner::default();
        let plan = dp.partition(&model, &perf).unwrap();
        // `Wx16`, `Hx8`: an option's text names its dimension first.
        let along = |dim: char, o: PartitionOption| o.to_string().starts_with(dim);
        let wide: Vec<_> = plan
            .groups()
            .iter()
            .filter(|g| along('W', g.option))
            .collect();
        assert!(!wide.is_empty(), "{}", plan.to_text());
        let flops = ModelFlops::new(&model);
        let latency = |g: &PlannedGroup, option, placement| {
            let analysis = analyze_group_with(&model, &flops, g.start, g.end, option).unwrap();
            predict_group(&perf, &analysis, placement).latency_ms()
        };
        for g in wide {
            let chosen = latency(g, g.option, g.placement);
            let options = group_options(&model, g.start, g.end, &dp.config.degrees);
            for option in options.into_iter().filter(|&o| along('H', o)) {
                for placement in [Placement::Workers, Placement::MasterAndWorkers] {
                    let height = latency(g, option, placement);
                    assert!(
                        chosen < height,
                        "{option} {placement:?}: {chosen} vs {height}"
                    );
                }
            }
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

        // The best latency over every segmentation from layer `start` on
        // (n is small), each group under every option and placement that
        // fits the memory budget.
        fn enumerate(
            model: &LinearModel,
            perf: &PerfModel,
            config: &PartitionerConfig,
            budget: u64,
            start: usize,
            master_used: u64,
            latency: f64,
        ) -> f64 {
            let n = model.layers().len();
            if start == n {
                return latency;
            }
            let mut best = f64::INFINITY;
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
                        let rest = enumerate(
                            model,
                            perf,
                            config,
                            budget,
                            end,
                            master_used + used,
                            latency + g.latency_ms(),
                        );
                        best = best.min(rest);
                    }
                }
            }
            best
        }
        let budget = platform.model_memory_budget;
        let best = enumerate(&tiny, &perf, &config, budget, 0, 0, 0.0);
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
    fn a_cell_drops_only_candidates_no_objective_can_pick() {
        let eval =
            |latency_ms: f64, worker_billed_ms: u64, parts: usize, master: usize| GroupEval {
                latency_ms,
                option: PartitionOption::Split {
                    dim: crate::partition::PartDim::Height,
                    parts,
                },
                placement: if master > 0 {
                    Placement::MasterAndWorkers
                } else {
                    Placement::Workers
                },
                budget_steps: master,
                worker_billed_ms,
            };
        let all = [
            eval(10.0, 40, 2, 0),
            eval(10.0, 50, 3, 0), // as fast as the first but dearer: loses the tie, dropped
            eval(10.0, 35, 3, 0), // as fast and cheaper: stays, behind it
            eval(12.0, 45, 4, 0), // slower and dearer than the first: dropped
            eval(12.0, 30, 6, 0), // slower but cheaper: stays
            eval(9.0, 20, 2, 3),  // master slot: never compared with the above
            eval(8.0, 20, 4, 5),  // faster, but needs more budget: both stay
            eval(7.0, 38, 8, 0),  // drops the 10 ms / 40 one, not the cheaper two
        ];
        let mut cell = Vec::new();
        for c in all {
            keep_undominated(&mut cell, c);
        }
        let kept: Vec<usize> = cell.iter().map(|c| c.option.parts()).collect();
        assert_eq!(kept, [3, 6, 2, 4, 8]);
        // The full list reduces to the same picks under every objective.
        for (objective, worker_only) in [
            (Objective::Latency, 8),
            (Objective::PipelineBottleneck, 8),
            (Objective::Cost { lambda: 0.0 }, 6),
            (Objective::Cost { lambda: 7.5 }, 8),
        ] {
            let picks = Picks::of(&cell, objective, 1.0);
            let full = Picks::of(&all, objective, 1.0);
            assert_eq!(picks.worker_only, full.worker_only, "{objective:?}");
            assert_eq!(picks.with_master, full.with_master, "{objective:?}");
            let (_, c) = picks.worker_only.unwrap();
            assert_eq!(c.option.parts(), worker_only, "{objective:?}");
        }
    }

    #[test]
    fn one_table_serves_every_search_on_a_cache() {
        let perf = perf(&PlatformProfile::aws_lambda());
        let vgg = zoo::vgg16();
        let lone = Arc::new(EvalCache::new());
        let lo = DpPartitioner::default()
            .with_cache(Arc::clone(&lone))
            .partition(&vgg, &perf)
            .unwrap();
        let cells = lone.stats().choices;
        let t_max = 1.25 * predict_plan(&vgg, &lo, &perf).unwrap().latency_ms;

        let shared = Arc::new(EvalCache::new());
        let dp = DpPartitioner::default().with_cache(Arc::clone(&shared));
        let pipeline = dp
            .clone()
            .with_objective(PlanObjective::PipelineBottleneck)
            .partition(&vgg, &perf)
            .unwrap();
        let built = shared.stats().misses;
        assert_eq!(dp.partition(&vgg, &perf).unwrap(), lo);
        let (cheap, pred) = dp
            .cheapest_within(&vgg, &perf, &|_, pred| pred.latency_ms <= t_max)
            .unwrap()
            .unwrap();
        assert!(
            cheap != lo && cheap != pipeline,
            "three objectives, three plans"
        );
        assert!(pred.latency_ms <= t_max);
        // Neither the second objective nor the sweep's multipliers built or
        // stored a cell (the sweep's predictions do look up group analyses).
        assert_eq!(shared.stats().choices, cells);
        assert_eq!(
            shared.stats().misses - built,
            shared.stats().analyses as u64
        );
    }

    #[test]
    fn cheapest_within_returns_only_plans_the_predicate_accepted() {
        let perf = perf(&PlatformProfile::aws_lambda());
        let vgg = zoo::vgg11();
        let dp = DpPartitioner::default();
        let lo = predict_plan(&vgg, &dp.partition(&vgg, &perf).unwrap(), &perf).unwrap();
        let within =
            |t_max: f64| move |_: &ExecutionPlan, pred: &PlanPrediction| pred.latency_ms <= t_max;

        // No SLO to speak of: the cheapest plan outright, asked about once.
        let asked = std::cell::Cell::new(0);
        let (_, cheapest) = dp
            .cheapest_within(&vgg, &perf, &|_, _| {
                asked.set(asked.get() + 1);
                true
            })
            .unwrap()
            .unwrap();
        assert_eq!(asked.get(), 1);
        // Tighter SLOs cost more, never more than the latency-optimal plan.
        let mut previous = cheapest.billed_ms;
        for slack in [2.0, 1.5, 1.25, 1.0] {
            let (plan, pred) = dp
                .cheapest_within(&vgg, &perf, &within(slack * lo.latency_ms))
                .unwrap()
                .unwrap();
            assert!(pred.latency_ms <= slack * lo.latency_ms, "{slack}");
            assert_eq!(pred, predict_plan(&vgg, &plan, &perf).unwrap());
            assert!(
                (previous..=lo.billed_ms).contains(&pred.billed_ms),
                "{slack}"
            );
            previous = pred.billed_ms;
        }
        // An SLO the latency-optimal plan misses has no answer.
        let none = dp.cheapest_within(&vgg, &perf, &within(0.99 * lo.latency_ms));
        assert_eq!(none.unwrap(), None);
        // A predicate that is not monotone in the multiplier — it turns down
        // the cheap end and the latency-optimal plan's neighbourhood alike —
        // still gets back only a plan it accepted, or nothing.
        let band = |_: &ExecutionPlan, pred: &PlanPrediction| {
            pred.latency_ms <= 2.0 * lo.latency_ms && pred.billed_ms.is_multiple_of(2)
        };
        if let Some((plan, pred)) = dp.cheapest_within(&vgg, &perf, &band).unwrap() {
            assert!(band(&plan, &pred));
        }
        let odd_lo = |_: &ExecutionPlan, pred: &PlanPrediction| {
            pred.latency_ms <= 1.5 * lo.latency_ms || pred.billed_ms == lo.billed_ms
        };
        let (plan, pred) = dp.cheapest_within(&vgg, &perf, &odd_lo).unwrap().unwrap();
        assert!(odd_lo(&plan, &pred));
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
        let platform = PlatformProfile {
            model_memory_budget: 1024, // 1 KB: nothing fits
            ..PlatformProfile::aws_lambda()
        };
        let perf = perf(&platform);
        let err = DpPartitioner::default().partition(&zoo::tiny_vgg(), &perf);
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
