//! Brute-force optimal search (paper §V-C baseline).
//!
//! Enumerates every (grouping, option, placement) plan by depth-first search
//! with branch-and-bound pruning: partial latency above the SLO or partial
//! cost above the incumbent kills a branch. The paper applies brute force
//! only to VGG-11 — "which still takes over 24 hours" on their menu; with
//! pruning and a configurable node cap it is tractable here for small
//! models and coarse menus.

use std::sync::Arc;

use gillis_core::cache::EvalCache;
use gillis_core::partition::{group_options, GroupAnalysis, PartitionOption};
use gillis_core::plan::{ExecutionPlan, Placement, PlannedGroup};
use gillis_core::predict::{self, predict_plan_cached, PlanPrediction};
use gillis_core::CoreError;
use gillis_faas::billing::billed_ms;
use gillis_model::LinearModel;
use gillis_perf::PerfModel;

use crate::Result;

/// Outcome of the exhaustive search.
#[derive(Debug, Clone)]
pub struct BruteForceResult {
    /// The cost-optimal plan meeting the SLO.
    pub plan: ExecutionPlan,
    /// Its prediction.
    pub predicted: PlanPrediction,
    /// Search nodes expanded.
    pub nodes_expanded: u64,
    /// Whether the node cap truncated the search (result may be
    /// suboptimal).
    pub truncated: bool,
}

struct Search<'a> {
    model: &'a LinearModel,
    perf: &'a PerfModel,
    t_max_ms: f64,
    degrees: Vec<usize>,
    budget: u64,
    max_nodes: u64,
    nodes: u64,
    best_cost: f64,
    best: Option<Vec<PlannedGroup>>,
    /// (analysis, latency, worker billed) memo per (start, end, option).
    memo: std::collections::HashMap<(usize, usize, PartitionOption, Placement), (f64, f64)>,
    /// Group analyses shared with the DP incumbent seeding.
    cache: Arc<EvalCache>,
}

/// Exhaustively finds the cheapest plan whose predicted mean latency meets
/// the SLO.
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] when no plan meets the SLO (or the
/// model has no layers).
pub fn brute_force(
    model: &LinearModel,
    perf: &PerfModel,
    t_max_ms: f64,
    degrees: &[usize],
    max_nodes: u64,
) -> Result<BruteForceResult> {
    // Branch-and-bound needs a good incumbent to prune effectively: seed
    // with the cheaper of the latency-optimal DP plan, when it meets the
    // SLO, and the DP's cheapest plan within the SLO over this search's own
    // degrees — a plan of the space searched, so the search remains exact
    // when it completes un-truncated.
    let cache = Arc::new(EvalCache::new());
    let within_slo = |_: &ExecutionPlan, pred: &PlanPrediction| pred.latency_ms <= t_max_ms;
    let latency_optimal = gillis_core::DpPartitioner::default()
        .with_cache(Arc::clone(&cache))
        .partition(model, perf)
        .ok()
        .and_then(|plan| {
            let pred = predict_plan_cached(model, &plan, perf, &cache).ok()?;
            within_slo(&plan, &pred).then_some((plan, pred))
        });
    let cheapest = gillis_core::DpPartitioner::new(gillis_core::PartitionerConfig {
        degrees: degrees.to_vec(),
        ..Default::default()
    })
    .with_cache(Arc::clone(&cache))
    .cheapest_within(model, perf, &within_slo)
    .ok()
    .flatten();
    let incumbent = latency_optimal
        .into_iter()
        .chain(cheapest)
        .min_by_key(|(_, pred)| pred.billed_ms)
        .map(|(plan, pred)| (pred.billed_ms as f64, plan.groups().to_vec()));
    let mut search = Search {
        model,
        perf,
        t_max_ms,
        degrees: degrees.to_vec(),
        budget: perf.platform.model_memory_budget,
        max_nodes,
        nodes: 0,
        best_cost: incumbent.as_ref().map(|(c, _)| *c).unwrap_or(f64::INFINITY),
        best: incumbent.map(|(_, g)| g),
        memo: std::collections::HashMap::new(),
        cache: Arc::clone(&cache),
    };
    let mut prefix = Vec::new();
    search.dfs(0, 0, 0.0, 0.0, &mut prefix)?;
    let truncated = search.nodes >= search.max_nodes;
    match search.best {
        Some(groups) => {
            let plan = ExecutionPlan::new(groups);
            let predicted = predict_plan_cached(model, &plan, perf, &cache)?;
            Ok(BruteForceResult {
                plan,
                predicted,
                nodes_expanded: search.nodes,
                truncated,
            })
        }
        None => Err(CoreError::Infeasible(format!(
            "no plan meets the {t_max_ms} ms SLO (explored {} nodes)",
            search.nodes
        ))),
    }
}

impl Search<'_> {
    /// Group timing: `(group latency, billed worker cost)`, memoized.
    fn group_cost(
        &mut self,
        start: usize,
        end: usize,
        option: PartitionOption,
        placement: Placement,
        analysis: &GroupAnalysis,
    ) -> (f64, f64) {
        if let Some(&v) = self.memo.get(&(start, end, option, placement)) {
            return v;
        }
        let (latency, workers) = predict::group_cost(self.perf, analysis)(placement);
        let v = (latency, workers as f64);
        self.memo.insert((start, end, option, placement), v);
        v
    }

    fn dfs(
        &mut self,
        start: usize,
        master_used: u64,
        latency: f64,
        worker_cost: f64,
        prefix: &mut Vec<PlannedGroup>,
    ) -> Result<()> {
        let n = self.model.layers().len();
        if self.nodes >= self.max_nodes {
            return Ok(());
        }
        self.nodes += 1;
        if start == n {
            if n == 0 {
                return Ok(());
            }
            let d = self.perf.platform.billing_granularity_ms;
            let total = worker_cost + billed_ms(latency, d) as f64;
            if latency <= self.t_max_ms && total < self.best_cost {
                self.best_cost = total;
                self.best = Some(prefix.clone());
            }
            return Ok(());
        }
        // Lower bound on final cost: current workers + master billed so far.
        let d = self.perf.platform.billing_granularity_ms;
        let cost_lb = worker_cost + billed_ms(latency, d) as f64;
        if latency > self.t_max_ms || cost_lb >= self.best_cost {
            return Ok(());
        }
        let degrees = self.degrees.clone();
        for end in start + 1..=n {
            let options = group_options(self.model, start, end, &degrees);
            if options.is_empty() {
                break;
            }
            for option in options {
                let analysis = match self.cache.analysis(self.model, start, end, option) {
                    Ok(a) => a,
                    Err(_) => continue,
                };
                if analysis
                    .partitions
                    .iter()
                    .any(|p| p.mem_bytes() > self.budget)
                {
                    continue;
                }
                let w0 = analysis.partitions[0].weight_bytes;
                // Master participation first: cheaper plans earlier means
                // tighter pruning bounds sooner.
                let mut placements = Vec::with_capacity(2);
                if master_used + w0 <= self.budget {
                    placements.push(if option.parts() == 1 {
                        Placement::Master
                    } else {
                        Placement::MasterAndWorkers
                    });
                }
                placements.push(Placement::Workers);
                for placement in placements {
                    let (glat, gworkers) =
                        self.group_cost(start, end, option, placement, &analysis);
                    let used = if placement == Placement::Workers {
                        0
                    } else {
                        w0
                    };
                    prefix.push(PlannedGroup {
                        start,
                        end,
                        option,
                        placement,
                    });
                    self.dfs(
                        end,
                        master_used + used,
                        latency + glat,
                        worker_cost + gworkers,
                        prefix,
                    )?;
                    prefix.pop();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillis_core::predict::predict_plan;
    use gillis_faas::PlatformProfile;
    use gillis_model::zoo;

    #[test]
    fn brute_force_finds_single_function_under_loose_slo() {
        // With a loose SLO, the cheapest plan for a small model is
        // single-function serving (no worker billing at all).
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = zoo::tiny_vgg();
        let single = predict_plan(&tiny, &ExecutionPlan::single_function(&tiny), &perf).unwrap();
        let result =
            brute_force(&tiny, &perf, single.latency_ms * 5.0, &[2, 4], 2_000_000).unwrap();
        assert!(!result.truncated);
        assert!(result.predicted.billed_ms <= single.billed_ms);
        assert!(result.predicted.latency_ms <= single.latency_ms * 5.0);
    }

    #[test]
    fn brute_force_is_at_least_as_good_as_any_random_plan() {
        use crate::random::random_plan;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = zoo::tiny_vgg();
        let t_max = 300.0;
        let result = brute_force(&tiny, &perf, t_max, &[2, 4], 2_000_000).unwrap();
        assert!(!result.truncated);
        let (mut rng, cache) = (StdRng::seed_from_u64(5), EvalCache::new());
        let budget = perf.platform.model_memory_budget;
        for _ in 0..40 {
            let plan = random_plan(&tiny, budget, &[2, 4], &cache, &mut rng).unwrap();
            let pred = predict_plan(&tiny, &plan, &perf).unwrap();
            if pred.latency_ms <= t_max {
                assert!(
                    result.predicted.billed_ms <= pred.billed_ms,
                    "bf {} beaten by random {}",
                    result.predicted.billed_ms,
                    pred.billed_ms
                );
            }
        }
    }

    #[test]
    fn the_dp_seed_prunes_the_search_without_moving_the_optimum() {
        // VGG-11 on Lambda at twice the latency-optimal latency. Seeded with
        // the latency-optimal plan alone (1118 billed ms) the search found
        // 562 billed ms after 14,456,743 nodes; the DP's cheapest in-space
        // plan within the SLO is already that optimum, so the same search
        // now only proves it.
        let perf = PerfModel::analytic(&PlatformProfile::aws_lambda());
        let vgg = zoo::vgg11();
        let lo = gillis_core::DpPartitioner::default()
            .partition(&vgg, &perf)
            .unwrap();
        let t_max = 2.0 * predict_plan(&vgg, &lo, &perf).unwrap().latency_ms;
        let result = brute_force(&vgg, &perf, t_max, &[2, 4, 8, 16], 14_456_743).unwrap();
        assert!(!result.truncated);
        assert_eq!(result.predicted.billed_ms, 562);
        assert!(result.predicted.latency_ms <= t_max);
        assert!(
            result.nodes_expanded < 7_000_000,
            "{}",
            result.nodes_expanded
        );
    }

    #[test]
    fn impossible_slo_is_infeasible() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = zoo::tiny_vgg();
        assert!(matches!(
            brute_force(&tiny, &perf, 0.001, &[2], 100_000),
            Err(CoreError::Infeasible(_))
        ));
    }

    #[test]
    fn node_cap_truncates_gracefully() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        // A tiny cap: either truncates with some plan or reports infeasible.
        match brute_force(&vgg, &perf, 5000.0, &[2, 4, 8], 2_000) {
            Ok(r) => assert!(r.truncated || r.nodes_expanded <= 2_000),
            Err(CoreError::Infeasible(_)) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
