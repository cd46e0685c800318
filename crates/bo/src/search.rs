//! Cherrypick-style Bayesian optimization over partitioning strategies
//! (paper §V-C baseline).
//!
//! The objective is the billed inference cost with an SLO-violation penalty;
//! a Gaussian process models it over encoded plans, and each iteration
//! evaluates the random candidate maximizing expected improvement. Unlike
//! Gillis's RL, the GP treats the system as a black box — it does not use
//! the performance model's structure, which is exactly why the paper finds
//! it weaker.

use rand::rngs::StdRng;
use rand::SeedableRng;

use gillis_core::cache::EvalCache;
use gillis_core::plan::ExecutionPlan;
use gillis_core::predict::{predict_plan_cached, PlanPrediction};
use gillis_core::CoreError;
use gillis_model::LinearModel;
use gillis_perf::PerfModel;

use crate::ei::expected_improvement;
use crate::gp::Gp;
use crate::random::{encode_plan, random_plan};
use crate::Result;

/// Initial random design size.
const INIT_SAMPLES: usize = 10;
/// Random candidates scored by EI per iteration.
const CANDIDATE_POOL: usize = 64;
/// Penalty (per ms of violation) added to the objective for plans missing
/// the SLO.
const VIOLATION_PENALTY: f64 = 10.0;
/// Parallelism degrees for random plans.
const DEGREES: [usize; 4] = [2, 4, 8, 16];

/// Configuration of the BO baseline.
#[derive(Debug, Clone)]
pub struct BoConfig {
    /// Mean-latency SLO in milliseconds.
    pub t_max_ms: f64,
    /// BO iterations after the initial design.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            t_max_ms: 1000.0,
            iterations: 50,
            seed: 0,
        }
    }
}

/// Result of a BO run.
#[derive(Debug, Clone)]
pub struct BoResult {
    /// Best plan found (feasible if any candidate met the SLO).
    pub plan: ExecutionPlan,
    /// Its prediction.
    pub predicted: PlanPrediction,
    /// Whether the best plan meets the SLO — the paper observes BO
    /// sometimes fails to (Fig 13).
    pub meets_slo: bool,
    /// Objective value per evaluation (search curve).
    pub objective_history: Vec<f64>,
}

/// The Bayesian-optimization searcher.
#[derive(Debug, Clone)]
pub struct BayesOpt {
    config: BoConfig,
}

impl BayesOpt {
    /// Creates a searcher.
    pub fn new(config: BoConfig) -> Self {
        BayesOpt { config }
    }

    fn objective(&self, pred: &PlanPrediction) -> f64 {
        let violation = (pred.latency_ms - self.config.t_max_ms).max(0.0);
        pred.billed_ms as f64 + VIOLATION_PENALTY * violation
    }

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] if no valid plan can even be
    /// sampled.
    pub fn search(&self, model: &LinearModel, perf: &PerfModel) -> Result<BoResult> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let budget = perf.platform.model_memory_budget;
        // Candidate plans overlap heavily in their groups: memoize group
        // analyses across every sampled plan and every prediction of the
        // search.
        let cache = EvalCache::new();
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        let mut evaluated: Vec<(ExecutionPlan, PlanPrediction, f64)> = Vec::new();

        let evaluate = |plan: ExecutionPlan,
                        xs: &mut Vec<Vec<f64>>,
                        ys: &mut Vec<f64>,
                        evaluated: &mut Vec<(ExecutionPlan, PlanPrediction, f64)>|
         -> Result<f64> {
            let pred = predict_plan_cached(model, &plan, perf, &cache)?;
            let y = self.objective(&pred);
            xs.push(encode_plan(model, &plan));
            ys.push(y);
            evaluated.push((plan, pred, y));
            Ok(y)
        };

        // Initial design.
        for _ in 0..INIT_SAMPLES {
            let plan = random_plan(model, budget, &DEGREES, &cache, &mut rng)
                .ok_or_else(|| CoreError::Infeasible("no valid plan can be sampled".into()))?;
            evaluate(plan, &mut xs, &mut ys, &mut evaluated)?;
        }

        // BO loop.
        for _ in 0..self.config.iterations {
            let best_y = ys.iter().copied().fold(f64::INFINITY, f64::min);
            // Length scale chosen by marginal likelihood each iteration
            // (Cherrypick refits its model as observations accumulate).
            let gp = Gp::fit_auto(xs.clone(), &ys)?;
            let mut best_candidate: Option<(f64, ExecutionPlan)> = None;
            for _ in 0..CANDIDATE_POOL {
                let Some(plan) = random_plan(model, budget, &DEGREES, &cache, &mut rng) else {
                    continue;
                };
                let x = encode_plan(model, &plan);
                let (mean, var) = gp.predict(&x);
                let ei = expected_improvement(mean, var, best_y);
                if best_candidate
                    .as_ref()
                    .map(|(b, _)| ei > *b)
                    .unwrap_or(true)
                {
                    best_candidate = Some((ei, plan));
                }
            }
            let Some((_, plan)) = best_candidate else {
                break;
            };
            evaluate(plan, &mut xs, &mut ys, &mut evaluated)?;
        }

        // Best by objective; prefer feasible plans at equal objective.
        let (plan, predicted, _) = evaluated
            .into_iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("objectives are finite"))
            .expect("at least the initial design was evaluated");
        let meets_slo = predicted.latency_ms <= self.config.t_max_ms;
        Ok(BoResult {
            plan,
            predicted,
            meets_slo,
            objective_history: ys,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillis_faas::PlatformProfile;
    use gillis_model::zoo;

    fn quick(t_max_ms: f64, seed: u64) -> BoConfig {
        BoConfig {
            t_max_ms,
            iterations: 15,
            seed,
        }
    }

    #[test]
    fn bo_finds_feasible_plan_under_loose_slo() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = zoo::tiny_vgg();
        let result = BayesOpt::new(quick(10_000.0, 1))
            .search(&tiny, &perf)
            .unwrap();
        assert!(result.meets_slo);
        result
            .plan
            .validate(&tiny, platform.model_memory_budget)
            .unwrap();
        assert!(result.objective_history.len() >= INIT_SAMPLES + 15);
    }

    #[test]
    fn bo_improves_over_initial_design() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let config = quick(2500.0, 3);
        let result = BayesOpt::new(config).search(&vgg, &perf).unwrap();
        let h = &result.objective_history;
        let best_init = h[..INIT_SAMPLES]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let best_all = h.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(best_all <= best_init);
    }

    #[test]
    fn bo_is_deterministic_in_seed() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = zoo::tiny_vgg();
        let a = BayesOpt::new(quick(5000.0, 9))
            .search(&tiny, &perf)
            .unwrap();
        let b = BayesOpt::new(quick(5000.0, 9))
            .search(&tiny, &perf)
            .unwrap();
        assert_eq!(a.objective_history, b.objective_history);
        assert_eq!(a.plan, b.plan);
    }
}
