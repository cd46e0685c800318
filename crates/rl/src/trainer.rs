//! Joint REINFORCE training of the partitioner and placer (paper §IV-C).
//!
//! Each episode samples a complete partitioning strategy, evaluates its
//! latency and billed cost with the performance model (simulated
//! experiments — no function is ever invoked during training), computes the
//! reward of Eq. 4, and accumulates policy gradients per Eq. 5–6. Updates
//! use Adam with a moving-average baseline.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use gillis_core::cache::EvalCache;
use gillis_core::plan::{ExecutionPlan, Placement, PlannedGroup};
use gillis_core::predict::{predict_plan_cached, PlanPrediction};
use gillis_core::CoreError;
use gillis_model::LinearModel;
use gillis_perf::PerfModel;

use crate::adam::Adam;
use crate::agents::{boundary_features, group_features, placer_features, Agents};
use crate::nn::Forward;
use crate::policy::{entropy_grad, logp_grad, masked_softmax, sample_categorical};
use crate::Result;

/// Episodes per gradient update.
const BATCH: usize = 8;
/// Adam learning rate.
const LR: f64 = 0.02;
/// Reward of a strategy with no memory-feasible option (paper: "a large
/// negative reward" for OOM attempts) is minus this.
const OOM_PENALTY: f64 = 50.0;
/// Entropy-bonus coefficient: discourages premature policy collapse.
const ENTROPY_BETA: f64 = 0.01;
/// Monte-Carlo samples per episode when a tail SLO is set.
const TAIL_SAMPLES: usize = 300;

/// Configuration of the SLO-aware trainer.
#[derive(Debug, Clone)]
pub struct SloAwareConfig {
    /// Mean-latency SLO in milliseconds (the paper's `T_max`).
    pub t_max_ms: f64,
    /// Training episodes.
    pub episodes: usize,
    /// When set, the SLO constrains this latency *quantile* (e.g. `0.99`
    /// for p99) instead of the mean — the paper's §VI extension. Requires
    /// the Monte-Carlo tail predictor, so training is slower.
    pub tail_quantile: Option<f64>,
    /// Train for pipeline-parallel serving: the SLO constrains the
    /// *pipelined* steady-state p99 (fill latency plus one bottleneck
    /// interval, [`gillis_core::predict_plan_pipelined`]) instead of the
    /// fork-join latency, and the incumbent is seeded from the
    /// stage-balancing DP
    /// ([`gillis_core::PlanObjective::PipelineBottleneck`]). Takes
    /// precedence over `tail_quantile`.
    pub pipeline: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SloAwareConfig {
    fn default() -> Self {
        SloAwareConfig {
            t_max_ms: 1000.0,
            episodes: 400,
            tail_quantile: None,
            pipeline: false,
            seed: 0,
        }
    }
}

/// Output of SLO-aware training.
#[derive(Debug, Clone)]
pub struct SloAwareResult {
    /// The best SLO-compliant plan found during training.
    pub plan: ExecutionPlan,
    /// Its predicted latency and cost.
    pub predicted: PlanPrediction,
    /// Episodes actually run.
    pub episodes_run: usize,
    /// Mean reward per batch (training curve).
    pub reward_history: Vec<f64>,
}

/// One sampled decision: which net, its forward cache, probabilities, and
/// the action taken.
enum Step {
    Boundary(Forward, Vec<f64>, usize),
    Option(Forward, Vec<f64>, usize),
    Placer(Forward, Vec<f64>, usize),
}

/// One rolled-out episode: its decisions plus, when the sampled strategy was
/// feasible and predictable, `(slo_latency, prediction, plan)`.
type Rollout = (Vec<Step>, Option<(f64, PlanPrediction, ExecutionPlan)>);

/// Trains the hierarchical policy and returns the best SLO-compliant plan.
///
/// The incumbent starts as the cheaper of two DP plans that meet the SLO —
/// the latency-optimal one (stage-balancing under `pipeline`) and
/// [`gillis_core::DpPartitioner::cheapest_within`]'s — and an episode
/// replaces it only with a cheaper compliant plan, so the result never bills
/// more than either and may use options outside the agents' option menu.
///
/// Rollouts within a batch fan out to [`gillis_pool::kernel_threads`];
/// training is bit-identical at any width, since episodes are seeded
/// individually and reduced in order.
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] if training never finds a plan meeting
/// the SLO (e.g. an SLO below the physically possible latency).
pub fn slo_aware_partition(
    model: &LinearModel,
    perf: &PerfModel,
    config: &SloAwareConfig,
) -> Result<SloAwareResult> {
    // One memoization layer for the whole run: episodes keep re-analyzing
    // the same groups (masking, placer features, reward prediction), and the
    // DP incumbent seeds share it too.
    train(model, perf, config, &Arc::new(EvalCache::new()))
}

/// [`slo_aware_partition`] on the given (fresh) cache.
fn train(
    model: &LinearModel,
    perf: &PerfModel,
    config: &SloAwareConfig,
    cache: &Arc<EvalCache>,
) -> Result<SloAwareResult> {
    // The latency the SLO constrains: the mean prediction, a Monte-Carlo
    // quantile when a tail SLO is configured, or the pipelined steady-state
    // p99 when training for pipeline-parallel serving.
    let slo_latency = |plan: &ExecutionPlan, pred: &PlanPrediction| -> f64 {
        if config.pipeline {
            return gillis_core::predict_plan_pipelined(model, plan, perf)
                .map(|p| p.p99_ms)
                .unwrap_or(f64::INFINITY);
        }
        match config.tail_quantile {
            None => pred.latency_ms,
            Some(q) => gillis_core::predict_latency_quantile(
                model,
                plan,
                perf,
                q,
                TAIL_SAMPLES,
                config.seed ^ 0x7a11_5eed,
            )
            .unwrap_or(f64::INFINITY),
        }
    };
    let n = model.layers().len();
    if n == 0 {
        return Err(CoreError::InvalidArgument("empty model".into()));
    }
    let budget = perf.platform.model_memory_budget;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut agents = Agents::new(&mut rng);
    let mut opt_boundary = Adam::new(agents.boundary.param_count(), LR);
    let mut opt_option = Adam::new(agents.option.param_count(), LR);
    let mut opt_placer = Adam::new(agents.placer.param_count(), LR);

    // Auto budget B: a loose upper envelope of plan costs so that meeting
    // the SLO always yields a positive reward (paper: "set large enough").
    let single = predict_plan_cached(model, &ExecutionPlan::single_function(model), perf, cache)
        .map(|p| p.billed_ms as f64)
        .unwrap_or(10_000.0);
    let b = (single * 8.0).max(20.0 * config.t_max_ms);

    let mut baseline = 0.0;
    let mut baseline_init = false;
    // Seed the incumbent with the latency-optimal DP plan when it already
    // meets the SLO: Gillis computes it anyway, and it guarantees an
    // SLO-compliant answer that training then undercuts on cost. Pipeline
    // training seeds from the stage-balancing DP instead, whose bottleneck
    // objective matches the pipelined SLO term. That plan is the dearest
    // one worth returning; the same DP table, reduced under a cost
    // objective, gives the cheapest plan the DP reaches within the SLO, and
    // training starts from whichever of the two bills less.
    let within_slo =
        |plan: &ExecutionPlan, pred: &PlanPrediction| slo_latency(plan, pred) <= config.t_max_ms;
    let dp = gillis_core::DpPartitioner::default().with_cache(Arc::clone(cache));
    let incumbent = dp.clone().with_objective(if config.pipeline {
        gillis_core::PlanObjective::PipelineBottleneck
    } else {
        gillis_core::PlanObjective::Latency
    });
    let mut best: Option<(ExecutionPlan, PlanPrediction)> =
        incumbent.partition(model, perf).ok().and_then(|plan| {
            let pred = predict_plan_cached(model, &plan, perf, cache).ok()?;
            within_slo(&plan, &pred).then_some((plan, pred))
        });
    if let Ok(Some((plan, pred))) = dp.cheapest_within(model, perf, &within_slo) {
        keep_cheaper(&mut best, plan, pred);
    }
    let mut reward_history = Vec::new();

    let mut gb = agents.boundary.zero_grads();
    let mut go = agents.option.zero_grads();
    let mut gp = agents.placer.zero_grads();
    let mut batch_steps: Vec<(Vec<Step>, f64)> = Vec::new();
    let threads = gillis_pool::kernel_threads();

    let mut episode = 0;
    while episode < config.episodes {
        let batch_len = BATCH.min(config.episodes - episode);
        // Roll out the batch on the shared pool: the policy is frozen until
        // the gradient update below, so episodes within a batch are
        // independent given their per-episode seeds. The reward model
        // (prediction + SLO check) runs inside the rollout; the incumbent
        // update and gradient accumulation reduce sequentially in episode
        // order, keeping training bit-identical for any thread count.
        let rollout = |i: usize| {
            let mut ep_rng = StdRng::seed_from_u64(gillis_core::replication_seed(
                config.seed,
                (episode + i) as u64,
            ));
            let (steps, plan) = sample_episode(model, &agents, budget, cache, &mut ep_rng);
            // `None` covers both OOM attempts (no feasible option for a
            // sampled group) and unpredictable plans; both draw the penalty.
            let outcome = plan.and_then(|plan| {
                let pred = predict_plan_cached(model, &plan, perf, cache).ok()?;
                let latency = slo_latency(&plan, &pred);
                Some((latency, pred, plan))
            });
            (steps, outcome)
        };
        let mut rollouts: Vec<Rollout> = (0..batch_len).map(|_| (Vec::new(), None)).collect();
        let slots = rollouts.iter_mut().enumerate();
        let fill = |(i, slot): (usize, &mut Rollout)| *slot = rollout(i);
        if threads <= 1 || batch_len == 1 {
            slots.for_each(fill);
        } else {
            gillis_pool::Pool::global().for_each_item(slots, fill);
        }
        episode += batch_len;
        for (steps, outcome) in rollouts {
            let reward = match &outcome {
                Some((latency, pred, _)) => {
                    if *latency <= config.t_max_ms {
                        (b - pred.billed_ms as f64) / 1000.0
                    } else {
                        (config.t_max_ms - latency) / 1000.0
                    }
                }
                None => -OOM_PENALTY,
            };
            if let Some((latency, pred, plan)) = outcome {
                if latency <= config.t_max_ms {
                    keep_cheaper(&mut best, plan, pred);
                }
            }
            batch_steps.push((steps, reward));
        }

        {
            let mean_reward: f64 =
                batch_steps.iter().map(|(_, r)| r).sum::<f64>() / batch_steps.len() as f64;
            if !baseline_init {
                baseline = mean_reward;
                baseline_init = true;
            }
            for (steps, reward) in batch_steps.drain(..) {
                let advantage = reward - baseline;
                // Ascent direction: advantage-weighted log-prob gradient plus
                // an entropy bonus.
                let dlogits = |probs: &[f64], action: usize| -> Vec<f64> {
                    let mut d = logp_grad(probs, action, advantage);
                    for (dk, ek) in d.iter_mut().zip(entropy_grad(probs)) {
                        *dk += ENTROPY_BETA * ek;
                    }
                    d
                };
                for step in steps {
                    match step {
                        Step::Boundary(fwd, probs, action) => {
                            agents
                                .boundary
                                .backward(&fwd, &dlogits(&probs, action), &mut gb)
                        }
                        Step::Option(fwd, probs, action) => {
                            agents
                                .option
                                .backward(&fwd, &dlogits(&probs, action), &mut go)
                        }
                        Step::Placer(fwd, probs, action) => {
                            agents
                                .placer
                                .backward(&fwd, &dlogits(&probs, action), &mut gp)
                        }
                    }
                }
            }
            baseline = 0.9 * baseline + 0.1 * mean_reward;
            reward_history.push(mean_reward);
            opt_boundary.step(agents.boundary.params_mut(), &gb.0);
            opt_option.step(agents.option.params_mut(), &go.0);
            opt_placer.step(agents.placer.params_mut(), &gp.0);
            gb = agents.boundary.zero_grads();
            go = agents.option.zero_grads();
            gp = agents.placer.zero_grads();
        }
    }

    match best {
        Some((plan, predicted)) => Ok(SloAwareResult {
            plan,
            predicted,
            episodes_run: config.episodes,
            reward_history,
        }),
        None => Err(CoreError::Infeasible(format!(
            "no plan met the {} ms SLO within {} episodes",
            config.t_max_ms, config.episodes
        ))),
    }
}

/// Replaces the incumbent with `plan` when it bills strictly less (or there
/// is no incumbent yet).
fn keep_cheaper(
    best: &mut Option<(ExecutionPlan, PlanPrediction)>,
    plan: ExecutionPlan,
    pred: PlanPrediction,
) {
    if best
        .as_ref()
        .is_none_or(|(_, b)| pred.billed_ms < b.billed_ms)
    {
        *best = Some((plan, pred));
    }
}

/// Samples one strategy. Returns `None` as the plan when a sampled group has
/// no memory-feasible option (an OOM attempt).
fn sample_episode(
    model: &LinearModel,
    agents: &Agents,
    budget: u64,
    cache: &EvalCache,
    rng: &mut StdRng,
) -> (Vec<Step>, Option<ExecutionPlan>) {
    let n = model.layers().len();
    let mut steps = Vec::new();
    let mut groups = Vec::new();
    let mut remaining = budget;
    let mut start = 0;

    for t in 0..n {
        // Any group can grow while layers remain: it can always run whole.
        let can_extend = t + 1 < n;
        let cut = if !can_extend {
            true
        } else {
            let feats = boundary_features(model, start, t, can_extend);
            let fwd = agents.boundary.forward(&feats);
            let probs = masked_softmax(&fwd.logits, &[true, true]);
            let action = sample_categorical(&probs, rng);
            steps.push(Step::Boundary(fwd, probs.clone(), action));
            action == 1
        };
        if !cut {
            continue;
        }
        let end = t + 1;
        // Option choice, masked to memory-feasible entries.
        let mask = agents.menu.mask(model, start, end, budget, cache);
        if !mask.iter().any(|&m| m) {
            return (steps, None);
        }
        let feats = group_features(model, start, end);
        let fwd = agents.option.forward(&feats);
        let probs = masked_softmax(&fwd.logits, &mask);
        let action = sample_categorical(&probs, rng);
        let option = agents.menu.entries[action];
        steps.push(Step::Option(fwd, probs, action));

        // Placer: master participation, masked by the remaining budget.
        let analysis = cache
            .analysis(model, start, end, option)
            .expect("masked option is analyzable");
        let w0 = analysis.partitions[0].weight_bytes;
        let master_ok = w0 <= remaining;
        let feats = placer_features(model, start, end, w0, remaining, option.parts());
        let fwd = agents.placer.forward(&feats);
        let probs = masked_softmax(&fwd.logits, &[true, master_ok]);
        let action = sample_categorical(&probs, rng);
        steps.push(Step::Placer(fwd, probs, action));
        let placement = if action == 1 {
            remaining -= w0;
            if option.parts() == 1 {
                Placement::Master
            } else {
                Placement::MasterAndWorkers
            }
        } else {
            Placement::Workers
        };
        groups.push(PlannedGroup {
            start,
            end,
            option,
            placement,
        });
        start = end;
    }
    (steps, Some(ExecutionPlan::new(groups)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillis_core::predict::predict_plan;
    use gillis_faas::PlatformProfile;
    use gillis_model::zoo;

    fn quick_config(t_max_ms: f64) -> SloAwareConfig {
        SloAwareConfig {
            t_max_ms,
            episodes: 120,
            seed: 7,
            ..SloAwareConfig::default()
        }
    }

    #[test]
    fn finds_slo_compliant_plan_for_tiny_model() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = zoo::tiny_vgg();
        let single = predict_plan(&tiny, &ExecutionPlan::single_function(&tiny), &perf)
            .unwrap()
            .latency_ms;
        let result = slo_aware_partition(&tiny, &perf, &quick_config(single * 2.0)).unwrap();
        assert!(result.predicted.latency_ms <= single * 2.0);
        result
            .plan
            .validate(&tiny, platform.model_memory_budget)
            .unwrap();
        assert!(!result.reward_history.is_empty());
    }

    #[test]
    fn loose_slo_prefers_cheap_plans() {
        // With a very loose SLO the cheapest plan is single-function
        // serving: the learned plan's cost should approach it.
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = zoo::tiny_vgg();
        let single = predict_plan(&tiny, &ExecutionPlan::single_function(&tiny), &perf).unwrap();
        let result =
            slo_aware_partition(&tiny, &perf, &quick_config(single.latency_ms * 10.0)).unwrap();
        assert!(
            result.predicted.billed_ms <= single.billed_ms * 2,
            "learned cost {} vs single {}",
            result.predicted.billed_ms,
            single.billed_ms
        );
    }

    #[test]
    fn impossible_slo_is_reported_infeasible() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = zoo::tiny_vgg();
        let err = slo_aware_partition(&tiny, &perf, &quick_config(0.0001));
        assert!(matches!(err, Err(CoreError::Infeasible(_))));
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = zoo::tiny_vgg();
        let a = slo_aware_partition(&tiny, &perf, &quick_config(500.0)).unwrap();
        let b = slo_aware_partition(&tiny, &perf, &quick_config(500.0)).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.reward_history, b.reward_history);
    }

    #[test]
    fn reward_curve_matches_the_recorded_one() {
        // Fifteen updates of eight episodes: any change to what an episode
        // samples, in what order, or to the update moves every later draw.
        let perf = PerfModel::analytic(&PlatformProfile::aws_lambda());
        let result = slo_aware_partition(&zoo::tiny_vgg(), &perf, &quick_config(500.0)).unwrap();
        #[rustfmt::skip]
        let recorded = [
            9.86575, 9.900125, 9.914875, 9.962875, 9.981625, 9.963750000000001,
            9.972125000000002, 9.982499999999998, 9.995875, 9.999, 9.976625, 9.994125,
            9.999, 9.994125, 9.995875,
        ];
        assert_eq!(result.reward_history, recorded);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        /// Episodes are seeded individually and reduced in order, so the
        /// trained policy — plan, prediction, and the full reward curve —
        /// is bit-identical for any rollout thread count.
        #[test]
        fn training_is_bit_identical_across_thread_counts(seed in 0u64..100) {
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let tiny = zoo::tiny_vgg();
            let config = SloAwareConfig {
                seed,
                ..quick_config(500.0)
            };
            let train = |width| {
                gillis_pool::with_width_cap(width, || slo_aware_partition(&tiny, &perf, &config))
            };
            let seq = train(1).unwrap();
            for threads in [2usize, 8] {
                let par = train(threads).unwrap();
                proptest::prop_assert_eq!(&seq.plan, &par.plan);
                proptest::prop_assert_eq!(seq.predicted.billed_ms, par.predicted.billed_ms);
                proptest::prop_assert_eq!(
                    seq.reward_history.len(),
                    par.reward_history.len()
                );
                for (a, b) in seq.reward_history.iter().zip(&par.reward_history) {
                    proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn training_builds_the_dp_table_once() {
        // The incumbent search and every multiplier of the cost sweep read
        // one candidate table: the run leaves exactly the cells a lone
        // latency-optimal search leaves, under either incumbent objective.
        let perf = PerfModel::analytic(&PlatformProfile::aws_lambda());
        let vgg = zoo::vgg16();
        let lone = Arc::new(EvalCache::new());
        let lo = gillis_core::DpPartitioner::default()
            .with_cache(Arc::clone(&lone))
            .partition(&vgg, &perf)
            .unwrap();
        let t_max = 1.25 * predict_plan(&vgg, &lo, &perf).unwrap().latency_ms;
        for pipeline in [false, true] {
            let config = SloAwareConfig {
                pipeline,
                episodes: 12,
                ..quick_config(if pipeline { 2.0 * t_max } else { t_max })
            };
            let cache = Arc::new(EvalCache::new());
            let trained = train(&vgg, &perf, &config, &cache).unwrap();
            assert_eq!(cache.stats().choices, lone.stats().choices, "{pipeline}");
            // ..and the sweep's plan, not the dearer incumbent, came back.
            assert!(
                trained.predicted.billed_ms < predict_plan(&vgg, &lo, &perf).unwrap().billed_ms
            );
        }
    }

    #[test]
    fn pipeline_training_meets_the_pipelined_p99_slo() {
        // Pipeline mode constrains the pipelined steady-state p99, which is
        // dominated by the fill latency — a threshold between the pipelined
        // p99 of the single-function plan and a generous multiple of it
        // must be satisfiable, and the returned plan's pipelined prediction
        // must actually meet it.
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = zoo::tiny_vgg();
        let single = gillis_core::predict_plan_pipelined(
            &tiny,
            &ExecutionPlan::single_function(&tiny),
            &perf,
        )
        .unwrap()
        .p99_ms;
        let config = SloAwareConfig {
            pipeline: true,
            ..quick_config(single * 3.0)
        };
        let result = slo_aware_partition(&tiny, &perf, &config).unwrap();
        let pipelined = gillis_core::predict_plan_pipelined(&tiny, &result.plan, &perf).unwrap();
        assert!(
            pipelined.p99_ms <= single * 3.0,
            "pipelined p99 {:.1} ms vs SLO {:.1} ms",
            pipelined.p99_ms,
            single * 3.0
        );
        // Deterministic like every other mode.
        let again = slo_aware_partition(&tiny, &perf, &config).unwrap();
        assert_eq!(result.plan, again.plan);
    }

    #[test]
    fn rewards_improve_over_training() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = zoo::tiny_vgg();
        let config = SloAwareConfig {
            t_max_ms: 400.0,
            episodes: 240,
            seed: 3,
            ..SloAwareConfig::default()
        };
        let result = slo_aware_partition(&tiny, &perf, &config).unwrap();
        let h = &result.reward_history;
        let early: f64 = h[..4].iter().sum::<f64>() / 4.0;
        let late: f64 = h[h.len() - 4..].iter().sum::<f64>() / 4.0;
        assert!(
            late >= early,
            "rewards regressed: early {early:.2}, late {late:.2}"
        );
    }
}

#[cfg(test)]
mod tail_tests {
    use super::*;
    use gillis_faas::PlatformProfile;
    use gillis_model::zoo;

    #[test]
    fn tail_slo_is_stricter_than_mean_slo() {
        // For the same threshold, a p99 SLO admits fewer plans than a mean
        // SLO, so the tail-aware result can never be cheaper.
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let model = zoo::vgg11();
        let t_max = 400.0;
        let base = SloAwareConfig {
            t_max_ms: t_max,
            episodes: 120,
            seed: 11,
            ..SloAwareConfig::default()
        };
        let mean = slo_aware_partition(&model, &perf, &base).unwrap();
        let tail = slo_aware_partition(
            &model,
            &perf,
            &SloAwareConfig {
                tail_quantile: Some(0.99),
                ..base
            },
        )
        .unwrap();
        assert!(tail.predicted.billed_ms >= mean.predicted.billed_ms);
        // The tail-aware plan's predicted p99 actually meets the target.
        let p99 = gillis_core::predict_latency_quantile(&model, &tail.plan, &perf, 0.99, 2000, 5)
            .unwrap();
        assert!(p99 <= t_max * 1.02, "p99 {p99} vs target {t_max}");
    }

    #[test]
    fn tail_served_workload_meets_p99() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let model = zoo::vgg11();
        let t_max = 450.0;
        let result = slo_aware_partition(
            &model,
            &perf,
            &SloAwareConfig {
                t_max_ms: t_max,
                episodes: 120,
                seed: 4,
                tail_quantile: Some(0.99),
                ..SloAwareConfig::default()
            },
        )
        .unwrap();
        let rt = gillis_core::ForkJoinRuntime::new(&model, &result.plan, platform).unwrap();
        let report = rt
            .serve_workload(
                gillis_faas::workload::ClosedLoop::new(10, 300, gillis_faas::Micros::ZERO).unwrap(),
                6,
            )
            .unwrap();
        let p99 = report.latency.percentile(99.0);
        assert!(p99 <= t_max * 1.05, "served p99 {p99:.0} vs target {t_max}");
    }
}
