//! The joint batch-size × instance-memory configurator of batched serving.

use gillis_faas::batch::BatchPolicy;
use gillis_faas::PlatformProfile;
use gillis_model::LinearModel;
use gillis_perf::TransferFormat;

use crate::error::CoreError;
use crate::plan::ExecutionPlan;
use crate::Result;

/// The batch configuration chosen for one SLO class by
/// [`plan_batch_schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSchedule {
    /// Target batch size `n*`: the accumulation window closes early once
    /// this many queries are waiting.
    pub batch: usize,
    /// Accumulation window measured from the first member's arrival, in
    /// milliseconds (zero when `batch == 1`).
    pub window_ms: f64,
    /// Predicted warm latency of a full `batch`-sized dispatch, in
    /// milliseconds.
    pub predicted_ms: f64,
    /// Predicted billed cost per query at the target batch size.
    pub usd_per_query: f64,
}

/// A joint batch-size × memory-size configuration: the cheapest instance
/// memory that fits the plan and meets every class deadline, with each
/// class's cost-optimal batch size and deadline-derived window at that
/// memory. Produced by [`plan_batch_schedule`], consumed by
/// [`crate::ForkJoinRuntime::serve_open_loop_batched`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSchedule {
    /// Chosen per-instance memory in bytes. The serving runtime must be
    /// built on `platform.with_memory_bytes(memory_bytes)`.
    pub memory_bytes: u64,
    /// Per-class configurations, index-aligned with
    /// [`BatchPolicy::classes`].
    pub classes: Vec<ClassSchedule>,
}

/// Jointly configures batch size and instance memory against the
/// performance model (the HarmonyBatch insight: batch size and memory
/// trade off against each other, so picking them separately leaves money
/// on the table).
///
/// For every candidate memory in [`BatchPolicy::memory_mb`] (the current
/// platform memory when empty) that still fits the plan's weights, and for
/// every class, the configurator scans `n = 1..=max_batch` and keeps the
/// `n` with the lowest predicted cost per query among those that are
/// *deadline-feasible*: the window
/// `min(max_window_ms, deadline − margin − t_batch(n))` must be positive
/// and no shorter than the expected fill time `(n−1)/λ_c` of the class at
/// its share of `rate_per_sec` (otherwise windows close before filling and
/// the predicted amortization never materializes). The memory with the
/// lowest expected spend rate `Σ_c λ_c · usd_c` wins.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for invalid policies or a
/// non-positive rate, and an error when no candidate memory both fits the
/// plan and meets every class deadline at batch 1.
pub fn plan_batch_schedule(
    model: &LinearModel,
    plan: &ExecutionPlan,
    platform: &PlatformProfile,
    format: TransferFormat,
    policy: &BatchPolicy,
    rate_per_sec: f64,
) -> Result<BatchSchedule> {
    policy.validate().map_err(CoreError::from)?;
    if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
        return Err(CoreError::InvalidArgument(format!(
            "arrival rate must be positive and finite, got {rate_per_sec}"
        )));
    }
    let candidates: Vec<u64> = if policy.memory_mb.is_empty() {
        vec![platform.instance_memory_bytes]
    } else {
        policy.memory_mb.iter().map(|&mb| mb * 1_000_000).collect()
    };
    let total_weight = policy.total_weight();
    let mut best: Option<(f64, BatchSchedule)> = None;
    for &memory_bytes in &candidates {
        let scaled_platform = platform.with_memory_bytes(memory_bytes);
        if plan
            .validate(model, scaled_platform.model_memory_budget)
            .is_err()
        {
            // The plan's weights no longer fit this memory size.
            continue;
        }
        let perf = gillis_perf::PerfModel::analytic(&scaled_platform).with_transfer_format(format);
        // Batched predictions are class-independent; compute once per size.
        let preds: Vec<crate::predict::PlanPrediction> = (1..=policy.max_batch)
            .map(|n| {
                crate::predict::predict_plan_batched(
                    model,
                    plan,
                    &perf,
                    n,
                    policy.amortized_fraction,
                )
            })
            .collect::<Result<_>>()?;
        let mut classes = Vec::with_capacity(policy.classes.len());
        let mut spend_rate = 0.0;
        let mut feasible = true;
        for class in &policy.classes {
            let lambda = rate_per_sec * class.weight / total_weight;
            let mut chosen: Option<ClassSchedule> = None;
            for (i, pred) in preds.iter().enumerate() {
                let n = i + 1;
                let slack_ms = if class.deadline_ms.is_finite() {
                    class.deadline_ms - policy.window_margin_ms - pred.latency_ms
                } else {
                    f64::INFINITY
                };
                if slack_ms <= 0.0 {
                    // Even an empty window would push the first member
                    // past its shed threshold.
                    continue;
                }
                let window_ms = if n == 1 {
                    0.0
                } else {
                    let w = policy.max_window_ms.min(slack_ms);
                    // Expected time for n arrivals of this class to show
                    // up; a window shorter than that closes underfilled
                    // and the amortization never materializes.
                    let fill_ms = (n as f64 - 1.0) / lambda * 1000.0;
                    if fill_ms > w {
                        continue;
                    }
                    w
                };
                let usd_per_query = pred.usd / n as f64;
                let better = match &chosen {
                    None => true,
                    Some(c) => usd_per_query < c.usd_per_query,
                };
                if better {
                    chosen = Some(ClassSchedule {
                        batch: n,
                        window_ms,
                        predicted_ms: pred.latency_ms,
                        usd_per_query,
                    });
                }
            }
            match chosen {
                Some(c) => {
                    spend_rate += lambda * c.usd_per_query;
                    classes.push(c);
                }
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if !feasible {
            continue;
        }
        let better = match &best {
            None => true,
            Some((rate, _)) => spend_rate < *rate,
        };
        if better {
            best = Some((
                spend_rate,
                BatchSchedule {
                    memory_bytes,
                    classes,
                },
            ));
        }
    }
    best.map(|(_, s)| s).ok_or_else(|| {
        CoreError::InvalidArgument(
            "no candidate memory size both fits the plan and meets every class deadline"
                .to_string(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::batch_fixture;
    use super::*;

    #[test]
    fn batch_schedule_picks_cost_optimal_sizes_per_class_and_rate() {
        // The configurator trades window wait against per-query cost: a
        // high-rate class with a loose deadline gets a real batch, a
        // too-tight deadline is infeasible, and a starved class falls back
        // to small batches because windows would close underfilled.
        let (vgg, plan, platform, pred1) = batch_fixture();
        let mut policy = BatchPolicy::single(20.0 * pred1.latency_ms, 8);
        policy.max_window_ms = 10.0 * pred1.latency_ms;
        let busy = plan_batch_schedule(
            vgg,
            plan,
            &platform,
            TransferFormat::F32,
            &policy,
            // ~20 arrivals per plan latency: windows fill fast.
            20_000.0 / pred1.latency_ms,
        )
        .unwrap();
        assert_eq!(busy.memory_bytes, platform.instance_memory_bytes);
        assert!(busy.classes[0].batch > 1, "{:?}", busy.classes[0]);
        assert!(
            busy.classes[0].usd_per_query < pred1.usd,
            "batched {:.9} $/q vs batch-1 {:.9}",
            busy.classes[0].usd_per_query,
            pred1.usd
        );
        assert!(busy.classes[0].window_ms > 0.0);
        assert!(
            busy.classes[0].predicted_ms + policy.window_margin_ms <= policy.classes[0].deadline_ms
        );

        // A trickle of arrivals cannot fill large windows: the chosen batch
        // shrinks even though the deadline would allow more.
        let starved = plan_batch_schedule(
            vgg,
            plan,
            &platform,
            TransferFormat::F32,
            &policy,
            0.05 / pred1.latency_ms * 1000.0,
        )
        .unwrap();
        assert!(
            starved.classes[0].batch < busy.classes[0].batch,
            "starved {:?} vs busy {:?}",
            starved.classes[0],
            busy.classes[0]
        );

        // A deadline below the batch-1 latency is infeasible outright.
        let tight = BatchPolicy::single(0.5 * pred1.latency_ms, 4);
        let err = plan_batch_schedule(vgg, plan, &platform, TransferFormat::F32, &tight, 100.0)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn batch_schedule_joint_memory_pick_weighs_spend_rate() {
        // Memory candidates scale compute speed and price together; the
        // configurator must reject sizes the plan no longer fits and pick
        // the cheapest feasible spend rate among the rest.
        let (vgg, plan, platform, pred1) = batch_fixture();
        let base_mb = platform.instance_memory_bytes / 1_000_000;
        let mut policy = BatchPolicy::single(20.0 * pred1.latency_ms, 4);
        policy.memory_mb = vec![base_mb / 64, base_mb, 2 * base_mb];
        let schedule = plan_batch_schedule(
            vgg,
            plan,
            &platform,
            TransferFormat::F32,
            &policy,
            10_000.0 / pred1.latency_ms,
        )
        .unwrap();
        // The tiny candidate cannot hold VGG-11's weights; the big one is
        // faster but proportionally pricier per second, so the billed cost
        // per query never improves enough to beat the base size.
        assert_ne!(schedule.memory_bytes, (base_mb / 64) * 1_000_000);
        assert!(
            schedule.classes[0].usd_per_query <= pred1.usd,
            "{:?}",
            schedule.classes[0]
        );
        // Only listed candidates are eligible.
        assert!(policy
            .memory_mb
            .iter()
            .any(|&mb| mb * 1_000_000 == schedule.memory_bytes));
    }
}
