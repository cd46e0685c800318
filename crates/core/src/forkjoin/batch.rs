//! The batch-size configurator of batched serving.

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

/// A batch configuration: each class's cost-optimal batch size and
/// deadline-derived window at the platform's instance memory. Produced by
/// [`plan_batch_schedule`], consumed by
/// [`crate::ForkJoinRuntime::serve_open_loop_batched`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSchedule {
    /// Per-instance memory in bytes: always the platform's own
    /// `instance_memory_bytes`.
    pub memory_bytes: u64,
    /// Per-class configurations, index-aligned with
    /// [`BatchPolicy::classes`].
    pub classes: Vec<ClassSchedule>,
}

/// Configures each class's batch size against the performance model.
///
/// For every class the configurator scans `n = 1..=max_batch` and keeps the
/// `n` with the lowest predicted cost per query among those that are
/// *deadline-feasible*: the window
/// `min(max_window_ms, deadline − margin − t_batch(n))` must be positive
/// and no shorter than the expected fill time `(n−1)/λ_c` of the class at
/// its share of `rate_per_sec` (otherwise windows close before filling and
/// the predicted amortization never materializes).
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for invalid policies or a
/// non-positive rate, and an error when the plan does not fit the platform
/// or a class cannot meet its deadline even at batch 1.
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
    plan.validate(model, platform.model_memory_budget)?;
    let perf = gillis_perf::PerfModel::analytic(platform).with_transfer_format(format);
    // Batched predictions are class-independent; compute once per size.
    let preds: Vec<crate::predict::PlanPrediction> = (1..=policy.max_batch)
        .map(|n| crate::predict::predict_plan_batched(model, plan, &perf, n))
        .collect::<Result<_>>()?;
    let total_weight = policy.total_weight();
    let mut classes = Vec::with_capacity(policy.classes.len());
    for (ci, class) in policy.classes.iter().enumerate() {
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
                // Even an empty window would push the first member past its
                // shed threshold.
                continue;
            }
            let window_ms = if n == 1 {
                0.0
            } else {
                let w = policy.max_window_ms.min(slack_ms);
                // Expected time for n arrivals of this class to show up; a
                // window shorter than that closes underfilled and the
                // amortization never materializes.
                let fill_ms = (n as f64 - 1.0) / lambda * 1000.0;
                if fill_ms > w {
                    continue;
                }
                w
            };
            let usd_per_query = pred.usd / n as f64;
            if chosen.is_none_or(|c| usd_per_query < c.usd_per_query) {
                chosen = Some(ClassSchedule {
                    batch: n,
                    window_ms,
                    predicted_ms: pred.latency_ms,
                    usd_per_query,
                });
            }
        }
        classes.push(chosen.ok_or_else(|| {
            CoreError::InvalidArgument(format!(
                "SLO class {ci} misses its deadline at every batch size"
            ))
        })?);
    }
    Ok(BatchSchedule {
        memory_bytes: platform.instance_memory_bytes,
        classes,
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
}
