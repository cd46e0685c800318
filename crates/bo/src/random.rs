//! Random valid-plan sampling: the exploration primitive of the BO baseline
//! and the initial design of its Gaussian process.

use rand::rngs::StdRng;
use rand::RngExt;

use gillis_core::cache::EvalCache;
use gillis_core::partition::{group_options, PartitionOption};
use gillis_core::plan::{ExecutionPlan, Placement, PlannedGroup};
use gillis_model::LinearModel;

/// Samples a uniformly-random *valid* plan: random group boundaries among
/// structurally groupable spans, a random memory-feasible option per group,
/// and a random placement respecting the master budget. Group analyses are
/// read through `cache`, so a search that samples many plans analyzes each
/// `(group, option)` once.
///
/// Returns `None` only if some layer admits no feasible option at all.
pub fn random_plan(
    model: &LinearModel,
    budget: u64,
    degrees: &[usize],
    cache: &EvalCache,
    rng: &mut StdRng,
) -> Option<ExecutionPlan> {
    let n = model.layers().len();
    let mut groups = Vec::new();
    let mut remaining = budget;
    let mut start = 0;
    while start < n {
        // Candidate group ends: structurally valid spans from `start`.
        let mut ends = Vec::new();
        for end in start + 1..=n {
            if group_options(model, start, end, degrees).is_empty() {
                break;
            }
            ends.push(end);
        }
        // Geometric-ish preference for shorter groups keeps fan-out varied.
        let end = *pick_weighted(&ends, rng)?;
        // Memory-feasible options.
        let feasible: Vec<PartitionOption> = group_options(model, start, end, degrees)
            .into_iter()
            .filter(|o| {
                cache
                    .analysis(model, start, end, *o)
                    .map(|a| a.partitions.iter().all(|p| p.mem_bytes() <= budget))
                    .unwrap_or(false)
            })
            .collect();
        if feasible.is_empty() {
            // Retry with the shortest group; a singleton may still fail if
            // one layer is simply too large to place anywhere.
            if end == start + 1 {
                return None;
            }
            continue;
        }
        let option = feasible[rng.random_range(0..feasible.len())];
        let analysis = cache.analysis(model, start, end, option).ok()?;
        let w0 = analysis.partitions[0].weight_bytes;
        let master = w0 <= remaining && rng.random_bool(0.5);
        let placement = if master {
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
    Some(ExecutionPlan::new(groups))
}

fn pick_weighted<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        return None;
    }
    // P(i) proportional to 2^-i, truncated.
    let mut idx = 0;
    while idx + 1 < items.len() && rng.random_bool(0.5) {
        idx += 1;
    }
    Some(&items[idx])
}

/// Encodes a plan as a fixed-length feature vector for the GP: per merged
/// layer, `(is_group_start, parallelism_degree/16, master_participates)`.
pub fn encode_plan(model: &LinearModel, plan: &ExecutionPlan) -> Vec<f64> {
    let n = model.layers().len();
    let mut v = vec![0.0; 3 * n];
    for g in plan.groups() {
        for layer in g.start..g.end {
            v[3 * layer] = (layer == g.start) as u8 as f64;
            v[3 * layer + 1] = g.option.parts() as f64 / 16.0;
            v[3 * layer + 2] =
                matches!(g.placement, Placement::Master | Placement::MasterAndWorkers) as u8 as f64;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillis_model::zoo;
    use rand::SeedableRng;

    #[test]
    fn random_plans_always_validate() {
        let vgg = zoo::vgg11();
        let budget = 1_400_000_000;
        let (mut rng, cache) = (StdRng::seed_from_u64(1), EvalCache::new());
        for _ in 0..50 {
            let plan = random_plan(&vgg, budget, &[2, 4, 8, 16], &cache, &mut rng).unwrap();
            plan.validate(&vgg, budget).unwrap();
        }
    }

    #[test]
    fn random_plans_cover_large_models() {
        let wrn = zoo::wrn50(4); // does not fit one function
        let budget = 1_400_000_000;
        let (mut rng, cache) = (StdRng::seed_from_u64(2), EvalCache::new());
        for _ in 0..20 {
            let plan = random_plan(&wrn, budget, &[2, 4, 8, 16], &cache, &mut rng).unwrap();
            plan.validate(&wrn, budget).unwrap();
        }
    }

    #[test]
    fn random_plans_are_diverse() {
        let vgg = zoo::vgg11();
        let (mut rng, cache) = (StdRng::seed_from_u64(3), EvalCache::new());
        let a = random_plan(&vgg, 1_400_000_000, &[2, 4, 8], &cache, &mut rng).unwrap();
        let b = random_plan(&vgg, 1_400_000_000, &[2, 4, 8], &cache, &mut rng).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn encoding_is_fixed_length_and_discriminative() {
        let vgg = zoo::vgg11();
        let n = vgg.layers().len();
        let (mut rng, cache) = (StdRng::seed_from_u64(4), EvalCache::new());
        let a = random_plan(&vgg, 1_400_000_000, &[2, 4], &cache, &mut rng).unwrap();
        let b = random_plan(&vgg, 1_400_000_000, &[2, 4], &cache, &mut rng).unwrap();
        let ea = encode_plan(&vgg, &a);
        let eb = encode_plan(&vgg, &b);
        assert_eq!(ea.len(), 3 * n);
        assert_eq!(eb.len(), 3 * n);
        assert_ne!(ea, eb);
        assert_eq!(ea, encode_plan(&vgg, &a));
    }
}
