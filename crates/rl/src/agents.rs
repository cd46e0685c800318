//! The partitioner and placer agents (paper Fig 8).
//!
//! The **partitioner** walks the merged layers of a model, deciding at each
//! layer whether the current group ends there (boundary head) and, on a cut,
//! which parallelization option the closed group uses (option head). The
//! **placer** then decides whether the master computes partition 0 of the
//! group. Both are two-layer networks with stochastic categorical policies.

use gillis_core::cache::EvalCache;
use gillis_core::partition::{group_options, PartDim, PartitionOption};
use gillis_model::{LayerClass, LinearModel};

use crate::nn::Mlp;

/// Hidden width of the two-layer policy networks.
const HIDDEN: usize = 16;
/// The parallelism degrees appearing in the menu (for [`group_options`]
/// enumeration).
const MENU_DEGREES: [usize; 4] = [2, 4, 8, 16];

/// The fixed option menu the option head chooses from: single, H×{2, 4, 8,
/// 16} and C×{2, 4, 8}.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OptionMenu {
    /// Candidate options, index-aligned with the option head's logits.
    pub(crate) entries: Vec<PartitionOption>,
}

impl Default for OptionMenu {
    fn default() -> Self {
        let mut entries = vec![PartitionOption::Single];
        for parts in MENU_DEGREES {
            entries.push(PartitionOption::Split {
                dim: PartDim::Height,
                parts,
            });
        }
        for parts in [2usize, 4, 8] {
            entries.push(PartitionOption::Split {
                dim: PartDim::Channel,
                parts,
            });
        }
        OptionMenu { entries }
    }
}

impl OptionMenu {
    /// Feasibility mask of the menu for group `start..end` under the
    /// per-function memory budget: structurally valid *and* every partition
    /// fits a function. Group analyses are memoized in `cache` — the
    /// trainer masks the same groups every episode.
    pub(crate) fn mask(
        &self,
        model: &LinearModel,
        start: usize,
        end: usize,
        budget: u64,
        cache: &EvalCache,
    ) -> Vec<bool> {
        let valid = group_options(model, start, end, &MENU_DEGREES);
        let fits = |o: PartitionOption| {
            cache
                .analysis(model, start, end, o)
                .map(|a| a.partitions.iter().all(|p| p.mem_bytes() <= budget))
                .unwrap_or(false)
        };
        self.entries
            .iter()
            .map(|o| valid.contains(o) && fits(*o))
            .collect()
    }
}

/// Number of features the boundary head consumes per layer.
pub const BOUNDARY_FEATURES: usize = 10;
/// Number of features the option head consumes per closed group.
pub const GROUP_FEATURES: usize = 6;
/// Number of features the placer consumes per group.
pub const PLACER_FEATURES: usize = 5;

fn class_one_hot(class: &LayerClass) -> [f64; 4] {
    match class {
        LayerClass::ConvLike { .. } => [1.0, 0.0, 0.0, 0.0],
        LayerClass::DenseLike => [0.0, 1.0, 0.0, 0.0],
        LayerClass::Reduction => [0.0, 0.0, 1.0, 0.0],
        LayerClass::Recurrent => [0.0, 0.0, 0.0, 1.0],
    }
}

fn log_scale(x: u64, denom: f64) -> f64 {
    ((x + 1) as f64).log10() / denom
}

/// Features for the boundary decision at layer `t` with the current group
/// starting at `s`.
pub fn boundary_features(model: &LinearModel, s: usize, t: usize, can_extend: bool) -> Vec<f64> {
    let n = model.layers().len() as f64;
    let layer = &model.layers()[t];
    let oh = class_one_hot(&layer.class);
    vec![
        oh[0],
        oh[1],
        oh[2],
        oh[3],
        log_scale(layer.flops, 12.0),
        log_scale(layer.weight_bytes, 10.0),
        (t + 1) as f64 / n,
        (t - s + 1) as f64 / 6.0,
        can_extend as u8 as f64,
        log_scale(layer.out_bytes(), 8.0),
    ]
}

/// Features for the option decision of the closed group `s..e`.
pub fn group_features(model: &LinearModel, s: usize, e: usize) -> Vec<f64> {
    let layers = &model.layers()[s..e];
    let flops: u64 = layers.iter().map(|l| l.flops).sum();
    let weights: u64 = layers.iter().map(|l| l.weight_bytes).sum();
    let oh = class_one_hot(&layers[0].class);
    vec![
        oh[0] + oh[2], // spatial-ish
        oh[1],
        oh[3],
        log_scale(flops, 12.0),
        log_scale(weights, 10.0),
        (e - s) as f64 / 6.0,
    ]
}

/// Features for the placer decision of a group whose master partition would
/// hold `w0` weight bytes, with `remaining` master budget left.
pub fn placer_features(
    model: &LinearModel,
    s: usize,
    e: usize,
    w0: u64,
    remaining: u64,
    parts: usize,
) -> Vec<f64> {
    let layers = &model.layers()[s..e];
    let flops: u64 = layers.iter().map(|l| l.flops).sum();
    vec![
        log_scale(flops, 12.0),
        log_scale(w0, 10.0),
        remaining as f64 / 1.5e9,
        parts as f64 / 16.0,
        (parts == 1) as u8 as f64,
    ]
}

/// The three policy networks.
#[derive(Debug, Clone)]
pub struct Agents {
    /// Boundary head: cut / continue.
    pub boundary: Mlp,
    /// Option head over the menu.
    pub option: Mlp,
    /// Placer head: workers-only / master participates.
    pub placer: Mlp,
    /// The fixed option menu.
    pub(crate) menu: OptionMenu,
}

impl Agents {
    /// Initializes all three networks.
    pub fn new<R: rand::RngExt + ?Sized>(rng: &mut R) -> Self {
        let menu = OptionMenu::default();
        Agents {
            boundary: Mlp::new(BOUNDARY_FEATURES, HIDDEN, 2, rng),
            option: Mlp::new(GROUP_FEATURES, HIDDEN, menu.entries.len(), rng),
            placer: Mlp::new(PLACER_FEATURES, HIDDEN, 2, rng),
            menu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillis_model::zoo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_menu_covers_spatial_and_channel() {
        let menu = OptionMenu::default();
        assert_eq!(menu.entries.len(), 8);
        let splits = |dim: PartDim| {
            let on = |o: &&PartitionOption| matches!(o, PartitionOption::Split { dim: d, .. } if *d == dim);
            menu.entries.iter().filter(on).count()
        };
        assert_eq!((splits(PartDim::Height), splits(PartDim::Channel)), (4, 3));
    }

    #[test]
    fn menu_mask_respects_structure_and_memory() {
        let menu = OptionMenu::default();
        let rnn = zoo::rnn(3);
        let mask = menu.mask(&rnn, 0, 1, 1_400_000_000, &EvalCache::new());
        // Recurrent: only Single unmasked.
        assert_eq!(mask.iter().filter(|&&m| m).count(), 1);
        assert!(mask[0]);

        let vgg = zoo::vgg11();
        let mask = menu.mask(&vgg, 0, 1, 1_400_000_000, &EvalCache::new());
        // Conv head: everything unmasked.
        assert!(mask.iter().all(|&m| m));
    }

    #[test]
    fn mask_blocks_oversized_single() {
        let menu = OptionMenu::default();
        let wrn = zoo::wrn50(5);
        // The whole model as one group cannot run Single under 1.4 GB...
        let n = wrn.layers().len();
        let mask = menu.mask(&wrn, 0, n, 1_400_000_000, &EvalCache::new());
        assert!(!mask[0]);
    }

    #[test]
    fn feature_vectors_have_declared_sizes() {
        let vgg = zoo::vgg11();
        assert_eq!(boundary_features(&vgg, 0, 0, true).len(), BOUNDARY_FEATURES);
        assert_eq!(group_features(&vgg, 0, 2).len(), GROUP_FEATURES);
        assert_eq!(
            placer_features(&vgg, 0, 2, 1000, 1_000_000, 4).len(),
            PLACER_FEATURES
        );
        // Features are bounded (roughly [0, ~2]) for network stability.
        for f in boundary_features(&vgg, 0, 5, false) {
            assert!((-0.1..=2.5).contains(&f), "feature {f}");
        }
    }

    #[test]
    fn agents_initialize_with_menu_sized_heads() {
        let mut rng = StdRng::seed_from_u64(0);
        let agents = Agents::new(&mut rng);
        let f = agents.option.forward(&[0.5; GROUP_FEATURES]);
        assert_eq!(f.logits.len(), 8);
    }
}
