//! Everything a workload feeds the library, derived from `--seed`: the same
//! seed gives the same weights, query tensors and simulation seeds.

use gillis::tensor::{Shape, Tensor};
use rand::{RngExt, SeedableRng, StdRng};

/// Independent sub-seed for one named purpose of a run (weights, queries,
/// arrivals, chaos, ...), so the streams do not alias each other.
pub fn derive(seed: u64, purpose: &str) -> u64 {
    // FNV-1a over the purpose, then one splitmix64 round over both.
    let tag = purpose.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let mut z = seed ^ tag.rotate_left(17);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A query tensor of `shape` with values uniform in [-1, 1).
pub fn query_tensor(shape: &Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(shape.clone(), |_| rng.random_range(-1.0_f32..1.0))
}

/// `n` distinct query tensors for one workload.
pub fn query_tensors(shape: &Shape, seed: u64, n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| query_tensor(shape, derive(seed, &format!("query{i}"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        let shape = Shape::new(vec![3, 8, 8]);
        let a = query_tensors(&shape, 42, 2);
        let b = query_tensors(&shape, 42, 2);
        for (x, y) in a.iter().zip(&b) {
            assert!(x
                .data()
                .iter()
                .zip(y.data())
                .all(|(p, q)| p.to_bits() == q.to_bits()));
        }
        assert_ne!(a[0].data(), a[1].data());
        assert_ne!(a[0].data(), query_tensors(&shape, 43, 1)[0].data());
        assert!(a[0].data().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn purposes_get_independent_seeds() {
        assert_eq!(derive(7, "weights"), derive(7, "weights"));
        assert_ne!(derive(7, "weights"), derive(7, "chaos"));
        assert_ne!(derive(7, "weights"), derive(8, "weights"));
    }
}
