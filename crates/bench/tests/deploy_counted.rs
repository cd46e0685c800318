//! What a kept deployment costs, counted rather than timed: the net heap
//! bytes that ten latency-optimal Lambda deployments of one ResNet-101 hold,
//! measured by the ledger's counting global allocator. A deployment keeps its
//! plan and its prediction; the model is shared with every other clone, not
//! copied. One test, so that nothing else runs while the counter counts.

use gillis::model::zoo;
use gillis::serving::{Deployment, Gillis};
use gillis_bench::counts::{retained, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The heap a deep copy of ResNet-101's description holds: its graph and
/// merged layers at exact capacities, what `LinearModel::clone` once copied
/// into every builder and deployment.
const MODEL_COPY_BYTES: isize = 66_327;

/// Ten deployments of one model retain ~9.6 KB together, 8 KB of it the ten
/// `Deployment` values themselves; deployments that each held a copy of the
/// model retained ~674 KB. `COUNTS.json` records the exact value.
#[test]
fn deployments_of_one_model_retain_less_than_one_model_copy() {
    let model = zoo::resnet101();
    // The first deploy starts the pool and fills lazily built tables.
    drop(Gillis::new(model.clone()).deploy().unwrap());

    let (kept, retained) = retained(|| {
        (0..10)
            .map(|_| Gillis::new(model.clone()).deploy().unwrap())
            .collect::<Vec<Deployment>>()
    });
    assert_eq!(kept.len(), 10);
    assert!(retained > 0, "CountingAlloc is not the global allocator");
    assert!(
        retained < MODEL_COPY_BYTES,
        "10 deployments retain {retained} B, one model copy is {MODEL_COPY_BYTES} B"
    );
}
