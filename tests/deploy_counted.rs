//! What a kept deployment costs, counted rather than timed: the net heap
//! bytes that ten latency-optimal Lambda deployments of one ResNet-101 hold,
//! measured by a counting global allocator. A deployment keeps its plan and
//! its prediction; the model is shared with every other clone, not copied.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use gillis::model::zoo;
use gillis::serving::{Deployment, Gillis};

struct CountingAlloc;

/// Net live heap bytes of the whole process. Global, not per thread: the
/// planner allocates on pool threads and the caller frees.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates to `System` unchanged; `alloc_zeroed` and `realloc` keep
// their default bodies, which allocate and free through `alloc` and
// `dealloc`. The counter is a static atomic: no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

/// The heap a deep copy of ResNet-101's description holds: its graph and
/// merged layers at exact capacities, what `LinearModel::clone` once copied
/// into every builder and deployment.
const MODEL_COPY_BYTES: isize = 66_327;

/// Ten deployments of one model retain ~9.7 KB together, 8 KB of it the ten
/// `Deployment` values themselves; deployments that each held a copy of the
/// model retained ~674 KB.
#[test]
fn deployments_of_one_model_retain_less_than_one_model_copy() {
    let model = zoo::resnet101();
    // The first deploy starts the pool and fills lazily built tables.
    drop(Gillis::new(model.clone()).deploy().unwrap());

    let before = live();
    let kept: Vec<Deployment> = (0..10)
        .map(|_| Gillis::new(model.clone()).deploy().unwrap())
        .collect();
    let retained = live() - before;
    assert_eq!(kept.len(), 10);
    assert!(
        retained < MODEL_COPY_BYTES,
        "10 deployments retain {retained} B, one model copy is {MODEL_COPY_BYTES} B"
    );
}
