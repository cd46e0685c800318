//! What a deploy's search costs, counted rather than timed: heap allocations
//! (per thread, by a counting global allocator) and integrated order
//! statistics of a cold latency-optimal VGG-11 search on Lambda at width 1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gillis_core::DpPartitioner;
use gillis_faas::PlatformProfile;
use gillis_model::zoo;
use gillis_perf::PerfModel;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates to `System` unchanged; `alloc_zeroed` and `realloc` keep
// their default bodies, which allocate through `alloc`. The counter is a
// const-initialised thread-local `Cell`: no destructor, no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts do not vary by host: 2,263 allocations since a square group builds
/// no `Width` walker and one pass prices both placements of an option (2,983
/// with a walker per option, 13,743 when every candidate built a
/// `GroupPrediction`), and the 12 fan-outs of the default degrees, each with
/// and without the master.
#[test]
fn a_cold_vgg11_search_allocates_and_integrates_only_what_it_needs() {
    let vgg = zoo::vgg11();
    let perf = PerfModel::analytic(&PlatformProfile::aws_lambda());
    assert_eq!(perf.comm.order_statistics_computed(), 0);
    let before = ALLOCS.with(Cell::get);
    let plan = DpPartitioner::default()
        .with_threads(1)
        .partition(&vgg, &perf)
        .unwrap();
    let allocations = ALLOCS.with(Cell::get) - before;
    assert!(!plan.groups().is_empty());
    assert!(allocations <= 2_300, "{allocations} allocations");
    assert_eq!(perf.comm.order_statistics_computed(), 12);
}
