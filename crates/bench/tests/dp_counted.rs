//! What a deploy's search costs, counted rather than timed: heap allocations
//! (by the ledger's counting global allocator) and integrated order
//! statistics of a cold latency-optimal VGG-11 search on Lambda at width 1.
//! One test, so that nothing else runs while the process-wide counter counts.

use gillis_bench::counts::{counted, CountingAlloc};
use gillis_core::DpPartitioner;
use gillis_faas::PlatformProfile;
use gillis_model::zoo;
use gillis_perf::PerfModel;
use gillis_pool::with_width_cap;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts do not vary by host: 2,263 allocations since a square group builds
/// no `Width` walker and one pass prices both placements of an option (2,983
/// with a walker per option, 13,743 when every candidate built a
/// `GroupPrediction`), and the 12 fan-outs of the default degrees, each with
/// and without the master. `COUNTS.json` records the exact values.
#[test]
fn a_cold_vgg11_search_allocates_and_integrates_only_what_it_needs() {
    let vgg = zoo::vgg11();
    let perf = PerfModel::analytic(&PlatformProfile::aws_lambda());
    assert_eq!(perf.comm.order_statistics_computed(), 0);
    let (plan, allocations) =
        counted(|| with_width_cap(1, || DpPartitioner::default().partition(&vgg, &perf)).unwrap());
    assert!(!plan.groups().is_empty());
    assert!(allocations > 0, "CountingAlloc is not the global allocator");
    assert!(allocations <= 2_300, "{allocations} allocations");
    assert_eq!(perf.comm.order_statistics_computed(), 12);
}
