//! `studies [grouping … tail_slo] [--smoke]`: the ablations and extensions
//! ([`gillis_bench::studies`]); see [`gillis_bench::run_experiments`].
fn main() {
    gillis_bench::run_experiments(&gillis_bench::studies::STUDIES);
}
