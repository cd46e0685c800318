//! `studies [grouping … tail_slo]`: the ablations and extensions and their
//! claims ([`gillis_bench::studies`]); exits 1 on a failed claim, 2 on an unknown name.
fn main() {
    gillis_bench::run_experiments(&gillis_bench::studies::STUDIES);
}
