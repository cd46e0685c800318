//! `suites [overload … recovery] [--smoke]`: the simulator suites, each
//! writing its `BENCH_<name>.json`; see [`gillis_bench::run_experiments`].
fn main() {
    gillis_bench::run_experiments(&gillis_bench::suites::SUITES);
}
