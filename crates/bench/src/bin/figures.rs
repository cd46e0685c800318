//! `figures [fig01 … fig15] [--smoke]`: the paper's figures and their claims
//! ([`gillis_bench::figures`]); see [`gillis_bench::run_experiments`].
fn main() {
    gillis_bench::run_experiments(&gillis_bench::figures::FIGURES);
}
