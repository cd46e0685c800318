//! `figures [fig01 … fig15] [--smoke | --quick]`: the paper's figures and their
//! claims ([`gillis_bench::figures`]); exits 1 on a failed claim, 2 on an unknown name.
fn main() {
    gillis_bench::run_experiments(&gillis_bench::figures::FIGURES);
}
