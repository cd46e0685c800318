//! `ext_failures [--smoke] [out_dir]`: runs [`gillis_bench::suites::resilience`], writes
//! `BENCH_resilience.json` and exits non-zero if an acceptance criterion fails.

fn main() {
    gillis_bench::suites::main("resilience");
}
