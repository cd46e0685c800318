//! `ext_overload [--smoke] [out_dir]`: runs [`gillis_bench::suites::overload`], writes
//! `BENCH_overload.json` and exits non-zero if an acceptance criterion fails.

fn main() {
    gillis_bench::suites::main("overload");
}
