//! `ext_recovery [--smoke] [out_dir]`: runs [`gillis_bench::suites::recovery`], writes
//! `BENCH_recovery.json` and exits non-zero if an acceptance criterion fails.

fn main() {
    gillis_bench::suites::main("recovery");
}
