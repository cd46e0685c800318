//! `ext_batch [--smoke] [out_dir]`: runs [`gillis_bench::suites::batch`], writes
//! `BENCH_batch.json` and exits non-zero if an acceptance criterion fails.

fn main() {
    gillis_bench::suites::main("batch");
}
