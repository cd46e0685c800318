//! `ext_pipeline [--smoke] [out_dir]`: runs [`gillis_bench::suites::pipeline`], writes
//! `BENCH_pipeline.json` and exits non-zero if an acceptance criterion fails.

fn main() {
    gillis_bench::suites::main("pipeline");
}
