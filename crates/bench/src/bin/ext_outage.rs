//! `ext_outage [--smoke] [out_dir]`: runs [`gillis_bench::suites::outage`], writes
//! `BENCH_outage.json` and exits non-zero if an acceptance criterion fails.

fn main() {
    gillis_bench::suites::main("outage");
}
