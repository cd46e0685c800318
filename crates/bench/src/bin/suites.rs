//! `suites <name> [--smoke] [out_dir]`: runs one simulator suite
//! ([`gillis_bench::suites::SUITES`]), writes `<out_dir>/BENCH_<name>.json` and
//! exits 1 on a failed acceptance criterion, 2 on an unknown flag or name.
fn main() {
    gillis_bench::suites::main();
}
