//! `figures [name…] [--smoke | --quick]`: regenerates the paper's figures
//! ([`gillis_bench::figures`]) — all nine, or the named ones (`fig01` …
//! `fig15`) — prints each with the paper's claims about it, and exits
//! non-zero if a claim fails. `--quick` runs Fig 13 at its reduced sizes
//! (~8 s instead of ~15 s); `--smoke` is the name CI uses for the same.

use gillis_bench::figures::FIGURES;
use gillis_bench::{bench_args, report_claims};

fn main() {
    let (quick, names) = bench_args(&["--smoke", "--quick"]);
    if let Some(unknown) = names.iter().find(|n| FIGURES.iter().all(|f| f.name != **n)) {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!("unknown figure {unknown}; one of: {}", known.join(" "));
        std::process::exit(2);
    }
    let chosen = |name: &str| names.is_empty() || names.iter().any(|n| n == name);
    let mut failed = 0;
    for figure in FIGURES.iter().filter(|f| chosen(f.name)) {
        let sweep = (figure.run)(quick);
        sweep.print();
        println!("\nclaims:");
        failed += report_claims(figure.name, &(figure.claims)(&sweep));
        println!();
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
