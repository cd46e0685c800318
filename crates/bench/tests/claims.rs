//! Tier-1 gate on the paper's shapes, the studies' claims and the committed
//! simulator artifacts: loops over the experiment tables of `gillis_bench`,
//! which hold the rows and the claims.

use gillis_bench::figures::FIGURES;
use gillis_bench::studies::STUDIES;
use gillis_bench::suites::SUITES;
use gillis_bench::Claim;
use gillis_core::PolicyStack;

fn assert_all_hold(experiment: &str, claims: &[Claim]) {
    assert!(!claims.is_empty(), "{experiment} states no claim");
    for c in claims {
        assert!(
            c.holds,
            "{experiment}: claim failed: {}: {}",
            c.name, c.detail
        );
    }
}

/// Every figure's claims hold. Fig 13 takes seconds, not milliseconds: CI
/// runs `figures fig13 --smoke` instead.
#[test]
fn the_papers_figures_keep_their_shapes() {
    for figure in FIGURES.iter().filter(|f| f.name != "fig13") {
        assert_all_hold(figure.name, &(figure.claims)(&(figure.run)(true)));
    }
}

/// Every ablation and extension study states at least one claim, and all of
/// them hold.
#[test]
fn every_study_makes_its_claims() {
    for study in &STUDIES {
        assert_all_hold(study.name, &(study.claims)(&(study.run)(true)));
    }
}

/// Every committed `BENCH_<suite>.json` is, byte for byte, what its suite
/// writes at its default seed in a clean environment — whatever the ambient
/// one holds (`PolicyStack::default()`, not `from_env()`: this test runs
/// under the CI chaos job) — and meets the suite's acceptance criteria.
#[test]
fn the_committed_artifacts_regenerate_byte_identical_and_meet_their_criteria() {
    for suite in &SUITES {
        let sweep = (suite.run)(suite.default_seed, false, &PolicyStack::default());
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            suite.name
        );
        let committed = std::fs::read_to_string(&path).expect("committed artifact");
        assert_eq!(
            sweep.to_json(),
            committed,
            "{}: differs from {path}",
            suite.name
        );
        assert_all_hold(suite.name, &(suite.claims)(&sweep));
    }
}
