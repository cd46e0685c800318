//! Tier-1 gate on the paper's shapes, the studies' claims and the committed
//! simulator artifacts: loops over the three experiment tables of
//! `gillis_bench`, which hold the rows, the claims and the default seeds.
//! Every experiment runs at its default seed in a clean environment
//! (`PolicyStack::default()`, not `from_env()`: these tests run under the CI
//! chaos job).

use gillis_bench::figures::FIGURES;
use gillis_bench::studies::STUDIES;
use gillis_bench::suites::SUITES;
use gillis_bench::sweep::Sweep;
use gillis_bench::Experiment;
use gillis_core::PolicyStack;

fn run(experiment: &Experiment, smoke: bool) -> Sweep {
    (experiment.run)(experiment.default_seed, smoke, &PolicyStack::default())
}

fn assert_all_hold(experiment: &Experiment, sweep: &Sweep) {
    let claims = (experiment.claims)(sweep);
    assert!(!claims.is_empty(), "{} states no claim", experiment.name);
    for c in claims {
        assert!(
            c.holds,
            "{}: claim failed: {}: {}",
            experiment.name, c.name, c.detail
        );
    }
}

/// Every figure's claims hold. Fig 13 takes seconds, not milliseconds: CI
/// runs `figures fig13 --smoke` instead.
#[test]
fn the_papers_figures_keep_their_shapes() {
    for figure in FIGURES.iter().filter(|f| f.name != "fig13") {
        assert_all_hold(figure, &run(figure, true));
    }
}

/// Every ablation and extension study states at least one claim, and all of
/// them hold.
#[test]
fn every_study_makes_its_claims() {
    for study in &STUDIES {
        assert_all_hold(study, &run(study, true));
    }
}

/// Every committed `BENCH_<suite>.json` is, byte for byte, what its suite
/// writes at its default seed, and meets the suite's acceptance criteria.
#[test]
fn the_committed_artifacts_regenerate_byte_identical_and_meet_their_criteria() {
    for suite in &SUITES {
        let sweep = run(suite, false);
        let file = suite.artifact.expect("every suite is committed");
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("committed artifact");
        assert_eq!(
            sweep.to_json(),
            committed,
            "{}: differs from {path}",
            suite.name
        );
        assert_all_hold(suite, &sweep);
    }
}

/// Every figure (Fig 13 at smoke sizes) and every study is a function of its
/// seed: two runs at the default seed print the same sweep.
#[test]
fn every_figure_and_study_repeats_at_its_default_seed() {
    for experiment in FIGURES.iter().chain(&STUDIES) {
        let [first, second] = [(); 2].map(|()| run(experiment, true).to_json());
        assert_eq!(
            first, second,
            "{} differs between two runs",
            experiment.name
        );
    }
}
