//! Tier-1 gate on the counted ledger: `COUNTS.json` is, byte for byte, what
//! [`COUNTS`] counts, and every claim of it holds. One test, so that nothing
//! else runs while the process-wide counters count; `cargo test -p
//! gillis-bench --test counts -- --ignored regenerate` rewrites the file from
//! the code under test.

use gillis_bench::counts::{CountingAlloc, COUNTS};
use gillis_core::PolicyStack;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The committed ledger, at the repository root.
fn ledger() -> String {
    let file = COUNTS.artifact.expect("the ledger is committed");
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

/// The ledger at its default seed, whatever the environment holds.
fn count() -> gillis_bench::sweep::Sweep {
    (COUNTS.run)(COUNTS.default_seed, false, &PolicyStack::default())
}

#[test]
fn the_counted_ledger_regenerates_byte_identical_and_meets_its_claims() {
    let sweep = count();
    let claims = (COUNTS.claims)(&sweep);
    assert!(!claims.is_empty(), "the ledger states no claim");
    for c in claims {
        assert!(c.holds, "counts: claim failed: {}: {}", c.name, c.detail);
    }
    let committed = std::fs::read_to_string(ledger()).expect("committed ledger");
    let got = sweep.to_json();
    for (k, (want, got)) in committed.lines().zip(got.lines()).enumerate() {
        assert_eq!(got, want, "COUNTS.json line {}", k + 1);
    }
    assert_eq!(
        got.lines().count(),
        committed.lines().count(),
        "COUNTS.json rows"
    );
    assert_eq!(got, committed);
}

#[test]
#[ignore = "rewrites COUNTS.json from the code under test"]
fn regenerate() {
    std::fs::write(ledger(), count().to_json()).expect("write the ledger");
}
