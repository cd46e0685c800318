//! Tier-1 gate on the counted ledger: `COUNTS.json` is, byte for byte, what
//! [`COUNTS`] counts, and every claim of it holds. One test, so that nothing
//! else runs while the process-wide counters count; `cargo test -p
//! gillis-bench --test counts -- --ignored regenerate` rewrites the file from
//! the code under test.

use gillis_bench::counts::{CountingAlloc, COUNTS};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../COUNTS.json");

#[test]
fn the_counted_ledger_regenerates_byte_identical_and_meets_its_claims() {
    let sweep = (COUNTS.run)(false);
    let claims = (COUNTS.claims)(&sweep);
    assert!(!claims.is_empty(), "the ledger states no claim");
    for c in claims {
        assert!(c.holds, "counts: claim failed: {}: {}", c.name, c.detail);
    }
    let committed = std::fs::read_to_string(LEDGER).expect("committed ledger");
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
    std::fs::write(LEDGER, (COUNTS.run)(false).to_json()).expect("write the ledger");
}
