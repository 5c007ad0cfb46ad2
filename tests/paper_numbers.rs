//! Every paper number the reproduction prints, pinned byte for byte.
//!
//! Each report (`omos_bench::report`) is rendered in-process, on the
//! deterministic simulated clock, and compared with its golden file:
//!
//! * `table1.txt` — Table 1 plus the abstract's summary (`table1
//!   --summary`): the per-block ratios and the 24.3% average speedup,
//!   range 0%–56%;
//! * `memuse.txt` — the \[11\] dispatch-table-vs-savings comparison;
//! * `reorder.txt` — the §4.1 procedure-reordering speedup (17.8%);
//! * `ablate.txt` — the five design ablations, including the §3.5
//!   conflict log.
//!
//! A change to any golden changes a published number: it must be
//! explained, not just regenerated.

use omos::bench::report;

fn check(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden report {path:?}: {e}"));
    assert_eq!(
        got, want,
        "{name}: the report no longer prints the pinned paper numbers"
    );
}

#[test]
fn table1_and_abstract_summary() {
    check("table1.txt", &report::table1(true));
}

#[test]
fn memory_use_comparison() {
    check("memuse.txt", &report::memuse());
}

#[test]
fn reordering_speedup() {
    check("reorder.txt", &report::reorder());
}

#[test]
fn design_ablations() {
    check("ablate.txt", &report::ablate());
}
