//! `catalog_bench` — the million-program-catalog cache benchmark.
//!
//! Full mode sweeps the 1k- and 10k-program catalogs at request skews
//! s ∈ {0.8, 1.1}: an unbounded reference replay sizes the byte
//! budgets, then generation-order, cost-aware, and cost-aware+tiered
//! caches replay the *same seeded Zipfian request stream* at 1/8, 1/4,
//! and 1/2 of the reference footprint. Prints the report and writes it
//! to `BENCH_CATALOG.json` (or the path given as the first argument);
//! fails if cost-aware tiered caching does not beat generation-order
//! eviction at every budget.
//!
//! `--smoke [GOLDEN]` runs the CI gate instead: the 1k catalog at
//! s = 1.1, rendered as integer counters only, byte-compared against
//! the committed golden curve (default
//! `tests/golden/catalog_smoke.json`). Set `OMOS_UPDATE_GOLDEN=1` to
//! regenerate the golden file after an intentional change.

use omos_bench::catalog::{run_catalog, to_json, to_smoke_json, CatalogSpec, DriveCfg};

/// Driver seed for every replay (distinct from the catalog seed, so
/// regenerating one does not silently re-roll the other).
const DRIVER_SEED: u64 = 1993;

/// Request-skew exponents on the full curves.
const SKEWS: [f64; 2] = [0.8, 1.1];

fn drive_cfg(requests: usize) -> DriveCfg {
    DriveCfg {
        requests,
        seed: DRIVER_SEED,
        s: SKEWS[0], // per-curve override inside run_catalog
        churn_every: 16,
    }
}

/// Every budgeted curve point must show cost-aware+tiered beating
/// generation-order at the same budget — the acceptance gate the
/// report file is required to demonstrate. Every point must also show
/// rebind recovery on the warm server costing no more than the cold
/// full relinks it replaced would have billed.
fn assert_tiered_wins(results: &[omos_bench::catalog::CatalogResult]) {
    for r in results {
        for c in &r.curves {
            for p in &c.points {
                let d = &p.result;
                assert!(d.recoveries > 0, "churn must trigger rebind recoveries");
                assert!(
                    d.recovery_incremental_ns <= d.recovery_full_ns,
                    "{} programs, s={:.2}, {} budget {}: incremental recovery \
                     {} > full-equivalent {}",
                    r.spec.programs,
                    c.s,
                    p.plan,
                    p.budget,
                    d.recovery_incremental_ns,
                    d.recovery_full_ns
                );
                if p.plan != "generation-order" {
                    continue;
                }
                let rival = c
                    .points
                    .iter()
                    .find(|q| q.plan == "cost-aware+tiered" && q.budget == p.budget)
                    .expect("every budget has a tiered point");
                assert!(
                    rival.result.avoidance() > p.result.avoidance(),
                    "{} programs, s={:.2}, budget {}: tiered {:.4} <= baseline {:.4}",
                    r.spec.programs,
                    c.s,
                    p.budget,
                    rival.result.avoidance(),
                    p.result.avoidance()
                );
            }
        }
    }
}

fn run_smoke(golden_path: &str) {
    let result = run_catalog(CatalogSpec::small(), &[1.1], &drive_cfg(2_500));
    assert_tiered_wins(std::slice::from_ref(&result));
    let got = to_smoke_json(&result);
    eprint!("{got}");
    match omos_bench::report::check_smoke_golden(golden_path, &got) {
        Ok(line) => eprintln!("{line}"),
        Err(e) => {
            eprintln!("catalog_bench: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--smoke") {
        let golden = args
            .get(1)
            .cloned()
            .unwrap_or_else(|| "tests/golden/catalog_smoke.json".to_string());
        run_smoke(&golden);
        return;
    }
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_CATALOG.json".to_string());
    let results = vec![
        run_catalog(CatalogSpec::small(), &SKEWS, &drive_cfg(4_000)),
        run_catalog(CatalogSpec::large(), &SKEWS, &drive_cfg(8_000)),
    ];
    assert_tiered_wins(&results);
    let json = to_json(&results);
    eprint!("{json}");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("catalog_bench: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
