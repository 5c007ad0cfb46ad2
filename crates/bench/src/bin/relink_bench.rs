//! `relink_bench` — incremental relink cost scaling with diff size.
//!
//! Full mode sweeps a 12-library program over k = 1..12 rebound
//! libraries: each point rebuilds the rebind-invalidated reply once
//! through the warm server's diff-driven incremental relink and once as
//! a cold full relink of the identical state, proves the two replies
//! bit-identical (program image, library images and keys, manifest
//! hash), and records both simulated costs. Prints the report and
//! writes it to `BENCH_RELINK.json` (or the path given as the first
//! argument); fails unless the 1-of-12 point is at least 5x faster
//! incrementally.
//!
//! `--smoke [GOLDEN]` runs the CI gate instead: the same sweep rendered
//! as integer counters only, byte-compared against the committed golden
//! curve (default `tests/golden/relink_smoke.json`). Set
//! `OMOS_UPDATE_GOLDEN=1` to regenerate the golden file after an
//! intentional change.

use omos_bench::relink::{assert_gate, run_relink_bench, to_json, to_smoke_json};

fn run_smoke(golden_path: &str) {
    let r = run_relink_bench();
    assert_gate(&r);
    let got = to_smoke_json(&r);
    eprint!("{got}");
    match omos_bench::report::check_smoke_golden(golden_path, &got) {
        Ok(line) => eprintln!("{line}"),
        Err(e) => {
            eprintln!("relink_bench: {e}");
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
            .unwrap_or_else(|| "tests/golden/relink_smoke.json".to_string());
        run_smoke(&golden);
        return;
    }
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_RELINK.json".to_string());
    let r = run_relink_bench();
    assert_gate(&r);
    let json = to_json(&r);
    eprint!("{json}");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("relink_bench: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
