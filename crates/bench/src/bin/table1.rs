//! Regenerates the paper's Table 1: "Constraint-based Shared Library
//! Performance, Times in Seconds" (see `omos_bench::report::table1`).
//!
//! Pass `--summary` to also print the abstract's aggregate claim
//! ("average speedup of 20% (range 0 – 56%)").

fn main() {
    let summary = std::env::args().any(|a| a == "--summary");
    print!("{}", omos_bench::report::table1(summary));
}
