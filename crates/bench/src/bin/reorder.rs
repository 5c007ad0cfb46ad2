//! Regenerates the §4.1 reordering experiment: monitored procedure
//! reordering should yield a speedup "in excess of 10%" (\[14\])
//! (see `omos_bench::report::reorder`).

fn main() {
    print!("{}", omos_bench::report::reorder());
}
