//! Regenerates the memory-use comparison (\[11\], cited in §2.1 and §4.1)
//! (see `omos_bench::report::memuse`).

fn main() {
    print!("{}", omos_bench::report::memuse());
}
