//! Ablations over the design choices DESIGN.md calls out: IPC transport,
//! caching, synchronous writes, constraint conflicts and DeltaBlue vs
//! first-fit (see `omos_bench::report::ablate`).

fn main() {
    print!("{}", omos_bench::report::ablate());
}
