//! Ablations over the design choices DESIGN.md calls out: IPC transport,
//! caching, synchronous writes and constraint conflicts (see
//! `omos_bench::report::ablate`).

fn main() {
    print!("{}", omos_bench::report::ablate());
}
