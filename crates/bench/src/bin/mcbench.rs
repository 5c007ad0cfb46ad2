//! `mcbench` — the multi-client throughput benchmark.
//!
//! Sweeps 1/2/4/8 client threads against one shared OMOS server, cold
//! and warm, prints the report and writes it to `BENCH_CONCURRENCY.json`
//! (or the path given as the first argument); `ofe stats` renders its
//! per-stage latency table. See `omos_bench::mcbench` for methodology.

use omos_bench::mcbench::{run_multiclient, to_json};
use omos_bench::workload::WorkloadSizes;
use omos_os::ipc::Transport;
use omos_os::CostModel;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_CONCURRENCY.json".to_string());
    let result = run_multiclient(
        &WorkloadSizes::small(),
        CostModel::hpux(),
        Transport::SysVMsg,
        &[1, 2, 4, 8],
        25,
        true,
    );
    let json = to_json(&result);
    eprint!("{json}");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("mcbench: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
