//! `trace_guard` — the tracing-overhead regression guard.
//!
//! Runs the mcbench warm phase twice, tracing on and tracing off, and
//! fails (exit 1) if tracing costs more than 5% of warm wall-clock
//! throughput. The simulated numbers must be *identical* — tracing
//! observes the SimClock domain, it never charges it — so any sim-level
//! difference is a hard failure regardless of the wall budget.
//!
//! Wall-clock on a shared CI host is noisy, so each mode takes the best
//! (minimum) warm wall time over several repetitions: the minimum
//! estimates the true cost with the least scheduler interference.
//!
//! The same property is guarded for intra-request parallelism: a sweep
//! with `OMOS_EVAL_JOBS=8` must produce the same cold and warm sim
//! makespans as `OMOS_EVAL_JOBS=1` (the schedule may only move
//! `latency_ns`, never the billed work), and at jobs=1 each library is
//! placed and then linked in turn, so any sim difference is a hard
//! failure.

use omos_bench::mcbench::{run_cold_link, run_multiclient, run_transport_overhead};
use omos_bench::workload::WorkloadSizes;
use omos_os::ipc::Transport;
use omos_os::CostModel;

const REPS: usize = 5;
const THREADS: usize = 4;
const PER_THREAD: usize = 400;
const MAX_OVERHEAD: f64 = 0.05;

/// One warm measurement: total warm wall and the warm sim makespans.
fn measure_once(tracing: bool) -> (f64, Vec<u64>) {
    let r = run_multiclient(
        &WorkloadSizes::small(),
        CostModel::hpux(),
        Transport::SysVMsg,
        &[THREADS],
        PER_THREAD,
        tracing,
    );
    let wall: f64 = r.warm.iter().map(|p| p.wall_ms).sum();
    (wall, r.warm.iter().map(|p| p.makespan_ns).collect())
}

/// Every simulated makespan (cold then warm) for a *single-client*
/// sweep with the server's evaluation parallelism forced to `jobs`.
/// One client keeps the cold phase deterministic — with racing clients
/// the leader/coalesce/cache-hit split varies run to run, so cold
/// makespans aren't comparable even between two jobs=1 runs. The
/// single-client cold phase still drives every build through the
/// parallel path when `jobs > 1`.
fn sim_profile(jobs: usize) -> Vec<u64> {
    std::env::set_var("OMOS_EVAL_JOBS", jobs.to_string());
    let r = run_multiclient(
        &WorkloadSizes::small(),
        CostModel::hpux(),
        Transport::SysVMsg,
        &[1],
        PER_THREAD,
        false,
    );
    std::env::remove_var("OMOS_EVAL_JOBS");
    r.cold
        .iter()
        .chain(r.warm.iter())
        .map(|p| p.makespan_ns)
        .collect()
}

/// Fails if parallel evaluation perturbs the simulated domain.
fn guard_parallel_identity() {
    let seq = sim_profile(1);
    let par = sim_profile(8);
    if seq != par {
        eprintln!(
            "trace_guard: FAIL — eval_jobs=8 perturbed sim makespans: jobs=1 {seq:?} vs jobs=8 {par:?}"
        );
        std::process::exit(1);
    }
    let cl = run_cold_link(CostModel::hpux(), Transport::SysVMsg, 8);
    if cl.sequential.server_ns != cl.parallel.server_ns {
        eprintln!(
            "trace_guard: FAIL — cold-link bill changed under parallelism: {} vs {}",
            cl.sequential.server_ns, cl.parallel.server_ns
        );
        std::process::exit(1);
    }
    if cl.sequential.latency_ns != cl.sequential.server_ns {
        eprintln!(
            "trace_guard: FAIL — sequential latency {} != billed work {}",
            cl.sequential.latency_ns, cl.sequential.server_ns
        );
        std::process::exit(1);
    }
    if cl.parallel.latency_ns > cl.sequential.latency_ns {
        eprintln!(
            "trace_guard: FAIL — parallel critical path {} exceeds sequential {}",
            cl.parallel.latency_ns, cl.sequential.latency_ns
        );
        std::process::exit(1);
    }
    eprintln!(
        "parallel identity: sim makespans invariant; cold-link bill {} ns, \
         critical path {} -> {} ns",
        cl.sequential.server_ns, cl.sequential.latency_ns, cl.parallel.latency_ns
    );
}

/// The batched and shared-memory transports must fit the same trace
/// budget on their warm paths: tracing on vs off may move wall time at
/// most 5% and the simulated makespan not at all. The legacy SysV
/// transport runs through the same session harness as a control.
fn guard_transport_overhead() {
    for transport in [Transport::SysVMsg, Transport::Pipelined, Transport::ShmRing] {
        let measure = |tracing: bool| {
            run_transport_overhead(
                &WorkloadSizes::small(),
                CostModel::hpux(),
                transport,
                THREADS,
                PER_THREAD,
                tracing,
            )
        };
        let _ = measure(true); // untimed warmup
        let (mut off_wall, mut on_wall) = (f64::INFINITY, f64::INFINITY);
        let (mut off_sim, mut on_sim) = (0u64, 0u64);
        for _ in 0..REPS {
            let (w, s) = measure(false);
            off_wall = off_wall.min(w);
            off_sim = s;
            let (w, s) = measure(true);
            on_wall = on_wall.min(w);
            on_sim = s;
        }
        if on_sim != off_sim {
            eprintln!(
                "trace_guard: FAIL — {} sim makespan moved with tracing: {} vs {}",
                transport.name(),
                off_sim,
                on_sim
            );
            std::process::exit(1);
        }
        let overhead = (on_wall - off_wall) / off_wall;
        eprintln!(
            "{} warm wall (best of {REPS}): off {off_wall:.3} ms, on {on_wall:.3} ms ({:.1}%)",
            transport.name(),
            overhead * 100.0
        );
        if overhead > MAX_OVERHEAD {
            eprintln!(
                "trace_guard: FAIL — {} tracing costs {:.1}% of warm wall time (budget {:.0}%)",
                transport.name(),
                overhead * 100.0,
                MAX_OVERHEAD * 100.0
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    guard_parallel_identity();
    guard_transport_overhead();
    // Interleave the modes so CPU warmup, page-cache state, and
    // allocator pools bias neither side; one untimed warmup first.
    let _ = measure_once(true);
    let (mut off_wall, mut on_wall) = (f64::INFINITY, f64::INFINITY);
    let (mut off_sim, mut on_sim) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (w, sim) = measure_once(false);
        off_wall = off_wall.min(w);
        off_sim = sim;
        let (w, sim) = measure_once(true);
        on_wall = on_wall.min(w);
        on_sim = sim;
    }

    eprintln!("warm wall (best of {REPS}): tracing off {off_wall:.3} ms, on {on_wall:.3} ms");
    if on_sim != off_sim {
        eprintln!("trace_guard: FAIL — simulated makespans differ: {off_sim:?} vs {on_sim:?}");
        std::process::exit(1);
    }
    let overhead = (on_wall - off_wall) / off_wall;
    eprintln!("tracing overhead: {:.1}%", overhead * 100.0);
    if overhead > MAX_OVERHEAD {
        eprintln!(
            "trace_guard: FAIL — tracing costs {:.1}% of warm wall time (budget {:.0}%)",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
    eprintln!("trace_guard: OK");
}
