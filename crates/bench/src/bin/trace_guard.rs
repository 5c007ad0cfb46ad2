//! `trace_guard` — the tracing-overhead regression guard.
//!
//! Runs the mcbench warm phase twice, tracing on and tracing off, and
//! fails (exit 1) if tracing costs more than 5% of warm wall-clock
//! throughput. The simulated numbers must be *identical* — tracing
//! observes the SimClock domain, it never charges it — so any sim-level
//! difference is a hard failure regardless of the wall budget.
//!
//! Wall-clock on a shared CI host is noisy, and a slow stretch that
//! lands on one mode's runs decides a best-of-N comparison. So the two
//! modes run in interleaved pairs, back to back and alternating which
//! goes first, and the check takes the median of the per-pair
//! overheads: drift shared by both halves of a pair cancels, and no
//! single disturbed pair moves the median.
//!
//! "Tracing off" still counts: the tracer's counters are the server's
//! one ledger and count in both modes, so their per-request cost sits
//! in the untraced baseline. The guarded overhead is what tracing adds
//! on top: spans, histogram samples and request ids.
//!
//! The same property is guarded for the simulated lanes: a sweep with
//! `OMOS_EVAL_JOBS=8` must produce the same cold and warm sim makespans
//! as `OMOS_EVAL_JOBS=1` (the lane schedule may only move `latency_ns`,
//! never the billed work), so any sim difference is a hard failure.

use omos_bench::mcbench::{run_cold_link, run_multiclient, run_transport_overhead};
use omos_bench::workload::WorkloadSizes;
use omos_os::ipc::Transport;
use omos_os::CostModel;

/// Interleaved untraced/traced pairs per check (odd, for a median).
const PAIRS: usize = 101;
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
/// sweep with the server's simulated lanes forced to `jobs`.
/// One client keeps the cold phase deterministic — with racing clients
/// the leader/coalesce/cache-hit split varies run to run, so cold
/// makespans aren't comparable even between two jobs=1 runs. The
/// single-client cold phase still lays every build out on the lanes
/// when `jobs > 1`.
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

/// Fails if the lane count perturbs the billed simulated work.
fn guard_parallel_identity() {
    let seq = sim_profile(1);
    let par = sim_profile(8);
    if seq != par {
        fail(&format!(
            "eval_jobs=8 perturbed sim makespans: jobs=1 {seq:?} vs jobs=8 {par:?}"
        ));
    }
    let cl = run_cold_link(CostModel::hpux(), Transport::SysVMsg, 8);
    let (seq, par) = (&cl.sequential, &cl.parallel);
    if seq.server_ns != par.server_ns {
        fail(&format!(
            "cold-link bill changed with the lane count: {} vs {}",
            seq.server_ns, par.server_ns
        ));
    }
    if seq.latency_ns != seq.server_ns {
        fail(&format!(
            "sequential latency {} != billed work {}",
            seq.latency_ns, seq.server_ns
        ));
    }
    if par.latency_ns > seq.latency_ns {
        fail(&format!(
            "parallel critical path {} exceeds sequential {}",
            par.latency_ns, seq.latency_ns
        ));
    }
    eprintln!(
        "parallel identity: sim makespans invariant; cold-link bill {} ns, \
         critical path {} -> {} ns",
        seq.server_ns, seq.latency_ns, par.latency_ns
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("trace_guard: FAIL — {msg}");
    std::process::exit(1);
}

/// Measures `label`'s warm path over [`PAIRS`] interleaved pairs after
/// one untimed warmup. `measure(tracing)` returns the warm wall time
/// and the simulated makespans, which must be identical within every
/// pair. Fails if the median per-pair overhead `(on - off) / off`
/// exceeds the budget.
fn guard_overhead<S: PartialEq + std::fmt::Debug>(
    label: &str,
    mut measure: impl FnMut(bool) -> (f64, S),
) {
    let _ = measure(true);
    let mut overheads = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let traced_first = pair % 2 == 1;
        let first = measure(traced_first);
        let second = measure(!traced_first);
        let ((off_wall, off_sim), (on_wall, on_sim)) = if traced_first {
            (second, first)
        } else {
            (first, second)
        };
        if on_sim != off_sim {
            fail(&format!(
                "{label} simulated makespans moved with tracing: {off_sim:?} vs {on_sim:?}"
            ));
        }
        overheads.push((on_wall - off_wall) / off_wall);
    }
    overheads.sort_by(f64::total_cmp);
    let median = overheads[PAIRS / 2];
    eprintln!(
        "{label} tracing overhead: median {:.1}% over {PAIRS} pairs (range {:.1}% .. {:.1}%)",
        median * 100.0,
        overheads[0] * 100.0,
        overheads[PAIRS - 1] * 100.0
    );
    if median > MAX_OVERHEAD {
        fail(&format!(
            "{label} tracing costs {:.1}% of warm wall time (budget {:.0}%)",
            median * 100.0,
            MAX_OVERHEAD * 100.0
        ));
    }
}

fn main() {
    guard_parallel_identity();
    // The batched and shared-memory transports must fit the same trace
    // budget on their warm paths; the legacy SysV transport runs
    // through the same session harness as a control.
    for transport in [Transport::SysVMsg, Transport::Pipelined, Transport::ShmRing] {
        guard_overhead(transport.name(), |tracing| {
            run_transport_overhead(
                &WorkloadSizes::small(),
                CostModel::hpux(),
                transport,
                THREADS,
                PER_THREAD,
                tracing,
            )
        });
    }
    guard_overhead("multiclient warm", measure_once);
    eprintln!("trace_guard: OK");
}
