//! `cold_build`: a seeded set of distinct codegen-shaped programs, each
//! exec'd exactly once by one closed-loop client. Every request misses
//! the reply cache, so evaluation, the n-ary merge, placement, link,
//! framing and manifest derivation do the work.

use std::time::{Duration, Instant};

use omos_core::{exec_bootstrap, Omos};
use omos_obj::ContentHash;
use omos_os::ipc::Transport;
use omos_os::{CostModel, IpcStats, SimClock};

use super::{image_keys, timed_setup, trace_phases, Measured, ServerSnap, Timings, TraceRun};
use crate::coldgen::{
    bind_isolated, bind_program, lib_obj_path, program_path, ColdUniverse, ProgramSpec,
};
use crate::replay::{traced_exec, Kind, Replayer};
use crate::spans::SpanLog;
use crate::stats::peak_rss_mb;
use crate::{Args, Outcome};

/// Programs generated per set-up: more than one run can exec, so every
/// request in a run is a distinct program.
const PROGRAMS: usize = 4000;
/// Warm-up programs exec'd during set-up (outside the measured set), so
/// lazy first-use costs are paid before timing.
const WARMUP: usize = 8;
/// Requests in the simulated-time window.
const SIM_WINDOW: usize = 500;
/// Every n-th request is checked against `Omos::explain` and a fresh
/// cold server.
const VERIFY_EVERY: usize = 50;
/// Stale probes after the measured loop, spread over the first
/// `STALE_SPAN` programs.
const STALE_PROBES: usize = 128;
const STALE_SPAN: usize = 1024;

const MEASURED: &str = "p";

struct ColdSetup {
    server: Omos,
    universe: ColdUniverse,
    specs: Vec<ProgramSpec>,
}

impl ColdSetup {
    fn build(seed: u64) -> Result<ColdSetup, String> {
        let cost = CostModel::hpux();
        let mut universe = ColdUniverse::generate(seed);
        let server = Omos::new(cost, Transport::SysVMsg);
        universe.bind_pools(&server);
        for j in 0..WARMUP {
            let spec = universe.next_spec();
            bind_program(&server, "w", j, &spec);
            exec_bootstrap(
                &server,
                &program_path("w", j),
                &mut SimClock::new(),
                &cost,
                &mut IpcStats::default(),
            )
            .map_err(|e| format!("warm-up program {j}: {e}"))?;
        }
        let specs: Vec<ProgramSpec> = (0..PROGRAMS).map(|_| universe.next_spec()).collect();
        for (j, spec) in specs.iter().enumerate() {
            bind_program(&server, MEASURED, j, spec);
        }
        Ok(ColdSetup {
            server,
            universe,
            specs,
        })
    }
}

/// A sampled reply, checked after the loop.
struct Sample {
    j: usize,
    manifest: ContentHash,
    keys: Vec<ContentHash>,
}

/// Checks a sampled reply against `Omos::explain` on the live server
/// and against a fresh cold server holding only what the program needs.
fn verify_sample(setup: &ColdSetup, s: &Sample) -> bool {
    let path = program_path(MEASURED, s.j);
    let explained = setup
        .server
        .explain(&path)
        .is_ok_and(|m| m.hash() == s.manifest);
    let fresh = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    bind_isolated(&fresh, &setup.universe, MEASURED, s.j, &setup.specs[s.j]);
    let cold = fresh
        .instantiate(&path)
        .is_ok_and(|r| r.manifest == s.manifest && image_keys(&r) == s.keys);
    if !(explained && cold) {
        eprintln!("hostbench: cold_build: {path}: explain {explained}, fresh server {cold}");
    }
    explained && cold
}

/// The measured loop over programs `next..`, until `run` elapses or the
/// programs run out.
fn drive(
    setup: &ColdSetup,
    next: &mut usize,
    run: Duration,
    seed: u64,
    mut trace: Option<(&mut SpanLog, &mut Replayer<'_>)>,
    ipc: &mut IpcStats,
    samples: &mut Vec<Sample>,
) -> Timings {
    let server = &setup.server;
    let cost = *server.cost();
    let offset = (seed % VERIFY_EVERY as u64) as usize;
    let mut t = Timings::new();
    let start = Instant::now();
    while *next < setup.specs.len() {
        let j = *next;
        *next += 1;
        let path = program_path(MEASURED, j);
        let mut clock = SimClock::new();
        t.attempted += 1;
        let t0 = Instant::now();
        let result = match trace.as_mut() {
            None => exec_bootstrap(server, &path, &mut clock, &cost, ipc).map(|p| (p, None)),
            Some((log, _)) => traced_exec(server, &path, &mut clock, &cost, ipc, log, j as u64)
                .map(|(p, r)| (p, Some(r))),
        };
        let t1 = Instant::now();
        match result {
            Ok((proc, reply)) => {
                if proc.space.mapped_pages() == 0 {
                    t.failed += 1;
                }
                t.record((t1 - t0).as_nanos() as u64);
                if t.sim_ns.len() < SIM_WINDOW {
                    t.sim_ns.push(clock.elapsed_ns);
                }
                if let (Some((log, replayer)), Some(reply)) = (trace.as_mut(), reply) {
                    replayer.replay(log, j as u64, &path, &reply, Kind::Miss);
                }
                if j % VERIFY_EVERY == offset {
                    match server.instantiate(&path) {
                        Ok(r) if r.cache_hit => samples.push(Sample {
                            j,
                            manifest: r.manifest,
                            keys: image_keys(&r),
                        }),
                        _ => t.failed += 1,
                    }
                }
            }
            Err(e) => {
                eprintln!("hostbench: {path}: {e}");
                t.failed += 1;
            }
        }
        if t1 - start >= run {
            break;
        }
    }
    t.wall = start.elapsed();
    t
}

/// Rebinds library 0 (in every program) with identical bytes, then
/// re-execs an already-built program: each request rebuilds a reply the
/// rebind invalidated. The probed programs are spread over the first
/// `STALE_SPAN` built, so the median does not hang on a few program
/// sizes. Returns the stale latencies and the failures.
fn stale_probe(setup: &ColdSetup, built: usize) -> (Vec<u64>, u64, u64) {
    let server = &setup.server;
    let cost = *server.cost();
    let mut lat = Vec::new();
    let mut failed = 0;
    let span = STALE_SPAN.min(built);
    let probes = STALE_PROBES.min(span);
    for k in 0..probes {
        server
            .namespace
            .bind_object(&lib_obj_path(0), setup.universe.lib_objects[0].clone());
        let path = program_path(MEASURED, k * span / probes);
        let stale0 = server.tracer().counters().reply_stale;
        let t0 = Instant::now();
        let result = exec_bootstrap(
            server,
            &path,
            &mut SimClock::new(),
            &cost,
            &mut IpcStats::default(),
        );
        let dt = t0.elapsed();
        let stale = server.tracer().counters().reply_stale > stale0;
        let explained = match (server.instantiate(&path), server.explain(&path)) {
            (Ok(r), Ok(m)) => r.manifest == m.hash(),
            _ => false,
        };
        match result {
            Ok(_) if stale && explained => lat.push(dt.as_nanos() as u64),
            _ => failed += 1,
        }
    }
    (lat, probes as u64, failed)
}

pub fn measure(args: &Args) -> Result<Measured, String> {
    let (setup, setup_s) = timed_setup(|| ColdSetup::build(args.seed))?;
    let mut next = 0;
    let mut samples = Vec::new();
    let before = setup.server.stats();
    let mut ipc = IpcStats::default();
    let mut t = drive(
        &setup,
        &mut next,
        args.run,
        args.seed,
        None,
        &mut ipc,
        &mut samples,
    );
    let after = setup.server.stats();
    // Every measured request built its reply (the verification probes
    // are hits and are not counted as builds).
    let built = after.replies_built - before.replies_built;
    if built != t.completed {
        eprintln!(
            "hostbench: cold_build: {built} builds for {} requests",
            t.completed
        );
        t.failed += 1;
    }
    if next == PROGRAMS {
        eprintln!("hostbench: cold_build: all {PROGRAMS} programs exec'd before time ran out");
    }
    t.failed += samples.iter().filter(|s| !verify_sample(&setup, s)).count() as u64;
    let (stale, attempted, failed) = stale_probe(&setup, next);
    t.stale_ns = stale;
    t.attempted += attempted;
    t.failed += failed;
    Ok(Measured {
        t,
        setup_s,
        rss_mb: peak_rss_mb(),
    })
}

pub fn trace(args: &Args) -> Result<Outcome, String> {
    let setup = ColdSetup::build(args.seed)?;
    let mut out = Outcome::default();
    out.note("clients", 1);
    out.note("programs", PROGRAMS);
    let mut next = 0;
    let mut samples = Vec::new();
    let (untraced_run, traced_run) = trace_phases(args.run);
    let mut ipc = IpcStats::default();
    let untraced = drive(
        &setup,
        &mut next,
        untraced_run,
        args.seed,
        None,
        &mut ipc,
        &mut samples,
    );
    let before = ServerSnap::take(&setup.server);
    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let mut replayer = Replayer::new(&setup.server, false);
    let mut ipc = IpcStats::default();
    let traced = drive(
        &setup,
        &mut next,
        traced_run,
        args.seed,
        Some((&mut log, &mut replayer)),
        &mut ipc,
        &mut samples,
    );
    let after = ServerSnap::take(&setup.server);
    let bad = samples.iter().filter(|s| !verify_sample(&setup, s)).count() as u64;
    let report = TraceRun {
        server: &setup.server,
        eval: replayer.eval_counts(),
        replayed: replayer.replayed,
        log,
        before,
        after,
        ipc,
        untraced,
        traced,
    };
    Ok(report.finish(args, out, bad))
}
