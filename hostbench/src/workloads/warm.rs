//! `warm_exec`: the Table-1 programs (`ls`, `ls -laF`, `codegen` over
//! libc and the five codegen libraries), warmed before timing, exec'd by
//! two closed-loop clients. Every request is a reply-cache hit.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use omos_bench::{Scenario, WorkloadSizes, PROGRAMS};
use omos_core::{exec_bootstrap, Entry, Omos};
use omos_obj::ContentHash;
use omos_os::ipc::Transport;
use omos_os::{CostModel, IpcStats, SimClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    image_keys, timed_setup, trace_phases, MappedRef, Measured, ServerSnap, Timings, TraceRun,
};
use crate::replay::{traced_exec, Kind, Replayer};
use crate::spans::SpanLog;
use crate::stats::peak_rss_mb;
use crate::{Args, Outcome};

/// Closed-loop clients: one per core of the 2-core reference machine.
const CLIENTS: usize = 2;
/// Requests per client in the simulated-time window.
const SIM_WINDOW: usize = 20_000;
/// Every n-th request also checks every mapped frame.
const FRAME_CHECK_EVERY: u64 = 8;
/// Stale-probe rounds: each rebinds one libc module with identical bytes
/// and execs every Table-1 program once.
const STALE_ROUNDS: usize = 32;
/// In the traced phase, every n-th request is traced and replayed (the
/// rest run untraced), which keeps the span log to a readable size.
const TRACE_EVERY: u64 = 64;

struct Reference {
    manifest: ContentHash,
    keys: Vec<ContentHash>,
    mapped: MappedRef,
}

struct WarmSetup {
    scenario: Scenario,
    refs: HashMap<&'static str, Reference>,
}

impl WarmSetup {
    fn server(&self) -> &Omos {
        &self.scenario.server
    }

    /// Builds both worlds, runs each program natively and under OMOS
    /// (outputs must agree), and records the warm reply of each program.
    fn build() -> Result<WarmSetup, String> {
        let mut scenario = Scenario::build(
            WorkloadSizes::default(),
            CostModel::hpux(),
            Transport::SysVMsg,
        );
        scenario.warm_up()?;
        let cost = scenario.cost;
        let mut refs = HashMap::new();
        for p in PROGRAMS {
            let path = format!("/bin/{p}");
            let reply = scenario
                .server
                .instantiate(&path)
                .map_err(|e| format!("{path}: {e}"))?;
            if !reply.cache_hit {
                return Err(format!("{path}: not warm after warm-up"));
            }
            let proc = exec_bootstrap(
                &scenario.server,
                &path,
                &mut SimClock::new(),
                &cost,
                &mut IpcStats::default(),
            )
            .map_err(|e| format!("{path}: {e}"))?;
            let mapped = MappedRef::new(&reply, &proc);
            if !mapped.matches_frames(&proc) {
                return Err(format!("{path}: warm exec does not map the warm reply"));
            }
            refs.insert(
                p,
                Reference {
                    manifest: reply.manifest,
                    keys: image_keys(&reply),
                    mapped,
                },
            );
        }
        Ok(WarmSetup { scenario, refs })
    }
}

/// One client's seeded program stream: each request draws one of the
/// Table-1 programs with equal weight, as Table 1 runs each of them the
/// same number of times.
struct Stream {
    rng: StdRng,
}

impl Stream {
    fn new(seed: u64, client: usize) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ client as u64),
        }
    }

    fn next(&mut self) -> &'static str {
        PROGRAMS[self.rng.gen_range(0..PROGRAMS.len())]
    }
}

/// Per-client tracing state for the traced phase.
struct ClientTrace<'a> {
    log: SpanLog,
    replayer: Replayer<'a>,
}

/// One closed-loop client: exec, check, repeat until `run` elapses.
fn client(
    setup: &WarmSetup,
    stream: &mut Stream,
    run: Duration,
    mut trace: Option<&mut ClientTrace<'_>>,
    client_id: usize,
    ipc: &mut IpcStats,
) -> Timings {
    let server = setup.server();
    let cost = setup.scenario.cost;
    let mut t = Timings::new();
    let start = Instant::now();
    loop {
        let p = stream.next();
        let path = format!("/bin/{p}");
        let r = &setup.refs[p];
        let mut clock = SimClock::new();
        let n = t.attempted;
        t.attempted += 1;
        let t0 = Instant::now();
        let result = match trace
            .as_deref_mut()
            .filter(|_| n.is_multiple_of(TRACE_EVERY))
        {
            None => exec_bootstrap(server, &path, &mut clock, &cost, ipc).map(|proc| (proc, None)),
            Some(tr) => {
                let req = ((client_id as u64) << 40) | n;
                traced_exec(server, &path, &mut clock, &cost, ipc, &mut tr.log, req)
                    .map(|(proc, reply)| (proc, Some((req, reply))))
            }
        };
        let t1 = Instant::now();
        match result {
            Ok((proc, reply)) => {
                let ok = if n.is_multiple_of(FRAME_CHECK_EVERY) {
                    r.mapped.matches_frames(&proc)
                } else {
                    r.mapped.matches_shape(&proc)
                };
                let reply_ok = reply
                    .as_ref()
                    .is_none_or(|(_, rep)| rep.manifest == r.manifest && image_keys(rep) == r.keys);
                if !(ok && reply_ok) {
                    t.failed += 1;
                }
                t.record((t1 - t0).as_nanos() as u64);
                if t.sim_ns.len() < SIM_WINDOW {
                    t.sim_ns.push(clock.elapsed_ns);
                }
                if let (Some(tr), Some((req, rep))) = (trace.as_deref_mut(), reply) {
                    tr.replayer.replay(&mut tr.log, req, &path, &rep, Kind::Hit);
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

/// Runs every client for `run` and merges their timings.
fn drive<'a>(
    setup: &'a WarmSetup,
    streams: &mut [Stream],
    run: Duration,
    traces: Option<&mut [ClientTrace<'a>]>,
    ipc: &mut IpcStats,
) -> Timings {
    let traces: Vec<Option<&mut ClientTrace<'a>>> = match traces {
        Some(traces) => traces.iter_mut().map(Some).collect(),
        None => streams.iter().map(|_| None).collect(),
    };
    let results: Vec<(Timings, IpcStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(traces)
            .enumerate()
            .map(|(c, (stream, tr))| {
                s.spawn(move || {
                    let mut ipc = IpcStats::default();
                    (client(setup, stream, run, tr, c, &mut ipc), ipc)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Timings::default();
    for (t, i) in results {
        all.absorb(t);
        *ipc += i;
    }
    all
}

/// Checks after the measured loop that every request was answered from
/// the warm reply (no reply was rebuilt, every request hit) and that the
/// cached replies still equal the warm-up ones. Returns the failures.
fn verify_after(setup: &WarmSetup, before: &omos_core::ServerStats, requests: u64) -> u64 {
    let server = setup.server();
    let after = server.stats();
    let mut failed = 0;
    let answered =
        (after.reply_cache_hits - before.reply_cache_hits) + (after.coalesced - before.coalesced);
    if after.replies_built != before.replies_built || answered != requests {
        eprintln!(
            "hostbench: warm_exec: {} replies rebuilt, {answered} of {requests} requests hit",
            after.replies_built - before.replies_built
        );
        failed += requests.saturating_sub(answered).max(1);
    }
    for (p, r) in &setup.refs {
        match server.instantiate(&format!("/bin/{p}")) {
            Ok(reply) if reply.manifest == r.manifest && image_keys(&reply) == r.keys => {}
            _ => failed += 1,
        }
    }
    failed
}

/// Rebinds a libc module with identical bytes, then execs every Table-1
/// program once: each request rebuilds a reply the rebind invalidated.
/// One sample per round, the mean over the three programs, so the median
/// does not jump between programs of different size. Returns the
/// samples, the requests attempted and the failures.
fn stale_probe(setup: &WarmSetup) -> (Vec<u64>, u64, u64) {
    let server = setup.server();
    let cost = setup.scenario.cost;
    let modules = omos_bench::workload::LIBC_MODULES;
    let mut rounds = Vec::with_capacity(STALE_ROUNDS);
    let mut attempted = 0;
    let mut failed = 0;
    for round in 0..STALE_ROUNDS {
        let path = format!("/libc/{}", modules[round % modules.len()]);
        let Some(Entry::Object(obj)) = server.namespace.lookup(&path) else {
            return (rounds, attempted + 1, failed + 1);
        };
        server.namespace.bind_object(&path, (*obj).clone());
        let mut total = 0u64;
        let mut ok = true;
        for p in PROGRAMS {
            let bin = format!("/bin/{p}");
            attempted += 1;
            let stale0 = server.tracer().counters().reply_stale;
            let t0 = Instant::now();
            let result = exec_bootstrap(
                server,
                &bin,
                &mut SimClock::new(),
                &cost,
                &mut IpcStats::default(),
            );
            total += t0.elapsed().as_nanos() as u64;
            let stale = server.tracer().counters().reply_stale > stale0;
            let r = &setup.refs[p];
            let same = server
                .instantiate(&bin)
                .is_ok_and(|rep| rep.manifest == r.manifest && image_keys(&rep) == r.keys);
            if !matches!(result, Ok(proc) if stale && same && r.mapped.matches_shape(&proc)) {
                failed += 1;
                ok = false;
            }
        }
        if ok {
            rounds.push(total / PROGRAMS.len() as u64);
        }
    }
    (rounds, attempted, failed)
}

pub fn measure(args: &Args) -> Result<Measured, String> {
    let (setup, setup_s) = timed_setup(WarmSetup::build)?;
    let mut streams: Vec<Stream> = (0..CLIENTS).map(|c| Stream::new(args.seed, c)).collect();
    let before = setup.server().stats();
    let mut ipc = IpcStats::default();
    let mut t = drive(&setup, &mut streams, args.run, None, &mut ipc);
    t.failed += verify_after(&setup, &before, t.completed);
    let (stale, attempted, failed) = stale_probe(&setup);
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
    let setup = WarmSetup::build()?;
    let mut streams: Vec<Stream> = (0..CLIENTS).map(|c| Stream::new(args.seed, c)).collect();
    let mut out = Outcome::default();
    out.note("clients", CLIENTS);
    let (untraced_run, traced_run) = trace_phases(args.run);
    let stats0 = setup.server().stats();
    let mut ipc = IpcStats::default();
    let untraced = drive(&setup, &mut streams, untraced_run, None, &mut ipc);
    let before = ServerSnap::take(setup.server());
    let origin = Instant::now();
    let mut traces: Vec<ClientTrace<'_>> = (0..CLIENTS)
        .map(|_| ClientTrace {
            log: SpanLog::new(origin),
            replayer: Replayer::new(setup.server(), false),
        })
        .collect();
    let mut ipc = IpcStats::default();
    let traced = drive(
        &setup,
        &mut streams,
        traced_run,
        Some(&mut traces),
        &mut ipc,
    );
    let after = ServerSnap::take(setup.server());
    let failed_after = verify_after(&setup, &stats0, untraced.completed + traced.completed);
    let mut log = SpanLog::new(origin);
    let mut eval = (0, 0);
    let mut replayed = 0;
    for tr in traces {
        let (h, m) = tr.replayer.eval_counts();
        eval = (eval.0 + h, eval.1 + m);
        replayed += tr.replayer.replayed;
        log.absorb(tr.log);
    }
    let report = TraceRun {
        server: setup.server(),
        log,
        before,
        after,
        eval,
        replayed,
        ipc,
        untraced,
        traced,
    };
    Ok(report.finish(args, out, failed_after))
}
