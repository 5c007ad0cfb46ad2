//! `churn`: a Zipfian replay over the 10k-program `CatalogSpec::large()`
//! catalog, one closed-loop client, with library rebinds
//! interleaved — most with identical bytes, a seeded share with new
//! content. The image cache has a byte budget, cost-aware (GDSF)
//! eviction and the tier-2 spill store behind it.

use std::time::{Duration, Instant};

use omos_bench::catalog::{lib_obj_path, lib_path, program_path, SPILL_BUDGET_MULTIPLE};
use omos_bench::{CachePlan, Catalog, CatalogSpec, ZipfSampler};
use omos_core::{exec_bootstrap, Omos};
use omos_obj::{ContentHash, ObjectFile};
use omos_os::ipc::Transport;
use omos_os::{CostModel, IpcStats, SimClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{image_keys, timed_setup, trace_phases, Measured, ServerSnap, Timings, TraceRun};
use crate::replay::{traced_exec, Kind, Replayer};
use crate::spans::SpanLog;
use crate::stats::peak_rss_mb;
use crate::{Args, Outcome};

/// Zipf exponent of program popularity in the request stream.
const REQUEST_S: f64 = 1.1;
/// Zipf exponent of which library a rebind touches (the catalog's own
/// library-popularity exponent).
const REBIND_S: f64 = 0.9;
/// A library rebind precedes every n-th request: the churn rate of
/// `catalog_bench`, which writes BENCH_CATALOG.json.
const REBIND_EVERY: u64 = 16;
/// Share of rebinds that carry new library content. `catalog_bench`
/// rebinds identical bytes only; this workload keeps that as the common
/// case and makes one rebind in four a real content change, so the
/// incremental relink path runs too (see README.md for the counts it
/// reaches).
const NEW_CONTENT_P: f64 = 0.25;
/// Tier-1 image-cache budget, bytes: `catalog_bench`'s largest budget
/// fraction (½, from `BUDGET_FRACTIONS`) of its unbounded reference
/// footprint for this catalog at the same request skew (s = 1.1), as
/// recorded in BENCH_CATALOG.json.
const IMAGE_BUDGET: u64 = 17_790_666;
/// Tier-2 spill budget, bytes, in `catalog_bench`'s proportion.
const SPILL_BUDGET: u64 = SPILL_BUDGET_MULTIPLE * IMAGE_BUDGET;
/// Requests replayed during set-up so the caches reach steady state.
const WARMUP: usize = 5000;
/// Requests in the simulated-time window.
const SIM_WINDOW: usize = 2000;
/// Every n-th request is checked against `Omos::explain` and, after the
/// loop, against a fresh cold server.
const VERIFY_EVERY: u64 = 200;
/// In the traced phase, every n-th reply-cache hit is replayed (misses
/// and stale rebuilds always are).
const REPLAY_HITS_EVERY: u64 = 4;

/// The seeded request stream and the library versions it has bound.
struct Stream {
    rng: StdRng,
    programs: ZipfSampler,
    libs: ZipfSampler,
    versions: Vec<u64>,
    n: u64,
}

/// Library `i`'s object at content version `v` (0 is the catalog's own
/// bytes; later versions rewrite eight bytes of text).
fn lib_version(catalog: &Catalog, i: usize, v: u64) -> ObjectFile {
    let mut obj = catalog.lib_objects[i].clone();
    if v > 0 {
        obj.sections[0].bytes[8..16].copy_from_slice(&(v | 1 << 63).to_le_bytes());
    }
    obj
}

impl Stream {
    fn new(catalog: &Catalog, seed: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x6368_7572_6e00_0000),
            programs: ZipfSampler::new(catalog.spec.programs, REQUEST_S),
            libs: ZipfSampler::new(catalog.spec.libraries, REBIND_S),
            versions: vec![0; catalog.spec.libraries],
            n: 0,
        }
    }

    /// Applies the rebind due before the next request (if any) and
    /// draws the next program.
    fn next(&mut self, server: &Omos, catalog: &Catalog) -> usize {
        self.n += 1;
        if self.n.is_multiple_of(REBIND_EVERY) {
            let lib = self.libs.sample(&mut self.rng);
            if self.rng.gen_bool(NEW_CONTENT_P) {
                self.versions[lib] += 1;
            }
            server.namespace.bind_object(
                &lib_obj_path(lib),
                lib_version(catalog, lib, self.versions[lib]),
            );
        }
        self.programs.sample(&mut self.rng)
    }
}

struct ChurnSetup {
    server: Omos,
    catalog: Catalog,
    stream: Stream,
}

impl ChurnSetup {
    fn build(seed: u64) -> Result<ChurnSetup, String> {
        let cost = CostModel::hpux();
        // The catalog is fixed; the seed drives the request and rebind
        // stream, so seeds differ in traffic, not in the program universe.
        let catalog = Catalog::generate(CatalogSpec::large());
        let plan = CachePlan::CostAwareTiered {
            budget: IMAGE_BUDGET,
            spill_budget: SPILL_BUDGET,
        };
        let server = Omos::with_image_cache(cost, Transport::SysVMsg, plan.build(cost));
        catalog.bind(&server);
        let mut stream = Stream::new(&catalog, seed);
        for _ in 0..WARMUP {
            let j = stream.next(&server, &catalog);
            exec_bootstrap(
                &server,
                &program_path(j),
                &mut SimClock::new(),
                &cost,
                &mut IpcStats::default(),
            )
            .map_err(|e| format!("warm-up {}: {e}", program_path(j)))?;
        }
        Ok(ChurnSetup {
            server,
            catalog,
            stream,
        })
    }
}

/// A sampled reply with the library versions it was built against.
struct Sample {
    j: usize,
    versions: Vec<(usize, u64)>,
    manifest: ContentHash,
    keys: Vec<ContentHash>,
}

/// Library `i`'s blueprint, as `Catalog::bind` writes it.
fn lib_blueprint(i: usize) -> String {
    format!(
        "(constraint-list \"T\" {:#x} \"D\" {:#x})\n(merge {})",
        0x0200_0000u64 + (i as u64) * 0x0010_0000,
        0x4200_0000u64 + (i as u64) * 0x0010_0000,
        lib_obj_path(i),
    )
}

/// Builds the sampled program on a fresh cold server holding only what
/// it needs, at the library versions it saw; the reply must match.
fn verify_fresh(catalog: &Catalog, s: &Sample) -> bool {
    let fresh = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    for &(i, v) in &s.versions {
        fresh
            .namespace
            .bind_object(&lib_obj_path(i), lib_version(catalog, i, v));
        if fresh
            .namespace
            .bind_blueprint(&lib_path(i), &lib_blueprint(i))
            .is_err()
        {
            return false;
        }
    }
    let libs: String = catalog.program_libs[s.j]
        .iter()
        .map(|&i| format!(" {}", lib_path(i)))
        .collect();
    fresh
        .namespace
        .bind_object(&format!("/cat/obj/p{}.o", s.j), catalog.app_object(s.j));
    let bp = format!("(merge /cat/obj/p{}.o{libs})", s.j);
    if fresh
        .namespace
        .bind_blueprint(&program_path(s.j), &bp)
        .is_err()
    {
        return false;
    }
    let ok = fresh
        .instantiate(&program_path(s.j))
        .is_ok_and(|r| r.manifest == s.manifest && image_keys(&r) == s.keys);
    if !ok {
        eprintln!(
            "hostbench: churn: {} differs from a fresh cold build",
            program_path(s.j)
        );
    }
    ok
}

/// The measured loop: continue the stream until `run` elapses.
fn drive(
    server: &Omos,
    catalog: &Catalog,
    stream: &mut Stream,
    run: Duration,
    mut trace: Option<(&mut SpanLog, &mut Replayer<'_>)>,
    ipc: &mut IpcStats,
    samples: &mut Vec<Sample>,
) -> Timings {
    let cost = *server.cost();
    let mut t = Timings::new();
    // Time spent checking replies inside the loop; kept out of the wall
    // time so throughput measures execs only.
    let mut verify = Duration::ZERO;
    let start = Instant::now();
    loop {
        let j = stream.next(server, catalog);
        let n = stream.n;
        let path = program_path(j);
        let mut clock = SimClock::new();
        t.attempted += 1;
        let c0 = server.tracer().counters();
        let t0 = Instant::now();
        let result = match trace.as_mut() {
            None => exec_bootstrap(server, &path, &mut clock, &cost, ipc).map(|p| (p, None)),
            Some((log, _)) => traced_exec(server, &path, &mut clock, &cost, ipc, log, n)
                .map(|(p, r)| (p, Some(r))),
        };
        let t1 = Instant::now();
        let c1 = server.tracer().counters();
        let kind = if c1.reply_stale > c0.reply_stale {
            Kind::Stale
        } else if c1.reply_hits > c0.reply_hits {
            Kind::Hit
        } else {
            Kind::Miss
        };
        match result {
            Ok((proc, reply)) => {
                if proc.space.mapped_pages() == 0 {
                    t.failed += 1;
                }
                let ns = (t1 - t0).as_nanos() as u64;
                t.record(ns);
                if kind == Kind::Stale {
                    t.stale_ns.push(ns);
                }
                if t.sim_ns.len() < SIM_WINDOW {
                    t.sim_ns.push(clock.elapsed_ns);
                }
                if let (Some((log, replayer)), Some(reply)) = (trace.as_mut(), reply) {
                    if kind != Kind::Hit || n.is_multiple_of(REPLAY_HITS_EVERY) {
                        replayer.replay(log, n, &path, &reply, kind);
                    } else {
                        replayer.observe(&reply);
                    }
                }
                if n.is_multiple_of(VERIFY_EVERY) {
                    let v0 = Instant::now();
                    let hit = server.instantiate(&path);
                    let explained = server.explain(&path);
                    match (hit, explained) {
                        (Ok(r), Ok(m)) if r.cache_hit && r.manifest == m.hash() => {
                            samples.push(Sample {
                                j,
                                versions: catalog.program_libs[j]
                                    .iter()
                                    .map(|&i| (i, stream.versions[i]))
                                    .collect(),
                                manifest: r.manifest,
                                keys: image_keys(&r),
                            });
                        }
                        _ => {
                            eprintln!("hostbench: churn: {path} differs from Omos::explain");
                            t.failed += 1;
                        }
                    }
                    verify += v0.elapsed();
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
    t.wall = start.elapsed() - verify;
    t
}

pub fn measure(args: &Args) -> Result<Measured, String> {
    let (mut setup, setup_s) = timed_setup(|| ChurnSetup::build(args.seed))?;
    let mut samples = Vec::new();
    let mut ipc = IpcStats::default();
    let mut t = drive(
        &setup.server,
        &setup.catalog,
        &mut setup.stream,
        args.run,
        None,
        &mut ipc,
        &mut samples,
    );
    t.failed += samples
        .iter()
        .filter(|s| !verify_fresh(&setup.catalog, s))
        .count() as u64;
    Ok(Measured {
        t,
        setup_s,
        rss_mb: peak_rss_mb(),
    })
}

pub fn trace(args: &Args) -> Result<Outcome, String> {
    let mut setup = ChurnSetup::build(args.seed)?;
    let mut out = Outcome::default();
    out.note("clients", 1);
    out.note("programs", setup.catalog.spec.programs);
    let mut samples = Vec::new();
    let (untraced_run, traced_run) = trace_phases(args.run);
    let mut ipc = IpcStats::default();
    let untraced = drive(
        &setup.server,
        &setup.catalog,
        &mut setup.stream,
        untraced_run,
        None,
        &mut ipc,
        &mut samples,
    );
    let before = ServerSnap::take(&setup.server);
    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let mut ipc = IpcStats::default();
    let mut replayer = Replayer::new(&setup.server, true);
    let traced = drive(
        &setup.server,
        &setup.catalog,
        &mut setup.stream,
        traced_run,
        Some((&mut log, &mut replayer)),
        &mut ipc,
        &mut samples,
    );
    let (eval, replayed) = (replayer.eval_counts(), replayer.replayed);
    let after = ServerSnap::take(&setup.server);
    let bad = samples
        .iter()
        .filter(|s| !verify_fresh(&setup.catalog, s))
        .count() as u64;
    let report = TraceRun {
        server: &setup.server,
        log,
        before,
        after,
        eval,
        replayed,
        ipc,
        untraced,
        traced,
    };
    Ok(report.finish(args, out, bad))
}
