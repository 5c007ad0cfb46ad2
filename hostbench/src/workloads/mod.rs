//! The three workloads and what they share: repeated set-up, the
//! end-to-end report, and the traced run's per-layer report.

mod churn;
mod cold;
mod warm;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use omos_core::trace::{HistSnapshot, Stage, TraceCounters};
use omos_core::{CacheStats, InstantiateReply, Omos, ServerStats, SpillStats};
use omos_obj::ContentHash;
use omos_os::{IpcStats, Process, PAGE_SIZE};

use crate::spans::SpanLog;
use crate::stats::{mean, median, quantile, ratio};
use crate::{Args, Outcome, Workload};

/// What one measuring process reports to the parent process.
#[derive(Debug, Default)]
pub struct Measured {
    pub t: Timings,
    /// Seconds of set-up: generating inputs, binding them, warm-up and
    /// reference checks.
    pub setup_s: f64,
    /// Peak resident memory of the measuring process, MiB.
    pub rss_mb: f64,
}

/// Runs the end-to-end measurement of the workload `args` names in this
/// process.
pub fn measure(args: &Args) -> Result<Measured, String> {
    match args.workload {
        Workload::WarmExec => warm::measure(args),
        Workload::ColdBuild => cold::measure(args),
        Workload::Churn => churn::measure(args),
    }
}

/// Runs the traced run of the workload `args` names.
pub fn trace(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        Workload::WarmExec => warm::trace(args),
        Workload::ColdBuild => cold::trace(args),
        Workload::Churn => churn::trace(args),
    }
}

/// How a traced run splits `--seconds`: a quarter untraced (the
/// throughput baseline for `trace.overhead_frac`), the rest traced.
fn trace_phases(run: Duration) -> (Duration, Duration) {
    (run / 4, run - run / 4)
}

/// Times `build`, returning its result and the seconds it took.
fn timed_setup<T>(build: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let state = build()?;
    Ok((state, t0.elapsed().as_secs_f64()))
}

/// The image keys a reply commits to: program first, then libraries.
fn image_keys(reply: &InstantiateReply) -> Vec<ContentHash> {
    std::iter::once(reply.program.key)
        .chain(reply.libraries.iter().map(|l| l.key))
        .collect()
}

/// What a process mapped from a reply must look like: the entry point,
/// the mapped page count, and the shared frame behind every page of the
/// reply's shareable segments.
#[derive(Debug, Clone)]
struct MappedRef {
    pc: u32,
    pages: u64,
    frames: Vec<(u32, usize)>,
}

impl MappedRef {
    fn new(reply: &InstantiateReply, proc: &Process) -> MappedRef {
        let mut frames = Vec::new();
        for img in std::iter::once(&reply.program).chain(&reply.libraries) {
            for seg in img.frames.segments.iter().filter(|s| s.shareable) {
                for (i, f) in seg.frames.iter().enumerate() {
                    let pno = seg.vaddr / PAGE_SIZE + i as u32;
                    frames.push((pno, std::sync::Arc::as_ptr(f) as usize));
                }
            }
        }
        MappedRef {
            pc: proc.vm.pc,
            pages: proc.space.mapped_pages(),
            frames,
        }
    }

    /// The cheap per-request check: entry point and page count.
    fn matches_shape(&self, proc: &Process) -> bool {
        proc.vm.pc == self.pc && proc.space.mapped_pages() == self.pages
    }

    /// The full check: every shareable page maps the reference frame.
    fn matches_frames(&self, proc: &Process) -> bool {
        let mut mapped: HashMap<u32, usize> = HashMap::new();
        proc.space.visit_pages(|pno, f| {
            if let Some(ptr) = f {
                mapped.insert(pno, ptr as usize);
            }
        });
        self.matches_shape(proc)
            && self
                .frames
                .iter()
                .all(|(pno, ptr)| mapped.get(pno) == Some(ptr))
    }
}

/// Latency samples one measuring loop keeps. Below this many requests
/// every latency is kept; beyond it the buffer is a uniform sample of
/// all of them, so its memory does not grow with throughput.
const LAT_CAP: usize = 1 << 16;

/// Request timings from one measured phase.
#[derive(Debug, Default)]
pub struct Timings {
    /// Host latency of every completed request, ns, or a uniform sample
    /// of [`LAT_CAP`] of them (see [`Timings::record`]).
    pub lat_ns: Vec<u64>,
    /// Requests completed.
    pub completed: u64,
    /// Host latency of requests that rebuilt a reply invalidated by a
    /// rebind, ns.
    pub stale_ns: Vec<u64>,
    /// Simulated exec-to-mapped time of the first requests, ns (a
    /// fixed-length prefix, so the mean repeats exactly per seed).
    pub sim_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the phase.
    pub wall: Duration,
}

/// The splitmix64 finaliser: a fixed pseudo-random index stream for
/// the latency reservoir.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Timings {
    /// Timings for a measuring loop, with the latency buffer allocated
    /// and written before the loop starts, so peak memory is the same
    /// whatever the loop's throughput.
    fn new() -> Timings {
        let mut lat_ns = Vec::with_capacity(LAT_CAP);
        lat_ns.resize(LAT_CAP, u64::MAX);
        lat_ns.clear();
        Timings {
            lat_ns,
            ..Timings::default()
        }
    }

    /// Records one completed request's latency: kept outright while the
    /// buffer has room, then by reservoir sampling (Algorithm R), so the
    /// buffer stays a uniform sample of every latency recorded.
    fn record(&mut self, ns: u64) {
        self.completed += 1;
        if self.lat_ns.len() < LAT_CAP {
            self.lat_ns.push(ns);
        } else {
            let j = mix(self.completed) % self.completed;
            if let Some(slot) = self.lat_ns.get_mut(j as usize) {
                *slot = ns;
            }
        }
    }

    fn absorb(&mut self, other: Timings) {
        self.lat_ns.extend(other.lat_ns);
        self.completed += other.completed;
        self.stale_ns.extend(other.stale_ns);
        self.sim_ns.extend(other.sim_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall = self.wall.max(other.wall);
    }

    fn throughput(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64()
    }
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

impl Measured {
    /// One line of text: counts, then the three sample lists.
    pub fn to_line(&self) -> String {
        let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
        format!(
            "measured {} {} {} {} {} {} | {} | {} | {}",
            self.t.attempted,
            self.t.completed,
            self.t.failed,
            self.t.wall.as_nanos(),
            self.setup_s,
            self.rss_mb,
            list(&self.t.lat_ns),
            list(&self.t.stale_ns),
            list(&self.t.sim_ns)
        )
    }

    /// Parses [`Measured::to_line`]'s output.
    pub fn from_line(line: &str) -> Result<Measured, String> {
        let bad = || format!("malformed measurement line: {:.80}", line);
        let body = line.strip_prefix("measured ").ok_or_else(bad)?;
        let parts: Vec<&str> = body.split(" | ").collect();
        let [head, lat, stale, sim] = parts[..] else {
            return Err(bad());
        };
        let list = |s: &str| {
            s.split_whitespace()
                .map(|x| x.parse::<u64>().map_err(|_| bad()))
                .collect::<Result<Vec<u64>, String>>()
        };
        let head: Vec<&str> = head.split_whitespace().collect();
        let [attempted, completed, failed, wall, setup_s, rss_mb] = head[..] else {
            return Err(bad());
        };
        let int = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let float = |s: &str| s.parse::<f64>().map_err(|_| bad());
        Ok(Measured {
            t: Timings {
                lat_ns: list(lat)?,
                stale_ns: list(stale)?,
                sim_ns: list(sim)?,
                attempted: int(attempted)?,
                completed: int(completed)?,
                failed: int(failed)?,
                wall: Duration::from_nanos(int(wall)?),
            },
            setup_s: float(setup_s)?,
            rss_mb: float(rss_mb)?,
        })
    }
}

/// The end-to-end report over measuring processes run one after
/// another: samples are pooled, wall times add up, and set-up time and
/// peak memory are the median over the processes.
pub fn end_to_end(parts: Vec<Measured>) -> Outcome {
    let mut out = Outcome::default();
    let setup: Vec<f64> = parts.iter().map(|p| p.setup_s).collect();
    let rss: Vec<f64> = parts.iter().map(|p| p.rss_mb).collect();
    let mut t = Timings::default();
    for p in parts {
        t.lat_ns.extend(p.t.lat_ns);
        t.completed += p.t.completed;
        t.stale_ns.extend(p.t.stale_ns);
        t.sim_ns.extend(p.t.sim_ns);
        t.attempted += p.t.attempted;
        t.failed += p.t.failed;
        t.wall += p.t.wall;
    }
    let lat = us(&t.lat_ns);
    out.attempted = t.attempted;
    out.failed = t.failed;
    out.metric("setup_s", median(&setup), "s");
    out.metric("req_p50_us", median(&lat), "us");
    out.metric("req_p99_us", quantile(&lat, 0.99), "us");
    out.metric("throughput_rps", t.throughput(), "1/s");
    out.metric("sim_exec_us", mean(&us(&t.sim_ns)), "us");
    out.metric("stale_p50_us", median(&us(&t.stale_ns)), "us");
    out.metric("peak_rss_mb", median(&rss), "MB");
    out.note("processes", setup.len());
    out.note("requests", t.completed);
    out.note("latency_samples", t.lat_ns.len());
    out.note("stale_requests", t.stale_ns.len());
    out.note("sim_window", t.sim_ns.len());
    out.note("measured_s", format!("{:.3}", t.wall.as_secs_f64()));
    out
}

/// Server-side state read through public accessors at the edges of the
/// traced phase.
struct ServerSnap {
    counters: TraceCounters,
    stats: ServerStats,
    cache: CacheStats,
    spill: SpillStats,
    stages: Vec<HistSnapshot>,
}

impl ServerSnap {
    fn take(server: &Omos) -> ServerSnap {
        let snap = server.trace_snapshot();
        ServerSnap {
            counters: snap.counters,
            stats: server.stats(),
            cache: server.images.stats(),
            spill: server.images.spill().map(|t| t.stats()).unwrap_or_default(),
            stages: snap.stages,
        }
    }
}

/// Everything the per-layer report is computed from.
struct TraceRun<'a> {
    server: &'a Omos,
    log: SpanLog,
    before: ServerSnap,
    after: ServerSnap,
    /// Benchmark eval-cache (hits, misses) over the replays.
    eval: (u64, u64),
    replayed: u64,
    ipc: IpcStats,
    /// The untraced phase (the throughput baseline) and the traced one.
    untraced: Timings,
    traced: Timings,
}

/// Layer timings reported as p50 and p99, in µs.
const TIMED_SPANS: [&str; 15] = [
    "core.request",
    "core.namespace.lookup",
    "blueprint.hash",
    "core.cache.get",
    "blueprint.eval",
    "module.merge",
    "module.materialize",
    "constraint.place",
    "constraint.state_copy",
    "link.link",
    "analysis.manifest",
    "analysis.relink_plan",
    "os.frame",
    "os.map",
    "os.ipc.charge",
];

/// Layers whose summed self time is reported.
const LAYERS: [&str; 7] = [
    "core",
    "blueprint",
    "module",
    "constraint",
    "link",
    "analysis",
    "os",
];

/// Simulated stages read from the server's trace histograms.
const SIM_STAGES: [Stage; 9] = [
    Stage::Eval,
    Stage::Placement,
    Stage::Link,
    Stage::Frame,
    Stage::Map,
    Stage::Ipc,
    Stage::RelinkPartial,
    Stage::Reuse,
    Stage::Policy,
];

/// p50 of a stage's histogram over the traced phase only.
fn stage_p50(before: &[HistSnapshot], after: &[HistSnapshot], stage: Stage) -> f64 {
    let find = |hs: &[HistSnapshot]| hs.iter().find(|h| h.stage == stage).cloned();
    let (Some(a), Some(b)) = (find(after), find(before)) else {
        return 0.0;
    };
    let buckets: Vec<u64> = a
        .buckets
        .iter()
        .zip(&b.buckets)
        .map(|(x, y)| x.saturating_sub(*y))
        .collect();
    HistSnapshot {
        stage,
        count: buckets.iter().sum(),
        sum_ns: a.sum_ns.saturating_sub(b.sum_ns),
        buckets,
    }
    .percentile(0.5) as f64
}

impl TraceRun<'_> {
    /// Fills the per-layer metrics. A layer that did no work on this
    /// workload reports 0.
    fn report(&self, out: &mut Outcome) {
        for name in TIMED_SPANS {
            let d = self.log.durations_us(name);
            let (p50, p99) = if d.is_empty() {
                (0.0, 0.0)
            } else {
                (median(&d), quantile(&d, 0.99))
            };
            out.metric(&format!("{name}_us.p50"), p50, "us");
            out.metric(&format!("{name}_us.p99"), p99, "us");
            out.note(&format!("samples.{name}"), d.len());
        }
        let un = self.log.unattributed_us();
        let (p50, p99) = if un.is_empty() {
            (0.0, 0.0)
        } else {
            (median(&un), quantile(&un, 0.99))
        };
        out.metric("trace.unattributed_us.p50", p50, "us");
        out.metric("trace.unattributed_us.p99", p99, "us");
        out.metric(
            "trace.overhead_frac",
            1.0 - self.traced.throughput() / self.untraced.throughput(),
            "frac",
        );
        out.metric("trace.replayed_requests", self.replayed as f64, "count");
        let by_layer = self.log.self_ms_by_layer();
        for layer in LAYERS {
            out.metric(
                &format!("{layer}.self_ms"),
                by_layer.get(layer).copied().unwrap_or(0.0),
                "ms",
            );
        }
        for stage in SIM_STAGES {
            out.metric(
                &format!("sim.{}_ns", stage.name()),
                stage_p50(&self.before.stages, &self.after.stages, stage),
                "ns",
            );
        }

        let (b, a) = (&self.before, &self.after);
        let c = |f: fn(&TraceCounters) -> u64| f(&a.counters).saturating_sub(f(&b.counters));
        let reply_hits = c(|t| t.reply_hits);
        let reply_probes = reply_hits + c(|t| t.reply_misses);
        out.metric(
            "core.reply.hit_ratio",
            ratio(reply_hits, reply_probes),
            "frac",
        );
        out.metric("core.reply.stale", c(|t| t.reply_stale) as f64, "count");
        let image_hits = a.cache.hits - b.cache.hits;
        let image_probes = image_hits + (a.cache.misses - b.cache.misses);
        out.metric(
            "core.image.hit_ratio",
            ratio(image_hits, image_probes),
            "frac",
        );
        out.metric(
            "core.image.evictions",
            (a.cache.evictions - b.cache.evictions) as f64,
            "count",
        );
        out.metric(
            "core.spill.fault_ins",
            (a.spill.fault_ins - b.spill.fault_ins) as f64,
            "count",
        );
        out.metric(
            "core.spill.verify_drops",
            (a.spill.verify_drops - b.spill.verify_drops) as f64,
            "count",
        );
        out.metric(
            "core.flight.coalesced",
            (a.stats.coalesced - b.stats.coalesced) as f64,
            "count",
        );
        out.metric(
            "core.image.live_mb",
            self.server.images.bytes() as f64 / (1024.0 * 1024.0),
            "MB",
        );
        out.metric(
            "blueprint.eval.hit_ratio",
            ratio(self.eval.0, self.eval.0 + self.eval.1),
            "frac",
        );
        let (bookings, conflicts) = {
            let solver = self.server.solver();
            (solver.allocations().count(), solver.conflicts().len())
        };
        out.metric("constraint.bookings", bookings as f64, "count");
        out.metric("constraint.conflicts", conflicts as f64, "count");
        out.metric(
            "link.programs_built",
            (a.stats.programs_built - b.stats.programs_built) as f64,
            "count",
        );
        out.metric(
            "link.libraries_built",
            (a.stats.libraries_built - b.stats.libraries_built) as f64,
            "count",
        );
        let reused = c(|t| t.relink_reused_images);
        let relinked = c(|t| t.relink_relinked_libraries);
        out.metric(
            "analysis.relink.reuse_ratio",
            ratio(reused, reused + relinked),
            "frac",
        );
        out.metric(
            "analysis.relink.fallbacks",
            c(|t| t.relink_fallbacks) as f64,
            "count",
        );
        out.metric(
            "os.ipc.bytes_per_req",
            ratio(self.ipc.bytes, self.traced.completed),
            "B",
        );
        out.note("traced_requests", self.traced.completed);
        out.note("untraced_rps", format!("{:.1}", self.untraced.throughput()));
        out.note("traced_rps", format!("{:.1}", self.traced.throughput()));
    }

    /// Completes the traced run's outcome: the per-layer metrics, the
    /// span file, and the request counts, with `failed_after` failures
    /// found by checks after the loop.
    fn finish(self, args: &Args, mut out: Outcome, failed_after: u64) -> Outcome {
        self.report(&mut out);
        self.write_spans(args, &mut out);
        out.attempted = self.untraced.attempted + self.traced.attempted;
        out.failed = self.untraced.failed + self.traced.failed + failed_after;
        out
    }

    /// Writes the span log to `.bench_trace/` in the working directory.
    fn write_spans(&self, args: &Args, out: &mut Outcome) {
        let path = std::path::PathBuf::from(".bench_trace").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match self.log.write_jsonl(&path) {
            Ok(()) => out.note("spans_file", path.display()),
            Err(e) => eprintln!("hostbench: writing {}: {e}", path.display()),
        }
        out.note("spans", self.log.spans.len());
    }
}
