//! Multi-client throughput benchmark.
//!
//! The ROADMAP north-star is a server under "heavy traffic": many
//! clients hitting one persistent OMOS at once. This harness spawns
//! 1/2/4/8 client threads against a shared [`Omos`] and measures
//! request throughput in two phases:
//!
//! * **cold** — a fresh server; concurrent cold-starts of the same
//!   program must coalesce through the single-flight table (the stats
//!   deltas in the report show how many builds actually ran);
//! * **warm** — the same server again; every request is a reply-cache
//!   hit and throughput should scale with the thread count.
//!
//! Time is measured in the *simulation* domain: each client thread owns
//! a [`SimClock`] and charges the usual IPC round trip plus the server
//! CPU its replies report, exactly like the exec paths do. The phase
//! *makespan* is the maximum per-thread simulated elapsed time (threads
//! model independent CPUs); throughput is total requests over that
//! makespan. Wall-clock per phase is recorded for reference but is not
//! meaningful on a single-CPU host — the simulated numbers are the
//! deterministic, asserted ones.

use std::sync::Barrier;

use omos_core::json::Json;
use omos_core::trace::{HistSnapshot, Stage};
use omos_core::{Omos, ServerStats};
use omos_os::ipc::{charge_roundtrip, ClientSession, IpcStats, Transport, DEFAULT_WINDOW};
use omos_os::{CostModel, InMemFs, SimClock};

use crate::workload::WorkloadSizes;
use crate::world::{Scenario, PROGRAMS};

/// One measured phase (one thread count, cold or warm).
#[derive(Debug, Clone, Copy)]
pub struct PhaseResult {
    /// Client threads.
    pub threads: usize,
    /// Total requests issued across all threads.
    pub requests: u64,
    /// Max per-thread simulated elapsed time.
    pub makespan_ns: u64,
    /// `requests / makespan` in requests per simulated second.
    pub throughput_rps: f64,
    /// Host wall-clock for the phase, for reference only.
    pub wall_ms: f64,
    /// Server counter deltas over the phase.
    pub stats: ServerStats,
    /// IPC traffic summed over all clients.
    pub ipc: IpcStats,
}

/// The full sweep: cold and warm phases per thread count.
#[derive(Debug)]
pub struct McResult {
    /// Requests each thread issues per phase.
    pub requests_per_thread: usize,
    /// Cold-phase results, one per thread count.
    pub cold: Vec<PhaseResult>,
    /// Warm-phase results, one per thread count.
    pub warm: Vec<PhaseResult>,
    /// Per-stage latency histograms folded across every server in the
    /// sweep (one per [`Stage`], in `Stage::ALL` order). Empty when the
    /// sweep ran with tracing off.
    pub stages: Vec<HistSnapshot>,
    /// Trace counter totals folded across every server in the sweep.
    pub counters: Vec<(&'static str, u64)>,
    /// Cold-link latency on simulated lanes, one lane vs several
    /// (`None` when the sweep skipped it).
    pub cold_link: Option<ColdLinkLatency>,
    /// Durability: restored-server first-request latency against a cold
    /// relink (`None` when the sweep skipped it).
    pub warm_restart: Option<WarmRestart>,
    /// Canonical resolution-manifest hash per scenario program, sorted
    /// by program name. The determinism gate diffs this section across
    /// `OMOS_EVAL_JOBS`/`RUST_TEST_THREADS` settings: the same request
    /// history must yield byte-identical manifests.
    pub manifests: Vec<(String, String)>,
    /// Batched/shared-memory transport comparison at 8 threads
    /// (`None` when the sweep skipped it).
    pub pipelined: Option<PipelinedResult>,
    /// Link-policy overhead phase (`None` when the sweep skipped it).
    pub policy: Option<PolicyOverhead>,
}

/// One warm transport run: every client issues the same request
/// sequence over one transport, and the fold of every reply's bytes
/// (`reply_digest`) proves the transport changed billing only.
#[derive(Debug, Clone)]
pub struct TransportPhase {
    /// Transport under test.
    pub transport: Transport,
    /// Client threads.
    pub threads: usize,
    /// Total requests issued.
    pub requests: u64,
    /// Max per-thread simulated elapsed time.
    pub makespan_ns: u64,
    /// `requests / makespan` in requests per simulated second.
    pub throughput_rps: f64,
    /// IPC traffic summed over all clients.
    pub ipc: IpcStats,
    /// FNV-1a fold of every reply's content (program, `server_ns`,
    /// manifest hash, image keys and pages) in per-thread request
    /// order — transport-independent by construction, asserted so.
    pub reply_digest: String,
}

/// The warm transport shoot-out: per-request Mach IPC (the cheapest
/// copying baseline) vs the batched and shared-memory transports, same
/// request history, bit-identical replies required.
#[derive(Debug, Clone)]
pub struct PipelinedResult {
    /// Client threads per phase.
    pub threads: usize,
    /// Max-inflight window of the pipelined clients.
    pub window: usize,
    /// Requests per thread.
    pub requests_per_thread: usize,
    /// Per-request Mach IPC baseline.
    pub baseline: TransportPhase,
    /// Batched transport run.
    pub pipelined: TransportPhase,
    /// Shared-memory ring run.
    pub shm_ring: TransportPhase,
}

impl PipelinedResult {
    /// Warm throughput of the batched transport over the per-request
    /// Mach baseline (the ≥5x acceptance gate).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.pipelined.throughput_rps / self.baseline.throughput_rps.max(f64::MIN_POSITIVE)
    }

    /// Warm throughput of the shared-memory ring over the baseline.
    #[must_use]
    pub fn shm_speedup(&self) -> f64 {
        self.shm_ring.throughput_rps / self.baseline.throughput_rps.max(f64::MIN_POSITIVE)
    }

    /// True when all three transports folded byte-identical replies.
    #[must_use]
    pub fn replies_bit_identical(&self) -> bool {
        self.baseline.reply_digest == self.pipelined.reply_digest
            && self.baseline.reply_digest == self.shm_ring.reply_digest
    }
}

/// One cold instantiation at a given `eval_jobs` setting.
#[derive(Debug, Clone, Copy)]
pub struct ColdLinkRun {
    /// `eval_jobs` for this run.
    pub jobs: usize,
    /// Billed work — must be identical across jobs settings.
    pub server_ns: u64,
    /// Simulated request latency (critical path of the schedule).
    pub latency_ns: u64,
}

/// Cold-link latency of one fan-out program, sequential (`jobs` = 1)
/// against a parallel schedule on simulated lanes. Both run the same
/// work on one host thread, so only the *simulated* speedup is
/// reported: it is deterministic and asserted.
#[derive(Debug, Clone, Copy)]
pub struct ColdLinkLatency {
    /// Scenario program instantiated (a wide library fan-out).
    pub program: &'static str,
    /// The sequential baseline.
    pub sequential: ColdLinkRun,
    /// The parallel run.
    pub parallel: ColdLinkRun,
}

impl ColdLinkLatency {
    /// Simulated critical-path speedup (sequential over parallel).
    #[must_use]
    pub fn sim_speedup(&self) -> f64 {
        self.sequential.latency_ns as f64 / self.parallel.latency_ns.max(1) as f64
    }
}

/// A wide, link-heavy fan-out: `nlibs` independent constraint-placed
/// libraries (64 KiB of text each) under one client. This is the shape
/// where intra-request parallelism pays: the library links dominate
/// and none depends on another. (The paper's codegen workload has the
/// same 13-library breadth, but its client evaluation — a 33-file
/// merge, a strictly sequential fold chain — caps its win well under
/// 2x; the fan-out isolates the schedulable part.)
fn fanout_server(nlibs: usize, cost: CostModel, transport: omos_os::ipc::Transport) -> Omos {
    use omos_obj::{ObjectFile, Section, SectionKind, Symbol};
    let s = Omos::new(cost, transport);
    s.namespace.bind_object(
        "/obj/main.o",
        omos_isa::assemble("main.o", ".text\n.global _start\n_start: sys 0\n")
            .expect("main assembles"),
    );
    let mut uses = String::new();
    for i in 0..nlibs {
        let mut o = ObjectFile::new(&format!("f{i}.o"));
        let t = o.add_section(Section::with_bytes(
            ".text",
            SectionKind::Text,
            vec![0u8; 64 << 10],
            8,
        ));
        o.define(Symbol::defined(&format!("_f{i}"), t, 0))
            .expect("unique symbol");
        s.namespace.bind_object(&format!("/obj/f{i}.o"), o);
        s.namespace
            .bind_blueprint(
                &format!("/lib/f{i}"),
                &format!(
                    "(constraint-list \"T\" {:#x} \"D\" {:#x})\n(merge /obj/f{i}.o)",
                    0x0200_0000 + (i as u64) * 0x20_0000,
                    0x4200_0000 + (i as u64) * 0x20_0000,
                ),
            )
            .expect("lib blueprint");
        uses.push_str(&format!(" /lib/f{i}"));
    }
    s.namespace
        .bind_blueprint("/bin/fanout", &format!("(merge /obj/main.o{uses})"))
        .expect("fanout blueprint");
    s
}

/// Number of libraries in the cold-link fan-out workload.
pub const COLD_LINK_LIBS: usize = 12;

/// Measures cold-link latency on the 12-library fan-out: one cold
/// build sequentially, one at `jobs`, each on a fresh server.
#[must_use]
pub fn run_cold_link(
    cost: CostModel,
    transport: omos_os::ipc::Transport,
    jobs: usize,
) -> ColdLinkLatency {
    let run = |jobs: usize| {
        let server = fanout_server(COLD_LINK_LIBS, cost, transport);
        server.set_eval_jobs(jobs);
        let r = server
            .instantiate("/bin/fanout")
            .expect("fanout instantiates");
        ColdLinkRun {
            jobs,
            server_ns: r.server_ns,
            latency_ns: r.latency_ns,
        }
    };
    ColdLinkLatency {
        program: "fanout-12",
        sequential: run(1),
        parallel: run(jobs.max(2)),
    }
}

/// Server restart with a completed checkpoint on disk: the restored
/// server answers its first request from the recovered reply cache,
/// against a cold server paying the full relink. All numbers are in
/// the simulation domain (checkpoint writes are synchronous and pay
/// the modeled disk-commit latency; restore pays charged reads).
#[derive(Debug, Clone, Copy)]
pub struct WarmRestart {
    /// Program instantiated on both sides.
    pub program: &'static str,
    /// Cold server's first-request latency (full build).
    pub cold_first_ns: u64,
    /// Restored server's first-request latency (restored reply hit).
    pub restored_first_ns: u64,
    /// Checkpoint footprint on the simulated disk.
    pub checkpoint_bytes: u64,
    /// Simulated cost of writing the checkpoint.
    pub checkpoint_ns: u64,
    /// Simulated cost of reading it back at restore.
    pub restore_ns: u64,
    /// Images reinstalled by the restore.
    pub restored_images: usize,
    /// Artifacts dropped by the restore (zero on a clean disk).
    pub restore_dropped: usize,
}

impl WarmRestart {
    /// First-request latency ratio, cold relink over restored hit.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.cold_first_ns as f64 / self.restored_first_ns.max(1) as f64
    }
}

/// Builds the 12-library fan-out, warms it, checkpoints it, restores a
/// fresh server from the checkpoint, and times the first request on
/// the restored server against the same request on a cold server.
#[must_use]
pub fn run_warm_restart(cost: CostModel, transport: omos_os::ipc::Transport) -> WarmRestart {
    let dir = "/omos/ckpt";
    let s = fanout_server(COLD_LINK_LIBS, cost, transport);
    s.instantiate("/bin/fanout").expect("fanout instantiates");
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let report = s
        .checkpoint(&mut fs, &mut clock, dir)
        .expect("checkpoint succeeds");
    let checkpoint_ns = clock.elapsed_ns;

    let restore_start = clock.elapsed_ns;
    let (restored, rr) = Omos::restore(cost, transport, &mut fs, &mut clock, dir);
    let restore_ns = clock.elapsed_ns - restore_start;
    let first = restored
        .instantiate("/bin/fanout")
        .expect("restored server answers");

    let cold = fanout_server(COLD_LINK_LIBS, cost, transport);
    let cold_first = cold.instantiate("/bin/fanout").expect("cold build");

    WarmRestart {
        program: "fanout-12",
        cold_first_ns: cold_first.latency_ns,
        restored_first_ns: first.latency_ns,
        checkpoint_bytes: report.bytes_written,
        checkpoint_ns,
        restore_ns,
        restored_images: rr.images,
        restore_dropped: rr.dropped,
    }
}

/// One cold build of the policy workload under one policy
/// configuration (a fresh traced server each).
#[derive(Debug, Clone)]
pub struct PolicyPhase {
    /// Configuration name (`off`, `deny`, `trampoline`, `audit`).
    pub policy: &'static str,
    /// Billed server work for the cold build.
    pub server_ns: u64,
    /// Trampoline stubs the policy inserted (trace counter).
    pub trampolines: u64,
    /// Call-audit stubs the policy inserted (trace counter).
    pub audits: u64,
    /// Canonical resolution-manifest hash of the built program.
    pub manifest: String,
}

/// The policy-overhead phase: the same monitored-routines program
/// built cold under each link-policy configuration. The `off` row is
/// the baseline; its manifest hash must match a policy-free build
/// (the oracle tests pin byte identity), and the stub counts make the
/// per-configuration overhead attributable.
#[derive(Debug, Clone)]
pub struct PolicyOverhead {
    /// Workload name.
    pub program: &'static str,
    /// Monitored routines in the workload.
    pub routines: usize,
    /// One row per configuration, `off` first.
    pub phases: Vec<PolicyPhase>,
}

impl PolicyOverhead {
    /// The row for one configuration.
    #[must_use]
    pub fn phase(&self, policy: &str) -> Option<&PolicyPhase> {
        self.phases.iter().find(|p| p.policy == policy)
    }

    /// Extra billed work of `policy` over the `off` baseline.
    #[must_use]
    pub fn overhead_ns(&self, policy: &str) -> Option<i64> {
        let base = self.phase("off")?.server_ns as i64;
        Some(self.phase(policy)?.server_ns as i64 - base)
    }
}

/// Routines in the policy workload program.
pub const POLICY_ROUTINES: usize = 8;

/// Builds a server holding the policy workload: a program with
/// [`POLICY_ROUTINES`] globally named routines, all called from
/// `_start`, under the given `(policy ...)` forms.
fn policy_server(policies: &str, cost: CostModel, transport: omos_os::ipc::Transport) -> Omos {
    let s = Omos::new(cost, transport);
    let mut src = String::from(".text\n.global _start");
    for i in 0..POLICY_ROUTINES {
        src.push_str(&format!(", _r{i}"));
    }
    src.push_str("\n_start:\n");
    for i in 0..POLICY_ROUTINES {
        src.push_str(&format!("  call _r{i}\n"));
    }
    src.push_str("  sys 0\n");
    for i in 0..POLICY_ROUTINES {
        src.push_str(&format!("_r{i}: li r1, {i}\n  ret\n"));
    }
    s.namespace.bind_object(
        "/obj/polmain.o",
        omos_isa::assemble("polmain.o", &src).expect("policy workload assembles"),
    );
    s.namespace
        .bind_blueprint("/bin/policy", &format!("{policies}(merge /obj/polmain.o)"))
        .expect("policy blueprint parses");
    s
}

/// Runs the policy-overhead phase: each configuration builds the same
/// workload cold on its own traced server, so `server_ns` deltas are
/// exactly the policy stage's bill plus the stub link work.
#[must_use]
pub fn run_policy_overhead(cost: CostModel, transport: omos_os::ipc::Transport) -> PolicyOverhead {
    let configs: [(&'static str, &'static str); 4] = [
        ("off", ""),
        // A deny that nothing violates: screening cost only.
        ("deny", "(policy deny \"_forbidden.*\")\n"),
        ("trampoline", "(policy trampoline \"_r[0-9]+\")\n"),
        ("audit", "(policy audit \"_r[0-9]+\")\n"),
    ];
    let mut phases = Vec::with_capacity(configs.len());
    for (name, forms) in configs {
        let server = policy_server(forms, cost, transport);
        server.set_tracing(true);
        let r = server
            .instantiate("/bin/policy")
            .expect("policy workload instantiates");
        let counters = server.trace_snapshot().counters.entries();
        let counter = |key: &str| {
            counters
                .iter()
                .find(|(n, _)| *n == key)
                .map_or(0, |(_, v)| *v)
        };
        let manifest = server
            .explain("/bin/policy")
            .expect("policy workload explains");
        phases.push(PolicyPhase {
            policy: name,
            server_ns: r.server_ns,
            trampolines: counter("policy_trampolines"),
            audits: counter("policy_audits"),
            manifest: format!("{:016x}", omos_obj::fnv1a(&manifest.encode()).0),
        });
    }
    PolicyOverhead {
        program: "policy-8",
        routines: POLICY_ROUTINES,
        phases,
    }
}

/// The encoded (canonical-bytes) resolution manifest of every scenario
/// program on `server`, sorted by program name.
#[must_use]
pub fn scenario_manifests(server: &Omos) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = PROGRAMS
        .iter()
        .map(|p| {
            let m = server
                .explain(&format!("/bin/{p}"))
                .expect("scenario programs explain");
            (p.to_string(), m.encode())
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

impl McResult {
    /// Warm throughput ratio between the `a`-thread and `b`-thread runs.
    #[must_use]
    pub fn warm_scaling(&self, a: usize, b: usize) -> Option<f64> {
        let at = self.warm.iter().find(|p| p.threads == a)?;
        let bt = self.warm.iter().find(|p| p.threads == b)?;
        Some(bt.throughput_rps / at.throughput_rps)
    }
}

fn delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        requests: after.requests - before.requests,
        reply_cache_hits: after.reply_cache_hits - before.reply_cache_hits,
        coalesced: after.coalesced - before.coalesced,
        replies_built: after.replies_built - before.replies_built,
        libraries_built: after.libraries_built - before.libraries_built,
        programs_built: after.programs_built - before.programs_built,
        cpu_ns: after.cpu_ns - before.cpu_ns,
    }
}

/// Runs one phase: `threads` clients, each issuing `per_thread`
/// requests round-robin over the scenario programs, all released
/// together by a barrier.
fn run_phase(server: &Omos, threads: usize, per_thread: usize, cost: &CostModel) -> PhaseResult {
    let before = server.stats();
    let barrier = Barrier::new(threads);
    let wall_start = std::time::Instant::now();
    let per_client: Vec<(u64, IpcStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut clock = SimClock::new();
                    let mut ipc = IpcStats::default();
                    barrier.wait();
                    for i in 0..per_thread {
                        // Offset by thread id so cold-start collisions
                        // happen on every program, not just the first.
                        let program = PROGRAMS[(t + i) % PROGRAMS.len()];
                        let reply = server
                            .instantiate(&format!("/bin/{program}"))
                            .expect("benchmark programs instantiate");
                        let at = clock.elapsed_ns;
                        charge_roundtrip(
                            &mut clock,
                            cost,
                            server.transport,
                            128,
                            256 + 32 * reply.total_pages(),
                            reply.server_ns,
                            &mut ipc,
                        );
                        // Transport overhead only: the round trip also
                        // charges the server CPU the reply reports.
                        let overhead = (clock.elapsed_ns - at).saturating_sub(reply.server_ns);
                        server.tracer().client_span(reply.req, Stage::Ipc, overhead);
                    }
                    (clock.elapsed_ns, ipc)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;

    let makespan_ns = per_client.iter().map(|(ns, _)| *ns).max().unwrap_or(0);
    let mut ipc = IpcStats::default();
    for (_, i) in &per_client {
        ipc += *i;
    }
    let requests = (threads * per_thread) as u64;
    PhaseResult {
        threads,
        requests,
        makespan_ns,
        throughput_rps: if makespan_ns == 0 {
            0.0
        } else {
            requests as f64 * 1e9 / makespan_ns as f64
        },
        wall_ms,
        stats: delta(server.stats(), before),
        ipc,
    }
}

/// Runs one *warm* phase over an arbitrary transport: `threads`
/// clients, each owning a [`ClientSession`], issuing `per_thread`
/// requests round-robin over the scenario programs. The server must
/// already be warm (every program instantiated once). Each thread
/// folds the bytes of every reply it sees — program name, `server_ns`,
/// manifest hash, image keys and page counts — into an FNV-1a digest;
/// the per-thread request sequences are fixed, so the digest is a
/// transport-independent function of the reply bytes alone.
#[must_use]
pub fn run_transport_warm(
    server: &Omos,
    transport: Transport,
    threads: usize,
    per_thread: usize,
    cost: &CostModel,
    window: usize,
) -> TransportPhase {
    let barrier = Barrier::new(threads);
    let per_client: Vec<(u64, IpcStats, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut clock = SimClock::new();
                    let mut session = ClientSession::with_window(transport, window);
                    let mut digest = Vec::new();
                    barrier.wait();
                    for i in 0..per_thread {
                        let program = PROGRAMS[(t + i) % PROGRAMS.len()];
                        let reply = server
                            .instantiate(&format!("/bin/{program}"))
                            .expect("benchmark programs instantiate");
                        let shape = reply.reply_shape();
                        digest.extend_from_slice(program.as_bytes());
                        digest.extend_from_slice(&reply.server_ns.to_le_bytes());
                        digest.extend_from_slice(&reply.manifest.0.to_le_bytes());
                        for img in &shape.images {
                            digest.extend_from_slice(&img.key.to_le_bytes());
                            digest.extend_from_slice(&img.pages.to_le_bytes());
                        }
                        session.request(&mut clock, cost, i as u64, 128, shape, reply.server_ns);
                    }
                    session.drain(&mut clock, cost);
                    server.tracer().client_ipc(&session.stats);
                    (clock.elapsed_ns, session.stats, digest)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let makespan_ns = per_client.iter().map(|(ns, _, _)| *ns).max().unwrap_or(0);
    let mut ipc = IpcStats::default();
    let mut all = Vec::new();
    for (_, i, d) in &per_client {
        ipc += *i;
        all.extend_from_slice(d);
    }
    let requests = (threads * per_thread) as u64;
    TransportPhase {
        transport,
        threads,
        requests,
        makespan_ns,
        throughput_rps: if makespan_ns == 0 {
            0.0
        } else {
            requests as f64 * 1e9 / makespan_ns as f64
        },
        ipc,
        reply_digest: format!("{:016x}", omos_obj::fnv1a(&all).0),
    }
}

/// Number of client threads in the transport shoot-out.
pub const PIPELINED_THREADS: usize = 8;
/// Requests each client issues in the transport shoot-out.
pub const PIPELINED_PER_THREAD: usize = 64;

/// Warm-path wall cost of one transport with tracing on or off: builds
/// a fresh warmed scenario, then times the warm phase. Returns
/// `(wall_ms, sim_makespan_ns)` — the sim makespan must not move with
/// tracing (the overhead guard checks both).
#[must_use]
pub fn run_transport_overhead(
    sizes: &WorkloadSizes,
    cost: CostModel,
    transport: Transport,
    threads: usize,
    per_thread: usize,
    tracing: bool,
) -> (f64, u64) {
    let scenario = Scenario::build(*sizes, cost, transport);
    let server = scenario.server;
    for p in PROGRAMS {
        server
            .instantiate(&format!("/bin/{p}"))
            .expect("warmup instantiates");
    }
    server.set_tracing(tracing);
    let window = if transport.is_batched() {
        DEFAULT_WINDOW
    } else {
        1
    };
    let wall = std::time::Instant::now();
    let phase = run_transport_warm(&server, transport, threads, per_thread, &cost, window);
    (wall.elapsed().as_secs_f64() * 1e3, phase.makespan_ns)
}

/// Runs the warm transport shoot-out: a fresh scenario server per
/// transport (warmed by one pass over the programs), then the same
/// 8-thread request history over per-request Mach IPC, the batched
/// transport, and the shared-memory ring. Panics if any transport
/// changes a reply byte — the transports are allowed to move billing
/// only.
#[must_use]
pub fn run_pipelined(
    sizes: &WorkloadSizes,
    cost: CostModel,
    per_thread: usize,
    window: usize,
) -> PipelinedResult {
    let run = |transport: Transport, window: usize| {
        let scenario = Scenario::build(*sizes, cost, transport);
        let server = scenario.server;
        for p in PROGRAMS {
            server
                .instantiate(&format!("/bin/{p}"))
                .expect("warmup instantiates");
        }
        run_transport_warm(
            &server,
            transport,
            PIPELINED_THREADS,
            per_thread,
            &cost,
            window,
        )
    };
    let baseline = run(Transport::MachIpc, 1);
    let pipelined = run(Transport::Pipelined, window);
    let shm_ring = run(Transport::ShmRing, 1);
    let r = PipelinedResult {
        threads: PIPELINED_THREADS,
        window,
        requests_per_thread: per_thread,
        baseline,
        pipelined,
        shm_ring,
    };
    assert!(
        r.replies_bit_identical(),
        "transports must not change reply bytes: mach={} pipelined={} shm={}",
        r.baseline.reply_digest,
        r.pipelined.reply_digest,
        r.shm_ring.reply_digest
    );
    r
}

/// Runs the full sweep. Each thread count gets a *fresh* server for its
/// cold phase; the warm phase reuses that same (now fully cached)
/// server. With `tracing` off no hook records a span or a histogram
/// sample, and only the counters count (this is what the overhead guard
/// compares against); the simulated numbers are identical either way.
#[must_use]
pub fn run_multiclient(
    sizes: &WorkloadSizes,
    cost: CostModel,
    transport: omos_os::ipc::Transport,
    thread_counts: &[usize],
    per_thread: usize,
    tracing: bool,
) -> McResult {
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut stages: Vec<HistSnapshot> =
        Stage::ALL.iter().map(|&s| HistSnapshot::empty(s)).collect();
    let mut counters: Vec<(&'static str, u64)> = Vec::new();
    let mut manifests: Vec<(String, Vec<u8>)> = Vec::new();
    for &threads in thread_counts {
        let scenario = Scenario::build(*sizes, cost, transport);
        let server = scenario.server;
        server.set_tracing(tracing);
        cold.push(run_phase(&server, threads, per_thread, &cost));
        warm.push(run_phase(&server, threads, per_thread, &cost));
        // Every thread count replays the same request history on a
        // fresh server; the canonical manifests must not notice.
        let now = scenario_manifests(&server);
        if manifests.is_empty() {
            manifests = now;
        } else {
            assert_eq!(
                manifests, now,
                "resolution manifests diverged across thread counts"
            );
        }
        if tracing {
            let snap = server.trace_snapshot();
            for (acc, h) in stages.iter_mut().zip(&snap.stages) {
                acc.merge(h);
            }
            if counters.is_empty() {
                counters = snap.counters.entries();
            } else {
                for (acc, (_, v)) in counters.iter_mut().zip(snap.counters.entries()) {
                    acc.1 += v;
                }
            }
        }
    }
    if !tracing {
        stages.clear();
    }
    McResult {
        requests_per_thread: per_thread,
        cold,
        warm,
        stages,
        counters,
        cold_link: Some(run_cold_link(cost, transport, 8)),
        warm_restart: Some(run_warm_restart(cost, transport)),
        manifests: manifests
            .into_iter()
            .map(|(p, bytes)| (p, format!("{:016x}", omos_obj::fnv1a(&bytes).0)))
            .collect(),
        pipelined: Some(run_pipelined(
            sizes,
            cost,
            PIPELINED_PER_THREAD,
            DEFAULT_WINDOW,
        )),
        policy: Some(run_policy_overhead(cost, transport)),
    }
}

fn phase_json(phase: &str, p: &PhaseResult) -> Json {
    Json::obj([
        ("phase", phase.into()),
        ("threads", p.threads.into()),
        ("requests", p.requests.into()),
        ("makespan_ns", p.makespan_ns.into()),
        ("throughput_rps", Json::fixed(p.throughput_rps, 1)),
        ("wall_ms", Json::fixed(p.wall_ms, 3)),
        ("replies_built", p.stats.replies_built.into()),
        ("reply_cache_hits", p.stats.reply_cache_hits.into()),
        ("coalesced", p.stats.coalesced.into()),
        ("programs_built", p.stats.programs_built.into()),
        ("libraries_built", p.stats.libraries_built.into()),
        ("ipc_messages", p.ipc.messages.into()),
        ("ipc_bytes", p.ipc.bytes.into()),
    ])
}

fn trace_json(stages: &[HistSnapshot], counters: &[(&'static str, u64)]) -> Json {
    let stage = |h: &HistSnapshot| {
        Json::obj([
            ("stage", h.stage.name().into()),
            ("count", h.count.into()),
            ("p50_ns", h.percentile(0.50).into()),
            ("p95_ns", h.percentile(0.95).into()),
            ("p99_ns", h.percentile(0.99).into()),
            ("mean_ns", (h.sum_ns / h.count).into()),
        ])
    };
    let stages = stages.iter().filter(|h| h.count > 0).map(stage).collect();
    let counters = counters.iter().map(|&(name, v)| (name, v.into()));
    Json::obj([
        ("stages", Json::Arr(stages)),
        ("counters", Json::obj(counters)),
    ])
}

fn cold_link_json(cl: &ColdLinkLatency) -> Json {
    let run = |r: &ColdLinkRun| {
        Json::obj([
            ("eval_jobs", r.jobs.into()),
            ("server_ns", r.server_ns.into()),
            ("latency_ns", r.latency_ns.into()),
        ])
    };
    Json::obj([
        ("program", cl.program.into()),
        ("sequential", run(&cl.sequential)),
        ("parallel", run(&cl.parallel)),
        ("sim_speedup", Json::fixed(cl.sim_speedup(), 2)),
    ])
}

fn warm_restart_json(wr: &WarmRestart) -> Json {
    Json::obj([
        ("program", wr.program.into()),
        ("cold_first_ns", wr.cold_first_ns.into()),
        ("restored_first_ns", wr.restored_first_ns.into()),
        ("checkpoint_bytes", wr.checkpoint_bytes.into()),
        ("checkpoint_ns", wr.checkpoint_ns.into()),
        ("restore_ns", wr.restore_ns.into()),
        ("restored_images", wr.restored_images.into()),
        ("restore_dropped", wr.restore_dropped.into()),
        ("speedup", Json::fixed(wr.speedup(), 2)),
    ])
}

fn pipelined_json(p: &PipelinedResult) -> Json {
    let transport = |t: &TransportPhase| {
        Json::obj([
            ("transport", t.transport.name().into()),
            ("requests", t.requests.into()),
            ("makespan_ns", t.makespan_ns.into()),
            ("throughput_rps", Json::fixed(t.throughput_rps, 1)),
            ("ipc_messages", t.ipc.messages.into()),
            ("ipc_bytes", t.ipc.bytes.into()),
            ("batches", t.ipc.batches.into()),
            ("mappings", t.ipc.mappings.into()),
            ("reply_digest", t.reply_digest.as_str().into()),
        ])
    };
    Json::obj([
        ("threads", p.threads.into()),
        ("window", p.window.into()),
        ("requests_per_thread", p.requests_per_thread.into()),
        ("baseline", transport(&p.baseline)),
        ("pipelined", transport(&p.pipelined)),
        ("shm_ring", transport(&p.shm_ring)),
        ("speedup_vs_mach", Json::fixed(p.speedup(), 2)),
        ("shm_speedup_vs_mach", Json::fixed(p.shm_speedup(), 2)),
        ("replies_bit_identical", p.replies_bit_identical().into()),
    ])
}

fn policy_json(po: &PolicyOverhead) -> Json {
    let phase = |ph: &PolicyPhase| {
        Json::obj([
            ("policy", ph.policy.into()),
            ("server_ns", ph.server_ns.into()),
            ("overhead_ns", po.overhead_ns(ph.policy).unwrap_or(0).into()),
            ("trampolines", ph.trampolines.into()),
            ("audits", ph.audits.into()),
            ("manifest", ph.manifest.as_str().into()),
        ])
    };
    Json::obj([
        ("program", po.program.into()),
        ("routines", po.routines.into()),
        ("phases", Json::Arr(po.phases.iter().map(phase).collect())),
    ])
}

/// Renders the sweep as a JSON document (`BENCH_CONCURRENCY.json`);
/// sections the sweep skipped are left out.
#[must_use]
pub fn to_json(r: &McResult) -> String {
    let phases = r
        .cold
        .iter()
        .map(|p| phase_json("cold", p))
        .chain(r.warm.iter().map(|p| phase_json("warm", p)))
        .collect();
    let programs = PROGRAMS.iter().map(|&p| p.into()).collect();
    let mut doc = vec![
        ("bench", "multiclient-throughput".into()),
        ("programs", Json::Arr(programs)),
        ("requests_per_thread", r.requests_per_thread.into()),
        ("phases", Json::Arr(phases)),
    ];
    if !r.stages.is_empty() {
        doc.push(("trace", trace_json(&r.stages, &r.counters)));
    }
    if let Some(cl) = &r.cold_link {
        doc.push(("cold_link_latency", cold_link_json(cl)));
    }
    if let Some(wr) = &r.warm_restart {
        doc.push(("warm_restart", warm_restart_json(wr)));
    }
    if let Some(p) = &r.pipelined {
        doc.push(("pipelined", pipelined_json(p)));
    }
    if let Some(po) = &r.policy {
        doc.push(("policy_overhead", policy_json(po)));
    }
    if !r.manifests.is_empty() {
        let manifests = r
            .manifests
            .iter()
            .map(|(p, d)| (p.as_str(), d.as_str().into()));
        doc.push(("manifests", Json::obj(manifests)));
    }
    let scaling = r.warm_scaling(1, 4).unwrap_or(0.0);
    doc.push(("warm_scaling_1_to_4", Json::fixed(scaling, 2)));
    Json::obj(doc).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_os::ipc::Transport;

    #[test]
    fn warm_throughput_scales_at_least_2x_from_1_to_4_threads() {
        let r = run_multiclient(
            &WorkloadSizes::small(),
            CostModel::hpux(),
            Transport::SysVMsg,
            &[1, 4],
            12,
            true,
        );
        let scaling = r.warm_scaling(1, 4).expect("both thread counts ran");
        assert!(
            scaling >= 2.0,
            "warm throughput must scale >= 2x from 1 to 4 threads, got {scaling:.2}x"
        );
        // Warm phases never build: every request is a hit (or coalesces
        // with a concurrent one).
        for p in &r.warm {
            assert_eq!(p.stats.replies_built, 0, "warm phase rebuilt something");
            assert_eq!(
                p.stats.reply_cache_hits + p.stats.coalesced,
                p.stats.requests
            );
        }
    }

    #[test]
    fn cold_phase_builds_each_program_once() {
        let r = run_multiclient(
            &WorkloadSizes::small(),
            CostModel::hpux(),
            Transport::SysVMsg,
            &[8],
            6,
            true,
        );
        let cold = &r.cold[0];
        assert_eq!(cold.stats.replies_built, PROGRAMS.len() as u64);
        assert_eq!(cold.stats.programs_built, PROGRAMS.len() as u64);
        assert_eq!(
            cold.stats.requests,
            cold.stats.reply_cache_hits + cold.stats.coalesced + cold.stats.replies_built
        );
    }

    #[test]
    fn cold_link_parallel_halves_the_critical_path() {
        let cl = run_cold_link(CostModel::hpux(), Transport::SysVMsg, 8);
        // The schedule must not change the bill, and sequentially
        // latency *is* the bill.
        assert_eq!(cl.sequential.server_ns, cl.parallel.server_ns);
        assert_eq!(cl.sequential.latency_ns, cl.sequential.server_ns);
        assert!(
            cl.sim_speedup() >= 2.0,
            "12-library fan-out should cut the simulated critical path \
             at least in half at 8 jobs, got {:.2}x ({} -> {} ns)",
            cl.sim_speedup(),
            cl.sequential.latency_ns,
            cl.parallel.latency_ns
        );
    }

    #[test]
    fn warm_restart_beats_the_cold_relink() {
        let wr = run_warm_restart(CostModel::hpux(), Transport::SysVMsg);
        assert_eq!(wr.restore_dropped, 0, "clean disk restores everything");
        assert!(wr.restored_images >= COLD_LINK_LIBS);
        assert!(wr.checkpoint_bytes > 0);
        assert!(
            wr.restored_first_ns < wr.cold_first_ns,
            "restored first request ({} ns) must beat the cold relink ({} ns)",
            wr.restored_first_ns,
            wr.cold_first_ns
        );
    }

    #[test]
    fn manifests_are_identical_across_eval_jobs_settings() {
        // Same request history, one simulated lane vs eight: the
        // canonical manifests must be byte-identical — this is the
        // in-process face of the CI determinism gate.
        let run = |jobs: usize| {
            let scenario = Scenario::build(
                WorkloadSizes::small(),
                CostModel::hpux(),
                Transport::SysVMsg,
            );
            let server = scenario.server;
            server.set_eval_jobs(jobs);
            for p in PROGRAMS {
                server
                    .instantiate(&format!("/bin/{p}"))
                    .expect("scenario programs instantiate");
            }
            scenario_manifests(&server)
        };
        let sequential = run(1);
        let parallel = run(8);
        assert_eq!(sequential.len(), PROGRAMS.len());
        for ((pa, ba), (pb, bb)) in sequential.iter().zip(&parallel) {
            assert_eq!(pa, pb);
            assert_eq!(
                ba, bb,
                "manifest for `{pa}` differs between eval_jobs=1 and eval_jobs=8"
            );
        }
    }

    #[test]
    fn pipelined_warm_throughput_is_5x_mach_at_8_threads() {
        // The acceptance gate: batching kills the IPC tax. Same request
        // history, bit-identical replies (run_pipelined panics
        // otherwise), ≥5x the per-request Mach baseline.
        let r = run_pipelined(
            &WorkloadSizes::small(),
            CostModel::hpux(),
            32,
            DEFAULT_WINDOW,
        );
        assert!(r.replies_bit_identical());
        assert!(
            r.speedup() >= 5.0,
            "pipelined warm throughput must be >= 5x per-request Mach IPC \
             at 8 threads, got {:.2}x ({:.0} vs {:.0} rps)",
            r.speedup(),
            r.pipelined.throughput_rps,
            r.baseline.throughput_rps
        );
        // The ring moves descriptors, not handle bytes: strictly less
        // traffic than the baseline, and faster too.
        assert!(r.shm_ring.ipc.bytes < r.baseline.ipc.bytes);
        assert!(r.shm_speedup() > 1.0);
        // Conservation: every request crossed in a batch frame.
        assert_eq!(r.pipelined.ipc.batched_requests, r.pipelined.requests);
        assert!(r.pipelined.ipc.messages < r.baseline.ipc.messages / 4);
    }

    #[test]
    fn json_round_trips_every_section() {
        let r = run_multiclient(
            &WorkloadSizes::small(),
            CostModel::hpux(),
            Transport::SysVMsg,
            &[1],
            3,
            true,
        );
        let doc = omos_core::json::parse(&to_json(&r)).expect("valid JSON");
        let at = |path: &[&str]| path.iter().try_fold(&doc, |v, k| v.get(k));
        assert_eq!(at(&["bench"]), Some(&"multiclient-throughput".into()));
        let phases = at(&["phases"]).and_then(Json::as_arr).expect("phases");
        let names: Vec<_> = phases.iter().map(|p| p.get("phase")).collect();
        assert_eq!(names, [Some(&"cold".into()), Some(&"warm".into())]);
        let requests = r
            .counters
            .iter()
            .find(|c| c.0 == "requests")
            .map(|c| c.1.into());
        assert_eq!(at(&["trace", "counters", "requests"]), requests.as_ref());
        let restored = r.warm_restart.map(|w| w.restored_images.into());
        assert_eq!(at(&["warm_restart", "restored_images"]), restored.as_ref());
        let policies = at(&["policy_overhead", "phases"]).and_then(Json::as_arr);
        assert_eq!(policies.map(<[Json]>::len), Some(4));
        assert_eq!(r.manifests.len(), PROGRAMS.len());
        for (program, digest) in &r.manifests {
            assert_eq!(at(&["manifests", program]), Some(&digest.as_str().into()));
        }
        let identical = at(&["pipelined", "replies_bit_identical"]);
        assert_eq!(identical, Some(&Json::Bool(true)));
    }

    #[test]
    fn policy_overhead_phase_attributes_its_costs() {
        let po = run_policy_overhead(CostModel::hpux(), Transport::SysVMsg);
        // The off and non-matching-deny rows insert nothing and bill
        // identically — deny screening rides the evaluation the server
        // already paid for, and their manifests carry the policy rows
        // but identical placements.
        let off = po.phase("off").expect("off row");
        let deny = po.phase("deny").expect("deny row");
        assert_eq!(off.trampolines + off.audits, 0);
        assert_eq!(deny.trampolines + deny.audits, 0);
        assert_eq!(off.server_ns, deny.server_ns);
        // Wrapping rows wrap every routine and bill extra work.
        let tramp = po.phase("trampoline").expect("trampoline row");
        let audit = po.phase("audit").expect("audit row");
        assert_eq!(tramp.trampolines, POLICY_ROUTINES as u64);
        assert_eq!(tramp.audits, 0);
        assert_eq!(audit.audits, POLICY_ROUTINES as u64);
        assert_eq!(audit.trampolines, 0);
        assert!(po.overhead_ns("trampoline").unwrap() > 0);
        assert!(po.overhead_ns("audit").unwrap() > 0);
        // Audit stubs are bigger than trampolines: more link work.
        assert!(audit.server_ns > tramp.server_ns);
        // Each configuration resolves to a distinct manifest (the
        // policy set is part of the resolution).
        let mut digests: Vec<&str> = po.phases.iter().map(|p| p.manifest.as_str()).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), po.phases.len());
    }
}
