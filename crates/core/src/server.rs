//! The OMOS server.
//!
//! "Modern operating systems provide the primitives needed to make the
//! dynamic linker and loader a persistent server which lives across
//! program invocations. ... The speed is gained primarily through caching
//! of previous work, i.e., bound and relocated executable images and
//! libraries."
//!
//! [`Omos`] owns the namespace, the multi-level caches (evaluated
//! modules, bound images, full instantiation replies), the address
//! constraint solver, and the registry of `lib-dynamic` implementations.
//! Server-side CPU work is metered in nanoseconds and reported per
//! request; clients charge it as I/O wait (the server is another
//! process on the same machine).
//!
//! # Concurrency
//!
//! The server is shared: every request path takes `&self`, so clients
//! on many threads call one `Arc<Omos>` (or `&Omos` under a scope)
//! directly. Internally:
//!
//! * the namespace, eval cache, reply cache, and image cache are
//!   internally synchronized (sharded locks, atomics);
//! * counters live in the tracer's per-thread shards (one ledger, on
//!   whether or not tracing is), summed by [`Omos::stats`];
//! * concurrent cold-starts of the same blueprint coalesce through a
//!   per-key single-flight table — one leader evaluates and links, the
//!   rest block and share the leader's reply (and its frames);
//! * invalidation is epoch/key-selective: the eval and reply caches are
//!   one `sync::DepCache` type, whose entries remember which namespace
//!   paths they depended on and the generation they were derived at, so
//!   a bind only invalidates derivations that actually depended on the
//!   touched path; the cache judges and drops stale entries, and the
//!   server reports each probe with one tracer hook.
//!
//! Lock order (coarse to fine): dynamic-lib build slot → placement
//! solver → image-flight → image-cache shard. Namespace, sharded cache,
//! and flight-table locks are leaves; nothing calls back into the
//! server while holding one.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use omos_analysis::manifest::{
    assemble_manifest, client_bases, eval_with_policies, interpositions_of, library_image_key,
    library_placement, manifest_of_placed, materialize_libraries, place_libraries,
    program_image_key, LibraryResolution, ProgramResolution, ResolutionManifest,
};
use omos_analysis::{
    analyze_blueprint, apply_link_policies, Diagnostic, LintContext, LintResolved, PolicyError,
    Severity,
};
use omos_blueprint::eval::LibraryUse;
use omos_blueprint::{
    eval_blueprint_with_units, Blueprint, CachedEval, EvalContext, EvalError, EvalOutput,
    EvalStats, LinkPolicy, MNode, PolicyKind, ResolvedNode,
};
use omos_constraint::PlacementSolver;
use omos_link::{
    link, read_externs, scan_audit_stubs, FunctionHashTable, LinkOptions, LinkStats, LinkedImage,
};
use omos_module::Module;
use omos_obj::{ContentHash, ObjError, ObjectFile, SectionKind};
use omos_os::ipc::{ImageDescriptor, ReplyShape, Transport};
use omos_os::{CostModel, ImageFrames};

use crate::cache::{CachedImage, ImageCache};
use crate::error::OmosError;
use crate::namespace::{Entry, Namespace};
use crate::sync::{lock, DepCache, SingleFlight};
use crate::trace::{CacheKind, FlightRole, ProbeOutcome, SpanKind, Stage, TraceSnapshot, Tracer};

/// Default client text base (programs overlap freely across tasks; only
/// libraries need globally consistent placement). The value lives in
/// the analysis crate so the static manifest derivation and the server
/// cannot drift.
pub const CLIENT_TEXT_BASE: u32 = omos_analysis::manifest::CLIENT_TEXT_BASE;
/// Default client data base, kept below the library data window.
pub const CLIENT_DATA_BASE: u32 = omos_analysis::manifest::CLIENT_DATA_BASE;

/// Shards for the eval and reply caches.
const CACHE_SHARDS: usize = 8;

/// Server-side counters: a view of the tracer's counters (see
/// [`Omos::stats`]).
///
/// `requests == reply_cache_hits + coalesced + replies_built` by
/// construction: every request is either answered from the reply
/// cache, coalesced onto another thread's in-flight build, or built by
/// a leader (a `dynamic_load` is a build it leads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Instantiation requests served.
    pub requests: u64,
    /// Requests answered entirely from the reply cache.
    pub reply_cache_hits: u64,
    /// Requests that coalesced onto a concurrent identical request
    /// (single-flight followers).
    pub coalesced: u64,
    /// Builds led: cache-missing reply builds started, and
    /// `dynamic_load` calls.
    pub replies_built: u64,
    /// Library images built (should stay near the number of distinct
    /// libraries in "the common case").
    pub libraries_built: u64,
    /// Program images built.
    pub programs_built: u64,
    /// Total server CPU spent, ns.
    pub cpu_ns: u64,
}

/// What the server hands back for an instantiation request: everything
/// the client must map.
#[derive(Debug, Clone)]
pub struct InstantiateReply {
    /// The program image.
    pub program: Arc<CachedImage>,
    /// Self-contained shared libraries to map alongside it.
    pub libraries: Vec<Arc<CachedImage>>,
    /// Server CPU consumed by this request — the total *work*, billed
    /// to the client and identical at every `eval_jobs` setting.
    pub server_ns: u64,
    /// Simulated wall-clock latency of this request: above one
    /// simulated lane, the critical path of the work-unit/link schedule
    /// rather than the work sum. Equals `server_ns` when
    /// `eval_jobs` is 1 (and on cache hits).
    pub latency_ns: u64,
    /// True if the reply came from cache or from another request's
    /// in-flight build (single-flight followers did no link work).
    pub cache_hit: bool,
    /// Trace request id this reply was served under (0 when tracing is
    /// disabled). Spans in [`Omos::trace_snapshot`] attribute by it.
    pub req: u64,
    /// Hash of the canonical [`ResolutionManifest`] this reply commits
    /// to: which library provides each symbol, where everything is
    /// placed, and the image keys. Every built reply has one, monitored
    /// ones included.
    pub manifest: ContentHash,
}

impl InstantiateReply {
    /// Total pages the client will map.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.program.frames.total_pages()
            + self
                .libraries
                .iter()
                .map(|l| l.frames.total_pages())
                .sum::<u64>()
    }

    /// The physical reply shape for transport billing: copying
    /// transports marshal a fixed header plus per-page handles; mapped
    /// transports grant one content-keyed descriptor per image instead.
    #[must_use]
    pub fn reply_shape(&self) -> ReplyShape {
        let images = std::iter::once(&self.program)
            .chain(self.libraries.iter())
            .map(|img| ImageDescriptor {
                key: img.key.0,
                epoch: img.epoch,
                pages: img.frames.total_pages(),
            })
            .collect();
        ReplyShape::with_images(256 + 32 * self.total_pages(), images)
    }
}

/// A cached full reply. `pub(crate)` so the persistence layer can write
/// reply rows into a checkpoint and install them back on restore; the
/// reply cache keeps its dependency record beside it.
#[derive(Debug)]
pub(crate) struct ReplyEntry {
    pub(crate) reply: InstantiateReply,
    /// The blueprint the reply answers — persisted so a restore can
    /// re-derive the resolution statically and verify it.
    pub(crate) blueprint: Arc<Blueprint>,
    /// The sealed canonical resolution-manifest frame.
    pub(crate) manifest: Arc<Vec<u8>>,
}

/// One registered `lib-dynamic` implementation. The build slot doubles
/// as the per-library single-flight: the first `dyn_lookup` holds it
/// while placing and linking, concurrent lookups block and reuse.
#[derive(Debug)]
struct DynamicLib {
    key: ContentHash,
    module: Module,
    built: Mutex<Option<BuiltDyn>>,
}

#[derive(Debug)]
struct BuiltDyn {
    instance: Arc<CachedImage>,
    htab: FunctionHashTable,
}

/// Reply to a partial-image lookup.
#[derive(Debug)]
pub struct DynLookupReply {
    /// Resolved entry address.
    pub target: u32,
    /// Hash probes the lookup took.
    pub probes: u64,
    /// Frames to map if this is the process's first call into the
    /// library.
    pub frames: ImageFrames,
    /// Server CPU consumed (nonzero only when the instance had to be
    /// built).
    pub server_ns: u64,
    /// Content-addressed key of the built instance; mapped transports
    /// grant the image on it instead of copying handles.
    pub key: ContentHash,
    /// Cache-instance epoch of the built instance (mapped transports
    /// re-bill a grant whose epoch moved).
    pub epoch: u64,
}

/// The persistent linker/loader server.
///
/// # Examples
///
/// ```
/// use omos_core::Omos;
/// use omos_isa::assemble;
/// use omos_os::ipc::Transport;
/// use omos_os::CostModel;
///
/// let server = Omos::new(CostModel::hpux(), Transport::SysVMsg);
/// server.namespace.bind_object(
///     "/obj/hello.o",
///     assemble("hello.o", ".text\n.global _start\n_start: sys 0\n")?,
/// );
/// server
///     .namespace
///     .bind_blueprint("/bin/hello", "(merge /obj/hello.o)")?;
///
/// let first = server.instantiate("/bin/hello")?;
/// let second = server.instantiate("/bin/hello")?;
/// assert!(!first.cache_hit);
/// assert!(second.cache_hit, "bound images are a cache");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Omos {
    /// The exported hierarchical namespace.
    pub namespace: Namespace,
    /// Bound-image cache.
    pub images: ImageCache,
    /// Transport clients use to reach this server.
    pub transport: Transport,
    cost: CostModel,
    solver: Mutex<PlacementSolver>,
    eval_cache: DepCache<Module>,
    pub(crate) reply_cache: DepCache<ReplyEntry>,
    /// Reply builds in flight, by blueprint key; each result carries the
    /// namespace generation its leader started at.
    reply_flight: SingleFlight<ContentHash, (Result<InstantiateReply, OmosError>, u64)>,
    dynamic: RwLock<Vec<Arc<DynamicLib>>>,
    dynamic_keys: Mutex<HashMap<ContentHash, u32>>,
    preflight: AtomicBool,
    image_audit: AtomicBool,
    eval_jobs: AtomicUsize,
    tracer: Arc<Tracer>,
}

impl Omos {
    /// Starts a server with the given machine cost profile and client
    /// transport and an unbounded image cache.
    #[must_use]
    pub fn new(cost: CostModel, transport: Transport) -> Omos {
        Omos::with_image_budget(cost, transport, u64::MAX)
    }

    /// Starts a server whose image cache is capped at `budget` bytes
    /// (the paper's "disk space for caching multiple versions of large
    /// libraries could be significant" knob).
    #[must_use]
    pub fn with_image_budget(cost: CostModel, transport: Transport, budget: u64) -> Omos {
        Omos::with_image_cache(cost, transport, ImageCache::new(budget))
    }

    /// Starts a server around a pre-configured image cache — the knob
    /// for eviction policy, shard count, and a tier-2 spill store (the
    /// catalog bench builds its servers through this). The cache's
    /// tracer is replaced with the server's own.
    #[must_use]
    pub fn with_image_cache(cost: CostModel, transport: Transport, images: ImageCache) -> Omos {
        let tracer = Arc::new(Tracer::new());
        Omos {
            namespace: Namespace::new(),
            images: images.with_tracer(Arc::clone(&tracer)),
            transport,
            cost,
            solver: Mutex::new(PlacementSolver::new()),
            eval_cache: DepCache::new(CACHE_SHARDS),
            reply_cache: DepCache::new(CACHE_SHARDS),
            reply_flight: SingleFlight::new(),
            dynamic: RwLock::new(Vec::new()),
            dynamic_keys: Mutex::new(HashMap::new()),
            preflight: AtomicBool::new(false),
            image_audit: AtomicBool::new(false),
            eval_jobs: AtomicUsize::new(
                std::env::var("OMOS_EVAL_JOBS")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .filter(|&j| j >= 1)
                    .unwrap_or(1),
            ),
            tracer,
        }
    }

    /// Sets the number of simulated lanes a cold build is scheduled on.
    /// Every build plans the m-graph into a work-unit DAG and runs it,
    /// then places and links each library in turn, all on the
    /// requesting thread, and records the same timeline whatever
    /// `jobs` is. `jobs` (default 1, or the `OMOS_EVAL_JOBS`
    /// environment variable at construction) is the number of lanes the
    /// units and the library links are list-scheduled onto to compute
    /// [`InstantiateReply::latency_ns`]. Images, bills, manifests and
    /// spans are byte-identical at every width; only `latency_ns`
    /// changes.
    pub fn set_eval_jobs(&self, jobs: usize) {
        self.eval_jobs.store(jobs.max(1), Ordering::Relaxed);
    }

    /// Current number of simulated lanes (see [`Omos::set_eval_jobs`]).
    #[must_use]
    pub fn eval_jobs(&self) -> usize {
        self.eval_jobs.load(Ordering::Relaxed)
    }

    /// The server's tracer: clients (and benchmarks) record their IPC
    /// and mapping spans through it so they land on the same request
    /// timeline.
    #[must_use]
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Turns tracing on or off (on by default). Off, no request records
    /// spans or histogram samples or gets a request id; the counters
    /// behind [`Omos::stats`] and the trace snapshot count either way.
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Snapshots the trace state: counter families, per-stage latency
    /// histograms, and the retained span ring.
    #[must_use]
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// The server counters, read from the tracer (exact once the
    /// recording threads are quiet).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let c = self.tracer.counters();
        ServerStats {
            requests: c.requests,
            reply_cache_hits: c.reply_hits,
            coalesced: c.flight_coalesced,
            replies_built: c.replies_built,
            libraries_built: c.libraries_built,
            programs_built: c.programs_built,
            cpu_ns: c.cpu_ns,
        }
    }

    /// The global address-space constraint solver (one lock: placement
    /// must be globally consistent, and it is a tiny fraction of a
    /// cold build).
    pub fn solver(&self) -> MutexGuard<'_, PlacementSolver> {
        lock(&self.solver)
    }

    /// Enables (or disables) opt-in pre-flight analysis: every
    /// cache-missing instantiation is linted first, and analysis
    /// *errors* reject the request as [`OmosError::Preflight`] before
    /// any evaluation or linking work is spent. Warnings never block.
    ///
    /// Pre-flight lives here in the server rather than inside the
    /// evaluator because of crate layering: the analyzer consumes the
    /// blueprint crate's m-graph types, so the evaluator (in that same
    /// crate) cannot call back into it without a dependency cycle. The
    /// server sits above both and is the natural gate.
    pub fn set_preflight(&self, enabled: bool) {
        self.preflight.store(enabled, Ordering::Relaxed);
    }

    /// Turns the image audit on or off (off by default). With it on,
    /// every image the image cache serves to a build is first compared
    /// with a fresh, unbilled link of the same object under the same
    /// options, and a difference fails the request. It is the check the
    /// oracle suites run to show that an image key covers every input of
    /// its link; it costs a link per cache hit.
    pub fn set_image_audit(&self, enabled: bool) {
        self.image_audit.store(enabled, Ordering::Relaxed);
    }

    /// Lints the meta-object (or bare fragment) at `path` without
    /// instantiating anything.
    pub fn lint(&self, path: &str) -> Result<Vec<Diagnostic>, OmosError> {
        Ok(self.lint_blueprint(&self.blueprint_at(path)?.0))
    }

    /// The blueprint bound at `path` and its key: a meta-object's own
    /// (keyed when it was bound), or a bare fragment wrapped as a leaf.
    fn blueprint_at(&self, path: &str) -> Result<(Arc<Blueprint>, ContentHash), OmosError> {
        match self.namespace.lookup_keyed(path) {
            Some((Entry::Meta(bp), key)) => {
                let key = key.unwrap_or_else(|| bp.hash());
                Ok((bp, key))
            }
            Some((Entry::Object(_), _)) => {
                let bp = Blueprint::from_root(MNode::Leaf(path.to_string()));
                let key = bp.hash();
                Ok((Arc::new(bp), key))
            }
            None => Err(OmosError::NoSuchName(path.to_string())),
        }
    }

    /// Statically analyzes an arbitrary blueprint against this server's
    /// namespace. Never materializes views, never touches the caches.
    #[must_use]
    pub fn lint_blueprint(&self, bp: &Blueprint) -> Vec<Diagnostic> {
        let mut ctx = NamespaceLint(&self.namespace);
        analyze_blueprint(bp, &mut ctx)
    }

    /// The server's cost model.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Instantiates the meta-object (or bare fragment) at `path`.
    pub fn instantiate(&self, path: &str) -> Result<InstantiateReply, OmosError> {
        let (bp, key) = self.blueprint_at(path)?;
        self.request(&bp, key, Some(path))
    }

    /// Instantiates an arbitrary blueprint (the paper's "execution of
    /// arbitrary blueprints" dynamic-loading interface).
    pub fn instantiate_blueprint(&self, bp: &Blueprint) -> Result<InstantiateReply, OmosError> {
        self.request(&Arc::new(bp.clone()), bp.hash(), None)
    }

    /// Serves one instantiation: reply cache, then single-flight (the
    /// leader builds, concurrent identical requests coalesce). A stale
    /// reply is a miss like any other: its rebuild is the cold build,
    /// on a server whose caches still hold everything the rebind left
    /// untouched. `key` is `bp`'s hash.
    ///
    /// A request answers from the namespace as of its start, or later:
    /// a follower takes the leader's result only if the leader started
    /// at the follower's generation or after. Otherwise a bind may have
    /// finished in between, so it probes again (the leader's fresh entry
    /// revalidates against its own dependencies) and at worst leads a
    /// build of its own.
    fn request(
        &self,
        bp: &Arc<Blueprint>,
        key: ContentHash,
        root: Option<&str>,
    ) -> Result<InstantiateReply, OmosError> {
        let guard = self.tracer.begin_request(SpanKind::Request);
        let req = guard.req();
        let gen = self.namespace.generation();
        loop {
            if let Some(mut hit) = self.probe_reply(key, gen, true) {
                hit.req = req;
                return Ok(hit);
            }
            // Double-check inside the flight: a leader elected just after
            // a previous flight completed finds the fresh entry instead
            // of rebuilding. It repeats a probe that just missed, so it
            // counts a hit or a stale drop but not the miss again.
            let ((result, leader_gen), led) = self.reply_flight.run(key, || {
                self.tracer.flight(FlightRole::Leader, 0);
                let result = match self.probe_reply(key, gen, false) {
                    Some(hit) => Ok(hit),
                    None => self.build_reply(bp, root, key),
                };
                (result, gen)
            });
            if led {
                return result.map(|mut reply| {
                    reply.req = req;
                    reply
                });
            }
            if leader_gen < gen {
                continue;
            }
            return match result {
                Ok(mut reply) => {
                    // Followers share the leader's frames without doing
                    // link work of their own — from their side it is a
                    // cache hit, and their timeline is the wait for the
                    // leader's build.
                    self.tracer.flight(FlightRole::Coalesced, reply.server_ns);
                    reply.cache_hit = true;
                    reply.req = req;
                    Ok(reply)
                }
                Err(e) => {
                    self.tracer.flight(FlightRole::Coalesced, 0);
                    Err(e)
                }
            };
        }
    }

    /// Validated reply-cache probe: an entry whose dependency paths were
    /// touched after its derivation generation is dropped (lazy,
    /// key-selective invalidation) and answers as a miss. `now` is the
    /// namespace generation, read before the probe; a plain miss is
    /// counted only if `count_miss`.
    fn probe_reply(
        &self,
        key: ContentHash,
        now: u64,
        count_miss: bool,
    ) -> Option<InstantiateReply> {
        let entry = match self.reply_cache.probe(key, &self.namespace, now) {
            Ok(entry) => entry,
            Err(outcome) => {
                if count_miss || outcome != ProbeOutcome::Miss {
                    self.tracer.probe(CacheKind::Reply, outcome);
                }
                return None;
            }
        };
        let server_ns = self.cost.server_cached_request_ns;
        self.tracer.reply_hit(server_ns);
        let mut reply = entry.value.reply.clone();
        reply.server_ns = server_ns;
        reply.latency_ns = server_ns;
        reply.cache_hit = true;
        Some(reply)
    }

    /// Applies the blueprint's link policies to a fresh evaluation:
    /// deny screening over the program's references, then stub
    /// interposition (trampoline/audit) merged into the module — before
    /// any image key is computed, so a wrapped module gets a distinct
    /// key. Returns the simulated ns billed to the policy stage (one
    /// relocation-sized unit per wrapped entry point).
    fn apply_policies(&self, bp: &Blueprint, out: &mut EvalOutput) -> Result<u64, OmosError> {
        if bp.policies.is_empty() {
            return Ok(0);
        }
        let span = self.tracer.open(SpanKind::Policy);
        let (ns, result) = match apply_link_policies(bp, out) {
            Ok(o) => {
                self.tracer
                    .policy(o.trampolines.len() as u64, o.audits.len() as u64, false);
                let ns = o.wrapped() as u64 * self.cost.reloc_ns;
                (ns, Ok(ns))
            }
            Err(PolicyError::Denied(diags)) => {
                self.tracer.policy(0, 0, true);
                (0, Err(OmosError::Policy(diags)))
            }
            Err(PolicyError::Internal(e)) => (0, Err(OmosError::Client(e))),
        };
        self.tracer.close_leaf(span, Stage::Policy, ns);
        result
    }

    /// The eval step: the m-graph is planned into a work-unit DAG and
    /// run in order inside one Eval span, closed with the billed work.
    fn eval(&self, bp: &Blueprint, ctx: &ReqCtx<'_>) -> Result<Evaluated, OmosError> {
        let span = self.tracer.open(SpanKind::Eval);
        let evaluated = eval_blueprint_with_units(bp, ctx);
        let work_ns = evaluated
            .as_ref()
            .map_or(0, |p| eval_work_ns(&p.output.stats, &self.cost));
        self.tracer.close_leaf(span, Stage::Eval, work_ns);
        let p = evaluated?;
        // Units cost their simulated work (merge steps and source
        // compiles); pure view shuffles are free.
        let units = p
            .units
            .into_iter()
            .map(|u| {
                let ns = u.merges * self.cost.server_merge_ns
                    + u.source_compiles * self.cost.server_compile_ns;
                (ns, u.deps)
            })
            .collect();
        Ok(Evaluated {
            plan_ns: p.output.stats.nodes * self.cost.lookup_ns,
            out: p.output,
            work_ns,
            units,
        })
    }

    /// The one link pipeline, run by the leader of a cache-missing reply:
    /// pre-flight (if enabled), eval, policies, the library executor,
    /// the program link, the manifest, and the cached reply. Every reply
    /// is built here, whether it was never built, a rebind made it
    /// stale, or a restore dropped it. A rebuild reuses
    /// what the rebind left untouched through the ordinary caches: the
    /// solver returns the known placement of an unchanged library, and
    /// the image cache then holds its image under the same key.
    fn build_reply(
        &self,
        bp: &Arc<Blueprint>,
        root: Option<&str>,
        key: ContentHash,
    ) -> Result<InstantiateReply, OmosError> {
        // Baseline handling opens the timeline of every build led, a
        // pre-flight rejection included.
        let base_ns = self.cost.server_cached_request_ns;
        self.tracer.begin_build(base_ns);
        if self.preflight.load(Ordering::Relaxed) {
            let errors: Vec<Diagnostic> = self
                .lint_blueprint(bp)
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            if !errors.is_empty() {
                return Err(OmosError::Preflight(errors));
            }
        }
        // Snapshot the generation *before* resolving anything: a bind
        // racing this build lands after the snapshot and invalidates
        // the entry on its next lookup.
        let ctx = ReqCtx::for_reply(self, bp);
        let Evaluated {
            mut out,
            work_ns: eval_ns,
            plan_ns,
            units,
        } = self.eval(bp, &ctx)?;
        let policy_ns = self.apply_policies(bp, &mut out)?;

        let libs = self.link_libraries(&out.libraries, HashMap::new())?;
        let (program, client, prog_ns) = self.link_program(&out, &libs)?;
        let links_ns = libs.links.iter().sum::<u64>();
        let server_ns = base_ns + eval_ns + policy_ns + links_ns + prog_ns;
        // The lane model: planning, policy application (it rewrites the
        // single program module) and the program link are serial; the
        // work units and the library links are list-scheduled onto
        // `eval_jobs` lanes. At one lane this is `server_ns`.
        let lanes = self.eval_jobs();
        let units = units.iter().map(|(ns, deps)| (*ns, &deps[..]));
        let links = libs.links.iter().map(|&ns| (ns, &[][..]));
        let latency_ns = base_ns
            + plan_ns
            + schedule(units, lanes)
            + policy_ns
            + schedule(links, lanes)
            + prog_ns;

        let (manifest_hash, frame) = self
            .manifest_from_actuals(bp, &out, &libs, &program, client)
            .hash_and_encode();
        let avoided_ns = libs.avoided_ns + if prog_ns == 0 { program.rebuild_ns } else { 0 };
        let linked = libs.images.len() as u64 - libs.reused;
        self.tracer
            .built(server_ns, libs.reused, linked, avoided_ns);
        let reply = InstantiateReply {
            program,
            libraries: libs.images,
            server_ns,
            latency_ns,
            cache_hit: false,
            req: 0, // attributed by `request`
            manifest: manifest_hash,
        };
        self.cache_reply(key, &reply, ctx.gen, out.deps, root, bp, frame);
        Ok(reply)
    }

    /// Derives the resolution `out` (evaluated, policies applied) links
    /// to, with no link run. Every library is placed on the live solver
    /// inside one [`PlacementSolver::trial`], which rolls back before
    /// the lock is released; the layout pass then runs unlocked.
    fn derive(&self, bp: &Blueprint, out: &EvalOutput) -> Result<ResolutionManifest, OmosError> {
        let objects = materialize_libraries(out).map_err(OmosError::Client)?;
        let bases = self
            .solver()
            .trial(|solver| place_libraries(out, &objects, solver))
            .map_err(OmosError::Client)?;
        manifest_of_placed(bp, out, &objects, &bases).map_err(OmosError::Client)
    }

    /// The library executor: runs over `libs` in resolution order,
    /// folding each library's exports into `externs` left to right ("all
    /// definitions of variables must be made in the library furthest
    /// downstream"). Each library is placed and then linked in turn, so
    /// a library that cannot link stops the pass before the next is
    /// placed. Each library's placement, image probe, link and frame
    /// nest under one library-build span.
    fn link_libraries(
        &self,
        libs: &[LibraryUse],
        mut externs: HashMap<String, u32>,
    ) -> Result<Libraries, OmosError> {
        let mut images = Vec::with_capacity(libs.len());
        let mut bases = Vec::with_capacity(libs.len());
        let mut links = Vec::new();
        let (mut reused, mut avoided_ns) = (0, 0);
        for lib in libs {
            let span = self.tracer.open(SpanKind::LibraryBuild);
            let step = self.place_library(lib, &externs);
            self.tracer.close(span);
            let (at, img, ns) = step?;
            fold_exports(&mut externs, &img.image.symbols);
            if ns == 0 {
                // Served by the image cache: the link work a cold server
                // would pay for this image (the simulation is
                // deterministic, so it is the recorded cost).
                reused += 1;
                avoided_ns += img.rebuild_ns;
            } else {
                links.push(ns);
            }
            images.push(img);
            bases.push(at);
        }
        Ok(Libraries {
            images,
            bases,
            externs,
            links,
            reused,
            avoided_ns,
        })
    }

    /// Places one library with the constraint solver and computes its
    /// bound-image key from the bindings of `externs` it reads — the only
    /// place either happens — then gets its image ([`Omos::image`]).
    /// Returns the bases, the image and the link work paid.
    fn place_library(
        &self,
        lib: &LibraryUse,
        externs: &HashMap<String, u32>,
    ) -> Result<PlacedLibrary, OmosError> {
        let obj = lib.module.view().object().map_err(OmosError::Obj)?;
        // Placement is get-or-reuse per (name, key): concurrent callers
        // for the same library receive the same bases. The span's cost
        // is metered (one lookup per segment) but unbilled: placement
        // state is global, its cost amortized across all clients.
        let span = self.tracer.open(SpanKind::Placement);
        let placement = self.solver().place(&library_placement(lib, &obj), &[]);
        let place_ns = placement
            .as_ref()
            .map_or(0, |p| p.allocations.len() as u64 * self.cost.lookup_ns);
        self.tracer.close_leaf(span, Stage::Placement, place_ns);
        let placement = placement?;
        let bases = (
            placement.allocations[0].base as u32,
            placement.allocations[1].base as u32,
        );
        let read = read_externs(&obj, externs);
        let image_key = library_image_key(lib.key, bases, &read);
        let opts = || LinkOptions {
            externs: owned(&read),
            ..LinkOptions::library(&lib.name, bases.0, bases.1)
        };
        let (img, ns) = self.image(image_key, || Ok(Cow::Borrowed(&*obj)), opts)?;
        Ok((bases, img, ns))
    }

    /// Links the client program against the libraries, or fetches it by
    /// image key — the only place a program is linked. The key reads the
    /// program's relocation targets from [`omos_obj::View::skeleton`],
    /// which copies no section bytes, so a cached program is served
    /// without materializing a pending view.
    fn link_program(&self, out: &EvalOutput, libs: &Libraries) -> Result<ProgramBuild, OmosError> {
        let bases = client_bases(&out.constraints);
        let view = out.module.view();
        let read = read_externs(&*view.skeleton()?, &libs.externs);
        let image_key = program_image_key(out.module.content_hash(), bases, &read);
        let opts = || LinkOptions {
            name: format!("<program:{image_key}>"),
            text_base: bases.0,
            data_base: bases.1,
            externs: owned(&read),
            ..LinkOptions::program("program")
        };
        let (img, ns) = self.image(image_key, || view.object(), opts)?;
        Ok((img, bases, ns))
    }

    /// The image under `image_key`: the cached one, else `obj` linked
    /// under `opts` once, however many requests ask for it meanwhile.
    /// With the image audit on ([`Omos::set_image_audit`]), a cached
    /// image is first checked against a fresh link. Returns the image
    /// and the link work paid (0 when cached).
    fn image<'o>(
        &self,
        image_key: ContentHash,
        obj: impl Fn() -> Result<Cow<'o, ObjectFile>, ObjError>,
        opts: impl Fn() -> LinkOptions,
    ) -> Result<(Arc<CachedImage>, u64), OmosError> {
        if let Some(img) = self.images.get(image_key) {
            if self.image_audit.load(Ordering::Relaxed) {
                audit_image(&img, &*obj()?, &opts())?;
            }
            return Ok((img, 0));
        }
        self.images
            .link_once(image_key, || self.build_image(image_key, &*obj()?, &opts()))
    }

    /// Links and frames one image, not yet cached, with its link work,
    /// and counts it as a library or program build.
    fn build_image(
        &self,
        image_key: ContentHash,
        obj: &ObjectFile,
        opts: &LinkOptions,
    ) -> Result<(CachedImage, u64), OmosError> {
        let span = self.tracer.open(SpanKind::Link);
        let linked = link(std::slice::from_ref(obj), opts);
        let ns = linked
            .as_ref()
            .map_or(0, |l| link_work_ns(&l.stats, &self.cost));
        self.tracer.close_leaf(span, Stage::Link, ns);
        let linked = linked?;
        self.tracer.image_built(opts.entry.is_none());
        let img = CachedImage {
            key: image_key,
            frames: self.framed(&linked.image),
            image: linked.image,
            link_stats: linked.stats,
            rebuild_ns: ns,
            epoch: 0,
        };
        Ok((img, ns))
    }

    /// Builds the resolution manifest from what the build *actually*
    /// produced: placed bases from the solver, export addresses from
    /// the bound images, image keys from the cache entries, and the
    /// interpositions `out`'s modules recorded as they were evaluated.
    /// The statically derived manifest ([`Omos::derive`]) must agree
    /// byte-for-byte — the differential tests compare the two with
    /// [`divergence`](omos_analysis::manifest::divergence).
    fn manifest_from_actuals(
        &self,
        bp: &Blueprint,
        out: &EvalOutput,
        libs: &Libraries,
        program: &CachedImage,
        (text_base, data_base): (u32, u32),
    ) -> ResolutionManifest {
        let rows = out
            .libraries
            .iter()
            .zip(&libs.images)
            .zip(&libs.bases)
            .map(|((u, img), &(text_base, data_base))| LibraryResolution {
                name: u.name.clone(),
                key: u.key,
                text_base,
                data_base,
                image_key: img.key,
            })
            .collect();
        assemble_manifest(
            bp,
            interpositions_of(out),
            rows,
            libs.images.iter().map(|img| &img.image.symbols),
            ProgramResolution {
                text_base,
                data_base,
                image_key: program.key,
            },
            &program.image.symbols,
        )
    }

    /// The canonical resolution manifest for an arbitrary blueprint,
    /// derived statically — the m-graph is evaluated (view algebra
    /// only), placement is replayed on the live solver inside a trial
    /// that leaves it unchanged, and export addresses come from the
    /// linker's layout pass. No link is executed and no image bytes are
    /// produced.
    pub fn explain_blueprint(&self, bp: &Blueprint) -> Result<ResolutionManifest, OmosError> {
        let out = eval_with_policies(bp, &ReqCtx::new(self)).map_err(OmosError::Client)?;
        self.derive(bp, &out)
    }

    /// [`Omos::explain_blueprint`] for the meta-object (or bare
    /// fragment) bound at `path`.
    pub fn explain(&self, path: &str) -> Result<ResolutionManifest, OmosError> {
        self.explain_blueprint(&self.blueprint_at(path)?.0)
    }

    /// Caches a freshly built reply, with its sealed manifest `frame`,
    /// under its blueprint key. The dependency record is the
    /// evaluator's own (every path the evaluation resolved), plus the
    /// root path the request named.
    #[allow(clippy::too_many_arguments)]
    fn cache_reply(
        &self,
        key: ContentHash,
        reply: &InstantiateReply,
        gen: u64,
        mut deps: BTreeSet<String>,
        root: Option<&str>,
        bp: &Arc<Blueprint>,
        frame: Vec<u8>,
    ) {
        if let Some(p) = root {
            deps.insert(p.to_string());
        }
        let entry = ReplyEntry {
            reply: reply.clone(),
            blueprint: Arc::clone(bp),
            manifest: Arc::new(frame),
        };
        self.reply_cache.insert(key, entry, Arc::new(deps), gen);
    }

    /// Frames an image, recording a metered (but unbilled) Frame span:
    /// framing cost is amortized across every client that maps the
    /// image, so it appears on the trace timeline without inflating any
    /// single reply's `server_ns`. It costs one page mapping per page.
    fn framed(&self, image: &omos_link::LinkedImage) -> ImageFrames {
        let span = self.tracer.open(SpanKind::Frame);
        let frames = ImageFrames::from_image(image);
        let ns = frames.total_pages() * self.cost.map_page_ns;
        self.tracer.close_leaf(span, Stage::Frame, ns);
        frames
    }

    /// Registers (or finds) a `lib-dynamic` implementation.
    fn register_dynamic(&self, key: ContentHash, module: &Module) -> u32 {
        let mut keys = lock(&self.dynamic_keys);
        if let Some(&id) = keys.get(&key) {
            return id;
        }
        let mut libs = self.dynamic.write().unwrap_or_else(PoisonError::into_inner);
        let id = libs.len() as u32;
        libs.push(Arc::new(DynamicLib {
            key,
            module: module.clone(),
            built: Mutex::new(None),
        }));
        keys.insert(key, id);
        id
    }

    /// Number of registered `lib-dynamic` implementations.
    #[must_use]
    pub fn dynamic_lib_count(&self) -> usize {
        self.dynamic
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Serves a partial-image stub's `OMOS_LOOKUP`: builds the library
    /// instance on first demand, then resolves `name` through the
    /// function hash table. The per-library build slot makes the first
    /// build single-flight: concurrent lookups block briefly and reuse.
    pub fn dyn_lookup(&self, lib_id: u32, name: &str) -> Result<DynLookupReply, OmosError> {
        let _guard = self.tracer.begin_request(SpanKind::DynLookup);
        let lib = {
            let libs = self.dynamic.read().unwrap_or_else(PoisonError::into_inner);
            libs.get(lib_id as usize)
                .cloned()
                .ok_or(OmosError::NoSuchLibrary(lib_id))?
        };
        let mut slot = lock(&lib.built);
        let mut server_ns = 0;
        let b = match &mut *slot {
            Some(b) => b,
            empty => {
                let lib_use = LibraryUse {
                    name: format!("<dynamic:{lib_id}>"),
                    key: lib.key,
                    module: lib.module.clone(),
                    constraints: Vec::new(),
                };
                let libs = std::slice::from_ref(&lib_use);
                let built = self.link_libraries(libs, HashMap::new())?;
                server_ns = built.links.iter().sum();
                let instance = built.images.into_iter().next().ok_or_else(|| {
                    OmosError::Client(format!("dynamic lib {lib_id} linked no image"))
                })?;
                let entries: Vec<(String, u32)> = instance
                    .image
                    .symbols
                    .iter()
                    .map(|(s, a)| (s.clone(), *a))
                    .collect();
                self.tracer.built(server_ns, 0, 0, 0);
                empty.insert(BuiltDyn {
                    htab: FunctionHashTable::build(&entries),
                    instance,
                })
            }
        };
        let (target, probes) = b
            .htab
            .lookup(name)
            .ok_or_else(|| OmosError::Client(format!("`{name}` not in dynamic lib {lib_id}")))?;
        Ok(DynLookupReply {
            target,
            probes: u64::from(probes),
            frames: b.instance.frames.clone(),
            server_ns,
            key: b.instance.key,
            epoch: b.instance.epoch,
        })
    }
}

/// [`LintContext`] over the server namespace: read-only resolution, a
/// missing name is a finding rather than an abort. Public so a caller
/// can run the analyzer against a live namespace, as the oracle tests
/// do.
pub struct NamespaceLint<'a>(pub &'a Namespace);

impl LintContext for NamespaceLint<'_> {
    fn resolve(&mut self, path: &str) -> LintResolved {
        match self.0.lookup(path) {
            Some(Entry::Object(o)) => LintResolved::Object(o),
            Some(Entry::Meta(m)) => LintResolved::Meta((*m).clone()),
            None => LintResolved::Missing,
        }
    }
}

/// Request-local [`EvalContext`]: resolves through the shared
/// namespace and reads/writes the server's dependency-tracked eval
/// cache.
///
/// Dependency *recording* lives in the evaluator itself — it owns the
/// subtree scopes and hands `cache_put` each cached subtree's precise
/// record (a subtree shared by two programs does not drag one program's
/// private dependencies into the other's reply). That keeps this
/// context a plain `&self` view of the server's shared caches.
pub(crate) struct ReqCtx<'a> {
    server: &'a Omos,
    /// Namespace generation when the request started.
    gen: u64,
    /// A key `cache_put` does not publish, so `cache_get` does not probe
    /// it: a program's root, which the reply cache already holds as its
    /// linked image.
    unpublished: Option<ContentHash>,
}

impl<'a> ReqCtx<'a> {
    pub(crate) fn new(server: &'a Omos) -> ReqCtx<'a> {
        ReqCtx {
            server,
            gen: server.namespace.generation(),
            unpublished: None,
        }
    }

    /// The context of a reply build for `bp`. Its root module is not
    /// published to the eval cache unless `bp` is library-class (has a
    /// constraint-list): the reply cache keeps the program once, as its
    /// reply, under dependencies that contain the root's. Sub-nodes,
    /// meta-objects and libraries are published as usual.
    fn for_reply(server: &'a Omos, bp: &Blueprint) -> ReqCtx<'a> {
        ReqCtx {
            unpublished: bp.constraints.is_empty().then(|| bp.root.hash()),
            ..ReqCtx::new(server)
        }
    }
}

impl EvalContext for ReqCtx<'_> {
    fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError> {
        match self.server.namespace.lookup(path) {
            Some(Entry::Object(o)) => Ok(ResolvedNode::Object(o)),
            Some(Entry::Meta(m)) => Ok(ResolvedNode::Meta((*m).clone())),
            None => Err(EvalError::Resolve(path.to_string())),
        }
    }

    fn cache_get(&self, key: ContentHash) -> Option<CachedEval> {
        if self.unpublished == Some(key) {
            return None;
        }
        let s = self.server;
        let found = s.eval_cache.probe(key, &s.namespace, self.gen);
        s.tracer.probe(
            CacheKind::Eval,
            found.as_ref().err().copied().unwrap_or(ProbeOutcome::Hit),
        );
        found.ok().map(|entry| CachedEval {
            module: entry.value.clone(),
            deps: Arc::clone(&entry.deps),
        })
    }

    fn cache_put(&self, key: ContentHash, module: &Module, deps: &Arc<BTreeSet<String>>) {
        if self.unpublished == Some(key) {
            return;
        }
        self.server
            .eval_cache
            .insert(key, module.clone(), Arc::clone(deps), self.gen);
    }

    fn register_dynamic_impl(&self, key: ContentHash, module: &Module) -> Result<u32, EvalError> {
        Ok(self.server.register_dynamic(key, module))
    }
}

/// A linked (or fetched) program: the image, its client bases, and the
/// link work paid.
type ProgramBuild = (Arc<CachedImage>, (u32, u32), u64);

/// A placed library: its (text, data) bases, its image, and the link
/// work paid.
type PlacedLibrary = ((u32, u32), Arc<CachedImage>, u64);

/// An evaluation with its billed work and the shape the lane model
/// schedules: the serial planning share of that work, and each work
/// unit's duration and dependencies.
struct Evaluated {
    out: EvalOutput,
    work_ns: u64,
    plan_ns: u64,
    units: Vec<(u64, Vec<usize>)>,
}

/// What the library executor assembled, in resolution order.
struct Libraries {
    images: Vec<Arc<CachedImage>>,
    /// Placed (text, data) bases.
    bases: Vec<(u32, u32)>,
    /// The extern environment every library folded into.
    externs: HashMap<String, u32>,
    /// The link work of each library the executor linked, in order.
    links: Vec<u64>,
    /// Libraries the image cache served, and the link work they skipped.
    reused: u64,
    avoided_ns: u64,
}

/// Deterministic greedy list schedule onto `lanes` identical simulated
/// workers: items in order, each a `(duration, dependencies)` pair
/// placed on the lane that lets it start earliest, ties to the lowest
/// lane. Returns the makespan: the simulated critical path.
fn schedule<'a>(items: impl IntoIterator<Item = (u64, &'a [usize])>, lanes: usize) -> u64 {
    let mut lane_free = vec![0u64; lanes.max(1)];
    let mut finish = Vec::new();
    for (dur, deps) in items {
        let ready = deps.iter().map(|&d| finish[d]).max().unwrap_or(0);
        let best = (0..lane_free.len())
            .min_by_key(|&l| lane_free[l].max(ready))
            .unwrap_or(0);
        lane_free[best] = lane_free[best].max(ready) + dur;
        finish.push(lane_free[best]);
    }
    finish.into_iter().max().unwrap_or(0)
}

/// Folds a library's exports into the extern environment: the first
/// definition wins.
fn fold_exports(externs: &mut HashMap<String, u32>, exports: &HashMap<String, u32>) {
    for (s, a) in exports {
        externs.entry(s.clone()).or_insert(*a);
    }
}

/// An extern map holding just `read`: the link options of an image
/// keyed by those bindings.
fn owned(read: &[(&str, u32)]) -> HashMap<String, u32> {
    read.iter()
        .map(|&(name, addr)| (name.to_owned(), addr))
        .collect()
}

/// The image audit ([`Omos::set_image_audit`]): `img`, served by the
/// image cache, against a fresh link of `obj` under `opts`.
fn audit_image(img: &CachedImage, obj: &ObjectFile, opts: &LinkOptions) -> Result<(), OmosError> {
    let fresh = link(std::slice::from_ref(obj), opts)?;
    if fresh.image == img.image && fresh.stats == img.link_stats {
        Ok(())
    } else {
        Err(OmosError::Client(format!(
            "image audit: the cached image under {} is not a fresh link of `{}`",
            img.key, opts.name
        )))
    }
}

pub(crate) fn link_work_ns(s: &LinkStats, cost: &CostModel) -> u64 {
    s.symbols_resolved * cost.lookup_ns
        + s.relocs_applied * cost.reloc_ns
        + s.bytes_copied * cost.link_byte_ns
        + s.externs_bound * cost.lookup_ns
}

fn eval_work_ns(s: &EvalStats, cost: &CostModel) -> u64 {
    s.nodes * cost.lookup_ns
        + s.merges * cost.server_merge_ns
        + s.source_compiles * cost.server_compile_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_isa::assemble;

    fn server() -> Omos {
        let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
        s.namespace.bind_object(
            "/obj/hello.o",
            assemble(
                "hello.o",
                ".text\n.global _start\n_start: call _puts\n sys 0\n",
            )
            .unwrap(),
        );
        s.namespace.bind_object(
            "/libc/stdio.o",
            assemble("stdio.o", ".text\n.global _puts\n_puts: li r1, 7\n ret\n").unwrap(),
        );
        s.namespace
            .bind_blueprint(
                "/lib/libc",
                "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge /libc/stdio.o)",
            )
            .unwrap();
        s.namespace
            .bind_blueprint("/bin/hello", "(merge /obj/hello.o /lib/libc)")
            .unwrap();
        s
    }

    #[test]
    fn instantiate_builds_program_and_library() {
        let s = server();
        let reply = s.instantiate("/bin/hello").unwrap();
        assert!(!reply.cache_hit);
        assert_eq!(reply.libraries.len(), 1);
        assert!(reply.program.image.entry.is_some());
        // The library landed at its preferred address.
        let lib_text = reply.libraries[0]
            .image
            .segments
            .iter()
            .find(|seg| seg.kind == SectionKind::Text)
            .unwrap();
        assert_eq!(lib_text.vaddr, 0x0100_0000);
        // The client's call to _puts is bound into the library.
        assert_eq!(reply.libraries[0].image.find("_puts"), Some(0x0100_0000));
        assert_eq!(s.stats().libraries_built, 1);
        assert_eq!(s.stats().programs_built, 1);
    }

    #[test]
    fn hits_revalidate_only_after_a_bind() {
        let s = server();
        s.instantiate("/bin/hello").unwrap();
        let (_, key) = s.blueprint_at("/bin/hello").unwrap();
        let g0 = s.namespace.generation();
        let (_, reply) = s
            .reply_cache
            .valid_entries(&s.namespace)
            .into_iter()
            .find(|(k, _)| *k == key)
            .unwrap();
        let (_, obj) = s
            .eval_cache
            .valid_entries(&s.namespace)
            .into_iter()
            .find(|(_, e)| e.deps.contains("/obj/hello.o"))
            .expect("the program's object is cached");
        assert_eq!((reply.validated(), obj.validated()), (g0, g0));
        assert!(s.instantiate("/bin/hello").unwrap().cache_hit);
        // An unrelated bind moves the generation: the next hit walks the
        // dependencies once and records the generation it read.
        s.namespace
            .bind_blueprint("/bin/other", "(merge /lib/libc /obj/hello.o)")
            .unwrap();
        let g1 = s.namespace.generation();
        assert!(g1 > g0);
        assert!(s.instantiate("/bin/hello").unwrap().cache_hit);
        assert_eq!(reply.validated(), g1);
        // A build of another program that links the same object hits its
        // eval entry the same way.
        let eval_hits = s.trace_snapshot().counters.eval_hits;
        assert!(!s.instantiate("/bin/other").unwrap().cache_hit);
        assert_eq!(obj.validated(), g1);
        let c = s.trace_snapshot().counters;
        assert!(c.eval_hits > eval_hits);
        assert_eq!((c.eval_stale, c.reply_stale), (0, 0));
        // A dependency's rebind still invalidates.
        s.namespace
            .bind_blueprint(
                "/lib/libc",
                "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge /libc/stdio.o)",
            )
            .unwrap();
        assert!(!s.instantiate("/bin/hello").unwrap().cache_hit);
    }

    #[test]
    fn lint_walks_the_namespace_without_instantiating() {
        let s = server();
        assert!(s.lint("/bin/hello").unwrap().is_empty());
        s.namespace
            .bind_blueprint("/bin/broken", "(merge /obj/hello.o /nope)")
            .unwrap();
        let diags = s.lint("/bin/broken").unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "OM001");
        assert_eq!(s.stats().programs_built, 0, "lint builds nothing");
        assert!(matches!(
            s.lint("/no/such/path"),
            Err(OmosError::NoSuchName(_))
        ));
    }

    #[test]
    fn preflight_rejects_errors_before_any_work() {
        let s = server();
        s.set_preflight(true);
        s.namespace
            .bind_blueprint("/bin/broken", "(merge /obj/hello.o /nope)")
            .unwrap();
        match s.instantiate("/bin/broken") {
            Err(OmosError::Preflight(diags)) => {
                assert_eq!(diags.len(), 1);
                assert_eq!(diags[0].code, "OM001");
            }
            other => panic!("expected preflight rejection, got {other:?}"),
        }
        assert_eq!(s.stats().programs_built, 0, "rejected before eval/link");
        // Clean blueprints still instantiate, warnings don't block.
        assert!(s.instantiate("/bin/hello").is_ok());
    }

    #[test]
    fn tiny_image_budget_with_parallel_link_is_not_a_panic() {
        // Regression: with an image budget too small to keep anything
        // resident, the link path above one lane used to re-probe the cache
        // for an image it had just inserted (and the cache had already
        // evicted) and panicked on the missing entry. Linked images
        // must flow to the reply directly, not via a cache round-trip.
        let s = Omos::with_image_budget(CostModel::hpux(), Transport::SysVMsg, 1);
        s.set_eval_jobs(2);
        s.namespace.bind_object(
            "/obj/main.o",
            assemble(
                "main.o",
                ".text\n.global _start\n_start: call _a\n call _b\n sys 0\n",
            )
            .unwrap(),
        );
        s.namespace.bind_object(
            "/liba/a.o",
            assemble("a.o", ".text\n.global _a\n_a: li r1, 1\n ret\n").unwrap(),
        );
        s.namespace.bind_object(
            "/libb/b.o",
            assemble("b.o", ".text\n.global _b\n_b: li r1, 2\n ret\n").unwrap(),
        );
        s.namespace
            .bind_blueprint(
                "/lib/a",
                "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge /liba/a.o)",
            )
            .unwrap();
        s.namespace
            .bind_blueprint(
                "/lib/b",
                "(constraint-list \"T\" 0x2000000 \"D\" 0x42000000)\n(merge /libb/b.o)",
            )
            .unwrap();
        s.namespace
            .bind_blueprint("/bin/two", "(merge /obj/main.o /lib/a /lib/b)")
            .unwrap();
        let reply = s.instantiate("/bin/two").unwrap();
        assert_eq!(reply.libraries.len(), 2);
        assert!(reply.program.image.entry.is_some());
    }

    #[test]
    fn second_instantiation_is_a_cache_hit() {
        let s = server();
        let first = s.instantiate("/bin/hello").unwrap();
        let second = s.instantiate("/bin/hello").unwrap();
        assert!(second.cache_hit);
        assert!(second.server_ns < first.server_ns);
        assert_eq!(s.stats().reply_cache_hits, 1);
        assert_eq!(s.stats().libraries_built, 1, "library built once");
        assert!(
            Arc::ptr_eq(&first.program, &second.program),
            "same physical frames"
        );
    }

    #[test]
    fn two_programs_share_one_library_instance() {
        let s = server();
        s.namespace.bind_object(
            "/obj/other.o",
            assemble(
                "other.o",
                ".text\n.global _start\n_start: call _puts\n call _puts\n sys 0\n",
            )
            .unwrap(),
        );
        s.namespace
            .bind_blueprint("/bin/other", "(merge /obj/other.o /lib/libc)")
            .unwrap();
        let a = s.instantiate("/bin/hello").unwrap();
        let b = s.instantiate("/bin/other").unwrap();
        assert!(Arc::ptr_eq(&a.libraries[0], &b.libraries[0]));
        assert_eq!(s.stats().libraries_built, 1);
    }

    #[test]
    fn rebinding_invalidates_replies() {
        let s = server();
        let first = s.instantiate("/bin/hello").unwrap();
        // Rebind the libc fragment: _puts now returns 9.
        s.namespace.bind_object(
            "/libc/stdio.o",
            assemble("stdio.o", ".text\n.global _puts\n_puts: li r1, 9\n ret\n").unwrap(),
        );
        let second = s.instantiate("/bin/hello").unwrap();
        assert!(!second.cache_hit, "stale reply must not be served");
        assert_ne!(
            first.libraries[0].image.content_hash(),
            second.libraries[0].image.content_hash()
        );
    }

    #[test]
    fn unrelated_binds_leave_replies_cached() {
        let s = server();
        let _ = s.instantiate("/bin/hello").unwrap();
        // A bind that /bin/hello never resolved must not evict it.
        s.namespace.bind_object(
            "/scratch/unrelated.o",
            assemble("u.o", ".text\nnop\n").unwrap(),
        );
        let second = s.instantiate("/bin/hello").unwrap();
        assert!(second.cache_hit, "selective invalidation keeps the reply");
        assert_eq!(s.stats().replies_built, 1);
    }

    #[test]
    fn missing_name_and_bad_reference() {
        let s = server();
        assert!(matches!(
            s.instantiate("/bin/nope"),
            Err(OmosError::NoSuchName(_))
        ));
        s.namespace
            .bind_blueprint("/bin/broken", "(merge /no/such.o)")
            .unwrap();
        assert!(matches!(
            s.instantiate("/bin/broken"),
            Err(OmosError::Eval(_))
        ));
    }

    #[test]
    fn instantiate_bare_object() {
        let s = server();
        s.namespace.bind_object(
            "/obj/solo.o",
            assemble("solo.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
        );
        let reply = s.instantiate("/obj/solo.o").unwrap();
        assert!(reply.program.image.entry.is_some());
        assert!(reply.libraries.is_empty());
    }

    #[test]
    fn dyn_lookup_builds_once_then_resolves() {
        let s = server();
        s.namespace
            .bind_blueprint(
                "/bin/dyn",
                r#"(merge /obj/hello.o (specialize "lib-dynamic" /libc/stdio.o))"#,
            )
            .unwrap();
        let _ = s.instantiate("/bin/dyn").unwrap();
        assert_eq!(s.dynamic_lib_count(), 1);
        let r1 = s.dyn_lookup(0, "_puts").unwrap();
        assert!(r1.server_ns > 0, "first lookup builds the instance");
        let r2 = s.dyn_lookup(0, "_puts").unwrap();
        assert_eq!(r2.server_ns, 0, "instance cached");
        assert_eq!(r1.target, r2.target);
        assert!(s.dyn_lookup(0, "_missing").is_err());
        assert!(matches!(
            s.dyn_lookup(9, "_puts"),
            Err(OmosError::NoSuchLibrary(9))
        ));
    }

    #[test]
    fn program_with_undefined_reference_fails_to_link() {
        let s = server();
        s.namespace.bind_object(
            "/obj/bad.o",
            assemble(
                "bad.o",
                ".text\n.global _start\n_start: call _nowhere\n sys 0\n",
            )
            .unwrap(),
        );
        s.namespace
            .bind_blueprint("/bin/bad", "(merge /obj/bad.o)")
            .unwrap();
        assert!(matches!(s.instantiate("/bin/bad"), Err(OmosError::Link(_))));
    }
}

/// Reply to a dynamic-load request (§5's dld-like interface).
#[derive(Debug)]
pub struct DynamicLoadReply {
    /// The new class's mappable frames.
    pub frames: ImageFrames,
    /// "a list of symbols whose bound values are to be returned from
    /// OMOS" — resolved addresses for the names the client asked for.
    pub values: HashMap<String, u32>,
    /// Server CPU consumed.
    pub server_ns: u64,
}

impl Omos {
    /// Dynamically loads a class into a running program (§5): "a client
    /// program specifies the class to be loaded, any specializations to
    /// apply to the meta-object, and a list of symbols whose bound
    /// values are to be returned from OMOS. ... allowing the new classes
    /// to refer to procedures and data structures within the client."
    ///
    /// `client_exports` are the running program's own symbols; the new
    /// class's free references bind against them (the dld-style merge).
    /// The class is placed by the constraint solver so its segments
    /// cannot collide with any placed library.
    pub fn dynamic_load(
        &self,
        bp: &Blueprint,
        wanted: &[&str],
        client_exports: &HashMap<String, u32>,
    ) -> Result<DynamicLoadReply, OmosError> {
        let _guard = self.tracer.begin_request(SpanKind::Request);
        let ctx = ReqCtx::new(self);
        let base_ns = self.cost.server_cached_request_ns;
        self.tracer.begin_build(base_ns);
        let Evaluated {
            out,
            work_ns: eval_ns,
            ..
        } = self.eval(bp, &ctx)?;

        // Resolve any referenced self-contained libraries first, then
        // bind the class against libraries + the client's own exports:
        // the class is the last row, placed like a library.
        let mut libs = out.libraries;
        libs.push(LibraryUse {
            name: format!("<dynload:{}>", bp.hash()),
            key: out.module.content_hash().with_str("dynload"),
            module: out.module,
            constraints: out.constraints,
        });
        let built = self.link_libraries(&libs, client_exports.clone())?;
        let server_ns = base_ns + eval_ns + built.links.iter().sum::<u64>();
        let img = &built.images[libs.len() - 1];

        let mut values = HashMap::new();
        for name in wanted {
            let addr = img
                .image
                .find(name)
                .ok_or_else(|| OmosError::Client(format!("`{name}` not defined by the class")))?;
            values.insert((*name).to_string(), addr);
        }
        self.tracer.built(server_ns, 0, 0, 0);
        Ok(DynamicLoadReply {
            frames: img.frames.clone(),
            values,
            server_ns,
        })
    }

    /// §7 "Implications for Other Programs": serves `nm`-style symbol
    /// listings directly from the server — "requesting only those
    /// portions of interest" instead of shipping a whole byte stream.
    pub fn query_symbols(&self, path: &str) -> Result<Vec<(String, bool)>, OmosError> {
        match self.namespace.lookup(path) {
            Some(Entry::Object(o)) => Ok(o
                .symbols
                .iter()
                .map(|s| (s.name.clone(), s.def.is_definition()))
                .collect()),
            Some(Entry::Meta(_)) => {
                let reply = self.instantiate(path)?;
                let mut v: Vec<(String, bool)> = reply
                    .program
                    .image
                    .symbols
                    .keys()
                    .map(|k| (k.clone(), true))
                    .collect();
                v.sort();
                Ok(v)
            }
            None => Err(OmosError::NoSuchName(path.to_string())),
        }
    }

    /// §7: `size`-style section totals without shipping contents.
    pub fn query_size(&self, path: &str) -> Result<(u64, u64, u64), OmosError> {
        match self.namespace.lookup(path) {
            Some(Entry::Object(o)) => Ok((
                o.size_of_kind(SectionKind::Text) + o.size_of_kind(SectionKind::RoData),
                o.size_of_kind(SectionKind::Data),
                o.size_of_kind(SectionKind::Bss),
            )),
            Some(Entry::Meta(_)) => {
                let reply = self.instantiate(path)?;
                let mut text = 0;
                let mut data = 0;
                let mut bss = 0;
                for seg in &reply.program.image.segments {
                    match seg.kind {
                        SectionKind::Text | SectionKind::RoData => text += seg.size(),
                        SectionKind::Data => data += seg.size(),
                        SectionKind::Bss => bss += seg.size(),
                    }
                }
                Ok((text, data, bss))
            }
            None => Err(OmosError::NoSuchName(path.to_string())),
        }
    }
}
impl Omos {
    /// Instantiates `path` with monitoring wrappers interposed around
    /// every routine matching `pattern` (§4.1/§6: "OMOS can
    /// transparently modify program executables to provide monitoring
    /// data"). The monitored variant is the bound blueprint plus an
    /// audit policy on `pattern`, served and cached like any other
    /// blueprint under its own hash. Also returns the id → routine
    /// table for decoding `MONLOG` events, read back from the image's
    /// audit stubs.
    pub fn instantiate_monitored(
        &self,
        path: &str,
        pattern: &str,
    ) -> Result<(InstantiateReply, Vec<String>), OmosError> {
        let mut bp = Blueprint::clone(&self.blueprint_at(path)?.0);
        bp.policies.push(LinkPolicy {
            kind: PolicyKind::Audit,
            pattern: pattern.to_string(),
        });
        let key = bp.hash();
        let reply = self.request(&Arc::new(bp), key, Some(path))?;
        let names = audit_names(&reply.program.image);
        Ok((reply, names))
    }
}

/// The audit id table of a linked program: entry `i` names the routine
/// whose stub logs id `i` — the wrapper symbol at the stub's address
/// whose `$real` twin is the stub's jump target.
fn audit_names(image: &LinkedImage) -> Vec<String> {
    let wrappers: HashMap<(u32, u32), &String> = image
        .symbols
        .iter()
        .filter_map(|(name, &addr)| {
            let real = *image.symbols.get(&format!("{name}$real"))?;
            Some(((addr, real), name))
        })
        .collect();
    let sites = scan_audit_stubs(image);
    let mut names = vec![String::new(); sites.len()];
    for site in sites {
        if let (Some(slot), Some(name)) = (
            names.get_mut(site.id as usize),
            wrappers.get(&(site.stub_addr, site.target)),
        ) {
            slot.clone_from(name);
        }
    }
    names
}
