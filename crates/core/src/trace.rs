//! omos-trace — request-level structured tracing and metrics.
//!
//! PR 2 made the server concurrent; this module makes it *observable*.
//! Every instantiation request gets a tree of spans — blueprint eval,
//! per-library placement/link/framing, the program link, cache probes
//! with their outcome, single-flight leadership vs. coalescing — plus
//! client-side IPC and mapping spans recorded against the same request
//! id. Spans land in a fixed-size ring buffer (bounded memory, oldest
//! records overwritten; the hot path allocates nothing beyond the span
//! record itself) and are aggregated into per-stage latency histograms
//! and counter families snapshotted by [`Tracer::snapshot`] /
//! `Omos::trace_snapshot`.
//!
//! Timestamps live in the *simulation* domain: each request owns a
//! cursor of SimClock-style nanoseconds that leaf spans advance, so a
//! request's span tree is a deterministic timeline of where its time
//! went. Billed stages (eval, link) advance the cursor by exactly the
//! nanoseconds charged to the client's reply; metered-but-unbilled
//! stages (placement, framing — global work amortized across clients)
//! appear in the timeline without inflating `server_ns`.
//!
//! Surfaces: `ofe trace <blueprint>` renders a span tree, `ofe stats`
//! renders histograms/counters, [`chrome_json`] exports Chrome trace
//! format for `about://tracing`, and `mcbench` embeds per-stage
//! percentiles in `BENCH_CONCURRENCY.json`.
//!
//! Conservation laws (asserted by `tests/trace.rs`): per cache,
//! `hits + misses == probes` (stale revalidation drops are a subset of
//! misses); for the reply single-flight, `leaders + coalesced ==
//! flight_entries`; eviction reason counts sum to total evictions.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::sync::lock;

/// Spans the ring buffer retains; older records are overwritten.
pub const RING_CAPACITY: usize = 4096;

/// Log₂ latency buckets: bucket `i` holds durations in
/// `[2^(i-1), 2^i)` ns (bucket 0 holds 0 ns).
pub const HIST_BUCKETS: usize = 44;

/// Pipeline stages with their own latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A whole instantiation request (trace-timeline total).
    Request,
    /// Blueprint evaluation / m-graph op execution.
    Eval,
    /// Constraint-solver placement of a library's segments.
    Placement,
    /// Symbol binding + relocation (library or program link).
    Link,
    /// Image framing (building shareable page frames).
    Frame,
    /// Client-side mapping of the reply's frames.
    Map,
    /// Client↔server IPC round trip.
    Ipc,
    /// A diff-driven incremental relink (the dirtied-subgraph rebuild,
    /// eval excluded).
    RelinkPartial,
    /// Reuse of a retained artifact (cached image + replayed placement)
    /// during an incremental relink.
    Reuse,
    /// Link-policy application (deny screening + stub interposition).
    Policy,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 10] = [
        Stage::Request,
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

    /// Stable display name (also the JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Eval => "eval",
            Stage::Placement => "placement",
            Stage::Link => "link",
            Stage::Frame => "frame",
            Stage::Map => "map",
            Stage::Ipc => "ipc",
            Stage::RelinkPartial => "relink_partial",
            Stage::Reuse => "reuse",
            Stage::Policy => "policy",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Request => 0,
            Stage::Eval => 1,
            Stage::Placement => 2,
            Stage::Link => 3,
            Stage::Frame => 4,
            Stage::Map => 5,
            Stage::Ipc => 6,
            Stage::RelinkPartial => 7,
            Stage::Reuse => 8,
            Stage::Policy => 9,
        }
    }
}

/// Which cache a probe or eviction concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// The full-reply cache.
    Reply,
    /// The evaluated-module cache.
    Eval,
    /// The bound-image cache.
    Image,
}

impl CacheKind {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CacheKind::Reply => "reply",
            CacheKind::Eval => "eval",
            CacheKind::Image => "image",
        }
    }
}

/// Probe outcomes. `Stale` is a miss whose entry existed but failed
/// dependency revalidation (and was dropped); it counts toward both
/// `misses` and `stale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Entry present and valid.
    Hit,
    /// No entry.
    Miss,
    /// Entry present but invalidated by a touched dependency.
    Stale,
}

impl ProbeOutcome {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProbeOutcome::Hit => "hit",
            ProbeOutcome::Miss => "miss",
            ProbeOutcome::Stale => "stale",
        }
    }
}

/// Why a cache entry was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// The byte budget forced an LRU eviction.
    Budget,
    /// A new entry replaced it under the same key.
    Replace,
    /// `clear()` dropped everything.
    Clear,
    /// Dependency revalidation found it stale.
    Invalidated,
}

impl EvictReason {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EvictReason::Budget => "budget",
            EvictReason::Replace => "replace",
            EvictReason::Clear => "clear",
            EvictReason::Invalidated => "invalidated",
        }
    }
}

/// Single-flight disposition of a request that missed the reply cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightRole {
    /// Elected leader: ran the build (or found the fresh cache entry).
    Leader,
    /// Blocked on a concurrent identical request and shared its reply.
    Coalesced,
}

impl FlightRole {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlightRole::Leader => "leader",
            FlightRole::Coalesced => "coalesced",
        }
    }
}

/// What a span records. Interval spans carry a nonzero duration;
/// instant events (probes, flight dispositions, evictions) record a
/// point on the request timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole request (root of the tree).
    Request,
    /// Blueprint evaluation.
    Eval,
    /// Building one shared library (placement + link + framing).
    LibraryBuild,
    /// Symbol binding + relocation (library or program image).
    Link,
    /// Constraint-solver placement.
    Placement,
    /// Image framing.
    Frame,
    /// Client-side mapping.
    Map,
    /// Client↔server IPC round trip.
    Ipc,
    /// A `dyn_lookup` request.
    DynLookup,
    /// One work unit of an evaluation, laid out on a simulated lane.
    EvalUnit,
    /// A diff-driven incremental relink of the dirtied subgraph.
    RelinkPartial,
    /// One retained library reused (cached image + replayed placement)
    /// during an incremental relink.
    Reuse,
    /// Link-policy application (deny screening + stub interposition).
    Policy,
    /// A cache probe (instant).
    CacheProbe(CacheKind, ProbeOutcome),
    /// A cache eviction (instant).
    Evict(CacheKind, EvictReason),
    /// Single-flight disposition (instant).
    Flight(FlightRole),
}

impl SpanKind {
    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Eval => "eval",
            SpanKind::LibraryBuild => "library-build",
            SpanKind::Link => "link",
            SpanKind::Placement => "placement",
            SpanKind::Frame => "frame",
            SpanKind::Map => "map",
            SpanKind::Ipc => "ipc",
            SpanKind::DynLookup => "dyn-lookup",
            SpanKind::EvalUnit => "eval-unit",
            SpanKind::RelinkPartial => "relink-partial",
            SpanKind::Reuse => "reuse",
            SpanKind::Policy => "policy",
            SpanKind::CacheProbe(..) => "cache-probe",
            SpanKind::Evict(..) => "evict",
            SpanKind::Flight(..) => "flight",
        }
    }

    /// True for zero-duration point events.
    #[must_use]
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            SpanKind::CacheProbe(..) | SpanKind::Evict(..) | SpanKind::Flight(..)
        )
    }
}

/// One recorded span. Fixed-size: recording never allocates.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Request id the span belongs to (0 = outside any request).
    pub req: u64,
    /// Global record sequence number (monotone; ring eviction drops the
    /// lowest ones first).
    pub seq: u64,
    /// What happened.
    pub kind: SpanKind,
    /// Nesting depth within the request (the request span is depth 0).
    pub depth: u16,
    /// Start offset on the request's SimClock timeline, ns.
    pub start_ns: u64,
    /// Duration, ns (0 for instants).
    pub dur_ns: u64,
    /// Simulated worker lane (0 = the request's own thread; parallel
    /// evaluation/link units carry their scheduled lane, 1-based).
    pub worker: u16,
}

// --- Ring buffer -----------------------------------------------------------------

/// Fixed-capacity span store: the record's (pre-claimed) sequence
/// number doubles as the slot claim, and each slot is an independent
/// mutex so concurrent writers never contend on one lock. Memory is
/// bounded at construction; overwrite is oldest-first.
#[derive(Debug)]
struct Ring {
    slots: Box<[Mutex<Option<SpanRecord>>]>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// `r.seq` must already be claimed (seqs start at 1).
    fn push(&self, r: SpanRecord) {
        let i = (r.seq as usize - 1) % self.slots.len();
        *lock(&self.slots[i]) = Some(r);
    }

    fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self.slots.iter().filter_map(|s| *lock(s)).collect();
        out.sort_by_key(|r| r.seq);
        out
    }
}

// --- Histograms -----------------------------------------------------------------

#[derive(Debug)]
struct Hist {
    buckets: Vec<AtomicU64>,
    sum_ns: AtomicU64,
}

impl Hist {
    fn new() -> Hist {
        Hist {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Two relaxed RMWs on the hot path; the sample count is derived
    /// from the bucket totals at snapshot time instead of a third.
    fn record(&self, ns: u64) {
        let b = bucket_of(ns);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Upper bound (inclusive) of a histogram bucket, ns.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// An immutable per-stage histogram snapshot.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Which stage.
    pub stage: Stage,
    /// Samples recorded.
    pub count: u64,
    /// Total nanoseconds recorded.
    pub sum_ns: u64,
    /// Per-bucket counts (log₂ buckets, see [`HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// An empty snapshot for `stage`.
    #[must_use]
    pub fn empty(stage: Stage) -> HistSnapshot {
        HistSnapshot {
            stage,
            count: 0,
            sum_ns: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// The `q`-quantile (0.0..=1.0) as the upper bound of the bucket
    /// holding it — deterministic and conservative.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }

    /// Folds another snapshot of the same stage into this one (for
    /// merging histograms across servers in a benchmark sweep).
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }
}

// --- Counters -----------------------------------------------------------------

macro_rules! counter_family {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        #[derive(Debug, Default)]
        struct CounterCells { $($name: AtomicU64,)+ }

        /// Snapshot of the tracer's counter families.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct TraceCounters { $($(#[$doc])* pub $name: u64,)+ }

        impl CounterCells {
            fn snapshot(&self) -> TraceCounters {
                TraceCounters { $($name: self.$name.load(Ordering::Relaxed),)+ }
            }
        }

        impl TraceCounters {
            /// `(name, value)` pairs in declaration order, for rendering.
            #[must_use]
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }
    };
}

counter_family! {
    /// Traced instantiation requests started.
    requests,
    /// Traced `dyn_lookup` requests started.
    dyn_lookups,
    /// Reply-cache probes.
    reply_probes,
    /// Reply-cache hits.
    reply_hits,
    /// Reply-cache misses (including stale drops).
    reply_misses,
    /// Reply-cache entries dropped by revalidation (subset of misses).
    reply_stale,
    /// Eval-cache probes.
    eval_probes,
    /// Eval-cache hits.
    eval_hits,
    /// Eval-cache misses (including stale drops).
    eval_misses,
    /// Eval-cache entries dropped by revalidation (subset of misses).
    eval_stale,
    /// Image-cache probes.
    image_probes,
    /// Image-cache hits.
    image_hits,
    /// Image-cache misses.
    image_misses,
    /// Image-cache evictions forced by the byte budget.
    image_evict_budget,
    /// Image-cache entries replaced under the same key.
    image_evict_replace,
    /// Image-cache entries dropped by `clear()`.
    image_evict_clear,
    /// Budget-evicted images sealed into the tier-2 spill store.
    tier2_spills,
    /// Image-cache misses answered by a verified tier-2 fault-in
    /// (subset of `image_misses`; no relink ran).
    tier2_fault_ins,
    /// Tier-2 fault-in attempts dropped by verification (file hash,
    /// frame checksum, or content hash mismatch); the image relinks.
    tier2_verify_drops,
    /// Reply/eval entries dropped because a dependency was touched.
    evict_invalidated,
    /// Requests that entered the reply single-flight.
    flight_entries,
    /// Single-flight leaders elected.
    flight_leaders,
    /// Single-flight followers coalesced.
    flight_coalesced,
    /// Client IPC round trips recorded.
    ipc_roundtrips,
    /// Pipelined batch frames flushed by clients.
    ipc_batches,
    /// Requests delivered inside those batch frames.
    ipc_batched_requests,
    /// Shared-memory mappings granted to clients (first sighting of a
    /// content key per session).
    shm_mappings,
    /// Bounded backpressure polls spent by ring writers.
    shm_backpressure_spins,
    /// Spans written to the ring (monotone; `min(spans_recorded,
    /// RING_CAPACITY)` are retained).
    spans_recorded,
    /// Namespace bindings rebuilt from a checkpoint manifest.
    restore_ns_entries,
    /// Cached images reinstalled from a checkpoint.
    restore_images,
    /// Reply-cache entries reinstalled from a checkpoint.
    restore_replies,
    /// Journal records replayed on restore.
    restore_journal,
    /// Persisted entries dropped on restore (corrupt, truncated,
    /// version-skewed, or referencing a dropped image) — each will be
    /// relinked on demand. Always the sum of the `restore_drop_*`
    /// families below.
    restore_dropped,
    /// Reply rows whose stored resolution manifest matched a fresh
    /// static re-derivation at restore time (installed without a
    /// relink).
    restore_manifest_verified,
    /// Restore drops: namespace frames that failed checksum or decode.
    restore_drop_ns_decode,
    /// Restore drops: image files missing or unreadable.
    restore_drop_image_read,
    /// Restore drops: image files whose bytes hash differently than
    /// the manifest row recorded.
    restore_drop_image_checksum,
    /// Restore drops: image frames that failed to open or decode.
    restore_drop_image_decode,
    /// Restore drops: decoded images whose content hash disagrees with
    /// the manifest row.
    restore_drop_image_content,
    /// Restore drops: torn journal tails (bytes skipped while
    /// resynchronizing).
    restore_drop_journal_torn,
    /// Restore drops: journal frames of a non-journal container kind.
    restore_drop_journal_kind,
    /// Restore drops: journal records that decoded but failed to apply.
    restore_drop_journal_apply,
    /// Restore drops: reply rows referencing an image that was itself
    /// dropped.
    restore_drop_reply_image,
    /// Restore drops: reply rows whose stored manifest failed static
    /// re-derivation (decode failure, eval failure, or divergence).
    restore_drop_reply_manifest,
    /// Restores that found no usable manifest and started cold.
    restore_cold,
    /// Stale-reply rebuilds served by the incremental relink engine
    /// (subset of `replies_built`; the rest went through the full path).
    relink_partials,
    /// Library images reused as-is during incremental relinks (cached
    /// image by content key + replayed retained placement; no linker).
    relink_reused_images,
    /// Libraries actually relinked during incremental relinks (the
    /// dirtied subgraph plus any reuse demoted by a cache miss).
    relink_relinked_libraries,
    /// Incremental relink attempts abandoned to the full rebuild path
    /// (plan/derivation anomaly or a final verification mismatch).
    relink_fallbacks,
    /// Cached replies patched in place by an incremental relink instead
    /// of being evicted wholesale.
    relink_patched_replies,
    /// Requests answered via a relink seed captured from a dropped
    /// restore row (relink-on-demand after a checkpoint restore).
    relink_seeded_restores,
    /// Simulated ns of link work *avoided* by incremental relinks: the
    /// recorded rebuild cost of every image reused as-is. Adding this
    /// to a relinked reply's `server_ns` reproduces exactly what a cold
    /// full relink of the same state would bill (the simulation is
    /// deterministic), so `recovery + avoided` is the honest
    /// full-relink comparison figure.
    relink_avoided_ns,
    /// Running processes live-patched after a rebind (quiesce, swap
    /// dirtied indirect-table entries, resume).
    live_updates,
    /// Indirect-table slots swapped across all live updates.
    live_slots_swapped,
    /// Blueprints rejected by a deny link policy (OM017).
    policy_denials,
    /// Trampoline interposition stubs inserted by link policies.
    policy_trampolines,
    /// Call-audit stubs inserted by link policies.
    policy_audits,
}

/// Per-reason breakdown of artifacts dropped during a checkpoint
/// restore. Every drop is safe — the artifact relinks on demand — but
/// the reasons separate disk damage (`image_*`), journal damage
/// (`journal_*`), and logical divergence (`reply_manifest`), which
/// call for different operator responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreDrops {
    /// Namespace frames that failed checksum or decode.
    pub ns_decode: u64,
    /// Image files missing or unreadable.
    pub image_read: u64,
    /// Image files whose bytes hash differently than the manifest row.
    pub image_checksum: u64,
    /// Image frames that failed to open or decode.
    pub image_decode: u64,
    /// Decoded images whose content hash disagrees with the row.
    pub image_content: u64,
    /// Torn journal tails (bytes skipped while resynchronizing).
    pub journal_torn: u64,
    /// Journal frames of a non-journal container kind.
    pub journal_kind: u64,
    /// Journal records that decoded but failed to apply.
    pub journal_apply: u64,
    /// Reply rows referencing an image that was itself dropped.
    pub reply_image: u64,
    /// Reply rows whose stored resolution manifest did not survive
    /// static re-derivation (decode failure, eval failure, or a
    /// manifest that no longer matches).
    pub reply_manifest: u64,
}

impl RestoreDrops {
    /// Total drops across every reason.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ns_decode
            + self.image_read
            + self.image_checksum
            + self.image_decode
            + self.image_content
            + self.journal_torn
            + self.journal_kind
            + self.journal_apply
            + self.reply_image
            + self.reply_manifest
    }
}

/// A full tracer snapshot: counters, per-stage histograms, and the
/// retained span records (seq-ordered).
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Counter families.
    pub counters: TraceCounters,
    /// One histogram per [`Stage`], in `Stage::ALL` order.
    pub stages: Vec<HistSnapshot>,
    /// Retained spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Ring capacity (overwrite horizon).
    pub ring_capacity: usize,
}

impl TraceSnapshot {
    /// The histogram for `stage`.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &HistSnapshot {
        &self.stages[stage.index()]
    }

    /// Spans belonging to request `req`, seq-ordered.
    #[must_use]
    pub fn request_spans(&self, req: u64) -> Vec<SpanRecord> {
        self.spans
            .iter()
            .copied()
            .filter(|s| s.req == req)
            .collect()
    }
}

// --- Thread-local request context --------------------------------------------

#[derive(Debug, Clone, Copy)]
struct ReqState {
    req: u64,
    cursor_ns: u64,
    depth: u16,
}

thread_local! {
    /// Stack of active requests on this thread (nested requests — e.g.
    /// `query_symbols` instantiating internally — push and pop).
    static ACTIVE: RefCell<Vec<ReqState>> = const { RefCell::new(Vec::new()) };
}

/// An open interval span; closed by [`Tracer::close`] or
/// [`Tracer::close_leaf`]. Dropping one without closing loses the
/// record but cannot corrupt the tracer.
#[derive(Debug)]
#[must_use]
pub struct OpenSpan {
    kind: SpanKind,
    req: u64,
    start_ns: u64,
    depth: u16,
}

/// Guard for one traced request; closes the root request span (and
/// records the request histogram) on drop.
#[derive(Debug)]
pub struct ReqGuard<'a> {
    tracer: &'a Tracer,
    req: u64,
    kind: SpanKind,
    active: bool,
}

impl ReqGuard<'_> {
    /// The request id spans are attributed to (0 when tracing is off).
    #[must_use]
    pub fn req(&self) -> u64 {
        self.req
    }
}

impl Drop for ReqGuard<'_> {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let state = ACTIVE.with(|a| a.borrow_mut().pop());
        if let Some(state) = state {
            self.tracer.push_record(SpanRecord {
                req: self.req,
                seq: 0, // assigned by push_record
                kind: self.kind,
                depth: 0,
                start_ns: 0,
                dur_ns: state.cursor_ns,
                worker: 0,
            });
            self.tracer.hist(Stage::Request).record(state.cursor_ns);
        }
    }
}

/// Puts a request context set aside by [`Tracer::detached`] back on
/// this thread when dropped, so a panic inside the detached closure
/// cannot leave the request without its timeline.
struct Reattach(Vec<ReqState>);

impl Drop for Reattach {
    fn drop(&mut self) {
        let stack = std::mem::take(&mut self.0);
        ACTIVE.with(|a| *a.borrow_mut() = stack);
    }
}

// --- The tracer -----------------------------------------------------------------

/// The tracing and metrics hub one server owns.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    next_req: AtomicU64,
    seq: AtomicU64,
    ring: Ring,
    hists: Vec<Hist>,
    c: CounterCells,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with the default ring capacity, enabled.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer::with_capacity(RING_CAPACITY)
    }

    /// A tracer with an explicit ring capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(true),
            next_req: AtomicU64::new(1),
            seq: AtomicU64::new(1),
            ring: Ring::new(capacity),
            hists: (0..Stage::ALL.len()).map(|_| Hist::new()).collect(),
            c: CounterCells::default(),
        }
    }

    /// Turns recording on or off. Off, every hook is a cheap
    /// early-return: no counters, no histograms, no ring writes.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn hist(&self, stage: Stage) -> &Hist {
        &self.hists[stage.index()]
    }

    /// Hot path: the `spans_recorded` counter is derived from `seq` at
    /// snapshot time rather than bumped per record.
    fn push_record(&self, mut r: SpanRecord) {
        r.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.ring.push(r);
    }

    fn with_state<T>(&self, f: impl FnOnce(&mut ReqState) -> T) -> Option<T> {
        ACTIVE.with(|a| a.borrow_mut().last_mut().map(f))
    }

    /// Opens the root span of a traced request. `dyn_lookup` passes
    /// `SpanKind::DynLookup`; instantiation paths pass
    /// `SpanKind::Request`.
    pub fn begin_request(&self, kind: SpanKind) -> ReqGuard<'_> {
        if !self.enabled() {
            return ReqGuard {
                tracer: self,
                req: 0,
                kind,
                active: false,
            };
        }
        // `requests` is derived from `next_req - dyn_lookups` at
        // snapshot time; only the rarer dyn-lookup path pays a counter.
        if kind == SpanKind::DynLookup {
            self.c.dyn_lookups.fetch_add(1, Ordering::Relaxed);
        }
        let req = self.next_req.fetch_add(1, Ordering::Relaxed);
        ACTIVE.with(|a| {
            a.borrow_mut().push(ReqState {
                req,
                cursor_ns: 0,
                depth: 1,
            });
        });
        ReqGuard {
            tracer: self,
            req,
            kind,
            active: true,
        }
    }

    /// Opens a nested interval span at the current cursor.
    pub fn open(&self, kind: SpanKind) -> OpenSpan {
        let state = if self.enabled() {
            self.with_state(|s| {
                let at = (s.req, s.cursor_ns, s.depth);
                s.depth += 1;
                at
            })
        } else {
            None
        };
        match state {
            Some((req, start_ns, depth)) => OpenSpan {
                kind,
                req,
                start_ns,
                depth,
            },
            None => OpenSpan {
                kind,
                req: 0,
                start_ns: 0,
                depth: 0,
            },
        }
    }

    /// Closes an interval span: duration is however far the cursor
    /// advanced since it opened (i.e. the sum of its leaf children).
    pub fn close(&self, span: OpenSpan) {
        if span.req == 0 {
            return;
        }
        let end = self
            .with_state(|s| {
                s.depth = s.depth.saturating_sub(1);
                s.cursor_ns
            })
            .unwrap_or(span.start_ns);
        self.push_record(SpanRecord {
            req: span.req,
            seq: 0,
            kind: span.kind,
            depth: span.depth,
            start_ns: span.start_ns,
            dur_ns: end.saturating_sub(span.start_ns),
            worker: 0,
        });
    }

    /// Closes a *leaf* span, advancing the request cursor by `ns` and
    /// recording `ns` into `stage`'s histogram.
    pub fn close_leaf(&self, span: OpenSpan, stage: Stage, ns: u64) {
        if span.req == 0 {
            return;
        }
        self.with_state(|s| {
            s.cursor_ns += ns;
            s.depth = s.depth.saturating_sub(1);
        });
        self.hist(stage).record(ns);
        self.push_record(SpanRecord {
            req: span.req,
            seq: 0,
            kind: span.kind,
            depth: span.depth,
            start_ns: span.start_ns,
            dur_ns: ns,
            worker: 0,
        });
    }

    /// Advances the request cursor without a span (baseline request
    /// handling charged to no particular stage).
    pub fn advance(&self, ns: u64) {
        if self.enabled() {
            self.with_state(|s| s.cursor_ns += ns);
        }
    }

    /// Records a span at `cursor + start_offset_ns` on simulated lane
    /// `worker` *without* moving the cursor or touching any histogram.
    /// The lane schedule lays evaluation units and library links out
    /// this way: the cursor advances once by the schedule's makespan
    /// (critical-path billing), while each span shows where on which
    /// lane the work is scheduled.
    pub fn span_at(&self, kind: SpanKind, start_offset_ns: u64, dur_ns: u64, worker: u16) {
        if !self.enabled() {
            return;
        }
        let at = self.with_state(|s| (s.req, s.cursor_ns, s.depth));
        if let Some((req, cursor, depth)) = at {
            self.push_record(SpanRecord {
                req,
                seq: 0,
                kind,
                depth,
                start_ns: cursor + start_offset_ns,
                dur_ns,
                worker,
            });
        }
    }

    /// Runs `f` with this thread's request context set aside. Counters
    /// (cache probes, evictions, tier-2 traffic) still count, but no
    /// span lands on the timeline, no span close feeds a histogram, and
    /// the request cursor does not move. Work on a simulated lane runs
    /// this way; the caller lays it out afterwards with
    /// [`Tracer::span_at`] and [`Tracer::note`]. The context is restored
    /// when `f` returns or panics.
    pub fn detached<T>(&self, f: impl FnOnce() -> T) -> T {
        let _reattach = Reattach(ACTIVE.with(|a| std::mem::take(&mut *a.borrow_mut())));
        f()
    }

    /// Records `ns` into `stage`'s histogram without a span or cursor
    /// movement. The lane schedule uses this to feed a stage's histogram
    /// the durations it lays out as overlapped spans.
    pub fn note(&self, stage: Stage, ns: u64) {
        if self.enabled() {
            self.hist(stage).record(ns);
        }
    }

    /// Records an instant event at the current cursor.
    fn instant(&self, kind: SpanKind) {
        let at = self.with_state(|s| (s.req, s.cursor_ns, s.depth));
        if let Some((req, cursor, depth)) = at {
            self.push_record(SpanRecord {
                req,
                seq: 0,
                kind,
                depth,
                start_ns: cursor,
                dur_ns: 0,
                worker: 0,
            });
        }
    }

    /// Records a cache probe. Hits are counter-only — they are the
    /// steady-state fast path, and a hit marker adds nothing a root
    /// span with a cached duration doesn't already say. Misses and
    /// stale drops additionally put an instant on the timeline, so the
    /// interesting (cold/invalidated) trees show *why* work happened.
    /// The per-cache `probes` counter is derived as `hits + misses` at
    /// snapshot time.
    pub fn probe(&self, cache: CacheKind, outcome: ProbeOutcome) {
        if !self.enabled() {
            return;
        }
        let (h, m, st) = match cache {
            CacheKind::Reply => (
                &self.c.reply_hits,
                &self.c.reply_misses,
                Some(&self.c.reply_stale),
            ),
            CacheKind::Eval => (
                &self.c.eval_hits,
                &self.c.eval_misses,
                Some(&self.c.eval_stale),
            ),
            CacheKind::Image => (&self.c.image_hits, &self.c.image_misses, None),
        };
        match outcome {
            ProbeOutcome::Hit => {
                h.fetch_add(1, Ordering::Relaxed);
                return;
            }
            ProbeOutcome::Miss => {
                m.fetch_add(1, Ordering::Relaxed);
            }
            ProbeOutcome::Stale => {
                m.fetch_add(1, Ordering::Relaxed);
                if let Some(st) = st {
                    st.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.instant(SpanKind::CacheProbe(cache, outcome));
    }

    /// Records `n` evictions with their reason.
    pub fn evict(&self, cache: CacheKind, reason: EvictReason, n: u64) {
        if !self.enabled() || n == 0 {
            return;
        }
        let cell = match (cache, reason) {
            (CacheKind::Image, EvictReason::Budget) => &self.c.image_evict_budget,
            (CacheKind::Image, EvictReason::Replace) => &self.c.image_evict_replace,
            (CacheKind::Image, EvictReason::Clear) => &self.c.image_evict_clear,
            _ => &self.c.evict_invalidated,
        };
        cell.fetch_add(n, Ordering::Relaxed);
        self.instant(SpanKind::Evict(cache, reason));
    }

    /// Records tier-2 spill traffic: images sealed into the spill
    /// store, misses answered by verified fault-in, and fault-in
    /// attempts dropped by verification.
    pub fn tier2(&self, spills: u64, fault_ins: u64, verify_drops: u64) {
        if !self.enabled() {
            return;
        }
        self.c.tier2_spills.fetch_add(spills, Ordering::Relaxed);
        self.c
            .tier2_fault_ins
            .fetch_add(fault_ins, Ordering::Relaxed);
        self.c
            .tier2_verify_drops
            .fetch_add(verify_drops, Ordering::Relaxed);
    }

    /// Records the outcome of a checkpoint restore: how many namespace
    /// bindings, images, and replies came back, how many journal
    /// records replayed, how many reply manifests re-verified, the
    /// per-reason drop breakdown (each drop degrades to an on-demand
    /// relink), and whether the restore fell back to a cold start.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        &self,
        ns: u64,
        images: u64,
        replies: u64,
        journal: u64,
        verified: u64,
        drops: &RestoreDrops,
        cold: bool,
    ) {
        if !self.enabled() {
            return;
        }
        self.c.restore_ns_entries.fetch_add(ns, Ordering::Relaxed);
        self.c.restore_images.fetch_add(images, Ordering::Relaxed);
        self.c.restore_replies.fetch_add(replies, Ordering::Relaxed);
        self.c.restore_journal.fetch_add(journal, Ordering::Relaxed);
        self.c
            .restore_manifest_verified
            .fetch_add(verified, Ordering::Relaxed);
        self.c
            .restore_dropped
            .fetch_add(drops.total(), Ordering::Relaxed);
        for (cell, n) in [
            (&self.c.restore_drop_ns_decode, drops.ns_decode),
            (&self.c.restore_drop_image_read, drops.image_read),
            (&self.c.restore_drop_image_checksum, drops.image_checksum),
            (&self.c.restore_drop_image_decode, drops.image_decode),
            (&self.c.restore_drop_image_content, drops.image_content),
            (&self.c.restore_drop_journal_torn, drops.journal_torn),
            (&self.c.restore_drop_journal_kind, drops.journal_kind),
            (&self.c.restore_drop_journal_apply, drops.journal_apply),
            (&self.c.restore_drop_reply_image, drops.reply_image),
            (&self.c.restore_drop_reply_manifest, drops.reply_manifest),
        ] {
            cell.fetch_add(n, Ordering::Relaxed);
        }
        if cold {
            self.c.restore_cold.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the outcome of one incremental relink: how many library
    /// images were reused as-is, how many relinked, and whether the
    /// reply-cache entry was patched in place.
    pub fn relink(&self, reused: u64, relinked: u64, patched: bool, seeded: bool, avoided_ns: u64) {
        if !self.enabled() {
            return;
        }
        self.c.relink_partials.fetch_add(1, Ordering::Relaxed);
        self.c
            .relink_reused_images
            .fetch_add(reused, Ordering::Relaxed);
        self.c
            .relink_avoided_ns
            .fetch_add(avoided_ns, Ordering::Relaxed);
        self.c
            .relink_relinked_libraries
            .fetch_add(relinked, Ordering::Relaxed);
        if patched {
            self.c
                .relink_patched_replies
                .fetch_add(1, Ordering::Relaxed);
        }
        if seeded {
            self.c
                .relink_seeded_restores
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the outcome of one link-policy application: stubs
    /// inserted (by kind) or a deny rejection.
    pub fn policy(&self, trampolines: u64, audits: u64, denied: bool) {
        if !self.enabled() {
            return;
        }
        self.c
            .policy_trampolines
            .fetch_add(trampolines, Ordering::Relaxed);
        self.c.policy_audits.fetch_add(audits, Ordering::Relaxed);
        if denied {
            self.c.policy_denials.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an incremental relink attempt that fell back to the full
    /// rebuild path.
    pub fn relink_fallback(&self) {
        if self.enabled() {
            self.c.relink_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one live process update and the slots it swapped.
    pub fn live_update(&self, slots_swapped: u64) {
        if !self.enabled() {
            return;
        }
        self.c.live_updates.fetch_add(1, Ordering::Relaxed);
        self.c
            .live_slots_swapped
            .fetch_add(slots_swapped, Ordering::Relaxed);
    }

    /// Records this request's single-flight disposition. Followers pass
    /// the nanoseconds they waited for the leader (advances the cursor
    /// so the request span covers the wait).
    pub fn flight(&self, role: FlightRole, waited_ns: u64) {
        if !self.enabled() {
            return;
        }
        self.c.flight_entries.fetch_add(1, Ordering::Relaxed);
        match role {
            FlightRole::Leader => self.c.flight_leaders.fetch_add(1, Ordering::Relaxed),
            FlightRole::Coalesced => self.c.flight_coalesced.fetch_add(1, Ordering::Relaxed),
        };
        self.instant(SpanKind::Flight(role));
        if waited_ns > 0 {
            self.with_state(|s| s.cursor_ns += waited_ns);
        }
    }

    /// Records a client-side span (IPC round trip or mapping) against a
    /// finished request by id. These are roots of their own (depth 0):
    /// the client timeline is not nested inside the server's.
    pub fn client_span(&self, req: u64, stage: Stage, ns: u64) {
        if !self.enabled() {
            return;
        }
        if stage == Stage::Ipc {
            self.c.ipc_roundtrips.fetch_add(1, Ordering::Relaxed);
        }
        self.hist(stage).record(ns);
        let kind = match stage {
            Stage::Map => SpanKind::Map,
            _ => SpanKind::Ipc,
        };
        self.push_record(SpanRecord {
            req,
            seq: 0,
            kind,
            depth: 0,
            start_ns: 0,
            dur_ns: ns,
            worker: 0,
        });
    }

    /// Folds a client session's transport statistics into the trace
    /// counters (batch frames, grants, backpressure). Call once per
    /// session or per delta — the stats are cumulative on the session
    /// side, so pass the increment, not the running total, when folding
    /// repeatedly.
    pub fn client_ipc(&self, stats: &omos_os::ipc::IpcStats) {
        if !self.enabled() {
            return;
        }
        self.c
            .ipc_batches
            .fetch_add(stats.batches, Ordering::Relaxed);
        self.c
            .ipc_batched_requests
            .fetch_add(stats.batched_requests, Ordering::Relaxed);
        self.c
            .shm_mappings
            .fetch_add(stats.mappings, Ordering::Relaxed);
        self.c
            .shm_backpressure_spins
            .fetch_add(stats.backpressure_spins, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of everything the tracer holds.
    /// Counters that are pure functions of other cells (`requests`,
    /// `spans_recorded`, histogram sample counts) are reconstructed
    /// here so the record paths stay lean.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut counters = self.c.snapshot();
        counters.spans_recorded = self.seq.load(Ordering::Relaxed) - 1;
        counters.requests =
            (self.next_req.load(Ordering::Relaxed) - 1).saturating_sub(counters.dyn_lookups);
        counters.reply_probes = counters.reply_hits + counters.reply_misses;
        counters.eval_probes = counters.eval_hits + counters.eval_misses;
        counters.image_probes = counters.image_hits + counters.image_misses;
        TraceSnapshot {
            counters,
            stages: Stage::ALL
                .iter()
                .map(|&stage| {
                    let h = self.hist(stage);
                    let buckets: Vec<u64> = h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect();
                    HistSnapshot {
                        stage,
                        count: buckets.iter().sum(),
                        sum_ns: h.sum_ns.load(Ordering::Relaxed),
                        buckets,
                    }
                })
                .collect(),
            spans: self.ring.snapshot(),
            ring_capacity: self.ring.slots.len(),
        }
    }

    /// Counters only — no histogram or span-ring copies. Cheap enough
    /// to sample around every request in a benchmark drive loop.
    #[must_use]
    pub fn counters(&self) -> TraceCounters {
        self.c.snapshot()
    }
}

// --- Rendering -----------------------------------------------------------------

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn span_line(s: &SpanRecord) -> String {
    match s.kind {
        SpanKind::CacheProbe(cache, outcome) => {
            format!("{}-cache probe: {}", cache.name(), outcome.name())
        }
        SpanKind::Evict(cache, reason) => {
            format!("{}-cache evict: {}", cache.name(), reason.name())
        }
        SpanKind::Flight(role) => format!("single-flight: {}", role.name()),
        kind => format!("{} ({})", kind.label(), fmt_ns(s.dur_ns)),
    }
}

/// Renders one request's spans as an indented tree. Spans must all
/// belong to the same request (see [`TraceSnapshot::request_spans`]).
#[must_use]
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    // Parents start no later than their children and sit at lower
    // depth; parallel siblings order by start cursor then worker lane
    // (not completion order), so output is stable across runs; ties
    // fall back to record order.
    ordered.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(a.depth.cmp(&b.depth))
            .then(a.worker.cmp(&b.worker))
            .then(a.seq.cmp(&b.seq))
    });
    let mut out = String::new();
    for s in ordered {
        let indent = "  ".repeat(s.depth as usize);
        let at = if s.kind.is_instant() {
            format!(" @ {}", fmt_ns(s.start_ns))
        } else {
            String::new()
        };
        let lane = if s.worker > 0 {
            format!(" [w{}]", s.worker)
        } else {
            String::new()
        };
        let _ = writeln!(out, "{indent}{}{lane}{at}", span_line(s));
    }
    out
}

/// Exports spans in Chrome trace format (the JSON Array-of-events
/// flavor wrapped in `traceEvents`); open in `about://tracing` or
/// Perfetto. Timestamps are microseconds on each request's own track
/// (`tid` = request id).
#[must_use]
pub fn chrome_json(spans: &[SpanRecord]) -> String {
    let us = |ns: u64| Json::fixed(ns as f64 / 1e3, 3);
    let event = |s: &SpanRecord| {
        let mut event = vec![("name", chrome_name(s).into()), ("cat", "omos".into())];
        let mut args = vec![("seq", s.seq.into())];
        if s.kind.is_instant() {
            event.extend([
                ("ph", "i".into()),
                ("s", "t".into()),
                ("ts", us(s.start_ns)),
            ]);
        } else {
            event.extend([
                ("ph", "X".into()),
                ("ts", us(s.start_ns)),
                ("dur", us(s.dur_ns)),
            ]);
            args.push(("worker", u64::from(s.worker).into()));
        }
        event.extend([
            ("pid", 1u64.into()),
            ("tid", s.req.into()),
            ("args", Json::obj(args)),
        ]);
        Json::obj(event)
    };
    Json::obj([("traceEvents", Json::Arr(spans.iter().map(event).collect()))]).render()
}

fn chrome_name(s: &SpanRecord) -> String {
    match s.kind {
        SpanKind::CacheProbe(cache, outcome) => {
            format!("probe:{}:{}", cache.name(), outcome.name())
        }
        SpanKind::Evict(cache, reason) => format!("evict:{}:{}", cache.name(), reason.name()),
        SpanKind::Flight(role) => format!("flight:{}", role.name()),
        kind => kind.label().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let t = Tracer::new();
        let g = t.begin_request(SpanKind::Request);
        let req = g.req();
        assert!(req > 0);
        t.probe(CacheKind::Reply, ProbeOutcome::Miss);
        let eval = t.open(SpanKind::Eval);
        t.close_leaf(eval, Stage::Eval, 1_000);
        let lib = t.open(SpanKind::LibraryBuild);
        let place = t.open(SpanKind::Placement);
        t.close_leaf(place, Stage::Placement, 200);
        let link = t.open(SpanKind::Link);
        t.close_leaf(link, Stage::Link, 3_000);
        t.close(lib);
        drop(g);

        let snap = t.snapshot();
        let spans = snap.request_spans(req);
        assert_eq!(spans.len(), 6);
        let root = spans.iter().find(|s| s.kind == SpanKind::Request).unwrap();
        assert_eq!(root.dur_ns, 4_200);
        assert_eq!(root.depth, 0);
        let lib = spans
            .iter()
            .find(|s| s.kind == SpanKind::LibraryBuild)
            .unwrap();
        assert_eq!((lib.start_ns, lib.dur_ns, lib.depth), (1_000, 3_200, 1));
        let place = spans
            .iter()
            .find(|s| s.kind == SpanKind::Placement)
            .unwrap();
        assert_eq!((place.start_ns, place.dur_ns, place.depth), (1_000, 200, 2));
        // Histograms saw each leaf once and the request total.
        assert_eq!(snap.stage(Stage::Eval).count, 1);
        assert_eq!(snap.stage(Stage::Request).sum_ns, 4_200);
        assert_eq!(snap.counters.reply_probes, 1);
        assert_eq!(snap.counters.reply_misses, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.set_enabled(false);
        let g = t.begin_request(SpanKind::Request);
        assert_eq!(g.req(), 0);
        t.probe(CacheKind::Image, ProbeOutcome::Hit);
        let s = t.open(SpanKind::Eval);
        t.close_leaf(s, Stage::Eval, 500);
        drop(g);
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.counters, TraceCounters::default());
        assert_eq!(snap.stage(Stage::Eval).count, 0);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let t = Tracer::with_capacity(4);
        let g = t.begin_request(SpanKind::Request);
        for _ in 0..10 {
            // Misses record instants (hits are counter-only).
            t.probe(CacheKind::Reply, ProbeOutcome::Miss);
        }
        drop(g);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.counters.spans_recorded, 11);
        // The retained records are the newest, in seq order.
        let seqs: Vec<u64> = snap.spans.iter().map(|s| s.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*seqs.last().unwrap() as usize, 11);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let t = Tracer::new();
        let g = t.begin_request(SpanKind::Request);
        for ns in [10, 100, 1_000, 10_000, 100_000] {
            let s = t.open(SpanKind::Eval);
            t.close_leaf(s, Stage::Eval, ns);
        }
        drop(g);
        let h = t.snapshot().stage(Stage::Eval).clone();
        assert_eq!(h.count, 5);
        assert!(h.percentile(0.5) >= 1_000 && h.percentile(0.5) < 2_048);
        assert!(h.percentile(0.99) >= 100_000);
        assert!(h.percentile(0.5) <= h.percentile(0.95));
        assert_eq!(HistSnapshot::empty(Stage::Eval).percentile(0.5), 0);
    }

    #[test]
    fn histogram_merge_folds_counts() {
        let mut a = HistSnapshot::empty(Stage::Link);
        let mut b = HistSnapshot::empty(Stage::Link);
        a.count = 2;
        a.sum_ns = 100;
        a.buckets[3] = 2;
        b.count = 1;
        b.sum_ns = 50;
        b.buckets[3] = 1;
        a.merge(&b);
        assert_eq!((a.count, a.sum_ns, a.buckets[3]), (3, 150, 3));
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let t = Tracer::new();
        let g = t.begin_request(SpanKind::Request);
        let req = g.req();
        t.probe(CacheKind::Reply, ProbeOutcome::Miss);
        let e = t.open(SpanKind::Eval);
        t.close_leaf(e, Stage::Eval, 42_000);
        drop(g);
        t.client_span(req, Stage::Ipc, 7_000);
        let j = chrome_json(&t.snapshot().spans);
        let parsed = crate::json::parse(&j).expect("chrome export parses");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        let named = |name: &str| events.iter().find(|e| e.get("name") == Some(&name.into()));
        let eval = named("eval").expect("an eval event");
        assert_eq!(eval.get("ph"), Some(&"X".into()));
        assert_eq!(eval.get("dur"), Some(&Json::fixed(42.0, 3)));
        assert_eq!(eval.get("tid"), Some(&req.into()));
        assert_eq!(
            eval.get("args").and_then(|a| a.get("worker")),
            Some(&0u64.into())
        );
        let probe = named("probe:reply:miss").expect("a probe instant");
        assert_eq!(probe.get("ph"), Some(&"i".into()));
        assert_eq!(probe.get("s"), Some(&"t".into()));
        assert!(probe.get("dur").is_none());
        assert!(probe.get("args").and_then(|a| a.get("seq")).is_some());
    }

    #[test]
    fn tree_rendering_indents_by_depth() {
        let t = Tracer::new();
        let g = t.begin_request(SpanKind::Request);
        let req = g.req();
        let lib = t.open(SpanKind::LibraryBuild);
        let place = t.open(SpanKind::Placement);
        t.close_leaf(place, Stage::Placement, 100);
        t.close(lib);
        drop(g);
        let tree = render_tree(&t.snapshot().request_spans(req));
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("request ("));
        assert!(lines[1].starts_with("  library-build"));
        assert!(lines[2].starts_with("    placement"));
    }

    #[test]
    fn detached_work_counts_but_leaves_the_timeline_alone() {
        let t = Tracer::new();
        let g = t.begin_request(SpanKind::Request);
        let req = g.req();
        t.advance(1_000);
        let answer = t.detached(|| {
            t.probe(CacheKind::Image, ProbeOutcome::Miss);
            t.evict(CacheKind::Image, EvictReason::Budget, 2);
            let link = t.open(SpanKind::Link);
            t.close_leaf(link, Stage::Link, 5_000);
            t.advance(7_000);
            42
        });
        assert_eq!(answer, 42);
        // A panic inside the scope restores the context as well.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.detached(|| {
                t.advance(9_000);
                panic!("lane work failed")
            })
        }));
        assert!(panicked.is_err());
        // Restored: spans land again, at the cursor the scopes left alone.
        let eval = t.open(SpanKind::Eval);
        t.close_leaf(eval, Stage::Eval, 10);
        drop(g);

        let snap = t.snapshot();
        let kinds: Vec<SpanKind> = snap.request_spans(req).iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SpanKind::Eval, SpanKind::Request]);
        let spans = snap.request_spans(req);
        assert_eq!((spans[0].start_ns, spans[0].depth), (1_000, 1));
        assert_eq!(spans[1].dur_ns, 1_010);
        assert_eq!(snap.counters.image_misses, 1);
        assert_eq!(snap.counters.image_evict_budget, 2);
        assert_eq!(snap.stage(Stage::Link).count, 0);
        assert_eq!(snap.counters.spans_recorded, 2);
    }

    #[test]
    fn flight_and_eviction_counters() {
        let t = Tracer::new();
        let g = t.begin_request(SpanKind::Request);
        t.flight(FlightRole::Leader, 0);
        t.evict(CacheKind::Image, EvictReason::Budget, 3);
        t.evict(CacheKind::Reply, EvictReason::Invalidated, 1);
        drop(g);
        let g2 = t.begin_request(SpanKind::Request);
        t.flight(FlightRole::Coalesced, 5_000);
        drop(g2);
        let c = t.snapshot().counters;
        assert_eq!(c.flight_entries, c.flight_leaders + c.flight_coalesced);
        assert_eq!(c.image_evict_budget, 3);
        assert_eq!(c.evict_invalidated, 1);
    }
}
