//! omos-trace — request-level structured tracing and metrics.
//!
//! PR 2 made the server concurrent; this module makes it *observable*.
//! Every instantiation request gets a tree of spans — blueprint eval,
//! per-library placement/link/framing, the program link, cache probes
//! with their outcome, single-flight leadership vs. coalescing — plus
//! client-side IPC and mapping spans recorded against the same request
//! id. Spans land in a bounded ring (oldest records overwritten) and are
//! aggregated into per-stage latency histograms and counter families
//! snapshotted by [`Tracer::snapshot`] / `Omos::trace_snapshot`.
//!
//! Recording is cheap enough to leave on: each thread records into its
//! own shard of the tracer (counters, histograms, a ring segment and a
//! block of request ids), so a hook does no shared read-modify-write
//! and takes no lock. A snapshot sums the shards' counters and
//! histograms and merges their segments.
//!
//! The counters are the server's one ledger: they count whether or not
//! tracing is on, and `ServerStats` and `CacheStats` are views of them.
//! [`Tracer::set_enabled`] gates only spans, histograms and request ids.
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
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
    /// Retired: stale replies rebuild through the one build path, so
    /// nothing records this stage; its histogram stays empty. Kept so
    /// external report code that lists every stage still compiles.
    RelinkPartial,
    /// Retired like [`Stage::RelinkPartial`]: an image-cache hit during
    /// a build is counted in `relink_reused_images`, not timed here.
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
/// dependency revalidation (and was dropped); it counts toward
/// `misses`, `stale` and `evict_invalidated`.
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
    /// The record's rank in recording order across all threads, from 1
    /// (assigned by the snapshot; ring eviction drops the lowest ones
    /// first).
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

// --- Span kinds as ring words ---------------------------------------------------

const CACHES: [CacheKind; 3] = [CacheKind::Reply, CacheKind::Eval, CacheKind::Image];
const OUTCOMES: [ProbeOutcome; 3] = [ProbeOutcome::Hit, ProbeOutcome::Miss, ProbeOutcome::Stale];
const REASONS: [EvictReason; 4] = [
    EvictReason::Budget,
    EvictReason::Replace,
    EvictReason::Clear,
    EvictReason::Invalidated,
];
const ROLES: [FlightRole; 2] = [FlightRole::Leader, FlightRole::Coalesced];
/// The kinds without a payload, in code order.
const PLAIN: [SpanKind; 11] = [
    SpanKind::Request,
    SpanKind::Eval,
    SpanKind::LibraryBuild,
    SpanKind::Link,
    SpanKind::Placement,
    SpanKind::Frame,
    SpanKind::Map,
    SpanKind::Ipc,
    SpanKind::DynLookup,
    SpanKind::EvalUnit,
    SpanKind::Policy,
];
/// First code of each payload-carrying kind.
const PROBE_CODES: u64 = 11;
const EVICT_CODES: u64 = PROBE_CODES + 9;
const FLIGHT_CODES: u64 = EVICT_CODES + 12;

fn position<T: PartialEq>(all: &[T], x: &T) -> u64 {
    all.iter().position(|y| y == x).unwrap_or(0) as u64
}

impl SpanKind {
    /// The kind as a small integer, so a span record fits in atomic
    /// words ([`SpanKind::from_code`] inverts it).
    fn code(self) -> u64 {
        match self {
            SpanKind::CacheProbe(c, o) => {
                PROBE_CODES + 3 * position(&CACHES, &c) + position(&OUTCOMES, &o)
            }
            SpanKind::Evict(c, r) => {
                EVICT_CODES + 4 * position(&CACHES, &c) + position(&REASONS, &r)
            }
            SpanKind::Flight(r) => FLIGHT_CODES + position(&ROLES, &r),
            SpanKind::Request => 0,
            SpanKind::Eval => 1,
            SpanKind::LibraryBuild => 2,
            SpanKind::Link => 3,
            SpanKind::Placement => 4,
            SpanKind::Frame => 5,
            SpanKind::Map => 6,
            SpanKind::Ipc => 7,
            SpanKind::DynLookup => 8,
            SpanKind::EvalUnit => 9,
            SpanKind::Policy => 10,
        }
    }

    fn from_code(code: u64) -> SpanKind {
        let at = |all_len: usize, i: u64| (i as usize).min(all_len - 1);
        if code < PROBE_CODES {
            PLAIN[at(PLAIN.len(), code)]
        } else if code < EVICT_CODES {
            let i = code - PROBE_CODES;
            SpanKind::CacheProbe(CACHES[at(3, i / 3)], OUTCOMES[at(3, i % 3)])
        } else if code < FLIGHT_CODES {
            let i = code - EVICT_CODES;
            SpanKind::Evict(CACHES[at(3, i / 4)], REASONS[at(4, i % 4)])
        } else {
            SpanKind::Flight(ROLES[at(2, code - FLIGHT_CODES)])
        }
    }
}

// --- Per-thread ring segments ----------------------------------------------------

/// Span slots a segment allocates at a time, on first use: a thread
/// that records few spans holds little memory.
const CHUNK: usize = 256;

/// Words per span slot (see [`Shard::push_span`]).
const WORDS: usize = 4;

/// One span record packed into atomic words, so a snapshot can read a
/// slot while its owner writes the next one.
#[derive(Debug, Default)]
struct Slot([AtomicU64; WORDS]);

/// One thread's span ring. Only the owning thread writes; a snapshot
/// reads it without a lock, seqlock-style: `begun` says how far writes
/// have started, `written` how far they have finished, and a record
/// whose slot a write started on during the read is left out. The slot
/// count is `capacity` rounded up to a power of two, so a record finds
/// its slot with a mask.
#[derive(Debug)]
struct Segment {
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
    slots: usize,
    begun: AtomicU64,
    written: AtomicU64,
}

impl Segment {
    fn new(capacity: usize) -> Segment {
        let slots = capacity.max(1).next_power_of_two();
        Segment {
            chunks: (0..slots.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
            slots,
            begun: AtomicU64::new(0),
            written: AtomicU64::new(0),
        }
    }

    /// Record `i`'s slot, allocating its chunk on first use.
    fn slot(&self, i: u64) -> &Slot {
        let at = i as usize & (self.slots - 1);
        let chunk = self.chunks[at / CHUNK].get_or_init(|| {
            (0..CHUNK.min(self.slots))
                .map(|_| Slot::default())
                .collect()
        });
        &chunk[at % CHUNK]
    }

    /// Record `i`'s slot if its chunk exists.
    fn get(&self, i: u64) -> Option<&Slot> {
        let at = i as usize & (self.slots - 1);
        Some(&self.chunks[at / CHUNK].get()?[at % CHUNK])
    }

    /// Appends one record (owning thread only), overwriting the oldest
    /// once the segment is full.
    fn push(&self, words: [u64; WORDS]) {
        let i = self.written.load(Ordering::Relaxed);
        self.begun.store(i + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (cell, w) in self.slot(i).0.iter().zip(words) {
            cell.store(w, Ordering::Relaxed);
        }
        self.written.store(i + 1, Ordering::Release);
    }

    /// How many records the segment has ever taken, and the retained
    /// ones with their per-segment index.
    fn read(&self) -> (u64, Vec<(u64, [u64; WORDS])>) {
        let end = self.written.load(Ordering::Acquire);
        let mut out: Vec<(u64, [u64; WORDS])> = (end.saturating_sub(self.slots as u64)..end)
            .filter_map(|i| {
                let slot = self.get(i)?;
                Some((
                    i,
                    std::array::from_fn(|w| slot.0[w].load(Ordering::Relaxed)),
                ))
            })
            .collect();
        fence(Ordering::Acquire);
        // A write that began during the read may have torn the oldest
        // records read; drop every slot it could have reached.
        let lo = self
            .begun
            .load(Ordering::Relaxed)
            .saturating_sub(self.slots as u64);
        out.retain(|&(i, _)| i >= lo);
        (end, out)
    }
}

// --- Histograms -----------------------------------------------------------------

/// Adds `n` to a cell that only its owning thread writes: a load and a
/// store, never a read-modify-write. Readers sum the cells of every
/// thread.
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

#[derive(Debug)]
struct Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Hist {
    /// The sample count is derived from the bucket totals at snapshot
    /// time instead of kept in a third cell.
    fn record(&self, ns: u64) {
        bump(&self.buckets[bucket_of(ns)], 1);
        bump(&self.sum_ns, ns);
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
            /// Adds this thread's cells into `total`.
            fn add_to(&self, total: &mut TraceCounters) {
                $(total.$name += self.$name.load(Ordering::Relaxed);)+
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
    /// Instantiation requests served, derived at snapshot time as
    /// `reply_hits + flight_coalesced + replies_built`: every request is
    /// answered from the reply cache, coalesced onto another's build,
    /// or builds.
    requests,
    /// `dyn_lookup` requests started.
    dyn_lookups,
    /// Builds led: cache-missing reply builds started, and
    /// `dynamic_load` calls.
    replies_built,
    /// Library images linked.
    libraries_built,
    /// Program images linked.
    programs_built,
    /// Server CPU billed to clients, simulated ns.
    cpu_ns,
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
    /// Image-cache misses (tier 1; a tier-2 fault-in may answer them).
    image_misses,
    /// Images inserted into the image cache (fault-ins excluded).
    image_insertions,
    /// Image-cache evictions forced by the byte budget.
    image_evict_budget,
    /// Image-cache entries replaced under the same key.
    image_evict_replace,
    /// Image-cache entries dropped by `clear()`.
    image_evict_clear,
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
    /// Library images reply builds took from the image cache (same
    /// placement, same externs, so the same image key) instead of
    /// linking.
    relink_reused_images,
    /// Libraries reply builds linked (the image cache did not hold
    /// them).
    relink_relinked_libraries,
    /// Always 0: there is one build path, so no build falls back to
    /// another. Kept until the host benchmark stops reading it.
    relink_fallbacks,
    /// Simulated ns of link work reply builds *avoided*: the recorded
    /// rebuild cost of every library and program image the image cache
    /// served. Adding this to a reply's `server_ns` reproduces exactly
    /// what a cold server would bill for the same state (the simulation
    /// is deterministic).
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

/// The requests active on one thread: the innermost inline, and the
/// ones it hides spilled to the heap (nested requests, e.g.
/// `query_symbols` instantiating internally, are rare).
type Active = (Option<ReqState>, Vec<ReqState>);

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
        let tracer = self.tracer;
        with_local(|Local { active, shards }| {
            let (top, outer) = active;
            let Some(state) = std::mem::replace(top, outer.pop()) else {
                return;
            };
            let root = SpanRecord {
                req: self.req,
                seq: 0, // assigned by the snapshot
                kind: self.kind,
                depth: 0,
                start_ns: 0,
                dur_ns: state.cursor_ns,
                worker: 0,
            };
            let shard = shard_of(shards, tracer);
            shard.hist(Stage::Request).record(state.cursor_ns);
            shard.push_span(&root);
        });
    }
}

/// Puts a request context set aside by [`Tracer::detached`] back on
/// this thread when dropped, so a panic inside the detached closure
/// cannot leave the request without its timeline.
struct Reattach(Active);

impl Drop for Reattach {
    fn drop(&mut self) {
        let stack = std::mem::take(&mut self.0);
        with_local(|local| local.active = stack);
    }
}

// --- Per-thread shards ------------------------------------------------------------

/// Request ids a shard takes from its tracer at a time.
const REQ_BLOCK: u64 = 64;

/// Everything one thread records into one tracer: counters, histograms,
/// spans, and a block of request ids. Only that thread writes it, so no
/// record path does a shared read-modify-write or takes a lock; the
/// tracer sums and merges the shards when it is read.
#[derive(Debug)]
struct Shard {
    c: CounterCells,
    hists: [Hist; Stage::ALL.len()],
    ring: Segment,
    /// The next request id to hand out and the end of this shard's
    /// block.
    next_req: AtomicU64,
    req_end: AtomicU64,
    /// Set when the owning thread exits; a thread that first records
    /// into the tracer after that takes the shard over.
    retired: AtomicBool,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            c: CounterCells::default(),
            hists: std::array::from_fn(|_| Hist::default()),
            ring: Segment::new(capacity),
            next_req: AtomicU64::new(0),
            req_end: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        }
    }

    fn hist(&self, stage: Stage) -> &Hist {
        &self.hists[stage.index()]
    }

    /// Appends `r` to the ring.
    fn push_span(&self, r: &SpanRecord) {
        self.ring.push([
            r.req,
            r.start_ns,
            r.dur_ns,
            r.kind.code() | u64::from(r.depth) << 16 | u64::from(r.worker) << 32,
        ]);
    }

    /// A fresh request id, taking a new block from `ids` when this
    /// shard's block is used up.
    fn request_id(&self, ids: &AtomicU64) -> u64 {
        let mut id = self.next_req.load(Ordering::Relaxed);
        if id == self.req_end.load(Ordering::Relaxed) {
            id = ids.fetch_add(REQ_BLOCK, Ordering::Relaxed);
            self.req_end.store(id + REQ_BLOCK, Ordering::Relaxed);
        }
        self.next_req.store(id + 1, Ordering::Relaxed);
        id
    }
}

/// What a thread keeps for the tracers it records into.
struct Local {
    /// The requests active on this thread.
    active: Active,
    /// This thread's shards, keyed by tracer id. Exiting the thread
    /// retires them for reuse.
    shards: Vec<(u64, Arc<Shard>)>,
}

impl Drop for Local {
    fn drop(&mut self) {
        for (_, shard) in &self.shards {
            shard.retired.store(true, Ordering::Release);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            active: (None, Vec::new()),
            shards: Vec::new(),
        })
    };
}

/// Runs `f` on this thread's [`Local`]; `None` only while the thread is
/// being torn down.
fn with_local<T>(f: impl FnOnce(&mut Local) -> T) -> Option<T> {
    LOCAL.try_with(|l| f(&mut l.borrow_mut())).ok()
}

/// This thread's shard of `tracer`, claimed on the thread's first
/// record into it.
fn shard_of<'a>(shards: &'a mut Vec<(u64, Arc<Shard>)>, tracer: &Tracer) -> &'a Shard {
    if let Some(i) = shards.iter().position(|(id, _)| *id == tracer.id) {
        return &shards[i].1;
    }
    // Shards of tracers that are gone are held only here.
    shards.retain(|(_, shard)| Arc::strong_count(shard) > 1);
    shards.push((tracer.id, tracer.claim_shard()));
    &shards[shards.len() - 1].1
}

/// Tracer ids, so a thread can tell its shards apart.
static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

/// An instant `kind` at `s`'s cursor.
fn instant(kind: SpanKind, s: &ReqState) -> SpanRecord {
    SpanRecord {
        req: s.req,
        seq: 0,
        kind,
        depth: s.depth,
        start_ns: s.cursor_ns,
        dur_ns: 0,
        worker: 0,
    }
}

// --- The tracer -----------------------------------------------------------------

/// The tracing and metrics hub one server owns.
#[derive(Debug)]
pub struct Tracer {
    id: u64,
    enabled: AtomicBool,
    capacity: usize,
    /// Request ids not yet handed to a shard.
    next_req: AtomicU64,
    shards: Mutex<Vec<Arc<Shard>>>,
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

    /// A tracer with an explicit ring capacity: the most spans a
    /// snapshot returns, the newest first to stay.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(true),
            capacity: capacity.max(1),
            next_req: AtomicU64::new(1),
            shards: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off. Off, no hook records a span or a
    /// histogram sample or hands out a request id; counters still
    /// count, exactly as they do when on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Runs `f` on this thread's shard.
    fn with_shard<T>(&self, f: impl FnOnce(&Shard) -> T) -> Option<T> {
        with_local(|local| f(shard_of(&mut local.shards, self)))
    }

    /// A shard for a thread recording here for the first time: one whose
    /// thread exited, or a new one.
    fn claim_shard(&self) -> Arc<Shard> {
        let retired = lock(&self.shards)
            .iter()
            .find(|s| {
                s.retired
                    .compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            })
            .cloned();
        retired.unwrap_or_else(|| {
            // Built outside the lock: threads that start together only
            // queue for the push.
            let shard = Arc::new(Shard::new(self.capacity));
            lock(&self.shards).push(Arc::clone(&shard));
            shard
        })
    }

    /// Applies `f` to this thread's counter cells and the innermost
    /// active request (if any), and records the spans it returns, and a
    /// histogram sample, on this thread's shard: one thread-local access
    /// for the whole hook.
    fn record(
        &self,
        sample: Option<(Stage, u64)>,
        f: impl FnOnce(&CounterCells, Option<&mut ReqState>) -> Option<SpanRecord>,
    ) {
        with_local(|Local { active, shards }| {
            let shard = shard_of(shards, self);
            let span = f(&shard.c, active.0.as_mut());
            if let Some((stage, ns)) = sample {
                shard.hist(stage).record(ns);
            }
            if let Some(r) = span {
                shard.push_span(&r);
            }
        });
    }

    /// [`Tracer::record`] for a hook that counts whether or not tracing
    /// is on: `f` sees the active request only while it is.
    fn count(&self, f: impl FnOnce(&CounterCells, Option<&mut ReqState>) -> Option<SpanRecord>) {
        let traced = self.enabled();
        self.record(None, |c, state| f(c, state.filter(|_| traced)));
    }

    fn with_state<T>(&self, f: impl FnOnce(&mut ReqState) -> T) -> Option<T> {
        with_local(|local| local.active.0.as_mut().map(f)).flatten()
    }

    /// Opens the root span of a traced request. `dyn_lookup` passes
    /// `SpanKind::DynLookup` (and is counted here); instantiation paths
    /// pass `SpanKind::Request` (counted by how they end, see
    /// [`TraceCounters::requests`]).
    pub fn begin_request(&self, kind: SpanKind) -> ReqGuard<'_> {
        let lookup = kind == SpanKind::DynLookup;
        let traced = self.enabled();
        let req = if traced || lookup {
            with_local(|Local { active, shards }| {
                let shard = shard_of(shards, self);
                if lookup {
                    bump(&shard.c.dyn_lookups, 1);
                }
                traced.then(|| {
                    let req = shard.request_id(&self.next_req);
                    let (top, outer) = active;
                    outer.extend(top.replace(ReqState {
                        req,
                        cursor_ns: 0,
                        depth: 1,
                    }));
                    req
                })
            })
            .flatten()
        } else {
            None
        };
        ReqGuard {
            tracer: self,
            req: req.unwrap_or(0),
            kind,
            active: req.is_some(),
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
        self.record(None, |_, state| {
            let end = state.map_or(span.start_ns, |s| {
                s.depth = s.depth.saturating_sub(1);
                s.cursor_ns
            });
            Some(SpanRecord {
                req: span.req,
                seq: 0,
                kind: span.kind,
                depth: span.depth,
                start_ns: span.start_ns,
                dur_ns: end.saturating_sub(span.start_ns),
                worker: 0,
            })
        });
    }

    /// Closes a *leaf* span, advancing the request cursor by `ns` and
    /// recording `ns` into `stage`'s histogram.
    pub fn close_leaf(&self, span: OpenSpan, stage: Stage, ns: u64) {
        if span.req == 0 {
            return;
        }
        self.record(Some((stage, ns)), |_, state| {
            if let Some(s) = state {
                s.cursor_ns += ns;
                s.depth = s.depth.saturating_sub(1);
            }
            Some(SpanRecord {
                req: span.req,
                seq: 0,
                kind: span.kind,
                depth: span.depth,
                start_ns: span.start_ns,
                dur_ns: ns,
                worker: 0,
            })
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
        self.record(None, |_, state| {
            state.map(|s| SpanRecord {
                req: s.req,
                seq: 0,
                kind,
                depth: s.depth,
                start_ns: s.cursor_ns + start_offset_ns,
                dur_ns,
                worker,
            })
        });
    }

    /// Runs `f` with this thread's request context set aside. Counters
    /// (cache probes, evictions, builds) still count, but no
    /// span lands on the timeline, no span close feeds a histogram, and
    /// the request cursor does not move. Work on a simulated lane runs
    /// this way; the caller lays it out afterwards with
    /// [`Tracer::span_at`] and [`Tracer::note`]. The context is restored
    /// when `f` returns or panics.
    pub fn detached<T>(&self, f: impl FnOnce() -> T) -> T {
        let _reattach =
            Reattach(with_local(|local| std::mem::take(&mut local.active)).unwrap_or_default());
        f()
    }

    /// Records `ns` into `stage`'s histogram without a span or cursor
    /// movement. The lane schedule uses this to feed a stage's histogram
    /// the durations it lays out as overlapped spans.
    pub fn note(&self, stage: Stage, ns: u64) {
        if self.enabled() {
            self.record(Some((stage, ns)), |_, _| None);
        }
    }

    /// Records a cache probe. Hits are counter-only — they are the
    /// steady-state fast path, and a hit marker adds nothing a root
    /// span with a cached duration doesn't already say. Misses put an
    /// instant on the timeline, so the interesting (cold/invalidated)
    /// trees show *why* work happened. A stale probe is also the drop of
    /// the entry it judged: it counts the eviction too and puts a second
    /// instant, `Evict(cache, Invalidated)`, at the same cursor. The
    /// per-cache `probes` counter is derived as `hits + misses` at
    /// snapshot time.
    pub fn probe(&self, cache: CacheKind, outcome: ProbeOutcome) {
        let traced = self.enabled();
        with_local(|Local { active, shards }| {
            let shard = shard_of(shards, self);
            let c = &shard.c;
            let (h, m, st) = match cache {
                CacheKind::Reply => (&c.reply_hits, &c.reply_misses, Some(&c.reply_stale)),
                CacheKind::Eval => (&c.eval_hits, &c.eval_misses, Some(&c.eval_stale)),
                CacheKind::Image => (&c.image_hits, &c.image_misses, None),
            };
            if outcome == ProbeOutcome::Hit {
                bump(h, 1);
                return;
            }
            bump(m, 1);
            let stale = outcome == ProbeOutcome::Stale;
            if stale {
                if let Some(st) = st {
                    bump(st, 1);
                }
                bump(&c.evict_invalidated, 1);
            }
            if let Some(s) = active.0.as_ref().filter(|_| traced) {
                shard.push_span(&instant(SpanKind::CacheProbe(cache, outcome), s));
                if stale {
                    let drop = SpanKind::Evict(cache, EvictReason::Invalidated);
                    shard.push_span(&instant(drop, s));
                }
            }
        });
    }

    /// Records a reply-cache hit, the steady-state request, as one hook:
    /// the hit, the `server_ns` it bills, and the request cursor's
    /// advance by as much.
    pub fn reply_hit(&self, server_ns: u64) {
        self.count(|c, state| {
            bump(&c.reply_hits, 1);
            bump(&c.cpu_ns, server_ns);
            if let Some(s) = state {
                s.cursor_ns += server_ns;
            }
            None
        });
    }

    /// Records `n` evictions with their reason. Only the image cache
    /// evicts on its own; a reply or eval entry is dropped by the probe
    /// that found it stale, and [`Tracer::probe`] records that.
    pub fn evict(&self, cache: CacheKind, reason: EvictReason, n: u64) {
        if n == 0 {
            return;
        }
        self.count(|c, state| {
            let cell = match reason {
                EvictReason::Budget => &c.image_evict_budget,
                EvictReason::Replace => &c.image_evict_replace,
                EvictReason::Clear => &c.image_evict_clear,
                EvictReason::Invalidated => &c.evict_invalidated,
            };
            bump(cell, n);
            state.map(|s| instant(SpanKind::Evict(cache, reason), s))
        });
    }

    /// Records one image inserted by a build (a tier-2 fault-in is not
    /// an insertion).
    pub fn image_inserted(&self) {
        self.with_shard(|shard| bump(&shard.c.image_insertions, 1));
    }

    /// Records the start of a build this request leads (a reply build
    /// or a `dynamic_load`), and advances the request cursor by its
    /// baseline handling `base_ns`.
    pub fn begin_build(&self, base_ns: u64) {
        self.count(|c, state| {
            bump(&c.replies_built, 1);
            if let Some(s) = state {
                s.cursor_ns += base_ns;
            }
            None
        });
    }

    /// Records one linked image, a library or a program.
    pub fn image_built(&self, library: bool) {
        self.with_shard(|shard| {
            bump(&shard.c.libraries_built, u64::from(library));
            bump(&shard.c.programs_built, u64::from(!library));
        });
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
        self.with_shard(|shard| {
            let c = &shard.c;
            for (cell, n) in [
                (&c.restore_ns_entries, ns),
                (&c.restore_images, images),
                (&c.restore_replies, replies),
                (&c.restore_journal, journal),
                (&c.restore_manifest_verified, verified),
                (&c.restore_dropped, drops.total()),
                (&c.restore_drop_ns_decode, drops.ns_decode),
                (&c.restore_drop_image_read, drops.image_read),
                (&c.restore_drop_image_checksum, drops.image_checksum),
                (&c.restore_drop_image_decode, drops.image_decode),
                (&c.restore_drop_image_content, drops.image_content),
                (&c.restore_drop_journal_torn, drops.journal_torn),
                (&c.restore_drop_journal_kind, drops.journal_kind),
                (&c.restore_drop_journal_apply, drops.journal_apply),
                (&c.restore_drop_reply_image, drops.reply_image),
                (&c.restore_drop_reply_manifest, drops.reply_manifest),
                (&c.restore_cold, u64::from(cold)),
            ] {
                bump(cell, n);
            }
        });
    }

    /// Records a finished build: the server CPU it billed to the
    /// client, and what a reply build took from the image cache —
    /// library images reused, libraries linked, and the link work the
    /// reused images (program included) avoided (zero for the builds a
    /// `dyn_lookup` or `dynamic_load` runs).
    pub fn built(&self, cpu_ns: u64, reused: u64, linked: u64, avoided_ns: u64) {
        self.with_shard(|shard| {
            bump(&shard.c.cpu_ns, cpu_ns);
            bump(&shard.c.relink_reused_images, reused);
            bump(&shard.c.relink_relinked_libraries, linked);
            bump(&shard.c.relink_avoided_ns, avoided_ns);
        });
    }

    /// Records the outcome of one link-policy application: stubs
    /// inserted (by kind) or a deny rejection.
    pub fn policy(&self, trampolines: u64, audits: u64, denied: bool) {
        self.with_shard(|shard| {
            bump(&shard.c.policy_trampolines, trampolines);
            bump(&shard.c.policy_audits, audits);
            bump(&shard.c.policy_denials, u64::from(denied));
        });
    }

    /// Records one live process update and the slots it swapped.
    pub fn live_update(&self, slots_swapped: u64) {
        self.with_shard(|shard| {
            bump(&shard.c.live_updates, 1);
            bump(&shard.c.live_slots_swapped, slots_swapped);
        });
    }

    /// Records this request's single-flight disposition. Followers pass
    /// the nanoseconds they waited for the leader (advances the cursor
    /// so the request span covers the wait).
    pub fn flight(&self, role: FlightRole, waited_ns: u64) {
        self.count(|c, state| {
            bump(&c.flight_entries, 1);
            bump(
                match role {
                    FlightRole::Leader => &c.flight_leaders,
                    FlightRole::Coalesced => &c.flight_coalesced,
                },
                1,
            );
            state.map(|s| {
                let mark = instant(SpanKind::Flight(role), s);
                s.cursor_ns += waited_ns;
                mark
            })
        });
    }

    /// Records a client-side span (IPC round trip or mapping) against a
    /// finished request by id. These are roots of their own (depth 0):
    /// the client timeline is not nested inside the server's.
    pub fn client_span(&self, req: u64, stage: Stage, ns: u64) {
        let traced = self.enabled();
        let kind = match stage {
            Stage::Map => SpanKind::Map,
            _ => SpanKind::Ipc,
        };
        let span = SpanRecord {
            req,
            seq: 0,
            kind,
            depth: 0,
            start_ns: 0,
            dur_ns: ns,
            worker: 0,
        };
        self.record(traced.then_some((stage, ns)), |c, _| {
            if stage == Stage::Ipc {
                bump(&c.ipc_roundtrips, 1);
            }
            traced.then_some(span)
        });
    }

    /// Folds a client session's transport statistics into the trace
    /// counters (batch frames, grants, backpressure). Call once per
    /// session or per delta — the stats are cumulative on the session
    /// side, so pass the increment, not the running total, when folding
    /// repeatedly.
    pub fn client_ipc(&self, stats: &omos_os::ipc::IpcStats) {
        self.with_shard(|shard| {
            bump(&shard.c.ipc_batches, stats.batches);
            bump(&shard.c.ipc_batched_requests, stats.batched_requests);
            bump(&shard.c.shm_mappings, stats.mappings);
            bump(&shard.c.shm_backpressure_spins, stats.backpressure_spins);
        });
    }

    /// The shards recorded so far (a copy of the list, so readers never
    /// hold the lock while they sum).
    fn shards(&self) -> Vec<Arc<Shard>> {
        lock(&self.shards).clone()
    }

    /// Every shard's counters summed, with the counters that are pure
    /// functions of others (`requests`, `*_probes`, `spans_recorded`)
    /// filled in.
    fn sum_counters(shards: &[Arc<Shard>]) -> TraceCounters {
        let mut c = TraceCounters::default();
        for shard in shards {
            shard.c.add_to(&mut c);
            c.spans_recorded += shard.ring.written.load(Ordering::Relaxed);
        }
        c.requests = c.reply_hits + c.flight_coalesced + c.replies_built;
        c.reply_probes = c.reply_hits + c.reply_misses;
        c.eval_probes = c.eval_hits + c.eval_misses;
        c.image_probes = c.image_hits + c.image_misses;
        c
    }

    /// A consistent-enough snapshot of everything the tracer holds: the
    /// threads' counters and histograms summed, and their span segments
    /// merged by request id (ids grow with time, and each thread's ids
    /// grow), then by thread, then in recording order; the newest
    /// `capacity` are kept. Exact once the recording threads are quiet.
    /// A span's `seq` is its rank in that order over every span ever
    /// recorded, so the oldest one kept is
    /// `spans_recorded - spans.len() + 1`.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let shards = self.shards();
        let mut stages: Vec<HistSnapshot> =
            Stage::ALL.iter().map(|&s| HistSnapshot::empty(s)).collect();
        let mut merged: Vec<(u64, usize, u64, [u64; WORDS])> = Vec::new();
        let mut recorded = 0;
        for (n, shard) in shards.iter().enumerate() {
            for (h, out) in shard.hists.iter().zip(&mut stages) {
                for (b, cell) in out.buckets.iter_mut().zip(&h.buckets) {
                    *b += cell.load(Ordering::Relaxed);
                }
                out.sum_ns += h.sum_ns.load(Ordering::Relaxed);
            }
            let (end, words) = shard.ring.read();
            recorded += end;
            merged.extend(words.into_iter().map(|(i, w)| (w[0], n, i, w)));
        }
        for h in &mut stages {
            h.count = h.buckets.iter().sum();
        }
        merged.sort_unstable_by_key(|&(req, n, i, _)| (req, n, i));
        let kept = &merged[merged.len().saturating_sub(self.capacity)..];
        let first_seq = recorded - kept.len() as u64 + 1;
        let spans = kept
            .iter()
            .zip(first_seq..)
            .map(|(&(_, _, _, w), seq)| SpanRecord {
                req: w[0],
                seq,
                kind: SpanKind::from_code(w[3] & 0xffff),
                depth: (w[3] >> 16) as u16,
                start_ns: w[1],
                dur_ns: w[2],
                worker: (w[3] >> 32) as u16,
            })
            .collect();
        let mut counters = Tracer::sum_counters(&shards);
        counters.spans_recorded = recorded;
        TraceSnapshot {
            counters,
            stages,
            spans,
            ring_capacity: self.capacity,
        }
    }

    /// Counters only — no histogram or span copies. Cheap enough to
    /// sample around every request in a benchmark drive loop.
    #[must_use]
    pub fn counters(&self) -> TraceCounters {
        Tracer::sum_counters(&self.shards())
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
    fn disabled_tracer_records_no_spans_but_counts_like_an_enabled_one() {
        // Every counting hook, inside a request and out.
        let run = |t: &Tracer| {
            let g = t.begin_request(SpanKind::Request);
            let req = g.req();
            t.probe(CacheKind::Reply, ProbeOutcome::Miss);
            t.flight(FlightRole::Leader, 0);
            t.begin_build(100);
            let s = t.open(SpanKind::Eval);
            t.close_leaf(s, Stage::Eval, 500);
            t.probe(CacheKind::Image, ProbeOutcome::Stale);
            t.image_built(true);
            t.image_inserted();
            t.evict(CacheKind::Image, EvictReason::Replace, 1);
            t.evict(CacheKind::Image, EvictReason::Budget, 2);
            t.probe(CacheKind::Eval, ProbeOutcome::Stale);
            t.built(600, 1, 2, 3);
            t.policy(1, 2, false);
            drop(g);
            t.client_span(req, Stage::Ipc, 10);
            let g = t.begin_request(SpanKind::Request);
            t.reply_hit(50);
            drop(g);
            let g = t.begin_request(SpanKind::Request);
            t.probe(CacheKind::Reply, ProbeOutcome::Miss);
            t.flight(FlightRole::Coalesced, 7);
            drop(g);
            drop(t.begin_request(SpanKind::DynLookup));
            t.live_update(4);
            t.restore(1, 2, 3, 4, 5, &RestoreDrops::default(), false);
            t.client_ipc(&omos_os::ipc::IpcStats::default());
            req
        };
        let on = Tracer::new();
        assert!(run(&on) > 0);
        let off = Tracer::new();
        off.set_enabled(false);
        assert_eq!(run(&off), 0, "no request ids");
        let snap = off.snapshot();
        assert!(snap.spans.is_empty(), "no spans");
        assert!(
            snap.stages.iter().all(|h| h.count == 0),
            "no histogram samples"
        );
        let counted = on.counters();
        assert!(counted.spans_recorded > 0);
        assert_eq!(
            snap.counters,
            TraceCounters {
                spans_recorded: 0,
                ..counted
            },
            "every counter but the span count, as an enabled tracer counts"
        );
        // One build, one hit, one follower; and the lookup.
        assert_eq!((counted.requests, counted.dyn_lookups), (3, 1));
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
    fn span_kinds_round_trip_through_their_codes() {
        let mut kinds: Vec<SpanKind> = PLAIN.to_vec();
        for c in CACHES {
            kinds.extend(OUTCOMES.map(|o| SpanKind::CacheProbe(c, o)));
        }
        for c in CACHES {
            kinds.extend(REASONS.map(|r| SpanKind::Evict(c, r)));
        }
        kinds.extend(ROLES.map(SpanKind::Flight));
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.code(), i as u64, "{k:?}");
            assert_eq!(SpanKind::from_code(k.code()), *k);
        }
    }

    #[test]
    fn threads_record_into_their_own_shards_and_snapshots_sum_them() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 300;
        let t = Tracer::with_capacity(8192);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..PER_THREAD {
                        let g = t.begin_request(SpanKind::Request);
                        t.probe(CacheKind::Reply, ProbeOutcome::Hit);
                        t.advance(i);
                        let req = g.req();
                        drop(g);
                        t.client_span(req, Stage::Ipc, 10);
                    }
                });
            }
        });
        let snap = t.snapshot();
        let n = THREADS as u64 * PER_THREAD;
        assert_eq!(snap.counters.requests, n);
        assert_eq!(snap.counters.reply_hits, n);
        assert_eq!(snap.counters.ipc_roundtrips, n);
        assert_eq!(snap.stage(Stage::Request).count, n);
        assert_eq!(
            snap.stage(Stage::Request).sum_ns,
            THREADS as u64 * (0..PER_THREAD).sum::<u64>()
        );
        assert_eq!(snap.counters, t.counters());
        // Every span is kept, with distinct ranks 1..=n, and each
        // request's root comes before its client span.
        assert_eq!(snap.counters.spans_recorded, 2 * n);
        let seqs: Vec<u64> = snap.spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, (1..=2 * n).collect::<Vec<_>>());
        let reqs: std::collections::BTreeSet<u64> = snap.spans.iter().map(|s| s.req).collect();
        assert_eq!(reqs.len() as u64, n, "request ids are unique");
        for req in reqs {
            let kinds: Vec<SpanKind> = snap.request_spans(req).iter().map(|s| s.kind).collect();
            assert_eq!(kinds, vec![SpanKind::Request, SpanKind::Ipc]);
        }
    }

    #[test]
    fn a_new_thread_takes_over_an_exited_threads_shard() {
        let t = Arc::new(Tracer::new());
        for round in 1..=5u64 {
            let t2 = Arc::clone(&t);
            // `join` returns once the thread has exited, its thread-locals
            // (and so its shard's claim) released.
            std::thread::spawn(move || t2.probe(CacheKind::Eval, ProbeOutcome::Hit))
                .join()
                .unwrap();
            assert_eq!(t.counters().eval_hits, round);
        }
        assert_eq!(
            t.shards().len(),
            1,
            "threads that come and go share one shard"
        );
    }

    #[test]
    fn a_dropped_tracers_shard_leaves_the_thread() {
        let held = || with_local(|l| l.shards.len()).unwrap_or(0);
        let before = held();
        for _ in 0..10 {
            let t = Tracer::new();
            t.probe(CacheKind::Eval, ProbeOutcome::Miss);
        }
        assert!(
            held() <= before + 1,
            "at most the last tracer's shard lingers"
        );
    }

    #[test]
    fn flight_and_eviction_counters() {
        let t = Tracer::new();
        let g = t.begin_request(SpanKind::Request);
        let req = g.req();
        t.flight(FlightRole::Leader, 0);
        t.evict(CacheKind::Image, EvictReason::Budget, 3);
        t.probe(CacheKind::Reply, ProbeOutcome::Stale);
        drop(g);
        let g2 = t.begin_request(SpanKind::Request);
        t.flight(FlightRole::Coalesced, 5_000);
        drop(g2);
        let snap = t.snapshot();
        let c = snap.counters;
        assert_eq!(c.flight_entries, c.flight_leaders + c.flight_coalesced);
        assert_eq!(c.image_evict_budget, 3);
        assert_eq!((c.reply_misses, c.reply_stale), (1, 1));
        assert_eq!(c.evict_invalidated, 1);
        // A stale probe marks the probe, then the drop, at one cursor.
        let spans = snap.request_spans(req);
        let at = |kind| spans.iter().position(|s| s.kind == kind).unwrap();
        let probe = at(SpanKind::CacheProbe(CacheKind::Reply, ProbeOutcome::Stale));
        let drop = at(SpanKind::Evict(CacheKind::Reply, EvictReason::Invalidated));
        assert_eq!(drop, probe + 1);
        assert_eq!(spans[drop].start_ns, spans[probe].start_ns);
    }
}
