//! The image cache.
//!
//! "By treating executables as a cache, OMOS avoids unnecessary
//! repetition of work." Bound, relocated, page-framed images are stored
//! here keyed by content + placement; repeated instantiations are pure
//! hits. A byte budget with eviction models the paper's caveat that
//! "disk space for caching multiple versions of large libraries could be
//! significant".
//!
//! Each shard holds one record per resident image: the image, the
//! shard clock at its last touch, its touch count since admission and
//! its priority. A hit is one map lookup; a budget eviction is one pass
//! over the shard's records and one removal. There is one victim rule,
//! GreedyDual-Size-Frequency: evict the entry with the smallest
//! priority `L + rebuild_ns × frequency / size` (ties go to the least
//! recently touched), where `rebuild_ns` is the simulated link work
//! the trace layer billed when the image was built and `L` is a
//! per-shard inflation value raised to each victim's priority (so
//! long-idle entries age out no matter how expensive they once were).
//! The two [`EvictionPolicy`] values differ only in the cost term:
//!
//! * [`EvictionPolicy::CostAware`] (the default) uses it as above.
//! * [`EvictionPolicy::GenerationOrder`] fixes it at 0, so every
//!   priority is `L`, `L` stays 0, and the victim is the least recently
//!   touched entry: exact LRU, the baseline the catalog bench compares
//!   against. A cost-aware cache whose rebuild costs are all zero
//!   behaves the same way.
//!
//! An optional second tier ([`SpillTier`]) receives budget-evicted
//! images as sealed frames in the persist layer's content-addressed
//! `img/{key}` format; a later miss faults the image back in through
//! the restore verification chain (file hash, frame checksum, content
//! hash) instead of relinking.
//!
//! The cache is internally synchronized and sharded by key so many
//! server threads can hit it concurrently: each shard has its own lock
//! and eviction state; the byte total is an atomic. Hits, misses,
//! insertions and evictions are counted by the cache's tracer (the
//! server's, once attached), on the recording thread's own shard.
//! Eviction only ever drops the cache's *reference* — images
//! are held as `Arc<CachedImage>`, so a client that still maps an
//! evicted image keeps its frames alive until it unmaps.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use omos_link::{LinkStats, LinkedImage};
use omos_obj::ContentHash;
use omos_os::ImageFrames;

use crate::error::OmosError;
use crate::spill::SpillTier;
use crate::sync::{lock, SingleFlight};
use crate::trace::{CacheKind, EvictReason, ProbeOutcome, Tracer};

/// A fully bound, framed, ready-to-map image.
#[derive(Debug)]
pub struct CachedImage {
    /// Cache key (content + specialization + placement).
    pub key: ContentHash,
    /// The linked image (symbol map, segments).
    pub image: LinkedImage,
    /// Page frames shared by every client that maps this image.
    pub frames: ImageFrames,
    /// Work that produced it (for server-time accounting).
    pub link_stats: LinkStats,
    /// Simulated ns the link span billed to build this image — the
    /// cost-aware policy's rebuild-cost input (0 = "free to rebuild",
    /// which degrades scoring to LRU).
    pub rebuild_ns: u64,
    /// Monotone instance number stamped by [`ImageCache::insert`]: a
    /// key re-inserted after an eviction carries a *new* epoch, so a
    /// client holding a grant on the old instance can tell its mapping
    /// is stale and must be re-billed.
    pub epoch: u64,
}

impl CachedImage {
    /// Cached bytes this image occupies.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.image.loaded_bytes()
    }
}

/// How the byte budget picks victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// GreedyDual-Size-Frequency with the cost term fixed at 0: evict
    /// the least recently touched entry (the catalog bench's baseline).
    GenerationOrder,
    /// GreedyDual-Size-Frequency: evict the entry with the smallest
    /// `L + rebuild_ns × frequency / size` score (ties to the least
    /// recently touched), inflating `L` to each victim's score.
    #[default]
    CostAware,
}

/// Hit/miss counters: a view of the cache's tracer counters (see
/// [`ImageCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
}

/// One resident image and its eviction state.
#[derive(Debug)]
struct Resident {
    img: Arc<CachedImage>,
    /// The shard clock at the last touch (unique per shard).
    touched: u64,
    /// Touches since admission (the GDSF frequency term).
    freq: u64,
    /// The GDSF priority at the last touch.
    prio: u64,
}

/// One shard: one record per resident image under one lock, plus the
/// GDSF inflation value `L` and the touch clock.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<ContentHash, Resident>,
    /// Raised to each victim's priority.
    inflation: u64,
    clock: u64,
}

/// The cost-aware score: `rebuild_ns × freq` per size, fixed-point
/// scaled by 4096 so sub-page-per-ns ratios survive integer division.
fn cost_term(rebuild_ns: u64, freq: u64, size: u64) -> u64 {
    rebuild_ns.saturating_mul(freq).saturating_mul(4096) / size.max(1)
}

impl Shard {
    /// Marks `key` most recently used and refreshes its score: one map
    /// lookup. Generation order is GDSF with the cost term fixed at 0.
    fn touch(&mut self, key: ContentHash, policy: EvictionPolicy) -> Option<&Arc<CachedImage>> {
        let r = self.map.get_mut(&key)?;
        self.clock += 1;
        r.touched = self.clock;
        r.freq += 1;
        let rebuild_ns = match policy {
            EvictionPolicy::GenerationOrder => 0,
            EvictionPolicy::CostAware => r.img.rebuild_ns,
        };
        r.prio = self
            .inflation
            .saturating_add(cost_term(rebuild_ns, r.freq, r.img.size_bytes()));
        Some(&r.img)
    }

    /// Removes and returns the entry with the smallest `(prio, touched)`
    /// other than `protect`, inflating `L` to its priority: everything
    /// still resident is now worth at least this much.
    fn evict_victim(&mut self, protect: ContentHash) -> Option<Arc<CachedImage>> {
        let (prio, _, key) = self
            .map
            .iter()
            .filter(|&(&k, _)| k != protect)
            .map(|(&k, r)| (r.prio, r.touched, k))
            .min()?;
        self.inflation = self.inflation.max(prio);
        self.map.remove(&key).map(|r| r.img)
    }
}

/// Sharded image cache with a global byte budget, a pluggable eviction
/// policy, and an optional spill tier.
#[derive(Debug)]
pub struct ImageCache {
    shards: Vec<Mutex<Shard>>,
    bytes: AtomicU64,
    budget: u64,
    policy: EvictionPolicy,
    /// Monotone instance counter for [`CachedImage::epoch`].
    epochs: AtomicU64,
    spill: Option<Arc<SpillTier>>,
    tracer: Arc<Tracer>,
    /// Links in flight, by image key (see [`ImageCache::link_once`]).
    flight: SingleFlight<ContentHash, Result<(Arc<CachedImage>, u64), OmosError>>,
}

/// Default shard count: enough that eight clients rarely collide, small
/// enough that the cross-shard eviction sweep stays cheap.
const DEFAULT_SHARDS: usize = 8;

impl ImageCache {
    /// A cache with the given byte budget (use `u64::MAX` for unbounded)
    /// and the default shard count and policy.
    #[must_use]
    pub fn new(budget: u64) -> ImageCache {
        ImageCache::with_shards(budget, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count. One shard gives globally
    /// exact eviction order (useful for deterministic tests); more
    /// shards approximate it per shard but scale.
    #[must_use]
    pub fn with_shards(budget: u64, shards: usize) -> ImageCache {
        ImageCache::with_policy(budget, shards, EvictionPolicy::default())
    }

    /// A cache with an explicit eviction policy (the catalog bench runs
    /// the generation-order baseline through this).
    #[must_use]
    pub fn with_policy(budget: u64, shards: usize, policy: EvictionPolicy) -> ImageCache {
        ImageCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            bytes: AtomicU64::new(0),
            budget,
            policy,
            epochs: AtomicU64::new(0),
            spill: None,
            tracer: Arc::new(Tracer::new()),
            flight: SingleFlight::new(),
        }
    }

    /// From here on counts into `tracer` instead of the cache's own:
    /// probes, insertions and evictions (with their reason). A server
    /// passes its tracer, so the cache's counts join the server's
    /// ledger.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> ImageCache {
        self.tracer = tracer;
        self
    }

    /// Attaches a spill tier: budget evictions seal their image into
    /// the tier, and misses try a verified fault-in before reporting
    /// the miss to the caller.
    #[must_use]
    pub fn with_spill(mut self, spill: Arc<SpillTier>) -> ImageCache {
        self.spill = Some(spill);
        self
    }

    /// The attached spill tier, if any.
    #[must_use]
    pub fn spill(&self) -> Option<&Arc<SpillTier>> {
        self.spill.as_ref()
    }

    fn shard_index(&self, key: ContentHash) -> usize {
        // ContentHash is already a mixed 64-bit digest; the low bits
        // pick the shard.
        (key.0 as usize) % self.shards.len()
    }

    /// The counters, read from the cache's tracer (exact once the
    /// recording threads are quiet).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let c = self.tracer.counters();
        CacheStats {
            hits: c.image_hits,
            misses: c.image_misses,
            insertions: c.image_insertions,
            evictions: c.image_evict_budget,
        }
    }

    /// Current cached bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The byte budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Number of cached images. A *consistent* count: all shard locks
    /// are held (acquired in index order) while summing, so the result
    /// is a true point-in-time snapshot even under concurrent inserts.
    #[must_use]
    pub fn len(&self) -> usize {
        let guards: Vec<_> = self.shards.iter().map(lock).collect();
        guards.iter().map(|g| g.map.len()).sum()
    }

    /// True if empty (consistent, like [`ImageCache::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every resident image (all shard locks held together,
    /// like [`ImageCache::len`]), in unspecified order. Shares the
    /// cache's `Arc`s — no image bodies are copied. The checkpoint
    /// writer uses this; callers wanting determinism sort by key.
    #[must_use]
    pub fn entries(&self) -> Vec<Arc<CachedImage>> {
        let guards: Vec<_> = self.shards.iter().map(lock).collect();
        guards
            .iter()
            .flat_map(|g| g.map.values().map(|r| Arc::clone(&r.img)))
            .collect()
    }

    /// Looks up an image, refreshing its recency and score. A tier-1
    /// miss with a spill tier attached attempts a verified fault-in
    /// before giving up.
    pub fn get(&self, key: ContentHash) -> Option<Arc<CachedImage>> {
        let hit = lock(&self.shards[self.shard_index(key)])
            .touch(key, self.policy)
            .map(Arc::clone);
        let outcome = match hit {
            Some(_) => ProbeOutcome::Hit,
            None => ProbeOutcome::Miss,
        };
        self.tracer.probe(CacheKind::Image, outcome);
        hit.or_else(|| self.fault_in(key))
    }

    /// Links the image under `key` once. Callers probe with
    /// [`ImageCache::get`] first and call this on a miss. Concurrent
    /// callers for one key share a single flight, whose leader peeks at
    /// tier 1 (counting nothing and faulting nothing in) to catch a
    /// flight that has just finished, and otherwise runs `build` and
    /// inserts the image. Every caller gets the leader's image and the
    /// link work `build` billed (0 when the peek found it).
    pub(crate) fn link_once(
        &self,
        key: ContentHash,
        build: impl Fn() -> Result<(CachedImage, u64), OmosError>,
    ) -> Result<(Arc<CachedImage>, u64), OmosError> {
        let (result, _led) = self.flight.run(key, || {
            let peek = lock(&self.shards[self.shard_index(key)])
                .map
                .get(&key)
                .map(|r| Arc::clone(&r.img));
            if let Some(img) = peek {
                return Ok((img, 0));
            }
            let (img, ns) = build()?;
            Ok((self.insert(img), ns))
        });
        result
    }

    /// Tier-2 fault-in: read, verify (file hash, frame checksum,
    /// content hash), reframe, reinstall. Costs the tier's private
    /// (metered, unbilled) clock only — a faulted-in image answers the
    /// caller exactly like a tier-1 hit with zero added `server_ns`,
    /// which is what keeps replies byte-identical to a never-evicted
    /// run.
    fn fault_in(&self, key: ContentHash) -> Option<Arc<CachedImage>> {
        let faulted = self.spill.as_ref()?.fetch(key)?;
        let frames = ImageFrames::from_image(&faulted.image);
        Some(self.install(
            CachedImage {
                key,
                image: faulted.image,
                frames,
                link_stats: faulted.stats,
                rebuild_ns: faulted.rebuild_ns,
                epoch: 0,
            },
            true,
        ))
    }

    /// Inserts an image, evicting entries while the budget is exceeded
    /// (never the entry just inserted). Returns the shared handle.
    ///
    /// The entry's [`CachedImage::epoch`] is stamped here: every insert
    /// — including a re-insert under a previously evicted key — gets a
    /// fresh, monotonically increasing epoch.
    pub fn insert(&self, img: CachedImage) -> Arc<CachedImage> {
        self.install(img, false)
    }

    fn install(&self, mut img: CachedImage, from_fault: bool) -> Arc<CachedImage> {
        let key = img.key;
        let size = img.size_bytes();
        img.epoch = self.epochs.fetch_add(1, Ordering::Relaxed) + 1;
        if !from_fault {
            // A fresh build supersedes whatever the spill tier held.
            if let Some(spill) = &self.spill {
                spill.forget(key);
            }
        }
        let arc = Arc::new(img);
        let replaced = {
            let mut shard = lock(&self.shards[self.shard_index(key)]);
            let fresh = Resident {
                img: Arc::clone(&arc),
                touched: 0,
                freq: 0,
                prio: 0,
            };
            let replaced = shard.map.insert(key, fresh);
            if let Some(old) = &replaced {
                // Replacing an existing entry under the same key is not
                // a budget eviction.
                self.bytes
                    .fetch_sub(old.img.size_bytes(), Ordering::Relaxed);
            }
            shard.touch(key, self.policy);
            // Credit the bytes while the shard lock is held: a
            // concurrent `clear` draining this shard must never
            // subtract an entry whose addition is still pending, or the
            // counter wraps below zero.
            self.bytes.fetch_add(size, Ordering::Relaxed);
            replaced
        };
        if !from_fault {
            self.tracer.image_inserted();
        }
        let replaced = u64::from(replaced.is_some());
        self.tracer
            .evict(CacheKind::Image, EvictReason::Replace, replaced);
        let evicted = self.enforce_budget(key);
        self.tracer
            .evict(CacheKind::Image, EvictReason::Budget, evicted);
        arc
    }

    /// Evicts entries until the byte total is within budget, sweeping
    /// shards round-robin from the protected key's shard. Stops early
    /// if nothing but `protect` remains evictable. With a spill tier
    /// attached, every budget victim is sealed into the tier (outside
    /// the shard locks). Returns how many entries it evicted.
    fn enforce_budget(&self, protect: ContentHash) -> u64 {
        let n = self.shards.len();
        let start = self.shard_index(protect);
        let mut dropped = 0u64;
        let mut spilled: Vec<Arc<CachedImage>> = Vec::new();
        while self.bytes.load(Ordering::Relaxed) > self.budget {
            let mut evicted = false;
            for i in 0..n {
                if self.bytes.load(Ordering::Relaxed) <= self.budget {
                    evicted = false;
                    break;
                }
                let victim = lock(&self.shards[(start + i) % n]).evict_victim(protect);
                if let Some(old) = victim {
                    self.bytes.fetch_sub(old.size_bytes(), Ordering::Relaxed);
                    dropped += 1;
                    evicted = true;
                    if self.spill.is_some() {
                        spilled.push(old);
                    }
                }
            }
            if !evicted {
                break; // within budget, or only the protected entry left
            }
        }
        if let Some(spill) = &self.spill {
            for old in &spilled {
                spill.store(old.key, &old.image, old.link_stats, old.rebuild_ns);
            }
        }
        dropped
    }

    /// Drops everything — both tiers. The byte counter is decremented
    /// per shard *while that shard's lock is held*: a single deferred
    /// `fetch_sub` of the cross-shard sum races with concurrent inserts
    /// into already-drained shards and underflows the counter, after
    /// which every insert sweeps the "over-budget" cache forever.
    pub fn clear(&self) {
        let mut dropped = 0u64;
        for s in &self.shards {
            let mut shard = lock(s);
            let freed = shard.map.values().map(|r| r.img.size_bytes()).sum::<u64>();
            dropped += shard.map.len() as u64;
            shard.map.clear();
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
        if let Some(spill) = &self.spill {
            spill.clear();
        }
        self.tracer
            .evict(CacheKind::Image, EvictReason::Clear, dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_link::Segment;
    use omos_obj::SectionKind;

    fn fake(key: u64, bytes: usize) -> CachedImage {
        fake_costed(key, bytes, 0)
    }

    fn fake_costed(key: u64, bytes: usize, rebuild_ns: u64) -> CachedImage {
        let image = LinkedImage {
            name: format!("img{key}"),
            segments: vec![Segment {
                name: ".text".into(),
                kind: SectionKind::Text,
                vaddr: 0x1000,
                bytes: vec![0; bytes].into(),
                zero: 0,
            }],
            symbols: HashMap::new(),
            entry: None,
        };
        let frames = ImageFrames::from_image(&image);
        CachedImage {
            key: ContentHash(key),
            image,
            frames,
            link_stats: LinkStats::default(),
            rebuild_ns,
            epoch: 0,
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = ImageCache::new(u64::MAX);
        assert!(c.get(ContentHash(1)).is_none());
        c.insert(fake(1, 100));
        assert!(c.get(ContentHash(1)).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn budget_evicts_lru() {
        // One shard: globally exact LRU, deterministic victim order.
        // Zero rebuild cost, so the cost-aware default degrades to LRU.
        let c = ImageCache::with_shards(250, 1);
        c.insert(fake(1, 100));
        c.insert(fake(2, 100));
        // Touch 1 so 2 becomes LRU.
        c.get(ContentHash(1));
        c.insert(fake(3, 100)); // 300 bytes > 250: evict 2
        assert!(c.get(ContentHash(2)).is_none());
        assert!(c.get(ContentHash(1)).is_some());
        assert!(c.get(ContentHash(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.bytes() <= 250);
    }

    #[test]
    fn generation_order_policy_matches_lru() {
        let c = ImageCache::with_policy(250, 1, EvictionPolicy::GenerationOrder);
        c.insert(fake(1, 100));
        c.insert(fake(2, 100));
        c.get(ContentHash(1));
        c.insert(fake(3, 100));
        assert!(c.get(ContentHash(2)).is_none());
        assert!(c.get(ContentHash(1)).is_some());
    }

    #[test]
    fn cost_aware_keeps_expensive_entry() {
        // Same size, same recency class, but key 1 is 1000x costlier to
        // rebuild: under budget pressure LRU would evict key 1 (oldest),
        // the cost-aware policy evicts cheap key 2 instead.
        let c = ImageCache::with_shards(250, 1);
        c.insert(fake_costed(1, 100, 1_000_000));
        c.insert(fake_costed(2, 100, 1_000));
        c.insert(fake_costed(3, 100, 1_000));
        assert!(
            c.get(ContentHash(1)).is_some(),
            "expensive entry survives the sweep"
        );
        assert!(c.get(ContentHash(2)).is_none(), "cheap LRU victim goes");
    }

    #[test]
    fn cost_aware_inflation_ages_out_idle_expensive_entries() {
        // An expensive entry that is never touched again must still age
        // out: each eviction inflates L, so fresh cheap entries
        // eventually score above the idle one.
        let c = ImageCache::with_shards(250, 1);
        c.insert(fake_costed(1, 100, 20_000));
        for k in 2..60u64 {
            c.insert(fake_costed(k, 100, 1_000));
        }
        assert!(
            c.get(ContentHash(1)).is_none(),
            "idle expensive entry ages out under inflation"
        );
    }

    #[test]
    fn epochs_are_stamped_and_monotone() {
        let c = ImageCache::with_shards(150, 1);
        let a = c.insert(fake(1, 100));
        assert!(a.epoch > 0);
        c.insert(fake(2, 100)); // evicts 1
        assert!(c.get(ContentHash(1)).is_none());
        let a2 = c.insert(fake(1, 100)); // rebuild under the same key
        assert!(
            a2.epoch > a.epoch,
            "re-inserted key gets a fresh epoch ({} vs {})",
            a2.epoch,
            a.epoch
        );
    }

    #[test]
    fn oversized_insert_keeps_newest() {
        let c = ImageCache::with_shards(50, 1);
        c.insert(fake(1, 100));
        assert_eq!(c.len(), 1, "budget never evicts the just-inserted entry");
        c.insert(fake(2, 100));
        assert_eq!(c.len(), 1);
        assert!(c.get(ContentHash(2)).is_some());
    }

    /// Sum of resident sizes — the value `bytes()` must always equal
    /// once the cache is quiescent.
    fn resident_bytes(c: &ImageCache) -> u64 {
        c.entries().iter().map(|i| i.size_bytes()).sum()
    }

    #[test]
    fn oversized_insert_terminates_when_only_protected_remains() {
        // An insert larger than the whole budget, while the eviction
        // sweep can remove nothing but the entry it protects, must
        // neither spin nor drive the byte counter below the truth.
        for shards in [1, 8] {
            let c = ImageCache::with_shards(50, shards);
            for key in 0..4u64 {
                c.insert(fake(key, 100));
                assert_eq!(c.len(), 1, "each insert evicts everything else");
                assert_eq!(
                    c.bytes(),
                    resident_bytes(&c),
                    "byte counter stays exact at {shards} shard(s)"
                );
            }
            assert_eq!(c.stats().evictions, 3);
            assert!(c.get(ContentHash(3)).is_some());
        }
    }

    #[test]
    fn zero_budget_insert_terminates_and_accounts() {
        let c = ImageCache::with_shards(0, 8);
        c.insert(fake(0, 64));
        c.insert(fake(1, 64));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), resident_bytes(&c));
        // Replacing the sole (protected-at-insert) entry under the same
        // key must not double-count or underflow either.
        c.insert(fake(1, 32));
        assert_eq!(c.bytes(), 32);
        assert_eq!(c.bytes(), resident_bytes(&c));
    }

    #[test]
    fn entries_snapshot_shares_arcs() {
        let c = ImageCache::new(u64::MAX);
        c.insert(fake(1, 10));
        c.insert(fake(2, 20));
        let mut snap = c.entries();
        snap.sort_by_key(|i| i.key);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].key, ContentHash(1));
        // Snapshot holds references, not copies.
        assert_eq!(Arc::strong_count(&snap[0]), 2);
    }

    #[test]
    fn reinsert_same_key_replaces() {
        let c = ImageCache::new(u64::MAX);
        c.insert(fake(1, 100));
        c.insert(fake(1, 200));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 200);
    }

    #[test]
    fn eviction_sweeps_across_shards() {
        // Keys 0..8 land in distinct shards (key % 8); the budget still
        // binds globally.
        let c = ImageCache::with_shards(250, 8);
        c.insert(fake(0, 100));
        c.insert(fake(1, 100));
        c.insert(fake(2, 100));
        assert!(c.bytes() <= 250);
        assert_eq!(c.stats().evictions, 1);
        assert!(
            c.get(ContentHash(2)).is_some(),
            "just-inserted entry survives"
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicted_image_stays_mapped_by_holders() {
        let c = ImageCache::with_shards(100, 1);
        let held = c.insert(fake(1, 80));
        c.insert(fake(2, 80)); // evicts 1
        assert!(c.get(ContentHash(1)).is_none());
        // The client's mapping (its Arc) is unaffected by eviction.
        assert_eq!(held.size_bytes(), 80);
        assert!(held.frames.total_pages() > 0);
    }

    /// A plain reference model of a one-shard cache: the resident
    /// entries as `(key, size, rebuild_ns, frequency, priority)`, least
    /// recently touched first, plus `L`.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u64, u64, u64, u64, u64)>,
        l: u64,
        evictions: u64,
    }

    impl Model {
        /// Moves entry `i` to the most recent end, with GDSF's priority
        /// `L + rebuild_ns × frequency × 4096 / size` when cost-aware.
        fn touch(&mut self, i: usize, cost_aware: bool) {
            let (key, size, cost, freq, _) = self.entries.remove(i);
            let prio = if cost_aware {
                self.l + cost * (freq + 1) * 4096 / size
            } else {
                0
            };
            self.entries.push((key, size, cost, freq + 1, prio));
        }

        fn get(&mut self, key: u64, cost_aware: bool) -> bool {
            let found = self.entries.iter().position(|e| e.0 == key);
            if let Some(i) = found {
                self.touch(i, cost_aware);
            }
            found.is_some()
        }

        fn insert(&mut self, (key, size, cost): (u64, u64, u64), budget: u64, cost_aware: bool) {
            self.entries.retain(|e| e.0 != key);
            self.entries.push((key, size, cost, 0, 0));
            self.touch(self.entries.len() - 1, cost_aware);
            while self.entries.iter().map(|e| e.1).sum::<u64>() > budget {
                // Generation order evicts the least recently touched
                // entry; cost-aware the smallest priority, ties to the
                // least recently touched.
                let mut others = self.entries.iter().enumerate().filter(|(_, e)| e.0 != key);
                let victim = if cost_aware {
                    others.min_by_key(|&(i, e)| (e.4, i))
                } else {
                    others.next()
                };
                let Some((i, _)) = victim else { break };
                let (.., prio) = self.entries.remove(i);
                self.l = self.l.max(prio);
                self.evictions += 1;
            }
        }
    }

    /// Replays `ops` — `(op, key, size step, cost step)`, a get when `op`
    /// is 0, else an insert — against a one-shard cache and the model,
    /// comparing every answer and the resident set after every step.
    fn matches_model(policy: EvictionPolicy, ops: &[(u8, u64, u64, u64)]) {
        const BUDGET: u64 = 400;
        let cost_aware = policy == EvictionPolicy::CostAware;
        let c = ImageCache::with_policy(BUDGET, 1, policy);
        let mut model = Model::default();
        for (step, &(op, key, size, cost)) in ops.iter().enumerate() {
            if op == 0 {
                let hit = c.get(ContentHash(key)).is_some();
                assert_eq!(hit, model.get(key, cost_aware), "step {step}: get {key}");
            } else {
                let (size, cost) = (size * 50, cost * 1_000);
                c.insert(fake_costed(key, size as usize, cost));
                model.insert((key, size, cost), BUDGET, cost_aware);
            }
            let mut resident: Vec<u64> = c.entries().iter().map(|i| i.key.0).collect();
            resident.sort_unstable();
            let mut expected: Vec<u64> = model.entries.iter().map(|e| e.0).collect();
            expected.sort_unstable();
            assert_eq!(resident, expected, "step {step}: resident set");
            assert_eq!(c.bytes(), model.entries.iter().map(|e| e.1).sum::<u64>());
        }
        assert_eq!(c.stats().evictions, model.evictions);
    }

    proptest::proptest! {
        #[test]
        fn generation_order_evicts_like_a_recency_model(
            ops in proptest::collection::vec((0u8..3, 0u64..12, 1u64..6, 0u64..5), 1..80),
        ) {
            matches_model(EvictionPolicy::GenerationOrder, &ops);
        }

        #[test]
        fn cost_aware_evicts_like_the_gdsf_formula(
            ops in proptest::collection::vec((0u8..3, 0u64..12, 1u64..6, 0u64..5), 1..80),
        ) {
            matches_model(EvictionPolicy::CostAware, &ops);
        }
    }

    #[test]
    fn clear_resets() {
        let c = ImageCache::new(u64::MAX);
        c.insert(fake(1, 10));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn link_once_builds_a_contended_key_once() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let c = ImageCache::new(u64::MAX);
        let builds = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        let images: Vec<Arc<CachedImage>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (img, _) = c
                            .link_once(ContentHash(7), || {
                                builds.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                Ok((fake_costed(7, 100, 5_000), 5_000))
                            })
                            .expect("the build succeeds");
                        img
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "one build");
        assert!(images.iter().all(|i| Arc::ptr_eq(i, &images[0])));
        assert_eq!(c.len(), 1);
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 0, 1));
    }

    #[test]
    fn spill_tier_faults_evicted_images_back_in() {
        use crate::spill::SpillTier;
        use omos_os::CostModel;
        let spill = Arc::new(SpillTier::new(u64::MAX, CostModel::hpux()));
        let c = ImageCache::with_shards(150, 1).with_spill(Arc::clone(&spill));
        let original = c.insert(fake_costed(1, 100, 5_000));
        c.insert(fake_costed(2, 100, 5_000)); // evicts 1 into the tier
        assert_eq!(spill.stats().spills, 1);
        let revived = c.get(ContentHash(1)).expect("fault-in answers the miss");
        assert_eq!(spill.stats().fault_ins, 1);
        assert_eq!(
            omos_link::encode_image(&revived.image),
            omos_link::encode_image(&original.image),
            "fault-in is byte-identical to the evicted image"
        );
        assert_eq!(revived.rebuild_ns, 5_000, "rebuild cost survives the tier");
        assert!(
            revived.epoch > original.epoch,
            "a faulted-in instance is a new epoch"
        );
    }

    #[test]
    fn spill_tier_budget_drops_oldest() {
        use crate::spill::SpillTier;
        use omos_os::CostModel;
        // A tiny tier-2 budget: spills succeed but older spills are
        // dropped, and a dropped key is a genuine miss.
        let spill = Arc::new(SpillTier::new(1, CostModel::hpux()));
        let c = ImageCache::with_shards(150, 1).with_spill(Arc::clone(&spill));
        c.insert(fake(1, 100));
        c.insert(fake(2, 100)); // evicts+spills 1, tier immediately drops it
        assert!(spill.stats().tier_evictions >= 1);
        assert!(c.get(ContentHash(1)).is_none());
    }

    #[test]
    fn clear_clears_both_tiers() {
        use crate::spill::SpillTier;
        use omos_os::CostModel;
        let spill = Arc::new(SpillTier::new(u64::MAX, CostModel::hpux()));
        let c = ImageCache::with_shards(150, 1).with_spill(Arc::clone(&spill));
        c.insert(fake(1, 100));
        c.insert(fake(2, 100)); // spills 1
        c.clear();
        assert!(c.is_empty());
        assert_eq!(spill.stats().resident, 0, "clear drops spilled images too");
        assert!(c.get(ContentHash(1)).is_none());
    }
}
