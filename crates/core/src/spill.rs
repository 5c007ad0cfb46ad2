//! Tier-2 image store: spilled cache entries in the persist layer's
//! content-addressed format.
//!
//! When the byte-budgeted [`crate::cache::ImageCache`] evicts an image,
//! the server has paid for a link it may well need again — the paper's
//! catalog regime (thousands of programs over a long-tail library pool)
//! revisits cold keys constantly. The spill tier keeps evicted images in
//! sealed XOF frames at `img/{key}`, exactly the checkpoint layout, so a
//! later miss *faults the image back in* instead of relinking: read,
//! re-verify (file hash, frame checksum, content hash against the index
//! row), reframe. The warm-restart path already proves this chain is
//! ~3.6x cheaper than a cold relink, and the restore code made it the
//! trusted way to revive an image without running the linker.
//!
//! The tier is deliberately *outside* the simulated billing domain: its
//! filesystem and clock are private, so spills and fault-ins never
//! perturb `server_ns` or any client bill — a reply served via a tier-2
//! fault-in is byte-identical (including its timing fields) to one
//! served from tier 1. The transport oracle pins that. What the tier
//! *does* surface is counters: spills, fault-ins, verification drops,
//! resident bytes.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use omos_link::{encode_image, LinkStats, LinkedImage};
use omos_obj::{fnv1a, ContentHash};
use omos_os::{CostModel, InMemFs, SimClock};

use crate::persist::{img_path, open_image, write_fresh};
use crate::sync::lock;

/// Index row for one spilled image — the same facts a checkpoint
/// manifest records, so fault-in verification is the restore chain.
#[derive(Debug, Clone, Copy)]
struct SpillRow {
    /// FNV-1a of the sealed file bytes.
    file_hash: u64,
    /// Content hash of the decoded image.
    content_hash: ContentHash,
    /// Link work that originally produced the image.
    stats: LinkStats,
    /// Rebuild cost in simulated ns (the tier-1 admission score input).
    rebuild_ns: u64,
    /// Sealed (encoded) bytes on the tier's filesystem — what the tier
    /// budget charges.
    sealed_len: u64,
}

#[derive(Debug)]
struct SpillInner {
    fs: InMemFs,
    clock: SimClock,
    index: HashMap<ContentHash, SpillRow>,
    /// Spill order, oldest first (tier-2 budget eviction order).
    order: VecDeque<ContentHash>,
    bytes: u64,
    /// Counters, kept under the lock that `store`/`fetch` hold anyway.
    stats: SpillStats,
}

/// Counters for the spill tier (a snapshot; see [`SpillTier::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Evicted images written to the tier.
    pub spills: u64,
    /// Misses answered by verified fault-in instead of a relink.
    pub fault_ins: u64,
    /// Fault-in attempts dropped by verification (the entry is removed;
    /// the caller relinks).
    pub verify_drops: u64,
    /// Spilled images evicted by the tier's own byte budget.
    pub tier_evictions: u64,
    /// Images currently resident in the tier.
    pub resident: u64,
    /// Sealed bytes currently resident in the tier.
    pub resident_bytes: u64,
}

/// The verified result of a tier-2 fetch: everything needed to
/// reconstruct a [`crate::cache::CachedImage`] without linking.
#[derive(Debug)]
pub(crate) struct FaultedImage {
    pub image: LinkedImage,
    pub stats: LinkStats,
    pub rebuild_ns: u64,
}

/// A content-addressed second cache tier over a private simulated
/// filesystem. Internally synchronized; attach one to an
/// [`crate::cache::ImageCache`] with `with_spill`.
#[derive(Debug)]
pub struct SpillTier {
    budget: u64,
    cost: CostModel,
    inner: Mutex<SpillInner>,
}

const SPILL_DIR: &str = "/spill";

impl SpillTier {
    /// A tier capped at `budget` sealed bytes (`u64::MAX` = unbounded).
    /// `cost` prices the tier's private (metered, unbilled) I/O.
    #[must_use]
    pub fn new(budget: u64, cost: CostModel) -> SpillTier {
        SpillTier {
            budget,
            cost,
            inner: Mutex::new(SpillInner {
                fs: InMemFs::new(),
                clock: SimClock::new(),
                index: HashMap::new(),
                order: VecDeque::new(),
                bytes: 0,
                stats: SpillStats::default(),
            }),
        }
    }

    /// A consistent snapshot of the tier's counters: one read under the
    /// tier's lock.
    #[must_use]
    pub fn stats(&self) -> SpillStats {
        let inner = lock(&self.inner);
        SpillStats {
            resident: inner.index.len() as u64,
            resident_bytes: inner.bytes,
            ..inner.stats
        }
    }

    /// Seals `image` into the tier under `key`. Content-addressed:
    /// re-spilling identical bytes rewrites nothing. Oldest entries are
    /// dropped while the tier's own byte budget is exceeded.
    pub(crate) fn store(
        &self,
        key: ContentHash,
        image: &LinkedImage,
        stats: LinkStats,
        rebuild_ns: u64,
    ) {
        let sealed = encode_image(image);
        let file_hash = fnv1a(&sealed).0;
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;
        if let Some(old) = inner.index.remove(&key) {
            inner.bytes = inner.bytes.saturating_sub(old.sealed_len);
            inner.order.retain(|k| *k != key);
        }
        let path = img_path(SPILL_DIR, key);
        if write_fresh(&mut inner.fs, &mut inner.clock, &self.cost, &path, &sealed).is_err() {
            return; // a private-fs write fault loses only the spill
        }
        inner.index.insert(
            key,
            SpillRow {
                file_hash,
                content_hash: image.content_hash(),
                stats,
                rebuild_ns,
                sealed_len: sealed.len() as u64,
            },
        );
        inner.bytes += sealed.len() as u64;
        inner.order.push_back(key);
        inner.stats.spills += 1;
        while inner.bytes > self.budget {
            let Some(victim) = inner.order.pop_front() else {
                break;
            };
            if let Some(row) = inner.index.remove(&victim) {
                inner.bytes = inner.bytes.saturating_sub(row.sealed_len);
            }
            let vp = img_path(SPILL_DIR, victim);
            inner.fs.unlink(&vp, &mut inner.clock, &self.cost);
            inner.stats.tier_evictions += 1;
        }
    }

    /// Fetches and verifies `key` through [`open_image`], the chain
    /// restore runs: file hash, decode, content hash. A verification failure
    /// removes the entry and returns `None` (the caller relinks); a
    /// clean read consumes the row (tier 1 re-owns the image and will
    /// re-spill on its next eviction).
    pub(crate) fn fetch(&self, key: ContentHash) -> Option<FaultedImage> {
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;
        let row = *inner.index.get(&key)?;
        let path = img_path(SPILL_DIR, key);
        let verified = open_image(
            &mut inner.fs,
            &mut inner.clock,
            &self.cost,
            &path,
            row.file_hash,
            row.content_hash,
        );
        inner.index.remove(&key);
        inner.order.retain(|k| *k != key);
        inner.bytes = inner.bytes.saturating_sub(row.sealed_len);
        inner.fs.unlink(&path, &mut inner.clock, &self.cost);
        match verified {
            Ok(image) => {
                inner.stats.fault_ins += 1;
                Some(FaultedImage {
                    image,
                    stats: row.stats,
                    rebuild_ns: row.rebuild_ns,
                })
            }
            Err(_) => {
                inner.stats.verify_drops += 1;
                None
            }
        }
    }

    /// Drops a spilled entry without reading it (a fresh build
    /// superseded it in tier 1).
    pub(crate) fn forget(&self, key: ContentHash) {
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;
        if let Some(row) = inner.index.remove(&key) {
            inner.bytes = inner.bytes.saturating_sub(row.sealed_len);
            inner.order.retain(|k| *k != key);
            let path = img_path(SPILL_DIR, key);
            inner.fs.unlink(&path, &mut inner.clock, &self.cost);
        }
    }

    /// Drops everything (tier 1 `clear()` clears both tiers).
    pub(crate) fn clear(&self) {
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;
        let keys: Vec<ContentHash> = inner.index.keys().copied().collect();
        for key in keys {
            let path = img_path(SPILL_DIR, key);
            inner.fs.unlink(&path, &mut inner.clock, &self.cost);
        }
        inner.index.clear();
        inner.order.clear();
        inner.bytes = 0;
    }
}
