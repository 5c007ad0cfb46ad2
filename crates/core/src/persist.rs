//! Crash-safe persistence: checkpoint, restore, and the binding journal.
//!
//! The paper's server is *persistent* — it "lives across program
//! invocations" and banks on "disk space for caching multiple versions
//! of large libraries". This module makes that durable against crashes:
//! [`Omos::checkpoint`] writes the namespace, the bound-image cache, the
//! placement state, and the valid reply rows to the simulated
//! filesystem (paying modeled sync-write and disk-latency costs), and
//! [`Omos::restore`] rebuilds a server from whatever survived.
//!
//! # On-disk layout (under a checkpoint directory `dir`)
//!
//! ```text
//! dir/img/<image key>      one sealed Image frame per cached image
//! dir/manifest.a|b         two copies of the sealed Manifest frame
//!                          (namespace bindings embedded, image and
//!                          reply rows, placement state); the valid one
//!                          with the higher sequence number wins
//! dir/journal              back-to-back sealed JournalRecord frames,
//!                          each written twice: binds/unbinds since the
//!                          last checkpoint
//! ```
//!
//! # Crash-recovery invariants
//!
//! * **Content first, manifests last.** The manifest only ever names
//!   image files written before it, and the two slots are rewritten one
//!   after the other (stale slot first) — a crash at any byte of the
//!   checkpoint leaves at least one complete manifest on disk.
//! * **Source state is redundant; derived state is droppable.** The
//!   namespace bindings (which nothing can rebuild) live inside *both*
//!   manifest copies, and every journal record is appended twice, so a
//!   single corrupt byte anywhere never loses a binding. Images and
//!   reply rows are derived: restore re-verifies each against the
//!   manifest's content hash and the frame's own checksum, and a torn,
//!   flipped, or version-skewed artifact is *dropped* and relinked on
//!   demand — corruption degrades, it never propagates and is never a
//!   client-visible error.
//! * **Write-ahead journal.** A durable bind appends its journal record
//!   (synchronously) *before* mutating the namespace, so a crash can
//!   lose at most a bind that was never acknowledged. Replay tolerates
//!   a torn tail and resynchronizes past damaged records
//!   ([`omos_obj::encode::container::scan_frames`]).
//! * **Replies restore at the post-replay generation.** Each reply row
//!   is re-derived against the namespace after journal replay and
//!   installed at that generation only if the derivation matches, so a
//!   journal record that changed one of its dependencies drops the row
//!   at restore, and a re-bind of identical bytes keeps it valid.

use std::collections::HashMap;
use std::sync::Arc;

use omos_blueprint::{Blueprint, LinkPolicy, MNode, PolicyKind, SpecKind, MAX_NODE_DEPTH};
use omos_constraint::{PlacementSolver, SolverState};
use omos_link::{decode_image, encode_image, LinkStats, LinkedImage};
use omos_obj::encode::container::{self, ContainerKind};
use omos_obj::encode::{self, Format, Reader, Trailing, Wire, Writer};
use omos_obj::view::{RenameTarget, ViewKind};
use omos_obj::{fnv1a, ContentHash, ObjError, ObjectFile};
use omos_os::fs::FsError;
use omos_os::{CostModel, ImageFrames, InMemFs, SimClock};

use omos_analysis::manifest::ResolutionManifest;

use crate::cache::CachedImage;
use crate::namespace::Entry;
use crate::server::{link_work_ns, InstantiateReply, Omos, ReplyEntry};
use crate::trace::RestoreDrops;

type ObjResult<T> = std::result::Result<T, ObjError>;

/// What one [`Omos::checkpoint`] wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Namespace bindings recorded.
    pub ns_entries: usize,
    /// Cached images recorded (cache-resident plus reply-referenced).
    pub images: usize,
    /// Valid reply rows recorded.
    pub replies: usize,
    /// Files actually (re)written — content-addressed files that were
    /// already on disk are skipped.
    pub files_written: usize,
    /// Bytes written to the filesystem by this checkpoint.
    pub bytes_written: u64,
    /// Sequence number of the manifest written.
    pub seq: u64,
}

/// What one [`Omos::restore`] recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// No usable manifest was found; the server started cold (journal
    /// records, if any, were still replayed).
    pub cold: bool,
    /// Namespace bindings rebuilt from the manifest.
    pub ns_entries: usize,
    /// Images reinstalled into the cache.
    pub images: usize,
    /// Reply rows reinstalled.
    pub replies: usize,
    /// Journal records replayed on top of the manifest.
    pub journal_records: usize,
    /// Reply rows whose stored resolution manifest matched a fresh
    /// static re-derivation (subset of `replies`).
    pub manifest_verified: usize,
    /// Persisted entries dropped (corrupt, truncated, version-skewed,
    /// divergent, or referencing a dropped image); each relinks on
    /// demand. Always equals `drops.total()`.
    pub dropped: usize,
    /// Per-reason breakdown of `dropped`.
    pub drops: RestoreDrops,
    /// Transport the checkpointing server spoke, when the manifest
    /// recorded a recognizable one (`None` on a cold start). Purely
    /// informational — checkpoints carry no client transport state, so
    /// a restored server may answer over any transport.
    pub checkpoint_transport: Option<omos_os::Transport>,
}

pub(crate) fn img_path(dir: &str, key: ContentHash) -> String {
    format!("{dir}/img/{:016x}", key.0)
}

fn slot_path(dir: &str, slot: usize) -> String {
    format!("{dir}/manifest.{}", if slot == 0 { "a" } else { "b" })
}

fn journal_path(dir: &str) -> String {
    format!("{dir}/journal")
}

/// Reads a whole file with charged costs. The length comes from the
/// stat, not `u64::MAX` (`read` takes an offset+len pair that must not
/// overflow).
pub(crate) fn read_all(
    fs: &mut InMemFs,
    clock: &mut SimClock,
    cost: &CostModel,
    path: &str,
) -> Result<Vec<u8>, FsError> {
    let st = fs.open(path, clock, cost)?;
    fs.read(path, 0, u64::from(st.size), clock, cost)
}

/// Writes `bytes` at `path` unless an identical file is already there
/// (content files are content-addressed, so re-checkpointing is mostly
/// free). A leftover with different content — e.g. torn by an earlier
/// crash — is unlinked and rewritten, because `write` *appends*.
/// Returns true if bytes were written.
pub(crate) fn write_fresh(
    fs: &mut InMemFs,
    clock: &mut SimClock,
    cost: &CostModel,
    path: &str,
    bytes: &[u8],
) -> Result<bool, FsError> {
    if fs.exists(path) {
        let st = fs.stat(path, clock, cost)?;
        if st.size as usize == bytes.len() && read_all(fs, clock, cost, path)? == bytes {
            return Ok(false);
        }
        fs.unlink(path, clock, cost);
    }
    fs.write(path, bytes, clock, cost)?;
    Ok(true)
}

// --- Blueprint wire codec ----------------------------------------------------

fn enc_node(w: &mut Writer, n: &MNode) {
    match n {
        MNode::Leaf(p) => {
            w.u8(0);
            w.str(p);
        }
        MNode::Merge(items) => {
            w.u8(1);
            w.u32(items.len() as u32);
            for i in items {
                enc_node(w, i);
            }
        }
        MNode::Override(a, b) => {
            w.u8(2);
            enc_node(w, a);
            enc_node(w, b);
        }
        MNode::View {
            kind,
            pattern,
            replacement,
            operand,
        } => {
            w.u8(view_tag(*kind));
            w.str(pattern);
            if kind.takes_replacement() {
                w.str(replacement);
            }
            if let ViewKind::Rename(target) = kind {
                w.u8(target.code());
            }
            enc_node(w, operand);
        }
        MNode::Initializers(op) => {
            w.u8(10);
            enc_node(w, op);
        }
        MNode::Source { lang, code } => {
            w.u8(11);
            w.str(lang);
            w.str(code);
        }
        MNode::Specialize { kind, operand } => {
            w.u8(12);
            match kind {
                SpecKind::Static => w.u8(0),
                SpecKind::Dynamic => w.u8(1),
                SpecKind::DynamicImpl => w.u8(2),
                SpecKind::Constrained(cs) => {
                    w.u8(3);
                    cs.put(w);
                }
            }
            enc_node(w, operand);
        }
    }
}

/// Wire tags 3–9 of the view operators. A node is written as its tag,
/// the pattern, the replacement when the operator takes one (tags 3 and
/// 8), a rename's target code, then the operand.
fn view_tag(kind: ViewKind) -> u8 {
    match kind {
        ViewKind::Rename(_) => 3,
        ViewKind::Hide => 4,
        ViewKind::Show => 5,
        ViewKind::Restrict => 6,
        ViewKind::Project => 7,
        ViewKind::CopyAs => 8,
        ViewKind::Freeze => 9,
    }
}

/// Decodes one m-graph node at `depth` below the root. The depth bound
/// is the parser's ([`MAX_NODE_DEPTH`]): every blueprint the parser
/// accepts decodes, and a corrupt frame cannot blow the stack before
/// the structural checks reject it.
fn dec_node(r: &mut Reader<'_>, depth: usize) -> ObjResult<MNode> {
    if depth > MAX_NODE_DEPTH {
        return Err(ObjError::Malformed("blueprint: m-graph too deep".into()));
    }
    Ok(match r.u8()? {
        0 => MNode::Leaf(r.str()?),
        1 => {
            let n = r.u32()?;
            let mut items = Vec::new();
            for _ in 0..n {
                items.push(dec_node(r, depth + 1)?);
            }
            MNode::Merge(items)
        }
        2 => {
            let a = Box::new(dec_node(r, depth + 1)?);
            let b = Box::new(dec_node(r, depth + 1)?);
            MNode::Override(a, b)
        }
        tag @ 3..=9 => {
            let pattern = r.str()?;
            let replacement = if matches!(tag, 3 | 8) {
                r.str()?
            } else {
                String::new()
            };
            let kind = match tag {
                3 => {
                    let code = r.u8()?;
                    ViewKind::Rename(RenameTarget::from_code(code).ok_or_else(|| {
                        ObjError::Malformed(format!("blueprint: bad rename target {code}"))
                    })?)
                }
                4 => ViewKind::Hide,
                5 => ViewKind::Show,
                6 => ViewKind::Restrict,
                7 => ViewKind::Project,
                8 => ViewKind::CopyAs,
                _ => ViewKind::Freeze,
            };
            MNode::View {
                kind,
                pattern,
                replacement,
                operand: Box::new(dec_node(r, depth + 1)?),
            }
        }
        10 => MNode::Initializers(Box::new(dec_node(r, depth + 1)?)),
        11 => MNode::Source {
            lang: r.str()?,
            code: r.str()?,
        },
        12 => {
            let kind = match r.u8()? {
                0 => SpecKind::Static,
                1 => SpecKind::Dynamic,
                2 => SpecKind::DynamicImpl,
                3 => SpecKind::Constrained(Wire::get(r)?),
                other => {
                    return Err(ObjError::Malformed(format!(
                        "blueprint: bad specialize kind {other}"
                    )))
                }
            };
            MNode::Specialize {
                kind,
                operand: Box::new(dec_node(r, depth + 1)?),
            }
        }
        other => {
            return Err(ObjError::Malformed(format!(
                "blueprint: bad m-graph node tag {other}"
            )))
        }
    })
}

/// Serializes a blueprint into a sealed Blueprint frame. The encoding
/// covers exactly what [`Blueprint::hash`] covers — constraints and the
/// m-graph — so a round-trip preserves the cache key; source spans are
/// location metadata and do not survive (nor do they need to).
#[must_use]
pub fn encode_blueprint(bp: &Blueprint) -> Vec<u8> {
    let mut w = Writer::new();
    bp.constraints.put(&mut w);
    enc_node(&mut w, &bp.root);
    // Policies ride as a trailing section, each a kind code (the kind's
    // declaration index) and its pattern: policy-free blueprints encode
    // byte-identically to every frame ever written, and pre-policy frames
    // decode unchanged.
    let policies: Vec<(u8, String)> = bp
        .canonical_policies()
        .into_iter()
        .map(|p| (p.kind as u8, p.pattern))
        .collect();
    Trailing::put(&policies, &mut w);
    container::seal(ContainerKind::Blueprint, &w.into_bytes())
}

/// Decodes a sealed Blueprint frame. Any malformation is an error; the
/// caller treats it as a dropped artifact.
pub fn decode_blueprint(bytes: &[u8]) -> ObjResult<Blueprint> {
    let payload = container::open(ContainerKind::Blueprint, bytes)?;
    let mut r = Reader::new(payload);
    let constraints = Wire::get(&mut r)?;
    let root = dec_node(&mut r, 0)?;
    let policies = Trailing::get::<Vec<(u8, String)>>(&mut r)?
        .into_iter()
        .map(|(code, pattern)| {
            let kinds = [PolicyKind::Deny, PolicyKind::Trampoline, PolicyKind::Audit];
            let kind = kinds.get(usize::from(code)).copied().ok_or_else(|| {
                ObjError::Malformed(format!("blueprint: bad policy kind code {code}"))
            })?;
            Ok(LinkPolicy { kind, pattern })
        })
        .collect::<ObjResult<_>>()?;
    r.finish()?;
    let mut bp = Blueprint::from_root(root);
    bp.constraints = constraints;
    bp.policies = policies;
    Ok(bp)
}

/// Journal ops. A bind's op is also its entry's kind code.
const OP_BIND_OBJECT: u8 = 0;
const OP_BIND_META: u8 = 1;
const OP_UNBIND: u8 = 2;

/// A namespace entry as persisted: its kind code and its sealed Object
/// or Blueprint frame.
fn encode_entry(entry: &Entry) -> (u8, Vec<u8>) {
    match entry {
        Entry::Object(obj) => (
            OP_BIND_OBJECT,
            container::seal(ContainerKind::Object, &encode::write(Format::Aout, obj)),
        ),
        Entry::Meta(bp) => (OP_BIND_META, encode_blueprint(bp)),
    }
}

fn decode_entry(kind: u8, bytes: &[u8]) -> ObjResult<Entry> {
    match kind {
        OP_BIND_OBJECT => {
            let payload = container::open(ContainerKind::Object, bytes)?;
            Ok(Entry::Object(Arc::new(encode::read_any(payload)?)))
        }
        OP_BIND_META => Ok(Entry::Meta(Arc::new(decode_blueprint(bytes)?))),
        other => Err(ObjError::Malformed(format!(
            "manifest: bad namespace entry kind {other}"
        ))),
    }
}

// --- Manifest ----------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct ImageRow {
    key: ContentHash,
    file_hash: u64,
    content_hash: ContentHash,
    stats: LinkStats,
}

#[derive(Debug, Clone)]
struct ReplyRow {
    key: ContentHash,
    program: ContentHash,
    libraries: Vec<ContentHash>,
    deps: Vec<String>,
    /// The sealed Blueprint frame the reply answers — restore re-derives
    /// the resolution from it rather than trusting the row.
    blueprint: Vec<u8>,
    /// The sealed canonical Resolution frame the reply committed to.
    manifest: Vec<u8>,
}

#[derive(Debug)]
struct Manifest {
    seq: u64,
    /// Transport the checkpointing server spoke (`Transport::name`).
    /// Client transport state never rides in a checkpoint — batch
    /// queues are flushed and rings drained/retired before the server
    /// quiesces, and shared-memory grants are reconstructible from the
    /// content-addressed image keys below — but the name is recorded so
    /// a restore can report when the restored server will answer over a
    /// different transport than the checkpoint was taken under.
    transport: String,
    /// Bindings with their sealed payload frames embedded: the
    /// namespace is source state nothing can rebuild, so it rides
    /// inside both manifest copies rather than in droppable files.
    ns: Vec<(String, u8, Vec<u8>)>,
    images: Vec<ImageRow>,
    solver: SolverState,
    replies: Vec<ReplyRow>,
}

omos_obj::wire_record! { Manifest { seq, transport, ns, images, solver, replies } }
omos_obj::wire_record! { ImageRow { key, file_hash, content_hash, stats } }
omos_obj::wire_record! { ReplyRow { key, program, libraries, deps, blueprint, manifest } }

/// Reads and decodes one manifest slot; `None` for missing/corrupt.
fn read_slot(
    fs: &mut InMemFs,
    clock: &mut SimClock,
    cost: &CostModel,
    dir: &str,
    slot: usize,
) -> Option<Manifest> {
    let bytes = read_all(fs, clock, cost, &slot_path(dir, slot)).ok()?;
    let payload = container::open(ContainerKind::Manifest, &bytes).ok()?;
    encode::from_bytes(payload).ok()
}

/// The valid manifest with the highest sequence number, and its slot.
fn best_manifest(
    fs: &mut InMemFs,
    clock: &mut SimClock,
    cost: &CostModel,
    dir: &str,
) -> Option<(usize, Manifest)> {
    let a = read_slot(fs, clock, cost, dir, 0).map(|m| (0, m));
    let b = read_slot(fs, clock, cost, dir, 1).map(|m| (1, m));
    match (a, b) {
        (Some(a), Some(b)) => Some(if a.1.seq >= b.1.seq { a } else { b }),
        (a, b) => a.or(b),
    }
}

/// Decodes every reply row's stored resolution manifest from the best
/// checkpoint under `dir`. Rows whose manifest frame fails its checksum
/// or decode are skipped — this is a read-only inspection, not a
/// restore. `ofe explain <bp> <ckpt>` uses it to compare a live static
/// derivation against what a checkpoint committed to.
pub fn stored_manifests(
    fs: &mut InMemFs,
    clock: &mut SimClock,
    cost: &CostModel,
    dir: &str,
) -> Vec<ResolutionManifest> {
    let Some((_, manifest)) = best_manifest(fs, clock, cost, dir) else {
        return Vec::new();
    };
    manifest
        .replies
        .iter()
        .filter_map(|row| ResolutionManifest::decode(&row.manifest).ok())
        .collect()
}

// --- Journal -----------------------------------------------------------------

/// One binding-journal record. A bind carries its entry's sealed frame
/// (the op doubles as the entry kind); an unbind carries none (empty).
#[derive(Debug)]
struct JournalRecord {
    op: u8,
    path: String,
    frame: Vec<u8>,
}

omos_obj::wire_record! { JournalRecord { op, path, frame as Trailing } }

fn apply_journal_record(server: &Omos, record: JournalRecord) -> ObjResult<()> {
    match (record.op, record.frame.is_empty()) {
        (OP_UNBIND, true) => {
            server.namespace.unbind(&record.path);
        }
        (op @ (OP_BIND_OBJECT | OP_BIND_META), false) => {
            let entry = decode_entry(op, &record.frame)?;
            server.namespace.bind_entry(&record.path, entry);
        }
        (op, _) => return Err(ObjError::Malformed(format!("journal: bad op {op}"))),
    }
    Ok(())
}

/// The check a sealed image file failed, in [`open_image`]'s order: the
/// read, the file hash, the decode, the content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ImageCheck {
    Read,
    Checksum,
    Decode,
    Content,
}

/// Opens one sealed image file and verifies it against the facts
/// recorded when it was written: the file hash, then the decode, then the
/// content hash. Restore and the spill tier's fault-in both come here.
pub(crate) fn open_image(
    fs: &mut InMemFs,
    clock: &mut SimClock,
    cost: &CostModel,
    path: &str,
    file_hash: u64,
    content_hash: ContentHash,
) -> Result<LinkedImage, ImageCheck> {
    let bytes = read_all(fs, clock, cost, path).map_err(|_| ImageCheck::Read)?;
    if fnv1a(&bytes).0 != file_hash {
        return Err(ImageCheck::Checksum);
    }
    let image = decode_image(&bytes).map_err(|_| ImageCheck::Decode)?;
    if image.content_hash() != content_hash {
        return Err(ImageCheck::Content);
    }
    Ok(image)
}

impl Omos {
    /// Writes a crash-safe checkpoint of this server's durable state
    /// under `dir`: namespace bindings, cached images (including ones
    /// referenced only by cached replies), placement state, and the
    /// currently valid reply rows. Writes are synchronous (the modeled
    /// per-op disk commit is charged); content files land before the
    /// manifest that names them, and the manifest is double-buffered so
    /// a crash at any byte leaves the previous checkpoint recoverable.
    /// On success the binding journal is truncated — its records are
    /// folded into the manifest.
    pub fn checkpoint(
        &self,
        fs: &mut InMemFs,
        clock: &mut SimClock,
        dir: &str,
    ) -> Result<CheckpointReport, FsError> {
        let was_sync = fs.sync_writes;
        fs.sync_writes = true;
        let r = self.checkpoint_inner(fs, clock, dir);
        fs.sync_writes = was_sync;
        r
    }

    fn checkpoint_inner(
        &self,
        fs: &mut InMemFs,
        clock: &mut SimClock,
        dir: &str,
    ) -> Result<CheckpointReport, FsError> {
        let cost = *self.cost();
        let bytes0 = fs.bytes_written;
        let mut report = CheckpointReport::default();

        // 1. Namespace bindings, each sealed into a frame that rides
        //    inside the manifest itself.
        let mut ns_rows: Vec<(String, u8, Vec<u8>)> = Vec::new();
        for (path, entry) in self.namespace.entries() {
            let (kind, sealed) = encode_entry(&entry);
            ns_rows.push((path, kind, sealed));
        }
        report.ns_entries = ns_rows.len();

        // 2. Valid reply rows (stale ones are left out, as a probe would
        //    leave them, but stay for the next probe to drop and count).
        let mut reply_rows: Vec<ReplyRow> = Vec::new();
        let mut referenced: HashMap<ContentHash, Arc<CachedImage>> = HashMap::new();
        for (key, cached) in self.reply_cache.valid_entries(&self.namespace) {
            let entry = &cached.value;
            referenced
                .entry(entry.reply.program.key)
                .or_insert_with(|| Arc::clone(&entry.reply.program));
            for lib in &entry.reply.libraries {
                referenced.entry(lib.key).or_insert_with(|| Arc::clone(lib));
            }
            reply_rows.push(ReplyRow {
                key,
                program: entry.reply.program.key,
                libraries: entry.reply.libraries.iter().map(|l| l.key).collect(),
                deps: cached.deps.iter().cloned().collect(),
                blueprint: encode_blueprint(&entry.blueprint),
                manifest: entry.manifest.as_ref().clone(),
            });
        }
        reply_rows.sort_by_key(|r| r.key.0);
        report.replies = reply_rows.len();

        // 3. Image files: everything cache-resident plus everything a
        //    reply row references (an image can be evicted from the
        //    byte-budgeted cache while replies still hand out its Arc).
        for img in self.images.entries() {
            referenced.entry(img.key).or_insert(img);
        }
        let mut image_rows: Vec<ImageRow> = Vec::new();
        let mut images: Vec<&Arc<CachedImage>> = referenced.values().collect();
        images.sort_by_key(|i| i.key.0);
        for img in images {
            let sealed = encode_image(&img.image);
            if write_fresh(fs, clock, &cost, &img_path(dir, img.key), &sealed)? {
                report.files_written += 1;
            }
            image_rows.push(ImageRow {
                key: img.key,
                file_hash: fnv1a(&sealed).0,
                content_hash: img.image.content_hash(),
                stats: img.link_stats,
            });
        }
        report.images = image_rows.len();

        // 4. The manifest, written to *both* slots, stale slot first —
        //    a crash at any byte leaves either the previous checkpoint
        //    (first write torn) or the new one (second write torn)
        //    complete, and afterwards a single corrupt byte can kill at
        //    most one of the two identical copies.
        let best = best_manifest(fs, clock, &cost, dir);
        let (first_slot, seq) = match &best {
            Some((slot, m)) => (1 - slot, m.seq + 1),
            None => (0, 1),
        };
        let manifest = Manifest {
            seq,
            transport: self.transport.name().to_string(),
            ns: ns_rows,
            images: image_rows,
            solver: self.solver().export_state(),
            replies: reply_rows,
        };
        let sealed = container::seal(ContainerKind::Manifest, &encode::to_bytes(&manifest));
        for slot in [first_slot, 1 - first_slot] {
            let path = slot_path(dir, slot);
            fs.unlink(&path, clock, &cost); // write appends; start clean
            fs.write(&path, &sealed, clock, &cost)?;
            report.files_written += 1;
        }
        report.seq = seq;

        // 5. The journal's records are now folded into the manifest.
        fs.unlink(&journal_path(dir), clock, &cost);
        report.bytes_written = fs.bytes_written - bytes0;
        Ok(report)
    }

    /// Rebuilds a server from the checkpoint directory `dir`. Never
    /// errors: a missing or torn manifest means a cold start, and every
    /// individual artifact that fails verification (checksum, content
    /// hash, version, or a reply referencing a dropped image) is
    /// *dropped* and counted — the server relinks those on demand.
    /// Journal records are replayed on top, tolerating a torn tail.
    pub fn restore(
        cost: CostModel,
        transport: omos_os::Transport,
        fs: &mut InMemFs,
        clock: &mut SimClock,
        dir: &str,
    ) -> (Omos, RestoreReport) {
        let server = Omos::new(cost, transport);
        let mut report = RestoreReport {
            cold: true,
            ..RestoreReport::default()
        };

        if let Some((_, manifest)) = best_manifest(fs, clock, &cost, dir) {
            report.cold = false;
            report.checkpoint_transport = omos_os::Transport::from_name(&manifest.transport);

            // Namespace bindings, embedded in the manifest; each frame
            // still carries (and is checked against) its own checksum.
            for (path, kind, frame) in &manifest.ns {
                match decode_entry(*kind, frame) {
                    Ok(entry) => {
                        server.namespace.bind_entry(path, entry);
                        report.ns_entries += 1;
                    }
                    Err(_) => report.drops.ns_decode += 1,
                }
            }

            *server.solver() = PlacementSolver::import_state(&manifest.solver);

            // Images: decode, re-verify content hash, reinstall. Each
            // verification step failing is a distinct drop reason —
            // a missing file, a flipped byte, a frame that no longer
            // parses, and a version-skewed payload point at different
            // failure modes on the disk.
            let mut by_key: HashMap<ContentHash, Arc<CachedImage>> = HashMap::new();
            for row in &manifest.images {
                let path = img_path(dir, row.key);
                let image =
                    match open_image(fs, clock, &cost, &path, row.file_hash, row.content_hash) {
                        Ok(image) => image,
                        Err(check) => {
                            *match check {
                                ImageCheck::Read => &mut report.drops.image_read,
                                ImageCheck::Checksum => &mut report.drops.image_checksum,
                                ImageCheck::Decode => &mut report.drops.image_decode,
                                ImageCheck::Content => &mut report.drops.image_content,
                            } += 1;
                            continue;
                        }
                    };
                let frames = ImageFrames::from_image(&image);
                // A restored image is as expensive to lose as a fresh
                // link of the same stats: re-derive its rebuild cost so
                // the cost-aware policy scores it correctly.
                let arc = server.images.insert(CachedImage {
                    key: row.key,
                    image,
                    frames,
                    link_stats: row.stats,
                    rebuild_ns: link_work_ns(&row.stats, &cost),
                    epoch: 0,
                });
                by_key.insert(row.key, arc);
                report.images += 1;
            }

            Omos::replay_journal(&server, fs, clock, &cost, dir, &mut report);

            // Snapshot the generation AFTER journal replay: each reply
            // row below is verified by re-deriving its resolution
            // manifest against the post-replay namespace, so a row that
            // survives verification is valid *now* — not merely at the
            // pre-replay generation. Installing at the pre-replay
            // generation made every journal bind (even an idempotent
            // re-bind of identical bytes) look like a later touch, so a
            // verified row was spuriously dropped as stale on its first
            // probe and its eviction double-counted against the restore
            // drop accounting.
            let g0 = server.namespace.generation();

            for row in &manifest.replies {
                let program = by_key.get(&row.program).map(Arc::clone);
                let libraries: Option<Vec<Arc<CachedImage>>> = row
                    .libraries
                    .iter()
                    .map(|k| by_key.get(k).map(Arc::clone))
                    .collect();
                // A dropped row rebuilds on demand through the one build
                // path, where the images that did survive are cache hits.
                let (Some(program), Some(libraries)) = (program, libraries) else {
                    report.drops.reply_image += 1;
                    continue;
                };
                // Verify the stored resolution against a fresh static
                // derivation before trusting the row: decode both
                // frames, re-derive from the restored namespace and
                // solver state, and require an exact match. A reply
                // whose resolution can no longer be reproduced (a
                // journal record rebound a dependency, dynamic
                // registration order drifted, bytes were damaged) is
                // dropped and relinks on demand — the manifest check
                // replaces a full re-link as the restore-time proof.
                let verified = decode_blueprint(&row.blueprint).ok().and_then(|bp| {
                    let stored = ResolutionManifest::decode(&row.manifest).ok()?;
                    let derived = server.explain_blueprint(&bp).ok()?;
                    (derived == stored).then_some((bp, stored))
                });
                let Some((bp, stored)) = verified else {
                    report.drops.reply_manifest += 1;
                    continue;
                };
                let entry = ReplyEntry {
                    reply: InstantiateReply {
                        program,
                        libraries,
                        server_ns: 0,
                        latency_ns: 0,
                        cache_hit: true,
                        req: 0,
                        manifest: stored.hash(),
                    },
                    blueprint: Arc::new(bp),
                    manifest: Arc::new(row.manifest.clone()),
                };
                let deps = row.deps.iter().cloned().collect();
                server
                    .reply_cache
                    .insert(row.key, entry, Arc::new(deps), g0);
                report.replies += 1;
                report.manifest_verified += 1;
            }
        } else {
            // No manifest at all — still replay whatever the journal
            // holds (binds made before the first checkpoint).
            Omos::replay_journal(&server, fs, clock, &cost, dir, &mut report);
        }

        report.dropped = report.drops.total() as usize;
        server.tracer().restore(
            report.ns_entries as u64,
            report.images as u64,
            report.replies as u64,
            report.journal_records as u64,
            report.manifest_verified as u64,
            &report.drops,
            report.cold,
        );
        (server, report)
    }

    fn replay_journal(
        server: &Omos,
        fs: &mut InMemFs,
        clock: &mut SimClock,
        cost: &CostModel,
        dir: &str,
        report: &mut RestoreReport,
    ) {
        let Ok(bytes) = read_all(fs, clock, cost, &journal_path(dir)) else {
            return;
        };
        let (frames, damaged) = container::scan_frames(&bytes);
        if damaged {
            report.drops.journal_torn += 1;
        }
        // Records are appended twice; adjacent duplicates collapse to
        // one apply (binds are last-write-wins, so a surviving single
        // copy — or a genuine repeated bind — replays identically).
        let mut last: Option<&[u8]> = None;
        for (kind, payload) in frames {
            if kind != ContainerKind::JournalRecord {
                report.drops.journal_kind += 1;
                continue;
            }
            if last == Some(payload) {
                continue;
            }
            last = Some(payload);
            match encode::from_bytes(payload).and_then(|rec| apply_journal_record(server, rec)) {
                Ok(()) => report.journal_records += 1,
                Err(_) => report.drops.journal_apply += 1,
            }
        }
    }

    /// Durably binds an object: the journal record is appended (as a
    /// synchronous write) *before* the namespace mutates, so a crash
    /// can only lose a bind that was never acknowledged. On a write
    /// fault the bind does not happen.
    pub fn bind_object_durable(
        &self,
        path: &str,
        obj: ObjectFile,
        fs: &mut InMemFs,
        clock: &mut SimClock,
        dir: &str,
    ) -> Result<(), FsError> {
        self.journal_then_apply(path, Some(Entry::Object(Arc::new(obj))), fs, clock, dir)?;
        Ok(())
    }

    /// Durably binds a meta-object (see [`Omos::bind_object_durable`]).
    pub fn bind_meta_durable(
        &self,
        path: &str,
        bp: Blueprint,
        fs: &mut InMemFs,
        clock: &mut SimClock,
        dir: &str,
    ) -> Result<(), FsError> {
        self.journal_then_apply(path, Some(Entry::Meta(Arc::new(bp))), fs, clock, dir)?;
        Ok(())
    }

    /// Durably removes a binding (see [`Omos::bind_object_durable`]).
    pub fn unbind_durable(
        &self,
        path: &str,
        fs: &mut InMemFs,
        clock: &mut SimClock,
        dir: &str,
    ) -> Result<bool, FsError> {
        self.journal_then_apply(path, None, fs, clock, dir)
    }

    /// Appends the journal record that binds `entry` at `path` (unbinds
    /// it, for `None`), then applies it to the namespace. Returns
    /// whether the namespace changed.
    fn journal_then_apply(
        &self,
        path: &str,
        entry: Option<Entry>,
        fs: &mut InMemFs,
        clock: &mut SimClock,
        dir: &str,
    ) -> Result<bool, FsError> {
        let (op, frame) = entry.as_ref().map_or((OP_UNBIND, Vec::new()), encode_entry);
        // Each record is appended twice in one synchronous write: a
        // torn append leaves zero or one complete copy (failed bind,
        // or an at-least-once replay of an idempotent bind), and a
        // later single-byte corruption can kill at most one copy.
        let record = JournalRecord {
            op,
            path: path.to_string(),
            frame,
        };
        let record = container::seal(ContainerKind::JournalRecord, &encode::to_bytes(&record));
        let mut doubled = record.clone();
        doubled.extend_from_slice(&record);
        let was_sync = fs.sync_writes;
        fs.sync_writes = true;
        let r = fs.write(&journal_path(dir), &doubled, clock, self.cost());
        fs.sync_writes = was_sync;
        r?;
        Ok(match entry {
            Some(entry) => {
                self.namespace.bind_entry(path, entry);
                true
            }
            None => self.namespace.unbind(path),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_isa::assemble;
    use omos_os::ipc::Transport;

    fn server_with_workload() -> Omos {
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

    fn env() -> (InMemFs, SimClock) {
        (InMemFs::new(), SimClock::new())
    }

    #[test]
    fn blueprint_codec_roundtrips_every_operator() {
        let src = r#"
            (constraint-list "T" 0x2000000 "D" 0x42000000)
            (merge
              (override /a/x.o (rename "_old*" "_new*" /a/y.o))
              (rename-defs "_d*" "_e*" (rename-refs "_r*" "_s*" /a/z.o))
              (hide "_h*" (show "_s*" (restrict "_r*" (project "_p*" /a/w.o))))
              (copy-as "_c*" "_cc*" (freeze "_f*" /a/v.o))
              (initializers /a/init.o)
              (source "asm" ".text\nnop\n")
              (specialize "lib-static" /a/s.o)
              (specialize "lib-constrained" (list "T" 0x3000000) /a/c.o)
              (specialize "lib-dynamic" /a/d.o)
              (specialize "lib-dynamic-impl" /a/di.o))
        "#;
        let bp = Blueprint::parse(src).unwrap();
        let bytes = encode_blueprint(&bp);
        let back = decode_blueprint(&bytes).unwrap();
        assert_eq!(back.root, bp.root, "m-graph survives the round-trip");
        assert_eq!(back.constraints, bp.constraints);
        assert_eq!(back.hash(), bp.hash(), "cache key survives the round-trip");
    }

    #[test]
    fn blueprint_codec_rejects_corruption() {
        let bp = Blueprint::parse("(merge /a.o /b.o)").unwrap();
        let bytes = encode_blueprint(&bp);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(decode_blueprint(&bad).is_err(), "bit flip at byte {i}");
        }
    }

    #[test]
    fn checkpoint_then_restore_rebuilds_namespace_and_caches() {
        let s = server_with_workload();
        let cold = s.instantiate("/bin/hello").unwrap();
        assert!(!cold.cache_hit);

        let (mut fs, mut clock) = env();
        let rep = s.checkpoint(&mut fs, &mut clock, "/omos").unwrap();
        assert_eq!(rep.ns_entries, 4);
        assert!(rep.images >= 2, "library + program images");
        assert_eq!(rep.replies, 1);
        assert!(rep.bytes_written > 0);
        assert!(clock.elapsed_ns > 0, "checkpoint pays modeled I/O costs");

        let (r, rr) = Omos::restore(
            CostModel::hpux(),
            Transport::SysVMsg,
            &mut fs,
            &mut clock,
            "/omos",
        );
        assert!(!rr.cold);
        assert_eq!(rr.ns_entries, 4);
        assert_eq!(rr.images, rep.images);
        assert_eq!(rr.replies, 1);
        assert_eq!(rr.dropped, 0);

        let warm = r.instantiate("/bin/hello").unwrap();
        assert!(warm.cache_hit, "restored reply row serves the request");
        assert_eq!(
            encode_image(&warm.program.image),
            encode_image(&cold.program.image),
            "restored image is bit-identical"
        );
        assert_eq!(warm.libraries.len(), cold.libraries.len());
        assert_eq!(
            r.cost().server_cached_request_ns,
            warm.server_ns,
            "restored hit bills as a warm hit"
        );
    }

    #[test]
    fn checkpoint_is_idempotent_and_fills_both_slots() {
        let s = server_with_workload();
        s.instantiate("/bin/hello").unwrap();
        let (mut fs, mut clock) = env();
        let first = s.checkpoint(&mut fs, &mut clock, "/omos").unwrap();
        let second = s.checkpoint(&mut fs, &mut clock, "/omos").unwrap();
        assert_eq!(second.seq, first.seq + 1);
        // Image files are content-addressed: only the two manifest
        // copies rewrite.
        assert_eq!(second.files_written, 2);
        assert!(fs.exists("/omos/manifest.a") && fs.exists("/omos/manifest.b"));
        assert_eq!(
            fs.peek("/omos/manifest.a").unwrap(),
            fs.peek("/omos/manifest.b").unwrap(),
            "the two slots hold identical copies"
        );
        let (r, rr) = Omos::restore(
            CostModel::hpux(),
            Transport::SysVMsg,
            &mut fs,
            &mut clock,
            "/omos",
        );
        assert!(!rr.cold);
        assert!(r.instantiate("/bin/hello").unwrap().cache_hit);
    }

    #[test]
    fn corrupt_manifest_slot_falls_back_to_its_twin() {
        let s = server_with_workload();
        s.instantiate("/bin/hello").unwrap();
        let (mut fs, mut clock) = env();
        s.checkpoint(&mut fs, &mut clock, "/omos").unwrap();
        let cost = CostModel::hpux();
        for slot in ["/omos/manifest.a", "/omos/manifest.b"] {
            let mut bytes = fs.peek(slot).unwrap().to_vec();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            fs.unlink(slot, &mut clock, &cost);
            fs.write(slot, &bytes, &mut clock, &cost).unwrap();
            let (r, rr) = Omos::restore(
                CostModel::hpux(),
                Transport::SysVMsg,
                &mut fs,
                &mut clock,
                "/omos",
            );
            assert!(!rr.cold && rr.dropped == 0, "slot {slot}: {rr:?}");
            assert_eq!(rr.ns_entries, 4);
            assert!(r.instantiate("/bin/hello").unwrap().cache_hit);
            // Undo for the next iteration.
            bytes[mid] ^= 0x40;
            fs.unlink(slot, &mut clock, &cost);
            fs.write(slot, &bytes, &mut clock, &cost).unwrap();
        }
    }

    #[test]
    fn corrupt_journal_copy_still_replays_the_bind() {
        let (mut fs, mut clock) = env();
        let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
        s.bind_object_durable(
            "/obj/a.o",
            assemble("a.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
            &mut fs,
            &mut clock,
            "/omos",
        )
        .unwrap();
        let clean = fs.peek("/omos/journal").unwrap().to_vec();
        let cost = CostModel::hpux();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x01;
            fs.unlink("/omos/journal", &mut clock, &cost);
            fs.write("/omos/journal", &bad, &mut clock, &cost).unwrap();
            let (r, rr) = Omos::restore(
                CostModel::hpux(),
                Transport::SysVMsg,
                &mut fs,
                &mut clock,
                "/omos",
            );
            assert_eq!(rr.journal_records, 1, "corruption at byte {i}");
            assert!(r.namespace.lookup("/obj/a.o").is_some());
        }
    }

    #[test]
    fn restore_from_empty_fs_is_cold_not_an_error() {
        let (mut fs, mut clock) = env();
        let (r, rr) = Omos::restore(
            CostModel::hpux(),
            Transport::SysVMsg,
            &mut fs,
            &mut clock,
            "/omos",
        );
        assert!(rr.cold);
        assert_eq!(rr.ns_entries + rr.images + rr.replies, 0);
        assert!(r.namespace.is_empty());
    }

    #[test]
    fn journal_binds_survive_without_checkpoint() {
        let (mut fs, mut clock) = env();
        let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
        s.bind_object_durable(
            "/obj/a.o",
            assemble("a.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
            &mut fs,
            &mut clock,
            "/omos",
        )
        .unwrap();
        s.bind_meta_durable(
            "/bin/a",
            Blueprint::parse("(merge /obj/a.o)").unwrap(),
            &mut fs,
            &mut clock,
            "/omos",
        )
        .unwrap();

        let (r, rr) = Omos::restore(
            CostModel::hpux(),
            Transport::SysVMsg,
            &mut fs,
            &mut clock,
            "/omos",
        );
        assert!(rr.cold, "no manifest yet");
        assert_eq!(rr.journal_records, 2);
        assert!(r.instantiate("/bin/a").is_ok());
    }

    #[test]
    fn durable_unbind_replays() {
        let (mut fs, mut clock) = env();
        let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
        s.bind_object_durable(
            "/obj/a.o",
            assemble("a.o", ".text\nnop\n").unwrap(),
            &mut fs,
            &mut clock,
            "/omos",
        )
        .unwrap();
        assert!(s
            .unbind_durable("/obj/a.o", &mut fs, &mut clock, "/omos")
            .unwrap());
        let (r, rr) = Omos::restore(
            CostModel::hpux(),
            Transport::SysVMsg,
            &mut fs,
            &mut clock,
            "/omos",
        );
        assert_eq!(rr.journal_records, 2);
        assert!(r.namespace.lookup("/obj/a.o").is_none());
    }

    #[test]
    fn journal_rebind_invalidates_restored_reply() {
        let s = server_with_workload();
        s.instantiate("/bin/hello").unwrap();
        let (mut fs, mut clock) = env();
        s.checkpoint(&mut fs, &mut clock, "/omos").unwrap();
        // After the checkpoint, a durable rebind of a dependency lands
        // in the journal.
        s.bind_object_durable(
            "/libc/stdio.o",
            assemble("stdio.o", ".text\n.global _puts\n_puts: li r1, 9\n ret\n").unwrap(),
            &mut fs,
            &mut clock,
            "/omos",
        )
        .unwrap();

        let (r, rr) = Omos::restore(
            CostModel::hpux(),
            Transport::SysVMsg,
            &mut fs,
            &mut clock,
            "/omos",
        );
        assert_eq!(
            rr.replies, 0,
            "the rebind changes the resolution, so the stored manifest no longer verifies"
        );
        assert_eq!(
            rr.drops.reply_manifest, 1,
            "dropped for exactly that reason"
        );
        assert_eq!(rr.manifest_verified, 0);
        let reply = r.instantiate("/bin/hello").unwrap();
        assert!(!reply.cache_hit, "relinks on demand under the new binding");
    }

    #[test]
    fn swapped_reply_manifest_is_dropped_on_restore() {
        let s = server_with_workload();
        s.instantiate("/bin/hello").unwrap();
        let (mut fs, mut clock) = env();
        s.checkpoint(&mut fs, &mut clock, "/omos").unwrap();

        // Rewrite both manifest slots with the reply row's stored
        // resolution replaced by a *valid* frame describing a different
        // resolution — the kind of damage checksums cannot catch.
        let cost = CostModel::hpux();
        for slot in [0, 1] {
            let path = slot_path("/omos", slot);
            let bytes = fs.peek(&path).unwrap().to_vec();
            let payload = container::open(ContainerKind::Manifest, &bytes).unwrap();
            let mut m: Manifest = encode::from_bytes(payload).unwrap();
            let row = &mut m.replies[0];
            let mut stored = ResolutionManifest::decode(&row.manifest).unwrap();
            stored.program.text_base ^= 0x1000;
            row.manifest = stored.encode();
            let sealed = container::seal(ContainerKind::Manifest, &encode::to_bytes(&m));
            fs.unlink(&path, &mut clock, &cost);
            fs.write(&path, &sealed, &mut clock, &cost).unwrap();
        }

        let (r, rr) = Omos::restore(
            CostModel::hpux(),
            Transport::SysVMsg,
            &mut fs,
            &mut clock,
            "/omos",
        );
        assert_eq!(rr.replies, 0, "static re-derivation refuses the swap");
        assert_eq!(rr.drops.reply_manifest, 1);
        assert!(!r.instantiate("/bin/hello").unwrap().cache_hit);
    }

    #[test]
    fn stored_manifests_reads_back_what_the_reply_committed_to() {
        let s = server_with_workload();
        let reply = s.instantiate("/bin/hello").unwrap();
        let (mut fs, mut clock) = env();
        s.checkpoint(&mut fs, &mut clock, "/omos").unwrap();
        let cost = CostModel::hpux();
        let manifests = stored_manifests(&mut fs, &mut clock, &cost, "/omos");
        assert_eq!(manifests.len(), 1);
        assert_eq!(manifests[0].hash(), reply.manifest);
        assert_eq!(
            stored_manifests(&mut fs, &mut clock, &cost, "/empty").len(),
            0,
            "no checkpoint, no manifests"
        );
    }

    #[test]
    fn corrupt_image_file_degrades_to_relink() {
        let s = server_with_workload();
        let cold = s.instantiate("/bin/hello").unwrap();
        let (mut fs, mut clock) = env();
        let rep = s.checkpoint(&mut fs, &mut clock, "/omos").unwrap();

        // Flip one byte in the program image's file.
        let path = img_path("/omos", cold.program.key);
        let mut bytes = fs.peek(&path).unwrap().to_vec();
        let flip = rep.bytes_written as usize % bytes.len();
        bytes[flip] ^= 0x01;
        let cost = CostModel::hpux();
        fs.unlink(&path, &mut clock, &cost);
        fs.write(&path, &bytes, &mut clock, &cost).unwrap();

        let (r, rr) = Omos::restore(
            CostModel::hpux(),
            Transport::SysVMsg,
            &mut fs,
            &mut clock,
            "/omos",
        );
        assert!(rr.dropped >= 2, "the image and the reply row that needs it");
        assert_eq!(rr.drops.image_checksum, 1, "flip caught by the file hash");
        assert_eq!(
            rr.drops.reply_image, 1,
            "reply dropped for the missing image"
        );
        let rebuilt = r.instantiate("/bin/hello").unwrap();
        assert!(!rebuilt.cache_hit, "relinked on demand");
        assert_eq!(
            encode_image(&rebuilt.program.image),
            encode_image(&cold.program.image),
            "relink reproduces the same image"
        );
    }

    #[test]
    fn restore_counters_land_in_trace_snapshot() {
        let s = server_with_workload();
        s.instantiate("/bin/hello").unwrap();
        let (mut fs, mut clock) = env();
        s.checkpoint(&mut fs, &mut clock, "/omos").unwrap();
        let (r, rr) = Omos::restore(
            CostModel::hpux(),
            Transport::SysVMsg,
            &mut fs,
            &mut clock,
            "/omos",
        );
        let counters = r.trace_snapshot().counters;
        assert_eq!(counters.restore_ns_entries, rr.ns_entries as u64);
        assert_eq!(counters.restore_images, rr.images as u64);
        assert_eq!(counters.restore_replies, rr.replies as u64);
        assert_eq!(
            counters.restore_manifest_verified,
            rr.manifest_verified as u64
        );
        assert_eq!(
            rr.manifest_verified, rr.replies,
            "every restored reply re-verified its manifest"
        );
        assert!(rr.replies > 0);
        assert_eq!(rr.dropped, 0);
        assert_eq!(counters.restore_cold, 0);
        let (_, rr2) = Omos::restore(
            CostModel::hpux(),
            Transport::SysVMsg,
            &mut InMemFs::new(),
            &mut clock,
            "/omos",
        );
        assert!(rr2.cold);
    }

    #[test]
    fn write_fault_during_checkpoint_preserves_previous_manifest() {
        let s = server_with_workload();
        s.instantiate("/bin/hello").unwrap();
        let (mut fs, mut clock) = env();
        s.checkpoint(&mut fs, &mut clock, "/omos").unwrap();

        // Arm a fault so the *second* checkpoint dies partway through.
        fs.set_write_fault(100);
        assert!(s.checkpoint(&mut fs, &mut clock, "/omos").is_err());
        fs.clear_write_fault();

        let (r, rr) = Omos::restore(
            CostModel::hpux(),
            Transport::SysVMsg,
            &mut fs,
            &mut clock,
            "/omos",
        );
        assert!(!rr.cold, "first checkpoint still restores");
        assert!(r.instantiate("/bin/hello").unwrap().cache_hit);
    }

    #[test]
    fn faulted_durable_bind_is_not_applied() {
        let (mut fs, mut clock) = env();
        let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
        fs.set_write_fault(0);
        let r = s.bind_object_durable(
            "/obj/a.o",
            assemble("a.o", ".text\nnop\n").unwrap(),
            &mut fs,
            &mut clock,
            "/omos",
        );
        assert!(r.is_err());
        assert!(
            s.namespace.lookup("/obj/a.o").is_none(),
            "write-ahead: no journal record, no bind"
        );
    }
}
