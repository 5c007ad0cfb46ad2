//! IPC transports.
//!
//! §8.1: "OMOS supports communication via Mach IPC, Sun RPC, and System V
//! messages." The HP-UX timings in Table 1 used System V messages; the
//! transport choice is one of the ablation axes, because for tiny
//! programs the IPC round trip is what eats OMOS's relocation savings
//! ("the OMOS bootstrap program must do some IPC that HP-UX does not").
//!
//! Two post-paper transports attack that tax directly:
//!
//! * [`Transport::Pipelined`] — clients queue requests behind a
//!   max-inflight window and ship them as one batch frame with a
//!   vectored reply. The per-message kernel cost and the server's fixed
//!   per-message dispatch are paid once per *batch*; bytes are still
//!   copied. A window of 1 bills exactly like the per-request path.
//! * [`Transport::ShmRing`] — the server publishes content-addressed
//!   mapped images through a bounded shared-memory ring; replies carry
//!   small *descriptors* instead of image bytes. The client *grants*
//!   (installs) each new mapping once per content key and *retires* the
//!   ring slot back to the server. A writer facing a full ring spins a
//!   bounded number of billed polls and then reports backpressure
//!   instead of deadlocking.
//!
//! Every bill is one [`charge_roundtrip`]: a message each way at the
//! transport's [`CostModel::ipc_msg_ns`] plus [`CostModel::ipc_byte_ns`]
//! per payload byte, and the server's work as an I/O wait. A batch
//! frame amortizes the server's fixed dispatch
//! ([`CostModel::server_batch_dispatch_ns`]) out of that wait; a mapped
//! reply adds [`CostModel::shm_grant_ns`] per new mapping. The
//! transport changes only what the *client* is billed — replies,
//! manifests, and `server_ns` stay bit-identical across all five
//! transports (the transport-oracle suite enforces this).

use std::collections::HashMap;

use crate::clock::SimClock;
use crate::cost::CostModel;

/// Message transports between clients and the OMOS server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Mach IPC ports (cheapest per-request copy; used on OSF/1-MK).
    MachIpc,
    /// System V message queues (used for the HP-UX timings).
    SysVMsg,
    /// Sun RPC over the loopback.
    SunRpc,
    /// Batched requests with vectored replies over Mach ports.
    Pipelined,
    /// Shared-memory descriptor ring: mapped images, not copied bytes.
    ShmRing,
}

impl Transport {
    /// All transports, for sweeps.
    pub const ALL: [Transport; 5] = [
        Transport::MachIpc,
        Transport::SysVMsg,
        Transport::SunRpc,
        Transport::Pipelined,
        Transport::ShmRing,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Transport::MachIpc => "mach-ipc",
            Transport::SysVMsg => "sysv-msg",
            Transport::SunRpc => "sun-rpc",
            Transport::Pipelined => "pipelined",
            Transport::ShmRing => "shm-ring",
        }
    }

    /// Parses a display name (`mach-ipc`, `sysv-msg`, `sun-rpc`,
    /// `pipelined`, `shm-ring`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Transport> {
        Transport::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The transport named by `OMOS_TRANSPORT`, or `default` when the
    /// variable is unset or names no transport.
    #[must_use]
    pub fn from_env(default: Transport) -> Transport {
        std::env::var("OMOS_TRANSPORT")
            .ok()
            .and_then(|v| Transport::from_name(&v))
            .unwrap_or(default)
    }

    /// True for the batched transport (client-side queueing applies).
    #[must_use]
    pub fn is_batched(self) -> bool {
        self == Transport::Pipelined
    }

    /// True for the shared-memory transport (descriptor replies).
    #[must_use]
    pub fn is_mapped(self) -> bool {
        self == Transport::ShmRing
    }
}

/// Accumulated IPC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IpcStats {
    /// Messages sent (each direction counts one; a batch frame and a
    /// doorbell each count one).
    pub messages: u64,
    /// Payload bytes moved (for descriptor replies: the descriptors,
    /// not the images they name).
    pub bytes: u64,
    /// Batch frames flushed on the pipelined transport.
    pub batches: u64,
    /// Requests delivered inside batch frames
    /// (`requests == Σ batch sizes` for a pure pipelined client).
    pub batched_requests: u64,
    /// Shared-memory descriptors received in replies.
    pub descriptors: u64,
    /// New mappings granted (first sighting of a content key).
    pub mappings: u64,
    /// Pages covered by those granted mappings.
    pub mapped_pages: u64,
    /// Ring slots retired back to the server.
    pub retired: u64,
    /// Bounded polls spent by a writer on a full ring.
    pub backpressure_spins: u64,
}

impl std::ops::AddAssign for IpcStats {
    fn add_assign(&mut self, rhs: IpcStats) {
        // Destructure so a new field cannot be forgotten in the fold:
        // adding one to the struct breaks this impl until it is summed.
        let IpcStats {
            messages,
            bytes,
            batches,
            batched_requests,
            descriptors,
            mappings,
            mapped_pages,
            retired,
            backpressure_spins,
        } = rhs;
        self.messages += messages;
        self.bytes += bytes;
        self.batches += batches;
        self.batched_requests += batched_requests;
        self.descriptors += descriptors;
        self.mappings += mappings;
        self.mapped_pages += mapped_pages;
        self.retired += retired;
        self.backpressure_spins += backpressure_spins;
    }
}

/// Bytes one per-page handle occupies in a copied reply.
pub const HANDLE_BYTES_PER_PAGE: u64 = 32;
/// Bytes one image descriptor occupies in a shared-memory reply.
pub const DESCRIPTOR_BYTES: u64 = 32;
/// Fixed header of a descriptor reply.
pub const SHM_REPLY_HEADER_BYTES: u64 = 64;

/// One published image a reply refers to: its content key and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageDescriptor {
    /// Content-addressed key (the image cache key, truncated to 64
    /// bits) — grants are deduplicated on it.
    pub key: u64,
    /// Cache-instance epoch of the image behind the key. A key rebuilt
    /// after an eviction carries a new epoch, so a session holding a
    /// grant from the old instance re-bills the mapping instead of
    /// silently deduplicating against a stale grant.
    pub epoch: u64,
    /// Pages the mapping covers.
    pub pages: u64,
}

/// The physical shape of a reply, so each transport can bill what *it*
/// actually moves: copying transports move `copied_bytes`; the
/// shared-memory transport moves a descriptor per image (falling back
/// to a copy for replies that carry no mappable images at all, e.g.
/// rendered lint findings).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplyShape {
    /// Bytes a copying transport moves for this reply.
    pub copied_bytes: u64,
    /// Published images a mapped transport grants instead.
    pub images: Vec<ImageDescriptor>,
}

impl ReplyShape {
    /// A reply with no mappable content: every transport copies it.
    #[must_use]
    pub fn opaque(bytes: u64) -> ReplyShape {
        ReplyShape {
            copied_bytes: bytes,
            images: Vec::new(),
        }
    }

    /// A reply carrying image handles: `copied_bytes` is what the
    /// copying transports marshal (header + per-page handles), `images`
    /// what the shared-memory transport publishes.
    #[must_use]
    pub fn with_images(copied_bytes: u64, images: Vec<ImageDescriptor>) -> ReplyShape {
        ReplyShape {
            copied_bytes,
            images,
        }
    }

    /// Bytes the shared-memory transport copies for this reply.
    #[must_use]
    pub fn descriptor_bytes(&self) -> u64 {
        if self.images.is_empty() {
            self.copied_bytes
        } else {
            SHM_REPLY_HEADER_BYTES + DESCRIPTOR_BYTES * self.images.len() as u64
        }
    }
}

/// Charges one client→server→client round trip: a message each way at
/// [`CostModel::ipc_msg_ns`] plus [`CostModel::ipc_byte_ns`] per byte.
///
/// The kernel message work is system time; the time the server spends
/// producing the reply (`server_ns`) is an I/O wait for the client.
/// This is the per-request path; batched and mapped transports go
/// through a [`ClientSession`] (a one-shot request on them is billed by
/// [`charge_request`]), which bills its frames and doorbells here too.
pub fn charge_roundtrip(
    clock: &mut SimClock,
    cost: &CostModel,
    transport: Transport,
    request_bytes: u64,
    reply_bytes: u64,
    server_ns: u64,
    stats: &mut IpcStats,
) {
    let msg = cost.ipc_msg_ns(transport);
    clock.charge_system(msg + request_bytes * cost.ipc_byte_ns);
    clock.charge_io_wait(server_ns);
    clock.charge_system(msg + reply_bytes * cost.ipc_byte_ns);
    stats.messages += 2;
    stats.bytes += request_bytes + reply_bytes;
}

/// Charges one synchronous request on *any* transport: per-request
/// transports take a round trip, the pipelined transport a batch of
/// one (identical billing), and the shared-memory transport a doorbell
/// round trip plus fresh grants for every image in the reply.
///
/// Use a [`ClientSession`] instead when requests can actually batch or
/// when grants should be deduplicated across requests.
pub fn charge_request(
    clock: &mut SimClock,
    cost: &CostModel,
    transport: Transport,
    request_bytes: u64,
    reply: &ReplyShape,
    server_ns: u64,
    stats: &mut IpcStats,
) {
    match transport {
        Transport::MachIpc | Transport::SysVMsg | Transport::SunRpc | Transport::Pipelined => {
            charge_roundtrip(
                clock,
                cost,
                transport,
                request_bytes,
                reply.copied_bytes,
                server_ns,
                stats,
            );
        }
        Transport::ShmRing => {
            let mut session = ClientSession::with_window(Transport::ShmRing, 1);
            session.request(clock, cost, 0, request_bytes, reply.clone(), server_ns);
            *stats += session.stats;
        }
    }
}

// --- Shared-memory ring ------------------------------------------------------

/// Default descriptor slots in a client's ring.
pub const DEFAULT_RING_SLOTS: usize = 64;
/// Bounded polls a writer spends on a full ring before reporting
/// backpressure to the caller (each poll is billed).
pub const MAX_PUBLISH_SPINS: u64 = 64;

/// The writer found the ring full and gave up after its bounded,
/// billed spins; the caller must drain (retire) before re-publishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull {
    /// Polls billed before giving up.
    pub spins: u64,
}

impl std::fmt::Display for RingFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ring full after {} bounded spins", self.spins)
    }
}

/// One client's simulated shared-memory descriptor ring: a bounded set
/// of slots the server publishes descriptors into (grant) and the
/// client hands back after installing the mapping (retire).
///
/// The ring itself holds no bytes — images are published by mapping —
/// so checkpointing a server never persists ring contents: a session is
/// either *drained* (all slots retired, nothing queued) before the
/// checkpoint, or its state is reconstructible from content-addressed
/// keys (grants are idempotent; re-granting after a restore bills the
/// transport again but changes no reply bytes).
#[derive(Debug, Clone)]
pub struct ShmRing {
    slots: usize,
    free: usize,
    /// Content key → epoch of the granted instance. Keyed (not a set)
    /// so a re-granted key after an evict+rebuild *replaces* the stale
    /// grant instead of growing without bound, and so the epoch
    /// comparison can tell a stale grant from a live one.
    granted: HashMap<u64, u64>,
}

impl ShmRing {
    /// A ring with `slots` descriptor slots (at least one).
    #[must_use]
    pub fn new(slots: usize) -> ShmRing {
        let slots = slots.max(1);
        ShmRing {
            slots,
            free: slots,
            granted: HashMap::new(),
        }
    }

    /// Total slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Slots currently free for the writer.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.free
    }

    /// True once every published slot has been retired.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.free == self.slots
    }

    /// Content keys this client has already granted (mapped).
    #[must_use]
    pub fn granted(&self) -> usize {
        self.granted.len()
    }

    /// Server side: occupies `n` slots for descriptors. A full ring
    /// makes the writer spin — each poll billed as an I/O wait — up to
    /// [`MAX_PUBLISH_SPINS`]; if the reader still has not retired
    /// anything, the writer reports [`RingFull`] instead of blocking
    /// forever (the backpressure path).
    pub fn try_publish(
        &mut self,
        n: usize,
        clock: &mut SimClock,
        cost: &CostModel,
        stats: &mut IpcStats,
    ) -> Result<(), RingFull> {
        let n = n.min(self.slots);
        if self.free < n {
            // The reader retires asynchronously in a real kernel; the
            // single-threaded simulation can never observe progress
            // mid-call, so a stuck ring costs the writer its whole
            // bounded spin budget before it reports backpressure.
            clock.charge_io_wait(MAX_PUBLISH_SPINS * cost.shm_spin_ns);
            stats.backpressure_spins += MAX_PUBLISH_SPINS;
            return Err(RingFull {
                spins: MAX_PUBLISH_SPINS,
            });
        }
        self.free -= n;
        Ok(())
    }

    /// Client side: hands `n` slots back to the server after installing
    /// their descriptors.
    pub fn retire(
        &mut self,
        n: usize,
        clock: &mut SimClock,
        cost: &CostModel,
        stats: &mut IpcStats,
    ) {
        let n = n.min(self.slots - self.free);
        self.free += n;
        clock.charge_system(n as u64 * cost.shm_retire_ns);
        stats.retired += n as u64;
    }

    /// Records a grant of `key` at `epoch`; true when the mapping must
    /// be installed and billed — either the key is new to this client,
    /// or the client's grant is from an older cache instance (the image
    /// was evicted and rebuilt since, so the old mapping is stale).
    /// The grant is keyed, not appended: re-grants replace the stale
    /// entry, so the table is bounded by distinct keys ever published.
    pub fn grant(&mut self, key: u64, epoch: u64) -> bool {
        match self.granted.insert(key, epoch) {
            None => true,
            Some(prev) => prev != epoch,
        }
    }
}

// --- Client session ----------------------------------------------------------

/// Default max-inflight window for the pipelined transport.
pub const DEFAULT_WINDOW: usize = 32;

#[derive(Debug, Clone)]
struct Pending {
    tag: u64,
    request_bytes: u64,
    reply: ReplyShape,
    server_ns: u64,
}

/// One client's connection to the server over a chosen transport. For
/// the per-request transports every [`ClientSession::request`] bills
/// immediately; on [`Transport::Pipelined`] requests queue behind the
/// max-inflight window and flush as one batch frame; on
/// [`Transport::ShmRing`] replies arrive as descriptors through the
/// session's ring, with grants deduplicated per content key.
///
/// Replies are delivered strictly in request order per session
/// ([`ClientSession::take_delivered`] observes the order); billing is a
/// deterministic function of the request sequence.
#[derive(Debug)]
pub struct ClientSession {
    /// The session's transport.
    pub transport: Transport,
    window: usize,
    queue: Vec<Pending>,
    ring: ShmRing,
    delivered: Vec<u64>,
    /// Transport statistics accumulated by this session.
    pub stats: IpcStats,
}

impl ClientSession {
    /// A session with an explicit max-inflight window and a
    /// [`DEFAULT_RING_SLOTS`] ring.
    #[must_use]
    pub fn with_window(transport: Transport, window: usize) -> ClientSession {
        ClientSession::with_config(transport, window, DEFAULT_RING_SLOTS)
    }

    /// A session with explicit window and ring capacity.
    #[must_use]
    pub fn with_config(transport: Transport, window: usize, ring_slots: usize) -> ClientSession {
        ClientSession {
            transport,
            window: window.max(1),
            queue: Vec::new(),
            ring: ShmRing::new(ring_slots),
            delivered: Vec::new(),
            stats: IpcStats::default(),
        }
    }

    /// The session's max-inflight window.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests not yet flushed (always 0 outside the pipelined
    /// transport).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The session's ring (shared-memory transport state).
    #[must_use]
    pub fn ring(&self) -> &ShmRing {
        &self.ring
    }

    /// Tags of delivered replies, in delivery order, clearing the log.
    pub fn take_delivered(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.delivered)
    }

    /// Issues one request. `tag` identifies the request in the
    /// delivered-order log; `server_ns` is the server work the reply
    /// reported. Returns the number of replies delivered by this call
    /// (0 while the pipelined window is still filling).
    pub fn request(
        &mut self,
        clock: &mut SimClock,
        cost: &CostModel,
        tag: u64,
        request_bytes: u64,
        reply: ReplyShape,
        server_ns: u64,
    ) -> u64 {
        match self.transport {
            Transport::MachIpc | Transport::SysVMsg | Transport::SunRpc => {
                charge_roundtrip(
                    clock,
                    cost,
                    self.transport,
                    request_bytes,
                    reply.copied_bytes,
                    server_ns,
                    &mut self.stats,
                );
                self.delivered.push(tag);
                1
            }
            Transport::Pipelined => {
                self.queue.push(Pending {
                    tag,
                    request_bytes,
                    reply,
                    server_ns,
                });
                if self.queue.len() >= self.window {
                    self.flush(clock, cost)
                } else {
                    0
                }
            }
            Transport::ShmRing => {
                self.shm_request(clock, cost, tag, request_bytes, &reply, server_ns);
                1
            }
        }
    }

    /// Flushes any queued pipelined requests as one batch frame with a
    /// vectored reply; no-op on other transports. Returns the number of
    /// replies delivered.
    ///
    /// Batch billing: one [`CostModel::pipelined_msg_ns`] frame each
    /// way, every byte still copied, and the server wait amortized. Each
    /// member's reported work contains a fixed per-message dispatch
    /// share, `min(server_batch_dispatch_ns, server_ns)`; the batch pays
    /// only the largest member's share and amortizes every other
    /// member's away. A batch of one therefore bills exactly like
    /// [`charge_roundtrip`], and merging two batches never bills more
    /// than flushing them apart (window amortization is monotone).
    pub fn flush(&mut self, clock: &mut SimClock, cost: &CostModel) -> u64 {
        if self.queue.is_empty() || self.transport != Transport::Pipelined {
            return 0;
        }
        let batch: Vec<Pending> = std::mem::take(&mut self.queue);
        let n = batch.len() as u64;
        let request_bytes: u64 = batch.iter().map(|p| p.request_bytes).sum();
        let reply_bytes: u64 = batch.iter().map(|p| p.reply.copied_bytes).sum();
        let server_sum: u64 = batch.iter().map(|p| p.server_ns).sum();
        let (shares, largest) = batch
            .iter()
            .map(|p| cost.server_batch_dispatch_ns.min(p.server_ns))
            .fold((0, 0), |(sum, max), share| (sum + share, max.max(share)));
        charge_roundtrip(
            clock,
            cost,
            Transport::Pipelined,
            request_bytes,
            reply_bytes,
            server_sum - (shares - largest),
            &mut self.stats,
        );
        self.stats.batches += 1;
        self.stats.batched_requests += n;
        self.delivered.extend(batch.iter().map(|p| p.tag));
        n
    }

    /// Drains the session so its transport state is checkpoint-clean:
    /// flushes any queued batch and asserts the ring is fully retired
    /// (it always is between requests — every descriptor is retired as
    /// part of reply processing).
    pub fn drain(&mut self, clock: &mut SimClock, cost: &CostModel) -> u64 {
        let delivered = self.flush(clock, cost);
        debug_assert!(self.ring.drained(), "ring slots leaked past a reply");
        delivered
    }

    /// One shared-memory request: a [`CostModel::shm_doorbell_ns`]
    /// doorbell out, server wait, doorbell back with descriptors, then a
    /// [`CostModel::shm_grant_ns`] grant per new mapping and the slots
    /// retired. Descriptors are published through the bounded ring in
    /// chunks no larger than the free slot count, so a reply wider than
    /// the ring still makes progress one ring-full at a time.
    fn shm_request(
        &mut self,
        clock: &mut SimClock,
        cost: &CostModel,
        tag: u64,
        request_bytes: u64,
        reply: &ReplyShape,
        server_ns: u64,
    ) {
        charge_roundtrip(
            clock,
            cost,
            Transport::ShmRing,
            request_bytes,
            reply.descriptor_bytes(),
            server_ns,
            &mut self.stats,
        );
        let mut remaining: &[ImageDescriptor] = &reply.images;
        while !remaining.is_empty() {
            let chunk = remaining.len().min(self.ring.free_slots().max(1));
            let (now, rest) = remaining.split_at(chunk);
            // The synchronous reader retires as it goes, so the bounded
            // publish cannot report RingFull here; chunking keeps that
            // true even for replies wider than the whole ring.
            #[allow(clippy::expect_used)] // invariant: the chunk fits the free slots
            self.ring
                .try_publish(now.len(), clock, cost, &mut self.stats)
                .expect("chunked publish fits the ring");
            for d in now {
                self.stats.descriptors += 1;
                if self.ring.grant(d.key, d.epoch) {
                    clock.charge_system(cost.shm_grant_ns);
                    self.stats.mappings += 1;
                    self.stats.mapped_pages += d.pages;
                }
            }
            self.ring.retire(now.len(), clock, cost, &mut self.stats);
            remaining = rest;
        }
        self.delivered.push(tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_charges_both_directions() {
        let mut clock = SimClock::new();
        let cost = CostModel::hpux();
        let mut stats = IpcStats::default();
        charge_roundtrip(
            &mut clock,
            &cost,
            Transport::SysVMsg,
            100,
            300,
            50_000,
            &mut stats,
        );
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 400);
        assert_eq!(
            clock.system_ns,
            2 * cost.sysv_msg_ns + 400 * cost.ipc_byte_ns
        );
        assert_eq!(clock.elapsed_ns, clock.system_ns + 50_000);
        assert_eq!(clock.user_ns, 0);
    }

    #[test]
    fn mach_is_cheaper_than_sysv() {
        let cost = CostModel::hpux();
        let mut mach = SimClock::new();
        let mut sysv = SimClock::new();
        let mut s = IpcStats::default();
        charge_roundtrip(&mut mach, &cost, Transport::MachIpc, 64, 64, 0, &mut s);
        charge_roundtrip(&mut sysv, &cost, Transport::SysVMsg, 64, 64, 0, &mut s);
        assert!(mach.elapsed_ns < sysv.elapsed_ns);
    }

    #[test]
    fn stats_aggregate_across_clients() {
        // Multi-client runs keep one IpcStats per thread and fold them
        // into a total afterwards.
        let mut total = IpcStats::default();
        let per_thread = IpcStats {
            messages: 2,
            bytes: 400,
            ..IpcStats::default()
        };
        total += per_thread;
        total += per_thread;
        assert_eq!(total.messages, 4);
        assert_eq!(total.bytes, 800);
    }

    #[test]
    fn stats_fold_is_field_complete_and_order_independent() {
        let a = IpcStats {
            messages: 2,
            bytes: 400,
            batches: 1,
            batched_requests: 8,
            descriptors: 3,
            mappings: 2,
            mapped_pages: 17,
            retired: 3,
            backpressure_spins: 5,
        };
        let b = IpcStats {
            messages: 10,
            bytes: 1,
            batches: 4,
            batched_requests: 13,
            descriptors: 7,
            mappings: 1,
            mapped_pages: 2,
            retired: 7,
            backpressure_spins: 0,
        };
        let c = IpcStats {
            messages: 1,
            bytes: 9,
            batches: 0,
            batched_requests: 0,
            descriptors: 1,
            mappings: 1,
            mapped_pages: 4,
            retired: 1,
            backpressure_spins: 2,
        };
        let mut abc = IpcStats::default();
        abc += a;
        abc += b;
        abc += c;
        let mut cba = IpcStats::default();
        cba += c;
        cba += b;
        cba += a;
        assert_eq!(abc, cba, "folding must be order-independent");
        // Every field must actually fold (no field silently dropped).
        assert_eq!(abc.messages, 13);
        assert_eq!(abc.bytes, 410);
        assert_eq!(abc.batches, 5);
        assert_eq!(abc.batched_requests, 21);
        assert_eq!(abc.descriptors, 11);
        assert_eq!(abc.mappings, 4);
        assert_eq!(abc.mapped_pages, 23);
        assert_eq!(abc.retired, 11);
        assert_eq!(abc.backpressure_spins, 7);
    }

    #[test]
    fn names_round_trip() {
        for t in Transport::ALL {
            assert!(!t.name().is_empty());
            assert_eq!(Transport::from_name(t.name()), Some(t));
        }
        assert_eq!(Transport::from_name("carrier-pigeon"), None);
    }

    #[test]
    fn pipelined_window_of_one_bills_like_the_roundtrip() {
        let cost = CostModel::hpux();
        let mut per_request = SimClock::new();
        let mut stats = IpcStats::default();
        charge_roundtrip(
            &mut per_request,
            &cost,
            Transport::Pipelined,
            128,
            512,
            400_000,
            &mut stats,
        );
        let mut session = ClientSession::with_window(Transport::Pipelined, 1);
        let mut batched = SimClock::new();
        session.request(
            &mut batched,
            &cost,
            0,
            128,
            ReplyShape::opaque(512),
            400_000,
        );
        assert_eq!(per_request, batched);
        assert_eq!(session.stats.messages, 2);
        assert_eq!(session.stats.batches, 1);
        assert_eq!(session.stats.batched_requests, 1);
    }

    #[test]
    fn pipelined_batch_amortizes_messages_and_dispatch() {
        let cost = CostModel::hpux();
        let n = 16u64;
        let server_ns = cost.server_cached_request_ns;
        let run = |window: usize| {
            let mut session = ClientSession::with_window(Transport::Pipelined, window);
            let mut clock = SimClock::new();
            for i in 0..n {
                session.request(
                    &mut clock,
                    &cost,
                    i,
                    128,
                    ReplyShape::opaque(512),
                    server_ns,
                );
            }
            session.flush(&mut clock, &cost);
            (clock, session.stats)
        };
        let (one, s1) = run(1);
        let (batched, s16) = run(16);
        assert!(batched.elapsed_ns < one.elapsed_ns);
        assert_eq!(s1.messages, 2 * n);
        assert_eq!(s16.messages, 2, "one frame each way");
        assert_eq!(s16.batched_requests, n);
        assert_eq!(s1.bytes, s16.bytes, "bytes are copied either way");
        // The batch saves (n-1) message pairs and (n-1) dispatches.
        let expected_saving = (n - 1) * 2 * cost.pipelined_msg_ns
            + (n - 1) * cost.server_batch_dispatch_ns.min(server_ns);
        assert_eq!(one.elapsed_ns - batched.elapsed_ns, expected_saving);
    }

    #[test]
    fn shm_reply_carries_descriptors_not_bytes() {
        let cost = CostModel::hpux();
        let reply = ReplyShape::with_images(
            256 + HANDLE_BYTES_PER_PAGE * 100,
            vec![
                ImageDescriptor {
                    key: 1,
                    epoch: 1,
                    pages: 60,
                },
                ImageDescriptor {
                    key: 2,
                    epoch: 1,
                    pages: 40,
                },
            ],
        );
        let mut session = ClientSession::with_window(Transport::ShmRing, 1);
        let mut clock = SimClock::new();
        session.request(&mut clock, &cost, 0, 128, reply.clone(), 350_000);
        assert_eq!(session.stats.descriptors, 2);
        assert_eq!(session.stats.mappings, 2);
        assert_eq!(session.stats.mapped_pages, 100);
        assert_eq!(session.stats.retired, 2);
        assert_eq!(
            session.stats.bytes,
            128 + SHM_REPLY_HEADER_BYTES + 2 * DESCRIPTOR_BYTES
        );
        // Re-requesting grants nothing new: content-addressed mappings
        // are installed once per client.
        let before = clock.elapsed_ns;
        session.request(&mut clock, &cost, 1, 128, reply, 350_000);
        assert_eq!(session.stats.mappings, 2);
        let second = clock.elapsed_ns - before;
        assert!(
            second < before,
            "warm shm request ({second}) must be cheaper than the granting one ({before})"
        );
    }

    #[test]
    fn shm_beats_copying_for_large_replies() {
        let cost = CostModel::hpux();
        let pages = 200u64;
        let reply = ReplyShape::with_images(
            256 + HANDLE_BYTES_PER_PAGE * pages,
            vec![ImageDescriptor {
                key: 9,
                epoch: 1,
                pages,
            }],
        );
        let mut mach = SimClock::new();
        let mut s = IpcStats::default();
        charge_request(
            &mut mach,
            &cost,
            Transport::MachIpc,
            128,
            &reply,
            350_000,
            &mut s,
        );
        let mut shm = SimClock::new();
        charge_request(
            &mut shm,
            &cost,
            Transport::ShmRing,
            128,
            &reply,
            350_000,
            &mut s,
        );
        assert!(
            shm.elapsed_ns < mach.elapsed_ns,
            "descriptor reply ({}) must beat copying {} handle bytes ({})",
            shm.elapsed_ns,
            reply.copied_bytes,
            mach.elapsed_ns
        );
    }

    #[test]
    fn full_ring_hits_bounded_backpressure_not_a_deadlock() {
        let cost = CostModel::hpux();
        let mut clock = SimClock::new();
        let mut stats = IpcStats::default();
        let mut ring = ShmRing::new(4);
        // A reader that never retires: fill the ring...
        ring.try_publish(4, &mut clock, &cost, &mut stats).unwrap();
        assert_eq!(ring.free_slots(), 0);
        let before = clock.elapsed_ns;
        // ...and the next publish spins its bounded budget, bills every
        // poll, and reports backpressure instead of hanging.
        let err = ring
            .try_publish(1, &mut clock, &cost, &mut stats)
            .unwrap_err();
        assert_eq!(err.spins, MAX_PUBLISH_SPINS);
        assert_eq!(stats.backpressure_spins, MAX_PUBLISH_SPINS);
        assert_eq!(
            clock.elapsed_ns - before,
            MAX_PUBLISH_SPINS * cost.shm_spin_ns
        );
        // Draining un-wedges the writer.
        ring.retire(4, &mut clock, &cost, &mut stats);
        ring.try_publish(1, &mut clock, &cost, &mut stats).unwrap();
    }

    #[test]
    fn replies_wider_than_the_ring_chunk_through() {
        let cost = CostModel::hpux();
        let images: Vec<ImageDescriptor> = (0..10)
            .map(|i| ImageDescriptor {
                key: i,
                epoch: 1,
                pages: 1,
            })
            .collect();
        let reply = ReplyShape::with_images(256, images);
        let mut session = ClientSession::with_config(Transport::ShmRing, 1, 3);
        let mut clock = SimClock::new();
        session.request(&mut clock, &cost, 0, 64, reply, 100_000);
        assert_eq!(session.stats.descriptors, 10);
        assert_eq!(session.stats.mappings, 10);
        assert_eq!(session.stats.retired, 10);
        assert!(session.ring().drained());
    }

    #[test]
    fn delivery_order_is_request_order() {
        let cost = CostModel::hpux();
        for transport in Transport::ALL {
            let mut session = ClientSession::with_window(transport, 4);
            let mut clock = SimClock::new();
            for tag in 0..10u64 {
                session.request(&mut clock, &cost, tag, 64, ReplyShape::opaque(64), 10_000);
            }
            session.drain(&mut clock, &cost);
            assert_eq!(
                session.take_delivered(),
                (0..10).collect::<Vec<u64>>(),
                "transport {} reordered replies",
                transport.name()
            );
        }
    }

    /// One bill: the clock's user, system and elapsed ns, then every
    /// `IpcStats` field in declaration order.
    type Bill = [u64; 12];

    fn bill(clock: &SimClock, s: &IpcStats) -> Bill {
        [
            clock.user_ns,
            clock.system_ns,
            clock.elapsed_ns,
            s.messages,
            s.bytes,
            s.batches,
            s.batched_requests,
            s.descriptors,
            s.mappings,
            s.mapped_pages,
            s.retired,
            s.backpressure_spins,
        ]
    }

    /// Server work per request in a session run: mixes replies above and
    /// below `server_batch_dispatch_ns`, so batches amortize both ways.
    const SESSION_SERVER_NS: [u64; 6] = [350_000, 120_000, 500_000, 350_000, 80_000, 300_000];

    fn images(keys: std::ops::Range<u64>, epoch: u64) -> Vec<ImageDescriptor> {
        keys.map(|key| ImageDescriptor {
            key,
            epoch,
            pages: key + 4,
        })
        .collect()
    }

    /// Six requests through a session, then a drain.
    fn session_bill(session: &mut ClientSession, replies: &[ReplyShape]) -> Bill {
        let cost = CostModel::hpux();
        let mut clock = SimClock::new();
        for (i, &server_ns) in SESSION_SERVER_NS.iter().enumerate() {
            let reply = replies[i % replies.len()].clone();
            session.request(&mut clock, &cost, i as u64, 96, reply, server_ns);
        }
        session.drain(&mut clock, &cost);
        bill(&clock, &session.stats)
    }

    /// Every transport × {opaque, two-image} reply through one
    /// `charge_request` and through sessions at window 1 and 4, plus a
    /// five-image reply through a three-slot ring (with one image
    /// rebuilt under a new epoch on the second request).
    fn bill_table() -> Vec<(String, Bill)> {
        let cost = CostModel::hpux();
        let shapes = [
            ("opaque", ReplyShape::opaque(200)),
            (
                "two-image",
                ReplyShape::with_images(256 + HANDLE_BYTES_PER_PAGE * 12, images(1..3, 1)),
            ),
        ];
        let mut rows = Vec::new();
        for t in Transport::ALL {
            for (shape_name, shape) in &shapes {
                let mut clock = SimClock::new();
                let mut stats = IpcStats::default();
                charge_request(&mut clock, &cost, t, 96, shape, 350_000, &mut stats);
                let name = format!("{}/{shape_name}", t.name());
                rows.push((format!("{name}/request"), bill(&clock, &stats)));
                for window in [1, 4] {
                    let mut session = ClientSession::with_window(t, window);
                    let b = session_bill(&mut session, std::slice::from_ref(shape));
                    rows.push((format!("{name}/window-{window}"), b));
                }
            }
            let mut rebuilt = images(10..15, 1);
            rebuilt[2].epoch = 2;
            let wide = [
                ReplyShape::with_images(1024, images(10..15, 1)),
                ReplyShape::with_images(1024, rebuilt),
            ];
            let mut session = ClientSession::with_config(t, 4, 3);
            let b = session_bill(&mut session, &wide);
            rows.push((format!("{}/five-image/ring-3", t.name()), b));
        }
        rows
    }

    #[rustfmt::skip]
    const BILLS: [(&str, Bill); 35] = [
        ("mach-ipc/opaque/request", [0, 233320, 583320, 2, 296, 0, 0, 0, 0, 0, 0, 0]),
        ("mach-ipc/opaque/window-1", [0, 1399920, 3099920, 12, 1776, 0, 0, 0, 0, 0, 0, 0]),
        ("mach-ipc/opaque/window-4", [0, 1399920, 3099920, 12, 1776, 0, 0, 0, 0, 0, 0, 0]),
        ("mach-ipc/two-image/request", [0, 253120, 603120, 2, 736, 0, 0, 0, 0, 0, 0, 0]),
        ("mach-ipc/two-image/window-1", [0, 1518720, 3218720, 12, 4416, 0, 0, 0, 0, 0, 0, 0]),
        ("mach-ipc/two-image/window-4", [0, 1518720, 3218720, 12, 4416, 0, 0, 0, 0, 0, 0, 0]),
        ("mach-ipc/five-image/ring-3", [0, 1622400, 3322400, 12, 6720, 0, 0, 0, 0, 0, 0, 0]),
        ("sysv-msg/opaque/request", [0, 973320, 1323320, 2, 296, 0, 0, 0, 0, 0, 0, 0]),
        ("sysv-msg/opaque/window-1", [0, 5839920, 7539920, 12, 1776, 0, 0, 0, 0, 0, 0, 0]),
        ("sysv-msg/opaque/window-4", [0, 5839920, 7539920, 12, 1776, 0, 0, 0, 0, 0, 0, 0]),
        ("sysv-msg/two-image/request", [0, 993120, 1343120, 2, 736, 0, 0, 0, 0, 0, 0, 0]),
        ("sysv-msg/two-image/window-1", [0, 5958720, 7658720, 12, 4416, 0, 0, 0, 0, 0, 0, 0]),
        ("sysv-msg/two-image/window-4", [0, 5958720, 7658720, 12, 4416, 0, 0, 0, 0, 0, 0, 0]),
        ("sysv-msg/five-image/ring-3", [0, 6062400, 7762400, 12, 6720, 0, 0, 0, 0, 0, 0, 0]),
        ("sun-rpc/opaque/request", [0, 3013320, 3363320, 2, 296, 0, 0, 0, 0, 0, 0, 0]),
        ("sun-rpc/opaque/window-1", [0, 18079920, 19779920, 12, 1776, 0, 0, 0, 0, 0, 0, 0]),
        ("sun-rpc/opaque/window-4", [0, 18079920, 19779920, 12, 1776, 0, 0, 0, 0, 0, 0, 0]),
        ("sun-rpc/two-image/request", [0, 3033120, 3383120, 2, 736, 0, 0, 0, 0, 0, 0, 0]),
        ("sun-rpc/two-image/window-1", [0, 18198720, 19898720, 12, 4416, 0, 0, 0, 0, 0, 0, 0]),
        ("sun-rpc/two-image/window-4", [0, 18198720, 19898720, 12, 4416, 0, 0, 0, 0, 0, 0, 0]),
        ("sun-rpc/five-image/ring-3", [0, 18302400, 20002400, 12, 6720, 0, 0, 0, 0, 0, 0, 0]),
        ("pipelined/opaque/request", [0, 233320, 583320, 2, 296, 0, 0, 0, 0, 0, 0, 0]),
        ("pipelined/opaque/window-1", [0, 1399920, 3099920, 12, 1776, 6, 6, 0, 0, 0, 0, 0]),
        ("pipelined/opaque/window-4", [0, 519920, 1419920, 4, 1776, 2, 6, 0, 0, 0, 0, 0]),
        ("pipelined/two-image/request", [0, 253120, 603120, 2, 736, 0, 0, 0, 0, 0, 0, 0]),
        ("pipelined/two-image/window-1", [0, 1518720, 3218720, 12, 4416, 6, 6, 0, 0, 0, 0, 0]),
        ("pipelined/two-image/window-4", [0, 638720, 1538720, 4, 4416, 2, 6, 0, 0, 0, 0, 0]),
        ("pipelined/five-image/ring-3", [0, 742400, 1642400, 4, 6720, 2, 6, 0, 0, 0, 0, 0]),
        ("shm-ring/opaque/request", [0, 73320, 423320, 2, 296, 0, 0, 0, 0, 0, 0, 0]),
        ("shm-ring/opaque/window-1", [0, 439920, 2139920, 12, 1776, 0, 0, 0, 0, 0, 0, 0]),
        ("shm-ring/opaque/window-4", [0, 439920, 2139920, 12, 1776, 0, 0, 0, 0, 0, 0, 0]),
        ("shm-ring/two-image/request", [0, 101080, 451080, 2, 224, 0, 0, 2, 2, 11, 2, 0]),
        ("shm-ring/two-image/window-1", [0, 456480, 2156480, 12, 1344, 0, 0, 12, 2, 11, 12, 0]),
        ("shm-ring/two-image/window-4", [0, 456480, 2156480, 12, 1344, 0, 0, 12, 2, 11, 12, 0]),
        ("shm-ring/five-image/ring-3", [0, 611400, 2311400, 12, 1920, 0, 0, 30, 10, 160, 30, 0]),
    ];

    #[test]
    fn bill_table_is_pinned() {
        let table = bill_table();
        assert_eq!(table.len(), BILLS.len());
        for ((name, got), (want_name, want)) in table.iter().zip(BILLS) {
            assert_eq!(name, want_name);
            assert_eq!(*got, want, "{name}");
        }
    }

    #[test]
    fn env_selection_falls_back() {
        // (No env mutation here — just the parser surface.)
        assert_eq!(
            Transport::from_name("pipelined"),
            Some(Transport::Pipelined)
        );
        assert_eq!(Transport::from_name("shm-ring"), Some(Transport::ShmRing));
        assert!(Transport::Pipelined.is_batched());
        assert!(Transport::ShmRing.is_mapped());
        assert!(!Transport::MachIpc.is_batched());
    }
}
