//! The transport-differential oracle.
//!
//! A transport is allowed to change exactly one thing: what the
//! *client* is billed for moving messages. For any history of requests,
//! all five transports — the paper's three per-request copying
//! transports plus the batched (`pipelined`) and shared-memory
//! (`shm-ring`) ones — must produce byte-identical replies, identical
//! canonical resolution manifests, identical `server_ns`, and identical
//! program behavior. Only the transport-billed nanoseconds and the
//! [`IpcStats`] may differ between transports, and those must be a
//! deterministic function of the history per transport.

use std::sync::Arc;

use proptest::prelude::*;

use omos::core::client::run_under_omos;
use omos::core::spill::{SpillStats, SpillTier};
use omos::core::{lint_request, CachedImage, ImageCache, Omos};
use omos::isa::{assemble, StopReason};
use omos::link::encode_image;
use omos::os::ipc::{ClientSession, IpcStats, Transport};
use omos::os::{CostModel, InMemFs, SimClock};

const NLIBS: usize = 3;

/// Image-cache shape a replay runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheCfg {
    /// The default unbounded tier 1 (no evictions ever).
    Unbounded,
    /// A one-byte tier 1 over an unbounded spill tier: every insert
    /// evicts everything else into tier 2, so any revisited image comes
    /// back through a verified fault-in instead of a relink.
    TieredTiny,
}

/// A server with the given transport and cache shape.
fn make_server(transport: Transport, cfg: CacheCfg) -> Omos {
    let cost = CostModel::hpux();
    match cfg {
        CacheCfg::Unbounded => Omos::new(cost, transport),
        CacheCfg::TieredTiny => Omos::with_image_cache(
            cost,
            transport,
            ImageCache::with_shards(1, 1)
                .with_spill(Arc::new(SpillTier::new(u64::MAX, CostModel::hpux()))),
        ),
    }
}

/// Binds a small world: three constraint-placed libraries, four
/// programs over different subsets of them, a blueprint that lints
/// dirty, and one partial-image (dynamic) program.
fn world_cfg(transport: Transport, vals: &[u8], cfg: CacheCfg) -> Omos {
    let s = make_server(transport, cfg);
    populate(&s, vals);
    s
}

/// Binds the world's objects and blueprints into an existing server.
fn populate(s: &Omos, vals: &[u8]) {
    for (i, &val) in vals.iter().enumerate() {
        s.namespace.bind_object(
            &format!("/obj/lib{i}.o"),
            assemble(
                &format!("lib{i}.o"),
                &format!(".text\n.global _f{i}\n_f{i}: li r1, {val}\n ret\n"),
            )
            .unwrap(),
        );
        s.namespace
            .bind_blueprint(
                &format!("/lib/l{i}"),
                &format!(
                    "(constraint-list \"T\" {:#x} \"D\" {:#x})\n(merge /obj/lib{i}.o)",
                    0x0100_0000u64 + (i as u64) * 0x0010_0000,
                    0x4100_0000u64 + (i as u64) * 0x0010_0000,
                ),
            )
            .unwrap();
    }
    for (p, libs) in PROGRAMS {
        let calls: String = libs.iter().map(|i| format!(" call _f{i}\n")).collect();
        s.namespace.bind_object(
            &format!("/obj/{p}.o"),
            assemble(
                &format!("{p}.o"),
                &format!(".text\n.global _start\n_start:\n{calls} sys 0\n"),
            )
            .unwrap(),
        );
        let uses: String = libs.iter().map(|i| format!(" /lib/l{i}")).collect();
        s.namespace
            .bind_blueprint(&format!("/bin/{p}"), &format!("(merge /obj/{p}.o{uses})"))
            .unwrap();
    }
    // A blueprint with a dangling reference, so lint histories carry
    // nonzero findings (reply bytes depend on the rendered text).
    s.namespace
        .bind_blueprint("/bin/dirty", "(merge /obj/a.o)")
        .unwrap();
    // A partial-image program: first call into the library does the
    // lazy OMOS_LOOKUP round trip through the process runtime.
    s.namespace
        .bind_blueprint(
            "/bin/dyn",
            r#"(merge /obj/a.o (specialize "lib-dynamic" /obj/lib0.o))"#,
        )
        .unwrap();
}

/// Programs and the libraries each uses.
const PROGRAMS: [(&str, &[usize]); 4] =
    [("a", &[0]), ("b", &[1, 2]), ("c", &[0, 1, 2]), ("d", &[2])];

/// One step of a client history.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Instantiate `/bin/<i>` through a client session.
    Instantiate(usize),
    /// Lint a program (opaque reply: rendered findings).
    Lint(usize),
    /// Run the partial-image program end to end (exec + lazy lookup).
    Run,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..PROGRAMS.len()).prop_map(Op::Instantiate),
        // One past the end lints `/bin/dirty`, whose findings render
        // nonzero reply bytes.
        (0usize..PROGRAMS.len() + 1).prop_map(Op::Lint),
        Just(Op::Run),
    ]
}

/// The lint target for an `Op::Lint(i)` index.
fn lint_target(i: usize) -> String {
    if i < PROGRAMS.len() {
        format!("/bin/{}", PROGRAMS[i].0)
    } else {
        "/bin/dirty".to_string()
    }
}

/// Everything the server said during one history, transport-billing
/// excluded: this is what the oracle requires to be identical across
/// transports.
#[derive(Debug, PartialEq, Eq)]
struct ServerSide {
    /// Per-instantiate: program index, `server_ns`, manifest hash, and
    /// the concatenated image bytes.
    replies: Vec<(usize, u64, u64, Vec<u8>)>,
    /// Per-lint: program index and the rendered findings.
    lints: Vec<(usize, Vec<String>)>,
    /// Per-run: the stop reason (all must exit identically).
    runs: Vec<StopReason>,
}

/// What only the transport may change — still required to be
/// deterministic per transport.
#[derive(Debug, PartialEq, Eq)]
struct ClientBill {
    elapsed_ns: u64,
    system_ns: u64,
    stats: IpcStats,
}

/// Replays `history` over `transport` on a fresh world.
fn replay(
    transport: Transport,
    vals: &[u8],
    history: &[Op],
    window: usize,
) -> (ServerSide, ClientBill) {
    let (side, bill, _) = replay_cfg(transport, vals, history, window, CacheCfg::Unbounded);
    (side, bill)
}

/// Replays `history` over `transport` with the given cache shape,
/// additionally reporting the spill tier's counters (zeroes when the
/// shape has no spill tier).
fn replay_cfg(
    transport: Transport,
    vals: &[u8],
    history: &[Op],
    window: usize,
    cfg: CacheCfg,
) -> (ServerSide, ClientBill, SpillStats) {
    let server = world_cfg(transport, vals, cfg);
    let cost = CostModel::hpux();
    let mut clock = SimClock::new();
    let mut session = ClientSession::with_window(transport, window);
    let mut extra = IpcStats::default();
    let mut fs = InMemFs::new();
    let mut side = ServerSide {
        replies: Vec::new(),
        lints: Vec::new(),
        runs: Vec::new(),
    };
    for (tag, op) in history.iter().enumerate() {
        match *op {
            Op::Instantiate(i) => {
                let reply = server
                    .instantiate(&format!("/bin/{}", PROGRAMS[i].0))
                    .expect("programs instantiate");
                let mut bytes = encode_image(&reply.program.image);
                for lib in &reply.libraries {
                    bytes.extend_from_slice(&encode_image(&lib.image));
                }
                side.replies
                    .push((i, reply.server_ns, reply.manifest.0, bytes));
                session.request(
                    &mut clock,
                    &cost,
                    tag as u64,
                    128,
                    reply.reply_shape(),
                    reply.server_ns,
                );
            }
            Op::Lint(i) => {
                let diags = lint_request(&server, &lint_target(i), &mut clock, &cost, &mut extra)
                    .expect("lint answers");
                side.lints
                    .push((i, diags.iter().map(|d| d.render()).collect()));
            }
            Op::Run => {
                let out = run_under_omos(
                    &server, "/bin/dyn", false, &mut clock, &cost, &mut fs, 100_000,
                )
                .expect("dyn program runs");
                side.runs.push(out.stop);
                extra += out.ipc;
            }
        }
    }
    session.drain(&mut clock, &cost);
    let mut stats = session.stats;
    stats += extra;
    let bill = ClientBill {
        elapsed_ns: clock.elapsed_ns,
        system_ns: clock.system_ns,
        stats,
    };
    let spill = server.images.spill().map(|s| s.stats()).unwrap_or_default();
    (side, bill, spill)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The oracle: arbitrary histories produce byte-identical replies,
    /// manifests, `server_ns`, findings, and program behavior over all
    /// five transports; the per-transport bill is deterministic.
    #[test]
    fn all_transports_agree_on_everything_but_the_bill(
        vals in proptest::collection::vec(1u8..200, NLIBS..=NLIBS),
        history in proptest::collection::vec(op_strategy(), 1..16),
        window in prop_oneof![Just(1usize), Just(4usize), Just(32usize)],
    ) {
        let (want, _) = replay(Transport::MachIpc, &vals, &history, window);
        for transport in Transport::ALL {
            let (side, bill) = replay(transport, &vals, &history, window);
            prop_assert_eq!(
                &side, &want,
                "transport {} changed server-visible bytes", transport.name()
            );
            // Billing is a pure function of the history per transport.
            let (side2, bill2) = replay(transport, &vals, &history, window);
            prop_assert_eq!(&side2, &side);
            prop_assert_eq!(
                &bill2, &bill,
                "transport {} bills nondeterministically", transport.name()
            );
        }
    }
}

/// The five transports bill *differently* on a byte-heavy history —
/// the oracle above would pass vacuously if every tariff were equal.
#[test]
fn transports_actually_differ_in_billing() {
    let vals = [7u8, 11, 13];
    let history: Vec<Op> = (0..8)
        .map(|i| Op::Instantiate(i % PROGRAMS.len()))
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    for transport in Transport::ALL {
        let (_, bill) = replay(transport, &vals, &history, 8);
        seen.insert(bill.elapsed_ns);
    }
    assert_eq!(
        seen.len(),
        Transport::ALL.len(),
        "every transport should price this history distinctly: {seen:?}"
    );
}

/// The shared-memory transport moves descriptors, not handle bytes,
/// and grants each content key once per session.
#[test]
fn shm_ring_grants_once_and_moves_fewer_bytes() {
    let vals = [7u8, 11, 13];
    let history: Vec<Op> = (0..6).map(|_| Op::Instantiate(2)).collect();
    let (_, mach) = replay(Transport::MachIpc, &vals, &history, 1);
    let (_, shm) = replay(Transport::ShmRing, &vals, &history, 1);
    assert!(shm.stats.bytes < mach.stats.bytes);
    // Program image + 3 libraries, granted exactly once each.
    assert_eq!(shm.stats.mappings, 4);
    assert_eq!(shm.stats.descriptors, 6 * 4);
    assert_eq!(shm.stats.retired, shm.stats.descriptors);
}

/// Regression (failing-first): a key that was evicted and *rebuilt*
/// must re-bill its shared-memory mapping. The grant table used to
/// deduplicate on the content key alone, so a session that mapped an
/// image, lost it to eviction, and received the rebuilt instance under
/// the same key silently reused the stale grant — the client was never
/// billed for installing the new mapping. Descriptors now carry the
/// cache-instance epoch and a moved epoch re-bills.
#[test]
fn evicted_and_rebuilt_image_rebills_the_mapping() {
    let vals = [7u8, 11, 13];
    let cost = CostModel::hpux();
    // One-byte tier 1 with NO spill tier: every insert evicts everything
    // else, and a revisited image must be relinked from scratch (a new
    // cache instance under the same content key).
    let server = Omos::with_image_cache(cost, Transport::ShmRing, ImageCache::with_shards(1, 1));
    populate(&server, &vals);
    let mut clock = SimClock::new();
    let mut session = ClientSession::with_window(Transport::ShmRing, 1);
    let r1 = server.instantiate("/bin/a").expect("a instantiates");
    session.request(&mut clock, &cost, 0, 128, r1.reply_shape(), r1.server_ns);
    assert_eq!(session.stats.mappings, 2, "program a + lib0 granted");

    // Invalidate the cached reply with an idempotent re-bind of the
    // same object bytes: the resolution (and every content key) is
    // unchanged, but the images were evicted, so the server relinks
    // them as new instances.
    server.namespace.bind_object(
        "/obj/a.o",
        assemble("a.o", ".text\n.global _start\n_start:\n call _f0\n sys 0\n").unwrap(),
    );
    let r2 = server.instantiate("/bin/a").expect("a re-instantiates");
    assert!(!r2.cache_hit, "the re-bind invalidated the cached reply");
    assert_eq!(r1.manifest, r2.manifest, "identical resolution");
    assert_eq!(r1.program.key, r2.program.key, "identical content keys");
    session.request(&mut clock, &cost, 1, 128, r2.reply_shape(), r2.server_ns);
    assert_eq!(
        session.stats.mappings, 4,
        "rebuilt instances under the same keys must re-bill both mappings"
    );

    // A true reply-cache hit hands back the *same* instances — that
    // grant is still live and must NOT re-bill.
    let r3 = server.instantiate("/bin/a").expect("a hits");
    assert!(r3.cache_hit);
    session.request(&mut clock, &cost, 2, 128, r3.reply_shape(), r3.server_ns);
    assert_eq!(
        session.stats.mappings, 4,
        "an unchanged instance stays deduplicated"
    );
}

/// Tier-2 oracle: a run whose tier 1 is one byte backed by a spill
/// tier answers every history byte-identically (replies, manifests,
/// `server_ns`, lint findings, program behavior) to a never-evicted
/// run, on all five transports — fault-ins are hits, not rebuilds.
#[test]
fn tier2_fault_in_is_invisible_on_every_transport() {
    let vals = [7u8, 11, 13];
    // Revisit shared libraries after they were pushed out of tier 1:
    // `c` needs lib0..2 after `a`, `b`, and `d` cycled them out; the
    // trailing repeats re-probe everything once more.
    let history = vec![
        Op::Instantiate(0),
        Op::Instantiate(1),
        Op::Instantiate(3),
        Op::Run,
        Op::Instantiate(2),
        Op::Lint(0),
        Op::Instantiate(2),
        Op::Instantiate(0),
    ];
    for transport in Transport::ALL {
        let (want, _, _) = replay_cfg(transport, &vals, &history, 4, CacheCfg::Unbounded);
        let (got, _, spill) = replay_cfg(transport, &vals, &history, 4, CacheCfg::TieredTiny);
        assert_eq!(
            got,
            want,
            "tier-2 fault-ins changed server-visible bytes on {}",
            transport.name()
        );
        assert!(
            spill.fault_ins > 0,
            "the tiered run actually faulted images back in on {}",
            transport.name()
        );
        assert_eq!(
            spill.verify_drops,
            0,
            "no spilled image failed verification on {}",
            transport.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// spill ∘ fault-in is an identity on image bytes: whatever tier 1
    /// evicts into the spill store comes back byte-identical (sealed
    /// encoding, and therefore frames, symbols, and segments).
    #[test]
    fn spill_then_fault_in_is_identity_on_image_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 1..1024),
        zero in 0u64..512,
        rebuild_ns in 0u64..1_000_000,
    ) {
        let image = omos::link::LinkedImage {
            name: "spilled".into(),
            segments: vec![omos::link::Segment {
                name: ".text".into(),
                kind: omos::obj::SectionKind::Text,
                vaddr: 0x1000,
                bytes: bytes.into(),
                zero,
            }],
            symbols: std::collections::HashMap::new(),
            entry: None,
        };
        let original = encode_image(&image);
        let spill = Arc::new(SpillTier::new(u64::MAX, CostModel::hpux()));
        let cache = ImageCache::with_shards(1, 1).with_spill(Arc::clone(&spill));
        cache.insert(CachedImage {
            key: omos::obj::ContentHash(1),
            frames: omos::os::ImageFrames::from_image(&image),
            image,
            link_stats: omos::link::LinkStats::default(),
            rebuild_ns,
            epoch: 0,
        });
        // A second insert pushes the first image out into the tier...
        let evictor = omos::link::LinkedImage {
            name: "evictor".into(),
            segments: vec![omos::link::Segment {
                name: ".text".into(),
                kind: omos::obj::SectionKind::Text,
                vaddr: 0x2000,
                bytes: vec![0xEE; 8].into(),
                zero: 0,
            }],
            symbols: std::collections::HashMap::new(),
            entry: None,
        };
        cache.insert(CachedImage {
            key: omos::obj::ContentHash(2),
            frames: omos::os::ImageFrames::from_image(&evictor),
            image: evictor,
            link_stats: omos::link::LinkStats::default(),
            rebuild_ns: 0,
            epoch: 0,
        });
        prop_assert_eq!(spill.stats().spills, 1);
        // ...and the miss faults it back, byte-identical.
        let back = cache.get(omos::obj::ContentHash(1)).expect("fault-in");
        prop_assert_eq!(encode_image(&back.image), original);
        prop_assert_eq!(back.rebuild_ns, rebuild_ns);
        prop_assert_eq!(spill.stats().fault_ins, 1);
        prop_assert_eq!(spill.stats().verify_drops, 0);
    }
}
