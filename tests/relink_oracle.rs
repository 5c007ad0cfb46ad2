//! The stale-rebuild oracle.
//!
//! A rebind-invalidated reply is rebuilt by the one build path, on a
//! server whose caches still hold whatever the rebind left untouched.
//! For any history of instantiations interleaved with rebinds, every
//! stale rebuild must commit to exactly the resolution a static
//! derivation ([`Omos::explain`]) predicts just before it, and the
//! whole history must produce byte-identical program and library
//! images, identical canonical resolution manifests, and identical
//! program behavior across all five transports and both
//! evaluation-parallelism settings. A live update of a running
//! partial-image process must leave it answering exactly like a process
//! cold-built from the post-rebind reply.
//!
//! Two satellites are pinned here as well: the minimality contract
//! (a rebind invalidates exactly the replies whose manifest diff is
//! non-empty — over-invalidation fails), and the tier-2 composition
//! (a manifest-verified spilled image whose library subgraph is clean
//! faults back in; it never pays a full relink).

use std::sync::Arc;

use proptest::prelude::*;

use omos::analysis::manifest::diff;
use omos::core::spill::SpillTier;
use omos::core::trace::{Stage, TraceCounters};
use omos::core::{live_update, run_under_omos, CachedImage, ImageCache, Omos, OmosBinder};
use omos::isa::{assemble, StopReason, Vm};
use omos::link::encode_image;
use omos::os::ipc::{IpcStats, Transport};
use omos::os::process::STACK_TOP;
use omos::os::{run_process, CostModel, ImageFrames, InMemFs, SimClock};

const NLIBS: usize = 3;

/// Highest content version a rebind can move a library to.
const MAX_VER: u32 = 3;

/// Programs and the libraries each uses.
const PROGRAMS: [(&str, &[usize]); 4] =
    [("a", &[0]), ("b", &[1, 2]), ("c", &[0, 1, 2]), ("d", &[2])];

/// Source of library `i` at content version `v`. Versions change both a
/// value (`_f{i}` returns a version-dependent constant) and the *layout*
/// (`v` pad instructions before `ret` shift `_g{i}`'s address), so a
/// rebind dirties bindings as well as image bytes — the manifest diff
/// carries changed symbols, not just moved image keys.
fn lib_src(i: usize, v: u32) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        ".text\n.global _f{i}, _g{i}\n_f{i}: li r1, {}\n",
        10 * (i + 1) as u32 + v
    );
    for _ in 0..v {
        s.push_str(" li r2, 7\n");
    }
    let _ = writeln!(s, " ret\n_g{i}: li r1, {}\n ret", 90 + i);
    s
}

/// Binds the world into `server`: three constraint-placed libraries at
/// version 0, four programs over different subsets, and one
/// partial-image (dynamic) program over lib0. Turns the image audit on:
/// every image the cache serves must equal a fresh link under the same
/// key and options, so a key too narrow to cover its link fails here.
fn populate(s: &Omos) {
    s.set_image_audit(true);
    for i in 0..NLIBS {
        rebind_lib(s, i, 0);
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
        let calls: String = libs
            .iter()
            .map(|i| format!(" call _f{i}\n call _g{i}\n"))
            .collect();
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
    s.namespace.bind_object(
        "/obj/dapp.o",
        assemble(
            "dapp.o",
            ".text\n.global _start\n_start:\n call _f0\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint(
            "/bin/dyn",
            r#"(merge /obj/dapp.o (specialize "lib-dynamic" /obj/lib0.o))"#,
        )
        .unwrap();
}

/// Rebinds library `i` to content version `v` (idempotent when the
/// version is unchanged — the reply caches still invalidate on the
/// touched path, and the rebuild takes every image from the cache).
fn rebind_lib(s: &Omos, i: usize, v: u32) {
    s.namespace.bind_object(
        &format!("/obj/lib{i}.o"),
        assemble(&format!("lib{i}.o"), &lib_src(i, v)).unwrap(),
    );
}

/// One step of a history.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Instantiate `/bin/<i>`.
    Instantiate(usize),
    /// Rebind library `lib` to content version `ver`.
    Rebind { lib: usize, ver: u32 },
    /// Run the partial-image program end to end (exec + lazy lookup).
    Run,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..PROGRAMS.len()).prop_map(Op::Instantiate),
        (0usize..PROGRAMS.len()).prop_map(Op::Instantiate),
        ((0usize..NLIBS), (0u32..=MAX_VER)).prop_map(|(lib, ver)| Op::Rebind { lib, ver }),
        Just(Op::Run),
    ]
}

/// Everything the server said during one history, billing excluded:
/// what the oracle requires to be identical across transports and jobs.
#[derive(Debug, PartialEq, Eq)]
struct ServerSide {
    /// Per-instantiate: program index, manifest hash, and the
    /// concatenated image bytes (program first, then libraries).
    replies: Vec<(usize, u64, Vec<u8>)>,
    /// Per-run: the stop reason (all must exit identically).
    runs: Vec<StopReason>,
}

/// Replays `history` on a fresh world and reports the server-visible
/// bytes plus the trace counters at the end. Every instantiation that
/// rebuilds a stale reply must commit to the manifest `explain` derived
/// for the path just before it.
fn replay(transport: Transport, jobs: usize, history: &[Op]) -> (ServerSide, TraceCounters) {
    let server = Omos::new(CostModel::hpux(), transport);
    server.set_eval_jobs(jobs);
    populate(&server);
    let cost = CostModel::hpux();
    let mut clock = SimClock::new();
    let mut fs = InMemFs::new();
    let mut side = ServerSide {
        replies: Vec::new(),
        runs: Vec::new(),
    };
    for op in history {
        match *op {
            Op::Instantiate(i) => {
                let path = format!("/bin/{}", PROGRAMS[i].0);
                let derived = server.explain(&path).expect("programs derive");
                let stale0 = server.tracer().counters().reply_stale;
                let reply = server.instantiate(&path).expect("programs instantiate");
                if server.tracer().counters().reply_stale > stale0 {
                    assert_eq!(
                        reply.manifest,
                        derived.hash(),
                        "{path}: the stale rebuild diverged from its derivation"
                    );
                }
                let mut bytes = encode_image(&reply.program.image);
                for lib in &reply.libraries {
                    bytes.extend_from_slice(&encode_image(&lib.image));
                }
                side.replies.push((i, reply.manifest.0, bytes));
            }
            Op::Rebind { lib, ver } => rebind_lib(&server, lib, ver),
            Op::Run => {
                let out = run_under_omos(
                    &server, "/bin/dyn", false, &mut clock, &cost, &mut fs, 100_000,
                )
                .expect("dyn program runs");
                side.runs.push(out.stop);
            }
        }
    }
    (side, server.tracer().counters())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The oracle: for arbitrary histories with interleaved rebinds,
    /// every stale rebuild matches its derivation, and the history
    /// produces byte-identical images, manifests, and program behavior
    /// across all five transports and jobs ∈ {1, 8}.
    #[test]
    fn stale_rebuilds_match_the_reference_on_every_transport_and_jobs(
        history in proptest::collection::vec(op_strategy(), 1..14),
    ) {
        // Reference: sequential, mach-ipc.
        let (want, _) = replay(Transport::MachIpc, 1, &history);
        for transport in Transport::ALL {
            for jobs in [1usize, 8] {
                let (got, _) = replay(transport, jobs, &history);
                prop_assert_eq!(
                    &got, &want,
                    "server-visible bytes diverged on {} jobs={}", transport.name(), jobs
                );
            }
        }
    }
}

/// The oracle above would pass vacuously if its histories never rebuilt
/// a stale reply: a fixed rebind-heavy history must rebuild three, each
/// matching its derivation, with the libraries the rebinds left clean
/// taken from the image cache.
#[test]
fn rebind_heavy_history_rebuilds_stale_replies_from_the_caches() {
    let history = vec![
        Op::Instantiate(2),
        Op::Instantiate(1),
        Op::Rebind { lib: 1, ver: 2 },
        Op::Instantiate(2),
        Op::Instantiate(1),
        Op::Rebind { lib: 0, ver: 1 },
        Op::Rebind { lib: 1, ver: 0 },
        Op::Instantiate(2),
        Op::Instantiate(0),
        Op::Instantiate(3),
    ];
    let (want, _) = replay(Transport::MachIpc, 1, &history);
    let (got, c) = replay(Transport::SysVMsg, 1, &history);
    assert_eq!(got, want);
    // Three rebuilds were rebind-invalidated (the cold first builds and
    // first-touch misses are not stale).
    assert_eq!(c.reply_stale, 3);
    // A library image is keyed by content, placement and the externs
    // its link reads. These libraries reference nothing outside
    // themselves, so every program maps the one image of each version.
    // Five rows link: c's cold build (3), l1 v2 in c's first rebuild and
    // l0 v1 in its second. The other ten come from the image cache, the
    // cold builds of b, a and d included; l1 v0 returns to its held
    // placement and so to its first image.
    assert_eq!(
        (c.relink_reused_images, c.relink_relinked_libraries),
        (10, 5),
        "library images taken from the image cache vs linked"
    );
}

/// The takeover/held-version oracle: a client process runs (and keeps
/// running off) the partial image of lib0's original version while the
/// library ping-pongs to new content and back. The version the client
/// holds is exactly the placement a careless takeover would release
/// (same name, content no longer current); the fixed solver keeps it
/// booked, so the reuse lands back on the original ranges, every run
/// observes the version live at its instant, and every transport and
/// jobs setting answers byte for byte like the reference.
#[test]
fn rebind_while_client_holds_avoided_version_matches_on_every_transport_and_jobs() {
    let history = vec![
        Op::Instantiate(0),
        Op::Run, // binds lib0 v0 into a live client
        Op::Rebind { lib: 0, ver: 2 },
        Op::Instantiate(0),
        Op::Run,                       // observes v2
        Op::Rebind { lib: 0, ver: 0 }, // back to the held version
        Op::Instantiate(0),
        Op::Instantiate(2),
        Op::Run, // observes v0 again — its ranges were never unmapped
    ];
    let (want, _) = replay(Transport::MachIpc, 1, &history);
    // The runs pin liveness: _f0 returns 10 + version.
    assert_eq!(
        want.runs,
        vec![
            StopReason::Exited(10),
            StopReason::Exited(12),
            StopReason::Exited(10)
        ]
    );
    for transport in Transport::ALL {
        for jobs in [1usize, 8] {
            let (got, _) = replay(transport, jobs, &history);
            assert_eq!(
                got,
                want,
                "server-visible bytes diverged on {} jobs={jobs}",
                transport.name()
            );
        }
    }
}

/// No unmapped-live-range regression: after the ping-pong above, every
/// base the final manifests record is still a live solver booking owned
/// by its library — the takeover sequence never left a mapped client
/// range unbooked (which is exactly what releasing a live
/// avoided-version booking used to do).
#[test]
fn held_version_ranges_stay_booked_across_takeover() {
    let server = Omos::new(CostModel::hpux(), Transport::MachIpc);
    populate(&server);
    server.instantiate("/bin/a").unwrap();
    rebind_lib(&server, 0, 2);
    server.instantiate("/bin/a").unwrap();
    rebind_lib(&server, 0, 0);
    server.instantiate("/bin/a").unwrap();
    let m = server.explain("/bin/a").unwrap();
    // The v0 reuse landed back on its original constraint bases.
    assert_eq!(m.libraries[0].text_base, 0x0100_0000);
    assert_eq!(m.libraries[0].data_base, 0x4100_0000);
    let booked: Vec<(String, u64, u64)> = server
        .solver()
        .allocations()
        .map(|(n, a)| (n.to_string(), a.base, a.size))
        .collect();
    for lib in &m.libraries {
        for base in [u64::from(lib.text_base), u64::from(lib.data_base)] {
            assert!(
                booked.iter().any(|(n, b, _)| n == &lib.name && *b == base),
                "manifest base {base:#x} of `{}` is not a live booking: {booked:?}",
                lib.name
            );
        }
    }
}

/// Live-update oracle: a running partial-image process that is
/// live-patched after a rebind (quiesce, retarget stubs, swap bound
/// slots, resume) answers exactly like a process cold-built from the
/// post-rebind reply.
#[test]
fn live_updated_process_answers_like_a_cold_relinked_one() {
    let server = Omos::new(CostModel::hpux(), Transport::MachIpc);
    populate(&server);
    let cost = CostModel::hpux();
    let mut clock = SimClock::new();
    let mut fs = InMemFs::new();
    let mut ipc = IpcStats::default();

    // Build and run once: the first call binds the branch-table slot
    // against the version-0 library (exit = _f0 = 10).
    let old_reply = server.instantiate("/bin/dyn").unwrap();
    let out = run_under_omos(
        &server, "/bin/dyn", false, &mut clock, &cost, &mut fs, 100_000,
    )
    .expect("dyn runs cold");
    assert_eq!(out.stop, StopReason::Exited(10));

    // Keep a process of our own at the *old* text, with its slot bound.
    let mut proc = {
        let mut p = omos::os::Process::spawn(&old_reply.program.frames, &mut clock, &cost)
            .expect("process spawns");
        for lib in &old_reply.libraries {
            p.map_more(&lib.frames, &mut clock, &cost).unwrap();
        }
        p
    };
    let mut binder = OmosBinder::new(&server);
    let first = run_process(&mut proc, &mut clock, &cost, &mut fs, &mut binder, 100_000);
    assert_eq!(first.stop, StopReason::Exited(10));

    // Rebind lib0 and build the post-rebind reply.
    rebind_lib(&server, 0, 2);
    let new_reply = server.instantiate("/bin/dyn").unwrap();
    assert_ne!(old_reply.manifest, new_reply.manifest);

    // Live-patch the quiesced process instead of rebuilding it.
    let report = live_update(
        &server, &mut proc, &old_reply, &new_reply, &mut clock, &cost, &mut ipc,
    )
    .expect("live update succeeds");
    // lib0 exports _f0 and _g0: both stubs retarget, but only the
    // called-and-bound _f0 slot swaps; _g0 stays lazy.
    assert_eq!(report.stubs_retargeted, 2);
    assert_eq!(report.slots_swapped, 1, "the bound slot swaps in place");
    assert_eq!(report.slots_lazy, 1);

    // Resume from the entry point: identical behavior to a cold
    // process built from the new reply.
    proc.vm = Vm::new(old_reply.program.frames.entry.unwrap());
    proc.vm.regs[14] = STACK_TOP - 64;
    let mut binder = OmosBinder::new(&server);
    let live = run_process(&mut proc, &mut clock, &cost, &mut fs, &mut binder, 100_000);
    let cold = run_under_omos(
        &server, "/bin/dyn", false, &mut clock, &cost, &mut fs, 100_000,
    )
    .expect("dyn runs from the new reply");
    assert_eq!(live.stop, cold.stop);
    assert_eq!(live.stop, StopReason::Exited(12), "version 2 value, not 10");
    let snap = server.trace_snapshot();
    assert_eq!(snap.counters.live_updates, 1);
    assert_eq!(snap.counters.live_slots_swapped, 1);
}

/// Minimality: a rebind invalidates exactly the replies whose manifest
/// diff is non-empty. Programs that do not link the rebound library
/// keep their cached reply — over-invalidation fails this test — and
/// the predicted dirty-symbol set matches the rebound library's
/// exports, no more.
#[test]
fn rebind_invalidates_exactly_the_manifest_predicted_set() {
    let server = Omos::new(CostModel::hpux(), Transport::MachIpc);
    populate(&server);
    for (p, _) in PROGRAMS {
        let r = server.instantiate(&format!("/bin/{p}")).unwrap();
        assert!(!r.cache_hit);
    }
    let before: Vec<_> = PROGRAMS
        .iter()
        .map(|(p, _)| server.explain(&format!("/bin/{p}")).unwrap())
        .collect();

    // Rebind lib1: a layout-shifting content change.
    rebind_lib(&server, 1, 1);

    let snap0 = server.trace_snapshot().counters;
    let mut predicted_dirty = 0u64;
    for (i, (p, libs)) in PROGRAMS.iter().enumerate() {
        let after = server.explain(&format!("/bin/{p}")).unwrap();
        let d = diff(&before[i], &after);
        let expect_dirty = libs.contains(&1);
        assert_eq!(
            !d.is_empty(),
            expect_dirty,
            "/bin/{p}: manifest diff must flag exactly the lib1-linked programs"
        );
        predicted_dirty += u64::from(expect_dirty);
        if expect_dirty {
            // The dirty-symbol set is lib1's shifted export, nothing
            // else: _g1 moved (pad instructions shifted it), while _f1
            // keeps its address (only its bytes changed).
            assert_eq!(d.changed_symbols(), ["_g1"], "/bin/{p}");
        }
        let r = server.instantiate(&format!("/bin/{p}")).unwrap();
        assert_eq!(
            r.cache_hit, !expect_dirty,
            "/bin/{p}: invalidation must match the manifest prediction"
        );
        assert_eq!(
            r.manifest,
            after.hash(),
            "/bin/{p}: reply matches the derivation"
        );
    }
    let snap1 = server.trace_snapshot().counters;
    assert_eq!(
        snap1.reply_stale - snap0.reply_stale,
        predicted_dirty,
        "exactly the predicted entries were invalidated — no more, no less"
    );
    // Each dirty program's rebuild took from the image cache every
    // library image whose link reads no moved binding. These libraries
    // read none, so b = [l1, l2] links the new l1 and reuses l2, and
    // c = [l0, l1, l2] then reuses all three, l1 as b's rebuild linked
    // it.
    assert_eq!(
        snap1.relink_reused_images - snap0.relink_reused_images,
        4,
        "the clean library images came from the image cache"
    );
}

/// Tier-2 composition: when a rebind leaves a program's library
/// subgraph clean (an idempotent rebind touches the dependency path but
/// changes no content), the rebuild reuses every image — spilled ones
/// fault back in through manifest verification — and the linker never
/// runs. Counter-pinned: one stale rebuild, every library image reused,
/// zero link-stage samples.
#[test]
fn clean_subgraph_faults_in_spilled_images_without_relinking() {
    let spill = Arc::new(SpillTier::new(u64::MAX, CostModel::hpux()));
    let server = Omos::with_image_cache(
        CostModel::hpux(),
        Transport::MachIpc,
        ImageCache::with_shards(1, 1).with_spill(Arc::clone(&spill)),
    );
    populate(&server);
    let first = server.instantiate("/bin/c").unwrap();
    assert!(
        spill.stats().spills > 0,
        "the one-byte tier 1 pushed images into the spill tier"
    );

    // Idempotent rebind: same bytes, same content keys — the reply
    // invalidates (touched path) but the whole subgraph stays clean.
    rebind_lib(&server, 0, 0);

    let link_count = |s: &omos::core::trace::TraceSnapshot| {
        s.stages
            .iter()
            .find(|h| h.stage == Stage::Link)
            .map_or(0, |h| h.count)
    };
    let snap0 = server.trace_snapshot();
    let faults0 = spill.stats().fault_ins;
    let rebuilt = server.instantiate("/bin/c").unwrap();
    let snap1 = server.trace_snapshot();

    assert!(!rebuilt.cache_hit, "the rebind invalidated the reply");
    assert_eq!(rebuilt.manifest, first.manifest, "identical resolution");
    let (c0, c1) = (&snap0.counters, &snap1.counters);
    assert_eq!(c1.reply_stale - c0.reply_stale, 1, "a stale rebuild");
    assert_eq!(
        (
            c1.relink_reused_images - c0.relink_reused_images,
            c1.relink_relinked_libraries - c0.relink_relinked_libraries,
        ),
        (3, 0),
        "every library image came from the cache"
    );
    assert_eq!(
        link_count(&snap1) - link_count(&snap0),
        0,
        "a clean subgraph must never relink — every image is reused"
    );
    assert!(
        spill.stats().fault_ins > faults0,
        "reused images came back through verified tier-2 fault-ins"
    );
    assert_eq!(spill.stats().verify_drops, 0);

    // And the faulted-in reply is byte-identical to the original.
    assert_eq!(
        encode_image(&rebuilt.program.image),
        encode_image(&first.program.image)
    );
    for (a, b) in rebuilt.libraries.iter().zip(&first.libraries) {
        assert_eq!(a.key, b.key);
        assert_eq!(encode_image(&a.image), encode_image(&b.image));
    }
}

/// World sanity: the oracle's programs actually execute through their
/// libraries (a vacuously-empty world would make every oracle above
/// meaningless).
#[test]
fn oracle_world_programs_exit_with_their_library_values() {
    let server = Omos::new(CostModel::hpux(), Transport::MachIpc);
    populate(&server);
    let cost = CostModel::hpux();
    let mut clock = SimClock::new();
    let mut fs = InMemFs::new();
    // /bin/a calls _f0 (10 + v=0) then _g0 (90): last value wins.
    let out = run_under_omos(&server, "/bin/a", true, &mut clock, &cost, &mut fs, 100_000)
        .expect("a runs");
    assert_eq!(out.stop, StopReason::Exited(90));
}

/// The image audit is not vacuous: an image planted under the key a
/// build will probe, one byte off what that key's link produces, fails
/// the build while the audit is on, and is served as it stands once it
/// is off.
#[test]
fn the_image_audit_rejects_an_image_its_key_does_not_describe() {
    let server = Omos::new(CostModel::hpux(), Transport::MachIpc);
    populate(&server);
    let built = server.instantiate("/bin/a").unwrap();
    let lib = &built.libraries[0];
    let mut planted = lib.image.clone();
    let mut text = planted.segments[0].bytes.to_vec();
    text[0] ^= 1;
    planted.segments[0].bytes = text.into();
    server.images.insert(CachedImage {
        key: lib.key,
        frames: ImageFrames::from_image(&planted),
        image: planted.clone(),
        link_stats: lib.link_stats,
        rebuild_ns: lib.rebuild_ns,
        epoch: 0,
    });
    // An idempotent rebind: the reply goes stale, every key stays.
    rebind_lib(&server, 0, 0);
    let err = server.instantiate("/bin/a").unwrap_err().to_string();
    assert!(err.contains("image audit"), "{err}");

    server.set_image_audit(false);
    let served = server.instantiate("/bin/a").unwrap();
    assert_eq!(served.libraries[0].key, lib.key);
    assert_eq!(served.libraries[0].image, planted);
}
