//! Differential testing of static manifest derivation against the
//! linker.
//!
//! The resolution manifest makes a strong claim: `Omos::explain` can
//! predict, **before** any link runs, exactly where every library will
//! land, what every image will hash to, and which definition every
//! symbol will bind to — and the manifest the server attaches to the
//! real reply must agree byte-for-byte. Any disagreement is an `OM016`
//! divergence and a hard test failure here.
//!
//! The second half checks the diff oracle: after a rebind, the manifest
//! diff must name exactly the bindings the rebuild actually moved — the
//! dep-precise invalidation set — and the *statically predicted* diff
//! must equal the diff of the manifests the two builds actually
//! produced.

use proptest::prelude::*;

use omos::analysis::manifest::{diff, divergence, ResolutionManifest};
use omos::core::{stored_manifests, Omos};
use omos::isa::assemble;
use omos::os::ipc::Transport;
use omos::os::{CostModel, InMemFs, SimClock};

/// Builds a server world: `nlibs` pinned shared libraries (each
/// exporting `_f{i}`), an optional interposed helper pair, and a client
/// calling every export, bound at `/bin/p`.
fn build_world(nlibs: usize, interpose: bool, hide_wrap: bool) -> Omos {
    let server = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    let mut uses = String::new();
    let mut calls = String::new();
    for i in 0..nlibs {
        server.namespace.bind_object(
            &format!("/obj/f{i}.o"),
            assemble(
                &format!("f{i}.o"),
                &format!(".text\n.global _f{i}\n_f{i}: li r1, {i}\n ret\n"),
            )
            .expect("lib object assembles"),
        );
        server
            .namespace
            .bind_blueprint(
                &format!("/lib/l{i}"),
                &format!(
                    "(constraint-list \"T\" {:#x} \"D\" {:#x})\n(merge /obj/f{i}.o)",
                    0x0100_0000 + (i as u64) * 0x0020_0000,
                    0x4100_0000 + (i as u64) * 0x0020_0000,
                ),
            )
            .expect("lib blueprint binds");
        uses.push_str(&format!(" /lib/l{i}"));
        calls.push_str(&format!(" call _f{i}\n"));
    }
    let mut root = String::new();
    if interpose {
        for (path, val) in [("/obj/h1.o", 10), ("/obj/h2.o", 20)] {
            server.namespace.bind_object(
                path,
                assemble(
                    path,
                    &format!(".text\n.global _h\n_h: li r1, {val}\n ret\n"),
                )
                .expect("helper assembles"),
            );
        }
        calls.push_str(" call _h\n");
        root.push_str(" (override /obj/h1.o /obj/h2.o)");
    }
    server.namespace.bind_object(
        "/obj/main.o",
        assemble(
            "main.o",
            &format!(".text\n.global _start\n_start:\n{calls} sys 0\n"),
        )
        .expect("main assembles"),
    );
    let main = if hide_wrap {
        "(hide \"^_none$\" /obj/main.o)".to_string()
    } else {
        "/obj/main.o".to_string()
    };
    server
        .namespace
        .bind_blueprint("/bin/p", &format!("(merge {main}{root}{uses})"))
        .expect("program blueprint binds");
    server
}

/// The manifest the server's *reply path* persisted for `/bin/p`:
/// checkpoint the server and read the stored bytes back.
fn actual_manifest(server: &Omos) -> ResolutionManifest {
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    server
        .checkpoint(&mut fs, &mut clock, "/ck")
        .expect("checkpoint succeeds");
    let mut stored = stored_manifests(&mut fs, &mut clock, &cost, "/ck");
    assert_eq!(stored.len(), 1, "one cached reply, one stored manifest");
    stored.pop().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Static derivation — run *before* the first link — must agree
    /// byte-for-byte with the manifest the real build attaches to its
    /// reply, and re-derivation afterwards (the reuse path) must not
    /// move either.
    #[test]
    fn static_manifest_matches_the_linker(
        nlibs in 1usize..4,
        interpose in any::<bool>(),
        hide_wrap in any::<bool>(),
    ) {
        let server = build_world(nlibs, interpose, hide_wrap);
        let predicted = server.explain("/bin/p").expect("static derivation");
        let reply = server.instantiate("/bin/p").expect("program links");
        prop_assert_eq!(
            predicted.hash(), reply.manifest,
            "pre-link prediction disagrees with the reply's manifest hash"
        );
        let actual = actual_manifest(&server);
        let diags = divergence(&predicted, &actual);
        prop_assert!(
            diags.is_empty(),
            "OM016 divergence: {:?}",
            diags.iter().map(|d| &d.message).collect::<Vec<_>>()
        );
        prop_assert_eq!(predicted.encode(), actual.encode());
        let rederived = server.explain("/bin/p").expect("re-derivation");
        prop_assert_eq!(rederived.encode(), actual.encode());
    }

    /// Manifest derivation is a pure function of the world: two fresh
    /// servers given the same namespace produce byte-identical
    /// manifests (the cross-run face of the determinism gate).
    #[test]
    fn derivation_is_deterministic_across_servers(
        nlibs in 1usize..4,
        interpose in any::<bool>(),
    ) {
        let a = build_world(nlibs, interpose, false);
        let b = build_world(nlibs, interpose, false);
        // One side links first, the other derives cold: state must not
        // leak into the canonical bytes.
        a.instantiate("/bin/p").expect("links");
        let ma = a.explain("/bin/p").expect("derives");
        let mb = b.explain("/bin/p").expect("derives");
        prop_assert_eq!(ma.encode(), mb.encode());
    }
}

/// The oracle test for `ofe explain A B`: rebind one library object so
/// one export moves, and check the diff names exactly that binding —
/// not the other exports of the same library, not the other libraries,
/// not the program — and that the statically predicted diff equals the
/// diff of the manifests the two real builds produced.
#[test]
fn rebind_diff_names_exactly_the_moved_bindings() {
    let world = |v2: bool| {
        let server = Omos::new(CostModel::hpux(), Transport::SysVMsg);
        let grow = if v2 { " li r2, 9\n" } else { "" };
        server.namespace.bind_object(
            "/obj/l.o",
            assemble(
                "l.o",
                &format!(
                    ".text\n.global _f0, _g0\n_f0: li r1, 0\n{grow} ret\n_g0: li r1, 1\n ret\n"
                ),
            )
            .expect("lib assembles"),
        );
        server
            .namespace
            .bind_blueprint(
                "/lib/l",
                "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge /obj/l.o)",
            )
            .expect("lib binds");
        server.namespace.bind_object(
            "/obj/main.o",
            assemble(
                "main.o",
                ".text\n.global _start\n_start: call _f0\n sys 0\n",
            )
            .expect("main assembles"),
        );
        server
            .namespace
            .bind_blueprint("/bin/p", "(merge /obj/main.o /lib/l)")
            .expect("program binds");
        server
    };

    let before = world(false);
    let after = world(true);
    let predicted_before = before.explain("/bin/p").expect("derives");
    let predicted_after = after.explain("/bin/p").expect("derives");
    let d = diff(&predicted_before, &predicted_after);

    // `_f0` keeps its offset; only `_g0` moves behind it. The minimal
    // invalidation set is exactly that one binding.
    assert_eq!(d.changed_symbols(), ["_g0"], "{}", d.render());
    assert!(d.added.is_empty() && d.removed.is_empty(), "{}", d.render());
    assert_eq!(d.libraries_changed, ["/lib/l"], "{}", d.render());
    // The program's image key covers the bindings its link reads. It
    // calls `_f0` alone, which kept its address, so the rebuilt library
    // leaves the program's image, and its row, unchanged.
    assert!(!d.program_changed, "{}", d.render());
    let rendered = d.render();
    assert!(rendered.contains("~ _g0"), "{rendered}");
    assert!(!rendered.contains("_f0"), "{rendered}");

    // The predicted diff is the real diff: build both worlds and
    // compare against the manifests the linker actually produced.
    before.instantiate("/bin/p").expect("v1 links");
    after.instantiate("/bin/p").expect("v2 links");
    let actual = diff(&actual_manifest(&before), &actual_manifest(&after));
    assert_eq!(d, actual);
}
