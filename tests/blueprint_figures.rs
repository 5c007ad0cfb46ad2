//! Golden tests for the paper's three figures: the blueprint texts parse
//! to the expected graphs, evaluate, and the resulting programs behave
//! as the paper describes.

use omos::analysis::analyze_blueprint_report;
use omos::blueprint::{Blueprint, MNode};
use omos::constraint::RegionClass;
use omos::core::server::NamespaceLint;
use omos::core::{run_under_omos, Entry, Omos};
use omos::isa::{assemble, StopReason};
use omos::os::ipc::Transport;
use omos::os::{CostModel, InMemFs, SimClock};

/// Figure 1, verbatim (with `/libc/...` fragments bound in the test
/// namespace).
const FIGURE_1: &str = r#"
(constraint-list "T" 0x100000 "D" 0x40200000) ; default address constraint
(merge
  /libc/gen /libc/stdio /libc/string /libc/stdlib
  /libc/hppa /libc/net /libc/quad /libc/rpc)
"#;

/// Figure 2, verbatim.
const FIGURE_2: &str = r#"
;;
;; malloc() -> malloc'()
;;
(hide "_REAL_malloc"
  (merge
    ;; Get rid of the old definition
    (restrict "^_malloc$"
      ;; stash a copy of _malloc() for later use
      (copy_as "^_malloc$" "_REAL_malloc"
        (merge /bin/ls.o /lib/libc.o)
      )
    )
    ;; Merge in a new definition
    /lib/test_malloc.o
  )
)
"#;

/// Figure 3, verbatim.
const FIGURE_3: &str = r#"
(merge
  ;; resolve an undefined data reference and
  ;; reroute undefined routines to "abort()"
  (source "c" "int undef_var = 0;\n")
  (rename "^_undefined_routine$" "_abort"
    /lib/lib-with-problems))
"#;

#[test]
fn figure1_parses_to_constraint_list_plus_merge_of_eight() {
    let bp = Blueprint::parse(FIGURE_1).unwrap();
    assert_eq!(
        bp.constraints,
        vec![
            (RegionClass::Text, 0x10_0000),
            (RegionClass::Data, 0x4020_0000)
        ]
    );
    match &bp.root {
        MNode::Merge(items) => {
            assert_eq!(items.len(), 8);
            assert_eq!(items[0], MNode::Leaf("/libc/gen".into()));
            assert_eq!(items[7], MNode::Leaf("/libc/rpc".into()));
        }
        other => panic!("figure 1 root should be merge, got {other:?}"),
    }
}

#[test]
fn figure1_acts_as_a_self_contained_library() {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    for m in [
        "gen", "stdio", "string", "stdlib", "hppa", "net", "quad", "rpc",
    ] {
        s.namespace.bind_object(
            &format!("/libc/{m}"),
            assemble(
                m,
                &format!(".text\n.global _{m}_fn\n_{m}_fn: li r1, 1\n ret\n"),
            )
            .unwrap(),
        );
    }
    s.namespace.bind_blueprint("/lib/libc", FIGURE_1).unwrap();
    s.namespace.bind_object(
        "/obj/use.o",
        assemble(
            "use.o",
            ".text\n.global _start\n_start: call _stdio_fn\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/use", "(merge /obj/use.o /lib/libc)")
        .unwrap();
    let reply = s.instantiate("/bin/use").unwrap();
    assert_eq!(
        reply.libraries.len(),
        1,
        "figure 1 libc is a placement request"
    );
    let lib = &reply.libraries[0];
    let text_base = lib
        .image
        .segments
        .iter()
        .map(|seg| seg.vaddr)
        .min()
        .unwrap();
    assert_eq!(
        text_base, 0x10_0000,
        "the constraint-list address was honored"
    );
}

#[test]
fn figure2_traces_malloc_transparently() {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    s.namespace.bind_object(
        "/bin/ls.o",
        assemble(
            "ls.o",
            r#"
            .text
            .global _start
_start:     li r1, 48
            call _malloc
            mov r10, r1          ; the pointer from the REAL malloc
            li r2, _malloc_count
            ld r3, [r2]
            ; exit code: count * 1000 + (ptr != 0)
            li r4, 1000
            mul r1, r3, r4
            beq r10, r0, _z
            addi r1, r1, 1
_z:         sys 0
            "#,
        )
        .unwrap(),
    );
    s.namespace.bind_object(
        "/lib/libc.o",
        assemble("libc.o", ".text\n.global _malloc\n_malloc: sys 7\n ret\n").unwrap(),
    );
    s.namespace.bind_object(
        "/lib/test_malloc.o",
        assemble(
            "tm.o",
            r#"
            .text
            .global _malloc
            .extern _REAL_malloc
_malloc:    li r7, _malloc_count
            ld r6, [r7]
            addi r6, r6, 1
            st r6, [r7]
            mov r8, r15
            call _REAL_malloc
            mov r15, r8
            ret
            .data
            .global _malloc_count
_malloc_count: .word 0
            "#,
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/ls-traced", FIGURE_2)
        .unwrap();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let out = run_under_omos(
        &s,
        "/bin/ls-traced",
        true,
        &mut clock,
        &cost,
        &mut fs,
        100_000,
    )
    .unwrap();
    // One counted call AND a real (non-null) allocation: 1 * 1000 + 1.
    assert_eq!(out.stop, StopReason::Exited(1001));
    // References to the native routine in the new routine are preserved,
    // but the name is hidden from the result.
    let reply = s.instantiate("/bin/ls-traced").unwrap();
    assert!(reply.program.image.find("_REAL_malloc").is_none());
}

#[test]
fn figure3_fills_defaults_and_reroutes() {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    s.namespace.bind_object(
        "/lib/lib-with-problems",
        assemble(
            "lwp.o",
            r#"
            .text
            .global _start, _abort
_start:     li r2, _undef_var
            ld r1, [r2]
            bne r1, r0, _trouble
            sys 0
_trouble:   call _undefined_routine
            sys 0
_abort:     halt
            "#,
        )
        .unwrap(),
    );
    s.namespace.bind_blueprint("/bin/fixed", FIGURE_3).unwrap();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let out = run_under_omos(&s, "/bin/fixed", true, &mut clock, &cost, &mut fs, 100_000).unwrap();
    // `undef_var` defaulted to 0 by the source operator, so the program
    // exits 0 without touching the rerouted routine.
    assert_eq!(out.stop, StopReason::Exited(0));
    // And the reroute really points at _abort: no `_undefined_routine`
    // remains anywhere in the program's namespace.
    let reply = s.instantiate("/bin/fixed").unwrap();
    assert!(reply.program.image.find("_undefined_routine").is_none());
    assert!(reply.program.image.find("_undef_var").is_some());
}

// --- Static analysis over the figures --------------------------------------
//
// The paper's own blueprints must lint clean (zero diagnostics), and a
// seeded defect in each must be caught by exactly the right detector,
// pointing at the right source bytes.

fn figure1_world() -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    for m in [
        "gen", "stdio", "string", "stdlib", "hppa", "net", "quad", "rpc",
    ] {
        s.namespace.bind_object(
            &format!("/libc/{m}"),
            assemble(
                m,
                &format!(".text\n.global _{m}_fn\n_{m}_fn: li r1, 1\n ret\n"),
            )
            .unwrap(),
        );
    }
    s.namespace.bind_blueprint("/lib/libc", FIGURE_1).unwrap();
    s.namespace.bind_object(
        "/obj/use.o",
        assemble(
            "use.o",
            ".text\n.global _start\n_start: call _stdio_fn\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/use", "(merge /obj/use.o /lib/libc)")
        .unwrap();
    s
}

fn figure2_world() -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    s.namespace.bind_object(
        "/bin/ls.o",
        assemble(
            "ls.o",
            ".text\n.global _start\n_start: li r1, 48\n call _malloc\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace.bind_object(
        "/lib/libc.o",
        assemble("libc.o", ".text\n.global _malloc\n_malloc: sys 7\n ret\n").unwrap(),
    );
    s.namespace.bind_object(
        "/lib/test_malloc.o",
        assemble(
            "tm.o",
            r#"
            .text
            .global _malloc
            .extern _REAL_malloc
_malloc:    call _REAL_malloc
            ret
            "#,
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/ls-traced", FIGURE_2)
        .unwrap();
    s
}

fn figure3_world() -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    s.namespace.bind_object(
        "/lib/lib-with-problems",
        assemble(
            "lwp.o",
            r#"
            .text
            .global _start, _abort
_start:     li r2, _undef_var
            ld r1, [r2]
            sys 0
_abort:     halt
            .extern _undefined_routine
            "#,
        )
        .unwrap(),
    );
    s.namespace.bind_blueprint("/bin/fixed", FIGURE_3).unwrap();
    s
}

#[test]
fn figure_blueprints_lint_clean() {
    // Zero diagnostics — not merely zero errors — on the paper's own
    // blueprints and every auxiliary blueprint these worlds bind.
    let s = figure1_world();
    for path in ["/lib/libc", "/bin/use"] {
        let diags = s.lint(path).unwrap();
        assert!(diags.is_empty(), "{path}: {diags:?}");
    }
    let s = figure2_world();
    let diags = s.lint("/bin/ls-traced").unwrap();
    assert!(diags.is_empty(), "{diags:?}");
    let s = figure3_world();
    let diags = s.lint("/bin/fixed").unwrap();
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn seeded_unresolved_operand_is_caught_with_its_span() {
    let s = figure1_world();
    let defective = FIGURE_1.replace("/libc/rpc)", "/libc/rpc /libc/bogus)");
    s.namespace
        .bind_blueprint("/lib/libc-bad", &defective)
        .unwrap();
    let diags = s.lint("/lib/libc-bad").unwrap();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "OM001");
    let span = diags[0].span.expect("span");
    let at = defective.find("/libc/bogus").unwrap();
    assert_eq!((span.start, span.end), (at, at + "/libc/bogus".len()));
}

#[test]
fn seeded_duplicate_definition_is_caught() {
    // Figure 2 without the `restrict` step: the old _malloc definition
    // survives and collides with the replacement.
    let s = figure2_world();
    let defective = r#"
(hide "_REAL_malloc"
  (merge
    (copy_as "^_malloc$" "_REAL_malloc"
      (merge /bin/ls.o /lib/libc.o))
    /lib/test_malloc.o))
"#;
    s.namespace
        .bind_blueprint("/bin/ls-traced-bad", defective)
        .unwrap();
    let diags = s.lint("/bin/ls-traced-bad").unwrap();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "OM003");
    assert!(diags[0].message.contains("_malloc"), "{diags:?}");
    let span = diags[0].span.expect("span");
    let at = defective.find("/lib/test_malloc.o").unwrap();
    assert_eq!(
        (span.start, span.end),
        (at, at + "/lib/test_malloc.o".len())
    );
}

#[test]
fn seeded_dead_pattern_is_caught() {
    // Figure 2 with a typo in the final hide: nothing matches, the
    // stashed copy leaks into the exported namespace.
    let s = figure2_world();
    let defective = FIGURE_2.replace("(hide \"_REAL_malloc\"", "(hide \"_REALLY_malloc\"");
    s.namespace
        .bind_blueprint("/bin/ls-traced-bad", &defective)
        .unwrap();
    let diags = s.lint("/bin/ls-traced-bad").unwrap();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "OM005");
    let span = diags[0].span.expect("span");
    let at = defective.find("(hide").unwrap();
    assert_eq!(span.start, at, "span starts at the dead hide form");
}

#[test]
fn seeded_unresolved_reference_is_caught() {
    // Figure 3 rerouting to a routine that doesn't exist.
    let s = figure3_world();
    let defective = FIGURE_3.replace("\"_abort\"", "\"_abort_misspelled\"");
    s.namespace
        .bind_blueprint("/bin/fixed-bad", &defective)
        .unwrap();
    let diags = s.lint("/bin/fixed-bad").unwrap();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "OM002");
    assert!(diags[0].message.contains("_abort_misspelled"), "{diags:?}");
    assert!(diags[0].span.is_some());
}

#[test]
fn seeded_constraint_overlap_is_caught() {
    // A client pinning itself on top of figure 1's library text window.
    let s = figure1_world();
    let defective = "(constraint-list \"T\" 0x100000)\n(merge /obj/use.o /lib/libc)";
    s.namespace
        .bind_blueprint("/bin/use-overlap", defective)
        .unwrap();
    let diags = s.lint("/bin/use-overlap").unwrap();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "OM008");
    assert!(diags[0].message.contains("/lib/libc"), "{diags:?}");
}

// --- Golden resolution manifests -------------------------------------------
//
// The figure fixtures are fully deterministic worlds, so their
// resolution manifests are stable down to the byte. The rendered
// manifests are kept as golden files and compared exactly: any drift in
// placement, symbol resolution, or image identity shows up as a diff
// here before it shows up anywhere else.

fn golden_check(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("OMOS_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {path:?} ({e}); run with OMOS_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        got, want,
        "manifest for {name} drifted from its golden snapshot; if the \
         change is intentional, regenerate with OMOS_UPDATE_GOLDEN=1"
    );
}

#[test]
fn figure_manifests_match_golden_snapshots() {
    for (name, server, path) in [
        ("figure1-use.manifest", figure1_world(), "/bin/use"),
        (
            "figure2-ls-traced.manifest",
            figure2_world(),
            "/bin/ls-traced",
        ),
        ("figure3-fixed.manifest", figure3_world(), "/bin/fixed"),
    ] {
        let m = server.explain(path).unwrap();
        // The static derivation is also what the real build commits to.
        let reply = server.instantiate(path).unwrap();
        assert_eq!(m.hash(), reply.manifest, "{path}");
        golden_check(name, &m.render());
    }
}

/// Figure 2 with `override` in place of restrict-and-merge: the
/// interposition is then a conflict the evaluator records.
const FIGURE_2_OVERRIDE: &str = r#"
(hide "_REAL_malloc"
  (override
    (copy_as "^_malloc$" "_REAL_malloc" (merge /bin/ls.o /lib/libc.o))
    /lib/test_malloc.o))
"#;

#[test]
fn figure_interpositions_match_the_analyzer() {
    // The manifest's interpositions are the overrides the evaluation
    // recorded; the analyzer's prediction must agree, cold and again
    // from the warm eval cache.
    let traced = figure2_world();
    traced
        .namespace
        .bind_blueprint("/bin/ls-override", FIGURE_2_OVERRIDE)
        .unwrap();
    for (server, path, want) in [
        (figure1_world(), "/bin/use", &[][..]),
        (figure2_world(), "/bin/ls-traced", &[]),
        (traced, "/bin/ls-override", &["_malloc"]),
        (figure3_world(), "/bin/fixed", &[]),
    ] {
        let Some(Entry::Meta(bp)) = server.namespace.lookup(path) else {
            panic!("{path} is bound to a blueprint");
        };
        let mut predicted =
            analyze_blueprint_report(&bp, &mut NamespaceLint(&server.namespace)).interpositions;
        predicted.sort();
        predicted.dedup();
        assert_eq!(predicted, want, "analyzer on {path}");
        for pass in ["cold", "warm"] {
            let m = server.explain(path).unwrap();
            assert_eq!(m.interpositions, want, "{pass} derivation of {path}");
        }
    }
}

#[test]
fn figure_blueprints_hash_stably() {
    // The server's caches key on these hashes; they must be stable
    // across parses.
    for src in [FIGURE_1, FIGURE_2, FIGURE_3] {
        let a = Blueprint::parse(src).unwrap().hash();
        let b = Blueprint::parse(src).unwrap().hash();
        assert_eq!(a, b);
    }
}

// --- Pinned operator bytes --------------------------------------------------
//
// One blueprint that spells every operator, every specialization, the
// `constrain` sugar, `initializers`, `source`, default constraints and
// all three policy kinds. Its structural hash, its persisted frame and
// the content hash of a module after each view operator are pinned as
// literals: they are cache keys, image keys and on-disk bytes, so a
// refactor of the operator vocabulary must leave every one unmoved.

const EVERY_OPERATOR: &str = r#"
(constraint-list "T" 0x100000 "D" 0x40200000 "P" 0x50000000)
(policy deny "^_exec")
(policy trampoline "^_malloc$")
(policy audit "^_free$")
(merge
  (rename "^_a$" "_b" /lib/a)
  (rename-refs "^_c$" "_d" /lib/b)
  (rename-defs "^_e$" "_f" /lib/c)
  (hide "^_g$" /lib/d)
  (show "^_h$" /lib/e)
  (restrict "^_i$" /lib/f)
  (project "^_j$" /lib/g)
  (copy-as "^_k$" "_l" /lib/h)
  (copy_as "^_m$" "_n" /lib/i)
  (freeze "^_o$" /lib/j)
  (initializers /lib/k)
  (source "asm" ".text\n.global _p\n_p: ret\n")
  (override /lib/l /lib/m)
  (specialize "lib-static" /lib/n)
  (specialize "lib-dynamic" /lib/o)
  (specialize "lib-dynamic-impl" /lib/p)
  (specialize "lib-constrained" (list "T" 0x1000000 "D" 0x2000000) /lib/q)
  (constrain "P" 0x3000000 /lib/r))
"#;

#[test]
fn operator_hashes_and_frame_bytes_are_pinned() {
    use omos::core::persist::encode_blueprint;
    use omos::module::Module;
    use omos::obj::fnv1a;
    use omos::obj::view::RenameTarget;

    let bp = Blueprint::parse(EVERY_OPERATOR).unwrap();
    assert_eq!(bp.hash().0, 0xf0fd_d913_e03a_af41, "Blueprint::hash");
    assert_eq!(
        fnv1a(&encode_blueprint(&bp)).0,
        0xc64a_6289_b659_09e5,
        "FNV of the Blueprint frame"
    );

    let base = Module::from_object(
        assemble(
            "lib.o",
            ".text\n.global _malloc\n.global _free\n.extern _sbrk\n\
             _malloc: call _sbrk\n ret\n_free: call _malloc\n ret\n",
        )
        .unwrap(),
    );
    let after = [
        (
            "rename",
            base.rename("^_malloc$", "_xmalloc", RenameTarget::Both),
        ),
        (
            "rename-refs",
            base.rename("^_sbrk$", "_ysbrk", RenameTarget::Refs),
        ),
        (
            "rename-defs",
            base.rename("^_free$", "_zfree", RenameTarget::Defs),
        ),
        ("hide", base.hide("^_malloc$")),
        ("show", base.show("^_free$")),
        ("restrict", base.restrict("^_malloc$")),
        ("project", base.project("^_free$")),
        ("copy_as", base.copy_as("^_malloc$", "_REAL_malloc")),
        ("freeze", base.freeze("^_free$")),
    ];
    let got: Vec<(&str, u64)> = after
        .into_iter()
        .map(|(op, m)| (op, m.unwrap().content_hash().0))
        .collect();
    let want: [(&str, u64); 9] = [
        ("rename", 0xf972_1c91_7ae5_de97),
        ("rename-refs", 0x6976_ea15_a10c_a59f),
        ("rename-defs", 0xf37b_5343_1d01_4adf),
        ("hide", 0xeac7_318e_bff7_535e),
        ("show", 0x4839_088a_6c3f_2489),
        ("restrict", 0x2f99_0f96_3303_cb4a),
        ("project", 0x3e68_efec_e5ab_e0a6),
        ("copy_as", 0xca3a_7024_1d83_97ab),
        ("freeze", 0x3013_29db_39dc_7925),
    ];
    assert_eq!(got, want);
}

// --- Checkpoint bytes --------------------------------------------------------
//
// Every byte a checkpoint writes is pinned: the two manifest slots, each
// sealed image and the journal. A codec change that moves one byte, in
// any record, fails here with the file it moved.

/// Figures 1–3 in one server, plus a policy blueprint and a second
/// library that asks for Figure 1's text address (a logged conflict).
fn checkpoint_world() -> Omos {
    let s = figure1_world();
    for world in [figure2_world(), figure3_world()] {
        for (path, entry) in world.namespace.entries() {
            match entry {
                Entry::Object(obj) => s.namespace.bind_object(&path, (*obj).clone()),
                Entry::Meta(bp) => s.namespace.bind_meta(&path, (*bp).clone()),
            }
        }
    }
    s.namespace
        .bind_blueprint(
            "/bin/use-audit",
            "(policy audit \"^_stdio_fn$\")\n(merge /obj/use.o /lib/libc)",
        )
        .unwrap();
    s.namespace.bind_object(
        "/libm/sin",
        assemble("sin", ".text\n.global _sin\n_sin: li r1, 2\n ret\n").unwrap(),
    );
    s.namespace
        .bind_blueprint(
            "/lib/libm",
            "(constraint-list \"T\" 0x100000 \"D\" 0x40300000)\n(merge /libm/sin)",
        )
        .unwrap();
    s.namespace.bind_object(
        "/obj/math.o",
        assemble(
            "math.o",
            ".text\n.global _start\n_start: call _sin\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/math", "(merge /obj/math.o /lib/libm)")
        .unwrap();
    s
}

#[test]
fn checkpoint_bytes_are_pinned() {
    use omos::obj::fnv1a;

    let s = checkpoint_world();
    for path in [
        "/bin/use",
        "/bin/ls-traced",
        "/bin/fixed",
        "/bin/use-audit",
        "/bin/math",
    ] {
        s.instantiate(path).unwrap();
    }
    assert_eq!(s.instantiate("/bin/use").unwrap().libraries.len(), 1);
    assert!(
        !s.solver().export_state().conflicts.is_empty(),
        "libm's text preference collides with libc"
    );

    let (mut fs, mut clock) = (InMemFs::new(), SimClock::new());
    let cost = CostModel::hpux();
    s.checkpoint(&mut fs, &mut clock, "/ckpt").unwrap();
    s.bind_object_durable(
        "/obj/late.o",
        assemble("late.o", ".text\n.global _late\n_late: ret\n").unwrap(),
        &mut fs,
        &mut clock,
        "/ckpt",
    )
    .unwrap();
    assert!(s
        .unbind_durable("/obj/late.o", &mut fs, &mut clock, "/ckpt")
        .unwrap());

    let mut got = Vec::new();
    for dir in ["/ckpt", "/ckpt/img"] {
        for (name, stat) in fs.list_dir(dir, &mut clock, &cost).unwrap() {
            if stat.mode == 0 {
                let path = format!("{dir}/{name}");
                got.push((path.clone(), fnv1a(fs.peek(&path).unwrap()).0));
            }
        }
    }
    let rendered: String = got
        .iter()
        .map(|(path, h)| format!("        (\"{path}\", 0x{h:016x}),\n"))
        .collect();
    let want: [(&str, u64); 9] = [
        ("/ckpt/journal", 0xecbd_015f_8bc9_5e63),
        ("/ckpt/manifest.a", 0xfd8b_127d_e913_ef7a),
        ("/ckpt/manifest.b", 0xfd8b_127d_e913_ef7a),
        ("/ckpt/img/38796fd0b31694ad", 0xb0b5_8fe4_5d7d_a743),
        ("/ckpt/img/5d0f97214bffbfac", 0xc536_a92d_97c8_46cd),
        ("/ckpt/img/6d7178bfc7beeabe", 0x3a7b_2919_1842_0103),
        ("/ckpt/img/6ffad1489015d87e", 0x039f_5408_cafa_0b9a),
        ("/ckpt/img/a4e30093bb625097", 0x5f40_92bb_eaef_a3a6),
        ("/ckpt/img/e732973163bc57fa", 0xd387_de39_bc10_0aad),
    ];
    let want: Vec<(String, u64)> = want.iter().map(|(p, h)| (p.to_string(), *h)).collect();
    assert_eq!(got, want, "checkpoint bytes moved:\n{rendered}");

    let (_, report) = Omos::restore(cost, Transport::SysVMsg, &mut fs, &mut clock, "/ckpt");
    assert!(!report.cold);
    assert_eq!(report.dropped, 0, "{report:?}");
    assert_eq!(report.journal_records, 2);
    assert_eq!(report.replies, 5);
}
