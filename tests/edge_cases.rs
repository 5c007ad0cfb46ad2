//! Edge cases across layer boundaries: empty inputs, degenerate
//! programs, deep blueprint nesting, and boundary addresses.

use omos::blueprint::{Blueprint, MAX_NODE_DEPTH};
use omos::core::persist::{decode_blueprint, encode_blueprint};
use omos::core::{run_under_omos, Omos, OmosError};
use omos::isa::{assemble, StopReason};
use omos::link::{link, LinkOptions};
use omos::module::Module;
use omos::obj::ObjectFile;
use omos::os::ipc::Transport;
use omos::os::{CostModel, InMemFs, SimClock};

#[test]
fn empty_object_participates_in_merges() {
    let empty = Module::from_object(ObjectFile::new("empty.o"));
    let real = Module::from_object(assemble("r.o", ".text\n.global _f\n_f: ret\n").unwrap());
    let merged = empty.clone().merge_with(real.clone()).unwrap();
    assert_eq!(merged.exports().unwrap(), vec!["_f".to_string()]);
    let other_way = real.merge_with(empty).unwrap();
    assert_eq!(other_way.exports().unwrap(), vec!["_f".to_string()]);
}

#[test]
fn zero_object_link_yields_empty_library() {
    let out = link(
        &[],
        &LinkOptions::library("nothing", 0x10_0000, 0x4000_0000),
    )
    .unwrap();
    assert!(out.image.segments.is_empty());
    assert!(out.image.symbols.is_empty());
}

#[test]
fn minimal_program_is_one_instruction() {
    // `sys 0` with r1 = 0 by reset: the smallest valid program.
    let obj = assemble("min.o", ".text\n.global _start\n_start: sys 0\n").unwrap();
    let out = link(&[obj], &LinkOptions::program("min")).unwrap();
    assert_eq!(out.image.loaded_bytes(), 8);
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object(
        "/obj/min.o",
        assemble("min.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/min", "(merge /obj/min.o)")
        .unwrap();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let run = run_under_omos(&s, "/bin/min", true, &mut clock, &cost, &mut fs, 10).unwrap();
    assert_eq!(run.stop, StopReason::Exited(0));
    assert_eq!(run.stats.instructions, 1);
}

#[test]
fn deeply_nested_blueprints_evaluate() {
    // 32 nested hide operations over one fragment.
    let mut src = String::new();
    for i in 0..32 {
        src.push_str(&format!("(hide \"^_never_{i}$\" "));
    }
    src.push_str("/obj/base.o");
    src.push_str(&")".repeat(32));
    let bp = Blueprint::parse(&src).unwrap();
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object(
        "/obj/base.o",
        assemble("base.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
    );
    let reply = s.instantiate_blueprint(&bp).unwrap();
    assert!(reply.program.image.entry.is_some());
}

/// `depth` nested `hide`s over one fragment: the leaf sits `depth`
/// nodes below the root.
fn hide_chain(depth: usize) -> String {
    let mut src = "(hide \"^_nope$\" ".repeat(depth);
    src.push_str("/obj/base.o");
    src.push_str(&")".repeat(depth));
    src
}

fn base_object() -> ObjectFile {
    assemble("base.o", ".text\n.global _start\n_start: sys 0\n").unwrap()
}

#[test]
fn blueprint_at_the_depth_limit_survives_checkpoint_and_restore() {
    const DIR: &str = "/omos/ckpt";
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object("/obj/base.o", base_object());
    s.namespace
        .bind_blueprint("/bin/deep", &hide_chain(MAX_NODE_DEPTH))
        .unwrap();
    let before = s.instantiate("/bin/deep").unwrap();
    let (mut fs, mut clock) = (InMemFs::new(), SimClock::new());
    s.checkpoint(&mut fs, &mut clock, DIR).unwrap();

    let (restored, report) = Omos::restore(
        CostModel::hpux(),
        Transport::MachIpc,
        &mut fs,
        &mut clock,
        DIR,
    );
    assert_eq!(report.dropped, 0, "{:?}", report.drops);
    let after = restored.instantiate("/bin/deep").unwrap();
    assert_eq!(after.program.image, before.program.image);
}

#[test]
fn blueprint_at_the_depth_limit_survives_journal_replay() {
    const DIR: &str = "/omos/journal-only";
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    let (mut fs, mut clock) = (InMemFs::new(), SimClock::new());
    s.bind_object_durable("/obj/base.o", base_object(), &mut fs, &mut clock, DIR)
        .unwrap();
    let bp = Blueprint::parse(&hide_chain(MAX_NODE_DEPTH)).unwrap();
    s.bind_meta_durable("/bin/deep", bp.clone(), &mut fs, &mut clock, DIR)
        .unwrap();

    let (restored, report) = Omos::restore(
        CostModel::hpux(),
        Transport::MachIpc,
        &mut fs,
        &mut clock,
        DIR,
    );
    assert_eq!(report.journal_records, 2);
    assert_eq!(report.dropped, 0, "{:?}", report.drops);
    match restored.namespace.lookup("/bin/deep") {
        Some(omos::core::Entry::Meta(got)) => assert_eq!(got.hash(), bp.hash()),
        other => panic!("/bin/deep lost on replay: {other:?}"),
    }
    assert!(restored.instantiate("/bin/deep").is_ok());
}

#[test]
fn every_parsable_nesting_depth_round_trips_through_the_frame() {
    assert!(Blueprint::parse(&hide_chain(MAX_NODE_DEPTH)).is_ok());
    for depth in [
        MAX_NODE_DEPTH - 1,
        MAX_NODE_DEPTH,
        MAX_NODE_DEPTH + 1,
        MAX_NODE_DEPTH + 50,
    ] {
        if let Ok(bp) = Blueprint::parse(&hide_chain(depth)) {
            let back = decode_blueprint(&encode_blueprint(&bp))
                .unwrap_or_else(|e| panic!("depth {depth} parses but does not decode: {e}"));
            assert_eq!(back.hash(), bp.hash());
        }
    }
}

#[test]
fn blueprint_past_the_depth_limit_is_a_client_error() {
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    let err = s
        .namespace
        .bind_blueprint("/bin/deep", &hide_chain(MAX_NODE_DEPTH + 1))
        .unwrap_err();
    assert!(matches!(err, OmosError::Client(_)), "{err:?}");
    assert!(s.namespace.lookup("/bin/deep").is_none());
}

#[test]
fn very_deep_blueprint_is_rejected_without_exhausting_the_stack() {
    let depth = 5_000;
    let mut src = "(merge ".repeat(depth);
    src.push_str("/a.o");
    src.push_str(&")".repeat(depth));
    let rejected = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || Blueprint::parse(&src).is_err())
        .unwrap()
        .join()
        .unwrap();
    assert!(rejected);
}

#[test]
fn meta_object_chains_resolve_transitively() {
    // /bin/a -> /meta/b -> /meta/c -> fragment.
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object(
        "/obj/leaf.o",
        assemble(
            "leaf.o",
            ".text\n.global _start\n_start: li r1, 3\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/meta/c", "(merge /obj/leaf.o)")
        .unwrap();
    s.namespace
        .bind_blueprint("/meta/b", "(show \"^_start$\" /meta/c)")
        .unwrap();
    s.namespace
        .bind_blueprint("/bin/a", "(merge /meta/b)")
        .unwrap();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let run = run_under_omos(&s, "/bin/a", true, &mut clock, &cost, &mut fs, 100).unwrap();
    assert_eq!(run.stop, StopReason::Exited(3));
}

#[test]
fn library_data_at_region_boundaries() {
    // A library whose BSS crosses several page boundaries still maps and
    // reads back as zero.
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object(
        "/libc/bigbss.o",
        assemble(
            "bigbss.o",
            r#"
            .text
            .global _peek
_peek:      li r2, _arena
            add r2, r2, r1
            ld r1, [r2]
            ret
            .bss
            .global _arena
_arena:     .space 20000
            "#,
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint(
            "/lib/bigbss",
            "(constraint-list \"T\" 0x2000000 \"D\" 0x42000000)\n(merge /libc/bigbss.o)",
        )
        .unwrap();
    s.namespace.bind_object(
        "/obj/probe.o",
        assemble(
            "probe.o",
            r#"
            .text
            .global _start
_start:     li r1, 19996       ; the last word of the arena
            call _peek
            sys 0
            "#,
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/probe", "(merge /obj/probe.o /lib/bigbss)")
        .unwrap();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let run = run_under_omos(&s, "/bin/probe", true, &mut clock, &cost, &mut fs, 1000).unwrap();
    assert_eq!(run.stop, StopReason::Exited(0), "BSS reads back zero");
}

#[test]
fn console_output_across_page_boundary() {
    // A single write larger than one page must arrive intact.
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    let big = 5000;
    s.namespace.bind_object(
        "/obj/big.o",
        assemble(
            "big.o",
            &format!(
                r#"
            .text
            .global _start
_start:     li r1, 1
            li r2, _blob
            li r3, {big}
            sys 1
            li r1, 0
            sys 0
            .data
_blob:      .space {big}
            "#
            ),
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/big", "(merge /obj/big.o)")
        .unwrap();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let run = run_under_omos(&s, "/bin/big", true, &mut clock, &cost, &mut fs, 100).unwrap();
    assert_eq!(run.stop, StopReason::Exited(0));
    assert_eq!(run.console.len(), big as usize);
    assert!(run.console.iter().all(|&b| b == 0));
}
