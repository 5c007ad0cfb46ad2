//! Failure injection: corrupt images, broken programs, resource
//! pressure, and the §4.1 shared-variable error case. Every failure must
//! surface as a typed error or a VM fault — never a panic, never silent
//! misbehavior.

use omos::core::cache::{CachedImage, ImageCache};
use omos::core::{run_under_omos, Omos, OmosError};
use omos::isa::{assemble, StopReason, VmFault};
use omos::link::{link, LinkError, LinkOptions, LinkStats};
use omos::obj::encode::{read_any, write, Format};
use omos::obj::ContentHash;
use omos::os::ipc::Transport;
use omos::os::{CostModel, ImageFrames, InMemFs, SimClock};

#[test]
fn corrupt_object_files_never_panic() {
    let obj = assemble("t.o", ".text\n.global _f\n_f: ret\n").unwrap();
    for fmt in [Format::Aout, Format::Som] {
        let good = write(fmt, &obj);
        // Every single-byte corruption either decodes to *something*
        // structurally valid or errors; no panics, no UB.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            let _ = read_any(&bad);
        }
        // Every truncation errors.
        for cut in 0..good.len() {
            assert!(
                read_any(&good[..cut]).is_err(),
                "{} truncated at {cut}",
                fmt.name()
            );
        }
    }
}

#[test]
fn runaway_program_hits_fuel_limit() {
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object(
        "/obj/spin.o",
        assemble(
            "spin.o",
            ".text\n.global _start\n_start: beq r0, r0, _start\n",
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/spin", "(merge /obj/spin.o)")
        .unwrap();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let out = run_under_omos(&s, "/bin/spin", true, &mut clock, &cost, &mut fs, 10_000).unwrap();
    assert_eq!(out.stop, StopReason::Fault(VmFault::FuelExhausted));
    assert_eq!(out.stats.instructions, 10_000);
}

#[test]
fn wild_pointer_faults_cleanly() {
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object(
        "/obj/wild.o",
        assemble(
            "wild.o",
            ".text\n.global _start\n_start: li r2, 0xdead0000\n ld r1, [r2]\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/wild", "(merge /obj/wild.o)")
        .unwrap();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let out = run_under_omos(&s, "/bin/wild", true, &mut clock, &cost, &mut fs, 10_000).unwrap();
    assert!(matches!(
        out.stop,
        StopReason::Fault(VmFault::MemFault {
            addr: 0xdead_0000,
            write: false
        })
    ));
}

#[test]
fn store_to_text_faults() {
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object(
        "/obj/smash.o",
        assemble(
            "smash.o",
            ".text\n.global _start\n_start: li r2, _start\n st r2, [r2]\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/smash", "(merge /obj/smash.o)")
        .unwrap();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let out = run_under_omos(&s, "/bin/smash", true, &mut clock, &cost, &mut fs, 10_000).unwrap();
    assert!(
        matches!(
            out.stop,
            StopReason::Fault(VmFault::MemFault { write: true, .. })
        ),
        "text pages are not writable, got {:?}",
        out.stop
    );
}

#[test]
fn duplicate_definitions_across_client_and_library() {
    // §4.1's shared-variable hazard in its sharpest form: the client
    // defines a symbol the library also defines.
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object(
        "/obj/dup.o",
        assemble(
            "dup.o",
            ".text\n.global _start, _shared\n_start: sys 0\n_shared: ret\n",
        )
        .unwrap(),
    );
    s.namespace.bind_object(
        "/libc/dup.o",
        assemble("ldup.o", ".text\n.global _shared\n_shared: ret\n").unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/dup", "(merge /obj/dup.o /libc/dup.o)")
        .unwrap();
    match s.instantiate("/bin/dup") {
        Err(OmosError::Eval(e)) => assert!(e.to_string().contains("_shared")),
        other => panic!("expected duplicate-symbol failure, got {other:?}"),
    }
}

#[test]
fn circular_meta_objects_detected() {
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace
        .bind_blueprint("/meta/a", "(merge /meta/b /meta/b)")
        .unwrap();
    s.namespace
        .bind_blueprint("/meta/b", "(merge /meta/a /meta/a)")
        .unwrap();
    match s.instantiate("/meta/a") {
        Err(OmosError::Eval(e)) => assert!(e.to_string().contains("cycle")),
        other => panic!("expected cycle error, got {other:?}"),
    }
}

#[test]
fn image_cache_eviction_under_disk_pressure() {
    // The paper: "disk space for caching multiple versions of large
    // libraries could be significant." A tight byte budget forces LRU
    // eviction; evicted images are rebuilt, not corrupted.
    let mk = |key: u64, size: usize| {
        let image = omos::link::LinkedImage {
            name: format!("v{key}"),
            segments: vec![omos::link::Segment {
                name: ".text".into(),
                kind: omos::obj::SectionKind::Text,
                vaddr: 0x1000,
                bytes: vec![key as u8; size].into(),
                zero: 0,
            }],
            symbols: Default::default(),
            entry: None,
        };
        CachedImage {
            key: ContentHash(key),
            frames: ImageFrames::from_image(&image),
            image,
            link_stats: LinkStats::default(),
            rebuild_ns: 0,
            epoch: 0,
        }
    };
    let cache = ImageCache::new(10_000);
    for k in 0..10u64 {
        cache.insert(mk(k, 4_000));
    }
    assert!(cache.bytes() <= 10_000);
    assert!(cache.stats().evictions >= 7);
    // The most recent entries survive.
    assert!(cache.get(ContentHash(9)).is_some());
    assert!(cache.get(ContentHash(0)).is_none());
}

#[test]
fn linker_rejects_overlapping_layouts_not_panics() {
    let a = assemble(
        "a.o",
        ".text\n.global _start\n_start: sys 0\n.data\n.word 1\n",
    )
    .unwrap();
    let mut opts = LinkOptions::program("t");
    opts.data_base = opts.text_base;
    assert!(matches!(link(&[a], &opts), Err(LinkError::Layout(_))));
}

#[test]
fn bad_blueprints_are_rejected_at_bind_time() {
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    for bad in [
        "(merge",                    // unbalanced
        "(hide /x /y)",              // pattern must be a string
        "(specialize \"wat\" /x)",   // unknown specialization
        "(merge (source \"c\" 42))", // source needs strings
        "",                          // no root
    ] {
        assert!(
            s.namespace.bind_blueprint("/bin/bad", bad).is_err(),
            "blueprint {bad:?} should be rejected"
        );
    }
}

#[test]
fn bad_regex_in_blueprint_fails_at_eval() {
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object(
        "/obj/x.o",
        assemble("x.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
    );
    // `(unclosed` parses as a *string*, so binding succeeds and the error
    // surfaces at evaluation, when the regex compiles.
    s.namespace
        .bind_blueprint("/bin/bad", "(hide \"(unclosed\" (merge /obj/x.o))")
        .unwrap();
    match s.instantiate("/bin/bad") {
        Err(OmosError::Eval(e)) => assert!(e.to_string().contains("regular expression")),
        other => panic!("expected regex failure, got {other:?}"),
    }
}

#[test]
fn unknown_dynamic_library_id_is_typed() {
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    assert!(matches!(
        s.dyn_lookup(42, "_f"),
        Err(OmosError::NoSuchLibrary(42))
    ));
}

#[test]
fn program_without_entry_symbol_fails_to_instantiate() {
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object(
        "/obj/noentry.o",
        assemble("ne.o", ".text\n.global _main\n_main: ret\n").unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/noentry", "(merge /obj/noentry.o)")
        .unwrap();
    assert!(matches!(
        s.instantiate("/bin/noentry"),
        Err(OmosError::Link(LinkError::NoEntry(_)))
    ));
}
