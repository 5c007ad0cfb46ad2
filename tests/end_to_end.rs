//! End-to-end integration: instantiate → place → link → map → execute,
//! across exec paths, caching, and the constraint system.

use omos::core::{exec_bootstrap, run_under_omos, Omos, OmosError};
use omos::isa::{assemble, StopReason};
use omos::os::ipc::{IpcStats, Transport};
use omos::os::{CostModel, InMemFs, SimClock};

/// Builds a world with one program and two libraries (the second library
/// depends on the first — inter-library references).
fn world() -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    s.namespace.bind_object(
        "/libc/base.o",
        assemble(
            "base.o",
            r#"
            .text
            .global _add10
_add10:     addi r1, r1, 10
            ret
            .data
            .global _base_version
_base_version: .word 7
            "#,
        )
        .unwrap(),
    );
    s.namespace.bind_object(
        "/libm/wrap.o",
        assemble(
            "wrap.o",
            r#"
            .text
            .global _add20
            .extern _add10
_add20:     mov r9, r15
            call _add10
            call _add10
            mov r15, r9
            ret
            "#,
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint(
            "/lib/libbase",
            "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge /libc/base.o)",
        )
        .unwrap();
    s.namespace
        .bind_blueprint(
            "/lib/libwrap",
            "(constraint-list \"T\" 0x1400000 \"D\" 0x41400000)\n(merge /libm/wrap.o)",
        )
        .unwrap();
    s.namespace.bind_object(
        "/obj/app.o",
        assemble(
            "app.o",
            r#"
            .text
            .global _start
_start:     li r1, 12
            call _add20
            li r2, _base_version
            ld r3, [r2]
            add r1, r1, r3
            sys 0
            "#,
        )
        .unwrap(),
    );
    // The program uses BOTH libraries; references cross library
    // boundaries (app -> libwrap -> libbase, app -> libbase data).
    s.namespace
        .bind_blueprint("/bin/app", "(merge /obj/app.o /lib/libbase /lib/libwrap)")
        .unwrap();
    s
}

#[test]
fn program_spanning_two_libraries_runs_under_both_exec_paths() {
    let s = world();
    // Pre-flight analysis is on for the whole pipeline: a false-positive
    // lint error on any of these blueprints would break instantiation.
    s.set_preflight(true);
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    for integrated in [false, true] {
        let mut clock = SimClock::new();
        let out = run_under_omos(
            &s, "/bin/app", integrated, &mut clock, &cost, &mut fs, 100_000,
        )
        .unwrap();
        // 12 + 20 + 7 = 39.
        assert_eq!(out.stop, StopReason::Exited(39), "integrated={integrated}");
    }
    // Two libraries, each built exactly once across all four mappings.
    assert_eq!(s.stats().libraries_built, 2);
}

#[test]
fn preflight_accepts_a_local_named_like_a_later_global() {
    // The first operand's `helper` is local; the second defines a global
    // `helper`. Merge keeps them apart, so the pre-flight analysis must
    // not report a duplicate definition.
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    s.namespace.bind_object(
        "/o/loc",
        assemble(
            "loc.o",
            ".text\n.global _start\nhelper: li r1, 3\n ret\n_start: call helper\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace.bind_object(
        "/o/glob",
        assemble("glob.o", ".text\n.global helper\nhelper: li r1, 9\n ret\n").unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/p", "(merge /o/loc /o/glob)")
        .unwrap();
    s.set_preflight(true);
    let cost = CostModel::hpux();
    let mut clock = SimClock::new();
    let out = run_under_omos(
        &s,
        "/bin/p",
        false,
        &mut clock,
        &cost,
        &mut InMemFs::new(),
        100_000,
    )
    .unwrap();
    // The call reaches the local `helper`, not the global one.
    assert_eq!(out.stop, StopReason::Exited(3));
}

#[test]
fn libraries_land_at_their_constrained_addresses() {
    let s = world();
    let reply = s.instantiate("/bin/app").unwrap();
    assert_eq!(reply.libraries.len(), 2);
    let addrs: Vec<u32> = reply
        .libraries
        .iter()
        .map(|l| l.image.segments.iter().map(|seg| seg.vaddr).min().unwrap())
        .collect();
    assert!(addrs.contains(&0x0100_0000));
    assert!(addrs.contains(&0x0140_0000));
}

#[test]
fn second_program_reuses_library_instances() {
    let s = world();
    s.namespace.bind_object(
        "/obj/other.o",
        assemble(
            "other.o",
            ".text\n.global _start\n_start: li r1, 1\n call _add10\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/other", "(merge /obj/other.o /lib/libbase)")
        .unwrap();
    let a = s.instantiate("/bin/app").unwrap();
    let b = s.instantiate("/bin/other").unwrap();
    // Shared physical frames: both replies reference the same cached
    // libbase image.
    let base_a = a
        .libraries
        .iter()
        .find(|l| l.image.find("_add10").is_some())
        .expect("app uses libbase");
    let base_b = &b.libraries[0];
    assert!(std::sync::Arc::ptr_eq(base_a, base_b));
    assert_eq!(
        s.stats().libraries_built,
        2,
        "no new builds for the second program"
    );
}

#[test]
fn cold_then_warm_bootstrap_times_shrink() {
    let s = world();
    let cost = CostModel::hpux();
    let mut ipc = IpcStats::default();
    let mut clock = SimClock::new();
    let _ = exec_bootstrap(&s, "/bin/app", &mut clock, &cost, &mut ipc).unwrap();
    let cold = clock.times();
    let mut clock = SimClock::new();
    let _ = exec_bootstrap(&s, "/bin/app", &mut clock, &cost, &mut ipc).unwrap();
    let warm = clock.times();
    assert!(
        warm.elapsed_ns < cold.elapsed_ns,
        "cache must cut exec cost"
    );
}

#[test]
fn rebinding_a_fragment_changes_the_behavior() {
    let s = world();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let out = run_under_omos(&s, "/bin/app", true, &mut clock, &cost, &mut fs, 100_000).unwrap();
    assert_eq!(out.stop, StopReason::Exited(39));
    // A library fix "is instantly incorporated into all clients".
    s.namespace.bind_object(
        "/libc/base.o",
        assemble(
            "base.o",
            r#"
            .text
            .global _add10
_add10:     addi r1, r1, 100      ; the "fix"
            ret
            .data
            .global _base_version
_base_version: .word 8
            "#,
        )
        .unwrap(),
    );
    let mut clock = SimClock::new();
    let out = run_under_omos(&s, "/bin/app", true, &mut clock, &cost, &mut fs, 100_000).unwrap();
    // 12 + 200 + 8 = 220.
    assert_eq!(out.stop, StopReason::Exited(220));
}

#[test]
fn conflicting_library_preferences_force_an_alternate_version() {
    let s = world();
    // A second library whose constraint collides with libbase's address.
    s.namespace.bind_object(
        "/libx/x.o",
        assemble("x.o", ".text\n.global _x\n_x: li r1, 5\n ret\n").unwrap(),
    );
    s.namespace
        .bind_blueprint(
            "/lib/libx",
            "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge /libx/x.o)",
        )
        .unwrap();
    s.namespace.bind_object(
        "/obj/uses-both.o",
        assemble(
            "ub.o",
            ".text\n.global _start\n_start: call _x\n call _add10\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint(
            "/bin/both",
            "(merge /obj/uses-both.o /lib/libbase /lib/libx)",
        )
        .unwrap();
    let reply = s.instantiate("/bin/both").unwrap();
    // Both libraries exist and do not overlap; the conflict was logged.
    let mut spans: Vec<(u64, u64)> = reply
        .libraries
        .iter()
        .flat_map(|l| {
            l.image
                .segments
                .iter()
                .map(|seg| (u64::from(seg.vaddr), seg.end()))
        })
        .collect();
    spans.sort_unstable();
    assert!(
        spans.windows(2).all(|w| w[0].1 <= w[1].0),
        "placed libraries overlap"
    );
    assert!(
        !s.solver().conflicts().is_empty(),
        "the unsatisfiable weak preference must be recorded"
    );
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let out = run_under_omos(&s, "/bin/both", true, &mut clock, &cost, &mut fs, 100_000).unwrap();
    assert_eq!(out.stop, StopReason::Exited(15));
}

#[test]
fn instantiate_arbitrary_blueprint_like_dynamic_loading() {
    // §5: "The meta-object specification may either be the name of a
    // meta-object found within the OMOS namespace, or an arbitrary
    // blueprint to be executed by OMOS."
    let s = world();
    let bp = omos::blueprint::Blueprint::parse(
        r#"(merge (source "asm" ".text\n.global _start\n_start: li r1, 9\n sys 0\n") /lib/libbase)"#,
    )
    .unwrap();
    let reply = s.instantiate_blueprint(&bp).unwrap();
    assert!(reply.program.image.entry.is_some());
    // Symbol values can be fetched from the reply's export maps.
    assert!(reply.libraries[0].image.find("_add10").is_some());
}

#[test]
fn missing_names_surface_as_typed_errors() {
    let s = world();
    assert!(matches!(
        s.instantiate("/bin/ghost"),
        Err(OmosError::NoSuchName(_))
    ));
    s.namespace
        .bind_blueprint("/bin/bad", "(merge /no/where)")
        .unwrap();
    assert!(matches!(s.instantiate("/bin/bad"), Err(OmosError::Eval(_))));
}
