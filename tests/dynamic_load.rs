//! §5's dld-like interface: "OMOS exports a more general interface for
//! dynamically loading class implementations into executing programs."
//! A client maps a new class into its own address space mid-lifetime;
//! the class's free references bind to the *client's* procedures and
//! data, and the client receives the bound values of the symbols it
//! asked for.

use std::collections::HashMap;

use omos::blueprint::Blueprint;
use omos::core::{Omos, OmosError};
use omos::isa::{assemble, StopReason};
use omos::os::ipc::Transport;
use omos::os::process::{run_process, NoBinder, Process};
use omos::os::{CostModel, InMemFs, SimClock};

fn server_with_host() -> (Omos, omos::core::InstantiateReply) {
    let s = host_server();
    let reply = s.instantiate("/bin/host").unwrap();
    (s, reply)
}

/// A server with the host program bound (not yet instantiated).
fn host_server() -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    // The host program: jumps through a function pointer cell that the
    // test patches after dynamically loading the class.
    s.namespace.bind_object(
        "/obj/host.o",
        assemble(
            "host.o",
            r#"
            .text
            .global _start, _host_service
_start:     li r2, _hook
            ld r5, [r2]
            beq r5, r0, _plain
            li r1, 5
            callr r5            ; into the dynamically loaded class
            sys 0
_plain:     li r1, 0
            sys 0
; a client procedure the loaded class may call back into
_host_service:
            addi r1, r1, 100
            ret
            .data
            .global _hook
_hook:      .word 0
            "#,
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/host", "(merge /obj/host.o)")
        .unwrap();
    s
}

#[test]
fn class_loads_into_running_program_and_calls_back() {
    let (s, reply) = server_with_host();
    let cost = CostModel::hpux();
    let mut clock = SimClock::new();
    let mut proc = Process::spawn(&reply.program.frames, &mut clock, &cost).unwrap();

    // The class to load: calls back into the client's `_host_service` —
    // "allowing the new classes to refer to procedures and data
    // structures within the client".
    let bp = Blueprint::parse(
        r#"(source "asm"
            ".text\n.global _method\n.extern _host_service\n_method: mul r1, r1, r1\n mov r9, r15\n call _host_service\n mov r15, r9\n ret\n")"#,
    )
    .unwrap();
    let load = s
        .dynamic_load(&bp, &["_method"], &reply.program.image.symbols)
        .unwrap();
    assert!(load.server_ns > 0);
    let method = load.values["_method"];

    // Map the class into the running process and patch the hook cell.
    proc.map_more(&load.frames, &mut clock, &cost).unwrap();
    use omos::isa::Memory as _;
    let hook = reply.program.image.find("_hook").unwrap();
    proc.space.write(hook, &method.to_le_bytes()).unwrap();

    let mut fs = InMemFs::new();
    let out = run_process(
        &mut proc,
        &mut clock,
        &cost,
        &mut fs,
        &mut NoBinder,
        100_000,
    );
    // 5² + 100 = 125: the class ran AND called back into the client.
    assert_eq!(out.stop, StopReason::Exited(125));
}

#[test]
fn wanted_symbols_are_validated() {
    let (s, reply) = server_with_host();
    let bp = Blueprint::parse(r#"(source "asm" ".text\n.global _m\n_m: ret\n")"#).unwrap();
    let err = s
        .dynamic_load(&bp, &["_nonexistent"], &reply.program.image.symbols)
        .unwrap_err();
    assert!(matches!(err, OmosError::Client(_)));
}

#[test]
fn loaded_class_with_unresolvable_reference_fails() {
    let (s, _) = server_with_host();
    let bp =
        Blueprint::parse(r#"(source "asm" ".text\n.global _m\n_m: call _not_anywhere\n ret\n")"#)
            .unwrap();
    let err = s.dynamic_load(&bp, &["_m"], &HashMap::new()).unwrap_err();
    assert!(matches!(err, OmosError::Link(_)));
}

#[test]
fn two_loads_do_not_collide_in_the_address_space() {
    let (s, reply) = server_with_host();
    let mk = |n: u32| {
        Blueprint::parse(&format!(
            r#"(source "asm" ".text\n.global _m{n}\n_m{n}: li r1, {n}\n ret\n")"#
        ))
        .unwrap()
    };
    let a = s
        .dynamic_load(&mk(1), &["_m1"], &reply.program.image.symbols)
        .unwrap();
    let b = s
        .dynamic_load(&mk(2), &["_m2"], &reply.program.image.symbols)
        .unwrap();
    // Both classes map into one process without overlap.
    let cost = CostModel::hpux();
    let mut clock = SimClock::new();
    let mut proc = Process::spawn(&reply.program.frames, &mut clock, &cost).unwrap();
    proc.map_more(&a.frames, &mut clock, &cost).unwrap();
    proc.map_more(&b.frames, &mut clock, &cost).unwrap();
    assert_ne!(a.values["_m1"], b.values["_m2"]);
}

#[test]
fn query_symbols_and_size_serve_portions_of_interest() {
    // §7: nm/size/strings "are concerned with only a small part of the
    // whole file"; the server answers without shipping a byte stream.
    let (s, _) = server_with_host();
    let syms = s.query_symbols("/obj/host.o").unwrap();
    assert!(syms.iter().any(|(n, def)| n == "_host_service" && *def));
    let syms = s.query_symbols("/bin/host").unwrap();
    assert!(syms.iter().any(|(n, _)| n == "_hook"));
    let (text, data, bss) = s.query_size("/bin/host").unwrap();
    assert!(text > 0);
    assert!(data > 0);
    assert_eq!(bss, 0);
    assert!(matches!(
        s.query_size("/nope"),
        Err(OmosError::NoSuchName(_))
    ));
}

#[test]
fn every_entry_point_counts_its_requests_once_on_one_ledger() {
    for tracing in [true, false] {
        let s = host_server();
        s.set_tracing(tracing);
        s.namespace.bind_object(
            "/obj/svc.o",
            assemble("svc.o", ".text\n.global _svc\n_svc: li r1, 3\n ret\n").unwrap(),
        );
        s.namespace.bind_object(
            "/obj/user.o",
            assemble(
                "user.o",
                ".text\n.global _start\n_start: call _svc\n sys 0\n",
            )
            .unwrap(),
        );
        let dynamic =
            Blueprint::parse(r#"(merge /obj/user.o (specialize "lib-dynamic" /obj/svc.o))"#)
                .unwrap();
        let class = Blueprint::parse(r#"(source "asm" ".text\n.global _m\n_m: ret\n")"#).unwrap();

        // Calls that start a request: five. A missing name fails before
        // one starts, and a `dyn_lookup` is counted on its own.
        let host = s.instantiate("/bin/host").unwrap();
        assert!(matches!(
            s.instantiate("/bin/nope"),
            Err(OmosError::NoSuchName(_))
        ));
        s.instantiate_blueprint(&dynamic).unwrap();
        assert!(s.instantiate_blueprint(&dynamic).unwrap().cache_hit);
        s.instantiate_monitored("/bin/host", "^_host_service$")
            .unwrap();
        s.dynamic_load(&class, &["_m"], &host.program.image.symbols)
            .unwrap();
        s.dyn_lookup(0, "_svc").unwrap();

        let st = s.stats();
        let c = s.trace_snapshot().counters;
        assert_eq!(st.requests, 5, "tracing {tracing}: {st:?}");
        assert_eq!(
            st.requests,
            st.reply_cache_hits + st.coalesced + st.replies_built,
            "tracing {tracing}: {st:?}"
        );
        assert_eq!(c.requests, st.requests, "tracing {tracing}");
        assert_eq!(c.dyn_lookups, 1, "tracing {tracing}");
        assert_eq!(st.reply_cache_hits, 1, "tracing {tracing}");
    }
}
