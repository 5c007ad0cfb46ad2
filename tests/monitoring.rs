//! Server-level monitoring (§4.1/§6) and the `#!` interpreter path (§5).

use omos::core::{exec_file, run_under_omos, Omos, OmosBinder, OmosError};
use omos::isa::{assemble, StopReason};
use omos::os::ipc::{IpcStats, Transport};
use omos::os::process::run_process;
use omos::os::{CostModel, InMemFs, SimClock};

fn world() -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::MachIpc);
    s.namespace.bind_object(
        "/obj/app.o",
        assemble(
            "app.o",
            r#"
            .text
            .global _start, _alpha, _beta
_start:     call _beta
            call _alpha
            call _beta
            li r1, 0
            sys 0
_alpha:     li r9, 1
            ret
_beta:      li r9, 2
            ret
            "#,
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/app", "(merge /obj/app.o)")
        .unwrap();
    s
}

#[test]
fn server_instantiates_monitored_variant_and_decodes_events() {
    let s = world();
    let (reply, id_names) = s
        .instantiate_monitored("/bin/app", "^_(alpha|beta)$")
        .unwrap();
    assert_eq!(id_names, vec!["_alpha", "_beta"]);

    let cost = CostModel::hpux();
    let mut clock = SimClock::new();
    let mut fs = InMemFs::new();
    let mut proc =
        omos::os::process::Process::spawn(&reply.program.frames, &mut clock, &cost).unwrap();
    let mut binder = OmosBinder::new(&s);
    let out = run_process(&mut proc, &mut clock, &cost, &mut fs, &mut binder, 100_000);
    assert_eq!(out.stop, StopReason::Exited(0));
    let called: Vec<&str> = out
        .monitor_events
        .iter()
        .map(|&i| id_names[i as usize].as_str())
        .collect();
    assert_eq!(called, vec!["_beta", "_alpha", "_beta"]);
    // The derived order is what a reorder pass would use.
    let order = omos::core::monitor::derive_order(&out.monitor_events, &id_names);
    assert_eq!(order, vec!["_beta", "_alpha"]);
}

#[test]
fn monitored_variant_does_not_pollute_the_plain_cache() {
    let s = world();
    let plain1 = s.instantiate("/bin/app").unwrap();
    let (_mon, _) = s.instantiate_monitored("/bin/app", "^_alpha$").unwrap();
    let plain2 = s.instantiate("/bin/app").unwrap();
    assert!(plain2.cache_hit);
    assert_eq!(
        plain1.program.image.content_hash(),
        plain2.program.image.content_hash()
    );
    // The monitored image is a different artifact.
    let (mon2, _) = s.instantiate_monitored("/bin/app", "^_alpha$").unwrap();
    assert_ne!(
        mon2.program.image.content_hash(),
        plain1.program.image.content_hash()
    );
}

#[test]
fn shebang_scripts_export_namespace_entries_into_unix() {
    let s = world();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    // "/usr/bin/app" is a Unix file whose interpreter line names the
    // OMOS meta-object.
    fs.put("/usr/bin/app", b"#! /bin/omos /bin/app\n".to_vec());
    let mut clock = SimClock::new();
    let mut ipc = IpcStats::default();
    let mut proc = exec_file(&s, &mut fs, "/usr/bin/app", &mut clock, &cost, &mut ipc).unwrap();
    let mut binder = OmosBinder::new(&s);
    let out = run_process(&mut proc, &mut clock, &cost, &mut fs, &mut binder, 100_000);
    assert_eq!(out.stop, StopReason::Exited(0));
}

#[test]
fn shebang_rejects_non_omos_scripts() {
    let s = world();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    fs.put("/usr/bin/sh-script", b"#! /bin/sh\necho hi\n".to_vec());
    fs.put("/usr/bin/binary", vec![0x7f, b'E', b'L', b'F']);
    fs.put("/usr/bin/empty-interp", b"#! /bin/omos\n".to_vec());
    let mut clock = SimClock::new();
    let mut ipc = IpcStats::default();
    for f in [
        "/usr/bin/sh-script",
        "/usr/bin/binary",
        "/usr/bin/empty-interp",
        "/gone",
    ] {
        let err = exec_file(&s, &mut fs, f, &mut clock, &cost, &mut ipc).unwrap_err();
        assert!(
            matches!(err, OmosError::Client(_)),
            "{f} should be rejected"
        );
    }
}

#[test]
fn monitored_program_still_computes_the_same_answer() {
    // Interposition must be transparent: instrumenting cannot change
    // results (here, the exit code path through r1).
    let s = world();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let plain = run_under_omos(&s, "/bin/app", true, &mut clock, &cost, &mut fs, 100_000).unwrap();
    let (reply, _) = s
        .instantiate_monitored("/bin/app", "^_(alpha|beta)$")
        .unwrap();
    let mut proc =
        omos::os::process::Process::spawn(&reply.program.frames, &mut clock, &cost).unwrap();
    let mut binder = OmosBinder::new(&s);
    let mon = run_process(&mut proc, &mut clock, &cost, &mut fs, &mut binder, 100_000);
    assert_eq!(plain.stop, mon.stop);
}

/// The blueprint a monitored instantiation of `/bin/app` serves: the
/// bound one plus an audit policy on `pattern`.
fn audit_blueprint(pattern: &str) -> omos::blueprint::Blueprint {
    let mut bp = omos::blueprint::Blueprint::parse("(merge /obj/app.o)").unwrap();
    bp.policies.push(omos::blueprint::LinkPolicy {
        kind: omos::blueprint::PolicyKind::Audit,
        pattern: pattern.to_string(),
    });
    bp
}

#[test]
fn monitored_reply_commits_to_the_audit_blueprints_manifest() {
    let s = world();
    let (reply, id_names) = s
        .instantiate_monitored("/bin/app", "^_(alpha|beta)$")
        .unwrap();
    assert_ne!(reply.manifest.0, 0, "monitored replies carry a manifest");
    let explained = s
        .explain_blueprint(&audit_blueprint("^_(alpha|beta)$"))
        .unwrap();
    assert_eq!(reply.manifest, explained.hash());
    // The id table is the audit policy's sorted wrap set.
    assert_eq!(id_names, vec!["_alpha", "_beta"]);
    // A repeat is served from the reply cache under the audit
    // blueprint's own hash, with the same id table.
    let (again, names_again) = s
        .instantiate_monitored("/bin/app", "^_(alpha|beta)$")
        .unwrap();
    assert!(again.cache_hit);
    assert_eq!(again.manifest, reply.manifest);
    assert_eq!(names_again, id_names);
}

#[test]
fn monitored_requests_keep_the_counter_identity() {
    let s = world();
    let _ = s.instantiate("/bin/app").unwrap();
    let _ = s.instantiate_monitored("/bin/app", "^_alpha$").unwrap();
    let _ = s.instantiate("/bin/app").unwrap();
    let _ = s.instantiate_monitored("/bin/app", "^_alpha$").unwrap();
    let _ = s.instantiate_monitored("/bin/app", "^_beta$").unwrap();
    // A rebind invalidates plain and monitored replies alike.
    s.namespace
        .bind_blueprint("/bin/app", "(merge /obj/app.o)")
        .unwrap();
    let _ = s.instantiate_monitored("/bin/app", "^_alpha$").unwrap();
    let _ = s.instantiate("/bin/app").unwrap();
    let st = s.stats();
    assert_eq!(st.requests, 7);
    assert_eq!(
        st.requests,
        st.reply_cache_hits + st.coalesced + st.replies_built,
        "{st:?}"
    );
}
