//! The link-policy oracle.
//!
//! Blueprints attach `(policy KIND "PATTERN")` forms; this suite pins
//! the three behavioral contracts end-to-end, from parse through the
//! server's link paths to a running process:
//!
//! * **deny** fails the link with hard `OM017` errors — at instantiate
//!   time *and* through the static analyzer, with nothing built;
//! * **trampoline** wraps matching routines behind interposition stubs
//!   that are behaviorally transparent;
//! * **audit** wraps them behind counting stubs: per-process counters
//!   in the `PolicyData` window plus an in-order `MONLOG` event stream.
//!
//! And the compatibility contract the whole layer hangs on: replies for
//! policy-free blueprints — and for policies that match nothing — are
//! byte-identical to a world where the policy layer was never asked to
//! do anything, across every transport and both evaluation-parallelism
//! settings.

use omos::constraint::RegionClass;
use omos::core::{run_under_omos, Omos, OmosBinder, OmosError};
use omos::isa::{assemble, StopReason};
use omos::link::encode_image;
use omos::os::ipc::Transport;
use omos::os::{run_process, CostModel, InMemFs, Process, SimClock};

/// The exit code of `/bin/plain` (and of every wrapped variant): two
/// `_hot` calls (+1 each) and one `_cold` call (+5).
const EXIT: u32 = 7;

/// Binds one program whose routine calls are observable in the exit
/// code, plus one blueprint per policy flavor over the same object.
fn server(transport: Transport) -> Omos {
    let s = Omos::new(CostModel::hpux(), transport);
    s.namespace.bind_object(
        "/obj/app.o",
        assemble(
            "app.o",
            r#"
            .text
            .global _start, _hot, _cold
_start:     li r1, 0
            call _hot
            call _hot
            call _cold
            sys 0
_hot:       li r2, 1
            add r1, r1, r2
            ret
_cold:      li r2, 5
            add r1, r1, r2
            ret
            "#,
        )
        .unwrap(),
    );
    for (path, policies) in [
        ("/bin/plain", ""),
        ("/bin/noop", "(policy deny \"^_forbidden$\")\n"),
        ("/bin/deny", "(policy deny \"^_hot$\")\n"),
        ("/bin/tramp", "(policy trampoline \"^_(hot|cold)$\")\n"),
        ("/bin/audit", "(policy audit \"^_(hot|cold)$\")\n"),
    ] {
        s.namespace
            .bind_blueprint(path, &format!("{policies}(merge /obj/app.o)"))
            .unwrap();
    }
    s
}

/// Spawns a process from an instantiation reply and runs it to
/// completion, returning the outcome *and* the process so counters can
/// be read back out of its private policy-data pages.
fn run(s: &Omos, path: &str) -> (omos::os::RunOutcome, Process) {
    let mut clock = SimClock::new();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let reply = s.instantiate(path).unwrap();
    let mut proc = Process::spawn(&reply.program.frames, &mut clock, &cost).unwrap();
    for lib in &reply.libraries {
        proc.map_more(&lib.frames, &mut clock, &cost).unwrap();
    }
    let mut binder = OmosBinder::new(s);
    let out = run_process(&mut proc, &mut clock, &cost, &mut fs, &mut binder, 100_000);
    (out, proc)
}

#[test]
fn deny_policy_fails_instantiation_with_om017_and_builds_nothing() {
    let s = server(Transport::MachIpc);
    let err = s.instantiate("/bin/deny").unwrap_err();
    let OmosError::Policy(diags) = err else {
        panic!("expected OmosError::Policy, got: {err}");
    };
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.code == "OM017"), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.message.contains("_hot")),
        "the forbidden symbol is named: {diags:?}"
    );
    assert_eq!(
        s.stats().programs_built,
        0,
        "a denied link builds no images"
    );
    // The static analyzer reaches the same verdict without linking.
    let lint = s.lint("/bin/deny").unwrap();
    assert!(
        lint.iter().any(|d| d.code == "OM017"),
        "lint misses the deny violation: {lint:?}"
    );
    // The policy-free sibling over the same object still links and runs.
    let (out, _) = run(&s, "/bin/plain");
    assert_eq!(out.stop, StopReason::Exited(EXIT));
}

#[test]
fn trampoline_policy_is_behaviorally_transparent_and_traced() {
    let s = server(Transport::MachIpc);
    s.set_tracing(true);
    let mut clock = SimClock::new();
    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let out = run_under_omos(&s, "/bin/tramp", false, &mut clock, &cost, &mut fs, 100_000).unwrap();
    assert_eq!(out.stop, StopReason::Exited(EXIT), "stubs are transparent");
    let snap = s.trace_snapshot();
    assert_eq!(
        snap.counters.policy_trampolines, 2,
        "_hot and _cold wrapped"
    );
    assert_eq!(snap.counters.policy_audits, 0);
    // The wrap is visible in identity: same behavior, different image
    // and manifest than the policy-free program.
    let plain = s.instantiate("/bin/plain").unwrap();
    let tramp = s.instantiate("/bin/tramp").unwrap();
    assert_ne!(plain.manifest, tramp.manifest);
    assert_ne!(
        encode_image(&plain.program.image),
        encode_image(&tramp.program.image)
    );
}

#[test]
fn audit_policy_counts_entries_and_logs_the_monitor() {
    let s = server(Transport::MachIpc);
    let (out, mut proc) = run(&s, "/bin/audit");
    assert_eq!(
        out.stop,
        StopReason::Exited(EXIT),
        "audit stubs are transparent"
    );
    // Audit ids are sorted-name order: _cold = 0, _hot = 1; each slot is
    // counter_base + 4 * id at the start of the PolicyData window.
    let base = RegionClass::PolicyData.default_window().0 as u32;
    assert_eq!(proc.read_counter(base), Some(1), "_cold entered once");
    assert_eq!(proc.read_counter(base + 4), Some(2), "_hot entered twice");
    // MONLOG saw every entry, in call order: hot, hot, cold.
    assert_eq!(out.monitor_events, vec![1, 1, 0]);
}

#[test]
fn audit_counters_are_private_per_process() {
    let s = server(Transport::MachIpc);
    let base = RegionClass::PolicyData.default_window().0 as u32;
    let (_, mut first) = run(&s, "/bin/audit");
    let (_, mut second) = run(&s, "/bin/audit");
    // The second process starts from zeroed pages — counts do not
    // accumulate across processes even though the image frames are the
    // same shared cache entry.
    assert_eq!(second.read_counter(base), Some(1));
    assert_eq!(second.read_counter(base + 4), Some(2));
    // And the first process's tallies were not disturbed by the second
    // process running: the counter pages are private, not shared frames.
    assert_eq!(first.read_counter(base), Some(1));
    assert_eq!(first.read_counter(base + 4), Some(2));
}

/// The compatibility half of the design: a policy that matches nothing
/// must leave the reply *byte-identical* to the policy-free program —
/// same image bytes, same image key — while still being recorded in the
/// manifest (so `ofe explain` can diff policy sets).
#[test]
fn matchless_policy_reply_is_byte_identical_to_policy_free() {
    for jobs in [1usize, 8] {
        let s = server(Transport::MachIpc);
        s.set_eval_jobs(jobs);
        let plain = s.instantiate("/bin/plain").unwrap();
        let noop = s.instantiate("/bin/noop").unwrap();
        assert_eq!(
            encode_image(&plain.program.image),
            encode_image(&noop.program.image),
            "a matchless deny changed image bytes at jobs={jobs}"
        );
        assert_eq!(
            plain.program.key, noop.program.key,
            "a matchless deny changed the image key at jobs={jobs}"
        );
        assert_ne!(
            plain.manifest, noop.manifest,
            "the applied policy set is part of the manifest"
        );
    }
}

/// Policy-free replies are unaffected by the layer's existence: a
/// server that has linked policied programs hands out the *same bytes*
/// for a policy-free blueprint as a server that never saw a policy.
#[test]
fn policy_free_replies_do_not_change_when_policies_are_in_play() {
    let fresh = server(Transport::MachIpc);
    let want = fresh.instantiate("/bin/plain").unwrap();
    let busy = server(Transport::MachIpc);
    busy.instantiate("/bin/tramp").unwrap();
    busy.instantiate("/bin/audit").unwrap();
    let got = busy.instantiate("/bin/plain").unwrap();
    assert_eq!(
        encode_image(&want.program.image),
        encode_image(&got.program.image)
    );
    assert_eq!(want.manifest, got.manifest);
}

/// Determinism sweep over all three shipped policies: image bytes and
/// manifest hashes are identical on every transport and at both
/// `eval_jobs` settings (policies apply at the same point at every lane
/// count).
#[test]
fn policied_replies_are_identical_across_transports_and_jobs() {
    for path in ["/bin/noop", "/bin/tramp", "/bin/audit"] {
        let reference = {
            let s = server(Transport::MachIpc);
            let r = s.instantiate(path).unwrap();
            (encode_image(&r.program.image), r.manifest)
        };
        for transport in Transport::ALL {
            for jobs in [1usize, 8] {
                let s = server(transport);
                s.set_eval_jobs(jobs);
                let r = s.instantiate(path).unwrap();
                assert_eq!(
                    encode_image(&r.program.image),
                    reference.0,
                    "{path} image bytes diverged on {} jobs={jobs}",
                    transport.name()
                );
                assert_eq!(
                    r.manifest,
                    reference.1,
                    "{path} manifest diverged on {} jobs={jobs}",
                    transport.name()
                );
            }
        }
    }
}
