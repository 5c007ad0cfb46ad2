//! Parallel ≡ sequential oracle: laying a request's evaluation units
//! and library links out on simulated lanes must be *invisible* to the
//! client except in `latency_ns` and the span timeline.
//!
//! Over randomized blueprints, a cold build at `eval_jobs` ∈ {2, 8}
//! must match the sequential build (`eval_jobs` = 1) exactly: the same
//! program bytes, the same library images in the same order, the same
//! export namespace, the same billed `server_ns`, the same dynamic-lib
//! registrations — or the very same error. A deterministic fan-out
//! workload then checks the point of the exercise: the simulated
//! critical path shrinks at 8 jobs while the bill stays identical.

use std::collections::BTreeMap;

use proptest::prelude::*;

use omos::core::Omos;
use omos::isa::assemble;
use omos::obj::{ObjectFile, Section, SectionKind, Symbol};
use omos::os::ipc::Transport;
use omos::os::CostModel;

/// A world with enough shape for the generator: plain mergeable
/// objects, a conflicting pair (`/o/a` and `/o/dup` both define `_a`),
/// a dynamic specialization target, and a constraint-placed library.
fn server() -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    s.namespace.bind_object(
        "/o/main",
        assemble("main.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
    );
    s.namespace.bind_object(
        "/o/a",
        assemble("a.o", ".text\n.global _a\n_a: call _b\n ret\n").unwrap(),
    );
    s.namespace.bind_object(
        "/o/b",
        assemble("b.o", ".text\n.global _b\n_b: ret\n").unwrap(),
    );
    s.namespace.bind_object(
        "/o/c",
        assemble("c.o", ".text\n.global _c\n_c: li r1, 3\n ret\n").unwrap(),
    );
    s.namespace.bind_object(
        "/o/dup",
        assemble("dup.o", ".text\n.global _a\n_a: ret\n").unwrap(),
    );
    s.namespace.bind_object(
        "/libc/stdio.o",
        assemble("stdio.o", ".text\n.global _puts\n_puts: li r1, 7\n ret\n").unwrap(),
    );
    s.namespace
        .bind_blueprint(
            "/lib/lc",
            "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge /libc/stdio.o)",
        )
        .unwrap();
    s
}

/// Everything about a reply the client could observe (besides timing).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    program: u64,
    program_symbols: BTreeMap<String, u32>,
    libraries: Vec<u64>,
    server_ns: u64,
    dynamic_libs: usize,
}

/// Cold-builds `src` on a fresh server at the given parallelism.
fn run(src: &str, jobs: usize) -> Result<Fingerprint, String> {
    let s = server();
    s.set_eval_jobs(jobs);
    s.namespace
        .bind_blueprint("/bin/t", src)
        .map_err(|e| format!("{e:?}"))?;
    let r = s.instantiate("/bin/t").map_err(|e| e.to_string())?;
    Ok(Fingerprint {
        program: r.program.image.content_hash().0,
        program_symbols: r
            .program
            .image
            .symbols
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        libraries: r
            .libraries
            .iter()
            .map(|l| l.image.content_hash().0)
            .collect(),
        server_ns: r.server_ns,
        dynamic_libs: s.dynamic_lib_count(),
    })
}

const LEAVES: [&str; 5] = ["/o/a", "/o/b", "/o/c", "/o/dup", "/lib/lc"];
const PATTERNS: [&str; 3] = ["^_a$", "^_b$", "^_zz$"];

/// A random program: `/o/main` merged with 1–3 random subtrees, each a
/// merge of random leaves optionally wrapped in a view operation or a
/// dynamic specialization.
fn arb_program() -> impl Strategy<Value = String> {
    let subtree = (
        proptest::collection::vec(0usize..LEAVES.len(), 1..4),
        0usize..5, // 0: bare, 1: rename, 2: hide, 3: restrict, 4: specialize
        0usize..PATTERNS.len(),
    )
        .prop_map(|(leaves, wrap, pat)| {
            let inner = format!(
                "(merge {})",
                leaves
                    .iter()
                    .map(|&i| LEAVES[i])
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            match wrap {
                1 => format!("(rename \"{}\" \"_r\" {inner})", PATTERNS[pat]),
                2 => format!("(hide \"{}\" {inner})", PATTERNS[pat]),
                3 => format!("(restrict \"^_[ab]\" {inner})",),
                4 => format!("(specialize \"lib-dynamic\" {inner})"),
                _ => inner,
            }
        });
    proptest::collection::vec(subtree, 1..4)
        .prop_map(|subs| format!("(merge /o/main {})", subs.join(" ")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Byte-identical images, identical namespaces, identical billed
    /// `server_ns` — or the identical error — at jobs ∈ {1, 2, 8}.
    #[test]
    fn parallel_build_is_indistinguishable_from_sequential(src in arb_program()) {
        let base = run(&src, 1);
        for jobs in [2usize, 8] {
            let got = run(&src, jobs);
            prop_assert_eq!(
                &base, &got,
                "jobs={} diverged from sequential for {}", jobs, src
            );
        }
    }
}

/// A wide, link-heavy workload: `nlibs` independent constraint-placed
/// libraries (64 KiB of text each) under one program. The library
/// links dominate and are mutually independent, so a `jobs`-wide
/// schedule should collapse the critical path.
fn fanout_server(nlibs: usize) -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    s.namespace.bind_object(
        "/o/main",
        assemble("main.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
    );
    let mut uses = String::new();
    for i in 0..nlibs {
        let mut o = ObjectFile::new(&format!("f{i}.o"));
        let t = o.add_section(Section::with_bytes(
            ".text",
            SectionKind::Text,
            vec![0u8; 64 << 10],
            8,
        ));
        o.define(Symbol::defined(&format!("_f{i}"), t, 0)).unwrap();
        s.namespace.bind_object(&format!("/o/f{i}.o"), o);
        s.namespace
            .bind_blueprint(
                &format!("/lib/f{i}"),
                &format!(
                    "(constraint-list \"T\" {:#x} \"D\" {:#x})\n(merge /o/f{i}.o)",
                    0x0200_0000 + (i as u64) * 0x20_0000,
                    0x4200_0000 + (i as u64) * 0x20_0000,
                ),
            )
            .unwrap();
        uses.push_str(&format!(" /lib/f{i}"));
    }
    s.namespace
        .bind_blueprint("/bin/fan", &format!("(merge /o/main{uses})"))
        .unwrap();
    s
}

#[test]
fn fanout_halves_latency_without_touching_the_bill() {
    let seq = {
        let s = fanout_server(12);
        s.set_eval_jobs(1);
        s.instantiate("/bin/fan").unwrap()
    };
    // Sequentially, latency *is* the work sum.
    assert_eq!(seq.latency_ns, seq.server_ns);

    let par = {
        let s = fanout_server(12);
        s.set_eval_jobs(8);
        s.instantiate("/bin/fan").unwrap()
    };
    // The bill and the bytes are invariant under the schedule...
    assert_eq!(par.server_ns, seq.server_ns, "billed work must not change");
    assert_eq!(
        par.program.image.content_hash(),
        seq.program.image.content_hash()
    );
    assert_eq!(par.libraries.len(), seq.libraries.len());
    for (p, q) in par.libraries.iter().zip(&seq.libraries) {
        assert_eq!(p.image.content_hash(), q.image.content_hash());
    }
    // ...but the simulated critical path collapses.
    assert!(
        par.latency_ns * 2 <= seq.latency_ns,
        "expected ≥2x simulated speedup on a 12-library fan-out: \
         sequential {} ns, parallel {} ns",
        seq.latency_ns,
        par.latency_ns
    );
}

#[test]
fn warm_hits_bill_latency_equal_to_work_at_any_parallelism() {
    let s = fanout_server(4);
    s.set_eval_jobs(8);
    let cold = s.instantiate("/bin/fan").unwrap();
    let warm = s.instantiate("/bin/fan").unwrap();
    assert!(warm.cache_hit);
    assert_eq!(warm.latency_ns, warm.server_ns);
    assert!(warm.server_ns < cold.server_ns);
}

/// What a failed cold build leaves behind, and what the next, unrelated
/// build then produces: the build error, the solver's allocation count,
/// the image-cache byte total, and the fingerprint of `/bin/good`.
#[derive(Debug, PartialEq, Eq)]
struct AfterFailure {
    error: String,
    allocations: usize,
    cached_images: usize,
    good: Fingerprint,
    good_text_bases: Vec<u32>,
}

/// Libraries l1..l3 pinned at consecutive text addresses, l2 calling an
/// undefined `_missing`, and l4 pinned where l3 is: `/bin/bad` fails to
/// link at l2, then `/bin/good` places l4.
fn run_after_failure(jobs: usize) -> AfterFailure {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    s.set_eval_jobs(jobs);
    s.namespace.bind_object(
        "/o/main",
        assemble("main.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
    );
    for (i, body, text) in [
        (1, "ret", 0x0100_0000),
        (2, "call _missing\n ret", 0x0110_0000),
        (3, "ret", 0x0120_0000),
        (4, "ret", 0x0120_0000),
    ] {
        s.namespace.bind_object(
            &format!("/o/l{i}.o"),
            assemble(
                &format!("l{i}.o"),
                &format!(".text\n.global _f{i}\n_f{i}: {body}\n"),
            )
            .unwrap(),
        );
        s.namespace
            .bind_blueprint(
                &format!("/lib/l{i}"),
                &format!("(constraint-list \"T\" {text:#x})\n(merge /o/l{i}.o)"),
            )
            .unwrap();
    }
    s.namespace
        .bind_blueprint("/bin/bad", "(merge /o/main /lib/l1 /lib/l2 /lib/l3)")
        .unwrap();
    s.namespace
        .bind_blueprint("/bin/good", "(merge /o/main /lib/l4)")
        .unwrap();
    let error = s.instantiate("/bin/bad").unwrap_err().to_string();
    let allocations = s.solver().allocations().count();
    let cached_images = s.images.len();
    let r = s.instantiate("/bin/good").unwrap();
    AfterFailure {
        error,
        allocations,
        cached_images,
        good: Fingerprint {
            program: r.program.image.content_hash().0,
            program_symbols: r
                .program
                .image
                .symbols
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            libraries: r
                .libraries
                .iter()
                .map(|l| l.image.content_hash().0)
                .collect(),
            server_ns: r.server_ns,
            dynamic_libs: s.dynamic_lib_count(),
        },
        good_text_bases: r
            .libraries
            .iter()
            .filter_map(|l| {
                l.image
                    .segments
                    .iter()
                    .find(|seg| seg.kind == SectionKind::Text)
                    .map(|seg| seg.vaddr)
            })
            .collect(),
    }
}

#[test]
fn failed_build_leaves_the_same_bookings_at_every_parallelism() {
    let seq = run_after_failure(1);
    assert_eq!(seq.error, "undefined symbols: _missing");
    assert_eq!(seq.good_text_bases, vec![0x0120_0000], "l4 gets its pin");
    for jobs in [2, 8] {
        assert_eq!(run_after_failure(jobs), seq, "jobs={jobs}");
    }
}
