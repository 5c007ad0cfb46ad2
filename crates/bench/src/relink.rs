//! The stale-rebuild benchmark: rebuild cost scaling with diff size.
//!
//! A 12-library program is instantiated, then k of its libraries are
//! rebound (k = 1..12) and the stale reply is rebuilt two ways:
//!
//! * **incremental** — the warm server's rebuild. It is the ordinary
//!   build, but on a server whose caches still hold the previous
//!   reply's work: the 12−k unchanged libraries get their known
//!   placement back from the solver and their images from the image
//!   cache, so only the k dirtied libraries and the program are linked;
//! * **full** — a cold server instantiating the post-rebind state from
//!   nothing: every library placed and linked, the honest "relink the
//!   whole subgraph" baseline.
//!
//! The oracle then proves the two replies **bit-identical**: same
//! program image bytes, same per-library image bytes and keys, same
//! resolution manifest hash. The speedup is real only because the
//! result is provably the same.

use omos_core::json::Json;
use omos_core::{InstantiateReply, Omos};
use omos_isa::assemble;
use omos_os::ipc::Transport;
use omos_os::CostModel;

/// Libraries in the benchmark program.
pub const LIBRARIES: usize = 12;

/// Exported functions per library (sized so link work dominates
/// evaluation and the fixed per-request handling cost — the regime the
/// paper's million-user catalog actually lives in).
const FUNCS_PER_LIB: usize = 96;

/// One point on the diff-size curve.
#[derive(Debug, Clone, Copy)]
pub struct RelinkPoint {
    /// Libraries rebound before the rebuild.
    pub changed: usize,
    /// Warm incremental rebuild cost (simulated ns billed to the
    /// client).
    pub incremental_ns: u64,
    /// Cold full-relink cost of the identical state.
    pub full_ns: u64,
    /// Library images the warm rebuild took from the image cache.
    pub reused: u64,
    /// Libraries the warm rebuild linked.
    pub relinked: u64,
    /// Link work the reuses skipped (recorded rebuild cost of every
    /// reused image).
    pub avoided_ns: u64,
}

impl RelinkPoint {
    /// full / incremental.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.full_ns as f64 / self.incremental_ns.max(1) as f64
    }
}

/// The whole sweep.
#[derive(Debug, Clone)]
pub struct RelinkResult {
    /// One point per diff size, k = 1..=[`LIBRARIES`].
    pub points: Vec<RelinkPoint>,
}

/// Source text of library `i` at content version `v`.
fn lib_source(i: usize, v: u32) -> String {
    use std::fmt::Write as _;
    let mut s = String::from(".text\n.global ");
    for j in 0..FUNCS_PER_LIB {
        let _ = write!(s, "{}_l{i}_f{j}", if j == 0 { "" } else { ", " });
    }
    s.push('\n');
    for j in 0..FUNCS_PER_LIB {
        // Each function loads a version-dependent value and calls its
        // ring successor: one relocation per function keeps the linker
        // honest about both symbols and relocations.
        let _ = writeln!(s, "_l{i}_f{j}: li r1, {}", (v + 1) * 100 + j as u32);
        if j + 1 < FUNCS_PER_LIB {
            let _ = writeln!(s, " call _l{i}_f{}", j + 1);
        }
        let _ = writeln!(s, " ret");
    }
    let _ = writeln!(s, ".data");
    let _ = writeln!(s, "_l{i}_tab: .asciz \"lib{i}.v{v}\"");
    s
}

/// Rebinds only libraries `0..changed` to content version 1 — the
/// minimal namespace touch a real rebind performs. Clean libraries'
/// objects and blueprints are left alone, so their eval subtrees stay
/// cached and only the dirtied dependency paths invalidate.
fn rebind_changed(server: &Omos, changed: usize) {
    for i in 0..changed {
        server.namespace.bind_object(
            &format!("/obj/lib{i}.o"),
            assemble(&format!("lib{i}.o"), &lib_source(i, 1)).expect("lib assembles"),
        );
    }
}

/// Binds the 12-library world into `server`, with libraries `0..changed`
/// at content version 1 and the rest at version 0.
fn bind_world(server: &Omos, changed: usize) {
    let mut app = String::from(".text\n.global _start\n_start:");
    for i in 0..LIBRARIES {
        app.push_str(&format!(" call _l{i}_f0\n"));
    }
    app.push_str(" sys 0\n");
    server.namespace.bind_object(
        "/obj/app.o",
        assemble("app.o", &app).expect("app assembles"),
    );
    let mut uses = String::from("(merge /obj/app.o");
    for i in 0..LIBRARIES {
        let v = u32::from(i < changed);
        server.namespace.bind_object(
            &format!("/obj/lib{i}.o"),
            assemble(&format!("lib{i}.o"), &lib_source(i, v)).expect("lib assembles"),
        );
        server
            .namespace
            .bind_blueprint(
                &format!("/lib/lib{i}"),
                &format!(
                    "(constraint-list \"T\" {:#x} \"D\" {:#x})\n(merge /obj/lib{i}.o)",
                    0x0100_0000 + i * 0x0040_0000,
                    0x4100_0000 + i * 0x0040_0000,
                ),
            )
            .expect("library blueprint binds");
        uses.push_str(&format!(" /lib/lib{i}"));
    }
    uses.push(')');
    server
        .namespace
        .bind_blueprint("/bin/app", &uses)
        .expect("program blueprint binds");
}

/// Asserts the two replies committed to bit-identical artifacts.
fn assert_identical(a: &InstantiateReply, b: &InstantiateReply, what: &str) {
    assert_eq!(a.manifest, b.manifest, "{what}: manifest hash diverged");
    assert_eq!(
        a.program.image.content_hash(),
        b.program.image.content_hash(),
        "{what}: program image bytes diverged"
    );
    assert_eq!(
        a.libraries.len(),
        b.libraries.len(),
        "{what}: library count"
    );
    for (x, y) in a.libraries.iter().zip(&b.libraries) {
        assert_eq!(x.key, y.key, "{what}: library image key diverged");
        assert_eq!(
            x.image.content_hash(),
            y.image.content_hash(),
            "{what}: library image bytes diverged"
        );
    }
}

/// Runs the sweep. Every point is measured on fresh servers (the
/// simulation is deterministic, so there is no warm-up noise to
/// average away).
#[must_use]
pub fn run_relink_bench() -> RelinkResult {
    let mut points = Vec::with_capacity(LIBRARIES);
    for changed in 1..=LIBRARIES {
        // Warm incremental: instantiate v0, rebind k libraries, rebuild.
        let warm = Omos::new(CostModel::hpux(), Transport::SysVMsg);
        bind_world(&warm, 0);
        let _ = warm.instantiate("/bin/app").expect("cold build");
        let before = warm.trace_snapshot().counters;
        rebind_changed(&warm, changed); // rebinds only objects 0..changed
        let incr = warm.instantiate("/bin/app").expect("incremental rebuild");
        let after = warm.trace_snapshot().counters;
        assert!(!incr.cache_hit, "rebind must invalidate the reply");
        assert_eq!(
            after.reply_stale - before.reply_stale,
            1,
            "k={changed}: the rebuild must replace a stale reply"
        );
        let reused = after.relink_reused_images - before.relink_reused_images;
        let relinked = after.relink_relinked_libraries - before.relink_relinked_libraries;
        assert_eq!(
            (reused, relinked),
            ((LIBRARIES - changed) as u64, changed as u64),
            "k={changed}: exactly the unchanged library images come from the image cache"
        );

        // Cold full relink of the identical post-rebind state.
        let cold = Omos::new(CostModel::hpux(), Transport::SysVMsg);
        bind_world(&cold, changed);
        let full = cold.instantiate("/bin/app").expect("cold full relink");

        assert_identical(&incr, &full, &format!("k={changed}"));
        points.push(RelinkPoint {
            changed,
            incremental_ns: incr.server_ns,
            full_ns: full.server_ns,
            reused,
            relinked,
            avoided_ns: after.relink_avoided_ns - before.relink_avoided_ns,
        });
    }
    RelinkResult { points }
}

/// The acceptance gate the report is required to demonstrate: a
/// 1-of-12-library change rebuilds at least 5x faster on the warm
/// server, and cost grows monotonically with diff size.
pub fn assert_gate(r: &RelinkResult) {
    assert_eq!(r.points.len(), LIBRARIES);
    let p1 = &r.points[0];
    assert!(
        p1.speedup() >= 5.0,
        "1-of-12 rebind speedup {:.2} < 5x (incr {} vs full {})",
        p1.speedup(),
        p1.incremental_ns,
        p1.full_ns
    );
    for w in r.points.windows(2) {
        assert!(
            w[0].incremental_ns < w[1].incremental_ns,
            "incremental cost must grow with diff size"
        );
    }
}

/// Full report JSON (`BENCH_RELINK.json`).
#[must_use]
pub fn to_json(r: &RelinkResult) -> String {
    render(r, &[])
}

/// Integer-only smoke rendering for the byte-compared CI golden: the
/// full report without `speedup` and `avoided_ns`.
#[must_use]
pub fn to_smoke_json(r: &RelinkResult) -> String {
    render(r, &["speedup", "avoided_ns"])
}

fn render(r: &RelinkResult, omit: &[&str]) -> String {
    let point = |p: &RelinkPoint| {
        let members = [
            ("changed", p.changed.into()),
            ("incremental_ns", p.incremental_ns.into()),
            ("full_ns", p.full_ns.into()),
            ("speedup", Json::fixed(p.speedup(), 2)),
            ("reused", p.reused.into()),
            ("relinked", p.relinked.into()),
            ("avoided_ns", p.avoided_ns.into()),
        ];
        Json::obj(members.into_iter().filter(|(k, _)| !omit.contains(k)))
    };
    let points = r.points.iter().map(point).collect();
    Json::obj([
        ("libraries", LIBRARIES.into()),
        ("points", Json::Arr(points)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_of_twelve_rebind_is_at_least_five_times_faster() {
        let r = run_relink_bench();
        assert_gate(&r);
        let p1 = &r.points[0];
        assert_eq!(
            (p1.changed, p1.reused, p1.relinked),
            (1, LIBRARIES as u64 - 1, 1)
        );
        // More dirt, less reuse.
        assert!(r.points.windows(2).all(|w| w[0].reused > w[1].reused));
    }
}
