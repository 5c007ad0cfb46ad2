//! The paper-number reports: Table 1, the memory-use comparison, the
//! §4.1 reordering experiment and the design ablations. Each function
//! runs its experiment on the simulated clock and returns the text its
//! harness binary prints; `tests/paper_numbers.rs` byte-compares each
//! one with its golden file under `tests/golden/`.

use std::fmt::Write as _;

use omos_constraint::{PlacementRequest, PlacementSolver, RegionClass, SegmentRequest};
use omos_os::ipc::Transport;
use omos_os::{CostModel, InMemFs, SimClock, Times};

use crate::memshare::{
    measure_native, measure_omos, measure_omos_mixed, measure_static, measure_static_mixed,
};
use crate::{run_reorder_experiment, ReorderConfig, Scenario, WorkloadSizes};

/// One row of a Table-1-style block.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration label (e.g. "HP-UX Shared Lib").
    pub label: String,
    /// Accumulated times over all iterations.
    pub times: Times,
    /// Elapsed ratio vs the first row, if not the baseline.
    pub ratio: Option<f64>,
}

/// A Table-1-style block: platform, test name, iterations, rows.
#[derive(Debug, Clone)]
pub struct Block {
    /// Platform line (e.g. "HP-UX").
    pub platform: String,
    /// Test line (e.g. "ls -laF").
    pub test: String,
    /// Iteration count the times cover.
    pub iterations: u64,
    /// The measured rows (baseline first).
    pub rows: Vec<Row>,
}

impl Block {
    /// Starts a block with a baseline row.
    #[must_use]
    pub fn new(platform: &str, test: &str, iterations: u64) -> Block {
        Block {
            platform: platform.to_string(),
            test: test.to_string(),
            iterations,
            rows: Vec::new(),
        }
    }

    /// Adds a row; ratio is computed against the first row.
    pub fn push(&mut self, label: &str, times: Times) {
        let ratio = self
            .rows
            .first()
            .map(|base| times.elapsed_ns as f64 / base.times.elapsed_ns as f64);
        self.rows.push(Row {
            label: label.to_string(),
            times,
            ratio,
        });
    }

    /// Renders the block in the paper's column layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.platform));
        out.push_str(&format!(
            "Test: {}  ({} iterations)\n",
            self.test, self.iterations
        ));
        out.push_str(&format!(
            "{:<26} {:>8} {:>8} {:>9} {:>7}\n",
            "", "User", "System", "Elapsed", "Ratio"
        ));
        out.push_str(&format!(
            "{:<26} {:>8} {:>8} {:>9} {:>7}\n",
            "", "Time", "Time", "Time", ""
        ));
        for r in &self.rows {
            let ratio = match r.ratio {
                Some(v) => format!("{v:.2}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "{:<26} {:>8.2} {:>8.2} {:>9.2} {:>7}\n",
                r.label,
                r.times.user_s(),
                r.times.system_s(),
                r.times.elapsed_s(),
                ratio
            ));
        }
        out
    }
}

/// The paper's Table 1, "Constraint-based Shared Library Performance,
/// Times in Seconds": HP-UX `ls`, `ls -laF` and `codegen` ×1000, and
/// Mach 3.0/OSF/1 `ls` ×300 (native vs OMOS bootstrap vs OMOS
/// integrated). Runs are warm (the paper repeated each run at least
/// three times); one deterministic simulated invocation is measured and
/// scaled by the iteration count, which loses nothing on an exact clock.
///
/// With `summary`, the abstract's aggregate claim follows ("average
/// speedup of 20% (range 0 – 56%)").
#[must_use]
pub fn table1(summary: bool) -> String {
    let mut out = String::new();
    let sizes = WorkloadSizes::default();
    let mut speedups: Vec<(String, f64)> = Vec::new();

    out.push_str("Table 1: Constraint-based Shared Library Performance Times in Seconds\n");
    out.push_str("(reproduction; simulated clock, warm caches)\n\n");

    let mut hp = Scenario::build(sizes, CostModel::hpux(), Transport::SysVMsg);
    hp.warm_up().expect("all schemes agree on output");
    for (prog, label, iters) in [
        ("ls", "ls", 1000u64),
        ("ls-laF", "ls -laF", 1000),
        ("codegen", "codegen", 1000),
    ] {
        let t = hp.measure(prog).expect("measurement succeeds");
        let mut b = Block::new("HP-UX", label, iters);
        b.push("HP-UX Shared Lib", t.native.scaled(iters));
        b.push("OMOS bootstrap exec", t.bootstrap.scaled(iters));
        let _ = writeln!(out, "{}", b.render());
        speedups.push((
            format!("HP-UX {label} (bootstrap)"),
            1.0 - t.bootstrap_ratio(),
        ));
    }

    let mut osf = Scenario::build(sizes, CostModel::osf1(), Transport::MachIpc);
    osf.warm_up().expect("all schemes agree on output");
    let t = osf.measure("ls").expect("measurement succeeds");
    let iters = 300u64;
    let mut b = Block::new("Mach 3.0 with OSF/1 Server", "ls", iters);
    b.push("OSF/1 Shared Lib", t.native.scaled(iters));
    b.push("OMOS bootstrap exec", t.bootstrap.scaled(iters));
    b.push("OMOS integrated exec", t.integrated.scaled(iters));
    let _ = writeln!(out, "{}", b.render());
    speedups.push(("OSF/1 ls (bootstrap)".into(), 1.0 - t.bootstrap_ratio()));
    speedups.push(("OSF/1 ls (integrated)".into(), 1.0 - t.integrated_ratio()));

    if summary {
        out.push_str("Summary (abstract claim: average speedup 20%, range 0 - 56%)\n");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for (name, s) in &speedups {
            let _ = writeln!(out, "  {name:<32} speedup {:5.1}%", s * 100.0);
            lo = lo.min(*s);
            hi = hi.max(*s);
            sum += s;
        }
        let _ = writeln!(
            out,
            "  average {:.1}%  range {:.0}% - {:.0}%",
            sum / speedups.len() as f64 * 100.0,
            lo * 100.0,
            hi * 100.0
        );
    }
    out
}

/// The memory-use comparison (\[11\], cited in §2.1 and §4.1): dispatch
/// tables vs library-code savings for a small program (`ls`) and
/// library (`libc`), across concurrency levels, under three schemes.
#[must_use]
pub fn memuse() -> String {
    let mut out = String::new();
    let sizes = WorkloadSizes::default();
    out.push_str("Memory use: `ls` under three library schemes (pages are 4 KB)\n");
    out.push_str("(reproducing the [11] dispatch-table-vs-savings comparison)\n\n");
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>12} {:>12} {:>10} {:>14}",
        "scheme", "procs", "mapped KB", "resident KB", "saved KB", "dispatch B/proc"
    );
    let mut native_rows = Vec::new();
    let mut static_rows = Vec::new();
    for n in [1usize, 2, 4, 8, 16] {
        let st = measure_static(n, &sizes).expect("static runs");
        let na = measure_native(n, &sizes).expect("native runs");
        let om = measure_omos(n, &sizes).expect("omos runs");
        for (name, m) in [("static", &st), ("native", &na), ("omos", &om)] {
            let _ = writeln!(
                out,
                "{:<10} {:>5} {:>12} {:>12} {:>10} {:>14}",
                name,
                m.processes,
                m.mapped_kb,
                m.resident_kb,
                m.saved_kb(),
                m.dispatch_bytes
            );
        }
        out.push('\n');
        native_rows.push(na);
        static_rows.push(st);
    }

    // The [11] claim, quantified: at low concurrency the native scheme's
    // overhead (dispatch tables + whole-library residency) exceeds what
    // sharing saves relative to selective static linking.
    out.push_str("[11] claim check (native vs static):\n");
    for (na, st) in native_rows.iter().zip(&static_rows) {
        let overhead = na.resident_kb as i64 - st.resident_kb as i64;
        let _ = writeln!(
            out,
            "  {:>2} procs: native spends {:+} KB vs static ({} B/proc of that is dispatch tables)",
            na.processes, overhead, na.dispatch_bytes
        );
    }
    out.push_str(
        "\nFor small concurrency the dynamic scheme *costs* memory — exactly the\n\
         [11] observation; the crossover appears as concurrency grows.\n",
    );

    // Mixed-program population: where shared libraries pay off (two
    // different static binaries duplicate their libc subsets).
    out.push_str("\nMixed population: N x ls + N x `ls -laF`:\n");
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>12} {:>12} {:>10}",
        "scheme", "procs", "mapped KB", "resident KB", "saved KB"
    );
    for n in [1usize, 4, 16] {
        let st = measure_static_mixed(n, &sizes).expect("static mixed runs");
        let om = measure_omos_mixed(n, &sizes).expect("omos mixed runs");
        for (name, m) in [("static", &st), ("omos", &om)] {
            let _ = writeln!(
                out,
                "{:<10} {:>7} {:>12} {:>12} {:>10}",
                name,
                m.processes,
                m.mapped_kb,
                m.resident_kb,
                m.saved_kb()
            );
        }
    }
    out
}

/// The §4.1 reordering experiment: monitored procedure reordering
/// should yield a speedup "in excess of 10%" (\[14\]).
#[must_use]
pub fn reorder() -> String {
    let mut out = String::new();
    let cfg = ReorderConfig::default();
    out.push_str("Procedure-reordering experiment (\"locality of reference\", §4.1 / [14])\n");
    let _ = writeln!(
        out,
        "library: {} routines x 256B, hot set: every {}th routine, {} loops\n",
        cfg.n_fns, cfg.hot_stride, cfg.loops
    );
    let r = run_reorder_experiment(&cfg).expect("experiment runs");
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>12} {:>12} {:>12}",
        "layout", "elapsed", "i$ misses", "page faults", "peak pages"
    );
    for (label, run) in [("source order", &r.before), ("monitored order", &r.after)] {
        let _ = writeln!(
            out,
            "{:<22} {:>9.2}ms {:>12} {:>12} {:>12}",
            label,
            run.times.elapsed_ns as f64 / 1e6,
            run.locality.cache_misses,
            run.locality.page_faults,
            run.locality.peak_resident,
        );
    }
    let _ = writeln!(out, "\nmonitoring events collected: {}", r.events);
    let _ = writeln!(out, "derived order head: {:?}", r.derived_head);
    let _ = writeln!(
        out,
        "speedup: {:.1}%  (paper: \"average speedups in excess of 10%\")",
        r.speedup() * 100.0
    );
    out
}

/// Ablations over the design choices DESIGN.md calls out:
///
/// 1. **IPC transport** (§8.1: Mach IPC vs SysV messages vs Sun RPC) —
///    the HP-UX `ls` ratio is sensitive to the transport because the
///    round trip is OMOS's main per-invocation cost on tiny programs;
/// 2. **Caching off vs on** — the cold (first-ever) instantiation pays
///    evaluation + linking; warm invocations ride the reply cache;
/// 3. **Synchronous writes** (§2.1's NFS remark) — static-linking a
///    multi-megabyte binary under synchronous writes;
/// 4. **Constraint conflicts** (§3.5/§4.1) — the common case generates
///    one library version; a library asking for a range another one
///    holds is placed elsewhere and lands in the conflict log.
#[must_use]
pub fn ablate() -> String {
    let mut out = String::new();
    transport_sweep(&mut out);
    cold_vs_warm(&mut out);
    sync_write_cost(&mut out);
    constraint_conflicts(&mut out);
    out
}

fn transport_sweep(out: &mut String) {
    out.push_str("1. Transport ablation (HP-UX ls, warm, bootstrap exec):\n");
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>8}",
        "transport", "omos elapsed", "ratio"
    );
    let sizes = WorkloadSizes::default();
    for t in Transport::ALL {
        let mut s = Scenario::build(sizes, CostModel::hpux(), t);
        s.warm_up().expect("schemes agree");
        let m = s.measure("ls").expect("measures");
        let _ = writeln!(
            out,
            "{:<12} {:>12.2}ms {:>8.2}",
            t.name(),
            m.bootstrap.elapsed_ns as f64 / 1e6,
            m.bootstrap_ratio()
        );
    }
    out.push('\n');
}

fn cold_vs_warm(out: &mut String) {
    out.push_str("2. Cache ablation (HP-UX codegen, bootstrap exec):\n");
    let sizes = WorkloadSizes {
        codegen_iters: 5,
        ..WorkloadSizes::default()
    };
    let mut s = Scenario::build(sizes, CostModel::hpux(), Transport::SysVMsg);
    let (cold, _) = s.run_omos("codegen", false).expect("cold run");
    let (warm, _) = s.run_omos("codegen", false).expect("warm run");
    let _ = writeln!(
        out,
        "  cold (first instantiation): {:>9.2}ms elapsed",
        cold.elapsed_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "  warm (reply cache hit):     {:>9.2}ms elapsed  ({:.1}x faster)",
        warm.elapsed_ns as f64 / 1e6,
        cold.elapsed_ns as f64 / warm.elapsed_ns as f64
    );
    let st = s.server.stats();
    let _ = writeln!(
        out,
        "  server: {} requests, {} reply-cache hits, {} libraries built, {} programs built\n",
        st.requests, st.reply_cache_hits, st.libraries_built, st.programs_built
    );
}

fn sync_write_cost(out: &mut String) {
    out.push_str("3. Synchronous-write ablation (static linking I/O, §2.1):\n");
    let cost = {
        let mut c = CostModel::hpux();
        c.sync_write_mult = 3;
        c
    };
    let binary = vec![0u8; 3 * 1024 * 1024];
    for (label, sync) in [("local (async)", false), ("NFS-style (sync)", true)] {
        let mut fs = InMemFs::new();
        fs.sync_writes = sync;
        let mut clock = SimClock::new();
        fs.write("/bin/huge", &binary, &mut clock, &cost)
            .expect("write succeeds");
        let _ = writeln!(
            out,
            "  {:<18} 3 MB binary write: {:>8.1}ms elapsed",
            label,
            clock.elapsed_ns as f64 / 1e6
        );
    }
    out.push_str("  (the paper: \"at least a factor of three worse\" on NFS)\n\n");
}

fn constraint_conflicts(out: &mut String) {
    out.push_str("4. Constraint-conflict ablation (§3.5/§4.1):\n");
    let mut solver = PlacementSolver::new();
    let seg = |pref| SegmentRequest {
        class: RegionClass::Text,
        size: 0x20000,
        align: 4096,
        preferred: Some(pref),
    };
    let place = |solver: &mut PlacementSolver, name: &str, pref| {
        solver
            .place(
                &PlacementRequest {
                    name: name.into(),
                    key: 1,
                    segments: vec![seg(pref)],
                },
                &[],
            )
            .expect("places");
    };
    // Common case: fifty programs, three libraries, no conflicts.
    for _ in 0..50 {
        for (name, pref) in [
            ("libc", 0x0100_0000u64),
            ("libm", 0x0140_0000),
            ("libX", 0x0180_0000),
        ] {
            place(&mut solver, name, pref);
        }
    }
    let _ = writeln!(
        out,
        "  common case: 150 requests -> {} libc versions, {} conflicts",
        solver.version_count("libc", 1),
        solver.conflicts().len()
    );
    // Conflict case: a different library asks for libc's booked range.
    // (A rebuilt libc would not do: it takes over its predecessor's
    // range.)
    place(&mut solver, "libz", 0x0100_0000);
    let _ = writeln!(
        out,
        "  libz asks for libc's range: {} libc + {} libz versions, {} conflicts logged (occupant: {:?})\n",
        solver.version_count("libc", 1),
        solver.version_count("libz", 1),
        solver.conflicts().len(),
        solver
            .conflicts()
            .last()
            .and_then(|c| c.occupant.as_deref())
    );
}

/// Byte-compares a smoke report with its committed golden file at
/// `path`, or rewrites the golden when `OMOS_UPDATE_GOLDEN=1`. Returns
/// the line to print; `Err` means the gate failed.
pub fn check_smoke_golden(path: &str, got: &str) -> Result<String, String> {
    if std::env::var("OMOS_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(path, got).map_err(|e| format!("cannot write {path}: {e}"))?;
        return Ok(format!("updated {path}"));
    }
    match std::fs::read_to_string(path) {
        Ok(want) if want == got => Ok(format!("smoke curve matches {path}")),
        Ok(want) => Err(format!(
            "smoke curve diverged from {path}\n--- golden ---\n{want}\n--- current ---\n{got}\n\
             If the change is intentional, regenerate with OMOS_UPDATE_GOLDEN=1."
        )),
        Err(e) => Err(format!(
            "cannot read golden {path}: {e}\nrun with OMOS_UPDATE_GOLDEN=1 to create it"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: u64, s: u64, e: u64) -> Times {
        Times {
            user_ns: u,
            system_ns: s,
            elapsed_ns: e,
        }
    }

    #[test]
    fn ratio_against_baseline() {
        let mut b = Block::new("HP-UX", "ls", 1000);
        b.push("HP-UX Shared Lib", t(0, 0, 10_000_000_000));
        b.push("OMOS bootstrap exec", t(0, 0, 9_300_000_000));
        assert!(b.rows[0].ratio.is_none());
        let r = b.rows[1].ratio.unwrap();
        assert!((r - 0.93).abs() < 1e-9);
    }

    #[test]
    fn render_contains_columns_and_rows() {
        let mut b = Block::new("Mach 3.0 with OSF/1 Server", "ls", 300);
        b.push(
            "OSF/1 Shared Lib",
            t(890_000_000, 4_460_000_000, 38_000_000_000),
        );
        b.push(
            "OMOS integrated exec",
            t(890_000_000, 4_490_000_000, 17_000_000_000),
        );
        let s = b.render();
        assert!(s.contains("Mach 3.0 with OSF/1 Server"));
        assert!(s.contains("Elapsed"));
        assert!(s.contains("OMOS integrated exec"));
        assert!(s.contains("0.45"));
    }
}
