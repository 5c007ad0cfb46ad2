//! The §4.1 monitored-reordering experiment ("We have performed this
//! experiment and achieved average speedups in excess of 10%" \[14\]).
//!
//! A library of many small routines is laid out in "source order", with
//! the program's hot routines scattered one per page among cold ones.
//! OMOS's monitoring machinery (a monitored instantiation: audit-stub
//! interposition, `MONLOG` events) observes the call order; the derived
//! layout packs hot routines together, and the same program reruns
//! measurably faster because the locality model (i-cache + resident-set
//! paging) charges fewer misses and faults.

use omos_core::monitor::derive_order;
use omos_core::Omos;
use omos_isa::assemble;
use omos_isa::locality::{LocalityConfig, LocalityReport, Tracker};
use omos_isa::StopReason;
use omos_obj::ObjectFile;
use omos_os::ipc::Transport;
use omos_os::process::{run_process, NoBinder, Process};
use omos_os::{CostModel, ImageFrames, InMemFs, SimClock, Times};

/// Configuration of the reordering experiment.
#[derive(Debug, Clone)]
pub struct ReorderConfig {
    /// Total library routines.
    pub n_fns: usize,
    /// One routine in every `hot_stride` is hot (one per page with
    /// 256-byte routines and 4 KB pages ⇒ stride 16).
    pub hot_stride: usize,
    /// Outer loops the driver program performs over the hot set.
    pub loops: u32,
    /// Inner-loop iterations inside each routine (per-call useful work).
    pub body_iters: u32,
    /// Machine costs. Code page faults here are *soft* (warm page cache).
    pub cost: CostModel,
    /// Locality model parameters.
    pub locality: LocalityConfig,
}

impl Default for ReorderConfig {
    fn default() -> Self {
        let mut cost = CostModel::hpux();
        // Warm iterations: a code page fault is a reclaim from the page
        // cache, not a disk read.
        cost.code_page_fault_ns = 15_000;
        ReorderConfig {
            n_fns: 512,
            hot_stride: 16,
            loops: 40,
            body_iters: 1100,
            cost,
            locality: LocalityConfig::default(),
        }
    }
}

impl ReorderConfig {
    /// A reduced configuration for unit tests.
    #[must_use]
    pub fn small() -> ReorderConfig {
        ReorderConfig {
            n_fns: 128,
            loops: 10,
            body_iters: 300,
            ..ReorderConfig::default()
        }
    }

    /// Names of the hot routines, in call order.
    #[must_use]
    pub fn hot_names(&self) -> Vec<String> {
        (0..self.n_fns)
            .step_by(self.hot_stride)
            .map(|i| format!("_r{i}"))
            .collect()
    }
}

/// One measured layout.
#[derive(Debug, Clone, Copy)]
pub struct LayoutRun {
    /// Simulated times for the run.
    pub times: Times,
    /// Locality counters.
    pub locality: LocalityReport,
}

/// The experiment's result.
#[derive(Debug)]
pub struct ReorderResult {
    /// Original (source-order) layout.
    pub before: LayoutRun,
    /// Monitored, reordered layout.
    pub after: LayoutRun,
    /// Number of monitoring events collected.
    pub events: usize,
    /// First entries of the derived order (hot routines first).
    pub derived_head: Vec<String>,
}

impl ReorderResult {
    /// Elapsed-time speedup fraction `(before - after) / before`.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let b = self.before.times.elapsed_ns as f64;
        let a = self.after.times.elapsed_ns as f64;
        (b - a) / b
    }
}

/// One library routine as its own object file, so the link order (and
/// therefore the page layout) can be permuted per function.
fn routine_object(i: usize, body_iters: u32) -> ObjectFile {
    // 256 bytes per routine: prologue + a work loop + padding.
    let src = format!(
        r#"
        .text
        .global _r{i}
_r{i}:  li r9, {body_iters}
_w{i}:  addi r1, r1, {k}
        xor r1, r1, r9
        addi r9, r9, -1
        bne r9, r0, _w{i}
        ret
        .align 256
"#,
        k = i % 7 + 1,
    );
    assemble(&format!("r{i}.o"), &src)
        .unwrap_or_else(|e| unreachable!("routine {i} assembles: {e}"))
}

/// The driver: calls every hot routine, `loops` times, then exits.
fn driver_object(cfg: &ReorderConfig) -> ObjectFile {
    let mut s = String::from(".text\n.global _start\n");
    for h in cfg.hot_names() {
        let _ = std::fmt::Write::write_fmt(&mut s, format_args!("        .extern {h}\n"));
    }
    let _ = std::fmt::Write::write_fmt(&mut s, format_args!("_start: li r12, {}\n", cfg.loops));
    s.push_str("_outer:\n");
    for h in cfg.hot_names() {
        let _ = std::fmt::Write::write_fmt(&mut s, format_args!("        call {h}\n"));
    }
    s.push_str(
        "        addi r12, r12, -1\n        bne r12, r0, _outer\n        li r1, 0\n        sys 0\n",
    );
    assemble("driver.o", &s).unwrap_or_else(|e| unreachable!("driver assembles: {e}"))
}

/// Links driver + routines in `order` and runs with the locality tracker.
fn run_layout(
    driver: &ObjectFile,
    routines: &[ObjectFile],
    order: &[usize],
    cfg: &ReorderConfig,
) -> Result<LayoutRun, String> {
    let mut objects = vec![driver.clone()];
    objects.extend(order.iter().map(|&i| routines[i].clone()));
    let out = omos_link::link(&objects, &omos_link::LinkOptions::program("exp"))
        .map_err(|e| e.to_string())?;
    let frames = ImageFrames::from_image(&out.image);

    let mut clock = SimClock::new();
    let mut fs = InMemFs::new();
    let mut proc = Process::spawn(&frames, &mut clock, &cfg.cost)?;
    proc.vm.tracker = Some(Tracker::new(cfg.locality));
    let run = run_process(
        &mut proc,
        &mut clock,
        &cfg.cost,
        &mut fs,
        &mut NoBinder,
        500_000_000,
    );
    match run.stop {
        StopReason::Exited(_) => Ok(LayoutRun {
            times: clock.times(),
            locality: run.locality.ok_or("tracker missing")?,
        }),
        other => Err(format!("layout run failed: {other:?}")),
    }
}

/// Runs the whole experiment: measure source order, monitor, derive the
/// packed order, measure again.
pub fn run_reorder_experiment(cfg: &ReorderConfig) -> Result<ReorderResult, String> {
    let routines: Vec<ObjectFile> = (0..cfg.n_fns)
        .map(|i| routine_object(i, cfg.body_iters))
        .collect();
    let driver = driver_object(cfg);
    let source_order: Vec<usize> = (0..cfg.n_fns).collect();

    // 1. Baseline layout.
    let before = run_layout(&driver, &routines, &source_order, cfg)?;

    // 2. Monitoring run: OMOS serves the merged program with an audit
    //    policy wrapping every routine, and the run collects the events.
    let server = Omos::new(cfg.cost, Transport::SysVMsg);
    let mut leaves = String::from("/o/driver");
    server.namespace.bind_object("/o/driver", driver.clone());
    for (i, r) in routines.iter().enumerate() {
        let path = format!("/o/r{i}");
        server.namespace.bind_object(&path, r.clone());
        leaves.push(' ');
        leaves.push_str(&path);
    }
    server
        .namespace
        .bind_blueprint("/bin/exp", &format!("(merge {leaves})"))
        .map_err(|e| e.to_string())?;
    let (reply, id_names) = server
        .instantiate_monitored("/bin/exp", "^_r[0-9]+$")
        .map_err(|e| e.to_string())?;
    let frames = &reply.program.frames;
    let mut clock = SimClock::new();
    let mut fs = InMemFs::new();
    let mut proc = Process::spawn(frames, &mut clock, &cfg.cost)?;
    let run = run_process(
        &mut proc,
        &mut clock,
        &cfg.cost,
        &mut fs,
        &mut NoBinder,
        500_000_000,
    );
    if !matches!(run.stop, StopReason::Exited(_)) {
        return Err(format!("monitoring run failed: {:?}", run.stop));
    }

    // 3. Derive the packed order and relink.
    let order_names = derive_order(&run.monitor_events, &id_names);
    let index_of = |name: &str| -> usize {
        name.strip_prefix("_r")
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or_else(|| unreachable!("routine names are _rN"))
    };
    let new_order: Vec<usize> = order_names.iter().map(|n| index_of(n)).collect();
    let after = run_layout(&driver, &routines, &new_order, cfg)?;

    Ok(ReorderResult {
        before,
        after,
        events: run.monitor_events.len(),
        derived_head: order_names.into_iter().take(8).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reordering_reduces_faults_misses_and_time() {
        let cfg = ReorderConfig::small();
        let r = run_reorder_experiment(&cfg).expect("experiment runs");
        assert!(
            r.after.locality.page_faults < r.before.locality.page_faults,
            "packed layout must fault less ({} vs {})",
            r.after.locality.page_faults,
            r.before.locality.page_faults
        );
        assert!(r.after.locality.cache_misses <= r.before.locality.cache_misses);
        assert!(
            r.speedup() > 0.05,
            "reordering should speed the program up measurably, got {:.1}%",
            r.speedup() * 100.0
        );
        // Monitoring saw every hot call.
        let hot = cfg.hot_names().len();
        assert_eq!(r.events as u32, cfg.loops * hot as u32);
        // The derived order leads with hot routines.
        assert!(r.derived_head[0].starts_with("_r"));
    }

    #[test]
    fn derived_order_is_hot_first() {
        let cfg = ReorderConfig::small();
        let r = run_reorder_experiment(&cfg).unwrap();
        let hot = cfg.hot_names();
        for name in &r.derived_head {
            assert!(hot.contains(name), "{name} leads the order but is not hot");
        }
    }
}
