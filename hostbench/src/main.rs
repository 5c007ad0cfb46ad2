//! Host-clock exec benchmark for the OMOS server.
//!
//! Every request is one `omos_core::exec_bootstrap` call against an
//! in-process [`omos_core::Omos`]: namespace lookup, the reply cache or a
//! build, transport billing, and mapping the reply into a process. Three
//! seeded workloads stress different layers (see `README.md`):
//!
//! * `warm_exec` — the Table-1 programs, warmed, two closed-loop clients;
//! * `cold_build` — distinct codegen-shaped programs, each exec'd once;
//! * `churn` — a Zipfian replay over a 10k-program catalog with library
//!   rebinds, a byte-budgeted cost-aware image cache and a spill tier.
//!
//! Usage:
//!
//! ```text
//! hostbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. The measurement runs in
//! four child processes, one after another, each setting up its own
//! server and measuring a quarter of the time; their samples are pooled,
//! and `setup_s` and `peak_rss_mb` are medians over them, so one
//! process's memory layout or a short host disturbance weighs less.
//! `--trace 1` runs in one process: the same loop untraced and then
//! traced, replays each sampled request layer by layer from this
//! package's own code, and prints the per-layer metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod coldgen;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use workloads::Measured;

/// Measuring processes per end-to-end run.
const PROCESSES: u32 = 4;

/// Checked command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
    /// Set in a measuring child process (the internal `--child-ms`
    /// flag carries its share of the run).
    pub child: bool,
}

/// The workloads this benchmark knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmExec,
    ColdBuild,
    Churn,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "warm_exec" => Ok(Workload::WarmExec),
            "cold_build" => Ok(Workload::ColdBuild),
            "churn" => Ok(Workload::Churn),
            other => Err(format!(
                "unknown workload `{other}` (expected warm_exec, cold_build or churn)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmExec => "warm_exec",
            Workload::ColdBuild => "cold_build",
            Workload::Churn => "churn",
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child_ms = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed `{value}`: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds `{value}`: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace `{other}`: expected 0 or 1")),
                });
            }
            "--child-ms" => {
                child_ms = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--child-ms `{value}`: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let run = match (child_ms, seconds) {
        (Some(ms), _) => Duration::from_millis(ms),
        (None, Some(s)) => Duration::from_secs(s),
        (None, None) => return Err("missing --seconds".to_string()),
    };
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        run,
        trace: trace.unwrap_or(false),
        child: child_ms.is_some(),
    })
}

/// A metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload-specific context for the provenance line (sample
    /// counts, sizes); never part of the result object.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (a metric with no samples) are
/// reported as `null` rather than as invalid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The commit of the checkout, when it is a git work tree; read from
/// `.git` directly so no process is spawned.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs the end-to-end measurement in [`PROCESSES`] child processes, one
/// after another, and pools what they measured.
fn measure_in_children(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let share = args.run / PROCESSES;
    let mut parts = Vec::with_capacity(PROCESSES as usize);
    for _ in 0..PROCESSES {
        let out = Command::new(&exe)
            .args([
                "--workload",
                args.workload.name(),
                "--seed",
                &args.seed.to_string(),
                "--child-ms",
                &share.as_millis().to_string(),
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a measuring process: {e}"))?;
        if !out.status.success() {
            return Err(format!("a measuring process failed: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text
            .lines()
            .rev()
            .find(|l| l.starts_with("measured "))
            .ok_or("a measuring process printed no measurement")?;
        parts.push(Measured::from_line(line)?);
    }
    Ok(workloads::end_to_end(parts))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return match workloads::measure(&args) {
            Ok(m) => {
                println!("{}", m.to_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("hostbench: {} failed: {e}", args.workload.name());
                ExitCode::FAILURE
            }
        };
    }
    let result = if args.trace {
        workloads::trace(&args)
    } else {
        measure_in_children(&args)
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut prov = vec![
        format!("\"workload\": {}", json_str(args.workload.name())),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.run.as_secs()),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"nproc\": {nproc}"),
        format!("\"commit\": {}", json_str(&commit())),
        format!("\"profile\": {}", json_str(profile)),
    ];
    for (k, v) in &outcome.notes {
        prov.push(format!("{}: {}", json_str(k), json_str(v)));
    }
    println!("{{\"provenance\": {{{}}}}}", prov.join(", "));

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
