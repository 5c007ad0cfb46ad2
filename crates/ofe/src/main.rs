//! OFE — the Object File Editor.
//!
//! §8.1: "We also have a non-server version of OMOS, called the Object
//! File Editor (OFE). It offers a traditional command interface and
//! manipulates files in the normal Unix file namespace. OFE has proven
//! very useful for manipulating object files in a traditional
//! environment."
//!
//! ```text
//! ofe info FILE                     headers, sections, counts
//! ofe nm FILE                      symbol table
//! ofe size FILE                    text/data/bss sizes
//! ofe strings FILE                 printable strings in data sections
//! ofe dis FILE                     disassemble text sections
//! ofe asm IN.s OUT.o               assemble U32 source
//! ofe convert FORMAT IN OUT        re-encode (aout|som)
//! ofe merge OUT IN...              strict Jigsaw merge
//! ofe override OUT BASE OVERLAY    merge, overlay wins conflicts
//! ofe rename RE REPL IN OUT        rename defs+refs (also: rename-refs,
//!                                  rename-defs)
//! ofe hide RE IN OUT               and: show, restrict, project, freeze
//! ofe copy-as RE REPL IN OUT       duplicate definitions (also: copy_as)
//! ofe lint [--jobs N] [--format json|text] BLUEPRINT...
//!                                  static analysis, no linking; operand
//!                                  paths resolve as files relative to
//!                                  each blueprint's directory; with
//!                                  several files, `--jobs N` lints them
//!                                  on N worker threads (reports stay in
//!                                  input order); `--format json` emits
//!                                  one JSON array of findings. Exit 0:
//!                                  clean, 1: findings reported (stdout),
//!                                  2: operational error (stderr)
//! ofe explain BLUEPRINT [BLUEPRINT2|CKPTDIR]
//!                                  derive the blueprint's resolution
//!                                  manifest statically (no link) and
//!                                  render it; with a second blueprint,
//!                                  diff the two resolutions (the
//!                                  changed-binding set); with a
//!                                  checkpoint directory, compare the
//!                                  fresh derivation against the
//!                                  manifest the checkpoint stored
//! ofe trace [--eval-jobs N] BLUEPRINT [--chrome OUT.json]
//!                                  instantiate the blueprint on an
//!                                  in-process server and print the
//!                                  request's span tree; --eval-jobs N
//!                                  reports the critical path on N
//!                                  simulated lanes (the tree is the
//!                                  same at every N); --chrome
//!                                  also writes a Chrome-trace export
//! ofe stats [FILE]                 per-stage latency percentiles and
//!                                  trace counters from an mcbench
//!                                  report (default BENCH_CONCURRENCY.json)
//! ofe catalog [--programs N] [--libraries M] [--seed S] [--sample K]
//!                                  generate the seeded synthetic
//!                                  program catalog (the catalog_bench
//!                                  universe) and print its shape:
//!                                  pool size distribution, library
//!                                  fan-in, and K sample program
//!                                  blueprints
//! ofe checkpoint BLUEPRINT OUTDIR  instantiate the blueprint on an
//!                                  in-process server, checkpoint the
//!                                  server's durable state, and export
//!                                  the checkpoint files under OUTDIR
//! ofe restore DIR [BLUEPRINT]      rebuild a server from a checkpoint
//!                                  directory and report what survived
//!                                  verification; with a blueprint,
//!                                  also serve one request from the
//!                                  restored caches
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use omos_analysis::{analyze_blueprint, Diagnostic, LintContext, LintResolved};
use omos_blueprint::Blueprint;
use omos_core::json::Json;
use omos_isa::{assemble, Inst, INST_BYTES};
use omos_module::Module;
use omos_obj::encode::{read_any, write, Format};
use omos_obj::view::ViewKind;
use omos_obj::{ObjectFile, SectionKind, SymbolBinding, SymbolDef};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            if !output.is_empty() {
                print!("{output}");
            }
            ExitCode::SUCCESS
        }
        Err(CmdError::Findings(report)) => {
            // Lint findings are the command's *product*: they print to
            // stdout, and exit 1 tells scripts findings exist without
            // conflating them with a broken invocation (exit 2).
            print!("{report}");
            ExitCode::from(1)
        }
        Err(CmdError::Failure { message, code }) => {
            eprintln!("ofe: {message}");
            ExitCode::from(code)
        }
    }
}

/// How a command failed. `Findings` is `lint`'s "analysis ran and
/// reported findings" outcome — the report belongs on stdout and the
/// process exits 1. `Failure` is an operational error (bad invocation,
/// unreadable file): the message goes to stderr, and the exit code is
/// 2 for `lint` (which reserves 1 for findings) and 1 elsewhere.
#[derive(Debug)]
pub enum CmdError {
    Findings(String),
    Failure { message: String, code: u8 },
}

impl CmdError {
    fn failure(message: String) -> Self {
        CmdError::Failure { message, code: 1 }
    }

    /// The report or message text.
    pub fn text(&self) -> &str {
        match self {
            CmdError::Findings(t) => t,
            CmdError::Failure { message, .. } => message,
        }
    }

    /// The process exit code this failure maps to.
    pub fn code(&self) -> u8 {
        match self {
            CmdError::Findings(_) => 1,
            CmdError::Failure { code, .. } => *code,
        }
    }
}

const USAGE: &str = "usage: ofe <info|nm|size|strings|dis|asm|convert|merge|override|rename|rename-refs|rename-defs|hide|show|restrict|project|freeze|copy-as|lint|explain|relink|trace|stats|catalog|checkpoint|restore> ...";

/// Executes one OFE command; returns the text to print.
pub fn run(args: &[String]) -> Result<String, CmdError> {
    let cmd = args
        .first()
        .ok_or_else(|| CmdError::failure(USAGE.to_string()))?;
    let rest = &args[1..];
    match cmd.as_str() {
        "lint" => lint_cmd(rest),
        _ => run_basic(cmd, rest).map_err(CmdError::failure),
    }
}

/// Every command except `lint` (whose exit-code contract needs the
/// richer [`CmdError`]).
fn run_basic(cmd: &str, rest: &[String]) -> Result<String, String> {
    if let Some(kind) = ViewKind::from_name(cmd) {
        return view_cmd(cmd, kind, rest);
    }
    match cmd {
        "info" => one_file(rest).map(|o| info(&o)),
        "nm" => one_file(rest).map(|o| nm(&o)),
        "size" => one_file(rest).map(|o| size(&o)),
        "strings" => one_file(rest).map(|o| strings(&o)),
        "dis" => one_file(rest).map(|o| dis(&o)),
        "asm" => {
            let [input, output] = two(rest)?;
            let src = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
            let obj = assemble(output, &src).map_err(|e| format!("{input}: {e}"))?;
            save(&obj, output, Format::Aout)?;
            Ok(String::new())
        }
        "convert" => {
            let [fmt, input, output] = three(rest)?;
            let format = Format::parse(fmt).map_err(|e| e.to_string())?;
            let obj = load(input)?;
            save(&obj, output, format)?;
            Ok(String::new())
        }
        "merge" | "override" => {
            if rest.len() < 3 {
                return Err(format!("{cmd} OUT IN IN..."));
            }
            let output = &rest[0];
            let inputs: Vec<Module> = rest[1..]
                .iter()
                .map(|p| load(p).map(Module::from_object))
                .collect::<Result<_, _>>()?;
            let merged = if cmd == "merge" {
                Module::merge_all(&inputs).map_err(|e| e.to_string())?
            } else {
                let [base, overlay] = <[Module; 2]>::try_from(inputs)
                    .map_err(|_| "override takes exactly BASE and OVERLAY".to_string())?;
                base.override_with(overlay).map_err(|e| e.to_string())?
            };
            save(
                &merged.into_object().map_err(|e| e.to_string())?,
                output,
                Format::Aout,
            )?;
            Ok(String::new())
        }
        "explain" => match rest {
            [file] => explain_cmd(file, None),
            [file, second] => explain_cmd(file, Some(second)),
            _ => Err("explain BLUEPRINT [BLUEPRINT2|CKPTDIR]".into()),
        },
        "relink" => match rest {
            [before, after] => relink_cmd(before, after, false),
            [before, after, flag] if flag == "--explain" => relink_cmd(before, after, true),
            _ => Err("relink BLUEPRINT BLUEPRINT2 [--explain]".into()),
        },
        "trace" => {
            let (transport, rest) = parse_flagged_transport(rest, "trace")?;
            let (jobs, rest) = parse_flagged_jobs(rest, "--eval-jobs", "trace")?;
            match rest {
                [file] => trace_blueprint(file, jobs, None, transport),
                [file, flag, out] if flag == "--chrome" => {
                    trace_blueprint(file, jobs, Some(out), transport)
                }
                _ => Err(
                    "trace [--transport NAME] [--eval-jobs N] BLUEPRINT [--chrome OUT.json]".into(),
                ),
            }
        }
        "stats" => match rest {
            [] => stats_report("BENCH_CONCURRENCY.json"),
            [file] => stats_report(file),
            _ => Err("stats [FILE]".into()),
        },
        "catalog" => catalog_cmd(rest),
        "checkpoint" => {
            let (transport, rest) = parse_flagged_transport(rest, "checkpoint")?;
            match rest {
                [file, outdir] => checkpoint_blueprint(file, outdir, transport),
                _ => Err("checkpoint [--transport NAME] BLUEPRINT OUTDIR".into()),
            }
        }
        "restore" => {
            let (transport, rest) = parse_flagged_transport(rest, "restore")?;
            match rest {
                [dir] => restore_dir(dir, None, transport),
                [dir, file] => restore_dir(dir, Some(file), transport),
                _ => Err("restore [--transport NAME] DIR [BLUEPRINT]".into()),
            }
        }
        _ => Err(USAGE.to_string()),
    }
}

/// The view operators: `ofe OP PATTERN [REPLACEMENT] IN OUT`.
fn view_cmd(cmd: &str, kind: ViewKind, rest: &[String]) -> Result<String, String> {
    let takes_replacement = kind.takes_replacement();
    let arity = if takes_replacement { 4 } else { 3 };
    if rest.len() != arity {
        let shape = if takes_replacement {
            "PATTERN REPLACEMENT IN OUT"
        } else {
            "PATTERN IN OUT"
        };
        return Err(format!("{cmd} {shape}"));
    }
    let replacement = if takes_replacement { &rest[1] } else { "" };
    let (input, output) = (&rest[arity - 2], &rest[arity - 1]);
    let m = Module::from_object(load(input)?)
        .apply_view(kind, &rest[0], replacement)
        .map_err(|e| e.to_string())?;
    save(
        &m.into_object().map_err(|e| e.to_string())?,
        output,
        Format::Aout,
    )?;
    Ok(String::new())
}

/// `ofe trace`: binds the blueprint's operand files into a fresh
/// in-process server, instantiates it once, and prints the request's
/// span tree. The client-side mapping cost is recorded against the same
/// request, so the tree covers the full instantiate path: eval, link,
/// placement, framing, and map. With `jobs > 1` the header also gives
/// the request's critical path on that many simulated lanes; the tree
/// is the same at every lane count.
fn trace_blueprint(
    file: &str,
    jobs: usize,
    chrome_out: Option<&str>,
    transport: omos_os::Transport,
) -> Result<String, String> {
    use omos_core::trace::{chrome_json, render_tree, Stage};
    use omos_core::Omos;
    use omos_os::CostModel;

    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let bp = Blueprint::parse(&src).map_err(|e| format!("{file}: {e}"))?;
    let base = std::path::Path::new(file)
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."))
        .to_path_buf();

    let cost = CostModel::hpux();
    let server = Omos::new(cost, transport);
    server.set_eval_jobs(jobs);
    let mut seen = std::collections::BTreeSet::new();
    bind_operands(&server, &base, &bp.root, &mut seen)?;

    let reply = server
        .instantiate_blueprint(&bp)
        .map_err(|e| format!("{file}: {e}"))?;
    server
        .tracer()
        .client_span(reply.req, Stage::Map, cost.map_cost_ns(reply.total_pages()));

    let snap = server.trace_snapshot();
    let spans = snap.request_spans(reply.req);
    if let Some(out) = chrome_out {
        std::fs::write(out, chrome_json(&spans)).map_err(|e| format!("{out}: {e}"))?;
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "request {} ({}, server {} ns{}, {} pages, transport {})",
        reply.req,
        if reply.cache_hit {
            "cache hit"
        } else {
            "built"
        },
        reply.server_ns,
        if jobs > 1 {
            format!(", critical path {} ns at {jobs} jobs", reply.latency_ns)
        } else {
            String::new()
        },
        reply.total_pages(),
        transport.name(),
    );
    report.push_str(&render_tree(&spans));
    Ok(report)
}

/// Resolves the blueprint's leaf operands as files (verbatim path, then
/// relative to the blueprint's directory) and binds them into the
/// server namespace under their blueprint-visible names. Files that
/// parse as blueprints bind as meta-objects and their own operands are
/// resolved recursively.
fn bind_operands(
    server: &omos_core::Omos,
    base: &std::path::Path,
    node: &omos_blueprint::MNode,
    seen: &mut std::collections::BTreeSet<String>,
) -> Result<(), String> {
    let mut leaves = Vec::new();
    collect_leaves(node, &mut leaves);
    for path in leaves {
        if !seen.insert(path.clone()) {
            continue;
        }
        let candidates = [
            std::path::PathBuf::from(&path),
            base.join(path.trim_start_matches('/')),
        ];
        let Some(bytes) = candidates.iter().find_map(|p| std::fs::read(p).ok()) else {
            return Err(format!("{path}: operand file not found"));
        };
        if let Ok(obj) = read_any(&bytes) {
            server.namespace.bind_object(&path, obj);
            continue;
        }
        let text = String::from_utf8(bytes).map_err(|_| format!("{path}: not object or text"))?;
        let nested = Blueprint::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        bind_operands(server, base, &nested.root, seen)?;
        server
            .namespace
            .bind_blueprint(&path, &text)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Collects every `Leaf` path in an m-graph, depth first.
fn collect_leaves(node: &omos_blueprint::MNode, out: &mut Vec<String>) {
    match node {
        omos_blueprint::MNode::Leaf(p) => out.push(p.clone()),
        _ => node.operands().for_each(|n| collect_leaves(n, out)),
    }
}

/// Where checkpoints live on the simulated disk while `ofe` shuttles
/// them to and from the real filesystem.
const CKPT_DIR: &str = "/omos/ckpt";

/// `ofe checkpoint`: binds the blueprint's operand files into a fresh
/// in-process server (exactly as `ofe trace` does), instantiates it
/// once so the image and reply caches are warm, checkpoints the
/// server's durable state onto a simulated disk, and exports the
/// checkpoint files under `outdir` in the real filesystem. The
/// directory round-trips through `ofe restore`.
fn checkpoint_blueprint(
    file: &str,
    outdir: &str,
    transport: omos_os::Transport,
) -> Result<String, String> {
    use omos_core::Omos;
    use omos_os::{CostModel, InMemFs, SimClock};

    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let bp = Blueprint::parse(&src).map_err(|e| format!("{file}: {e}"))?;
    let base = std::path::Path::new(file)
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."))
        .to_path_buf();

    let server = Omos::new(CostModel::hpux(), transport);
    let mut seen = std::collections::BTreeSet::new();
    bind_operands(&server, &base, &bp.root, &mut seen)?;
    let reply = server
        .instantiate_blueprint(&bp)
        .map_err(|e| format!("{file}: {e}"))?;

    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let rep = server
        .checkpoint(&mut fs, &mut clock, CKPT_DIR)
        .map_err(|e| format!("checkpoint: {e}"))?;
    let exported = export_tree(&mut fs, &mut clock, CKPT_DIR, std::path::Path::new(outdir))?;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "checkpoint seq {}: {} bindings, {} images, {} replies \
         ({} bytes, modeled {} ns sync writes)",
        rep.seq, rep.ns_entries, rep.images, rep.replies, rep.bytes_written, clock.elapsed_ns,
    );
    let _ = writeln!(
        report,
        "request {} ({}, server {} ns); exported {exported} files to {outdir}",
        reply.req,
        if reply.cache_hit {
            "cache hit"
        } else {
            "built"
        },
        reply.server_ns,
    );
    Ok(report)
}

/// `ofe restore`: imports every file under `dir` onto a simulated
/// disk, rebuilds a server from the checkpoint, and reports what
/// survived verification. Damaged artifacts are dropped, never fatal —
/// the restored server relinks them on demand. With a blueprint, one
/// request is served so the caller can see whether the restored reply
/// cache answered it.
fn restore_dir(
    dir: &str,
    blueprint: Option<&String>,
    transport: omos_os::Transport,
) -> Result<String, String> {
    use omos_core::Omos;
    use omos_os::{CostModel, InMemFs, SimClock};

    let cost = CostModel::hpux();
    let mut fs = InMemFs::new();
    let mut clock = SimClock::new();
    let imported = import_tree(
        &mut fs,
        &mut clock,
        &cost,
        CKPT_DIR,
        std::path::Path::new(dir),
    )?;
    if imported == 0 {
        return Err(format!("{dir}: no checkpoint files"));
    }
    let (server, rr) = Omos::restore(cost, transport, &mut fs, &mut clock, CKPT_DIR);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "restored {imported} files: {} bindings, {} images, {} replies \
         ({} manifest-verified), {} journal records, {} dropped{}{}",
        rr.ns_entries,
        rr.images,
        rr.replies,
        rr.manifest_verified,
        rr.journal_records,
        rr.dropped,
        if rr.cold { " (cold start)" } else { "" },
        match rr.checkpoint_transport {
            Some(t) if t != transport => {
                format!(
                    " (checkpoint taken under {}, serving {})",
                    t.name(),
                    transport.name()
                )
            }
            _ => String::new(),
        },
    );
    if let Some(file) = blueprint {
        let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let bp = Blueprint::parse(&src).map_err(|e| format!("{file}: {e}"))?;
        let reply = server
            .instantiate_blueprint(&bp)
            .map_err(|e| format!("{file}: {e}"))?;
        let _ = writeln!(
            report,
            "request {} ({}, server {} ns, {} pages)",
            reply.req,
            if reply.cache_hit {
                "cache hit"
            } else {
                "built"
            },
            reply.server_ns,
            reply.total_pages(),
        );
    }
    Ok(report)
}

/// Copies a simulated directory tree out to the real filesystem.
fn export_tree(
    fs: &mut omos_os::InMemFs,
    clock: &mut omos_os::SimClock,
    dir: &str,
    out: &std::path::Path,
) -> Result<usize, String> {
    let cost = omos_os::CostModel::hpux();
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let entries = fs
        .list_dir(dir, clock, &cost)
        .map_err(|e| format!("{dir}: {e}"))?;
    let mut n = 0;
    for (name, stat) in entries {
        let sim = format!("{dir}/{name}");
        let real = out.join(&name);
        if stat.mode == 1 {
            n += export_tree(fs, clock, &sim, &real)?;
        } else {
            let bytes = fs.peek(&sim).map_err(|e| format!("{sim}: {e}"))?.to_vec();
            std::fs::write(&real, bytes).map_err(|e| format!("{}: {e}", real.display()))?;
            n += 1;
        }
    }
    Ok(n)
}

/// Copies a real directory tree onto the simulated disk.
fn import_tree(
    fs: &mut omos_os::InMemFs,
    clock: &mut omos_os::SimClock,
    cost: &omos_os::CostModel,
    dir: &str,
    src: &std::path::Path,
) -> Result<usize, String> {
    let entries = std::fs::read_dir(src).map_err(|e| format!("{}: {e}", src.display()))?;
    let mut n = 0;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", src.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let sim = format!("{dir}/{name}");
        let path = entry.path();
        if path.is_dir() {
            n += import_tree(fs, clock, cost, &sim, &path)?;
        } else {
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            fs.write(&sim, &bytes, clock, cost)
                .map_err(|e| format!("{sim}: {e}"))?;
            n += 1;
        }
    }
    Ok(n)
}

/// `ofe stats`: reads an mcbench report and renders the per-stage
/// latency percentiles and trace counters it embeds.
fn stats_report(file: &str) -> Result<String, String> {
    use omos_core::json;

    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
    let trace = doc.get("trace").ok_or_else(|| {
        format!("{file}: no \"trace\" section — rerun mcbench with tracing enabled")
    })?;
    let stages = trace
        .get("stages")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{file}: \"trace.stages\" missing or not an array"))?;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:>10} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "stage", "count", "p50_ns", "p95_ns", "p99_ns", "mean_ns"
    );
    let num =
        |v: &Json, key: &str| -> u64 { v.get(key).and_then(Json::as_num).unwrap_or(0.0) as u64 };
    for s in stages {
        let _ = writeln!(
            report,
            "{:>10} {:>9} {:>12} {:>12} {:>12} {:>12}",
            s.get("stage").and_then(Json::as_str).unwrap_or("?"),
            num(s, "count"),
            num(s, "p50_ns"),
            num(s, "p95_ns"),
            num(s, "p99_ns"),
            num(s, "mean_ns"),
        );
    }
    if let Some(Json::Obj(counters)) = trace.get("counters") {
        let _ = writeln!(report);
        for (name, v) in counters {
            let _ = writeln!(report, "{:>24} {}", name, v.as_num().unwrap_or(0.0) as u64);
        }
    }
    Ok(report)
}

/// `ofe catalog`: generates the seeded synthetic program catalog that
/// `catalog_bench` replays (same generator, same defaults) and renders
/// its shape — the long-tail library pool, per-library fan-in, and a
/// few sample program blueprints — so the benchmark universe can be
/// inspected without running the benchmark.
fn catalog_cmd(rest: &[String]) -> Result<String, String> {
    use omos_bench::catalog::{lib_path, program_path, Catalog, CatalogSpec};

    let mut spec = CatalogSpec::small();
    let mut sample = 3usize;
    let mut args = rest.iter();
    while let Some(flag) = args.next() {
        let value = |v: Option<&String>| -> Result<u64, String> {
            v.ok_or(format!("catalog: {flag} needs a value"))?
                .parse::<u64>()
                .map_err(|_| format!("catalog: {flag} needs a number"))
        };
        match flag.as_str() {
            "--programs" => spec.programs = value(args.next())?.max(1) as usize,
            "--libraries" => spec.libraries = value(args.next())?.max(1) as usize,
            "--seed" => spec.seed = value(args.next())?,
            "--sample" => sample = value(args.next())? as usize,
            _ => {
                return Err("catalog [--programs N] [--libraries M] [--seed S] [--sample K]".into())
            }
        }
    }
    spec.libs_per_program.1 = spec.libs_per_program.1.min(spec.libraries);
    spec.libs_per_program.0 = spec.libs_per_program.0.min(spec.libs_per_program.1);
    let catalog = Catalog::generate(spec);

    let mut sizes = catalog.lib_sizes.clone();
    sizes.sort_unstable();
    let mut fan_in = vec![0usize; spec.libraries];
    for libs in &catalog.program_libs {
        for &i in libs {
            fan_in[i] += 1;
        }
    }
    let mut ranked: Vec<(usize, usize)> = fan_in.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "catalog: {} programs over {} libraries (seed {})",
        spec.programs, spec.libraries, spec.seed
    );
    let _ = writeln!(
        out,
        "library pool: {} text bytes; sizes min/median/max = {}/{}/{}",
        catalog.pool_bytes(),
        sizes.first().copied().unwrap_or(0),
        sizes.get(sizes.len() / 2).copied().unwrap_or(0),
        sizes.last().copied().unwrap_or(0),
    );
    let _ = writeln!(
        out,
        "libs per program: {}..={}",
        spec.libs_per_program.0, spec.libs_per_program.1
    );
    let _ = writeln!(out, "top libraries by fan-in:");
    for &(i, n) in ranked.iter().take(8) {
        let _ = writeln!(
            out,
            "  {:<16} {:>6} programs {:>8} bytes",
            lib_path(i),
            n,
            catalog.lib_sizes[i]
        );
    }
    if sample > 0 {
        let _ = writeln!(out, "sample programs:");
        for j in 0..sample.min(spec.programs) {
            let merged: String = catalog.program_libs[j]
                .iter()
                .map(|&i| format!(" {}", lib_path(i)))
                .collect();
            let _ = writeln!(
                out,
                "  {} = (merge /cat/obj/p{j}.o{merged})",
                program_path(j)
            );
        }
    }
    Ok(out)
}

/// `ofe lint`: parses each blueprint and runs the pre-link static
/// analyzer over it, resolving operand paths in the Unix filesystem.
/// Exit contract: 0 when every file is clean, 1 when findings were
/// reported (the report prints to stdout), 2 when the invocation
/// itself failed (bad flags, unreadable file, unparseable blueprint).
fn lint_cmd(rest: &[String]) -> Result<String, CmdError> {
    let oper = |message: String| CmdError::Failure { message, code: 2 };
    let (jobs, json, files) = parse_lint_flags(rest).map_err(oper)?;
    if files.is_empty() {
        return Err(oper(
            "lint [--jobs N] [--format json|text] BLUEPRINT...".into(),
        ));
    }
    let mut report = String::new();
    let mut json_findings = Vec::new();
    let mut findings = 0usize;
    for (file, result) in files.iter().zip(lint_files(files, jobs)) {
        let (src, diags) = result.map_err(oper)?;
        for d in &diags {
            if json {
                json_findings.push(json_finding(file, &src, d));
            } else {
                report.push_str(&text_finding(file, &src, d));
            }
            findings += 1;
        }
    }
    if json {
        report = Json::Arr(json_findings).render();
    } else if findings > 0 {
        let _ = writeln!(
            report,
            "{findings} finding{}",
            if findings == 1 { "" } else { "s" }
        );
    }
    if findings > 0 {
        Err(CmdError::Findings(report))
    } else {
        Ok(report)
    }
}

/// Lints one blueprint; `Err` is operational (unreadable file or
/// unparseable source) — findings are data, not errors.
fn lint_file(file: &str) -> Result<(String, Vec<Diagnostic>), String> {
    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let bp = Blueprint::parse(&src).map_err(|e| format!("{file}: {e}"))?;
    let base = std::path::Path::new(file)
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."))
        .to_path_buf();
    let mut ctx = FsLintCtx { base };
    let diags = analyze_blueprint(&bp, &mut ctx);
    Ok((src, diags))
}

/// Lints the files on up to `jobs` worker threads. Files are claimed
/// from a shared index (cheap work stealing), but results return in
/// input order so reports stay deterministic.
fn lint_files(files: &[String], jobs: usize) -> Vec<Result<(String, Vec<Diagnostic>), String>> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    type Slot = Mutex<Option<Result<(String, Vec<Diagnostic>), String>>>;
    let jobs = jobs.min(files.len());
    let next = AtomicUsize::new(0);
    let results: Vec<Slot> = files.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(file) = files.get(i) else { break };
                let r = lint_file(file);
                *results[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every file was linted")
        })
        .collect()
}

/// One finding as a `file:line:col: severity[CODE]: message` line.
fn text_finding(file: &str, src: &str, d: &Diagnostic) -> String {
    match d.span {
        Some(s) => {
            let (line, col) = s.line_col(src);
            format!(
                "{file}:{line}:{col}: {}[{}]: {}\n",
                d.severity, d.code, d.message
            )
        }
        None => format!("{file}: {}[{}]: {}\n", d.severity, d.code, d.message),
    }
}

/// One finding as a JSON object (`line`/`col` only when the span is
/// known).
fn json_finding(file: &str, src: &str, d: &Diagnostic) -> Json {
    let mut members = vec![("file", Json::from(file))];
    if let Some(span) = d.span {
        let (line, col) = span.line_col(src);
        members.extend([("line", line.into()), ("col", col.into())]);
    }
    members.extend([
        ("severity", d.severity.to_string().into()),
        ("code", d.code.into()),
        ("message", d.message.as_str().into()),
    ]);
    Json::obj(members)
}

/// Splits leading `--jobs N` / `--format json|text` flags off the lint
/// argument list.
fn parse_lint_flags(rest: &[String]) -> Result<(usize, bool, &[String]), String> {
    let mut jobs = 1usize;
    let mut json = false;
    let mut rest = rest;
    loop {
        match rest.first().map(String::as_str) {
            Some("--jobs") => {
                jobs = rest
                    .get(1)
                    .ok_or_else(|| "lint --jobs N ...".to_string())?
                    .parse::<usize>()
                    .map_err(|_| "lint --jobs N: N must be a positive number".to_string())?
                    .max(1);
                rest = &rest[2..];
            }
            Some("--format") => {
                json = match rest.get(1).map(String::as_str) {
                    Some("json") => true,
                    Some("text") => false,
                    _ => return Err("lint --format <json|text>".into()),
                };
                rest = &rest[2..];
            }
            _ => return Ok((jobs, json, rest)),
        }
    }
}

/// Splits a leading `--transport NAME` off the argument list; absent,
/// the transport comes from `OMOS_TRANSPORT`, defaulting to the
/// paper's SysV messages. Accepts all five names: `mach-ipc`,
/// `sysv-msg`, `sun-rpc`, `pipelined`, `shm-ring`.
fn parse_flagged_transport<'a>(
    rest: &'a [String],
    cmd: &str,
) -> Result<(omos_os::Transport, &'a [String]), String> {
    use omos_os::Transport;
    if rest.first().map(String::as_str) == Some("--transport") {
        let name = rest.get(1).ok_or(format!("{cmd} --transport NAME ..."))?;
        let t = Transport::from_name(name).ok_or_else(|| {
            format!(
                "{cmd} --transport {name}: unknown transport (expected one of {})",
                Transport::ALL
                    .iter()
                    .map(|t| t.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        Ok((t, &rest[2..]))
    } else {
        Ok((Transport::from_env(Transport::SysVMsg), rest))
    }
}

/// Splits a leading `FLAG N` worker count off the argument list;
/// absent, the count is 1.
fn parse_flagged_jobs<'a>(
    rest: &'a [String],
    flag: &str,
    cmd: &str,
) -> Result<(usize, &'a [String]), String> {
    if rest.first().map(String::as_str) == Some(flag) {
        let n = rest
            .get(1)
            .ok_or(format!("{cmd} {flag} N ..."))?
            .parse::<usize>()
            .map_err(|_| format!("{cmd} {flag} N: N must be a positive number"))?;
        Ok((n.max(1), &rest[2..]))
    } else {
        Ok((1, rest))
    }
}

/// `ofe explain`: derives the blueprint's canonical resolution
/// manifest *statically* — the m-graph is evaluated through the view
/// algebra, placement is replayed against solver state, and export
/// addresses come from the linker's layout pass; no link executes and
/// no image bytes are produced. With a second blueprint, each is
/// derived on its own in-process server and the diff names the minimal
/// set of changed bindings. With a checkpoint directory, the fresh
/// derivation is compared against the manifest the checkpoint stored
/// for the same blueprint.
fn explain_cmd(file: &str, second: Option<&String>) -> Result<String, String> {
    use omos_analysis::manifest::diff;

    let first = derive_from_file(file)?;
    let Some(second) = second else {
        return Ok(first.render());
    };
    if std::path::Path::new(second.as_str()).is_dir() {
        use omos_os::{CostModel, InMemFs, SimClock};
        let cost = CostModel::hpux();
        let mut fs = InMemFs::new();
        let mut clock = SimClock::new();
        let imported = import_tree(
            &mut fs,
            &mut clock,
            &cost,
            CKPT_DIR,
            std::path::Path::new(second.as_str()),
        )?;
        if imported == 0 {
            return Err(format!("{second}: no checkpoint files"));
        }
        let stored = omos_core::stored_manifests(&mut fs, &mut clock, &cost, CKPT_DIR)
            .into_iter()
            .find(|m| m.root == first.root)
            .ok_or_else(|| format!("{second}: checkpoint stores no manifest for this blueprint"))?;
        let mut out = format!(
            "checkpoint {:016x} -> derived {:016x}\n",
            stored.hash().0,
            first.hash().0
        );
        out.push_str(&diff(&stored, &first).render());
        Ok(out)
    } else {
        let after = derive_from_file(second)?;
        let mut out = format!(
            "before {:016x} -> after {:016x}\n",
            first.hash().0,
            after.hash().0
        );
        out.push_str(&diff(&first, &after).render());
        Ok(out)
    }
}

/// `ofe relink BEFORE AFTER [--explain]`: derives both blueprints'
/// manifests statically, plans the relink a rebind from BEFORE to AFTER
/// calls for, and prints which library images a warm server's rebuild
/// finds in its image cache by key versus links. `--explain`
/// appends the underlying manifest diff (the dirty-symbol evidence).
fn relink_cmd(before: &str, after: &str, explain: bool) -> Result<String, String> {
    use omos_analysis::manifest::diff;
    use omos_analysis::relink::plan_relink;

    let b = derive_from_file(before)?;
    let a = derive_from_file(after)?;
    let plan = plan_relink(&b, &a);
    let mut out = format!("before {:016x} -> after {:016x}\n", b.hash().0, a.hash().0);
    out.push_str(&plan.render());
    if explain {
        out.push_str("\nmanifest diff:\n");
        out.push_str(&diff(&b, &a).render());
    }
    Ok(out)
}

/// Parses a blueprint file, binds its operand files into a fresh
/// in-process server (exactly as `ofe trace` does), and derives its
/// resolution manifest statically.
fn derive_from_file(file: &str) -> Result<omos_analysis::manifest::ResolutionManifest, String> {
    use omos_core::Omos;
    use omos_os::ipc::Transport;
    use omos_os::CostModel;

    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let bp = Blueprint::parse(&src).map_err(|e| format!("{file}: {e}"))?;
    let base = std::path::Path::new(file)
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."))
        .to_path_buf();
    let server = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    let mut seen = std::collections::BTreeSet::new();
    bind_operands(&server, &base, &bp.root, &mut seen)?;
    server
        .explain_blueprint(&bp)
        .map_err(|e| format!("{file}: {e}"))
}

/// [`LintContext`] over the Unix filesystem: a leaf path is tried
/// verbatim, then relative to the blueprint's directory (with the OMOS
/// namespace's leading `/` stripped). Object files are recognized by
/// their encoding; anything else that parses as a blueprint is a
/// meta-object.
struct FsLintCtx {
    base: std::path::PathBuf,
}

impl LintContext for FsLintCtx {
    fn resolve(&mut self, path: &str) -> LintResolved {
        let candidates = [
            std::path::PathBuf::from(path),
            self.base.join(path.trim_start_matches('/')),
        ];
        for p in candidates {
            let Ok(bytes) = std::fs::read(&p) else {
                continue;
            };
            if let Ok(obj) = read_any(&bytes) {
                return LintResolved::Object(Arc::new(obj));
            }
            if let Ok(text) = String::from_utf8(bytes) {
                if let Ok(bp) = Blueprint::parse(&text) {
                    return LintResolved::Meta(bp);
                }
            }
            return LintResolved::Missing;
        }
        LintResolved::Missing
    }
}

fn one_file(rest: &[String]) -> Result<ObjectFile, String> {
    match rest {
        [path] => load(path),
        _ => Err("expected exactly one FILE".into()),
    }
}

fn two(rest: &[String]) -> Result<[&String; 2], String> {
    match rest {
        [a, b] => Ok([a, b]),
        _ => Err("expected IN OUT".into()),
    }
}

fn three(rest: &[String]) -> Result<[&String; 3], String> {
    match rest {
        [a, b, c] => Ok([a, b, c]),
        _ => Err("expected FORMAT IN OUT".into()),
    }
}

fn load(path: &str) -> Result<ObjectFile, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    read_any(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn save(obj: &ObjectFile, path: &str, format: Format) -> Result<(), String> {
    std::fs::write(path, write(format, obj)).map_err(|e| format!("{path}: {e}"))
}

fn info(o: &ObjectFile) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "name: {}", o.name);
    let _ = writeln!(
        s,
        "sections: {}  symbols: {}  relocations: {}",
        o.sections.len(),
        o.symbols.len(),
        o.relocs.len()
    );
    for sec in &o.sections {
        let _ = writeln!(
            s,
            "  {:<10} {:>8} bytes  align {:<4} {:?}",
            sec.name, sec.size, sec.align, sec.kind
        );
    }
    s
}

fn nm(o: &ObjectFile) -> String {
    let mut s = String::new();
    for sym in o.symbols.iter() {
        let kind = match (&sym.def, sym.binding) {
            (SymbolDef::Undefined, _) => "U",
            (SymbolDef::Common { .. }, _) => "C",
            (SymbolDef::Absolute { .. }, _) => "A",
            (SymbolDef::Defined { section, .. }, b) => {
                let upper = match o.sections.get(*section).map(|x| x.kind) {
                    Some(SectionKind::Text) => "T",
                    Some(SectionKind::Data) => "D",
                    Some(SectionKind::RoData) => "R",
                    Some(SectionKind::Bss) => "B",
                    None => "?",
                };
                if b == SymbolBinding::Local {
                    // Locals print lowercase, like Unix nm.
                    match upper {
                        "T" => "t",
                        "D" => "d",
                        "R" => "r",
                        "B" => "b",
                        _ => "?",
                    }
                } else {
                    upper
                }
            }
        };
        let addr = match sym.def {
            SymbolDef::Defined { offset, .. } => format!("{offset:08x}"),
            SymbolDef::Absolute { value } => format!("{value:08x}"),
            SymbolDef::Common { size } => format!("{size:08x}"),
            SymbolDef::Undefined => "        ".to_string(),
        };
        let _ = writeln!(s, "{addr} {kind} {}", sym.name);
    }
    s
}

fn size(o: &ObjectFile) -> String {
    let text = o.size_of_kind(SectionKind::Text) + o.size_of_kind(SectionKind::RoData);
    let data = o.size_of_kind(SectionKind::Data);
    let bss = o.size_of_kind(SectionKind::Bss);
    format!(
        "text\tdata\tbss\ttotal\n{text}\t{data}\t{bss}\t{}\n",
        text + data + bss
    )
}

fn strings(o: &ObjectFile) -> String {
    let mut s = String::new();
    for sec in &o.sections {
        if sec.kind == SectionKind::Text {
            continue;
        }
        let mut cur = String::new();
        for &b in sec.bytes.iter().chain(std::iter::once(&0)) {
            if (0x20..0x7f).contains(&b) {
                cur.push(b as char);
            } else {
                if cur.len() >= 4 {
                    let _ = writeln!(s, "{cur}");
                }
                cur.clear();
            }
        }
    }
    s
}

fn dis(o: &ObjectFile) -> String {
    let mut s = String::new();
    for (si, sec) in o.sections.iter().enumerate() {
        if sec.kind != SectionKind::Text || sec.bytes.is_empty() {
            continue;
        }
        let _ = writeln!(s, "{}:", sec.name);
        let mut off = 0usize;
        while off + INST_BYTES as usize <= sec.bytes.len() {
            // Label any symbol defined here.
            for sym in o.symbols.iter() {
                if let SymbolDef::Defined { section, offset } = sym.def {
                    if section == si && offset == off as u64 {
                        let _ = writeln!(s, "{}:", sym.name);
                    }
                }
            }
            let raw: [u8; 8] = sec.bytes[off..off + 8].try_into().expect("bounds checked");
            let text = match Inst::decode(&raw) {
                Some(i) => i.disassemble(),
                None => format!(
                    ".word {:#010x}, {:#010x}",
                    u32::from_le_bytes(raw[0..4].try_into().expect("len")),
                    u32::from_le_bytes(raw[4..8].try_into().expect("len"))
                ),
            };
            // Annotate relocation targets.
            let annot = o
                .relocs
                .iter()
                .find(|r| r.section == si && r.offset == off as u64 + 4)
                .map(|r| format!("\t; -> {}", r.symbol))
                .unwrap_or_default();
            let _ = writeln!(s, "  {off:6x}: {text}{annot}");
            off += INST_BYTES as usize;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_obj::encode::sniff;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("ofe-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    fn write_sample(name: &str) -> String {
        let path = tmp(name);
        let obj = assemble(
            name,
            r#"
            .text
            .global _malloc, _free
_malloc:    li r1, 0x100
            ret
_free:      call _malloc
            ret
            .data
_msg:       .asciz "hello-world"
            "#,
        )
        .unwrap();
        std::fs::write(&path, write(Format::Aout, &obj)).unwrap();
        path
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn catalog_renders_the_benchmark_universe() {
        let out = run(&args(&[
            "catalog",
            "--programs",
            "50",
            "--libraries",
            "16",
            "--sample",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("catalog: 50 programs over 16 libraries (seed 42)"));
        assert!(out.contains("top libraries by fan-in:"));
        assert!(out.contains("/cat/p0 = (merge /cat/obj/p0.o"));
        assert!(out.contains("/cat/p1 = (merge /cat/obj/p1.o"));
        // Same seed, same catalog: the render is reproducible.
        let again = run(&args(&[
            "catalog",
            "--programs",
            "50",
            "--libraries",
            "16",
            "--sample",
            "2",
        ]))
        .unwrap();
        assert_eq!(out, again);
        assert!(run(&args(&["catalog", "--bogus"])).is_err());
    }

    #[test]
    fn lint_reports_findings_with_line_and_column() {
        let caller = tmp("caller.o");
        let obj = assemble(
            "caller.o",
            ".text\n.global _start\n_start: call _malloc\n sys 0\n",
        )
        .unwrap();
        std::fs::write(&caller, write(Format::Aout, &obj)).unwrap();
        let lib = write_sample("alloc.o");

        // Clean: every reference binds. Exit 0, empty report.
        let good = tmp("good.bp");
        std::fs::write(&good, format!("(merge {caller} {lib})")).unwrap();
        assert_eq!(run(&args(&["lint", &good])).unwrap(), "");

        // Dead pattern: a warning is a finding — report on stdout,
        // exit 1.
        let warn = tmp("warn.bp");
        std::fs::write(
            &warn,
            format!("(rename \"^_none$\" \"_x\" (merge {caller} {lib}))"),
        )
        .unwrap();
        let err = run(&args(&["lint", &warn])).unwrap_err();
        assert_eq!(err.code(), 1, "findings exit 1");
        assert!(err.text().contains("warning[OM005]"), "{}", err.text());
        assert!(err.text().contains(":1:1:"), "{}", err.text());
        assert!(err.text().contains("1 finding"), "{}", err.text());

        // Unresolved operand: an error finding — still exit 1.
        let bad = tmp("bad.bp");
        std::fs::write(&bad, format!("(merge {caller}\n       /no/such.o)")).unwrap();
        let err = run(&args(&["lint", &bad])).unwrap_err();
        assert_eq!(err.code(), 1);
        assert!(err.text().contains("error[OM001]"), "{}", err.text());
        assert!(err.text().contains(":2:8:"), "{}", err.text());

        // An unreadable file is an operational failure: exit 2.
        let err = run(&args(&["lint", "/no/such.bp"])).unwrap_err();
        assert_eq!(err.code(), 2, "operational errors exit 2");

        // A sibling blueprint file works as a meta-object operand.
        let meta = tmp("libm.bp");
        std::fs::write(
            &meta,
            format!("(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge {lib})"),
        )
        .unwrap();
        let uses_meta = tmp("uses-meta.bp");
        std::fs::write(&uses_meta, format!("(merge {caller} {meta})")).unwrap();
        assert_eq!(run(&args(&["lint", &uses_meta])).unwrap(), "");
    }

    #[test]
    fn lint_batch_runs_files_in_parallel_and_keeps_order() {
        let caller = tmp("bcaller.o");
        let obj = assemble(
            "bcaller.o",
            ".text\n.global _start\n_start: call _malloc\n sys 0\n",
        )
        .unwrap();
        std::fs::write(&caller, write(Format::Aout, &obj)).unwrap();
        let lib = write_sample("balloc.o");

        let good = tmp("bgood.bp");
        std::fs::write(&good, format!("(merge {caller} {lib})")).unwrap();
        let warn = tmp("bwarn.bp");
        std::fs::write(
            &warn,
            format!("(rename \"^_none$\" \"_x\" (merge {caller} {lib}))"),
        )
        .unwrap();
        let bad = tmp("bbad.bp");
        std::fs::write(&bad, format!("(merge {caller} /no/such.o)")).unwrap();

        // One warning across the batch: findings exit, input order.
        let err = run(&args(&["lint", "--jobs", "4", &good, &warn, &good])).unwrap_err();
        assert_eq!(err.code(), 1);
        let lines: Vec<&str> = err.text().lines().collect();
        assert_eq!(
            lines.len(),
            2,
            "the warning plus the trailer: {}",
            err.text()
        );
        assert!(
            lines[0].starts_with(&warn),
            "input order kept: {}",
            err.text()
        );
        assert!(lines[0].contains("warning[OM005]"), "{}", err.text());

        // Error and warning findings interleave in input order; every
        // file is linted.
        let err = run(&args(&["lint", "--jobs", "2", &good, &bad, &warn])).unwrap_err();
        assert_eq!(err.code(), 1);
        assert!(err.text().contains("error[OM001]"), "{}", err.text());
        assert!(err.text().contains("warning[OM005]"), "{}", err.text());
        let bad_pos = err.text().find(&bad).unwrap();
        let warn_pos = err.text().find(&warn).unwrap();
        assert!(bad_pos < warn_pos, "reports stay in input order");

        // Flag parsing problems are operational: exit 2.
        let err = run(&args(&["lint", "--jobs", "x", &good, &warn])).unwrap_err();
        assert_eq!(err.code(), 2);
        let err = run(&args(&["lint", "--jobs", "2"])).unwrap_err();
        assert_eq!(err.code(), 2);
        let err = run(&args(&["lint", "--format", "yaml", &good])).unwrap_err();
        assert_eq!(err.code(), 2);
    }

    #[test]
    fn lint_json_emits_a_parseable_findings_array() {
        use omos_core::json;

        let caller = tmp("jcaller.o");
        let obj = assemble(
            "jcaller.o",
            ".text\n.global _start\n_start: call _malloc\n sys 0\n",
        )
        .unwrap();
        std::fs::write(&caller, write(Format::Aout, &obj)).unwrap();
        let lib = write_sample("jalloc.o");

        // Clean file: an empty array, exit 0.
        let good = tmp("jgood.bp");
        std::fs::write(&good, format!("(merge {caller} {lib})")).unwrap();
        let out = run(&args(&["lint", "--format", "json", &good])).unwrap();
        assert_eq!(out, "[]\n");

        // Findings: exit 1 and a JSON array a consumer can parse.
        let warn = tmp("jwarn.bp");
        std::fs::write(
            &warn,
            format!("(rename \"^_none$\" \"_x\" (merge {caller} {lib}))"),
        )
        .unwrap();
        let err = run(&args(&["lint", "--format", "json", &warn])).unwrap_err();
        assert_eq!(err.code(), 1);
        let doc = json::parse(err.text()).expect("valid JSON");
        let arr = doc.as_arr().expect("an array");
        assert_eq!(arr.len(), 1);
        let f = &arr[0];
        assert_eq!(f.get("severity").and_then(Json::as_str), Some("warning"));
        assert_eq!(f.get("code").and_then(Json::as_str), Some("OM005"));
        assert_eq!(f.get("line").and_then(Json::as_num), Some(1.0));
        assert_eq!(f.get("col").and_then(Json::as_num), Some(1.0));
        assert_eq!(f.get("file").and_then(Json::as_str), Some(warn.as_str()));
        assert!(f
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| !m.is_empty()));

        // Flags compose in either order.
        let err = run(&args(&[
            "lint", "--format", "json", "--jobs", "2", &warn, &good,
        ]))
        .unwrap_err();
        assert_eq!(err.code(), 1);
        assert!(json::parse(err.text()).is_ok(), "{}", err.text());
    }

    #[test]
    fn info_nm_size_strings_dis() {
        let p = write_sample("a.o");
        let out = run(&args(&["info", &p])).unwrap();
        assert!(out.contains("sections: 4"));
        let out = run(&args(&["nm", &p])).unwrap();
        assert!(out.contains("T _malloc"));
        assert!(out.contains("d _msg"));
        let out = run(&args(&["size", &p])).unwrap();
        assert!(out.starts_with("text\tdata"));
        let out = run(&args(&["strings", &p])).unwrap();
        assert!(out.contains("hello-world"));
        let out = run(&args(&["dis", &p])).unwrap();
        assert!(out.contains("_malloc:"));
        assert!(out.contains("; -> _malloc"), "call site annotated: {out}");
    }

    #[test]
    fn convert_roundtrip() {
        let p = write_sample("b.o");
        let q = tmp("b.som");
        run(&args(&["convert", "som", &p, &q])).unwrap();
        let bytes = std::fs::read(&q).unwrap();
        assert_eq!(sniff(&bytes), Some(Format::Som));
        let r = tmp("b2.o");
        run(&args(&["convert", "aout", &q, &r])).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), std::fs::read(&r).unwrap());
    }

    #[test]
    fn rename_and_hide_pipeline() {
        let p = write_sample("c.o");
        let q = tmp("c-ren.o");
        run(&args(&["copy-as", "^_malloc$", "_REAL_malloc", &p, &q])).unwrap();
        let r = tmp("c-hid.o");
        run(&args(&["hide", "^_REAL_malloc$", &q, &r])).unwrap();
        let out = run(&args(&["nm", &r])).unwrap();
        assert!(out.contains("_malloc"));
        assert!(!out.contains(" T _REAL_malloc"));
    }

    #[test]
    fn merge_two_files() {
        let a = write_sample("d.o");
        let bpath = tmp("e.o");
        let obj = assemble("e.o", ".text\n.global _other\n_other: ret\n").unwrap();
        std::fs::write(&bpath, write(Format::Aout, &obj)).unwrap();
        let out = tmp("merged.o");
        run(&args(&["merge", &out, &a, &bpath])).unwrap();
        let listing = run(&args(&["nm", &out])).unwrap();
        assert!(listing.contains("_malloc"));
        assert!(listing.contains("_other"));
    }

    #[test]
    fn asm_command() {
        let src = tmp("f.s");
        std::fs::write(&src, ".text\n.global _f\n_f: ret\n").unwrap();
        let out = tmp("f.o");
        run(&args(&["asm", &src, &out])).unwrap();
        let listing = run(&args(&["nm", &out])).unwrap();
        assert!(listing.contains("T _f"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&args(&["bogus"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&args(&["nm", "/no/such/file"])).is_err());
        assert!(run(&args(&["convert", "elf", "a", "b"])).is_err());
    }

    fn write_main(name: &str) -> String {
        let path = tmp(name);
        let obj = assemble(
            name,
            ".text\n.global _start\n_start: call _malloc\n sys 0\n",
        )
        .unwrap();
        std::fs::write(&path, write(Format::Aout, &obj)).unwrap();
        path
    }

    #[test]
    fn checkpoint_then_restore_serves_the_reply_from_cache() {
        let lib = write_sample("ck-lib.o");
        let main = write_main("ck-main.o");
        let bp = tmp("ck.bp");
        std::fs::write(&bp, format!("(merge {main} {lib})")).unwrap();
        let out = tmp("ck-dir");

        let rep = run(&args(&["checkpoint", &bp, &out])).unwrap();
        assert!(rep.contains("checkpoint seq 1"), "{rep}");
        assert!(rep.contains("2 bindings"), "{rep}");
        assert!(rep.contains("1 replies"), "{rep}");

        // Both manifest copies plus at least one image made it out.
        assert!(std::path::Path::new(&out).join("manifest.a").is_file());
        assert!(std::path::Path::new(&out).join("manifest.b").is_file());

        let plain = run(&args(&["restore", &out])).unwrap();
        assert!(plain.contains("0 dropped"), "{plain}");
        assert!(!plain.contains("cold start"), "{plain}");

        let served = run(&args(&["restore", &out, &bp])).unwrap();
        assert!(served.contains("cache hit"), "{served}");
    }

    #[test]
    fn restore_survives_a_damaged_checkpoint_file() {
        let lib = write_sample("ckd-lib.o");
        let main = write_main("ckd-main.o");
        let bp = tmp("ckd.bp");
        std::fs::write(&bp, format!("(merge {main} {lib})")).unwrap();
        let out = tmp("ckd-dir");
        run(&args(&["checkpoint", &bp, &out])).unwrap();

        // Flip a byte in the middle of one manifest copy; its twin
        // still restores everything.
        let victim = std::path::Path::new(&out).join("manifest.a");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, bytes).unwrap();

        let served = run(&args(&["restore", &out, &bp])).unwrap();
        assert!(served.contains("cache hit"), "{served}");

        let missing = tmp("ckd-empty");
        std::fs::create_dir_all(&missing).unwrap();
        assert!(run(&args(&["restore", &missing])).is_err());
    }

    #[test]
    fn explain_renders_and_diffs_manifests() {
        let lib = write_sample("ex-lib.o");
        let main = write_main("ex-main.o");
        let bp = tmp("ex.bp");
        std::fs::write(&bp, format!("(merge {main} {lib})")).unwrap();

        let out = run(&args(&["explain", &bp])).unwrap();
        assert!(out.starts_with("manifest "), "{out}");
        assert!(out.contains("bind _malloc -> <program>"), "{out}");
        assert!(out.contains("program text="), "{out}");

        // The same blueprint on both sides resolves identically.
        let out = run(&args(&["explain", &bp, &bp])).unwrap();
        assert!(out.contains("manifests are identical"), "{out}");

        // A rebind that grows `_malloc` shifts `_free`: the diff names
        // exactly the moved binding, nothing else.
        let lib2 = tmp("ex-lib2.o");
        let obj = assemble(
            "ex-lib2.o",
            r#"
            .text
            .global _malloc, _free
_malloc:    li r1, 0x100
            li r2, 1
            ret
_free:      call _malloc
            ret
            .data
_msg:       .asciz "hello-world"
            "#,
        )
        .unwrap();
        std::fs::write(&lib2, write(Format::Aout, &obj)).unwrap();
        let bp2 = tmp("ex2.bp");
        std::fs::write(&bp2, format!("(merge {main} {lib2})")).unwrap();
        let out = run(&args(&["explain", &bp, &bp2])).unwrap();
        assert!(out.contains("~ _free"), "{out}");
        assert!(
            !out.contains("~ _malloc"),
            "unchanged binding stays out: {out}"
        );
        assert!(out.contains("program image changed"), "{out}");
    }

    #[test]
    fn relink_plans_reuse_for_the_untouched_library() {
        // Two directories with identically named operands; only libb.o
        // differs. Leaf paths inside the blueprints are relative, so
        // the two manifests line up row for row.
        let write_world = |dir: &str, cos_body: &str| -> String {
            let d = std::path::PathBuf::from(tmp(dir));
            std::fs::create_dir_all(&d).unwrap();
            let wobj = |name: &str, src: &str| {
                let obj = assemble(name, src).unwrap();
                std::fs::write(d.join(name), write(Format::Aout, &obj)).unwrap();
            };
            wobj(
                "app.o",
                ".text\n.global _start\n_start: call _sin\n call _cos\n sys 0\n",
            );
            wobj("liba.o", ".text\n.global _sin\n_sin: li r1, 1\n ret\n");
            wobj("libb.o", cos_body);
            std::fs::write(
                d.join("liba.bp"),
                "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge liba.o)",
            )
            .unwrap();
            std::fs::write(
                d.join("libb.bp"),
                "(constraint-list \"T\" 0x2000000 \"D\" 0x42000000)\n(merge libb.o)",
            )
            .unwrap();
            std::fs::write(d.join("main.bp"), "(merge app.o liba.bp libb.bp)").unwrap();
            d.join("main.bp").to_string_lossy().into_owned()
        };
        let before = write_world("rl-before", ".text\n.global _cos\n_cos: li r1, 2\n ret\n");
        let after = write_world("rl-after", ".text\n.global _cos\n_cos: li r1, 3\n ret\n");

        let out = run(&args(&["relink", &before, &after])).unwrap();
        assert!(out.contains("relink plan: 1 reused, 1 relinked"), "{out}");
        assert!(out.contains("reuse  liba.bp"), "{out}");
        assert!(out.contains("relink libb.bp"), "{out}");
        // `_cos` keeps its address, and that binding is all the program
        // image's key covers of libb: the program image is reused.
        assert!(out.contains("program reused"), "{out}");
        assert!(!out.contains("manifest diff:"), "{out}");

        let out = run(&args(&["relink", &before, &after, "--explain"])).unwrap();
        assert!(out.contains("manifest diff:"), "{out}");
        assert!(
            out.contains("library libb.bp moved or was rebuilt"),
            "{out}"
        );

        // Identical worlds: everything reused, nothing to relink.
        let out = run(&args(&["relink", &before, &before])).unwrap();
        assert!(out.contains("relink plan: 2 reused, 0 relinked"), "{out}");
        assert!(out.contains("program reused"), "{out}");
    }

    #[test]
    fn explain_compares_against_a_checkpoint() {
        let lib = write_sample("exc-lib.o");
        let main = write_main("exc-main.o");
        let bp = tmp("exc.bp");
        std::fs::write(&bp, format!("(merge {main} {lib})")).unwrap();
        let out = tmp("exc-dir");
        run(&args(&["checkpoint", &bp, &out])).unwrap();

        let report = run(&args(&["explain", &bp, &out])).unwrap();
        assert!(report.contains("manifests are identical"), "{report}");

        // A blueprint the checkpoint never served has no stored
        // manifest to compare against.
        let other = tmp("exc-other.bp");
        std::fs::write(&other, format!("(merge {lib} {main})")).unwrap();
        let err = run(&args(&["explain", &other, &out])).unwrap_err();
        assert!(err.text().contains("no manifest"), "{}", err.text());
    }
}
