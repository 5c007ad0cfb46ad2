//! The programmable link-policy engine.
//!
//! The paper's §6 interposition figure is one hard-coded linking
//! behavior: wrap every monitored routine behind a generated stub.
//! Blueprints generalize it with declarative `(policy KIND "PATTERN")`
//! forms, applied here as a module-to-module transform at the single
//! point both the server's link path and the static manifest derivation
//! share — right after m-graph evaluation, before any image key is
//! computed or any byte is linked. One implementation, two consumers:
//! the executed link and the symbolic derivation can never disagree
//! about what a policy did.
//!
//! * **deny** — linking fails with a hard `OM017` error when the
//!   program references a matching symbol;
//! * **trampoline** — matching program-defined routines are wrapped
//!   behind tail-jump interposition stubs (`f` → stub → `f$real`);
//! * **audit** — like trampoline, but the stub also bumps a per-process
//!   counter slot in the `PolicyData` window and logs the entry through
//!   the monitor (`MONLOG`).
//!
//! A name matched by both a trampoline and an audit pattern is wrapped
//! once, as an audit (the superset behavior) — double-wrapping would
//! rename `f$real` to `f$real$real` and chain stubs for no benefit.

use std::collections::BTreeSet;

use omos_blueprint::{Blueprint, EvalOutput, LinkPolicy, PolicyKind};
use omos_constraint::RegionClass;
use omos_link::make_policy_stubs;
use omos_module::Module;
use omos_obj::view::RenameTarget;
use omos_obj::{ObjectFile, Regex};

use crate::{Diagnostic, Severity};

/// What the policy transform did to a module — recorded in the
/// resolution manifest consumer-side and billed by the server's trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyOutcome {
    /// Names wrapped behind bare trampolines, sorted.
    pub trampolines: Vec<String>,
    /// Names wrapped behind call-audit stubs, sorted; the index of a
    /// name is its audit id (the `MONLOG` payload) and its counter slot
    /// is `counter_base + 4 * index`.
    pub audits: Vec<String>,
    /// Base address of the audit counter array (start of the
    /// `PolicyData` window unless a `"P"` constraint pins it).
    pub counter_base: u32,
}

impl PolicyOutcome {
    /// Total number of wrapped entry points.
    #[must_use]
    pub fn wrapped(&self) -> usize {
        self.trampolines.len() + self.audits.len()
    }
}

/// Why policy application failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// A deny policy matched a referenced symbol: the hard `OM017`
    /// diagnostics, one per (pattern, symbol) hit.
    Denied(Vec<Diagnostic>),
    /// The transform itself failed (bad pattern in a programmatic
    /// blueprint, module operation error).
    Internal(String),
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Denied(diags) => {
                write!(f, "link denied by policy")?;
                for d in diags {
                    write!(f, "\n  {}", d.render())?;
                }
                Ok(())
            }
            PolicyError::Internal(msg) => write!(f, "policy application failed: {msg}"),
        }
    }
}

impl std::error::Error for PolicyError {}

/// Where the audit counter array lives: pinned by a `"P"` constraint
/// when the blueprint has one, else the start of the [`RegionClass::PolicyData`]
/// default window.
#[must_use]
pub fn policy_counter_base(constraints: &[(RegionClass, u64)]) -> u32 {
    constraints
        .iter()
        .find(|(c, _)| *c == RegionClass::PolicyData)
        .map_or(
            RegionClass::PolicyData.default_window().0 as u32,
            |&(_, a)| a as u32,
        )
}

fn compile(p: &LinkPolicy) -> Result<Regex, String> {
    Regex::new(&p.pattern).map_err(|e| format!("policy pattern `{}`: {e}", p.pattern))
}

/// Evaluates every deny policy against a reference set (symbol names the
/// program's relocations target), in blueprint source order so the
/// diagnostics carry the right spans. Each (policy, symbol) hit is one
/// `OM017` error.
pub fn deny_diagnostics<'a, I>(bp: &Blueprint, refs: I) -> Result<Vec<Diagnostic>, String>
where
    I: IntoIterator<Item = &'a str>,
{
    let deduped: BTreeSet<&str> = refs.into_iter().collect();
    let mut diags = Vec::new();
    for (i, p) in bp.policies.iter().enumerate() {
        if p.kind != PolicyKind::Deny {
            continue;
        }
        let re = compile(p)?;
        for sym in &deduped {
            if re.is_match(sym) {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "OM017",
                    message: format!(
                        "deny policy `{}` forbids symbol `{sym}`, which the program references",
                        p.pattern
                    ),
                    span: bp.policy_spans.get(i).copied(),
                });
            }
        }
    }
    Ok(diags)
}

/// Escapes a symbol name for use inside a regex pattern (the §6 monitor
/// interposition move — braces included, they are legal symbol
/// characters but regex metacharacters).
fn escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for c in name.chars() {
        if "\\^$.|?*+()[]{}".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// Applies `bp`'s link policies to an evaluated output, in place.
///
/// This is the **only** policy-application point: the server calls it on
/// the eval output it is about to link (at every lane count), and
/// [`crate::manifest::eval_with_policies`] calls it on the eval a bare
/// blueprint's derivation starts from — so the executed link and the
/// static derivation always see the same transformed module.
///
/// Policy-free blueprints return immediately with a default outcome and
/// an untouched output: the reply bytes of every existing blueprint are
/// unchanged by this layer's existence. After an error `out.module` is
/// unspecified; callers abandon the build.
pub fn apply_link_policies(
    bp: &Blueprint,
    out: &mut EvalOutput,
) -> Result<PolicyOutcome, PolicyError> {
    let policies = bp.canonical_policies();
    if policies.is_empty() {
        return Ok(PolicyOutcome::default());
    }

    // Deny first: a forbidden reference fails the link before any
    // wrapping work happens.
    let obj = out
        .module
        .materialize()
        .map_err(|e| PolicyError::Internal(format!("materialize program: {e}")))?;
    let diags = deny_diagnostics(bp, obj.relocs.iter().map(|r| r.symbol.as_str()))
        .map_err(PolicyError::Internal)?;
    if !diags.is_empty() {
        return Err(PolicyError::Denied(diags));
    }

    // Collect the wrap sets over the program module's exports. Library
    // modules are left alone: their exports bind across the extern fold
    // by address, where a merged-in stub object could not reach them —
    // deny policies still see every reference, wrapping is for the
    // names the program module itself defines.
    let exports = out
        .module
        .exports()
        .map_err(|e| PolicyError::Internal(format!("exports: {e}")))?;
    let mut audits: BTreeSet<String> = BTreeSet::new();
    let mut trampolines: BTreeSet<String> = BTreeSet::new();
    for p in &policies {
        let set = match p.kind {
            PolicyKind::Audit => &mut audits,
            PolicyKind::Trampoline => &mut trampolines,
            PolicyKind::Deny => continue,
        };
        let re = compile(p).map_err(PolicyError::Internal)?;
        for n in exports.iter().filter(|n| re.is_match(n)) {
            set.insert(n.clone());
        }
    }
    // Audit is the superset behavior: a doubly-matched name wraps once.
    let trampolines: Vec<String> = trampolines.difference(&audits).cloned().collect();
    let audits: Vec<String> = audits.into_iter().collect();
    let counter_base = policy_counter_base(&bp.constraints);
    if trampolines.is_empty() && audits.is_empty() {
        return Ok(PolicyOutcome {
            trampolines,
            audits,
            counter_base,
        });
    }

    // The §6 interposition move: rename each definition aside, then
    // merge the generated stub object in under the original names.
    // The program module is the stub merge's accumulator: it is taken
    // out of `out` (not shared) so the merge appends in place.
    let mut m = std::mem::replace(&mut out.module, Module::from_object(ObjectFile::default()));
    for n in trampolines.iter().chain(audits.iter()) {
        m = m
            .rename(
                &format!("^{}$", escape(n)),
                &format!("{n}$real"),
                RenameTarget::Defs,
            )
            .map_err(|e| PolicyError::Internal(format!("rename `{n}`: {e}")))?;
    }
    let stubs = make_policy_stubs(&trampolines, &audits, counter_base);
    out.module = m
        .merge_with(Module::from_object(stubs))
        .map_err(|e| PolicyError::Internal(format!("merge policy stubs: {e}")))?;
    Ok(PolicyOutcome {
        trampolines,
        audits,
        counter_base,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_blueprint::eval::{CachedEval, EvalError, ResolvedNode};
    use omos_blueprint::{eval_blueprint, EvalContext};
    use omos_isa::assemble;
    use omos_obj::ContentHash;
    use std::collections::{BTreeSet, HashMap};
    use std::sync::Arc;

    struct Ctx {
        objs: HashMap<String, Arc<omos_obj::ObjectFile>>,
    }

    impl EvalContext for Ctx {
        fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError> {
            self.objs
                .get(path)
                .map(|o| ResolvedNode::Object(Arc::clone(o)))
                .ok_or_else(|| EvalError::Resolve(format!("`{path}` not bound")))
        }

        fn cache_get(&self, _key: ContentHash) -> Option<CachedEval> {
            None
        }

        fn cache_put(&self, _key: ContentHash, _module: &Module, _deps: &Arc<BTreeSet<String>>) {}

        fn register_dynamic_impl(
            &self,
            _key: ContentHash,
            _module: &Module,
        ) -> Result<u32, EvalError> {
            Ok(0)
        }
    }

    fn ctx() -> Ctx {
        let mut objs = HashMap::new();
        objs.insert(
            "/obj/prog.o".to_string(),
            Arc::new(
                assemble(
                    "prog.o",
                    ".text\n.global _start, _work\n_start: call _work\n sys 0\n_work: li r1, 5\n ret\n",
                )
                .unwrap(),
            ),
        );
        Ctx { objs }
    }

    fn eval(src: &str) -> (Blueprint, EvalOutput) {
        let bp = Blueprint::parse(src).unwrap();
        let out = eval_blueprint(&bp, &ctx()).unwrap();
        (bp, out)
    }

    #[test]
    fn policy_free_output_is_untouched() {
        let (bp, mut out) = eval("(merge /obj/prog.o)");
        let before = out.module.content_hash();
        let o = apply_link_policies(&bp, &mut out).unwrap();
        assert_eq!(o, PolicyOutcome::default());
        assert_eq!(out.module.content_hash(), before);
    }

    #[test]
    fn deny_policy_fails_on_referenced_symbol() {
        let (bp, mut out) = eval("(policy deny \"^_work$\")\n(merge /obj/prog.o)");
        let err = apply_link_policies(&bp, &mut out).unwrap_err();
        let PolicyError::Denied(diags) = err else {
            panic!("expected Denied");
        };
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "OM017");
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("_work"));
        assert!(diags[0].span.is_some(), "span points at the policy form");
    }

    #[test]
    fn deny_policy_passes_when_nothing_matches() {
        let (bp, mut out) = eval("(policy deny \"^_exec\")\n(merge /obj/prog.o)");
        let o = apply_link_policies(&bp, &mut out).unwrap();
        assert_eq!(o.wrapped(), 0);
    }

    #[test]
    fn audit_wins_over_trampoline_and_wraps_once() {
        let (bp, mut out) = eval(
            "(policy trampoline \"^_work$\")\n(policy audit \"^_work$\")\n(merge /obj/prog.o)",
        );
        let o = apply_link_policies(&bp, &mut out).unwrap();
        assert_eq!(o.trampolines, Vec::<String>::new());
        assert_eq!(o.audits, vec!["_work"]);
        let exports = out.module.exports().unwrap();
        assert!(exports.contains(&"_work".to_string()));
        assert!(exports.contains(&"_work$real".to_string()));
        assert!(!exports.contains(&"_work$real$real".to_string()));
    }

    #[test]
    fn counter_base_follows_the_p_constraint() {
        let (bp, mut out) = eval(
            "(constraint-list \"P\" 0xd0040000)\n(policy audit \"^_work$\")\n(merge /obj/prog.o)",
        );
        let o = apply_link_policies(&bp, &mut out).unwrap();
        assert_eq!(o.counter_base, 0xd004_0000);
        let (bp, mut out) = eval("(policy audit \"^_work$\")\n(merge /obj/prog.o)");
        let o = apply_link_policies(&bp, &mut out).unwrap();
        assert_eq!(
            o.counter_base,
            RegionClass::PolicyData.default_window().0 as u32
        );
    }

    #[test]
    fn application_is_deterministic() {
        let src = "(policy audit \"^_(work|start)$\")\n(merge /obj/prog.o)";
        let (bp, mut a) = eval(src);
        let (_, mut b) = eval(src);
        let oa = apply_link_policies(&bp, &mut a).unwrap();
        let ob = apply_link_policies(&bp, &mut b).unwrap();
        assert_eq!(oa, ob);
        assert_eq!(a.module.content_hash(), b.module.content_hash());
        assert_eq!(oa.audits, vec!["_start", "_work"], "ids are sorted order");
    }

    /// The §6 monitor's sample program: `_start` calls `_beta`,
    /// `_alpha`, `_beta`; `_beta` calls `_gamma`.
    fn monitor_sample() -> omos_obj::ObjectFile {
        assemble(
            "prog.o",
            r#"
            .text
            .global _start, _alpha, _beta, _gamma
_start:     call _beta
            call _alpha
            call _beta
            sys 0
_alpha:     li r1, 1
            ret
_beta:      mov r8, r15
            call _gamma
            mov r15, r8
            ret
_gamma:     li r1, 3
            ret
            "#,
        )
        .unwrap()
    }

    /// Audit-wraps the routines of `obj` matching `pattern`, the way a
    /// monitored instantiation does: the bound blueprint plus one audit
    /// policy.
    fn audit(obj: omos_obj::ObjectFile, pattern: &str) -> (Module, PolicyOutcome) {
        let mut objs = HashMap::new();
        objs.insert("/obj/m.o".to_string(), Arc::new(obj));
        let mut bp = Blueprint::parse("(merge /obj/m.o)").unwrap();
        bp.policies.push(LinkPolicy {
            kind: PolicyKind::Audit,
            pattern: pattern.to_string(),
        });
        let mut out = eval_blueprint(&bp, &Ctx { objs }).unwrap();
        let o = apply_link_policies(&bp, &mut out).unwrap();
        (out.module, o)
    }

    fn run(m: &Module) -> omos_os::process::RunOutcome {
        use omos_os::process::{run_process, NoBinder, Process};
        use omos_os::{CostModel, ImageFrames, InMemFs, SimClock};
        let obj = m.materialize().unwrap();
        let out = omos_link::link(&[obj], &omos_link::LinkOptions::program("t")).unwrap();
        let (mut clock, cost, mut fs) = (SimClock::new(), CostModel::hpux(), InMemFs::new());
        let frames = ImageFrames::from_image(&out.image);
        let mut proc = Process::spawn(&frames, &mut clock, &cost).unwrap();
        run_process(
            &mut proc,
            &mut clock,
            &cost,
            &mut fs,
            &mut NoBinder,
            100_000,
        )
    }

    #[test]
    fn instrumented_program_logs_call_order() {
        let (m, o) = audit(monitor_sample(), "^_(alpha|beta|gamma)$");
        assert_eq!(o.audits, vec!["_alpha", "_beta", "_gamma"]);
        let run = run(&m);
        assert!(matches!(run.stop, omos_isa::StopReason::Exited(_)));
        // Call order: beta, gamma (from beta), alpha, beta (again), gamma.
        let called: Vec<&str> = run
            .monitor_events
            .iter()
            .map(|&i| o.audits[i as usize].as_str())
            .collect();
        assert_eq!(called, vec!["_beta", "_gamma", "_alpha", "_beta", "_gamma"]);
    }

    #[test]
    fn wrapper_preserves_results() {
        let (m, _) = audit(monitor_sample(), "^_(alpha|beta|gamma)$");
        // Final r1 comes from the last `call _beta` → `_gamma` → 3.
        assert_eq!(run(&m).stop, omos_isa::StopReason::Exited(3));
    }

    #[test]
    fn escape_protects_metacharacters() {
        assert_eq!(escape("_f$real"), "_f\\$real");
        let re = Regex::new(&format!("^{}$", escape("_f$real"))).unwrap();
        assert!(re.is_match("_f$real"));
        assert!(!re.is_match("_fXreal"));
    }

    #[test]
    fn escape_protects_braces() {
        // Unescaped, `^_f{1}$` is a counted repetition matching `_f` —
        // the exact silent mis-rename this guards against.
        assert_eq!(escape("_f{1}"), "_f\\{1\\}");
        let re = Regex::new(&format!("^{}$", escape("_f{1}"))).unwrap();
        assert!(re.is_match("_f{1}"));
        assert!(!re.is_match("_f"));
    }

    #[test]
    fn braced_symbol_names_instrument_correctly() {
        use omos_isa::{Inst, Opcode};
        use omos_obj::{ObjectFile, Section, SectionKind, Symbol};
        // Braces are legal in the object format's symbol names; build
        // one by hand (the assembler's label syntax won't take them).
        let mut obj = ObjectFile::new("braced.o");
        let text = obj.add_section(Section::with_bytes(
            ".text",
            SectionKind::Text,
            Vec::new(),
            8,
        ));
        obj.sections[text].append(&Inst::new(Opcode::Li).ra(1).imm(7).encode());
        obj.sections[text].append(&Inst::new(Opcode::Ret).encode());
        let _ = obj.define(Symbol::defined("_f{1}", text, 0));
        let (m, o) = audit(obj, r"^_f\{1\}$");
        assert_eq!(o.audits, vec!["_f{1}"]);
        let exports = m.exports().unwrap();
        assert!(
            exports.contains(&"_f{1}$real".to_string()),
            "the braced definition was renamed aside: {exports:?}"
        );
        assert!(
            exports.contains(&"_f{1}".to_string()),
            "the stub took the original braced name"
        );
    }

    #[test]
    fn uninstrumented_names_untouched() {
        let (m, o) = audit(monitor_sample(), "^_alpha$");
        assert_eq!(o.audits, vec!["_alpha"]);
        let exports = m.exports().unwrap();
        assert!(exports.contains(&"_beta".to_string()));
        assert!(exports.contains(&"_alpha".to_string()));
        assert!(exports.contains(&"_alpha$real".to_string()));
        assert!(!exports.contains(&"_beta$real".to_string()));
    }
}
