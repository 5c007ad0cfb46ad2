//! M-graph evaluation.
//!
//! Executing an m-graph "may result in OMOS compiling source code,
//! performing symbol translations, and combining and relocating
//! fragments". Evaluation is deliberately *server-agnostic*: namespace
//! resolution, sub-result caching, and dynamic-library registration come
//! through the [`EvalContext`] trait, which the OMOS server implements.
//! This module holds the evaluation's vocabulary — context, errors,
//! output — and [`eval_blueprint`]; the walk itself is
//! [`plan`](crate::plan)'s planner and executor.
//!
//! The output separates the *client module* (everything merged inline)
//! from the *shared libraries* it references ([`LibraryUse`]): a leaf that
//! resolves to a library-class meta-object (one carrying a
//! `constraint-list`, like Figure 1's libc) or an explicit
//! `lib-constrained` specialization is not merged into the client — the
//! server places it with the constraint system and binds the client to
//! its exports, which is precisely the self-contained scheme. A
//! `lib-dynamic` specialization instead *is* merged, as generated stubs.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use omos_constraint::RegionClass;
use omos_module::Module;
use omos_obj::{ContentHash, ObjError};

use crate::ast::{Blueprint, BlueprintError, MNode};
use crate::sexpr::Span;
use crate::source::SourceError;

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Blueprint shape problem discovered during evaluation.
    Blueprint(BlueprintError),
    /// Module/object operation failure (duplicate symbols, bad regex...).
    Obj(ObjError),
    /// `source` operator failure.
    Source(SourceError),
    /// A namespace path did not resolve.
    Resolve(String),
    /// Meta-objects reference each other in a cycle.
    Cycle(String),
    /// An operation appeared somewhere it cannot (e.g. constrained
    /// library under `hide`).
    Misplaced(String),
    /// A work unit panicked while executing; the evaluation aborts
    /// cleanly.
    Worker(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Blueprint(e) => write!(f, "{e}"),
            EvalError::Obj(e) => write!(f, "{e}"),
            EvalError::Source(e) => write!(f, "{e}"),
            EvalError::Resolve(p) => write!(f, "cannot resolve `{p}`"),
            EvalError::Cycle(p) => write!(f, "meta-object cycle through `{p}`"),
            EvalError::Misplaced(m) => write!(f, "misplaced operation: {m}"),
            EvalError::Worker(m) => write!(f, "evaluation worker failed: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ObjError> for EvalError {
    fn from(e: ObjError) -> EvalError {
        EvalError::Obj(e)
    }
}

impl From<BlueprintError> for EvalError {
    fn from(e: BlueprintError) -> EvalError {
        EvalError::Blueprint(e)
    }
}

impl From<SourceError> for EvalError {
    fn from(e: SourceError) -> EvalError {
        EvalError::Source(e)
    }
}

/// What a namespace path resolves to.
#[derive(Debug, Clone)]
pub enum ResolvedNode {
    /// A relocatable object file (a leaf fragment).
    Object(std::sync::Arc<omos_obj::ObjectFile>),
    /// Another meta-object (its blueprint).
    Meta(Blueprint),
}

/// A cached evaluation result: the module plus the namespace paths its
/// derivation resolved. The evaluator folds the dependency record into
/// the enclosing scope on a hit so invalidation stays precise. The
/// module keeps its interposition record
/// ([`Module::interpositions`]), so a hit reports the same overrides as
/// the evaluation that filled the entry.
#[derive(Debug, Clone)]
pub struct CachedEval {
    /// The memoized module.
    pub module: Module,
    /// Namespace paths the cached derivation resolved.
    pub deps: Arc<BTreeSet<String>>,
}

/// Server services the evaluator needs.
///
/// Every method takes `&self`: the server's caches are internally
/// synchronized (sharded locks, atomics) because concurrent requests
/// share them, and one evaluation calls the context only from the
/// thread that runs it.
pub trait EvalContext {
    /// Resolves a namespace path.
    fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError>;

    /// Looks up a cached evaluation result by structural key.
    fn cache_get(&self, key: ContentHash) -> Option<CachedEval>;

    /// Stores an evaluation result together with the namespace paths
    /// its derivation resolved (its invalidation record).
    fn cache_put(&self, key: ContentHash, module: &Module, deps: &Arc<BTreeSet<String>>);

    /// Registers a `lib-dynamic` implementation module, returning the
    /// library id the generated stubs will pass to `OMOS_LOOKUP`.
    fn register_dynamic_impl(&self, key: ContentHash, module: &Module) -> Result<u32, EvalError>;
}

/// Work counters for one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// m-graph nodes visited.
    pub nodes: u64,
    /// Sub-results served from the cache.
    pub cache_hits: u64,
    /// Merge/override operations actually performed.
    pub merges: u64,
    /// `source` compilations performed.
    pub source_compiles: u64,
    /// Leaf objects loaded through the resolver.
    pub leaves: u64,
}

/// A shared library the evaluated client references.
#[derive(Debug, Clone)]
pub struct LibraryUse {
    /// Namespace name (or a synthetic name for inline specializations).
    pub name: String,
    /// Structural identity of the library's graph.
    pub key: ContentHash,
    /// The library's (un-placed) module.
    pub module: Module,
    /// Placement preferences, strongest first.
    pub constraints: Vec<(RegionClass, u64)>,
}

/// The result of evaluating a blueprint.
#[derive(Debug)]
pub struct EvalOutput {
    /// The client module: every inline-merged fragment (including
    /// generated dynamic stubs). It and each library module carry the
    /// override conflicts their evaluation resolved
    /// ([`Module::interpositions`]).
    pub module: Module,
    /// Self-contained shared libraries referenced, to be placed and bound
    /// by the server.
    pub libraries: Vec<LibraryUse>,
    /// Blueprint-level default constraints (for the client itself).
    pub constraints: Vec<(RegionClass, u64)>,
    /// Work counters.
    pub stats: EvalStats,
    /// Every namespace path the evaluation resolved (the request's
    /// invalidation record).
    pub deps: BTreeSet<String>,
}

/// Evaluates a blueprint to a client module plus its library uses: the
/// planned evaluation of [`plan`](crate::plan), without its unit DAG.
pub fn eval_blueprint(bp: &Blueprint, ctx: &dyn EvalContext) -> Result<EvalOutput, EvalError> {
    crate::plan::eval_blueprint_with_units(bp, ctx).map(|p| p.output)
}

/// Formats the full blueprint path chain of a detected cycle: every
/// meta-object from the first re-entered node down to the repeat, e.g.
/// `/meta/a -> /meta/b -> /meta/a`.
pub(crate) fn cycle_chain(visiting_tail: &[String], repeat: &str) -> String {
    let mut chain: Vec<&str> = visiting_tail.iter().map(String::as_str).collect();
    chain.push(repeat);
    chain.join(" -> ")
}

/// Attaches the blueprint source location of the failing leaf to
/// `Resolve`/`Cycle` errors (the variant stays a plain `String`; the
/// location is folded into the message). A cycle error carries the full
/// ` -> `-joined path chain; the located leaf is the chain's final
/// (re-entered) component. Errors raised from inside a *referenced*
/// meta-object have no span in this blueprint and pass through
/// unchanged.
pub(crate) fn locate_error(e: EvalError, bp: &Blueprint) -> EvalError {
    let locate = |name: &str| -> Option<Span> {
        let mut path = Vec::new();
        find_leaf_span(&bp.root, name, &mut path, bp)
    };
    match e {
        EvalError::Resolve(p) => match locate(&p) {
            Some(span) => EvalError::Resolve(format!("{p} (at {span})")),
            None => EvalError::Resolve(p),
        },
        EvalError::Cycle(p) => {
            let last = p.rsplit(" -> ").next().unwrap_or(&p);
            match locate(last) {
                Some(span) => EvalError::Cycle(format!("{p} (at {span})")),
                None => EvalError::Cycle(p),
            }
        }
        other => other,
    }
}

fn find_leaf_span(n: &MNode, target: &str, path: &mut Vec<u32>, bp: &Blueprint) -> Option<Span> {
    let mut descend = |i: u32, c: &MNode| -> Option<Span> {
        path.push(i);
        let found = find_leaf_span(c, target, path, bp);
        path.pop();
        found
    };
    match n {
        MNode::Leaf(p) if p == target => bp.spans.get(path),
        _ => n
            .operands()
            .enumerate()
            .find_map(|(i, c)| descend(i as u32, c)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use omos_isa::assemble;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// A test context: a flat namespace of objects and metas plus a real
    /// cache. Mutable state sits behind locks so the context serves the
    /// `&self` trait.
    #[derive(Default)]
    pub(crate) struct TestCtx {
        pub(crate) objects: HashMap<String, Arc<omos_obj::ObjectFile>>,
        pub(crate) metas: HashMap<String, Blueprint>,
        pub(crate) cache: Mutex<HashMap<ContentHash, CachedEval>>,
        pub(crate) dynamic: Mutex<Vec<(ContentHash, Module)>>,
        /// `cache_get` probes that found an entry.
        pub(crate) hit_probes: AtomicU64,
    }

    impl TestCtx {
        pub(crate) fn add_asm(&mut self, path: &str, src: &str) {
            self.objects.insert(
                path.to_string(),
                Arc::new(assemble(path, src).expect("assembles")),
            );
        }

        pub(crate) fn add_meta(&mut self, path: &str, src: &str) {
            self.metas
                .insert(path.to_string(), Blueprint::parse(src).expect("parses"));
        }

        pub(crate) fn dynamic_count(&self) -> usize {
            self.dynamic.lock().unwrap().len()
        }
    }

    impl EvalContext for TestCtx {
        fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError> {
            if let Some(o) = self.objects.get(path) {
                return Ok(ResolvedNode::Object(Arc::clone(o)));
            }
            if let Some(m) = self.metas.get(path) {
                return Ok(ResolvedNode::Meta(m.clone()));
            }
            Err(EvalError::Resolve(path.to_string()))
        }

        fn cache_get(&self, key: ContentHash) -> Option<CachedEval> {
            let hit = self.cache.lock().unwrap().get(&key).cloned();
            if hit.is_some() {
                self.hit_probes.fetch_add(1, Ordering::Relaxed);
            }
            hit
        }

        fn cache_put(&self, key: ContentHash, module: &Module, deps: &Arc<BTreeSet<String>>) {
            self.cache.lock().unwrap().insert(
                key,
                CachedEval {
                    module: module.clone(),
                    deps: Arc::clone(deps),
                },
            );
        }

        fn register_dynamic_impl(
            &self,
            key: ContentHash,
            module: &Module,
        ) -> Result<u32, EvalError> {
            let mut dynamic = self.dynamic.lock().unwrap();
            if let Some(i) = dynamic.iter().position(|(k, _)| *k == key) {
                return Ok(i as u32);
            }
            dynamic.push((key, module.clone()));
            Ok(dynamic.len() as u32 - 1)
        }
    }

    pub(crate) fn ls_world() -> TestCtx {
        let mut ctx = TestCtx::default();
        ctx.add_asm(
            "/obj/ls.o",
            ".text\n.global _start\n_start: call _puts\n sys 0\n",
        );
        ctx.add_asm(
            "/libc/stdio.o",
            ".text\n.global _puts\n_puts: li r1, 0\n ret\n",
        );
        ctx
    }

    #[test]
    fn simple_merge_evaluates() {
        let ctx = ls_world();
        let bp = Blueprint::parse("(merge /obj/ls.o /libc/stdio.o)").unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        assert!(out.module.free_references().unwrap().is_empty());
        assert!(out.libraries.is_empty());
        assert_eq!(out.stats.merges, 1);
        assert_eq!(out.stats.leaves, 2);
    }

    #[test]
    fn second_evaluation_hits_cache() {
        let ctx = ls_world();
        let bp = Blueprint::parse("(merge /obj/ls.o /libc/stdio.o)").unwrap();
        let first = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(first.stats.cache_hits, 0);
        let second = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(second.stats.cache_hits, 1, "root served from cache");
        assert_eq!(second.stats.merges, 0, "no merge redone");
        assert_eq!(first.module.content_hash(), second.module.content_hash());
    }

    #[test]
    fn repeated_subtree_is_served_from_the_plan() {
        let mut ctx = TestCtx::default();
        ctx.add_asm("/obj/spin.o", ".text\nspin: call _puts\n ret\n");
        let bp = Blueprint::parse("(merge /obj/spin.o /obj/spin.o)").unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        let want = EvalStats {
            nodes: 3,
            cache_hits: 1,
            merges: 1,
            source_compiles: 0,
            leaves: 1,
        };
        assert_eq!(out.stats, want);
        // The repeat counts as a hit but never probes the cache: the
        // first visit has not published its result yet.
        assert_eq!(ctx.hit_probes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn library_class_meta_object_becomes_library_use() {
        let mut ctx = ls_world();
        ctx.add_meta(
            "/lib/libc",
            r#"
            (constraint-list "T" 0x1000000 "D" 0x41000000)
            (merge /libc/stdio.o)
            "#,
        );
        let bp = Blueprint::parse("(merge /obj/ls.o /lib/libc)").unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        // The client still references _puts (unbound) — the server binds
        // it against the placed library.
        assert!(out
            .module
            .free_references()
            .unwrap()
            .contains(&"_puts".to_string()));
        assert_eq!(out.libraries.len(), 1);
        let lib = &out.libraries[0];
        assert_eq!(lib.name, "/lib/libc");
        assert_eq!(lib.constraints[0], (RegionClass::Text, 0x100_0000));
        assert!(lib.module.exports().unwrap().contains(&"_puts".to_string()));
    }

    #[test]
    fn explicit_constrained_specialization_in_merge() {
        let ctx = ls_world();
        let bp = Blueprint::parse(
            r#"(merge /obj/ls.o
                 (specialize "lib-constrained" (list "T" 0x2000000) /libc/stdio.o))"#,
        )
        .unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(out.libraries.len(), 1);
        assert_eq!(
            out.libraries[0].constraints,
            vec![(RegionClass::Text, 0x200_0000)]
        );
    }

    #[test]
    fn dynamic_specialization_generates_stubs() {
        let ctx = ls_world();
        let bp = Blueprint::parse(r#"(merge /obj/ls.o (specialize "lib-dynamic" /libc/stdio.o))"#)
            .unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        // Stubs define _puts, so the client is fully bound statically.
        assert!(out.module.free_references().unwrap().is_empty());
        assert!(
            out.libraries.is_empty(),
            "dynamic libs are not placement requests"
        );
        assert_eq!(ctx.dynamic_count(), 1, "implementation registered");
        // Re-evaluating registers nothing new.
        let _ = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(ctx.dynamic_count(), 1);
    }

    #[test]
    fn figure2_blueprint_evaluates() {
        let mut ctx = TestCtx::default();
        ctx.add_asm(
            "/bin/ls.o",
            ".text\n.global _start\n_start: call _malloc\n sys 0\n",
        );
        ctx.add_asm(
            "/lib/libc.o",
            ".text\n.global _malloc\n_malloc: li r1, 0x1000\n ret\n",
        );
        ctx.add_asm(
            "/lib/test_malloc.o",
            r#"
            .text
            .global _malloc
            .extern _REAL_malloc
_malloc:    mov r8, r15
            call _REAL_malloc
            mov r15, r8
            ret
            "#,
        );
        let bp = Blueprint::parse(
            r#"
            (hide "_REAL_malloc"
              (merge
                (restrict "^_malloc$"
                  (copy_as "^_malloc$" "_REAL_malloc"
                    (merge /bin/ls.o /lib/libc.o)))
                /lib/test_malloc.o))
            "#,
        )
        .unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        let exports = out.module.exports().unwrap();
        assert!(exports.contains(&"_malloc".to_string()));
        assert!(!exports.contains(&"_REAL_malloc".to_string()));
        assert!(out.module.free_references().unwrap().is_empty());
    }

    #[test]
    fn figure3_blueprint_evaluates() {
        let mut ctx = TestCtx::default();
        ctx.add_asm(
            "/lib/lib-with-problems",
            r#"
            .text
            .global _entry
_entry:     call _undefined_routine
            li r2, _undef_var
            ld r1, [r2]
            ret
            "#,
        );
        ctx.add_asm("/lib/abort.o", ".text\n.global _abort\n_abort: halt\n");
        let bp = Blueprint::parse(
            r#"
            (merge
              (source "c" "int undef_var = 0;\n")
              (rename "^_undefined_routine$" "_abort" /lib/lib-with-problems)
              /lib/abort.o)
            "#,
        )
        .unwrap();
        let out = eval_blueprint(&bp, &ctx).unwrap();
        assert!(out.module.free_references().unwrap().is_empty());
        assert_eq!(out.stats.source_compiles, 1);
    }

    #[test]
    fn meta_object_cycles_detected() {
        let mut ctx = TestCtx::default();
        ctx.add_meta("/meta/a", "(merge /meta/b /meta/b)");
        ctx.add_meta("/meta/b", "(merge /meta/a /meta/a)");
        let bp = Blueprint::parse("(merge /meta/a /meta/a)").unwrap();
        let err = eval_blueprint(&bp, &ctx).unwrap_err();
        assert!(matches!(err, EvalError::Cycle(_)));
    }

    #[test]
    fn two_meta_cycle_reports_full_path_chain() {
        let mut ctx = TestCtx::default();
        ctx.add_meta("/meta/a", "(merge /meta/b /meta/b)");
        ctx.add_meta("/meta/b", "(merge /meta/a /meta/a)");
        let bp = Blueprint::parse("(merge /meta/a /meta/a)").unwrap();
        let Err(EvalError::Cycle(chain)) = eval_blueprint(&bp, &ctx) else {
            panic!("expected cycle error");
        };
        // The whole chain, not just the innermost node: entered through
        // /meta/a, descended into /meta/b, re-entered /meta/a.
        assert!(
            chain.starts_with("/meta/a -> /meta/b -> /meta/a"),
            "got {chain}"
        );
    }

    #[test]
    fn unresolved_path_errors() {
        let ctx = TestCtx::default();
        let bp = Blueprint::parse("(merge /nope /alsono)").unwrap();
        assert!(matches!(
            eval_blueprint(&bp, &ctx),
            Err(EvalError::Resolve(_))
        ));
    }

    #[test]
    fn resolve_and_cycle_errors_name_blueprint_location() {
        let ctx = ls_world();
        let src = "(merge /obj/ls.o /nope)";
        let bp = Blueprint::parse(src).unwrap();
        let Err(EvalError::Resolve(msg)) = eval_blueprint(&bp, &ctx) else {
            panic!("expected resolve error");
        };
        let leaf = src.find("/nope").unwrap();
        assert_eq!(msg, format!("/nope (at bytes {}..{})", leaf, leaf + 5));

        let mut ctx = TestCtx::default();
        ctx.add_meta("/meta/a", "(merge /meta/a /meta/a)");
        let bp = Blueprint::parse("(merge /meta/a /meta/a)").unwrap();
        let Err(EvalError::Cycle(msg)) = eval_blueprint(&bp, &ctx) else {
            panic!("expected cycle error");
        };
        assert!(msg.contains("/meta/a (at bytes "), "got {msg}");
    }

    #[test]
    fn merge_of_only_libraries_rejected() {
        let mut ctx = ls_world();
        ctx.add_meta(
            "/lib/libc",
            "(constraint-list \"T\" 0x1000000)\n(merge /libc/stdio.o)",
        );
        let bp = Blueprint::parse("(merge /lib/libc)").unwrap();
        assert!(matches!(
            eval_blueprint(&bp, &ctx),
            Err(EvalError::Misplaced(_))
        ));
    }

    #[test]
    fn cached_subtree_still_declares_libraries() {
        let mut ctx = ls_world();
        ctx.add_meta(
            "/lib/libc",
            "(constraint-list \"T\" 0x1000000)\n(merge /libc/stdio.o)",
        );
        let bp = Blueprint::parse("(merge /obj/ls.o /lib/libc)").unwrap();
        let first = eval_blueprint(&bp, &ctx).unwrap();
        let second = eval_blueprint(&bp, &ctx).unwrap();
        assert_eq!(first.libraries.len(), 1);
        assert_eq!(second.libraries.len(), 1, "library uses survive caching");
        assert_eq!(first.libraries[0].key, second.libraries[0].key);
    }
}
