//! Planned m-graph evaluation: one walk, one executor.
//!
//! Evaluation splits into two passes. The *planning* pass walks the
//! m-graph depth first — probing the eval cache, counting statistics,
//! recording each subtree's dependency scope and detecting meta-object
//! cycles — and lowers it into a DAG of *work units* (leaf modules,
//! merge/override steps, single-operand operator applications,
//! `source` compiles, dynamic-stub generation), each keyed by the node
//! content hash it will publish. The *execution* pass runs the units on
//! the calling thread in ordinal order. The server lays the same DAG
//! out on simulated lanes ([`UnitReport`]); no lane is a host thread.
//!
//! # Order
//!
//! * merge/override operand order is frozen at plan time — a merge of n
//!   operands is a *chain* of binary steps (merge is not associative:
//!   combined object names and local-symbol uniquification depend on
//!   operand order);
//! * units are numbered in depth-first completion order, so a unit's
//!   operands always have smaller ordinals and are ready when it runs,
//!   and the first failure is the one with the smallest ordinal — the
//!   first one the depth-first walk meets;
//! * `lib-dynamic` registrations therefore happen in discovery (DFS)
//!   order, so library ids follow the blueprint;
//! * a unit that panics is caught and surfaces as
//!   [`EvalError::Worker`] without poisoning any shared state (caches
//!   only ever receive completed, valid results).
//!
//! A unit's result is released once its last consumer has run: the
//! last reader takes the module itself, and the others a clone. Merge,
//! override and single-operand units take their operands by value, so
//! a merge chain's accumulator reaches each step as the only holder of
//! its object and the step appends into it in place
//! ([`Module::merge_with`]). A long chain holds one accumulator at a
//! time and copies no accumulated bytes; only the root's and the
//! libraries' results survive to the output.

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use omos_constraint::RegionClass;
use omos_link::make_partial_stubs;
use omos_module::Module;
use omos_obj::{ContentHash, ObjError};

use crate::ast::{Blueprint, MNode, SpecKind};
use crate::eval::{
    cycle_chain, locate_error, EvalContext, EvalError, EvalOutput, EvalStats, LibraryUse,
    ResolvedNode,
};
use crate::source::compile_source;

/// A single-operand operator applied to (and consuming) its operand's
/// module.
type UnaryFn = Box<dyn Fn(Module) -> Result<Module, ObjError>>;

/// One schedulable operation, lowered from an m-graph node. Operand
/// indices refer to earlier units in the plan.
enum Op {
    /// A module available at plan time: a resolved leaf object or a
    /// cache hit.
    Ready(Module),
    /// One binary step of a merge chain.
    MergeStep {
        a: usize,
        b: usize,
    },
    /// `override` (conflicts resolve toward `b`).
    OverrideStep {
        a: usize,
        b: usize,
    },
    /// A view operator or `initializers` (see [`unary`]).
    Unary {
        apply: UnaryFn,
        operand: usize,
    },
    Source {
        lang: String,
        code: String,
    },
    /// Register the operand as a `lib-dynamic` implementation and
    /// generate its partial-image stubs (which inherit the operand's
    /// interposition record).
    DynStubs {
        operand: usize,
    },
}

impl Op {
    /// The units whose modules this op reads, once per read.
    fn operands(&self) -> impl Iterator<Item = usize> {
        match *self {
            Op::MergeStep { a, b } | Op::OverrideStep { a, b } => [Some(a), Some(b)],
            Op::Unary { operand, .. } | Op::DynStubs { operand } => [Some(operand), None],
            Op::Ready(_) | Op::Source { .. } => [None, None],
        }
        .into_iter()
        .flatten()
    }
}

/// A planned work unit.
struct Unit {
    op: Op,
    /// Distinct unit ordinals this one depends on (always smaller than
    /// its own): its operands, plus the previous dynamic-stub unit for
    /// a `DynStubs` op. The server's lane schedule honours them.
    deps: Vec<usize>,
    /// Cache keys (plus their dependency records) this unit's result is
    /// published under when it completes.
    puts: Vec<(ContentHash, Arc<BTreeSet<String>>)>,
}

/// What one work unit looked like, for scheduling and tracing above
/// the blueprint layer (the server prices merges/compiles with its
/// cost model and lays siblings out on simulated lanes).
#[derive(Debug, Clone)]
pub struct UnitReport {
    /// Ordinals of the units this one consumed.
    pub deps: Vec<usize>,
    /// Merge/override steps this unit performs (0 or 1).
    pub merges: u64,
    /// `source` compilations this unit performs (0 or 1).
    pub source_compiles: u64,
}

/// An evaluation's output together with the work-unit DAG that
/// produced it.
#[derive(Debug)]
pub struct EvalWithUnits {
    /// Module, libraries, constraints, stats and deps — what
    /// [`eval_blueprint`](crate::eval_blueprint) returns.
    pub output: EvalOutput,
    /// The work-unit DAG, in plan (depth-first completion) order.
    pub units: Vec<UnitReport>,
}

/// A planned library use: name, producing unit, address constraints.
type PlannedLibrary = (String, usize, Vec<(RegionClass, u64)>);

/// The planning pass: walks the m-graph (keeping its statistics and
/// dependency scopes) while lowering every computation into a [`Unit`].
struct Planner<'a> {
    ctx: &'a dyn EvalContext,
    stats: EvalStats,
    visiting: Vec<String>,
    /// The dependency scope being collected: the whole evaluation's
    /// record at the top level; inside a cache-missing subtree, the
    /// paths that subtree resolves, which become its cache entry record
    /// when it completes (and fold into the enclosing scope).
    scope: BTreeSet<String>,
    /// Keys already planned this request, with their unit and
    /// dependency record: a second visit is the in-request analogue of
    /// a cache hit.
    planned: HashMap<ContentHash, (usize, Arc<BTreeSet<String>>)>,
    units: Vec<Unit>,
    /// Library uses in declaration order.
    libraries: Vec<PlannedLibrary>,
    /// Last `lib-dynamic` stub unit, chained so registration order (and
    /// therefore library ids) follows discovery order.
    last_dyn: Option<usize>,
}

impl<'a> Planner<'a> {
    fn new(ctx: &'a dyn EvalContext) -> Planner<'a> {
        Planner {
            ctx,
            stats: EvalStats::default(),
            visiting: Vec::new(),
            scope: BTreeSet::new(),
            planned: HashMap::new(),
            units: Vec::new(),
            libraries: Vec::new(),
            last_dyn: None,
        }
    }

    fn record(&mut self, path: &str) {
        self.scope.insert(path.to_string());
    }

    fn fold_deps(&mut self, deps: &BTreeSet<String>) {
        for d in deps {
            self.scope.insert(d.clone());
        }
    }

    fn push_unit(&mut self, op: Op, mut deps: Vec<usize>) -> usize {
        // A unit may consume the same operand twice (e.g. override of a
        // node with itself); it waits for it once.
        deps.dedup();
        self.units.push(Unit {
            op,
            deps,
            puts: Vec::new(),
        });
        self.units.len() - 1
    }

    fn plan_node(&mut self, n: &MNode) -> Result<usize, EvalError> {
        self.stats.nodes += 1;
        let key = n.hash();
        if let Some((unit, deps)) = self.planned.get(&key) {
            // The subtree's first visit will publish it under this key:
            // count and fold exactly as a cache hit would.
            self.stats.cache_hits += 1;
            let (unit, deps) = (*unit, Arc::clone(deps));
            self.fold_deps(&deps);
            self.plan_collect_library_uses(n)?;
            return Ok(unit);
        }
        if let Some(c) = self.ctx.cache_get(key) {
            // A hit stands on the entry's own dependency record: fold it
            // into the enclosing scope so the result invalidates when any
            // of those paths change.
            self.stats.cache_hits += 1;
            let unit = self.push_unit(Op::Ready(c.module), Vec::new());
            self.fold_deps(&c.deps);
            self.planned.insert(key, (unit, c.deps));
            // Library uses under a cached subtree are re-declared by
            // re-walking only the library-introducing nodes.
            self.plan_collect_library_uses(n)?;
            return Ok(unit);
        }
        let outer = std::mem::take(&mut self.scope);
        let unit = self.plan_node_uncached(n);
        let deps = Arc::new(std::mem::replace(&mut self.scope, outer));
        let unit = unit?;
        self.units[unit].puts.push((key, Arc::clone(&deps)));
        self.fold_deps(&deps);
        self.planned.insert(key, (unit, deps));
        Ok(unit)
    }

    fn plan_node_uncached(&mut self, n: &MNode) -> Result<usize, EvalError> {
        match n {
            MNode::Leaf(path) => self.plan_leaf(path),
            MNode::Merge(items) => {
                let mut acc: Option<usize> = None;
                for it in items {
                    if self.plan_library_candidate(it)? {
                        continue; // recorded as a library use
                    }
                    let u = self.plan_node(it)?;
                    acc = Some(match acc {
                        None => u,
                        Some(a) => {
                            self.stats.merges += 1;
                            self.push_unit(Op::MergeStep { a, b: u }, vec![a, u])
                        }
                    });
                }
                // Every operand was a shared library: the "client" is
                // empty, which is a blueprint bug.
                acc.ok_or_else(|| {
                    EvalError::Misplaced(
                        "merge of only shared libraries produces an empty client".into(),
                    )
                })
            }
            MNode::Override(a, b) => {
                let ua = self.plan_node(a)?;
                let ub = self.plan_node(b)?;
                self.stats.merges += 1;
                Ok(self.push_unit(Op::OverrideStep { a: ua, b: ub }, vec![ua, ub]))
            }
            MNode::Source { lang, code } => {
                self.stats.source_compiles += 1;
                let op = Op::Source {
                    lang: lang.clone(),
                    code: code.clone(),
                };
                Ok(self.push_unit(op, Vec::new()))
            }
            // A constrained specialization evaluated where its module is
            // demanded directly (not under a merge) produces the module;
            // the constraints apply when the server instantiates it
            // standalone.
            MNode::Specialize { kind, operand } => match kind {
                SpecKind::Static | SpecKind::DynamicImpl | SpecKind::Constrained(_) => {
                    self.plan_node(operand)
                }
                SpecKind::Dynamic => {
                    let impl_unit = self.plan_node(operand)?;
                    let mut deps = vec![impl_unit];
                    deps.extend(self.last_dyn);
                    let u = self.push_unit(Op::DynStubs { operand: impl_unit }, deps);
                    self.last_dyn = Some(u);
                    Ok(u)
                }
            },
            MNode::View {
                kind,
                pattern,
                replacement,
                operand,
            } => {
                let (kind, p, r) = (*kind, pattern.clone(), replacement.clone());
                self.plan_unary(operand, Box::new(move |m| m.apply_view(kind, &p, &r)))
            }
            MNode::Initializers(operand) => {
                self.plan_unary(operand, Box::new(Module::initializers))
            }
        }
    }

    /// Plans a single-operand operator — a view operator or
    /// `initializers` — as its operand plus the function it applies to
    /// the operand's module.
    fn plan_unary(&mut self, operand: &MNode, apply: UnaryFn) -> Result<usize, EvalError> {
        let u = self.plan_node(operand)?;
        Ok(self.push_unit(Op::Unary { apply, operand: u }, vec![u]))
    }

    fn plan_leaf(&mut self, path: &str) -> Result<usize, EvalError> {
        self.record(path);
        match self.ctx.resolve(path)? {
            ResolvedNode::Object(obj) => {
                self.stats.leaves += 1;
                Ok(self.push_unit(Op::Ready(Module::from_arc(obj)), Vec::new()))
            }
            ResolvedNode::Meta(bp) => self.plan_meta(path, &bp),
        }
    }

    fn plan_meta(&mut self, path: &str, bp: &Blueprint) -> Result<usize, EvalError> {
        if let Some(pos) = self.visiting.iter().position(|p| p == path) {
            return Err(EvalError::Cycle(cycle_chain(&self.visiting[pos..], path)));
        }
        self.visiting.push(path.to_string());
        let result = self.plan_node(&bp.root);
        self.visiting.pop();
        result
    }

    /// If `n` introduces a self-contained shared library inside a merge,
    /// records the library use and returns `true`.
    fn plan_library_candidate(&mut self, n: &MNode) -> Result<bool, EvalError> {
        match n {
            MNode::Specialize {
                kind: SpecKind::Constrained(cs),
                operand,
            } => {
                let unit = self.plan_node(operand)?;
                self.libraries
                    .push((operand.library_name(), unit, cs.clone()));
                Ok(true)
            }
            MNode::Leaf(path) => {
                // A leaf naming a library-class meta-object (one with a
                // constraint-list) is a self-contained library reference.
                self.record(path);
                match self.ctx.resolve(path)? {
                    ResolvedNode::Meta(bp) if !bp.constraints.is_empty() => {
                        let unit = self.plan_meta(path, &bp)?;
                        self.libraries
                            .push((path.clone(), unit, bp.constraints.clone()));
                        Ok(true)
                    }
                    _ => Ok(false),
                }
            }
            _ => Ok(false),
        }
    }

    /// Re-declares library uses under an already-planned or cached
    /// subtree without re-planning the expensive parts.
    fn plan_collect_library_uses(&mut self, n: &MNode) -> Result<(), EvalError> {
        let in_merge = matches!(n, MNode::Merge(_));
        for c in n.operands() {
            if !(in_merge && self.plan_library_candidate(c)?) {
                self.plan_collect_library_uses(c)?;
            }
        }
        Ok(())
    }
}

/// A unit's result, held until its last reader takes it.
#[derive(Default)]
struct Slot {
    module: Option<Module>,
    /// Reads still to come: one per consuming operand, plus one per
    /// time the caller reads the unit after execution.
    reads: usize,
}

/// Hands unit `u`'s module to one reader: moved out to the last one,
/// cloned for the others. Ordinal order runs every operand before its
/// readers, so an empty slot is a planner bug, reported as an error.
fn read(slots: &mut [Slot], u: usize) -> Result<Module, EvalError> {
    let slot = &mut slots[u];
    slot.reads = slot.reads.saturating_sub(1);
    let module = if slot.reads == 0 {
        slot.module.take()
    } else {
        slot.module.clone()
    };
    module.ok_or_else(|| EvalError::Worker(format!("unit {u} read before it produced a module")))
}

/// Runs one unit, reading its operands out of `slots`; `inject_panic`
/// is the [`testhooks`] failure.
fn compute(
    unit: &Unit,
    slots: &mut [Slot],
    ctx: &dyn EvalContext,
    inject_panic: bool,
) -> Result<Module, EvalError> {
    if inject_panic {
        #[allow(clippy::panic)] // the test hook's whole purpose
        {
            panic!("injected work-unit panic");
        }
    }
    Ok(match &unit.op {
        Op::Ready(m) => m.clone(),
        Op::MergeStep { a, b } => read(slots, *a)?.merge_with(read(slots, *b)?)?,
        Op::OverrideStep { a, b } => read(slots, *a)?.override_with(read(slots, *b)?)?,
        Op::Unary { apply, operand } => apply(read(slots, *operand)?)?,
        Op::Source { lang, code } => Module::from_object(compile_source(lang, code, "<source>")?),
        Op::DynStubs { operand } => {
            let impl_module = read(slots, *operand)?;
            let key = impl_module.content_hash().with_str("dynamic-impl");
            let lib_id = ctx.register_dynamic_impl(key, &impl_module)?;
            let mut exports = impl_module.exports()?;
            exports.sort();
            // The stubs stand in for the implementation, so they
            // carry its interposition record.
            Module::from_object(make_partial_stubs(lib_id, &exports))
                .with_interpositions(impl_module.interpositions())
        }
    })
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "work unit panicked".to_string()
    }
}

/// Executes a plan in ordinal order, publishing each result under its
/// cache keys, and stops at the first failure. Every other unit's
/// result is released after its last consumer runs; the returned slots
/// hold the modules of the `keep` units (one read reserved per entry).
fn execute(
    units: &[Unit],
    keep: &[usize],
    ctx: &dyn EvalContext,
    fail_unit: Option<usize>,
) -> Result<Vec<Slot>, EvalError> {
    let mut slots: Vec<Slot> = units.iter().map(|_| Slot::default()).collect();
    for d in units
        .iter()
        .flat_map(|u| u.op.operands())
        .chain(keep.iter().copied())
    {
        slots[d].reads += 1;
    }
    for (u, unit) in units.iter().enumerate() {
        let run = || compute(unit, &mut slots, ctx, fail_unit == Some(u));
        let module = catch_unwind(AssertUnwindSafe(run))
            .unwrap_or_else(|panic| Err(EvalError::Worker(panic_message(&*panic))))?;
        for (key, deps) in &unit.puts {
            ctx.cache_put(*key, &module, deps);
        }
        if slots[u].reads > 0 {
            slots[u].module = Some(module);
        }
    }
    Ok(slots)
}

/// Evaluates a blueprint by planning a work-unit DAG and running it in
/// ordinal order on the calling thread. Returns the output — module
/// bytes, library list, constraints, statistics and dependency record —
/// with the unit DAG, which the caller lays out on its simulated lanes.
pub fn eval_blueprint_with_units(
    bp: &Blueprint,
    ctx: &dyn EvalContext,
) -> Result<EvalWithUnits, EvalError> {
    let mut planner = Planner::new(ctx);
    let plan = planner.plan_node(&bp.root);
    let fail_unit = testhooks::take_if(bp.root.hash()).then_some(planner.units.len() / 2);
    let keep: Vec<usize> = planner
        .libraries
        .iter()
        .map(|(_, unit, _)| *unit)
        .chain(plan.as_ref().ok().copied())
        .collect();
    // Execute what was planned even when planning itself failed
    // partway: every unit emitted before the plan error is work the
    // depth-first walk *completes* before reaching the error's
    // position. If one of those units fails, that failure comes first
    // and must be the one reported.
    let mut slots =
        execute(&planner.units, &keep, ctx, fail_unit).map_err(|e| locate_error(e, bp))?;
    let root_unit = plan.map_err(|e| locate_error(e, bp))?;

    let mut libraries = Vec::with_capacity(planner.libraries.len());
    for (name, unit, constraints) in planner.libraries {
        let module = read(&mut slots, unit)?;
        libraries.push(LibraryUse {
            name,
            key: module.content_hash(),
            module,
            constraints,
        });
    }
    let module = read(&mut slots, root_unit)?;
    let units = planner
        .units
        .into_iter()
        .map(|u| UnitReport {
            merges: u64::from(matches!(
                u.op,
                Op::MergeStep { .. } | Op::OverrideStep { .. }
            )),
            source_compiles: u64::from(matches!(u.op, Op::Source { .. })),
            deps: u.deps,
        })
        .collect();
    Ok(EvalWithUnits {
        output: EvalOutput {
            module,
            libraries,
            constraints: bp.constraints.clone(),
            stats: planner.stats,
            deps: planner.scope,
        },
        units,
    })
}

/// Test-only failure injection, compiled in but inert unless armed.
#[doc(hidden)]
pub mod testhooks {
    use omos_obj::ContentHash;
    use std::cell::Cell;

    thread_local! {
        static FAIL_EVAL_OF: Cell<Option<ContentHash>> = const { Cell::new(None) };
    }

    /// Arms a one-shot injected panic: the next evaluation started on
    /// this thread whose root node hashes to `root_key` panics inside
    /// one of its work units. Evaluations on other threads never see
    /// it.
    pub fn arm_panic(root_key: ContentHash) {
        FAIL_EVAL_OF.set(Some(root_key));
    }

    pub(crate) fn take_if(root_key: ContentHash) -> bool {
        let armed = FAIL_EVAL_OF.get() == Some(root_key);
        if armed {
            FAIL_EVAL_OF.set(None);
        }
        armed
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::eval::tests::{ls_world, TestCtx};

    fn eval(src: &str, ctx: &TestCtx) -> Result<EvalWithUnits, EvalError> {
        eval_blueprint_with_units(&Blueprint::parse(src).unwrap(), ctx)
    }

    fn paths(ps: &[&str]) -> BTreeSet<String> {
        ps.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn merges_and_views() {
        let out = eval(
            r#"(hide "^_puts$" (merge /obj/ls.o /libc/stdio.o))"#,
            &ls_world(),
        )
        .unwrap()
        .output;
        let want = EvalStats {
            nodes: 4,
            cache_hits: 0,
            merges: 1,
            source_compiles: 0,
            leaves: 2,
        };
        assert_eq!(out.stats, want);
        assert_eq!(out.deps, paths(&["/libc/stdio.o", "/obj/ls.o"]));
        assert_eq!(out.module.exports().unwrap(), vec!["_start".to_string()]);
        assert!(out.module.free_references().unwrap().is_empty());
    }

    #[test]
    fn libraries_and_source() {
        let mut ctx = ls_world();
        ctx.add_meta(
            "/lib/libc",
            "(constraint-list \"T\" 0x1000000)\n(merge /libc/stdio.o)",
        );
        let out = eval(
            r#"(merge (source "c" "int undef_var = 0;\n") /obj/ls.o /lib/libc)"#,
            &ctx,
        )
        .unwrap()
        .output;
        let want = EvalStats {
            nodes: 5,
            cache_hits: 0,
            merges: 1,
            source_compiles: 1,
            leaves: 2,
        };
        assert_eq!(out.stats, want);
        assert_eq!(
            out.deps,
            paths(&["/lib/libc", "/libc/stdio.o", "/obj/ls.o"])
        );
        assert_eq!(out.libraries.len(), 1);
        assert_eq!(out.libraries[0].name, "/lib/libc");
        assert_eq!(
            out.libraries[0].constraints,
            vec![(RegionClass::Text, 0x100_0000)]
        );
        assert_eq!(
            out.module.free_references().unwrap(),
            vec!["_puts".to_string()]
        );
    }

    #[test]
    fn reports_the_depth_first_error() {
        // /nope fails at plan time; it is reported, located in the
        // source, ahead of /alsono.
        let err = eval("(merge /obj/ls.o /nope /alsono)", &ls_world()).unwrap_err();
        assert_eq!(err, EvalError::Resolve("/nope (at bytes 17..22)".into()));
    }

    #[test]
    fn detects_meta_cycles_with_full_chain() {
        let mut ctx = TestCtx::default();
        ctx.add_meta("/meta/a", "(merge /meta/b /meta/b)");
        ctx.add_meta("/meta/b", "(merge /meta/a /meta/a)");
        let err = eval("(merge /meta/a /meta/a)", &ctx).unwrap_err();
        assert_eq!(
            err,
            EvalError::Cycle("/meta/a -> /meta/b -> /meta/a (at bytes 7..14)".into())
        );
    }

    #[test]
    fn injected_panic_surfaces_as_worker_error() {
        let bp = Blueprint::parse("(merge /obj/ls.o /libc/stdio.o)").unwrap();
        let want = eval_blueprint_with_units(&bp, &ls_world()).unwrap();
        let ctx = ls_world();
        testhooks::arm_panic(bp.root.hash());
        let err = eval_blueprint_with_units(&bp, &ctx).unwrap_err();
        assert!(
            matches!(&err, EvalError::Worker(m) if m.contains("injected")),
            "got {err:?}"
        );
        // The hook is one-shot: the next evaluation succeeds, and the
        // cache was never poisoned by the aborted run.
        let out = eval_blueprint_with_units(&bp, &ctx).unwrap();
        assert_eq!(
            out.output.module.content_hash(),
            want.output.module.content_hash()
        );
        assert_eq!(
            out.output.module.exports().unwrap(),
            vec!["_start".to_string(), "_puts".to_string()]
        );
    }

    #[test]
    fn dynamic_registration_follows_discovery_order() {
        let mut ctx = ls_world();
        ctx.add_asm("/obj/extra.o", ".text\n.global _extra\n_extra: ret\n");
        let src = r#"(merge /obj/ls.o
            (specialize "lib-dynamic" /libc/stdio.o)
            (specialize "lib-dynamic" /obj/extra.o))"#;
        eval(src, &ctx).unwrap();
        // Library ids are registration indices: stdio's implementation
        // gets id 0, /obj/extra.o id 1.
        let exports: Vec<Vec<String>> = ctx
            .dynamic
            .lock()
            .unwrap()
            .iter()
            .map(|(_, m)| m.exports().unwrap())
            .collect();
        assert_eq!(
            exports,
            vec![vec!["_puts".to_string()], vec!["_extra".to_string()]]
        );
    }

    #[test]
    fn executor_releases_results_after_their_last_consumer() {
        let mut ctx = ls_world();
        ctx.add_meta(
            "/lib/libc",
            "(constraint-list \"T\" 0x1000000)\n(merge /libc/stdio.o)",
        );
        for i in 0..4 {
            ctx.add_asm(
                &format!("/obj/f{i}.o"),
                &format!(".text\n.global _f{i}\n_f{i}: ret\n"),
            );
        }
        let bp =
            Blueprint::parse("(merge /obj/ls.o /obj/f0.o /obj/f1.o /lib/libc /obj/f2.o /obj/f3.o)")
                .unwrap();
        let mut planner = Planner::new(&ctx);
        let root = planner.plan_node(&bp.root).unwrap();
        let lib = planner.libraries[0].1;
        let slots = execute(&planner.units, &[lib, root], &ctx, None).unwrap();
        let held: Vec<usize> = (0..slots.len())
            .filter(|&u| slots[u].module.is_some())
            .collect();
        // Six leaves (stdio.o's is the library's unit) and a chain of
        // four merge steps: five leaves and three intermediate
        // accumulators were released.
        assert_eq!(slots.len(), 10);
        assert_eq!(held, vec![lib, root]);
    }
}
