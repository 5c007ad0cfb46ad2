//! Planned m-graph evaluation: one walk, one executor.
//!
//! Evaluation splits into two passes. The *planning* pass walks the
//! m-graph depth first — probing the eval cache, counting statistics,
//! recording each subtree's dependency scope and detecting meta-object
//! cycles — and lowers it into a DAG of *work units* (leaf modules,
//! merge/override steps, single-operand operator applications,
//! `source` compiles, dynamic-stub generation), each keyed by the node
//! content hash it will publish. The *execution* pass runs ready units
//! on `jobs` workers with per-worker deques and work stealing. Worker 0
//! is the calling thread, so one lane — what
//! [`eval_blueprint`](crate::eval_blueprint) runs — starts no thread.
//!
//! # Determinism
//!
//! The result depends on the plan only, never on the schedule, so it is
//! byte-identical at every lane count:
//!
//! * merge/override operand order is frozen at plan time — a merge of n
//!   operands is a *chain* of binary steps (merge is not associative:
//!   combined object names and local-symbol uniquification depend on
//!   operand order), so only sibling subtrees run concurrently;
//! * units are numbered in depth-first completion order, so a unit's
//!   dependencies always have smaller ordinals, and on failure the
//!   error with the smallest ordinal — the first one the depth-first
//!   walk meets — is reported;
//! * `lib-dynamic` registrations are chained in discovery (DFS) order
//!   so library ids do not depend on the lane count;
//! * a worker panic is caught per-unit and surfaces as
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

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

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

/// Poison-tolerant lock: a worker panic is already surfaced as
/// [`EvalError::Worker`]; the data under these locks stays valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A single-operand operator applied to (and consuming) its operand's
/// module.
type UnaryFn = Box<dyn Fn(Module) -> Result<Module, ObjError> + Send + Sync>;

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

/// Splits a single-operand operator — a view operator or
/// `initializers` — into its operand and the function it applies to the
/// operand's module.
fn unary(n: &MNode) -> Option<(&MNode, UnaryFn)> {
    match n {
        MNode::View {
            kind,
            pattern,
            replacement,
            operand,
        } => {
            let (kind, p, r) = (*kind, pattern.clone(), replacement.clone());
            Some((operand, Box::new(move |m| m.apply_view(kind, &p, &r))))
        }
        MNode::Initializers(operand) => Some((operand, Box::new(Module::initializers))),
        _ => None,
    }
}

/// A planned work unit.
struct Unit {
    op: Op,
    /// Distinct unit ordinals this one waits for (always smaller than
    /// its own): its operands, plus the previous dynamic-stub unit for
    /// a `DynStubs` op.
    deps: Vec<usize>,
    /// Cache keys (plus their dependency records) this unit's result is
    /// published under when it completes.
    puts: Vec<(ContentHash, Arc<BTreeSet<String>>)>,
}

/// What one work unit looked like, for scheduling and tracing above
/// the blueprint layer (the server prices merges/compiles with its
/// cost model and lays siblings out on simulated worker lanes).
#[derive(Debug, Clone)]
pub struct UnitReport {
    /// Ordinals of the units this one consumed.
    pub deps: Vec<usize>,
    /// Merge/override steps this unit performs (0 or 1).
    pub merges: u64,
    /// `source` compilations this unit performs (0 or 1).
    pub source_compiles: u64,
}

/// The result of a planned evaluation: the [`EvalOutput`] plus the
/// executed work-unit DAG.
#[derive(Debug)]
pub struct ParallelOutput {
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
    /// Dependency scopes mirroring the recursion: `scopes[0]` is the
    /// whole evaluation's record; a deeper entry collects the paths one
    /// cache-missing subtree resolves, becoming that subtree's cache
    /// entry record when it completes (and folding into its parent).
    scopes: Vec<BTreeSet<String>>,
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
            scopes: vec![BTreeSet::new()],
            planned: HashMap::new(),
            units: Vec::new(),
            libraries: Vec::new(),
            last_dyn: None,
        }
    }

    fn record(&mut self, path: &str) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(path.to_string());
    }

    fn fold_deps(&mut self, deps: &BTreeSet<String>) {
        let top = self.scopes.last_mut().expect("scope stack never empty");
        for d in deps {
            top.insert(d.clone());
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
        self.scopes.push(BTreeSet::new());
        let unit = self.plan_node_uncached(n)?;
        let deps = Arc::new(self.scopes.pop().expect("scope pushed above"));
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
            _ => {
                let (operand, apply) = unary(n).expect("every other operator takes one operand");
                let u = self.plan_node(operand)?;
                Ok(self.push_unit(Op::Unary { apply, operand: u }, vec![u]))
            }
        }
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

impl Slot {
    /// Hands the module to one reader: moved out to the last one,
    /// cloned for the others.
    fn read(&mut self) -> Option<Module> {
        self.reads -= 1;
        if self.reads == 0 {
            self.module.take()
        } else {
            self.module.clone()
        }
    }
}

/// Shared state of one execution: result slots, dependency counters,
/// per-worker deques, and the first (smallest-ordinal) error.
struct Exec<'a> {
    units: &'a [Unit],
    ctx: &'a dyn EvalContext,
    slots: Vec<Mutex<Slot>>,
    pending: Vec<AtomicUsize>,
    dependents: Vec<Vec<usize>>,
    queues: Vec<Mutex<VecDeque<usize>>>,
    remaining: AtomicUsize,
    /// Smallest-ordinal failure so far. Units with larger ordinals are
    /// discarded unexecuted once set (their dependents transitively
    /// follow, since dependents always have larger ordinals).
    error: Mutex<Option<(usize, EvalError)>>,
    gate: Mutex<()>,
    cv: Condvar,
    /// Injected-failure hook: the unit ordinal that must panic.
    fail_unit: Option<usize>,
    fail_armed: AtomicBool,
}

impl Exec<'_> {
    /// Runs worker 0 on the calling thread and spawns the rest.
    fn run_workers(&self) {
        std::thread::scope(|s| {
            for w in 1..self.queues.len() {
                s.spawn(move || self.worker(w));
            }
            self.worker(0);
        });
    }

    fn worker(&self, me: usize) {
        loop {
            if self.remaining.load(Ordering::Acquire) == 0 {
                self.cv.notify_all();
                return;
            }
            if let Some(u) = self.pop(me) {
                self.run_unit(u, me);
                continue;
            }
            // Nothing runnable: park until a completion publishes new
            // ready units (timeout bounds any lost-wakeup window).
            let g = lock(&self.gate);
            if self.remaining.load(Ordering::Acquire) == 0 {
                self.cv.notify_all();
                return;
            }
            let _ = self.cv.wait_timeout(g, Duration::from_millis(1));
        }
    }

    /// LIFO from our own deque (locality), FIFO-steal from the others.
    fn pop(&self, me: usize) -> Option<usize> {
        if let Some(u) = lock(&self.queues[me]).pop_back() {
            return Some(u);
        }
        let n = self.queues.len();
        for d in 1..n {
            if let Some(u) = lock(&self.queues[(me + d) % n]).pop_front() {
                return Some(u);
            }
        }
        None
    }

    fn run_unit(&self, u: usize, me: usize) {
        let discard = {
            let err = lock(&self.error);
            matches!(&*err, Some((o, _)) if u > *o)
        };
        if !discard {
            let outcome = catch_unwind(AssertUnwindSafe(|| self.compute(u)));
            match outcome {
                Ok(Ok(m)) => {
                    for (key, deps) in &self.units[u].puts {
                        self.ctx.cache_put(*key, &m, deps);
                    }
                    let mut slot = lock(&self.slots[u]);
                    if slot.reads > 0 {
                        slot.module = Some(m);
                    }
                }
                Ok(Err(e)) => self.set_error(u, e),
                Err(panic) => self.set_error(u, EvalError::Worker(panic_message(&*panic))),
            }
        }
        // Completed or discarded either way: release dependents (they
        // discard themselves if the error precedes them) and wake
        // anyone parked.
        for &d in &self.dependents[u] {
            if self.pending[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                lock(&self.queues[me]).push_back(d);
            }
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        // A lone worker never parks, so there is no one to wake.
        if self.queues.len() > 1 {
            drop(lock(&self.gate));
            self.cv.notify_all();
        }
    }

    fn set_error(&self, u: usize, e: EvalError) {
        let mut err = lock(&self.error);
        match &*err {
            Some((o, _)) if *o <= u => {}
            _ => *err = Some((u, e)),
        }
    }

    /// Reads a completed dependency's module (see [`Slot::read`]).
    fn read(&self, u: usize) -> Module {
        lock(&self.slots[u])
            .read()
            .expect("dependency unit completed")
    }

    fn compute(&self, u: usize) -> Result<Module, EvalError> {
        if self.fail_unit == Some(u) && self.fail_armed.swap(false, Ordering::AcqRel) {
            panic!("injected work-unit panic");
        }
        Ok(match &self.units[u].op {
            Op::Ready(m) => m.clone(),
            Op::MergeStep { a, b } => self.read(*a).merge_with(self.read(*b))?,
            Op::OverrideStep { a, b } => self.read(*a).override_with(self.read(*b))?,
            Op::Unary { apply, operand } => apply(self.read(*operand))?,
            Op::Source { lang, code } => {
                Module::from_object(compile_source(lang, code, "<source>")?)
            }
            Op::DynStubs { operand } => {
                let impl_module = self.read(*operand);
                let key = impl_module.content_hash().with_str("dynamic-impl");
                let lib_id = self.ctx.register_dynamic_impl(key, &impl_module)?;
                let mut exports = impl_module.exports()?;
                exports.sort();
                // The stubs stand in for the implementation, so they
                // carry its interposition record.
                Module::from_object(make_partial_stubs(lib_id, &exports))
                    .with_interpositions(impl_module.interpositions())
            }
        })
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Executes a plan on `workers` lanes. Every other unit's result is
/// released after its last consumer runs; the returned slots hold the
/// modules of the `keep` units (one read reserved per entry), or the
/// smallest-ordinal error.
fn execute(
    units: &[Unit],
    keep: &[usize],
    ctx: &dyn EvalContext,
    workers: usize,
    fail_unit: Option<usize>,
) -> Result<Vec<Slot>, EvalError> {
    let n = units.len();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pending: Vec<AtomicUsize> = Vec::with_capacity(n);
    let mut slots: Vec<Slot> = (0..n).map(|_| Slot::default()).collect();
    for (i, u) in units.iter().enumerate() {
        for &d in &u.deps {
            dependents[d].push(i);
        }
        pending.push(AtomicUsize::new(u.deps.len()));
        for d in u.op.operands() {
            slots[d].reads += 1;
        }
    }
    for &k in keep {
        slots[k].reads += 1;
    }
    let workers = workers.clamp(1, n.max(1));
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    // Seed initially-ready units round-robin, highest ordinal first, so
    // each worker's LIFO pop takes its seeds in ordinal order (at one
    // lane the whole plan then runs in depth-first completion order).
    let ready: Vec<usize> = (0..n)
        .filter(|&i| pending[i].load(Ordering::Relaxed) == 0)
        .collect();
    for (seed, &i) in ready.iter().rev().enumerate() {
        lock(&queues[seed % workers]).push_back(i);
    }
    let exec = Exec {
        units,
        ctx,
        slots: slots.into_iter().map(Mutex::new).collect(),
        pending,
        dependents,
        queues,
        remaining: AtomicUsize::new(n),
        error: Mutex::new(None),
        gate: Mutex::new(()),
        cv: Condvar::new(),
        fail_unit,
        fail_armed: AtomicBool::new(fail_unit.is_some()),
    };
    exec.run_workers();
    if let Some((_, e)) = lock(&exec.error).take() {
        return Err(e);
    }
    Ok(exec
        .slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect())
}

/// Evaluates a blueprint by planning a work-unit DAG and executing it
/// on `jobs` lanes (the calling thread plus `jobs - 1` scoped threads).
/// The output — module bytes, library list, constraints, statistics,
/// and dependency record — is the same at every `jobs`; only wall-clock
/// differs. The unit DAG is reported alongside for the caller's
/// schedule.
pub fn eval_blueprint_parallel(
    bp: &Blueprint,
    ctx: &dyn EvalContext,
    jobs: usize,
) -> Result<ParallelOutput, EvalError> {
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
        execute(&planner.units, &keep, ctx, jobs, fail_unit).map_err(|e| locate_error(e, bp))?;
    let root_unit = plan.map_err(|e| locate_error(e, bp))?;
    let mut take = |u: usize| slots[u].read().expect("kept unit completed");

    let libraries = planner
        .libraries
        .into_iter()
        .map(|(name, unit, constraints)| {
            let module = take(unit);
            LibraryUse {
                name,
                key: module.content_hash(),
                module,
                constraints,
            }
        })
        .collect();
    let module = take(root_unit);
    let mut deps = BTreeSet::new();
    for s in planner.scopes {
        deps.extend(s);
    }
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
    Ok(ParallelOutput {
        output: EvalOutput {
            module,
            libraries,
            constraints: bp.constraints.clone(),
            stats: planner.stats,
            deps,
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
    use super::*;
    use crate::eval::tests::{ls_world, TestCtx};

    /// Evaluates `src` at jobs ∈ {2, 8} and at one lane, each on a fresh
    /// context, asserts the wider runs match the one-lane run, and
    /// returns the one-lane output for the caller's fixed expectations.
    fn eval_at_every_width(src: &str, build: impl Fn() -> TestCtx) -> EvalOutput {
        let bp = Blueprint::parse(src).unwrap();
        let one = eval_blueprint_parallel(&bp, &build(), 1).unwrap().output;
        for jobs in [2, 8] {
            let wide = eval_blueprint_parallel(&bp, &build(), jobs).unwrap().output;
            assert_eq!(
                one.module.content_hash(),
                wide.module.content_hash(),
                "module bytes at jobs={jobs}"
            );
            assert_eq!(one.stats, wide.stats, "stats at jobs={jobs}");
            assert_eq!(one.deps, wide.deps, "deps at jobs={jobs}");
            let libs = |o: &EvalOutput| {
                let uses = o.libraries.iter();
                uses.map(|l| (l.name.clone(), l.key, l.constraints.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(libs(&one), libs(&wide), "libraries at jobs={jobs}");
        }
        one
    }

    fn paths(ps: &[&str]) -> BTreeSet<String> {
        ps.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn every_width_agrees_on_merges_and_views() {
        let out = eval_at_every_width(
            r#"(hide "^_puts$" (merge /obj/ls.o /libc/stdio.o))"#,
            ls_world,
        );
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
    fn every_width_agrees_with_libraries_and_source() {
        let out = eval_at_every_width(
            r#"(merge (source "c" "int undef_var = 0;\n") /obj/ls.o /lib/libc)"#,
            || {
                let mut ctx = ls_world();
                ctx.add_meta(
                    "/lib/libc",
                    "(constraint-list \"T\" 0x1000000)\n(merge /libc/stdio.o)",
                );
                ctx
            },
        );
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
    fn every_width_reports_the_depth_first_error() {
        // /nope fails at plan time; every width reports it, located in
        // the source, ahead of /alsono.
        let bp = Blueprint::parse("(merge /obj/ls.o /nope /alsono)").unwrap();
        for jobs in [1, 2, 8] {
            let err = eval_blueprint_parallel(&bp, &ls_world(), jobs).unwrap_err();
            assert_eq!(
                err,
                EvalError::Resolve("/nope (at bytes 17..22)".into()),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn every_width_detects_meta_cycles_with_full_chain() {
        let mut ctx = TestCtx::default();
        ctx.add_meta("/meta/a", "(merge /meta/b /meta/b)");
        ctx.add_meta("/meta/b", "(merge /meta/a /meta/a)");
        let bp = Blueprint::parse("(merge /meta/a /meta/a)").unwrap();
        for jobs in [1, 2, 8] {
            let err = eval_blueprint_parallel(&bp, &ctx, jobs).unwrap_err();
            assert_eq!(
                err,
                EvalError::Cycle("/meta/a -> /meta/b -> /meta/a (at bytes 7..14)".into()),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn injected_panic_surfaces_as_worker_error_at_every_width() {
        let bp = Blueprint::parse("(merge /obj/ls.o /libc/stdio.o)").unwrap();
        let want = eval_blueprint_parallel(&bp, &ls_world(), 1).unwrap();
        for jobs in [1, 2, 8] {
            let ctx = ls_world();
            testhooks::arm_panic(bp.root.hash());
            let err = eval_blueprint_parallel(&bp, &ctx, jobs).unwrap_err();
            assert!(
                matches!(&err, EvalError::Worker(m) if m.contains("injected")),
                "jobs={jobs}: got {err:?}"
            );
            // The hook is one-shot: the next evaluation succeeds, and the
            // cache was never poisoned by the aborted run.
            let out = eval_blueprint_parallel(&bp, &ctx, jobs).unwrap();
            assert_eq!(
                out.output.module.content_hash(),
                want.output.module.content_hash(),
                "jobs={jobs}"
            );
            assert_eq!(
                out.output.module.exports().unwrap(),
                vec!["_start".to_string(), "_puts".to_string()]
            );
        }
    }

    #[test]
    fn dynamic_registration_follows_discovery_order_at_every_width() {
        let src = r#"(merge /obj/ls.o
            (specialize "lib-dynamic" /libc/stdio.o)
            (specialize "lib-dynamic" /obj/extra.o))"#;
        let bp = Blueprint::parse(src).unwrap();
        for jobs in [1, 2, 8] {
            let mut ctx = ls_world();
            ctx.add_asm("/obj/extra.o", ".text\n.global _extra\n_extra: ret\n");
            eval_blueprint_parallel(&bp, &ctx, jobs).unwrap();
            // Library ids are registration indices: stdio's
            // implementation gets id 0, /obj/extra.o id 1.
            let exports: Vec<Vec<String>> = ctx
                .dynamic
                .lock()
                .unwrap()
                .iter()
                .map(|(_, m)| m.exports().unwrap())
                .collect();
            assert_eq!(
                exports,
                vec![vec!["_puts".to_string()], vec!["_extra".to_string()]],
                "jobs={jobs}"
            );
        }
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
        for jobs in [1, 2, 8] {
            let slots = execute(&planner.units, &[lib, root], &ctx, jobs, None).unwrap();
            let held: Vec<usize> = (0..slots.len())
                .filter(|&u| slots[u].module.is_some())
                .collect();
            // Six leaves (stdio.o's is the library's unit) and a chain
            // of four merge steps: five leaves and three intermediate
            // accumulators were released.
            assert_eq!(slots.len(), 10, "jobs={jobs}");
            assert_eq!(held, vec![lib, root], "jobs={jobs}");
        }
    }
}
