//! The symbolic m-graph executor behind [`analyze_blueprint`].
//!
//! Every node of the m-graph folds to a [`NodeState`]: a *skeleton*
//! object file carrying the real symbol table and relocation records
//! over zero-byte sections (section sizes are kept, so address
//! footprints stay computable). Operators are applied with the actual
//! view-op implementation ([`apply_view_op`]) and merges replay the
//! symbol-table upgrade rules — analysis and evaluation cannot disagree
//! about names, only about bytes, which analysis never touches.

use std::collections::HashMap;

use omos_blueprint::{Blueprint, MNode, Span, SpecKind};
use omos_constraint::RegionClass;
use omos_link::make_partial_stubs;
use omos_module::{generate_initializers, qualify_locals, rename_locals};
use omos_obj::view::{apply_view_op, ViewKind, ViewOp};
use omos_obj::{
    ObjError, ObjectFile, Regex, Relocation, Section, SectionKind, Symbol, SymbolBinding, SymbolDef,
};

use crate::{Diagnostic, LintContext, LintResolved, Severity};

/// Analyzes a blueprint without materializing any view, returning every
/// finding sorted by source position.
pub fn analyze_blueprint(bp: &Blueprint, ctx: &mut dyn LintContext) -> Vec<Diagnostic> {
    analyze_blueprint_report(bp, ctx).diagnostics
}

/// The findings plus the interpositions the symbolic walk predicts.
/// The manifest takes its interpositions from the evaluation itself
/// ([`crate::manifest::interpositions_of`]); this list is the
/// independent prediction the oracle tests hold that record to.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Every finding, sorted by source position.
    pub diagnostics: Vec<Diagnostic>,
    /// Symbols replaced by an `override` conflict, in occurrence order
    /// (sort and deduplicate to compare with a manifest).
    pub interpositions: Vec<String>,
}

/// [`analyze_blueprint`] plus the interpositions the walk predicts.
pub fn analyze_blueprint_report(bp: &Blueprint, ctx: &mut dyn LintContext) -> AnalysisReport {
    let mut a = Analyzer {
        ctx,
        bp,
        diags: Vec::new(),
        libs: Vec::new(),
        interpositions: Vec::new(),
        ref_origins: HashMap::new(),
        leaf_sites: Vec::new(),
        visiting: Vec::new(),
        meta_span: None,
        meta_depth: 0,
        hidden: 0,
    };
    let mut path = Vec::new();
    let root = a.node(&bp.root, &mut path);
    a.finish(root);
    let mut diags = a.diags;
    diags.sort_by_key(|d| (d.span.map_or(usize::MAX, |s| s.start), d.code));
    AnalysisReport {
        diagnostics: diags,
        interpositions: a.interpositions.into_iter().map(|(n, _)| n).collect(),
    }
}

/// The symbol-flow summary of one m-graph subtree.
struct NodeState {
    /// Skeleton object: real symbols and relocations, zero-byte sections
    /// (sizes preserved).
    obj: ObjectFile,
    /// True when an unresolved path or cycle degraded this subtree —
    /// downstream detectors that would cascade are suppressed.
    poisoned: bool,
    /// The local-qualification counter a merge or override left, as on
    /// the evaluator's `Module`; every other node drops it.
    chain: Option<usize>,
}

impl NodeState {
    fn empty(poisoned: bool) -> NodeState {
        NodeState::of(ObjectFile::new("<missing>"), poisoned)
    }

    fn of(obj: ObjectFile, poisoned: bool) -> NodeState {
        NodeState {
            obj,
            poisoned,
            chain: None,
        }
    }
}

/// A shared-library reference discovered under a merge.
struct LibInfo {
    name: String,
    exports: Vec<String>,
    constraints: Vec<(RegionClass, u64)>,
    text: u64,
    data: u64,
    span: Option<Span>,
}

struct Analyzer<'a> {
    ctx: &'a mut dyn LintContext,
    bp: &'a Blueprint,
    diags: Vec<Diagnostic>,
    libs: Vec<LibInfo>,
    /// `override` conflicts: (symbol, override-node span) — checked for
    /// references once the whole graph has folded.
    interpositions: Vec<(String, Option<Span>)>,
    /// First node that left each name as a free reference.
    ref_origins: HashMap<String, Option<Span>>,
    /// Every namespace-path resolution the walk performed, one entry
    /// per m-graph site (OM014: each site is a separate read of mutable
    /// namespace state, so ≥2 sites form a generation-race window).
    leaf_sites: Vec<(String, Option<Span>)>,
    /// Meta-object paths on the resolution stack (cycle detection).
    visiting: Vec<String>,
    /// Inside a referenced meta-object, all findings point at the leaf
    /// that pulled it in (the meta's own source is not ours to span).
    meta_span: Option<Span>,
    meta_depth: usize,
    hidden: usize,
}

impl Analyzer<'_> {
    fn span_at(&self, path: &[u32]) -> Option<Span> {
        if self.meta_depth > 0 {
            self.meta_span
        } else {
            self.bp.spans.get(path)
        }
    }

    fn emit(
        &mut self,
        severity: Severity,
        code: &'static str,
        message: String,
        span: Option<Span>,
    ) {
        let message = match self.visiting.last() {
            Some(meta) if self.meta_depth > 0 => format!("in meta-object `{meta}`: {message}"),
            _ => message,
        };
        self.diags.push(Diagnostic {
            severity,
            code,
            message,
            span,
        });
    }

    fn node(&mut self, n: &MNode, path: &mut Vec<u32>) -> NodeState {
        let st = self.node_inner(n, path);
        // Attribute each free reference to the deepest node that first
        // exposed it: a leaf for ordinary externs, the operator itself
        // for refs created by `restrict`/`rename-defs`/... .
        let span = self.span_at(path);
        for s in st.obj.symbols.undefined() {
            self.ref_origins.entry(s.name.clone()).or_insert(span);
        }
        st
    }

    fn node_inner(&mut self, n: &MNode, path: &mut Vec<u32>) -> NodeState {
        let span = self.span_at(path);
        match n {
            MNode::Leaf(p) => {
                // Only the request's own graph races a rebind directly;
                // a referenced meta-object's internal leaves resolve
                // under its single outer lookup.
                if self.meta_depth == 0 {
                    self.leaf_sites.push((p.clone(), span));
                }
                match self.ctx.resolve(p) {
                    LintResolved::Object(o) => NodeState::of(skeleton(&o), false),
                    LintResolved::Meta(bp2) => self.meta(p, &bp2, span),
                    LintResolved::Missing => {
                        self.emit(
                            Severity::Error,
                            "OM001",
                            format!("namespace path `{p}` does not resolve"),
                            span,
                        );
                        NodeState::empty(true)
                    }
                }
            }
            MNode::Merge(items) => self.merge(items, path, span),
            MNode::Override(a, b) => {
                let sa = self.descend(a, path, 0);
                let sb = self.descend(b, path, 1);
                self.override_fold(sa, sb, span)
            }
            MNode::View {
                kind,
                pattern,
                replacement,
                operand,
            } => {
                let st = self.descend(operand, path, 0);
                let Some(re) = self.regex(pattern, span) else {
                    return st;
                };
                self.check_pattern(&st, &re, *kind, span);
                let op = ViewOp {
                    kind: *kind,
                    pattern: re,
                    replacement: replacement.clone(),
                };
                self.apply(st, op, span)
            }
            MNode::Initializers(o) => {
                let st = self.descend(o, path, 0);
                self.initializers(st, span)
            }
            MNode::Source { lang, code } => {
                match omos_blueprint::compile_source(lang, code, "<source>") {
                    Ok(obj) => NodeState::of(skeleton(&obj), false),
                    Err(e) => {
                        self.emit(
                            Severity::Error,
                            "OM011",
                            format!("source operand does not compile: {e}"),
                            span,
                        );
                        NodeState::empty(true)
                    }
                }
            }
            MNode::Specialize { kind, operand } => {
                let st = self.descend(operand, path, 0);
                match kind {
                    // Constrained in a non-merge position evaluates to its
                    // operand (constraints apply when instantiated
                    // standalone); so do static and dynamic-impl.
                    SpecKind::Static | SpecKind::DynamicImpl | SpecKind::Constrained(_) => st,
                    SpecKind::Dynamic => {
                        // The evaluator replaces the operand with generated
                        // stubs that define exactly its exports.
                        let mut exports = exported(&st.obj);
                        exports.sort();
                        NodeState::of(skeleton(&make_partial_stubs(0, &exports)), st.poisoned)
                    }
                }
            }
        }
    }

    fn descend(&mut self, n: &MNode, path: &mut Vec<u32>, i: u32) -> NodeState {
        path.push(i);
        let st = self.node(n, path);
        path.pop();
        st
    }

    /// Analyzes a referenced meta-object, guarding against cycles.
    fn meta(&mut self, name: &str, bp2: &Blueprint, outer_span: Option<Span>) -> NodeState {
        if self.visiting.iter().any(|v| v == name) {
            self.emit(
                Severity::Error,
                "OM004",
                format!("meta-object cycle through `{name}`"),
                outer_span,
            );
            return NodeState::empty(true);
        }
        self.visiting.push(name.to_string());
        let saved = self.meta_span;
        self.meta_span = outer_span.or(saved);
        self.meta_depth += 1;
        let mut path = Vec::new();
        let st = self.node(&bp2.root, &mut path);
        self.meta_depth -= 1;
        self.meta_span = saved;
        self.visiting.pop();
        st
    }

    fn merge(&mut self, items: &[MNode], path: &mut Vec<u32>, span: Option<Span>) -> NodeState {
        let mut acc: Option<NodeState> = None;
        let mut lib_count = 0usize;
        for (i, item) in items.iter().enumerate() {
            let item_span = {
                path.push(i as u32);
                let s = self.span_at(path);
                path.pop();
                s
            };
            if let Some(lib) = self.library_candidate(item, path, i as u32, item_span) {
                self.libs.push(lib);
                lib_count += 1;
                continue;
            }
            let st = self.descend(item, path, i as u32);
            acc = Some(match acc {
                None => st,
                Some(mut a) => {
                    self.fuse(&mut a, st, false, item_span);
                    a
                }
            });
        }
        match acc {
            Some(a) => a,
            None => {
                if lib_count > 0 {
                    self.emit(
                        Severity::Error,
                        "OM009",
                        "merge of only shared libraries produces an empty client".to_string(),
                        span,
                    );
                }
                NodeState::empty(true)
            }
        }
    }

    /// Recognizes the two forms that become shared-library references
    /// inside a merge (mirroring the evaluator's `library_candidate`).
    fn library_candidate(
        &mut self,
        n: &MNode,
        path: &mut Vec<u32>,
        i: u32,
        span: Option<Span>,
    ) -> Option<LibInfo> {
        match n {
            MNode::Specialize {
                kind: SpecKind::Constrained(cs),
                operand,
            } => {
                path.push(i);
                let st = self.descend(operand, path, 0);
                path.pop();
                Some(self.lib_info(operand.library_name(), &st, cs.clone(), span))
            }
            MNode::Leaf(p) => match self.ctx.resolve(p) {
                LintResolved::Meta(bp2) if !bp2.constraints.is_empty() => {
                    // This site never reaches `node_inner` (the merge
                    // consumes it as a library), so record it here.
                    if self.meta_depth == 0 {
                        self.leaf_sites.push((p.clone(), span));
                    }
                    let st = self.meta(p, &bp2, span);
                    Some(self.lib_info(p.clone(), &st, bp2.constraints.clone(), span))
                }
                _ => None,
            },
            _ => None,
        }
    }

    fn lib_info(
        &mut self,
        name: String,
        st: &NodeState,
        constraints: Vec<(RegionClass, u64)>,
        span: Option<Span>,
    ) -> LibInfo {
        LibInfo {
            name,
            exports: exported(&st.obj),
            text: st.obj.size_of_kind(SectionKind::Text) + st.obj.size_of_kind(SectionKind::RoData),
            data: st.obj.size_of_kind(SectionKind::Data) + st.obj.size_of_kind(SectionKind::Bss),
            constraints,
            span,
        }
    }

    /// Folds `src` into `dst` under merge (`override_conflicts: false`)
    /// or override (`true`) rules, mirroring the module combiner: locals
    /// are qualified by the combiner's own rule ([`qualify_locals`],
    /// continuing the counter `dst` carries), sections are appended
    /// (keeping the footprint right), symbol entries replay the insert
    /// upgrade rules.
    fn fuse(
        &mut self,
        dst: &mut NodeState,
        mut src: NodeState,
        override_conflicts: bool,
        span: Option<Span>,
    ) {
        // Fresh names never collide with one another or with a name in
        // either table, so qualifying cannot fail.
        let (fresh, next) =
            qualify_locals(&mut dst.obj, dst.chain, &src.obj.symbols).unwrap_or_default();
        let _ = rename_locals(&mut src.obj, fresh);
        dst.chain = Some(next);
        let base = dst.obj.sections.len();
        dst.obj.sections.append(&mut src.obj.sections);
        for sym in src.obj.symbols.iter() {
            let mut s = sym.clone();
            if let SymbolDef::Defined { section, offset } = s.def {
                s.def = SymbolDef::Defined {
                    section: section + base,
                    offset,
                };
            }
            let conflict = override_conflicts
                && matches!(
                    (
                        dst.obj.symbols.get(&s.name).map(|e| e.def.is_definition()),
                        s.def.is_definition()
                    ),
                    (Some(true), true)
                );
            if conflict {
                self.interpositions.push((s.name.clone(), span));
                dst.obj.symbols.insert_override(s);
            } else if let Err(ObjError::DuplicateSymbol(name)) = dst.obj.symbols.insert(s.clone()) {
                self.emit(
                    Severity::Error,
                    "OM003",
                    format!("merge would reject duplicate definition of `{name}`"),
                    span,
                );
                // Recover so the rest of the graph still gets analyzed.
                dst.obj.symbols.insert_override(s);
            }
        }
        dst.obj
            .relocs
            .extend(src.obj.relocs.into_iter().map(|r| Relocation {
                section: r.section + base,
                ..r
            }));
        dst.poisoned |= src.poisoned;
    }

    fn override_fold(&mut self, mut a: NodeState, b: NodeState, span: Option<Span>) -> NodeState {
        self.fuse(&mut a, b, true, span);
        a
    }

    fn regex(&mut self, pattern: &str, span: Option<Span>) -> Option<Regex> {
        match Regex::new(pattern) {
            Ok(re) => Some(re),
            Err(e) => {
                self.emit(
                    Severity::Error,
                    "OM010",
                    format!("unparseable symbol pattern `{pattern}`: {e}"),
                    span,
                );
                None
            }
        }
    }

    /// Dead-pattern (OM005) and frozen-name (OM007) checks, before the
    /// operation is applied.
    fn check_pattern(&mut self, st: &NodeState, re: &Regex, kind: ViewKind, span: Option<Span>) {
        let (op, role) = match kind {
            ViewKind::Rename(_) => ("rename", PatternRole::AnySymbol),
            ViewKind::Hide => ("hide", PatternRole::SkipsFrozenDefs),
            ViewKind::Show => ("show", PatternRole::KeepsDefs),
            ViewKind::Restrict => ("restrict", PatternRole::SkipsFrozenDefs),
            ViewKind::Project => ("project", PatternRole::KeepsDefs),
            ViewKind::CopyAs => ("copy_as", PatternRole::AnyDef),
            ViewKind::Freeze => ("freeze", PatternRole::AnySymbol),
        };
        if st.poisoned {
            return; // symbols are incomplete; anything we said would cascade
        }
        let matches_def = |s: &Symbol| {
            s.def.is_definition() && s.binding != SymbolBinding::Local && re.is_match(&s.name)
        };
        let selected = |s: &Symbol| match role {
            PatternRole::AnySymbol => re.is_match(&s.name),
            _ => matches_def(s),
        };
        let matched = st.obj.symbols.iter().any(selected);
        let frozen_hit = match role {
            PatternRole::AnySymbol | PatternRole::SkipsFrozenDefs => st
                .obj
                .symbols
                .iter()
                .find(|s| s.frozen && selected(s))
                .map(|s| s.name.clone()),
            PatternRole::AnyDef | PatternRole::KeepsDefs => None,
        };
        if !matched {
            let consequence = match role {
                PatternRole::KeepsDefs => " — every definition in the operand would be dropped",
                _ => "; the operation does nothing",
            };
            self.emit(
                Severity::Warning,
                "OM005",
                format!(
                    "`{op}` pattern `{}` matches no symbols{consequence}",
                    re.pattern()
                ),
                span,
            );
        } else if let Some(name) = frozen_hit {
            // `freeze` on an already-frozen name is a harmless no-op, so
            // AnySymbol only reaches here for rename.
            if kind != ViewKind::Freeze {
                self.emit(
                    Severity::Warning,
                    "OM007",
                    format!(
                        "`{op}` pattern `{}` matches frozen symbol `{name}`, which the operation skips",
                        re.pattern()
                    ),
                    span,
                );
            }
        }
    }

    fn apply(&mut self, mut st: NodeState, op: ViewOp, span: Option<Span>) -> NodeState {
        st.chain = None;
        if let Err(e) = apply_view_op(&mut st.obj, &op, &mut self.hidden) {
            match e {
                ObjError::DuplicateSymbol(name) => self.emit(
                    Severity::Error,
                    "OM003",
                    format!("operation would create a duplicate definition of `{name}`"),
                    span,
                ),
                other => self.emit(
                    Severity::Error,
                    "OM011",
                    format!("operation fails: {other}"),
                    span,
                ),
            }
        }
        st
    }

    /// `initializers`: runs the real generator over the skeleton (it only
    /// reads the symbol table and emits a handful of instructions) and
    /// fuses the result, so `__static_init` collisions surface here too.
    /// Like the evaluator's, the fuse starts no chain and continues none.
    fn initializers(&mut self, mut st: NodeState, span: Option<Span>) -> NodeState {
        st.chain = None;
        match generate_initializers(&st.obj) {
            Ok(init) => {
                self.fuse(&mut st, NodeState::of(skeleton(&init), false), false, span);
                st.chain = None;
                st
            }
            Err(e) => {
                self.emit(
                    Severity::Error,
                    "OM011",
                    format!("initializers generation fails: {e}"),
                    span,
                );
                st
            }
        }
    }

    /// End-of-graph detectors: unresolved references (OM002),
    /// never-referenced interpositions (OM006), and constraint-region
    /// overlaps (OM008).
    fn finish(&mut self, root: NodeState) {
        // OM002 — free references nothing defines. Suppressed when a
        // resolution failure already poisoned the graph: every symbol of
        // the missing operand would show up here as noise.
        if !root.poisoned {
            let mut free: Vec<&Symbol> = root.obj.symbols.undefined().collect();
            free.sort_by(|a, b| a.name.cmp(&b.name));
            for s in free {
                let satisfied = self.libs.iter().any(|l| l.exports.contains(&s.name));
                if !satisfied {
                    let span = self.ref_origins.get(&s.name).copied().flatten();
                    self.emit(
                        Severity::Error,
                        "OM002",
                        format!(
                            "reference to `{}` is not defined by any operand or library export",
                            s.name
                        ),
                        span,
                    );
                }
            }
        }

        // OM006 — an override replaced a definition nobody references:
        // the interposition cannot be observed. (The list itself is kept:
        // it is the report's interposition prediction.)
        let candidates = self.interpositions.clone();
        for (name, span) in candidates {
            let referenced = root.obj.relocs.iter().any(|r| r.symbol == name);
            if !referenced {
                self.emit(
                    Severity::Warning,
                    "OM006",
                    format!("override replaces `{name}`, but nothing references it"),
                    span,
                );
            }
        }

        // OM008 — address-constraint regions that overlap. Mirrors the
        // server's segment sizing (text+rodata / data+bss, page-rounded)
        // so the warning fires exactly when the solver would see
        // conflicting preferred placements.
        let mut regions: Vec<(RegionClass, u64, u64, String, Option<Span>)> = Vec::new();
        for (i, (class, addr)) in self.bp.constraints.iter().enumerate() {
            let size = match class {
                RegionClass::Text => {
                    root.obj.size_of_kind(SectionKind::Text)
                        + root.obj.size_of_kind(SectionKind::RoData)
                }
                RegionClass::Data => {
                    root.obj.size_of_kind(SectionKind::Data)
                        + root.obj.size_of_kind(SectionKind::Bss)
                }
                // Audit counters occupy one page regardless of program
                // shape; the `.max(1)` below rounds this up to it.
                RegionClass::PolicyData => 0,
            };
            regions.push((
                *class,
                *addr,
                *addr + round_page(size.max(1)),
                "<client>".to_string(),
                self.bp.constraint_spans.get(i).copied(),
            ));
        }
        for lib in &self.libs {
            for (class, addr) in &lib.constraints {
                let size = match class {
                    RegionClass::Text => lib.text,
                    RegionClass::Data => lib.data,
                    RegionClass::PolicyData => 0,
                };
                regions.push((
                    *class,
                    *addr,
                    *addr + round_page(size.max(1)),
                    lib.name.clone(),
                    lib.span,
                ));
            }
        }
        let mut overlaps = Vec::new();
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                let (ca, sa, ea, ref na, _) = regions[i];
                let (cb, sb, eb, ref nb, span_b) = regions[j];
                if ca == cb && sa < eb && sb < ea {
                    overlaps.push((
                        format!(
                            "{:?} constraint regions of `{na}` ({sa:#x}..{ea:#x}) and `{nb}` ({sb:#x}..{eb:#x}) overlap",
                            ca
                        ),
                        span_b.or(regions[i].4),
                    ));
                }
            }
        }
        for (msg, span) in overlaps {
            self.emit(Severity::Warning, "OM008", msg, span);
        }

        // OM012 — the same symbol exported by more than one library:
        // the first-definition-wins extern fold makes the binding
        // depend on operand order, so the resolution is ambiguous.
        let mut providers: Vec<(String, Vec<String>, Option<Span>)> = Vec::new();
        for lib in &self.libs {
            for e in &lib.exports {
                match providers.iter_mut().find(|(s, _, _)| s == e) {
                    Some((_, who, _)) => who.push(lib.name.clone()),
                    None => providers.push((e.clone(), vec![lib.name.clone()], lib.span)),
                }
            }
        }
        providers.sort_by(|a, b| a.0.cmp(&b.0));
        for (sym, who, span) in providers {
            if who.len() >= 2 {
                self.emit(
                    Severity::Warning,
                    "OM012",
                    format!(
                        "symbol `{sym}` is exported by {} libraries ({}); the binding follows operand order",
                        who.len(),
                        who.join(", ")
                    ),
                    span,
                );
            }
        }

        // OM013 — interposition-order sensitivity: a symbol interposed
        // more than once, or interposed *and* exported by a library —
        // either way the effective definition depends on the order the
        // operations (or the extern fold) are applied in.
        let mut findings: Vec<(String, Option<Span>)> = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        for (name, span) in &self.interpositions {
            if seen.contains(&name.as_str()) {
                continue;
            }
            seen.push(name);
            let times = self
                .interpositions
                .iter()
                .filter(|(n, _)| n == name)
                .count();
            if times >= 2 {
                findings.push((
                    format!("`{name}` is interposed {times} times; the surviving definition depends on override order"),
                    *span,
                ));
            }
            if let Some(lib) = self.libs.iter().find(|l| l.exports.contains(name)) {
                findings.push((
                    format!(
                        "`{name}` is interposed and also exported by library `{}`; the binding depends on interposition order",
                        lib.name
                    ),
                    *span,
                ));
            }
        }
        for (msg, span) in findings {
            self.emit(Severity::Warning, "OM013", msg, span);
        }

        // OM014 — a namespace path resolved at several m-graph sites:
        // each site is an independent read of mutable namespace state,
        // so a concurrent rebind between the reads yields a torn graph
        // (one site sees the old generation, another the new).
        let mut sites: Vec<(String, usize, Option<Span>)> = Vec::new();
        for (path, span) in &self.leaf_sites {
            match sites.iter_mut().find(|(p, _, _)| p == path) {
                Some((_, n, _)) => *n += 1,
                None => sites.push((path.clone(), 1, *span)),
            }
        }
        sites.sort_by(|a, b| a.0.cmp(&b.0));
        for (path, n, span) in sites {
            if n >= 2 {
                self.emit(
                    Severity::Warning,
                    "OM014",
                    format!(
                        "namespace path `{path}` is resolved at {n} sites; a rebind concurrent with instantiation can produce a torn graph"
                    ),
                    span,
                );
            }
        }

        // OM015 — a library without a pinned base for one of its
        // segment classes: placement falls back to first-fit, which
        // depends on the server's prior request history, so the layout
        // (and every manifest hashing it) is unstable across runs.
        let mut unpinned: Vec<(String, Option<Span>)> = Vec::new();
        for lib in &self.libs {
            for class in [RegionClass::Text, RegionClass::Data] {
                if !lib.constraints.iter().any(|(c, _)| *c == class) {
                    unpinned.push((
                        format!(
                            "library `{}` has no preferred {class:?} base; placement is first-fit and varies with request history",
                            lib.name
                        ),
                        lib.span,
                    ));
                }
            }
        }
        for (msg, span) in unpinned {
            self.emit(Severity::Warning, "OM015", msg, span);
        }

        // OM017 — a deny policy matches a symbol the program references.
        // Same reachability evidence the server's enforcement point uses
        // (the materialized program's relocation symbols), computed here
        // over the skeleton so lint verdicts cannot drift from what
        // linking would do.
        match crate::policy::deny_diagnostics(
            self.bp,
            root.obj.relocs.iter().map(|r| r.symbol.as_str()),
        ) {
            Ok(diags) => self.diags.extend(diags),
            Err(e) => self.emit(
                Severity::Error,
                "OM010",
                format!("policy pattern does not compile: {e}"),
                None,
            ),
        }
    }
}

/// Which symbols a pattern-bearing operation considers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PatternRole {
    /// `rename`/`freeze`: any symbol entry (defs and refs); frozen names
    /// are skipped by rename.
    AnySymbol,
    /// `hide`/`restrict`: non-frozen, non-local definitions; matching a
    /// frozen name means the operation silently skips it.
    SkipsFrozenDefs,
    /// `copy_as`: definitions (frozen ones are copied fine).
    AnyDef,
    /// `show`/`project`: matching definitions are *kept*; zero matches
    /// means everything is dropped.
    KeepsDefs,
}

/// A byte-free copy of an object: real symbols, relocations, and section
/// *sizes*, no section contents.
fn skeleton(obj: &ObjectFile) -> ObjectFile {
    let mut s = ObjectFile::new(&obj.name);
    for sec in &obj.sections {
        // Field-by-field, never `sec.clone()`: cloning would memcpy the
        // section contents only to drop them, making lint pay O(bytes).
        s.sections.push(Section {
            name: sec.name.clone(),
            kind: sec.kind,
            bytes: Vec::new(),
            size: sec.size,
            align: sec.align,
        });
    }
    s.symbols = obj.symbols.clone();
    s.relocs = obj.relocs.clone();
    s
}

fn exported(obj: &ObjectFile) -> Vec<String> {
    obj.symbols
        .iter()
        .filter(|s| s.def.is_definition() && s.binding != SymbolBinding::Local)
        .map(|s| s.name.clone())
        .collect()
}

fn round_page(v: u64) -> u64 {
    (v + 4095) & !4095
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_blueprint, analyze_blueprint_report};
    use omos_blueprint::eval::{CachedEval, EvalError, ResolvedNode};
    use omos_isa::assemble;
    use omos_obj::view::materialize_count;
    use omos_obj::ContentHash;
    use std::collections::{BTreeSet, HashMap};
    use std::sync::Arc;

    /// A flat namespace of objects and meta-objects.
    #[derive(Default)]
    struct TestCtx {
        objects: HashMap<String, Arc<ObjectFile>>,
        metas: HashMap<String, Blueprint>,
    }

    impl TestCtx {
        fn add_asm(&mut self, path: &str, src: &str) {
            self.objects.insert(
                path.to_string(),
                Arc::new(assemble(path, src).expect("assembles")),
            );
        }

        fn add_meta(&mut self, path: &str, src: &str) {
            self.metas
                .insert(path.to_string(), Blueprint::parse(src).expect("parses"));
        }
    }

    impl LintContext for TestCtx {
        fn resolve(&mut self, path: &str) -> LintResolved {
            if let Some(o) = self.objects.get(path) {
                return LintResolved::Object(Arc::clone(o));
            }
            if let Some(m) = self.metas.get(path) {
                return LintResolved::Meta(m.clone());
            }
            LintResolved::Missing
        }
    }

    fn ls_world() -> TestCtx {
        let mut ctx = TestCtx::default();
        ctx.add_asm(
            "/obj/ls.o",
            ".text\n.global _start\n_start: call _puts\n sys 0\n",
        );
        ctx.add_asm(
            "/libc/stdio.o",
            ".text\n.global _puts\n_puts: li r1, 0\n ret\n",
        );
        ctx.add_asm(
            "/libc/stdio2.o",
            ".text\n.global _puts\n_puts: li r1, 1\n ret\n",
        );
        ctx.add_meta(
            "/lib/libc",
            r#"
            (constraint-list "T" 0x1000000 "D" 0x41000000)
            (merge /libc/stdio.o)
            "#,
        );
        ctx
    }

    fn lint(ctx: &mut TestCtx, src: &str) -> Vec<Diagnostic> {
        let bp = Blueprint::parse(src).expect("blueprint parses");
        analyze_blueprint(&bp, ctx)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_merge_has_no_findings() {
        let mut ctx = ls_world();
        let diags = lint(&mut ctx, "(merge /obj/ls.o /libc/stdio.o)");
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn library_export_satisfies_client_reference() {
        let mut ctx = ls_world();
        let diags = lint(&mut ctx, "(merge /obj/ls.o /lib/libc)");
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn dynamic_stubs_satisfy_client_reference() {
        let mut ctx = ls_world();
        let diags = lint(
            &mut ctx,
            r#"(merge /obj/ls.o (specialize "lib-dynamic" /libc/stdio.o))"#,
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn unresolved_path_reports_om001_and_suppresses_cascades() {
        let mut ctx = ls_world();
        let src = "(merge /obj/ls.o /nope)";
        let diags = lint(&mut ctx, src);
        assert_eq!(codes(&diags), ["OM001"], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
        let span = diags[0].span.expect("has span");
        let at = src.find("/nope").unwrap();
        assert_eq!((span.start, span.end), (at, at + "/nope".len()));
    }

    #[test]
    fn unresolved_reference_reports_om002_at_the_leaf() {
        let mut ctx = ls_world();
        let src = "(merge /obj/ls.o)";
        let diags = lint(&mut ctx, src);
        assert_eq!(codes(&diags), ["OM002"], "{diags:?}");
        assert!(diags[0].message.contains("_puts"));
        let span = diags[0].span.expect("has span");
        let at = src.find("/obj/ls.o").unwrap();
        assert_eq!((span.start, span.end), (at, at + "/obj/ls.o".len()));
    }

    #[test]
    fn restrict_created_reference_is_attributed_to_the_operator() {
        let mut ctx = ls_world();
        let src = r#"(restrict "^_puts$" /libc/stdio.o)"#;
        let diags = lint(&mut ctx, src);
        assert_eq!(codes(&diags), ["OM002"], "{diags:?}");
        let span = diags[0].span.expect("has span");
        // The whole restrict form, not the leaf: the leaf defines _puts;
        // the operator is what turned it into a free reference.
        assert_eq!((span.start, span.end), (0, src.len()));
    }

    #[test]
    fn duplicate_definition_reports_om003() {
        let mut ctx = ls_world();
        let src = "(merge /libc/stdio.o /libc/stdio2.o)";
        let diags = lint(&mut ctx, src);
        assert_eq!(codes(&diags), ["OM003"], "{diags:?}");
        assert!(diags[0].message.contains("_puts"));
        let span = diags[0].span.expect("has span");
        let at = src.find("/libc/stdio2.o").unwrap();
        assert_eq!((span.start, span.end), (at, at + "/libc/stdio2.o".len()));
    }

    #[test]
    fn copy_as_collision_reports_om003() {
        let mut ctx = ls_world();
        let diags = lint(
            &mut ctx,
            r#"(copy_as "^_puts$" "_start" (merge /obj/ls.o /libc/stdio.o))"#,
        );
        assert_eq!(codes(&diags), ["OM003"], "{diags:?}");
    }

    #[test]
    fn meta_cycle_reports_om004() {
        let mut ctx = ls_world();
        ctx.add_meta("/m/a", "(merge /m/b /libc/stdio.o)");
        ctx.add_meta("/m/b", "(merge /m/a)");
        let diags = lint(&mut ctx, "(merge /obj/ls.o /m/a)");
        assert_eq!(codes(&diags), ["OM004"], "{diags:?}");
        assert!(diags[0].message.contains("/m/a"));
    }

    #[test]
    fn dead_pattern_reports_om005() {
        let mut ctx = ls_world();
        let src = r#"(rename "^_nothing$" "_x" /libc/stdio.o)"#;
        let diags = lint(&mut ctx, src);
        assert_eq!(codes(&diags), ["OM005"], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(
            diags[0].span.map(|s| (s.start, s.end)),
            Some((0, src.len()))
        );
    }

    #[test]
    fn ineffective_interposition_reports_om006() {
        let mut ctx = ls_world();
        let diags = lint(&mut ctx, "(override /libc/stdio.o /libc/stdio2.o)");
        assert_eq!(codes(&diags), ["OM006"], "{diags:?}");
        assert!(diags[0].message.contains("_puts"));
    }

    #[test]
    fn referenced_interposition_is_effective() {
        let mut ctx = ls_world();
        let diags = lint(
            &mut ctx,
            "(merge /obj/ls.o (override /libc/stdio.o /libc/stdio2.o))",
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn operation_on_frozen_name_reports_om007() {
        let mut ctx = ls_world();
        let diags = lint(
            &mut ctx,
            r#"(hide "^_puts$" (freeze "^_puts$" /libc/stdio.o))"#,
        );
        assert_eq!(codes(&diags), ["OM007"], "{diags:?}");
        assert!(diags[0].message.contains("_puts"));
    }

    #[test]
    fn overlapping_constraints_report_om008() {
        let mut ctx = ls_world();
        let src = "(constraint-list \"T\" 0x1000000)\n(merge /obj/ls.o /lib/libc)";
        let diags = lint(&mut ctx, src);
        assert_eq!(codes(&diags), ["OM008"], "{diags:?}");
        assert!(diags[0].message.contains("/lib/libc"));
    }

    #[test]
    fn disjoint_constraints_are_clean() {
        let mut ctx = ls_world();
        let src = "(constraint-list \"T\" 0x9000000)\n(merge /obj/ls.o /lib/libc)";
        let diags = lint(&mut ctx, src);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn merge_of_only_libraries_reports_om009() {
        let mut ctx = ls_world();
        let diags = lint(&mut ctx, "(merge /lib/libc)");
        assert_eq!(codes(&diags), ["OM009"], "{diags:?}");
    }

    #[test]
    fn bad_pattern_reports_om010() {
        let mut ctx = ls_world();
        let diags = lint(&mut ctx, r#"(hide "[" /libc/stdio.o)"#);
        assert_eq!(codes(&diags), ["OM010"], "{diags:?}");
        assert!(diags[0].message.contains("unterminated"));
    }

    #[test]
    fn bad_source_reports_om011() {
        let mut ctx = ls_world();
        let diags = lint(&mut ctx, r#"(merge (source "c" "float x;"))"#);
        assert_eq!(codes(&diags), ["OM011"], "{diags:?}");
    }

    #[test]
    fn initializers_fold_cleanly() {
        let mut ctx = ls_world();
        ctx.add_asm(
            "/obj/init.o",
            ".text\n.global _sti_setup\n_sti_setup: ret\n.global _main\n_main: sys 0\n",
        );
        let diags = lint(&mut ctx, "(initializers /obj/init.o)");
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    /// `/o/loc` keeps a local `helper`; `/o/glob` defines `helper`
    /// globally, and `/o/glob-u0` and `/o/glob-u0u0` define globals
    /// spelled like the qualified local. The module combiner qualifies
    /// the local apart from every one of them, so they never meet.
    fn local_vs_global_world() -> TestCtx {
        let mut ctx = TestCtx::default();
        ctx.add_asm(
            "/o/loc",
            ".text\n.global _x\nhelper: ret\n_x: call helper\n ret\n",
        );
        ctx.add_asm("/o/glob", ".text\n.global helper\nhelper: ret\n");
        ctx.add_asm("/o/mid", ".text\n.global _mid\n_mid: ret\n");
        for (path, name) in [
            ("/o/glob-u0", "helper$u0"),
            ("/o/glob-u0u0", "helper$u0$u0"),
        ] {
            ctx.add_asm(path, &format!(".text\n.global {name}\n{name}: ret\n"));
        }
        ctx
    }

    /// Evaluation over the same objects (no cache, no libraries).
    impl omos_blueprint::EvalContext for TestCtx {
        fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError> {
            let o = self.objects.get(path);
            o.map(|o| ResolvedNode::Object(Arc::clone(o)))
                .ok_or_else(|| EvalError::Resolve(path.to_string()))
        }

        fn cache_get(&self, _key: ContentHash) -> Option<CachedEval> {
            None
        }

        fn cache_put(&self, _: ContentHash, _: &omos_module::Module, _: &Arc<BTreeSet<String>>) {}

        fn register_dynamic_impl(
            &self,
            _key: ContentHash,
            _module: &omos_module::Module,
        ) -> Result<u32, EvalError> {
            Ok(0)
        }
    }

    #[test]
    fn local_qualified_past_a_global_of_its_fresh_name_lints_and_evaluates() {
        for src in [
            "(merge /o/loc /o/glob-u0)",
            "(override /o/loc /o/glob-u0)",
            "(merge /o/loc /o/mid /o/glob-u0)",
            "(merge /o/loc /o/mid /o/glob-u0u0)",
        ] {
            let mut ctx = local_vs_global_world();
            let diags = lint(&mut ctx, src);
            assert!(diags.is_empty(), "{src}: {diags:?}");
            let bp = Blueprint::parse(src).expect("parses");
            let out = omos_blueprint::eval_blueprint(&bp, &ctx);
            assert!(
                out.is_ok(),
                "{src}: lint is clean, so eval succeeds: {:?}",
                out.err()
            );
        }
    }

    #[test]
    fn accumulator_local_does_not_clash_with_a_later_global() {
        let mut ctx = local_vs_global_world();
        let diags = lint(&mut ctx, "(merge /o/loc /o/glob)");
        assert!(diags.is_empty(), "no OM003 for a local: {diags:?}");
    }

    #[test]
    fn accumulator_local_is_not_an_interposition() {
        let mut ctx = local_vs_global_world();
        let bp = Blueprint::parse("(override /o/loc /o/glob)").expect("parses");
        let report = analyze_blueprint_report(&bp, &mut ctx);
        assert!(report.interpositions.is_empty(), "{report:?}");
        assert!(report.diagnostics.is_empty(), "{report:?}");
    }

    #[test]
    fn analysis_never_materializes() {
        let mut ctx = ls_world();
        let before = materialize_count();
        for src in [
            "(merge /obj/ls.o /lib/libc)",
            r#"(hide "^_puts$" (merge /obj/ls.o /libc/stdio.o))"#,
            "(merge /libc/stdio.o /libc/stdio2.o)",
            r#"(merge /obj/ls.o (specialize "lib-dynamic" /libc/stdio.o))"#,
            "(initializers /libc/stdio.o)",
        ] {
            lint(&mut ctx, src);
        }
        assert_eq!(
            materialize_count(),
            before,
            "analysis must not materialize any view"
        );
    }

    #[test]
    fn ambiguous_library_export_reports_om012() {
        let mut ctx = ls_world();
        ctx.add_meta(
            "/lib/libd",
            r#"
            (constraint-list "T" 0x2000000 "D" 0x42000000)
            (merge /libc/stdio2.o)
            "#,
        );
        let diags = lint(&mut ctx, "(merge /obj/ls.o /lib/libc /lib/libd)");
        assert_eq!(codes(&diags), ["OM012"], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("_puts"), "{diags:?}");
        assert!(diags[0].message.contains("/lib/libc"), "{diags:?}");
        assert!(diags[0].message.contains("/lib/libd"), "{diags:?}");
    }

    #[test]
    fn order_dependent_interposition_reports_om013() {
        let mut ctx = ls_world();
        // Interposed twice: the surviving definition depends on the
        // order the overrides apply in.
        ctx.add_asm(
            "/libc/stdio3.o",
            ".text\n.global _puts\n_puts: li r1, 2\n ret\n",
        );
        let diags = lint(
            &mut ctx,
            "(merge /obj/ls.o (override (override /libc/stdio.o /libc/stdio2.o) /libc/stdio3.o))",
        );
        assert_eq!(codes(&diags), ["OM013"], "{diags:?}");
        assert!(diags[0].message.contains("2 times"), "{diags:?}");

        // Interposed *and* exported by a library.
        let diags = lint(
            &mut ctx,
            "(merge /obj/ls.o /lib/libc (override /libc/stdio.o /libc/stdio2.o))",
        );
        assert_eq!(codes(&diags), ["OM013"], "{diags:?}");
        assert!(diags[0].message.contains("/lib/libc"), "{diags:?}");
    }

    #[test]
    fn repeated_leaf_resolution_reports_om014() {
        let mut ctx = ls_world();
        let src = r#"(merge /obj/ls.o (rename "^_puts$" "_puts2" /libc/stdio.o) /libc/stdio.o)"#;
        let diags = lint(&mut ctx, src);
        assert_eq!(codes(&diags), ["OM014"], "{diags:?}");
        assert!(diags[0].message.contains("/libc/stdio.o"), "{diags:?}");
        assert!(diags[0].message.contains("2 sites"), "{diags:?}");
    }

    #[test]
    fn meta_internal_leaves_do_not_count_as_om014_sites() {
        // `/lib/libc` resolves `/libc/stdio.o` internally; the root
        // resolving it once more is still a single *request-visible*
        // site — the meta's leaves resolve under its one outer lookup.
        let mut ctx = ls_world();
        let diags = lint(&mut ctx, "(merge /obj/ls.o /lib/libc /libc/stdio.o)");
        assert!(
            !codes(&diags).contains(&"OM014"),
            "meta-internal site leaked: {diags:?}"
        );
    }

    #[test]
    fn unpinned_library_base_reports_om015() {
        let mut ctx = ls_world();
        let src = r#"(merge /obj/ls.o (constrain "T" 0x3000000 /libc/stdio.o))"#;
        let diags = lint(&mut ctx, src);
        assert_eq!(codes(&diags), ["OM015"], "{diags:?}");
        assert!(diags[0].message.contains("Data"), "{diags:?}");
        // A fully pinned library is quiet (covered by
        // `library_export_satisfies_client_reference`).
    }

    #[test]
    fn diagnostics_come_out_sorted_by_position() {
        let mut ctx = ls_world();
        let src = r#"(merge (rename "^_none$" "_x" /obj/ls.o) /nope)"#;
        let diags = lint(&mut ctx, src);
        assert_eq!(codes(&diags), ["OM005", "OM001"], "{diags:?}");
        let starts: Vec<usize> = diags.iter().map(|d| d.span.unwrap().start).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }
}
