//! Views: cheap, incremental name-space overlays over shared object files.
//!
//! "OMOS provides a facility that allows many different name configurations
//! ('views') to be mapped onto a given object file, allowing fast, efficient,
//! incremental modification of a symbol namespace. ... Execution of a module
//! operation (with the exceptions of merge and freeze) results in the
//! production of a new view of the operand."
//!
//! A [`View`] is an `Arc`-shared base object plus an ordered list of symbol
//! transformations. Creating a new view is O(1) in section bytes; only
//! [`View::materialize`] (called by `merge`, `freeze`, and the linker) pays
//! to apply the transformations to a concrete [`ObjectFile`].

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;

use crate::error::{ObjError, Result};
use crate::hash::ContentHash;
use crate::object::ObjectFile;
use crate::regex::Regex;
use crate::section::Section;
use crate::symbol::{Symbol, SymbolBinding, SymbolDef};

/// Which of a name's roles a `rename` applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameTarget {
    /// Only definitions (references to the old name become unbound).
    Defs,
    /// Only references (an existing definition keeps its old name).
    Refs,
    /// Both definitions and references (the common case).
    Both,
}

impl RenameTarget {
    /// The target's code in structural hashes and persisted frames.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            RenameTarget::Defs => 0,
            RenameTarget::Refs => 1,
            RenameTarget::Both => 2,
        }
    }

    /// The target a [`RenameTarget::code`] stands for.
    #[must_use]
    pub fn from_code(code: u8) -> Option<RenameTarget> {
        [RenameTarget::Defs, RenameTarget::Refs, RenameTarget::Both]
            .into_iter()
            .find(|t| t.code() == code)
    }
}

/// The symbol-selecting Jigsaw operators: the one table of operator
/// names, arities and hash tags that the blueprint parser, the m-graph,
/// the evaluator, the analyzer, persistence and `ofe` all read.
///
/// `merge`, `override` and `initializers` take no pattern and are not
/// view operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewKind {
    /// Systematically renames matching symbols, substituting the matched
    /// span with the replacement, in the given roles.
    Rename(RenameTarget),
    /// Removes matching definitions from the exported namespace,
    /// freezing any internal references to them in the process.
    Hide,
    /// Hides all definitions *except* those matching.
    Show,
    /// Virtualizes matching bindings: definitions are removed and
    /// existing bindings become unbound references.
    Restrict,
    /// Virtualizes all bindings *except* those matching.
    Project,
    /// Duplicates matching definitions under new names derived by
    /// substituting the matched span with the replacement.
    CopyAs,
    /// Makes matching bindings permanent; frozen symbols are immune to
    /// later `rename`/`restrict`/`hide`.
    Freeze,
}

impl ViewKind {
    /// The operator an operator name spells, in blueprints and on the
    /// `ofe` command line.
    #[must_use]
    pub fn from_name(name: &str) -> Option<ViewKind> {
        Some(match name {
            "rename" => ViewKind::Rename(RenameTarget::Both),
            "rename-refs" => ViewKind::Rename(RenameTarget::Refs),
            "rename-defs" => ViewKind::Rename(RenameTarget::Defs),
            "hide" => ViewKind::Hide,
            "show" => ViewKind::Show,
            "restrict" => ViewKind::Restrict,
            "project" => ViewKind::Project,
            "copy-as" | "copy_as" => ViewKind::CopyAs,
            "freeze" => ViewKind::Freeze,
            _ => return None,
        })
    }

    /// Whether the operator takes a replacement string after its pattern.
    #[must_use]
    pub fn takes_replacement(self) -> bool {
        matches!(self, ViewKind::Rename(_) | ViewKind::CopyAs)
    }

    /// Folds one application of this operator into a structural hash:
    /// the m-graph's cache key and the view's content hash both use it.
    /// `replacement` is hashed only when the operator takes one.
    #[must_use]
    pub fn hash_into(self, h: ContentHash, pattern: &str, replacement: &str) -> ContentHash {
        let tag = match self {
            ViewKind::Rename(_) => "rename",
            ViewKind::Hide => "hide",
            ViewKind::Show => "show",
            ViewKind::Restrict => "restrict",
            ViewKind::Project => "project",
            ViewKind::CopyAs => "copy-as",
            ViewKind::Freeze => "freeze",
        };
        let h = h.with_str(tag).with_str(pattern);
        match self {
            ViewKind::Rename(target) => h.with_str(replacement).with_u64(u64::from(target.code())),
            ViewKind::CopyAs => h.with_str(replacement),
            _ => h,
        }
    }
}

/// One namespace transformation in a view: an operator applied to the
/// symbols its pattern selects.
#[derive(Debug, Clone)]
pub struct ViewOp {
    /// The operator.
    pub kind: ViewKind,
    /// Selects the symbols the operator acts on.
    pub pattern: Regex,
    /// Literal replacement for the matched span; unused (and by
    /// convention empty) unless [`ViewKind::takes_replacement`].
    pub replacement: String,
}

/// A name configuration mapped onto a shared object file.
#[derive(Debug, Clone)]
pub struct View {
    base: Arc<ObjectFile>,
    ops: Vec<ViewOp>,
}

impl View {
    /// Wraps an object file in an identity view.
    #[must_use]
    pub fn of(base: Arc<ObjectFile>) -> View {
        View {
            base,
            ops: Vec::new(),
        }
    }

    /// Wraps an owned object file.
    #[must_use]
    pub fn from_object(obj: ObjectFile) -> View {
        View::of(Arc::new(obj))
    }

    /// The underlying object file, without transformations.
    #[must_use]
    pub fn base(&self) -> &Arc<ObjectFile> {
        &self.base
    }

    /// Number of pending transformations.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Derives a new view with one more transformation. O(ops), no byte
    /// copies.
    #[must_use]
    pub fn derive(&self, op: ViewOp) -> View {
        let mut ops = self.ops.clone();
        ops.push(op);
        View {
            base: Arc::clone(&self.base),
            ops,
        }
    }

    /// Deterministic hash of base content plus the transformation list —
    /// the cache key for materialized views.
    #[must_use]
    pub fn content_hash(&self) -> ContentHash {
        let mut h = self.base.content_hash().with_str("view");
        for op in &self.ops {
            h = op.kind.hash_into(h, op.pattern.pattern(), &op.replacement);
        }
        h
    }

    /// Applies all transformations, producing a concrete object file.
    ///
    /// This is the expensive path that `merge` and `freeze` take; every
    /// other operator just derives a new view.
    pub fn materialize(&self) -> Result<ObjectFile> {
        apply_ops(&self.ops, (*self.base).clone())
    }

    /// The object this view denotes, for a reader: the base itself,
    /// uncopied, when no transformation is pending, else
    /// [`View::materialize`]d.
    pub fn object(&self) -> Result<Cow<'_, ObjectFile>> {
        if self.ops.is_empty() {
            Ok(Cow::Borrowed(&self.base))
        } else {
            self.materialize().map(Cow::Owned)
        }
    }

    /// [`View::materialize`], consuming the view: when it is the base's
    /// only holder the base is taken rather than copied, and the pending
    /// transformations apply to it in place.
    pub fn into_object(self) -> Result<ObjectFile> {
        let obj = Arc::try_unwrap(self.base).unwrap_or_else(|shared| (*shared).clone());
        apply_ops(&self.ops, obj)
    }

    /// The object this view denotes, for a reader of its names alone
    /// (symbols, sections, relocations): the base itself, uncopied, when
    /// no transformation is pending, else the transformations applied
    /// to a copy without section bytes. Not a [`View::materialize`].
    pub fn skeleton(&self) -> Result<Cow<'_, ObjectFile>> {
        if self.ops.is_empty() {
            return Ok(Cow::Borrowed(&self.base));
        }
        // Name-only simulation would duplicate the op semantics; symbol
        // tables are small, so run the real transformation on a byte-free
        // copy of the object.
        let mut skeleton = ObjectFile::new(&self.base.name);
        skeleton.sections = self
            .base
            .sections
            .iter()
            .map(|s| Section {
                name: s.name.clone(),
                kind: s.kind,
                bytes: Vec::new(),
                size: s.size,
                align: s.align,
            })
            .collect();
        skeleton.symbols = self.base.symbols.clone();
        skeleton.relocs = self.base.relocs.clone();
        let mut hidden_counter = 0usize;
        for op in &self.ops {
            apply_view_op(&mut skeleton, op, &mut hidden_counter)?;
        }
        Ok(Cow::Owned(skeleton))
    }

    /// Names this view exports as definitions, without materializing the
    /// section bytes. Cost is O(symbols × ops).
    pub fn exported_definitions(&self) -> Result<Vec<String>> {
        Ok(self
            .skeleton()?
            .symbols
            .iter()
            .filter(|s| s.def.is_definition() && s.binding != SymbolBinding::Local)
            .map(|s| s.name.clone())
            .collect())
    }
}

thread_local! {
    /// Per-thread count of [`View::materialize`] calls.
    ///
    /// Materialization is the *expensive* path (it clones section
    /// bytes); code that promises to stay on the cheap name-only path —
    /// notably the static analyzer's lint pass — asserts this counter
    /// does not move. Per thread, so work on other threads (concurrent
    /// tests, other requests) cannot move it.
    static MATERIALIZE_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The number of [`View::materialize`] (and [`View::into_object`]) calls
/// made on this thread so far.
#[must_use]
pub fn materialize_count() -> u64 {
    MATERIALIZE_COUNT.with(Cell::get)
}

/// Applies a view's transformations, in order, to its base object.
fn apply_ops(ops: &[ViewOp], mut obj: ObjectFile) -> Result<ObjectFile> {
    MATERIALIZE_COUNT.with(|c| c.set(c.get() + 1));
    let mut hidden_counter = 0usize;
    for op in ops {
        apply_view_op(&mut obj, op, &mut hidden_counter)?;
    }
    Ok(obj)
}

/// Applies one view operation to a concrete object file.
///
/// Public so name-only consumers (the static analyzer) can run the *real*
/// operator semantics over a byte-free skeleton object instead of
/// re-implementing (and drifting from) the rules in this module.
pub fn apply_view_op(obj: &mut ObjectFile, op: &ViewOp, hidden_counter: &mut usize) -> Result<()> {
    let ViewOp {
        kind,
        pattern,
        replacement,
    } = op;
    match *kind {
        ViewKind::Rename(target) => rename(obj, pattern, replacement, target),
        ViewKind::Hide | ViewKind::Show => {
            let names = matching_defs(obj, pattern, *kind == ViewKind::Show);
            hide_names(obj, &names, hidden_counter)
        }
        ViewKind::Restrict | ViewKind::Project => {
            let names = matching_defs(obj, pattern, *kind == ViewKind::Project);
            restrict_names(obj, &names)
        }
        ViewKind::CopyAs => {
            let copies: Vec<(String, String)> = obj
                .symbols
                .iter()
                .filter(|s| s.def.is_definition() && pattern.is_match(&s.name))
                .map(|s| (s.name.clone(), pattern.replace(&s.name, replacement)))
                .collect();
            for (old, new) in copies {
                if old == new {
                    continue;
                }
                let src = obj
                    .symbols
                    .get(&old)
                    .ok_or_else(|| ObjError::UndefinedSymbol(old.clone()))?
                    .clone();
                obj.symbols.insert(Symbol {
                    name: new,
                    frozen: false,
                    ..src
                })?;
            }
            Ok(())
        }
        ViewKind::Freeze => {
            for s in obj.symbols.iter_mut() {
                if pattern.is_match(&s.name) {
                    s.frozen = true;
                }
            }
            Ok(())
        }
    }
}

/// Names of non-frozen, non-local definitions matching (or, when `invert`,
/// not matching) the pattern.
fn matching_defs(obj: &ObjectFile, pattern: &Regex, invert: bool) -> Vec<String> {
    obj.symbols
        .iter()
        .filter(|s| {
            s.def.is_definition()
                && s.binding != SymbolBinding::Local
                && !s.frozen
                && (pattern.is_match(&s.name) != invert)
        })
        .map(|s| s.name.clone())
        .collect()
}

fn rename(
    obj: &mut ObjectFile,
    pattern: &Regex,
    replacement: &str,
    target: RenameTarget,
) -> Result<()> {
    let rename_defs = matches!(target, RenameTarget::Defs | RenameTarget::Both);
    let rename_refs = matches!(target, RenameTarget::Refs | RenameTarget::Both);

    // Collect the (old, new) pairs first; mutating while iterating would
    // invalidate the name index.
    let pairs: Vec<(String, String, bool)> = obj
        .symbols
        .iter()
        .filter(|s| !s.frozen && pattern.is_match(&s.name))
        .map(|s| {
            (
                s.name.clone(),
                pattern.replace(&s.name, replacement),
                s.def.is_definition(),
            )
        })
        .filter(|(old, new, _)| old != new)
        .collect();

    for (old, new, is_def) in &pairs {
        let applies = if *is_def { rename_defs } else { rename_refs };
        if !applies {
            continue;
        }
        // Renaming onto an existing name *merges* the entries under the
        // standard upgrade rules — renaming a reference onto a definition
        // binds it (Figure 3 reroutes `_undefined_routine` refs onto the
        // already-defined `_abort`); two real definitions still collide.
        rename_merge(obj, old, new)?;
        if *is_def && !rename_refs && obj.relocs.iter().any(|r| &r.symbol == old) {
            // Definition moved away but references keep the old name: the
            // old name reverts to an unbound reference.
            obj.symbols.insert(Symbol::undefined(old))?;
        }
    }

    if rename_refs {
        for r in &mut obj.relocs {
            if let Some((old, new, _)) = pairs.iter().find(|(o, _, _)| o == &r.symbol) {
                debug_assert_eq!(old, &r.symbol);
                r.symbol = new.clone();
            }
        }
    }
    Ok(())
}

/// Renames `old` to `new`, merging with any existing entry for `new`
/// under [`crate::symbol::SymbolTable::insert`]'s upgrade rules.
fn rename_merge(obj: &mut ObjectFile, old: &str, new: &str) -> Result<()> {
    if old == new {
        return Ok(());
    }
    if obj.symbols.get(new).is_none() {
        return obj.symbols.rename(old, new);
    }
    let mut moved = obj
        .symbols
        .remove(old)
        .ok_or_else(|| ObjError::UndefinedSymbol(old.to_string()))?;
    moved.name = new.to_string();
    obj.symbols.insert(moved)
}

/// Hides the given definitions: each is renamed to a unique local name and
/// frozen, with internal references following (the paper: "removes a given
/// set of symbol definitions from the operand symbol table, freezing any
/// internal references to the symbol in the process").
fn hide_names(obj: &mut ObjectFile, names: &[String], hidden_counter: &mut usize) -> Result<()> {
    for name in names {
        let fresh = loop {
            let candidate = format!("{name}$hidden{}", *hidden_counter);
            *hidden_counter += 1;
            if obj.symbols.get(&candidate).is_none() {
                break candidate;
            }
        };
        obj.symbols.rename(name, &fresh)?;
        if let Some(s) = obj.symbols.get_mut(&fresh) {
            s.binding = SymbolBinding::Local;
            s.frozen = true;
        }
        for r in &mut obj.relocs {
            if &r.symbol == name {
                r.symbol = fresh.clone();
            }
        }
    }
    Ok(())
}

/// Virtualizes the given definitions: the definition disappears and the
/// name reverts to an unbound reference.
fn restrict_names(obj: &mut ObjectFile, names: &[String]) -> Result<()> {
    for name in names {
        if let Some(s) = obj.symbols.get_mut(name) {
            s.def = SymbolDef::Undefined;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reloc::{RelocKind, Relocation};
    use crate::section::{Section, SectionKind};

    /// A libc-like fragment: defines `_malloc` and `_free`; `_free` calls
    /// `_malloc` internally; both are called from outside.
    fn libc_like() -> View {
        let mut o = ObjectFile::new("libc.o");
        let t = o.add_section(Section::with_bytes(
            ".text",
            SectionKind::Text,
            vec![0; 64],
            8,
        ));
        o.define(Symbol::defined("_malloc", t, 0)).unwrap();
        o.define(Symbol::defined("_free", t, 32)).unwrap();
        // An internal reference: `_free` calls `_malloc`.
        o.relocate(Relocation::new(t, 36, RelocKind::Abs32, "_malloc"));
        View::from_object(o)
    }

    fn op(kind: ViewKind, pattern: &str, replacement: &str) -> ViewOp {
        ViewOp {
            kind,
            pattern: Regex::new(pattern).unwrap(),
            replacement: replacement.into(),
        }
    }

    #[test]
    fn kind_table_names_every_operator_spelling() {
        use RenameTarget::{Both, Defs, Refs};
        for (name, kind) in [
            ("rename", ViewKind::Rename(Both)),
            ("rename-refs", ViewKind::Rename(Refs)),
            ("rename-defs", ViewKind::Rename(Defs)),
            ("hide", ViewKind::Hide),
            ("show", ViewKind::Show),
            ("restrict", ViewKind::Restrict),
            ("project", ViewKind::Project),
            ("copy-as", ViewKind::CopyAs),
            ("copy_as", ViewKind::CopyAs),
            ("freeze", ViewKind::Freeze),
        ] {
            assert_eq!(ViewKind::from_name(name), Some(kind), "{name}");
        }
        assert_eq!(ViewKind::from_name("merge"), None);
        for t in [Defs, Refs, Both] {
            assert_eq!(RenameTarget::from_code(t.code()), Some(t));
        }
        assert_eq!(RenameTarget::from_code(3), None);
    }

    #[test]
    fn identity_view_materializes_to_base() {
        let v = libc_like();
        let m = v.materialize().unwrap();
        assert_eq!(m.content_hash(), v.base().content_hash());
    }

    #[test]
    fn derive_is_cheap_and_does_not_mutate_parent() {
        let v = libc_like();
        let v2 = v.derive(op(ViewKind::Hide, "^_malloc$", ""));
        assert_eq!(v.op_count(), 0);
        assert_eq!(v2.op_count(), 1);
        assert!(Arc::ptr_eq(v.base(), v2.base()));
    }

    #[test]
    fn rename_both_rewrites_refs() {
        let v = libc_like().derive(
            op(
                ViewKind::Rename(RenameTarget::Both),
                "^_malloc$",
                "_xmalloc",
            )
            .clone(),
        );
        let m = v.materialize().unwrap();
        assert!(m.symbols.get("_malloc").is_none());
        assert!(m.symbols.get("_xmalloc").unwrap().def.is_definition());
        assert!(m.relocs.iter().all(|r| r.symbol != "_malloc"));
        assert!(m.relocs.iter().any(|r| r.symbol == "_xmalloc"));
    }

    #[test]
    fn rename_defs_only_leaves_refs_unbound() {
        let v = libc_like().derive(op(
            ViewKind::Rename(RenameTarget::Defs),
            "^_malloc$",
            "_xmalloc",
        ));
        let m = v.materialize().unwrap();
        // The definition moved...
        assert!(m.symbols.get("_xmalloc").unwrap().def.is_definition());
        // ...but the internal call still references `_malloc`, now unbound.
        assert!(m.relocs.iter().any(|r| r.symbol == "_malloc"));
        assert!(!m.symbols.get("_malloc").unwrap().def.is_definition());
    }

    #[test]
    fn rename_refs_only_leaves_def() {
        let v = libc_like().derive(op(
            ViewKind::Rename(RenameTarget::Refs),
            "^_malloc$",
            "_ymalloc",
        ));
        let m = v.materialize().unwrap();
        // Reference renamed; `_ymalloc` is a new unbound reference...
        assert!(m.relocs.iter().any(|r| r.symbol == "_ymalloc"));
        // ...while the original definition remains under its old name.
        // (The def entry for `_malloc` matched the pattern but is a
        // definition, so the Refs-target rename must not move it.)
        assert!(m.symbols.get("_malloc").unwrap().def.is_definition());
    }

    #[test]
    fn hide_freezes_internal_refs() {
        let v = libc_like().derive(op(ViewKind::Hide, "^_malloc$", ""));
        let m = v.materialize().unwrap();
        // `_malloc` is gone from the exported namespace...
        assert!(m.symbols.get("_malloc").is_none());
        // ...but the internal call from `_free` still resolves, to a local
        // frozen alias.
        let internal = &m.relocs[0].symbol;
        let s = m.symbols.get(internal).expect("internal ref target exists");
        assert_eq!(s.binding, SymbolBinding::Local);
        assert!(s.frozen);
        assert!(s.def.is_definition());
    }

    #[test]
    fn show_hides_complement() {
        let v = libc_like().derive(op(ViewKind::Show, "^_free$", ""));
        let exported = v.exported_definitions().unwrap();
        assert_eq!(exported, vec!["_free".to_string()]);
    }

    #[test]
    fn restrict_virtualizes() {
        let v = libc_like().derive(op(ViewKind::Restrict, "^_malloc$", ""));
        let m = v.materialize().unwrap();
        let s = m.symbols.get("_malloc").unwrap();
        assert!(!s.def.is_definition());
        // The internal reference is now unbound: ready to be re-bound by a
        // later merge (this is how interposition works).
        assert_eq!(m.relocs[0].symbol, "_malloc");
    }

    #[test]
    fn project_keeps_only_named() {
        let v = libc_like().derive(op(ViewKind::Project, "^_malloc$", ""));
        let m = v.materialize().unwrap();
        assert!(m.symbols.get("_malloc").unwrap().def.is_definition());
        assert!(!m.symbols.get("_free").unwrap().def.is_definition());
    }

    #[test]
    fn copy_as_duplicates_definition() {
        let v = libc_like().derive(op(ViewKind::CopyAs, "^_malloc$", "_REAL_malloc"));
        let m = v.materialize().unwrap();
        let a = m.symbols.get("_malloc").unwrap();
        let b = m.symbols.get("_REAL_malloc").unwrap();
        assert_eq!(a.def, b.def);
    }

    #[test]
    fn copy_as_prefix_scheme() {
        // "By invoking copy-as on all definitions of a given set of symbols
        // using some well-known scheme (e.g., prepending a package name)".
        let v = libc_like().derive(op(ViewKind::CopyAs, "^_", "_PKG_"));
        let exported = v.exported_definitions().unwrap();
        assert!(exported.contains(&"_PKG_malloc".to_string()));
        assert!(exported.contains(&"_PKG_free".to_string()));
        assert!(exported.contains(&"_malloc".to_string()));
    }

    #[test]
    fn freeze_blocks_later_restrict_and_rename() {
        let v = libc_like()
            .derive(op(ViewKind::Freeze, "^_malloc$", ""))
            .derive(op(ViewKind::Restrict, "^_malloc$", ""))
            .derive(op(ViewKind::Rename(RenameTarget::Both), "^_malloc$", "_zz"));
        let m = v.materialize().unwrap();
        let s = m.symbols.get("_malloc").unwrap();
        assert!(s.def.is_definition(), "frozen binding survived restrict");
        assert!(s.frozen);
    }

    #[test]
    fn interposition_chain_figure2() {
        // The Figure 2 idiom, at the view level:
        //   copy_as ^_malloc$ _REAL_malloc, then restrict ^_malloc$.
        let v = libc_like()
            .derive(op(ViewKind::CopyAs, "^_malloc$", "_REAL_malloc"))
            .derive(op(ViewKind::Restrict, "^_malloc$", ""));
        let m = v.materialize().unwrap();
        assert!(m.symbols.get("_REAL_malloc").unwrap().def.is_definition());
        assert!(!m.symbols.get("_malloc").unwrap().def.is_definition());
        // A new `_malloc` can now be merged in while `_REAL_malloc` still
        // reaches the original implementation.
    }

    #[test]
    fn content_hash_reflects_ops() {
        let v = libc_like();
        let v2 = v.derive(op(ViewKind::Hide, "^_malloc$", ""));
        let v3 = v.derive(op(ViewKind::Hide, "^_free$", ""));
        assert_ne!(v.content_hash(), v2.content_hash());
        assert_ne!(v2.content_hash(), v3.content_hash());
        // Same derivation ⇒ same hash (cache hit).
        let v2b = v.derive(op(ViewKind::Hide, "^_malloc$", ""));
        assert_eq!(v2.content_hash(), v2b.content_hash());
    }

    #[test]
    fn hide_generates_fresh_names() {
        // Hiding the same base name twice (via two sections) must not clash.
        let mut o = ObjectFile::new("t.o");
        let t = o.add_section(Section::with_bytes(
            ".text",
            SectionKind::Text,
            vec![0; 16],
            8,
        ));
        o.define(Symbol::defined("_f", t, 0)).unwrap();
        o.define(Symbol::defined("_f$hidden0", t, 8)).unwrap(); // adversarial
        let v = View::from_object(o).derive(op(ViewKind::Hide, "^_f$", ""));
        let m = v.materialize().unwrap();
        // Both survive under distinct names.
        assert_eq!(m.symbols.len(), 2);
    }

    #[test]
    fn skeleton_names_what_materialize_names() {
        let identity = libc_like();
        assert!(matches!(identity.skeleton().unwrap(), Cow::Borrowed(_)));
        for name in [
            "rename",
            "rename-refs",
            "rename-defs",
            "hide",
            "show",
            "restrict",
            "project",
            "copy-as",
            "freeze",
        ] {
            let kind = ViewKind::from_name(name).unwrap();
            let v = identity.derive(op(kind, "^_malloc$", "_m")).derive(op(
                ViewKind::Hide,
                "^_free$",
                "",
            ));
            let before = materialize_count();
            let skeleton = v.skeleton().unwrap();
            assert_eq!(materialize_count(), before, "{name}: no materialize");
            let m = v.materialize().unwrap();
            assert_eq!(skeleton.symbols, m.symbols, "{name}");
            assert_eq!(skeleton.relocs, m.relocs, "{name}");
            assert!(skeleton.sections.iter().all(|s| s.bytes.is_empty()));
            assert_eq!(
                skeleton.sections.iter().map(|s| s.size).collect::<Vec<_>>(),
                m.sections.iter().map(|s| s.size).collect::<Vec<_>>()
            );
        }
    }
}
