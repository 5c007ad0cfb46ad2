//! The Jigsaw module operators.
//!
//! §3.3: "A subset of the graph operations comprise module operations, as
//! defined by Bracha and Lindstrom in the language Jigsaw... Conceptually,
//! a module is a self-referential naming scope. Module operations operate
//! on and modify the symbol bindings in modules. The modified bindings
//! define the inheritance relationships between the component objects."
//!
//! A [`Module`] wraps a symbol [`View`] over shared object bytes. Every
//! operator except [`Module::merge_with`], [`Module::override_with`], and
//! [`Module::freeze`] is O(1) in section bytes — it derives a new view, per
//! the paper: "Execution of a module operation (with the exceptions of
//! merge and freeze) results in the production of a new view of the
//! operand."

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::borrow::Cow;
use std::sync::Arc;

use omos_obj::view::{RenameTarget, View, ViewKind, ViewOp};
use omos_obj::{
    ContentHash, ObjError, ObjectFile, Regex, Relocation, Result, Section, SectionKind, Symbol,
    SymbolBinding, SymbolDef, SymbolTable,
};

mod initializers;

pub use initializers::{emitted_bytes, emitted_insts, generate_initializers};

/// How a merge resolves conflicting definitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// Multiple definitions of a symbol are an error (`merge`).
    Strict,
    /// Conflicts resolve in favor of the *second* operand (`override`).
    Override,
}

/// A module: a self-referential naming scope over executable fragments.
///
/// Beside its view, a module carries the names its derivation
/// interposed: every def-def conflict an `override` resolved, recorded
/// when [`Module::override_with`] makes the decision and carried forward
/// by every operator (see [`Module::interpositions`]). A merge or
/// override step's result also carries the counter its chain's local
/// qualification reached (see [`qualify_locals`]), by value, so the
/// next step continues it whether the result was just computed or came
/// out of a cache; every other operator drops it.
///
/// # Examples
///
/// The Figure 2 interposition idiom — stash the original definition,
/// virtualize the name, merge a replacement:
///
/// ```
/// use omos_isa::assemble;
/// use omos_module::Module;
///
/// let libc = Module::from_object(assemble(
///     "libc.o",
///     ".text\n.global _malloc\n_malloc: li r1, 1\n ret\n",
/// )?);
/// let tracer = Module::from_object(assemble(
///     "trace.o",
///     ".text\n.global _malloc\n.extern _REAL_malloc\n_malloc: jmp _REAL_malloc\n",
/// )?);
/// let traced = libc
///     .copy_as("^_malloc$", "_REAL_malloc")?
///     .restrict("^_malloc$")?
///     .merge_with(tracer)?
///     .hide("^_REAL_malloc$")?;
/// assert_eq!(traced.exports()?, vec!["_malloc".to_string()]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Module {
    view: View,
    /// Symbols an `override` conflict replaced, sorted and deduplicated.
    /// Boxed rather than a `Vec`, and the counter below a `u32`, because
    /// the eval cache holds a module per m-graph node: this struct's size
    /// shows in a server's peak memory.
    interposed: Box<[String]>,
    /// Set only on a merge or override step's result, whose object is
    /// known valid: the fresh-local counter the next step continues
    /// (unset past `u32::MAX`, when the next step qualifies afresh).
    chain: Option<u32>,
}

impl Module {
    /// Wraps an object file.
    #[must_use]
    pub fn from_object(obj: ObjectFile) -> Module {
        Module::from_view(View::from_object(obj))
    }

    /// Wraps a shared object file.
    #[must_use]
    pub fn from_arc(obj: Arc<ObjectFile>) -> Module {
        Module::from_view(View::of(obj))
    }

    /// Wraps an existing view.
    #[must_use]
    pub fn from_view(view: View) -> Module {
        Module {
            view,
            interposed: Box::default(),
            chain: None,
        }
    }

    /// The underlying view.
    #[must_use]
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Deterministic identity for caching. Covers the view only: the
    /// interposition record is provenance, not content, so it moves no
    /// cache or image key.
    #[must_use]
    pub fn content_hash(&self) -> ContentHash {
        self.view.content_hash()
    }

    /// The symbols an `override` replaced anywhere in this module's
    /// derivation, sorted and deduplicated. A name stays recorded after
    /// later operators rename or hide it: the record says which
    /// conflicts were resolved, not what is visible now.
    #[must_use]
    pub fn interpositions(&self) -> &[String] {
        &self.interposed
    }

    /// This module with `names` added to its interposition record — for
    /// a module generated from another (such as `lib-dynamic` stubs)
    /// that stands in for it.
    #[must_use]
    pub fn with_interpositions(mut self, names: &[String]) -> Module {
        let mut all = std::mem::take(&mut self.interposed).into_vec();
        all.extend_from_slice(names);
        all.sort();
        all.dedup();
        self.interposed = all.into_boxed_slice();
        self
    }

    /// Materializes into a concrete object file (applies all pending view
    /// operations).
    pub fn materialize(&self) -> Result<ObjectFile> {
        self.view.materialize()
    }

    /// [`Module::materialize`], consuming the module: the object is taken
    /// rather than copied when this module is its only holder.
    pub fn into_object(self) -> Result<ObjectFile> {
        self.view.into_object()
    }

    /// Names this module exports.
    pub fn exports(&self) -> Result<Vec<String>> {
        self.view.exported_definitions()
    }

    /// Names this module references but does not define.
    pub fn free_references(&self) -> Result<Vec<String>> {
        let m = self.materialize()?;
        Ok(m.symbols.undefined().map(|s| s.name.clone()).collect())
    }

    // --- The view operators. ---------------------------------------------

    /// Applies one view operator. Every kind but `freeze` derives a new
    /// view (O(1) in section bytes); `freeze` materializes, one of the
    /// two operators the paper says does not produce a view.
    /// `replacement` is ignored unless [`ViewKind::takes_replacement`].
    pub fn apply_view(&self, kind: ViewKind, pattern: &str, replacement: &str) -> Result<Module> {
        let view = self.view.derive(ViewOp {
            kind,
            pattern: Regex::new(pattern)?,
            replacement: replacement.to_string(),
        });
        let view = match kind {
            ViewKind::Freeze => View::from_object(view.materialize()?),
            _ => view,
        };
        Ok(Module {
            view,
            interposed: self.interposed.clone(),
            chain: None,
        })
    }

    /// `rename`: systematically changes names matching `pattern`,
    /// substituting the matched span with `replacement`. `target` selects
    /// references, definitions, or both — the paper: "Names may be
    /// references, definitions, or both."
    pub fn rename(&self, pattern: &str, replacement: &str, target: RenameTarget) -> Result<Module> {
        self.apply_view(ViewKind::Rename(target), pattern, replacement)
    }

    /// `hide`: removes matching definitions from the exported namespace,
    /// freezing internal references to them.
    pub fn hide(&self, pattern: &str) -> Result<Module> {
        self.apply_view(ViewKind::Hide, pattern, "")
    }

    /// `show`: hides all definitions *except* those matching.
    pub fn show(&self, pattern: &str) -> Result<Module> {
        self.apply_view(ViewKind::Show, pattern, "")
    }

    /// `restrict`: virtualizes matching bindings — definitions are removed
    /// and existing bindings become unbound references.
    pub fn restrict(&self, pattern: &str) -> Result<Module> {
        self.apply_view(ViewKind::Restrict, pattern, "")
    }

    /// `project`: virtualizes all bindings *except* those matching.
    pub fn project(&self, pattern: &str) -> Result<Module> {
        self.apply_view(ViewKind::Project, pattern, "")
    }

    /// `copy-as`: duplicates matching definitions under new names derived
    /// by substituting the matched span with `replacement`.
    pub fn copy_as(&self, pattern: &str, replacement: &str) -> Result<Module> {
        self.apply_view(ViewKind::CopyAs, pattern, replacement)
    }

    /// `freeze`: makes matching bindings permanent. Materializes.
    pub fn freeze(&self, pattern: &str) -> Result<Module> {
        self.apply_view(ViewKind::Freeze, pattern, "")
    }

    // --- Materializing operators. ------------------------------------------

    /// `merge`: binds definitions in one operand to references in the
    /// other. Duplicate definitions are an error. Consumes `self` as the
    /// accumulator `other` is appended into (see [`Module::into_object`]).
    pub fn merge_with(self, other: Module) -> Result<Module> {
        combine(self, other, MergeMode::Strict)
    }

    /// `override`: merge resolving conflicts in favor of `other`.
    pub fn override_with(self, other: Module) -> Result<Module> {
        combine(self, other, MergeMode::Override)
    }

    /// n-ary `merge` — folds [`Module::merge_with`] left to right, one
    /// owned accumulator appended into per step.
    pub fn merge_all(modules: &[Module]) -> Result<Module> {
        let (first, rest) = modules
            .split_first()
            .ok_or_else(|| ObjError::Invalid("merge of zero modules".into()))?;
        rest.iter()
            .try_fold(first.clone(), |acc, m| acc.merge_with(m.clone()))
    }

    /// `initializers`: synthesizes a `__static_init` routine calling every
    /// static-initializer symbol (see [`generate_initializers`]) and merges
    /// it into this module. Not a merge operator: the merge it runs
    /// qualifies this module's locals afresh, and its result carries no
    /// chain counter.
    pub fn initializers(self) -> Result<Module> {
        let obj = self.view.into_object()?;
        let init = generate_initializers(&obj)?;
        let acc = Module {
            view: View::from_object(obj),
            interposed: self.interposed,
            chain: None,
        };
        let merged = acc.merge_with(Module::from_object(init))?;
        Ok(Module {
            chain: None,
            ..merged
        })
    }
}

/// Combines two modules into one concrete object, at the cost of `b`
/// alone when `a` came out of an earlier step: `a`'s object is the
/// accumulator, appended into in place (no accumulated bytes are
/// copied); `b` is appended from a borrow of its shared object when it
/// has no pending view operations. Neither `a`'s symbols nor its
/// relocations are walked, except where [`qualify_locals`] has to
/// qualify them (the first step of a chain, or a rare name clash), and
/// only `b` is validated unless `a` is not yet known valid. The
/// result's interposition record is both operands' records plus the
/// conflicts this step overrides.
fn combine(a: Module, b: Module, mode: MergeMode) -> Result<Module> {
    let mut interposed = a.interposed.into_vec();
    let recorded = interposed.len();
    interposed.extend(b.interposed.into_vec());
    let mut acc = a.view.into_object()?;
    let ob = if b.view.op_count() == 0 {
        Cow::Borrowed(&**b.view.base())
    } else {
        Cow::Owned(b.view.into_object()?)
    };
    // A step's result is known valid; a part that is not valid makes
    // the whole object be checked below, for the first error it meets.
    let parts_valid = (a.chain.is_some() || acc.validate().is_ok())
        && (b.chain.is_some() || ob.validate().is_ok());
    acc.name.push('+');
    acc.name.push_str(&ob.name);
    let carried = a.chain.map(|n| n as usize);
    let (fresh, next) = qualify_locals(&mut acc, carried, &ob.symbols)?;
    append_object(&mut acc, ob, &fresh, mode, &mut interposed)?;
    if !parts_valid {
        acc.validate()?;
    }
    if interposed.len() > recorded {
        interposed.sort();
        interposed.dedup();
    }
    Ok(Module {
        view: View::from_object(acc),
        interposed: interposed.into_boxed_slice(),
        chain: u32::try_from(next).ok(),
    })
}

/// Qualifies the local symbols of one merge step — the one scoping rule
/// the module combiner and the static analyzer share. A local gets its
/// one `$u{n}` suffix when it enters a chain, drawn from the chain's
/// counter in table order:
///
/// * `carried` is the counter an earlier step left on `acc` (see
///   [`Module`]); without one, every local of `acc` is qualified first,
///   counting from 0, as if `acc` entered a new chain;
/// * with one, `acc`'s locals keep their names, unless `incoming` binds
///   one of them as a non-local name: only those move (the rare path
///   that walks `acc`'s relocations);
/// * a fresh name for `acc` skips every name in `acc` and every
///   non-local name in `incoming`; a fresh name for `incoming` skips
///   every name in either table.
///
/// Renames `acc` in place and returns `incoming`'s fresh names, by table
/// position, with the counter the result carries.
pub fn qualify_locals(
    acc: &mut ObjectFile,
    carried: Option<usize>,
    incoming: &SymbolTable,
) -> Result<(Vec<Option<String>>, usize)> {
    let mut uniq = carried.unwrap_or(0);
    let binds = |name: &str| {
        incoming
            .get(name)
            .is_some_and(|s| s.binding != SymbolBinding::Local)
    };
    let clash = carried.is_some()
        && incoming.iter().any(|s| {
            s.binding != SymbolBinding::Local
                && acc
                    .symbols
                    .get(&s.name)
                    .is_some_and(|e| e.binding == SymbolBinding::Local)
        });
    if carried.is_none() || clash {
        let moves = |s: &Symbol| carried.is_none() || binds(&s.name);
        let renamed = fresh_locals(&acc.symbols, moves, binds, &mut uniq);
        rename_locals(acc, renamed)?;
    }
    let fresh = fresh_locals(
        incoming,
        |_| true,
        |c| acc.symbols.get(c).is_some(),
        &mut uniq,
    );
    Ok((fresh, uniq))
}

/// Renames `obj`'s symbols by table position — entry `i` takes
/// `fresh[i]` when it is set — and points its relocations at the new
/// names. [`qualify_locals`] renames an accumulator this way, and the
/// static analyzer applies an incoming operand's fresh names with it.
pub fn rename_locals(obj: &mut ObjectFile, fresh: Vec<Option<String>>) -> Result<()> {
    if fresh.iter().all(Option::is_none) {
        return Ok(());
    }
    for r in &mut obj.relocs {
        if let Some(name) = qualified(&obj.symbols, &fresh, &r.symbol) {
            r.symbol.clone_from(name);
        }
    }
    obj.symbols.rename_positions(fresh)
}

/// Fresh `$u{n}` names for the local symbols of `table` that `moves`
/// selects, by position, drawn in table order from the shared counter
/// `uniq`: a candidate already in `table` or `taken` is skipped. Fresh
/// names never collide with one another (each ends in a distinct
/// counter value).
fn fresh_locals(
    table: &SymbolTable,
    moves: impl Fn(&Symbol) -> bool,
    taken: impl Fn(&str) -> bool,
    uniq: &mut usize,
) -> Vec<Option<String>> {
    table
        .iter()
        .map(|sym| {
            (sym.binding == SymbolBinding::Local && moves(sym)).then(|| loop {
                let candidate = format!("{}$u{}", sym.name, *uniq);
                *uniq += 1;
                if table.get(&candidate).is_none() && !taken(&candidate) {
                    break candidate;
                }
            })
        })
        .collect()
}

/// The fresh name `fresh` gives `table`'s entry `name`, if any.
fn qualified<'a>(
    table: &SymbolTable,
    fresh: &'a [Option<String>],
    name: &str,
) -> Option<&'a String> {
    table.position(name).and_then(|i| fresh[i].as_ref())
}

/// Appends `src`'s sections, symbols, and relocations into `dst`,
/// giving `src`'s entries their `fresh` names (by table position) and
/// remapping section indices. Sections are moved when `src` is owned
/// and copied when it is borrowed. Under [`MergeMode::Override`] each
/// def-def conflict's name is pushed onto `interposed`.
fn append_object(
    dst: &mut ObjectFile,
    src: Cow<'_, ObjectFile>,
    fresh: &[Option<String>],
    mode: MergeMode,
    interposed: &mut Vec<String>,
) -> Result<()> {
    let base = dst.sections.len();
    for (sym, fresh) in src.symbols.iter().zip(fresh) {
        let mut s = sym.clone();
        if let Some(name) = fresh {
            s.name.clone_from(name);
        }
        if let SymbolDef::Defined { section, offset } = s.def {
            s.def = SymbolDef::Defined {
                section: section + base,
                offset,
            };
        }
        match mode {
            MergeMode::Strict => dst.symbols.insert(s)?,
            MergeMode::Override => {
                // Paper: "merges two operands, resolving conflicting
                // bindings (multiple definitions) in favor of the second
                // operand." Only a genuine def-def conflict overrides;
                // ordinary upgrades (undef→def etc.) keep merge rules.
                let conflict = matches!(
                    (
                        dst.symbols.get(&s.name).map(|e| e.def.is_definition()),
                        s.def.is_definition()
                    ),
                    (Some(true), true)
                );
                if conflict {
                    interposed.push(s.name.clone());
                    dst.symbols.insert_override(s);
                } else {
                    dst.symbols.insert(s)?;
                }
            }
        }
    }
    let qualifies = fresh.iter().any(Option::is_some);
    dst.relocs.extend(src.relocs.iter().map(|r| {
        let target = if qualifies {
            qualified(&src.symbols, fresh, &r.symbol)
        } else {
            None
        };
        Relocation {
            section: r.section + base,
            symbol: target.unwrap_or(&r.symbol).clone(),
            ..*r
        }
    }));
    match src {
        Cow::Owned(o) => dst.sections.extend(o.sections),
        Cow::Borrowed(o) => dst.sections.extend_from_slice(&o.sections),
    }
    Ok(())
}

/// Builds a one-definition module around raw bytes — a tiny helper used by
/// tests and the `source` operator's fallback paths.
#[must_use]
pub fn fragment(name: &str, symbol: &str, kind: SectionKind, bytes: Vec<u8>) -> Module {
    let mut obj = ObjectFile::new(name);
    let s = obj.add_section(Section::with_bytes(kind.default_name(), kind, bytes, 8));
    // Fresh object, fresh name: cannot collide.
    let _ = obj.define(Symbol::defined(symbol, s, 0));
    Module::from_object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_isa::assemble;

    fn module(src: &str) -> Module {
        Module::from_object(assemble("t.o", src).expect("assembles"))
    }

    fn libc_like() -> Module {
        module(
            r#"
            .text
            .global _malloc, _free
_malloc:    li r1, 0x1000
            ret
_free:      call _malloc        ; internal reference
            ret
            "#,
        )
    }

    fn client() -> Module {
        module(
            r#"
            .text
            .global _start
_start:     call _malloc
            sys 0
            "#,
        )
    }

    #[test]
    fn merge_binds_references() {
        let merged = client().merge_with(libc_like()).unwrap();
        let obj = merged.materialize().unwrap();
        assert!(obj.symbols.get("_malloc").unwrap().def.is_definition());
        assert!(obj.symbols.get("_start").unwrap().def.is_definition());
        assert!(merged.free_references().unwrap().is_empty());
    }

    #[test]
    fn merge_rejects_duplicates() {
        let a = module(".text\n.global _f\n_f: ret\n");
        let b = module(".text\n.global _f\n_f: ret\n");
        let err = a.merge_with(b).unwrap_err();
        assert_eq!(err, ObjError::DuplicateSymbol("_f".into()));
    }

    #[test]
    fn merge_of_zero_modules_is_an_error() {
        assert!(Module::merge_all(&[]).is_err());
    }

    #[test]
    fn merge_all_folds() {
        let a = module(".text\n.global _a\n_a: call _b\n ret\n");
        let b = module(".text\n.global _b\n_b: call _c\n ret\n");
        let c = module(".text\n.global _c\n_c: ret\n");
        let m = Module::merge_all(&[a, b, c]).unwrap();
        assert!(m.free_references().unwrap().is_empty());
        let mut exports = m.exports().unwrap();
        exports.sort();
        assert_eq!(exports, vec!["_a", "_b", "_c"]);
    }

    #[test]
    fn override_prefers_second() {
        let base = module(".text\n.global _draw\n_draw: li r1, 1\n ret\n");
        let derived = module(".text\n.global _draw\n_draw: li r1, 2\n ret\n");
        let m = base.override_with(derived).unwrap();
        let obj = m.materialize().unwrap();
        let def = obj.symbols.get("_draw").unwrap();
        // The winning definition must live in the second operand's section
        // (index >= number of sections in the first operand).
        match def.def {
            SymbolDef::Defined { section, .. } => assert!(section >= 4),
            other => panic!("unexpected def {other:?}"),
        }
    }

    #[test]
    fn override_rebinds_first_operands_internal_calls() {
        // Inheritance: base's `_area` calls `_side`; derived overrides
        // `_side`. After override, base's internal call reaches derived's
        // `_side` — "the modified bindings define the inheritance
        // relationships".
        let base = module(
            r#"
            .text
            .global _area, _side
_area:      call _side
            mul r1, r1, r1
            sys 0
_side:      li r1, 3
            ret
            "#,
        );
        let derived = module(".text\n.global _side\n_side: li r1, 5\n ret\n");
        let m = base.override_with(derived).unwrap();
        // Link and run: should square the *derived* side.
        let obj = m.materialize().unwrap();
        let mut opts = omos_link::LinkOptions::program("t");
        opts.entry = Some("_area".into());
        let out = omos_link::link(&[obj], &opts).unwrap();
        let stop = run(&out.image);
        assert_eq!(stop, omos_isa::StopReason::Exited(25));
    }

    fn run(img: &omos_link::LinkedImage) -> omos_isa::StopReason {
        use omos_isa::vm::{ExitOnly, FlatMemory, Vm};
        let lo = img.segments.iter().map(|s| s.vaddr).min().unwrap();
        let hi = img.segments.iter().map(|s| s.end()).max().unwrap();
        let mut mem = FlatMemory::new(lo, (hi - u64::from(lo)) as usize + 65536);
        for s in &img.segments {
            mem.load(s.vaddr, &s.bytes);
        }
        let mut vm = Vm::new(img.entry.expect("entry"));
        vm.regs[14] = hi as u32 + 65000;
        vm.run(&mut mem, &mut ExitOnly, 1_000_000)
    }

    #[test]
    fn figure2_interposition_end_to_end() {
        // Figure 2: produce a libc where a tracing `_malloc` wraps the
        // original, with `_REAL_malloc` preserving access to it.
        let base = client().merge_with(libc_like()).unwrap();
        let prepared = base
            .copy_as("^_malloc$", "_REAL_malloc")
            .unwrap()
            .restrict("^_malloc$")
            .unwrap();
        // The new definition: count the call, then delegate.
        let test_malloc = module(
            r#"
            .text
            .global _malloc
            .extern _REAL_malloc
_malloc:    li r7, _malloc_count
            ld r6, [r7]
            addi r6, r6, 1
            st r6, [r7]
            mov r8, r15          ; save return address around the call
            call _REAL_malloc
            mov r15, r8
            ret
            .data
            .global _malloc_count
_malloc_count: .word 0
            "#,
        );
        let together = prepared
            .merge_with(test_malloc)
            .unwrap()
            .hide("^_REAL_malloc$")
            .unwrap();
        // Drive it: _start calls _malloc once; exit code = malloc result.
        let obj = together.materialize().unwrap();
        let out = omos_link::link(&[obj], &omos_link::LinkOptions::program("t")).unwrap();
        assert_eq!(run(&out.image), omos_isa::StopReason::Exited(0x1000));
        // And `_REAL_malloc` is not exported.
        assert!(out.image.find("_REAL_malloc").is_none());
        assert!(out.image.find("_malloc").is_some());
    }

    #[test]
    fn figure3_rename_reroutes_to_abort() {
        // Figure 3: reroute references to a routine that should never be
        // called to `_abort`.
        let broken = module(
            r#"
            .text
            .global _entry
_entry:     call _undefined_routine
            ret
            "#,
        );
        let fixed = broken
            .rename("^_undefined_routine$", "_abort", RenameTarget::Refs)
            .unwrap();
        let refs = fixed.free_references().unwrap();
        assert!(refs.contains(&"_abort".to_string()));
        assert!(!refs.contains(&"_undefined_routine".to_string()));
    }

    #[test]
    fn hide_keeps_internal_binding_but_removes_export() {
        let lib = libc_like().hide("^_malloc$").unwrap();
        let exports = lib.exports().unwrap();
        assert_eq!(exports, vec!["_free".to_string()]);
        // _free's internal call still resolves after materialization.
        let obj = lib.materialize().unwrap();
        for r in &obj.relocs {
            assert!(
                obj.symbols.get(&r.symbol).is_some(),
                "dangling reloc to {}",
                r.symbol
            );
        }
    }

    #[test]
    fn show_is_hide_complement() {
        let lib = libc_like().show("^_malloc$").unwrap();
        assert_eq!(lib.exports().unwrap(), vec!["_malloc".to_string()]);
    }

    #[test]
    fn restrict_then_merge_rebinds() {
        // Virtualize `_malloc`, then merge a replacement: old references
        // now reach the replacement (late binding).
        let lib = libc_like().restrict("^_malloc$").unwrap();
        assert!(lib
            .free_references()
            .unwrap()
            .contains(&"_malloc".to_string()));
        let replacement = module(".text\n.global _malloc\n_malloc: li r1, 0x2000\n ret\n");
        let rebound = lib.merge_with(replacement).unwrap();
        assert!(rebound.free_references().unwrap().is_empty());
    }

    #[test]
    fn project_keeps_selected_only() {
        let m = libc_like().project("^_free$").unwrap();
        let exports = m.exports().unwrap();
        assert_eq!(exports, vec!["_free".to_string()]);
    }

    #[test]
    fn freeze_materializes_and_protects() {
        let frozen = libc_like().freeze("^_malloc$").unwrap();
        // A later restrict must not unbind the frozen symbol.
        let after = frozen.restrict("^_malloc$").unwrap();
        assert!(after.exports().unwrap().contains(&"_malloc".to_string()));
    }

    #[test]
    fn locals_do_not_clash_across_merge() {
        let a = module(".text\n.global _fa\n_fa: li r2, _msg\n ret\n.rodata\n_msg: .ascii \"A\"\n");
        let b = module(".text\n.global _fb\n_fb: li r2, _msg\n ret\n.rodata\n_msg: .ascii \"B\"\n");
        let m = a.merge_with(b).unwrap();
        let obj = m.materialize().unwrap();
        obj.validate().unwrap();
        // Both local `_msg`s survive under distinct names, each reloc
        // bound to its own.
        let locals: Vec<_> = obj
            .symbols
            .iter()
            .filter(|s| s.binding == SymbolBinding::Local)
            .collect();
        assert_eq!(locals.len(), 2);
        let targets: Vec<&String> = obj.relocs.iter().map(|r| &r.symbol).collect();
        assert_ne!(targets[0], targets[1]);
    }

    /// `a` keeps a local `helper` that its `_fa` calls; the result is
    /// merged with operands defining `globals`, and `helper`'s reference
    /// must still reach `a`'s local while every global keeps its name.
    fn merge_local_past_globals(globals: &[&str], mode: MergeMode) -> ObjectFile {
        let a = module(".text\n.global _fa\nhelper: ret\n_fa: call helper\n ret\n");
        let mut acc = a;
        for (i, g) in globals.iter().enumerate() {
            let b = module(&format!(
                ".text\n.global _f{i}, {g}\n_f{i}: ret\n{g}: ret\n"
            ));
            acc = combine(acc, b, mode).unwrap();
        }
        let obj = acc.into_object().unwrap();
        obj.validate().unwrap();
        for g in globals {
            let sym = obj.symbols.get(g).unwrap();
            assert_eq!(sym.binding, SymbolBinding::Global, "{g} keeps its name");
        }
        let call = &obj.relocs[0];
        let target = obj.symbols.get(&call.symbol).unwrap();
        assert_eq!(target.binding, SymbolBinding::Local, "{}", call.symbol);
        assert_eq!(
            target.def,
            SymbolDef::Defined {
                section: 0,
                offset: 0
            }
        );
        obj
    }

    #[test]
    fn accumulator_local_dodges_the_next_operands_global() {
        let obj = merge_local_past_globals(&["helper$u0"], MergeMode::Strict);
        assert_eq!(obj.relocs[0].symbol, "helper$u1");
        let overridden = merge_local_past_globals(&["helper$u0"], MergeMode::Override);
        assert_eq!(overridden.relocs[0].symbol, "helper$u1");
    }

    #[test]
    fn override_of_a_global_named_like_a_local_records_no_interposition() {
        let a = module(".text\n.global _fa\nhelper: ret\n_fa: call helper\n ret\n");
        let b = module(".text\n.global helper$u0\nhelper$u0: ret\n");
        assert!(a.override_with(b).unwrap().interpositions().is_empty());
    }

    #[test]
    fn chained_local_dodges_a_later_operands_global() {
        // The spelling an accumulated local had under per-step renaming.
        merge_local_past_globals(&["_mid", "helper$u0$u0"], MergeMode::Strict);
        // The local's own qualified name, taken by a later global: the
        // local moves, the global keeps its name.
        let obj = merge_local_past_globals(&["_mid", "helper$u0"], MergeMode::Strict);
        assert_eq!(obj.relocs[0].symbol, "helper$u0$u1");
    }

    #[test]
    fn copy_as_package_scheme_composes_with_restrict() {
        // "By invoking copy-as on all definitions ... using some well-known
        // scheme (e.g., prepending a package name), then using restrict to
        // virtualize the original bindings, new values for the symbols in
        // question can be inserted transparently."
        let m = libc_like()
            .copy_as("^_", "_PKG_")
            .unwrap()
            .restrict("^_(malloc|free)$")
            .unwrap();
        let exports = m.exports().unwrap();
        assert!(exports.contains(&"_PKG_malloc".to_string()));
        assert!(exports.contains(&"_PKG_free".to_string()));
        assert!(!exports.contains(&"_malloc".to_string()));
    }

    #[test]
    fn fragment_helper() {
        let f = fragment("frag.o", "_blob", SectionKind::RoData, vec![1, 2, 3]);
        assert_eq!(f.exports().unwrap(), vec!["_blob".to_string()]);
    }

    #[test]
    fn content_hash_stable_across_identical_pipelines() {
        let m1 = libc_like().hide("^_malloc$").unwrap();
        let m2 = libc_like().hide("^_malloc$").unwrap();
        assert_eq!(m1.content_hash(), m2.content_hash());
        let m3 = libc_like().hide("^_free$").unwrap();
        assert_ne!(m1.content_hash(), m3.content_hash());
    }
}
