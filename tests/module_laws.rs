//! Algebraic laws of the Jigsaw module operators, property-tested over
//! generated modules. Bracha & Lindstrom's operators have equational
//! structure; these pin the parts our implementation relies on.

use std::collections::HashMap;

use proptest::prelude::*;

use omos::isa::assemble;
use omos::module::Module;
use omos::obj::view::{RenameTarget, ViewKind};
use omos::obj::{
    ObjError, ObjectFile, RelocKind, Relocation, Section, SectionKind, Symbol, SymbolBinding,
    SymbolDef,
};
use proptest::test_runner::{TestCaseError, TestRng};

/// A generated module: distinct exported functions, some calling a free
/// reference.
fn arb_module(tag: &'static str) -> impl Strategy<Value = Module> {
    (1usize..6, proptest::collection::vec(any::<bool>(), 1..6)).prop_map(move |(n, call_flags)| {
        let mut src = String::from(".text\n");
        for i in 0..n {
            let calls = call_flags.get(i).copied().unwrap_or(false);
            src.push_str(&format!(".global _{tag}{i}\n_{tag}{i}:\n"));
            if calls {
                src.push_str(&format!("    call _free_ref_{tag}\n"));
            }
            src.push_str(&format!("    li r1, {i}\n    ret\n"));
        }
        Module::from_object(assemble(&format!("{tag}.o"), &src).expect("assembles"))
    })
}

fn exports_sorted(m: &Module) -> Vec<String> {
    let mut e = m.exports().expect("exports");
    e.sort();
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// merge is commutative up to the exported interface.
    #[test]
    fn merge_commutes_on_exports(a in arb_module("a"), b in arb_module("b")) {
        let ab = a.clone().merge_with(b.clone()).expect("disjoint");
        let ba = b.merge_with(a).expect("disjoint");
        prop_assert_eq!(exports_sorted(&ab), exports_sorted(&ba));
    }

    /// merge is associative up to the exported interface.
    #[test]
    fn merge_associates_on_exports(
        a in arb_module("a"),
        b in arb_module("b"),
        c in arb_module("c"),
    ) {
        let left = a.clone().merge_with(b.clone()).expect("ok").merge_with(c.clone()).expect("ok");
        let right = a.merge_with(b.merge_with(c).expect("ok")).expect("ok");
        prop_assert_eq!(exports_sorted(&left), exports_sorted(&right));
    }

    /// hide and show with the same pattern partition the exports.
    #[test]
    fn hide_show_partition(m in arb_module("a"), pick in any::<u8>()) {
        let all = exports_sorted(&m);
        let target = &all[pick as usize % all.len()];
        let pattern = format!("^{}$", target.replace('$', "\\$"));
        let hidden = exports_sorted(&m.hide(&pattern).expect("ok"));
        let shown = exports_sorted(&m.show(&pattern).expect("ok"));
        // hidden ∪ shown = all, hidden ∩ shown = ∅.
        let mut union: Vec<String> = hidden.iter().chain(shown.iter()).cloned().collect();
        union.sort();
        prop_assert_eq!(union, all);
        prop_assert!(hidden.iter().all(|h| !shown.contains(h)));
    }

    /// restrict is idempotent.
    #[test]
    fn restrict_is_idempotent(m in arb_module("a")) {
        let once = m.restrict("^_a[0-9]+$").expect("ok");
        let twice = once.restrict("^_a[0-9]+$").expect("ok");
        prop_assert_eq!(
            once.materialize().expect("ok").content_hash(),
            twice.materialize().expect("ok").content_hash()
        );
    }

    /// override with self is a no-op on the interface.
    #[test]
    fn override_after_restrict_rebinds(m in arb_module("a")) {
        // restrict everything, then merge the original back: the result
        // exports exactly what the original did.
        let restricted = m.restrict("^_a[0-9]+$").expect("ok");
        let rebound = restricted
            .rename("^_a", "_b", RenameTarget::Refs)
            .expect("ok"); // just to exercise the pipeline further
        let _ = rebound;
        let remerged = restricted.merge_with(m.clone()).expect("restricted defs are gone");
        prop_assert_eq!(exports_sorted(&remerged), exports_sorted(&m));
    }

    /// rename with an identity replacement is a no-op.
    #[test]
    fn identity_rename_is_noop(m in arb_module("a")) {
        // `^_a` -> `_a` replaces the matched span with itself.
        let renamed = m.rename("^_a", "_a", RenameTarget::Both).expect("ok");
        prop_assert_eq!(
            m.materialize().expect("ok").content_hash(),
            renamed.materialize().expect("ok").content_hash()
        );
    }

    /// copy-as then restrict of the original leaves exactly the copies
    /// (the interposition preparation step).
    #[test]
    fn copy_then_restrict_leaves_copies(m in arb_module("a")) {
        let prepared = m
            .copy_as("^_a", "_SAVED_a")
            .expect("ok")
            .restrict("^_a[0-9]+$")
            .expect("ok");
        let exports = exports_sorted(&prepared);
        for e in &exports {
            prop_assert!(e.starts_with("_SAVED_a"), "unexpected survivor {e}");
        }
        prop_assert_eq!(exports.len(), exports_sorted(&m).len());
    }

    /// freeze really is permanent across arbitrary later pipelines.
    #[test]
    fn freeze_is_permanent(m in arb_module("a"), later in 0u8..3) {
        let frozen = m.freeze("^_a0$").expect("ok");
        let attacked = match later {
            0 => frozen.restrict("^_a0$").expect("ok"),
            1 => frozen.hide("^_a0$").expect("ok"),
            _ => frozen.rename("^_a0$", "_gone", RenameTarget::Both).expect("ok"),
        };
        prop_assert!(exports_sorted(&attacked).contains(&"_a0".to_string()));
    }
}

// --- The in-place merge step against the copying one. ----------------------

/// How one chain step combines.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Merge,
    Override,
}

/// A view operator left pending on a module: (kind, pattern, replacement).
type PendingView = (ViewKind, String, String);

/// One step of a merge chain: the operand, how it combines, and the view
/// operators left pending on the accumulator and on the operand.
#[derive(Debug, Clone)]
struct Step {
    operand: ObjectFile,
    mode: Mode,
    acc_view: Option<PendingView>,
    operand_view: Option<PendingView>,
}

/// A generated chain: the first operand and the steps after it.
#[derive(Debug, Clone)]
struct Chain {
    first: ObjectFile,
    steps: Vec<Step>,
}

/// Locals every operand may define: shared plain names, and names that
/// already carry inner-merge (`$u`) and `hide` (`$hidden`) suffixes.
const LOCALS: [&str; 7] = [
    "L0",
    "_msg",
    "_x",
    "_x$u0",
    "_x$u1",
    "_msg$u2",
    "_y$hidden0",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// One operand: a text and a data section, globals of its own, locals
/// from [`LOCALS`], weak and common definitions of shared names,
/// undefined references, relocations against all of them, and — when
/// `duplicate` — a strong definition of `_dup`.
fn gen_object(rng: &mut TestRng, i: usize, duplicate: bool) -> ObjectFile {
    let mut o = ObjectFile::new(&format!("m{i}.o"));
    let text_len = 8 * (2 + rng.below(6));
    let bytes: Vec<u8> = (0..text_len).map(|b| (b as usize * 7 + i) as u8).collect();
    let text = o.add_section(Section::with_bytes(".text", SectionKind::Text, bytes, 8));
    let data = o.add_section(Section::with_bytes(
        ".data",
        SectionKind::Data,
        vec![i as u8; 16],
        8,
    ));
    let mut names: Vec<String> = Vec::new();
    let define = |o: &mut ObjectFile, sym: Symbol, names: &mut Vec<String>| {
        if o.symbols.get(&sym.name).is_none() {
            names.push(sym.name.clone());
            o.define(sym).expect("fresh name");
        }
    };
    let at = |rng: &mut TestRng| 8 * rng.below(text_len / 8);
    for g in 0..1 + rng.below(3) {
        define(
            &mut o,
            Symbol::defined(&format!("_m{i}_g{g}"), text, at(rng)),
            &mut names,
        );
    }
    for _ in 0..rng.below(4) {
        let name = pick(rng, &LOCALS);
        let sym = Symbol::defined(name, [text, data][rng.below(2) as usize], 0).local();
        define(&mut o, sym, &mut names);
    }
    for _ in 0..rng.below(3) {
        let sym = match rng.below(3) {
            0 => Symbol::defined(pick(rng, &["_w0", "_w1"]), text, at(rng)).weak(),
            1 => Symbol::common(pick(rng, &["_c0", "_c1"]), 4 * (1 + rng.below(8))),
            _ => Symbol::undefined(pick(rng, &["_ext", "_w0", "_c1", "_m0_g0", "_dup"])),
        };
        define(&mut o, sym, &mut names);
    }
    if duplicate {
        define(&mut o, Symbol::defined("_dup", data, 8), &mut names);
    }
    for k in 0..rng.below(5) {
        let target = names[rng.below(names.len() as u64) as usize].clone();
        o.relocate(Relocation::new(
            text,
            8 * (k % (text_len / 8)),
            RelocKind::Abs32,
            &target,
        ));
    }
    o.validate().expect("generated object is well formed");
    o
}

fn gen_view(rng: &mut TestRng) -> Option<PendingView> {
    let (kind, pattern, replacement) = match rng.below(6) {
        0 => (ViewKind::Hide, "^_m[0-9]_g0$", ""),
        1 => (ViewKind::Rename(RenameTarget::Both), "^_w", "_W"),
        2 => (ViewKind::Restrict, "^_m1_g1$", ""),
        3 => (ViewKind::CopyAs, "^_m[0-9]_g1$", "_copy"),
        _ => return None,
    };
    Some((kind, pattern.to_string(), replacement.to_string()))
}

fn gen_chain(rng: &mut TestRng) -> Chain {
    let len = 1 + rng.below(12) as usize;
    // At most one pair of strong `_dup` definitions: the later one's step
    // fails (or, under override, wins).
    let dup = [
        rng.below(len as u64) as usize,
        rng.below(len as u64 + 4) as usize,
    ];
    let first = gen_object(rng, 0, dup.contains(&0));
    let steps = (1..len)
        .map(|i| Step {
            operand: gen_object(rng, i, dup.contains(&i)),
            mode: if rng.below(4) == 0 {
                Mode::Override
            } else {
                Mode::Merge
            },
            acc_view: gen_view(rng),
            operand_view: gen_view(rng),
        })
        .collect();
    Chain { first, steps }
}

fn with_view(m: Module, view: &Option<PendingView>) -> Module {
    match view {
        Some((kind, pattern, replacement)) => m
            .apply_view(*kind, pattern, replacement)
            .expect("pattern compiles"),
        None => m,
    }
}

/// The copying merge step this crate used before steps appended in place,
/// kept verbatim as the oracle: both operands are materialized and
/// appended into a fresh object.
fn copying_combine(a: &Module, b: &Module, mode: Mode) -> Result<Module, ObjError> {
    let oa = a.materialize()?;
    let ob = b.materialize()?;
    let mut out = ObjectFile::new(&format!("{}+{}", oa.name, ob.name));
    let mut uniq = 0usize;
    copying_append(&mut out, oa, Mode::Merge, &mut uniq)?;
    copying_append(&mut out, ob, mode, &mut uniq)?;
    out.validate()?;
    Ok(Module::from_object(out))
}

fn copying_append(
    dst: &mut ObjectFile,
    src: ObjectFile,
    mode: Mode,
    uniq: &mut usize,
) -> Result<(), ObjError> {
    let base = dst.sections.len();
    let mut local_rename: Vec<(String, String)> = Vec::new();
    for sym in src.symbols.iter() {
        if sym.binding == SymbolBinding::Local {
            let fresh = loop {
                let candidate = format!("{}$u{}", sym.name, *uniq);
                *uniq += 1;
                if dst.symbols.get(&candidate).is_none() && src.symbols.get(&candidate).is_none() {
                    break candidate;
                }
            };
            local_rename.push((sym.name.clone(), fresh));
        }
    }
    for sec in src.sections {
        dst.add_section(Section { ..sec });
    }
    for sym in src.symbols.iter() {
        let mut s = sym.clone();
        if let Some((_, fresh)) = local_rename.iter().find(|(o, _)| o == &s.name) {
            s.name = fresh.clone();
        }
        if let SymbolDef::Defined { section, offset } = s.def {
            s.def = SymbolDef::Defined {
                section: section + base,
                offset,
            };
        }
        match mode {
            Mode::Merge => dst.symbols.insert(s)?,
            Mode::Override => {
                let conflict = matches!(
                    (
                        dst.symbols.get(&s.name).map(|e| e.def.is_definition()),
                        s.def.is_definition()
                    ),
                    (Some(true), true)
                );
                if conflict {
                    dst.symbols.insert_override(s);
                } else {
                    dst.symbols.insert(s)?;
                }
            }
        }
    }
    for r in src.relocs {
        let symbol = match local_rename.iter().find(|(o, _)| o == &r.symbol) {
            Some((_, fresh)) => fresh.clone(),
            None => r.symbol,
        };
        dst.relocs.push(Relocation {
            section: r.section + base,
            symbol,
            ..r
        });
    }
    Ok(())
}

/// Runs a chain through the copying oracle (every operand shared, as
/// the oracle never owns one).
fn run_copying(chain: &Chain) -> Result<Module, ObjError> {
    let mut acc = Module::from_object(chain.first.clone());
    for step in &chain.steps {
        let acc_v = with_view(acc, &step.acc_view);
        let b = with_view(
            Module::from_object(step.operand.clone()),
            &step.operand_view,
        );
        acc = copying_combine(&acc_v, &b, step.mode)?;
    }
    Ok(acc)
}

/// Runs a chain through the in-place merge: each step hands over the
/// accumulator it owns (every operand is owned too; the first one is
/// also held by `shared`, so the first step copies it).
fn run_in_place(chain: &Chain, shared: &Module) -> Result<Module, ObjError> {
    let mut acc = shared.clone();
    for step in &chain.steps {
        let acc_v = with_view(acc, &step.acc_view);
        let b = with_view(
            Module::from_object(step.operand.clone()),
            &step.operand_view,
        );
        acc = match step.mode {
            Mode::Merge => acc_v.merge_with(b)?,
            Mode::Override => acc_v.override_with(b)?,
        };
    }
    Ok(acc)
}

/// Whether the two folds may spell locals differently. The copying
/// fold re-qualifies every accumulated local on each step; the in-place
/// chain qualifies a local once, when it enters, so names part from the
/// third operand on, and only where locals exist (an operand's own, or
/// one a pending `hide` makes).
fn spelling_may_differ(chain: &Chain) -> bool {
    let has_locals = |o: &ObjectFile| o.symbols.iter().any(|s| s.binding == SymbolBinding::Local);
    let hides = |v: &Option<PendingView>| matches!(v, Some((ViewKind::Hide, _, _)));
    chain.steps.len() >= 2
        && (has_locals(&chain.first)
            || chain
                .steps
                .iter()
                .any(|s| has_locals(&s.operand) || hides(&s.acc_view) || hides(&s.operand_view)))
}

/// `obj` with each local renamed after its table position (`$local{i}`,
/// a name no operand spells), and relocations following: the form in
/// which the two folds' results are compared when their spelling may
/// differ. Everything else — symbol order, bindings, definitions,
/// relocation order and targets — is kept as it is.
fn canonical_locals(obj: ObjectFile) -> ObjectFile {
    let renamed: HashMap<String, String> = obj
        .symbols
        .iter()
        .enumerate()
        .filter(|(_, s)| s.binding == SymbolBinding::Local)
        .map(|(i, s)| (s.name.clone(), format!("$local{i}")))
        .collect();
    let rename = |name: &String| renamed.get(name).unwrap_or(name).clone();
    let mut out = ObjectFile::new(&obj.name);
    out.sections = obj.sections.clone();
    for s in obj.symbols.iter() {
        let sym = Symbol {
            name: rename(&s.name),
            ..s.clone()
        };
        out.symbols
            .insert(sym)
            .expect("canonical names are distinct");
    }
    out.relocs = obj
        .relocs
        .iter()
        .map(|r| Relocation {
            symbol: rename(&r.symbol),
            ..r.clone()
        })
        .collect();
    out
}

/// Compares an in-place result with the copying fold's: byte for byte
/// (object, then content hash) where the spelling cannot differ, and
/// after [`canonical_locals`] on both sides where it may.
fn assert_same_object(
    chain: &Chain,
    got: ObjectFile,
    want: ObjectFile,
) -> Result<(), TestCaseError> {
    let (got, want) = if spelling_may_differ(chain) {
        (canonical_locals(got), canonical_locals(want))
    } else {
        (got, want)
    };
    prop_assert_eq!(got.content_hash(), want.content_hash());
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A merge step that appends into the accumulator it owns is the
    /// copying step: same object (name, sections, symbol order,
    /// relocations), same content hash, same error — byte for byte for
    /// chains of one or two operands and for local-free chains, and up
    /// to the spelling of local names (see [`spelling_may_differ`])
    /// otherwise.
    #[test]
    fn in_place_merge_chain_matches_the_copying_fold(
        chain in proptest::strategy::from_fn(gen_chain)
    ) {
        let shared = Module::from_object(chain.first.clone());
        let want = run_copying(&chain);
        let got = run_in_place(&chain, &shared);
        match (want, got) {
            (Ok(want), Ok(got)) => {
                if !spelling_may_differ(&chain) {
                    prop_assert_eq!(got.content_hash(), want.content_hash());
                }
                let (got, want) = (got.into_object().expect("ok"), want.materialize().expect("ok"));
                assert_same_object(&chain, got, want)?;
            }
            (want, got) => prop_assert_eq!(got.err(), want.err()),
        }
        // The shared first operand was copied, never consumed.
        prop_assert_eq!(shared.materialize().expect("ok"), chain.first);
    }

    /// `merge_all` over owned steps equals the copying fold too.
    #[test]
    fn merge_all_matches_the_copying_fold(
        chain in proptest::strategy::from_fn(gen_chain)
    ) {
        let mut modules = vec![Module::from_object(chain.first.clone())];
        modules.extend(chain.steps.iter().map(|s| Module::from_object(s.operand.clone())));
        let mut want = Ok(modules[0].clone());
        for m in &modules[1..] {
            want = want.and_then(|acc| copying_combine(&acc, m, Mode::Merge));
        }
        let got = Module::merge_all(&modules);
        // `merge_all` applies no views: drop them from the chain the
        // spelling rule reads.
        let plain = Chain {
            first: chain.first.clone(),
            steps: chain
                .steps
                .iter()
                .map(|s| Step { acc_view: None, operand_view: None, ..s.clone() })
                .collect(),
        };
        match (want, got) {
            (Ok(want), Ok(got)) => assert_same_object(
                &plain,
                got.into_object().expect("ok"),
                want.into_object().expect("ok"),
            )?,
            (want, got) => prop_assert_eq!(got.err(), want.err()),
        }
    }
}

#[test]
fn renamed_local_names_stay_unique_across_the_whole_chain() {
    // Pins one case the generator reaches: a local already named like a
    // later fresh name (`_x$u1`) must be skipped, not reused, when the
    // accumulator's locals are renamed in place.
    let mut a = ObjectFile::new("a.o");
    let t = a.add_section(Section::with_bytes(
        ".text",
        SectionKind::Text,
        vec![0; 16],
        8,
    ));
    a.define(Symbol::defined("_x$u1", t, 0).local()).unwrap();
    a.define(Symbol::defined("_x", t, 8).local()).unwrap();
    a.relocate(Relocation::new(t, 0, RelocKind::Abs32, "_x"));
    let b = a.clone();
    let want = copying_combine(
        &Module::from_object(a.clone()),
        &Module::from_object(b.clone()),
        Mode::Merge,
    )
    .unwrap()
    .materialize()
    .unwrap();
    let got = Module::from_object(a)
        .merge_with(Module::from_object(b))
        .unwrap()
        .into_object()
        .unwrap();
    assert_eq!(got, want);
    // `a`'s `_x` skipped the taken `_x$u1`; `b`'s renamed after it.
    let locals: Vec<&str> = got.symbols.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(locals, ["_x$u1$u0", "_x$u2", "_x$u1$u3", "_x$u4"]);
}

/// A module `m{tag}.o` whose exported `_f{tag}` loads its local `_msg`.
fn with_local_msg(tag: &str) -> Module {
    let src = format!(
        ".text\n.global _f{tag}\n_f{tag}: li r2, _msg\n ret\n.rodata\n_msg: .ascii \"{tag}\"\n"
    );
    Module::from_object(assemble(&format!("m{tag}.o"), &src).expect("assembles"))
}

fn names(obj: &ObjectFile) -> (Vec<&str>, Vec<&str>) {
    let symbols = obj.symbols.iter().map(|s| s.name.as_str()).collect();
    let targets = obj.relocs.iter().map(|r| r.symbol.as_str()).collect();
    (symbols, targets)
}

#[test]
fn a_three_operand_chain_qualifies_each_local_once() {
    let got = Module::merge_all(&[
        with_local_msg("a"),
        with_local_msg("b"),
        with_local_msg("c"),
    ])
    .unwrap()
    .into_object()
    .unwrap();
    assert_eq!(got.name, "ma.o+mb.o+mc.o");
    assert_eq!(
        names(&got),
        (
            vec!["_fa", "_msg$u0", "_fb", "_msg$u1", "_fc", "_msg$u2"],
            vec!["_msg$u0", "_msg$u1", "_msg$u2"],
        )
    );
}

#[test]
fn a_view_between_steps_requalifies_the_accumulator() {
    // `hide` makes a new local, so the step after it qualifies every
    // accumulated local again, counting from 0; the incoming operand's
    // locals continue that count.
    let ab = with_local_msg("a").merge_with(with_local_msg("b")).unwrap();
    let got = ab
        .hide("^_fa$")
        .unwrap()
        .merge_with(with_local_msg("c"))
        .unwrap()
        .merge_with(with_local_msg("d"))
        .unwrap()
        .into_object()
        .unwrap();
    assert_eq!(
        names(&got),
        (
            vec![
                "_fa$hidden0$u0",
                "_msg$u0$u1",
                "_fb",
                "_msg$u1$u2",
                "_fc",
                "_msg$u3",
                "_fd",
                "_msg$u4",
            ],
            vec!["_msg$u0$u1", "_msg$u1$u2", "_msg$u3", "_msg$u4"],
        )
    );
}
