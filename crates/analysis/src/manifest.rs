//! Static resolution manifests.
//!
//! A [`ResolutionManifest`] is the canonical record of every link-time
//! decision an instantiation commits to — which library provides each
//! symbol, where every segment lands, which interpositions are in
//! effect, and the content keys of the images that would be produced —
//! derived **without executing a link**: the m-graph is evaluated
//! ([`eval_with_policies`], view algebra only), placement is replayed on
//! a solver ([`place_libraries`]; the server places on its live one,
//! inside a trial that rolls back), and export addresses are planned
//! with the linker's own layout pass ([`manifest_of_placed`], via
//! [`omos_link::layout_symbols`]). No image is linked and no relocation
//! is applied.
//!
//! The server builds the same manifest from the artifacts it actually
//! produced; [`divergence`] compares the two and reports any
//! disagreement as an `OM016` error — the analyzer/linker contract the
//! differential tests enforce (see DESIGN.md §4.12).
//!
//! # Canonicalization
//!
//! * libraries appear in resolution (left-to-right, downstream) order —
//!   the order is semantic, so it is preserved, not sorted;
//! * bindings are sorted by symbol name;
//! * interpositions are sorted and deduplicated;
//! * the encoding writes the canonical form with the shared
//!   little-endian wire primitives inside a sealed
//!   [`ContainerKind::Resolution`] frame, so two manifests that compare
//!   equal encode byte-identically and [`ResolutionManifest::hash`] is
//!   a pure function of the resolution.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use omos_blueprint::eval::LibraryUse;
use omos_blueprint::{eval_blueprint, Blueprint, EvalContext, EvalOutput, LinkPolicy};
use omos_constraint::{
    PlacementRequest, PlacementSolver, RegionClass, SegmentRequest, SolverState,
};
use omos_link::{layout_symbols, read_externs, LinkOptions};
use omos_obj::encode::container::{self, ContainerKind};
use omos_obj::encode::{from_bytes, to_bytes};
use omos_obj::{fnv1a, ContentHash, ObjError, ObjectFile, SectionKind};

use crate::{Diagnostic, LintContext, Severity};

/// Default client text base when no `constraint-list` pins it (programs
/// overlap freely across tasks; only libraries need globally consistent
/// placement). The server re-exports this — the value lives here so the
/// static analyzer and the linker path cannot drift.
pub const CLIENT_TEXT_BASE: u32 = 0x0001_0000;
/// Default client data base, kept below the library data window.
pub const CLIENT_DATA_BASE: u32 = 0x3000_0000;

/// Provider name recorded for symbols the client module defines itself.
pub const PROGRAM_PROVIDER: &str = "<program>";

/// Client segment bases: constraint-pinned when present, defaults
/// otherwise. Shared by the server's program link and the static
/// derivation.
#[must_use]
pub fn client_bases(cs: &[(RegionClass, u64)]) -> (u32, u32) {
    let pref = |class| cs.iter().find(|(c, _)| *c == class).map(|(_, a)| *a as u32);
    (
        pref(RegionClass::Text).unwrap_or(CLIENT_TEXT_BASE),
        pref(RegionClass::Data).unwrap_or(CLIENT_DATA_BASE),
    )
}

/// One symbol's committed resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Symbol name.
    pub symbol: String,
    /// Providing library name, or [`PROGRAM_PROVIDER`] for symbols the
    /// client module defines itself.
    pub provider: String,
    /// Bound virtual address.
    pub addr: u32,
}

/// One library's placement and identity decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryResolution {
    /// Library name.
    pub name: String,
    /// Content key of the evaluated library module.
    pub key: ContentHash,
    /// Placed text-segment base.
    pub text_base: u32,
    /// Placed data-segment base.
    pub data_base: u32,
    /// Image-cache key the bound library image will carry (covers
    /// content, placement, and the extern bindings it links against).
    pub image_key: ContentHash,
}

/// The client program's placement and identity decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramResolution {
    /// Client text base.
    pub text_base: u32,
    /// Client data base.
    pub data_base: u32,
    /// Image-cache key the program image will carry.
    pub image_key: ContentHash,
}

/// The canonical record of one instantiation's link-time decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolutionManifest {
    /// Hash of the blueprint this resolution is for.
    pub root: ContentHash,
    /// Referenced libraries in resolution order.
    pub libraries: Vec<LibraryResolution>,
    /// The client program.
    pub program: ProgramResolution,
    /// Symbol bindings, sorted by symbol name.
    pub bindings: Vec<Binding>,
    /// Interposed symbols (override conflicts), sorted and deduplicated.
    pub interpositions: Vec<String>,
    /// Applied link policies ([`Blueprint::canonical_policies`]): sorted
    /// and deduplicated. Empty for policy-free blueprints, whose
    /// manifests encode byte-identically to the pre-policy format.
    pub policies: Vec<LinkPolicy>,
}

// Policies are written only when present: policy-free manifests keep
// their historical bytes (and hash), and pre-policy frames decode.
omos_obj::wire_record! { ResolutionManifest {
    root, libraries, program, bindings, interpositions, policies as Trailing
} }
omos_obj::wire_record! { LibraryResolution { name, key, text_base, data_base, image_key } }
omos_obj::wire_record! { ProgramResolution { text_base, data_base, image_key } }
omos_obj::wire_record! { Binding { symbol, provider, addr } }

impl ResolutionManifest {
    /// Serializes into a sealed [`ContainerKind::Resolution`] frame.
    /// Canonical: equal manifests encode byte-identically.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        container::seal(ContainerKind::Resolution, &to_bytes(self))
    }

    /// Decodes a sealed frame back into a manifest.
    pub fn decode(bytes: &[u8]) -> Result<ResolutionManifest, ObjError> {
        from_bytes(container::open(ContainerKind::Resolution, bytes)?)
    }

    /// Content hash of the canonical payload. Two requests resolved the
    /// same way carry the same hash, regardless of jobs or thread
    /// count.
    #[must_use]
    pub fn hash(&self) -> ContentHash {
        fnv1a(&to_bytes(self))
    }

    /// [`ResolutionManifest::hash`] and [`ResolutionManifest::encode`]
    /// from one serialization of the payload.
    #[must_use]
    pub fn hash_and_encode(&self) -> (ContentHash, Vec<u8>) {
        let payload = to_bytes(self);
        (
            fnv1a(&payload),
            container::seal(ContainerKind::Resolution, &payload),
        )
    }

    /// Human-readable rendering (for `ofe explain`).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "manifest {:016x} (blueprint {:016x})",
            self.hash().0,
            self.root.0
        );
        for l in &self.libraries {
            let _ = writeln!(
                s,
                "  library {} text={:#010x} data={:#010x} image={:016x}",
                l.name, l.text_base, l.data_base, l.image_key.0
            );
        }
        let _ = writeln!(
            s,
            "  program text={:#010x} data={:#010x} image={:016x}",
            self.program.text_base, self.program.data_base, self.program.image_key.0
        );
        for p in &self.policies {
            let _ = writeln!(s, "  policy {} {}", p.kind.tag(), p.pattern);
        }
        for i in &self.interpositions {
            let _ = writeln!(s, "  interpose {i}");
        }
        for b in &self.bindings {
            let _ = writeln!(
                s,
                "  bind {} -> {} @ {:#010x}",
                b.symbol, b.provider, b.addr
            );
        }
        s
    }
}

/// What changed between two manifests. `ofe explain a b` renders this;
/// the changed-binding set is exactly the dep-precise invalidation set
/// a rebind induces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManifestDiff {
    /// Bindings present in both but resolved differently (provider or
    /// address moved). `(before, after)` pairs, sorted by symbol.
    pub changed: Vec<(Binding, Binding)>,
    /// Bindings only the second manifest has.
    pub added: Vec<Binding>,
    /// Bindings only the first manifest has.
    pub removed: Vec<Binding>,
    /// Libraries whose placement or image key moved (or that appear in
    /// only one manifest).
    pub libraries_changed: Vec<String>,
    /// True when the program's placement or image key moved.
    pub program_changed: bool,
    /// Interposition sets differ.
    pub interpositions_changed: bool,
    /// Applied policy sets differ. A policy change is a binding change:
    /// the relink planner must rebuild the program image.
    pub policies_changed: bool,
}

impl ManifestDiff {
    /// True when the two manifests resolved identically.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
            && self.added.is_empty()
            && self.removed.is_empty()
            && self.libraries_changed.is_empty()
            && !self.program_changed
            && !self.interpositions_changed
            && !self.policies_changed
    }

    /// Names of every symbol whose binding changed in any way — the
    /// minimal set a dependent must re-examine after the rebind.
    #[must_use]
    pub fn changed_symbols(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .changed
            .iter()
            .map(|(b, _)| b.symbol.clone())
            .chain(self.added.iter().map(|b| b.symbol.clone()))
            .chain(self.removed.iter().map(|b| b.symbol.clone()))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Human-readable rendering.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        if self.is_empty() {
            return "manifests are identical\n".to_string();
        }
        let mut s = String::new();
        for name in &self.libraries_changed {
            let _ = writeln!(s, "  library {name} moved or was rebuilt");
        }
        if self.program_changed {
            let _ = writeln!(s, "  program image changed");
        }
        if self.interpositions_changed {
            let _ = writeln!(s, "  interposition set changed");
        }
        if self.policies_changed {
            let _ = writeln!(s, "  policy set changed");
        }
        for (a, b) in &self.changed {
            if a.provider == b.provider {
                // Placement-only: the same library still provides the
                // symbol, its segments just landed elsewhere.
                let _ = writeln!(
                    s,
                    "  ~ {}: {} moved {:#010x} -> {:#010x}",
                    a.symbol, a.provider, a.addr, b.addr
                );
            } else {
                let _ = writeln!(
                    s,
                    "  ~ {}: {} @ {:#010x} -> {} @ {:#010x}",
                    a.symbol, a.provider, a.addr, b.provider, b.addr
                );
            }
        }
        for b in &self.added {
            let _ = writeln!(s, "  + {}: {} @ {:#010x}", b.symbol, b.provider, b.addr);
        }
        for b in &self.removed {
            let _ = writeln!(s, "  - {}: {} @ {:#010x}", b.symbol, b.provider, b.addr);
        }
        s
    }
}

/// Diffs two manifests: the changed-binding set plus placement/identity
/// movement.
#[must_use]
pub fn diff(before: &ResolutionManifest, after: &ResolutionManifest) -> ManifestDiff {
    let mut d = ManifestDiff::default();
    let b_map: BTreeMap<&str, &Binding> = before
        .bindings
        .iter()
        .map(|b| (b.symbol.as_str(), b))
        .collect();
    let a_map: BTreeMap<&str, &Binding> = after
        .bindings
        .iter()
        .map(|b| (b.symbol.as_str(), b))
        .collect();
    for (sym, b) in &b_map {
        match a_map.get(sym) {
            Some(a) if *a != *b => d.changed.push(((*b).clone(), (*a).clone())),
            Some(_) => {}
            None => d.removed.push((*b).clone()),
        }
    }
    for (sym, a) in &a_map {
        if !b_map.contains_key(sym) {
            d.added.push((*a).clone());
        }
    }
    let b_libs: BTreeMap<&str, &LibraryResolution> = before
        .libraries
        .iter()
        .map(|l| (l.name.as_str(), l))
        .collect();
    let a_libs: BTreeMap<&str, &LibraryResolution> = after
        .libraries
        .iter()
        .map(|l| (l.name.as_str(), l))
        .collect();
    for (name, l) in &b_libs {
        if a_libs.get(name) != Some(l) {
            d.libraries_changed.push((*name).to_string());
        }
    }
    for name in a_libs.keys() {
        if !b_libs.contains_key(name) {
            d.libraries_changed.push((*name).to_string());
        }
    }
    d.libraries_changed.sort();
    d.libraries_changed.dedup();
    d.program_changed = before.program != after.program;
    d.interpositions_changed = before.interpositions != after.interpositions;
    d.policies_changed = before.policies != after.policies;
    d
}

/// Compares a statically derived manifest against the one built from
/// the artifacts a real instantiation produced. Any disagreement is an
/// `OM016` error: the analyzer's model of the linker has drifted, and
/// the differential tests treat that as a hard failure.
#[must_use]
pub fn divergence(derived: &ResolutionManifest, actual: &ResolutionManifest) -> Vec<Diagnostic> {
    fn emit_into(diags: &mut Vec<Diagnostic>, message: String) {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "OM016",
            message,
            span: None,
        });
    }
    let mut diags = Vec::new();
    if derived == actual {
        return diags;
    }
    let d = diff(derived, actual);
    {
        let mut emit = |message: String| emit_into(&mut diags, message);
        for name in &d.libraries_changed {
            emit(format!(
                "manifest/link divergence: library `{name}` placement or image key disagrees"
            ));
        }
        if d.program_changed {
            emit(format!(
                "manifest/link divergence: program image disagrees ({:?} vs {:?})",
                derived.program, actual.program
            ));
        }
        if d.interpositions_changed {
            emit("manifest/link divergence: interposition sets disagree".to_string());
        }
        if d.policies_changed {
            emit("manifest/link divergence: applied policy sets disagree".to_string());
        }
        for (a, b) in &d.changed {
            emit(format!(
                "manifest/link divergence: `{}` bound to {} @ {:#010x} statically but {} @ {:#010x} by the linker",
                a.symbol, a.provider, a.addr, b.provider, b.addr
            ));
        }
        for b in d.added.iter().chain(d.removed.iter()) {
            emit(format!(
                "manifest/link divergence: binding for `{}` present on one side only",
                b.symbol
            ));
        }
    }
    if diags.is_empty() {
        // Equal diffs but unequal manifests can only mean the root or
        // library *order* differs.
        emit_into(
            &mut diags,
            "manifest/link divergence: root hash or library order disagrees".to_string(),
        );
    }
    diags
}

/// The placement request for one library image: text (plus rodata)
/// and data (plus bss) segments rounded up to whole pages, each
/// preferring the library's constraint-pinned address when it has one.
/// Shared by the server's library placement and the static derivation.
#[must_use]
pub fn library_placement(lib: &LibraryUse, obj: &ObjectFile) -> PlacementRequest {
    let segment = |class, size: u64| SegmentRequest {
        class,
        size: (size.max(1) + 4095) & !4095,
        align: 4096,
        preferred: lib
            .constraints
            .iter()
            .find(|(c, _)| *c == class)
            .map(|&(_, a)| a),
    };
    let text = obj.size_of_kind(SectionKind::Text) + obj.size_of_kind(SectionKind::RoData);
    let data = obj.size_of_kind(SectionKind::Data) + obj.size_of_kind(SectionKind::Bss);
    PlacementRequest {
        name: lib.name.clone(),
        key: lib.key.0,
        segments: vec![
            segment(RegionClass::Text, text),
            segment(RegionClass::Data, data),
        ],
    }
}

/// A library's bound-image key: its content key, its placed bases, and
/// `read`, the extern bindings its link reads ([`read_externs`] of its
/// object against the exports of the libraries before it). Those are
/// all the link's inputs, so every program whose earlier libraries bind
/// the names this library references to the same addresses maps one
/// image; a binding it does not reference moves no key.
#[must_use]
pub fn library_image_key(
    key: ContentHash,
    (text_base, data_base): (u32, u32),
    read: &[(&str, u32)],
) -> ContentHash {
    with_bindings(
        key.with_str("library")
            .with_u64(u64::from(text_base))
            .with_u64(u64::from(data_base)),
        read,
    )
}

/// A program's bound-image key: its module content, its client bases,
/// and `read`, the library bindings its link reads ([`read_externs`] of
/// its object against every library's exports). It names no library
/// image: a rebuilt library whose bindings the program does not read
/// leaves the program image in place. Reply reuse does not rest on this
/// key but on the dependency-checked reply cache, which drops a reply
/// whenever a path it resolved is rebound.
#[must_use]
pub fn program_image_key(
    content: ContentHash,
    (text_base, data_base): (u32, u32),
    read: &[(&str, u32)],
) -> ContentHash {
    with_bindings(
        content
            .with_str("program")
            .with_u64(u64::from(text_base))
            .with_u64(u64::from(data_base)),
        read,
    )
}

fn with_bindings(key: ContentHash, read: &[(&str, u32)]) -> ContentHash {
    read.iter().fold(key, |k, &(name, addr)| {
        k.with_str(name).with_u64(u64::from(addr))
    })
}

/// Evaluates `bp` (view algebra, no linking) and applies its link
/// policies ([`crate::policy::apply_link_policies`]): the output a
/// derivation of a bare blueprint starts from.
pub fn eval_with_policies(
    bp: &Blueprint,
    eval_ctx: &dyn EvalContext,
) -> Result<EvalOutput, String> {
    let mut out = eval_blueprint(bp, eval_ctx).map_err(|e| format!("eval failed: {e}"))?;
    crate::policy::apply_link_policies(bp, &mut out).map_err(|e| format!("{e}"))?;
    Ok(out)
}

/// Derives the resolution manifest for an evaluated blueprint whose
/// link policies are applied ([`eval_with_policies`]): replays
/// placement on a solver rebuilt from `solver`, and plans every export
/// address with the linker's layout pass. The real link is never
/// executed and no image bytes are produced. The interpositions are
/// the ones the evaluation recorded ([`interpositions_of`]).
///
/// `solver` is the exported state of the authoritative placement
/// solver: replaying placement against it returns exactly the
/// addresses the server would hand out (known libraries reuse their
/// recorded ranges; unknown ones get the same deterministic first-fit
/// the server's next cold build would commit). A caller that holds the
/// live solver derives on it directly instead, placing inside a
/// [`PlacementSolver::trial`] ([`place_libraries`]).
///
/// `_lint_ctx` is unused: the interpositions come from `out` itself,
/// so no analyzer runs. The parameter stays so that existing callers
/// (the host-clock benchmark among them) build unchanged.
pub fn derive_manifest_from_eval(
    bp: &Blueprint,
    out: &EvalOutput,
    _lint_ctx: &mut dyn LintContext,
    solver: &SolverState,
) -> Result<ResolutionManifest, String> {
    let mut solver = PlacementSolver::import_state(solver);
    let objects = materialize_libraries(out)?;
    let bases = place_libraries(out, &objects, &mut solver)?;
    manifest_of_placed(bp, out, &objects, &bases)
}

/// The interposed symbols of an evaluation: the records its client
/// module and every library module carry
/// ([`omos_module::Module::interpositions`]), merged, sorted and
/// deduplicated. They come from the same evaluation that produced the
/// modules, so they describe the same namespace generation.
#[must_use]
pub fn interpositions_of(out: &EvalOutput) -> Vec<String> {
    let mut names: Vec<String> = std::iter::once(&out.module)
        .chain(out.libraries.iter().map(|l| &l.module))
        .flat_map(|m| m.interpositions().iter().cloned())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Every library object of `out`, in resolution order: the objects
/// [`place_libraries`] sizes and [`manifest_of_placed`] lays out. A
/// library whose view has no pending operation is borrowed, not copied
/// ([`omos_obj::View::object`]).
pub fn materialize_libraries(out: &EvalOutput) -> Result<Vec<Cow<'_, ObjectFile>>, String> {
    out.libraries
        .iter()
        .map(|lib| {
            lib.module
                .view()
                .object()
                .map_err(|e| format!("materialize `{}` failed: {e}", lib.name))
        })
        .collect()
}

/// Places every library of `out` (materialized as `objects`) on
/// `solver`, in resolution order, and returns each one's
/// `(text_base, data_base)`. The placements are booked on `solver`, as
/// a cold build would book them, so a caller deriving on the live solver
/// runs this inside a [`PlacementSolver::trial`].
pub fn place_libraries(
    out: &EvalOutput,
    objects: &[Cow<'_, ObjectFile>],
    solver: &mut PlacementSolver,
) -> Result<Vec<(u32, u32)>, String> {
    out.libraries
        .iter()
        .zip(objects)
        .map(|(lib, obj)| {
            let placement = solver
                .place(&library_placement(lib, obj), &[])
                .map_err(|e| format!("placement of `{}` failed: {e}", lib.name))?;
            let text_base = placement.allocations[0].base as u32;
            let data_base = placement.allocations[1].base as u32;
            Ok((text_base, data_base))
        })
        .collect()
}

/// Finishes a derivation from placed libraries (`objects` at `bases`,
/// one each, in resolution order): plans every export address with the
/// linker's layout pass and assembles the manifest. Needs no solver.
pub fn manifest_of_placed(
    bp: &Blueprint,
    out: &EvalOutput,
    objects: &[Cow<'_, ObjectFile>],
    bases: &[(u32, u32)],
) -> Result<ResolutionManifest, String> {
    let mut externs: HashMap<String, u32> = HashMap::new();
    let mut libraries = Vec::with_capacity(out.libraries.len());
    let mut exports = Vec::with_capacity(out.libraries.len());
    for ((lib, obj), &(text_base, data_base)) in out.libraries.iter().zip(objects).zip(bases) {
        let image_key = library_image_key(
            lib.key,
            (text_base, data_base),
            &read_externs(obj, &externs),
        );
        // Exports depend on layout alone (externs only affect
        // relocation), so the options carry no extern environment.
        let opts = LinkOptions::library(&lib.name, text_base, data_base);
        let symbols = layout_symbols(std::slice::from_ref(&**obj), &opts)
            .map_err(|e| format!("layout of `{}` failed: {e}", lib.name))?;
        // Left-to-right, first-definition-wins extern fold ("all
        // definitions of variables must be made in the library furthest
        // downstream").
        for (s, a) in &symbols {
            externs.entry(s.clone()).or_insert(*a);
        }
        exports.push(symbols);
        libraries.push(LibraryResolution {
            name: lib.name.clone(),
            key: lib.key,
            text_base,
            data_base,
            image_key,
        });
    }

    let (text_base, data_base) = client_bases(&out.constraints);
    let prog_obj = out
        .module
        .view()
        .object()
        .map_err(|e| format!("materialize program failed: {e}"))?;
    let image_key = program_image_key(
        out.module.content_hash(),
        (text_base, data_base),
        &read_externs(&prog_obj, &externs),
    );
    let mut opts = LinkOptions::program("program");
    opts.text_base = text_base;
    opts.data_base = data_base;
    let prog_syms = layout_symbols(std::slice::from_ref(&*prog_obj), &opts)
        .map_err(|e| format!("program layout failed: {e}"))?;
    let program = ProgramResolution {
        text_base,
        data_base,
        image_key,
    };
    Ok(assemble_manifest(
        bp,
        interpositions_of(out),
        libraries,
        &exports,
        program,
        &prog_syms,
    ))
}

/// Assembles the canonical manifest from a resolution's parts: the
/// evaluation's interpositions ([`interpositions_of`]), the library
/// rows with each library's exports, in resolution order, and the
/// program row with the program's own definitions. Library exports
/// bind first definition wins; the program's definitions override any
/// of them (its internal resolution beats any extern). Shared by the
/// static derivation and the server's manifest of what a build actually
/// produced, so the two canonicalize identically.
pub fn assemble_manifest<'a>(
    bp: &Blueprint,
    interpositions: Vec<String>,
    libraries: Vec<LibraryResolution>,
    exports: impl IntoIterator<Item = &'a HashMap<String, u32>>,
    program: ProgramResolution,
    program_exports: &HashMap<String, u32>,
) -> ResolutionManifest {
    let mut map: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
    for (lib, symbols) in libraries.iter().zip(exports) {
        for (s, a) in symbols {
            map.entry(s).or_insert((&lib.name, *a));
        }
    }
    for (s, a) in program_exports {
        map.insert(s, (PROGRAM_PROVIDER, *a));
    }
    let bindings = map
        .into_iter()
        .map(|(symbol, (provider, addr))| Binding {
            symbol: symbol.to_string(),
            provider: provider.to_string(),
            addr,
        })
        .collect();
    ResolutionManifest {
        root: bp.hash(),
        libraries,
        program,
        bindings,
        interpositions,
        policies: bp.canonical_policies(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_blueprint::PolicyKind;

    fn sample() -> ResolutionManifest {
        ResolutionManifest {
            root: ContentHash(0xdead),
            libraries: vec![LibraryResolution {
                name: "libc".into(),
                key: ContentHash(7),
                text_base: 0x0100_0000,
                data_base: 0x4100_0000,
                image_key: ContentHash(9),
            }],
            program: ProgramResolution {
                text_base: CLIENT_TEXT_BASE,
                data_base: CLIENT_DATA_BASE,
                image_key: ContentHash(11),
            },
            bindings: vec![
                Binding {
                    symbol: "_printf".into(),
                    provider: "libc".into(),
                    addr: 0x0100_0010,
                },
                Binding {
                    symbol: "_start".into(),
                    provider: PROGRAM_PROVIDER.into(),
                    addr: 0x0001_0000,
                },
            ],
            interpositions: vec!["_malloc".into()],
            policies: Vec::new(),
        }
    }

    #[test]
    fn codec_roundtrips() {
        let m = sample();
        let back = ResolutionManifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.hash(), m.hash());
    }

    #[test]
    fn hash_and_encode_matches_hash_and_encode() {
        let mut with_policy = sample();
        with_policy.policies = vec![LinkPolicy {
            kind: PolicyKind::Trampoline,
            pattern: "^_f$".into(),
        }];
        for m in [sample(), with_policy] {
            let (hash, frame) = m.hash_and_encode();
            assert_eq!(hash, m.hash());
            assert_eq!(frame, m.encode());
            assert_eq!(ResolutionManifest::decode(&frame).unwrap(), m);
        }
    }

    #[test]
    fn policies_roundtrip_and_diff_flags_them() {
        let mut m = sample();
        m.policies = vec![
            LinkPolicy {
                kind: PolicyKind::Deny,
                pattern: "^_exec".into(),
            },
            LinkPolicy {
                kind: PolicyKind::Audit,
                pattern: "^_malloc$".into(),
            },
        ];
        let back = ResolutionManifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_ne!(m.hash(), sample().hash());
        assert!(m.render().contains("policy deny ^_exec"));
        let d = diff(&sample(), &m);
        assert!(d.policies_changed);
        assert!(!d.is_empty());
        assert!(d.render().contains("policy set changed"));
        assert!(divergence(&sample(), &m)
            .iter()
            .any(|dg| dg.message.contains("policy sets disagree")));
    }

    #[test]
    fn encoding_is_canonical_and_corruption_detected() {
        let m = sample();
        assert_eq!(m.encode(), m.encode());
        let bytes = m.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(
                ResolutionManifest::decode(&bad).is_err(),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn hash_moves_with_any_field() {
        let m = sample();
        let mut moved = m.clone();
        moved.bindings[0].addr += 4;
        assert_ne!(m.hash(), moved.hash());
        let mut moved = m.clone();
        moved.libraries[0].text_base += 0x1000;
        assert_ne!(m.hash(), moved.hash());
        let mut moved = m.clone();
        moved.interpositions.clear();
        assert_ne!(m.hash(), moved.hash());
    }

    #[test]
    fn diff_names_exactly_the_changed_bindings() {
        let a = sample();
        let mut b = sample();
        b.bindings[0].addr = 0x0200_0010;
        b.bindings.push(Binding {
            symbol: "_new".into(),
            provider: "libc".into(),
            addr: 0x0200_0020,
        });
        let d = diff(&a, &b);
        assert_eq!(d.changed_symbols(), ["_new", "_printf"]);
        assert!(!d.is_empty());
        assert!(diff(&a, &a).is_empty());
    }

    #[test]
    fn divergence_is_empty_only_on_equality() {
        let a = sample();
        assert!(divergence(&a, &a).is_empty());
        let mut b = sample();
        b.bindings[0].provider = "libm".into();
        let diags = divergence(&a, &b);
        assert!(!diags.is_empty());
        assert!(diags
            .iter()
            .all(|d| d.code == "OM016" && d.severity == Severity::Error));
    }

    #[test]
    fn diff_render_separates_placement_moves_from_provider_changes() {
        let a = sample();
        // Placement-only: same provider, moved address.
        let mut moved = sample();
        moved.bindings[0].addr = 0x0200_0010;
        let s = diff(&a, &moved).render();
        assert!(
            s.contains("~ _printf: libc moved 0x01000010 -> 0x02000010"),
            "placement-only change must render as a move: {s}"
        );
        assert!(!s.contains("libc @"), "no provider-change arrow: {s}");
        // Provider change: keeps the explicit provider -> provider form.
        let mut reprov = sample();
        reprov.bindings[0].provider = "libm".into();
        let s = diff(&a, &reprov).render();
        assert!(
            s.contains("~ _printf: libc @ 0x01000010 -> libm @ 0x01000010"),
            "provider change must name both providers: {s}"
        );
        assert!(!s.contains("moved"), "provider change is not a move: {s}");
    }

    #[test]
    fn render_mentions_every_section() {
        let s = sample().render();
        assert!(s.contains("library libc"));
        assert!(s.contains("program "));
        assert!(s.contains("interpose _malloc"));
        assert!(s.contains("bind _printf -> libc"));
    }
}
