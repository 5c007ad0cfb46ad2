//! The native dynamic shared-library baseline (the competitor in Table 1).
//!
//! HP-UX and SunOS-style schemes link the client against *stubs*: each
//! outgoing procedure call goes through a PLT entry that indirects through
//! a GOT slot, bound lazily by the dynamic linker on first call; data
//! references to library symbols are patched eagerly at program start.
//! That per-invocation work — proportional to the number of external
//! references — is exactly what Table 1 shows OMOS avoiding, so it must be
//! real here: the PLT stubs are actual U32 code, and the binder really
//! runs in the simulated process on first call.

use std::collections::{HashMap, HashSet};

use omos_isa::{sysno, Inst, Opcode, INST_BYTES};
use omos_obj::{ObjectFile, RelocKind, Relocation, Section, SectionKind, Symbol};

use crate::error::{LinkError, LinkResult};
use crate::image::LinkedImage;
use crate::linker::{link, resolve_only, LinkOptions, LinkStats, UnresolvedRef};

/// A shared library as the native scheme sees it.
#[derive(Debug, Clone)]
pub struct DynLibrary {
    /// Library name (e.g. `libc`).
    pub name: String,
    /// The library image, linked at its preferred base. Text is shared
    /// between all client processes.
    pub image: LinkedImage,
    /// Exported symbols at their in-image addresses.
    pub exports: HashMap<String, u32>,
    /// Relocation work the native loader redoes *per process* when this
    /// library is attached (GOT-style data cells plus data-segment
    /// pointers). This models the paper's "work in proportion to the
    /// number of external references ... every time the library is
    /// loaded".
    pub per_process_relocs: u64,
}

/// One PLT entry of a dynamically linked executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PltEntry {
    /// The imported symbol.
    pub symbol: String,
    /// Address of the stub code in the executable's text.
    pub stub_addr: u32,
    /// Address of the GOT slot the stub indirects through.
    pub got_addr: u32,
}

/// A dynamically linked executable (the native baseline's output).
#[derive(Debug, Clone)]
pub struct DynExecutable {
    /// The client image (with PLT stubs and GOT baked in).
    pub image: LinkedImage,
    /// Libraries to map at exec time, in search order.
    pub needed: Vec<String>,
    /// The procedure linkage table.
    pub plt: Vec<PltEntry>,
    /// Data references the loader must patch eagerly at every exec.
    pub eager: Vec<UnresolvedRef>,
    /// Static-link work counters.
    pub stats: LinkStats,
}

impl DynExecutable {
    /// Per-invocation dynamic-linking work if every PLT entry ends up
    /// bound: eager patches plus one lazy bind per entry.
    #[must_use]
    pub fn max_dynamic_relocs(&self) -> u64 {
        self.eager.len() as u64 + self.plt.len() as u64
    }
}

/// Builds a shared library for the native scheme.
///
/// `deps` are libraries this one may reference (resolved at their
/// preferred bases, like transitive `NEEDED` entries).
pub fn build_dyn_library(
    objects: &[ObjectFile],
    name: &str,
    text_base: u32,
    data_base: u32,
    deps: &[&DynLibrary],
) -> LinkResult<DynLibrary> {
    let mut opts = LinkOptions::library(name, text_base, data_base);
    for d in deps {
        opts.externs
            .extend(d.exports.iter().map(|(k, v)| (k.clone(), *v)));
    }
    let out = link(objects, &opts)?;

    // Per-process relocation work: every data-segment pointer plus one GOT
    // cell per distinct external/global reference from text.
    let mut distinct_refs: HashSet<&str> = HashSet::new();
    let mut data_ptrs = 0u64;
    for obj in objects {
        for r in &obj.relocs {
            match obj.sections[r.section].kind {
                SectionKind::Data | SectionKind::RoData => data_ptrs += 1,
                _ => {
                    distinct_refs.insert(r.symbol.as_str());
                }
            }
        }
    }
    let exports: HashMap<String, u32> = out.image.symbols.clone();
    Ok(DynLibrary {
        name: name.to_string(),
        image: out.image,
        exports,
        per_process_relocs: data_ptrs + distinct_refs.len() as u64,
    })
}

/// Classifies whether the relocation at `r` in `obj` patches the immediate
/// of a `call`/`jmp` instruction (lazy-bindable) as opposed to an
/// address-taken or data reference (must be eager).
fn is_call_site(obj: &ObjectFile, r: &Relocation) -> bool {
    let sec = &obj.sections[r.section];
    if sec.kind != SectionKind::Text || r.kind != RelocKind::Abs32 {
        return false;
    }
    // Instruction immediates live at inst+4.
    if r.offset % INST_BYTES != 4 {
        return false;
    }
    let inst_off = (r.offset - 4) as usize;
    let Some(raw) = sec
        .bytes
        .get(inst_off..inst_off + 8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
    else {
        return false;
    };
    matches!(
        Inst::decode(&raw).map(|i| i.op),
        Some(Opcode::Call) | Some(Opcode::Jmp)
    )
}

/// Builds a dynamically linked executable against `libs`.
///
/// Client calls to library procedures are rewritten to PLT stubs (lazy
/// binding); everything else the libraries export becomes an eager
/// load-time patch. References no library satisfies are an error.
pub fn build_dyn_executable(
    objects: &[ObjectFile],
    name: &str,
    libs: &[&DynLibrary],
) -> LinkResult<DynExecutable> {
    // Which external names do the libraries cover?
    let mut lib_exports: HashMap<&str, u32> = HashMap::new();
    for l in libs {
        for (s, a) in &l.exports {
            lib_exports.entry(s.as_str()).or_insert(*a);
        }
    }

    // Undefined names of the client alone.
    let table = resolve_only(objects)?;
    let client_undef: HashSet<String> = table.undefined().map(|s| s.name.clone()).collect();

    let missing: Vec<String> = {
        let mut m: Vec<String> = client_undef
            .iter()
            .filter(|s| !lib_exports.contains_key(s.as_str()))
            .cloned()
            .collect();
        m.sort();
        m
    };
    if !missing.is_empty() {
        return Err(LinkError::Undefined(missing));
    }

    // Decide lazy vs eager per symbol: a symbol is lazy-bindable if *all*
    // its client references are call sites.
    let mut call_only: HashMap<&str, bool> = HashMap::new();
    for obj in objects {
        for r in &obj.relocs {
            if !client_undef.contains(&r.symbol) {
                continue;
            }
            let e = call_only.entry(r.symbol.as_str()).or_insert(true);
            *e &= is_call_site(obj, r);
        }
    }
    let mut lazy: Vec<String> = call_only
        .iter()
        .filter(|&(_, &only_calls)| only_calls)
        .map(|(s, _)| (*s).to_string())
        .collect();
    lazy.sort();

    // Rewrite client call relocations to target the PLT stubs.
    let lazy_set: HashSet<&str> = lazy.iter().map(String::as_str).collect();
    let mut rewritten: Vec<ObjectFile> = objects.to_vec();
    for obj in &mut rewritten {
        for r in &mut obj.relocs {
            if lazy_set.contains(r.symbol.as_str()) {
                r.symbol = format!("{}$plt", r.symbol);
            }
        }
    }

    // Generate the PLT object.
    if !lazy.is_empty() {
        rewritten.push(make_plt_object(&lazy));
    }

    let mut opts = LinkOptions::program(name);
    opts.allow_undefined = true;
    let out = link(&rewritten, &opts)?;

    // Eager sites are exactly what the static link left unresolved.
    let eager = out.unresolved.clone();
    let plt =
        lazy.iter()
            .map(|s| {
                let stub_addr = out.image.find(&format!("{s}$plt")).ok_or_else(|| {
                    LinkError::Reloc(format!("plt stub for `{s}` lost during link"))
                })?;
                let got_addr = out.image.find(&format!("{s}$got")).ok_or_else(|| {
                    LinkError::Reloc(format!("got slot for `{s}` lost during link"))
                })?;
                Ok(PltEntry {
                    symbol: s.clone(),
                    stub_addr,
                    got_addr,
                })
            })
            .collect::<LinkResult<Vec<_>>>()?;

    Ok(DynExecutable {
        image: out.image,
        needed: libs.iter().map(|l| l.name.clone()).collect(),
        plt,
        eager,
        stats: out.stats,
    })
}

/// Builds the PLT/GOT object: per symbol, a five-instruction stub
///
/// ```text
/// f$plt:  ld   r5, [r0 + f$got]   ; current binding
///         bne  r5, r0, +16       ; bound already? jump to the call
///         li   r6, INDEX         ; PLT index for the binder
///         sys  BIND              ; binder writes GOT and returns target in r5
/// go:     jmpr r5
/// f$got:  .word 0                ; data cell, zero = unbound
/// ```
fn make_plt_object(lazy: &[String]) -> ObjectFile {
    let mut obj = ObjectFile::new("<plt>");
    let text = obj.add_section(Section::with_bytes(
        ".text",
        SectionKind::Text,
        Vec::new(),
        8,
    ));
    let data = obj.add_section(Section::with_bytes(
        ".data",
        SectionKind::Data,
        Vec::new(),
        8,
    ));
    for (index, sym) in lazy.iter().enumerate() {
        let stub_off = obj.sections[text].size;
        let got_off = obj.sections[data].size;

        let insts = [
            Inst::new(Opcode::Ld).ra(5).rb(0), // imm patched via reloc to f$got
            Inst::new(Opcode::Bne).ra(5).rb(0).simm(16),
            Inst::new(Opcode::Li).ra(6).imm(index as u32),
            Inst::new(Opcode::Sys).imm(sysno::BIND),
            Inst::new(Opcode::Jmpr).rb(5),
        ];
        for i in &insts {
            obj.sections[text].append(&i.encode());
        }
        obj.sections[data].append(&0u32.to_le_bytes());

        // These inserts cannot fail: names are fresh in this object.
        let _ = obj.define(Symbol::defined(&format!("{sym}$plt"), text, stub_off));
        let _ = obj.define(Symbol::defined(&format!("{sym}$got"), data, got_off));
        obj.relocate(Relocation::new(
            text,
            stub_off + 4,
            RelocKind::Abs32,
            &format!("{sym}$got"),
        ));
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_isa::assemble;

    fn libm_objects() -> Vec<ObjectFile> {
        vec![assemble(
            "libm.o",
            r#"
            .text
            .global _sqrt_ish
_sqrt_ish:  shr r1, r1, r2     ; not math, but callable
            ret
            .data
            .global _math_errno
_math_errno: .word 0
            "#,
        )
        .unwrap()]
    }

    fn client_objects() -> Vec<ObjectFile> {
        vec![assemble(
            "main.o",
            r#"
            .text
            .global _start
_start:     li r1, 64
            li r2, 2
            call _sqrt_ish
            call _sqrt_ish
            sys 0
            "#,
        )
        .unwrap()]
    }

    #[test]
    fn library_builds_with_exports_and_reloc_count() {
        let lib =
            build_dyn_library(&libm_objects(), "libm", 0x0200_0000, 0x4200_0000, &[]).unwrap();
        assert!(lib.exports.contains_key("_sqrt_ish"));
        assert!(lib.exports.contains_key("_math_errno"));
        assert_eq!(lib.image.entry, None);
    }

    #[test]
    fn executable_gets_plt_for_calls() {
        let lib =
            build_dyn_library(&libm_objects(), "libm", 0x0200_0000, 0x4200_0000, &[]).unwrap();
        let exe = build_dyn_executable(&client_objects(), "client", &[&lib]).unwrap();
        assert_eq!(exe.plt.len(), 1);
        assert_eq!(exe.plt[0].symbol, "_sqrt_ish");
        assert!(exe.eager.is_empty());
        assert_eq!(exe.needed, vec!["libm".to_string()]);
        assert_eq!(exe.max_dynamic_relocs(), 1);
        // Stub and GOT are inside the image.
        assert!(exe.image.segment_at(exe.plt[0].stub_addr).is_some());
        assert!(exe.image.segment_at(exe.plt[0].got_addr).is_some());
    }

    #[test]
    fn data_reference_goes_eager() {
        let client = vec![assemble(
            "main.o",
            r#"
            .text
            .global _start
_start:     li r2, _math_errno   ; address-taken: not lazy-bindable
            ld r1, [r2]
            call _sqrt_ish
            sys 0
            "#,
        )
        .unwrap()];
        let lib =
            build_dyn_library(&libm_objects(), "libm", 0x0200_0000, 0x4200_0000, &[]).unwrap();
        let exe = build_dyn_executable(&client, "client", &[&lib]).unwrap();
        assert_eq!(exe.plt.len(), 1, "_sqrt_ish stays lazy");
        assert_eq!(exe.eager.len(), 1, "_math_errno is an eager site");
        assert_eq!(exe.eager[0].symbol, "_math_errno");
    }

    #[test]
    fn function_address_taken_disables_lazy() {
        let client = vec![assemble(
            "main.o",
            r#"
            .text
            .global _start
_start:     li r5, _sqrt_ish    ; function pointer
            callr r5
            call _sqrt_ish       ; also a direct call
            sys 0
            "#,
        )
        .unwrap()];
        let lib =
            build_dyn_library(&libm_objects(), "libm", 0x0200_0000, 0x4200_0000, &[]).unwrap();
        let exe = build_dyn_executable(&client, "client", &[&lib]).unwrap();
        // Mixed usage: must be eager for correctness (both sites).
        assert!(exe.plt.is_empty());
        assert_eq!(exe.eager.len(), 2);
    }

    #[test]
    fn missing_symbol_is_an_error() {
        let client = vec![assemble(
            "main.o",
            ".text\n.global _start\n_start: call _nonexistent\n sys 0\n",
        )
        .unwrap()];
        let lib =
            build_dyn_library(&libm_objects(), "libm", 0x0200_0000, 0x4200_0000, &[]).unwrap();
        let err = build_dyn_executable(&client, "client", &[&lib]).unwrap_err();
        assert_eq!(err, LinkError::Undefined(vec!["_nonexistent".into()]));
    }

    #[test]
    fn inter_library_references_resolve_through_deps() {
        let liba = build_dyn_library(
            &[assemble("a.o", ".text\n.global _base\n_base: li r1, 7\n ret\n").unwrap()],
            "liba",
            0x0200_0000,
            0x4200_0000,
            &[],
        )
        .unwrap();
        let libb = build_dyn_library(
            &[assemble("b.o", ".text\n.global _wrap\n_wrap: call _base\n ret\n").unwrap()],
            "libb",
            0x0300_0000,
            0x4300_0000,
            &[&liba],
        )
        .unwrap();
        assert!(libb.exports.contains_key("_wrap"));
        // The call into liba was bound at library link time.
        assert!(libb.image.no_overlap());
    }

    #[test]
    fn plt_stub_code_is_well_formed() {
        let obj = make_plt_object(&["_f".into(), "_g".into()]);
        obj.validate().unwrap();
        assert!(obj.symbols.get("_f$plt").is_some());
        assert!(obj.symbols.get("_g$got").is_some());
        assert_eq!(obj.relocs.len(), 2);
        // Each stub is 5 instructions.
        assert_eq!(obj.sections[0].size, 2 * 5 * INST_BYTES);
        // Decode the first stub and sanity-check the sequence.
        let b = &obj.sections[0].bytes;
        let ops: Vec<Opcode> = (0..5)
            .map(|k| {
                Inst::decode(b[k * 8..k * 8 + 8].try_into().unwrap())
                    .unwrap()
                    .op
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                Opcode::Ld,
                Opcode::Bne,
                Opcode::Li,
                Opcode::Sys,
                Opcode::Jmpr
            ]
        );
    }
}
