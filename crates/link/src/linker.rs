//! Static linking: layout, symbol resolution, relocation application.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use omos_obj::{
    upgrade, ObjectFile, RelocKind, SectionKind, SymbolBinding, SymbolDef, SymbolTable, Upgrade,
};

use crate::error::{LinkError, LinkResult};
use crate::image::{LinkedImage, Segment};

/// Options controlling a link.
#[derive(Debug, Clone)]
pub struct LinkOptions {
    /// Output image name.
    pub name: String,
    /// Base virtual address of the text segment (read-only data follows,
    /// page aligned).
    pub text_base: u32,
    /// Base virtual address of the data segment (BSS follows).
    pub data_base: u32,
    /// Entry symbol; `None` links a library (no entry point).
    pub entry: Option<String>,
    /// Pre-bound external symbols (the self-contained shared-library
    /// mechanism: library exports at their constraint-chosen addresses).
    pub externs: HashMap<String, u32>,
    /// Leave unresolved references as [`UnresolvedRef`]s instead of
    /// erroring (used to build dynamically linked executables).
    pub allow_undefined: bool,
    /// Segment alignment (page size).
    pub page_align: u32,
}

impl Default for LinkOptions {
    fn default() -> Self {
        LinkOptions {
            name: "a.out".into(),
            text_base: 0x0001_0000,
            data_base: 0x4000_0000,
            entry: Some("_start".into()),
            externs: HashMap::new(),
            allow_undefined: false,
            page_align: 4096,
        }
    }
}

impl LinkOptions {
    /// Library preset: no entry symbol.
    #[must_use]
    pub fn library(name: &str, text_base: u32, data_base: u32) -> LinkOptions {
        LinkOptions {
            name: name.into(),
            text_base,
            data_base,
            entry: None,
            ..LinkOptions::default()
        }
    }

    /// Program preset with the default `_start` entry.
    #[must_use]
    pub fn program(name: &str) -> LinkOptions {
        LinkOptions {
            name: name.into(),
            ..LinkOptions::default()
        }
    }
}

/// Work counters, priced by the simulated OS's cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Input objects merged.
    pub objects: u64,
    /// Global symbols resolved (hash insertions + lookups).
    pub symbols_resolved: u64,
    /// Relocations applied.
    pub relocs_applied: u64,
    /// Section bytes copied into the image.
    pub bytes_copied: u64,
    /// References satisfied from the pre-bound externs map.
    pub externs_bound: u64,
    /// References left unresolved (for the dynamic linker).
    pub left_unresolved: u64,
}

impl LinkStats {
    /// Accumulates another stats record.
    pub fn absorb(&mut self, other: LinkStats) {
        self.objects += other.objects;
        self.symbols_resolved += other.symbols_resolved;
        self.relocs_applied += other.relocs_applied;
        self.bytes_copied += other.bytes_copied;
        self.externs_bound += other.externs_bound;
        self.left_unresolved += other.left_unresolved;
    }
}

/// A reference the static linker left for the dynamic linker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnresolvedRef {
    /// Target symbol name.
    pub symbol: String,
    /// Index into [`LinkedImage::segments`] of the site.
    pub segment: usize,
    /// Site offset within that segment.
    pub offset: u64,
    /// Patch kind.
    pub kind: RelocKind,
    /// Addend.
    pub addend: i64,
}

/// The result of a link.
#[derive(Debug, Clone)]
pub struct LinkOutput {
    /// The laid-out image.
    pub image: LinkedImage,
    /// Work counters.
    pub stats: LinkStats,
    /// Sites the dynamic linker must patch (empty unless
    /// [`LinkOptions::allow_undefined`]).
    pub unresolved: Vec<UnresolvedRef>,
}

fn align_up(v: u64, a: u64) -> u64 {
    debug_assert!(a.is_power_of_two());
    (v + a - 1) & !(a - 1)
}

/// The address plan for a link: where every section and every defined
/// global lands. Computed by [`compute_layout`] from symbol tables and
/// section sizes alone — no section bytes are read — so it is available
/// before (and independently of) relocation.
struct Layout {
    /// Per-object, per-section offset within its segment kind.
    sec_off: Vec<Vec<u64>>,
    text_base: u64,
    ro_base: u64,
    data_base: u64,
    bss_base: u64,
    bss_size: u64,
    /// Global name -> virtual address (the image's export map).
    addr_of: HashMap<String, u32>,
    /// Non-local symbols processed during resolution.
    symbols_resolved: u64,
}

impl Layout {
    fn seg_base(&self, kind: SectionKind) -> u64 {
        match kind {
            SectionKind::Text => self.text_base,
            SectionKind::RoData => self.ro_base,
            SectionKind::Data => self.data_base,
            SectionKind::Bss => self.bss_base,
        }
    }
}

/// Passes 1–3 of the link: global symbol resolution (strong/weak/common
/// rules), segment layout, and symbol address assignment.
fn compute_layout(objects: &[ObjectFile], opts: &LinkOptions) -> LinkResult<Layout> {
    // --- Pass 1: global symbol resolution (section-relative). -------------
    // Each global's winning entry in first-seen order, with the object
    // that supplied it: a Defined winner's home. Names stay borrowed.
    let mut symbols_resolved = 0u64;
    let mut globals: Vec<(&str, usize, SymbolBinding, SymbolDef)> = Vec::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    for (i, obj) in objects.iter().enumerate() {
        for sym in obj.symbols.iter() {
            if sym.binding == SymbolBinding::Local {
                continue;
            }
            symbols_resolved += 1;
            let entry = (sym.name.as_str(), i, sym.binding, sym.def);
            let held = match index.entry(&sym.name) {
                Entry::Occupied(g) => &mut globals[*g.get()],
                Entry::Vacant(g) => {
                    g.insert(globals.len());
                    globals.push(entry);
                    continue;
                }
            };
            match upgrade((held.2, held.3), (sym.binding, sym.def)) {
                Upgrade::Keep => {}
                Upgrade::Take => *held = entry,
                Upgrade::Grow(size) => held.3 = SymbolDef::Common { size },
                Upgrade::Duplicate => return Err(LinkError::Duplicate(sym.name.clone())),
            }
        }
    }

    // --- Pass 2: layout (sizes and alignment only). -----------------------
    let page = u64::from(opts.page_align);
    let mut text_len = 0u64;
    let mut ro_len = 0u64;
    let mut data_len = 0u64;
    let mut bss_size = 0u64;
    let mut sec_off: Vec<Vec<u64>> = Vec::with_capacity(objects.len());
    for obj in objects {
        let mut offs = Vec::with_capacity(obj.sections.len());
        for sec in &obj.sections {
            let len = match sec.kind {
                SectionKind::Text => &mut text_len,
                SectionKind::RoData => &mut ro_len,
                SectionKind::Data => &mut data_len,
                SectionKind::Bss => {
                    bss_size = align_up(bss_size, sec.align.max(1));
                    offs.push(bss_size);
                    bss_size += sec.size;
                    continue;
                }
            };
            let aligned = align_up(*len, sec.align.max(1));
            offs.push(aligned);
            *len = aligned + sec.bytes.len() as u64;
        }
        sec_off.push(offs);
    }

    // Segment bases.
    let mut lay = Layout {
        sec_off,
        text_base: u64::from(opts.text_base),
        ro_base: align_up(u64::from(opts.text_base) + text_len, page),
        data_base: u64::from(opts.data_base),
        bss_base: align_up(u64::from(opts.data_base) + data_len, 8),
        bss_size,
        addr_of: HashMap::new(),
        symbols_resolved,
    };

    // --- Pass 3: symbol addresses; commons go at the end of BSS. ----------
    for (name, i, _, def) in globals {
        let addr = match def {
            SymbolDef::Defined { section, offset } => {
                lay.seg_base(objects[i].sections[section].kind) + lay.sec_off[i][section] + offset
            }
            SymbolDef::Common { size } => {
                let rel = align_up(lay.bss_size, 8);
                lay.bss_size = rel + size;
                lay.bss_base + rel
            }
            SymbolDef::Absolute { value } => value,
            SymbolDef::Undefined => continue,
        };
        lay.addr_of.insert(name.to_string(), addr as u32);
    }
    Ok(lay)
}

/// Computes the exported symbol map of a link — identical to
/// [`link`]'s `image.symbols` — from layout alone, without copying
/// section bytes or applying relocations (exports depend only on
/// layout; externs only affect relocation). The static manifest
/// derivation plans export addresses with it.
pub fn layout_symbols(
    objects: &[ObjectFile],
    opts: &LinkOptions,
) -> LinkResult<HashMap<String, u32>> {
    Ok(compute_layout(objects, opts)?.addr_of)
}

/// The bindings of `externs` a link of `obj` reads: those named as the
/// target of one of its relocations, sorted by name. Pass 5 consults
/// the extern map for a relocation's target and nowhere else, so
/// linking `obj` against these alone gives the image and [`LinkStats`]
/// of linking it against all of `externs`. Image keys hash this set.
#[must_use]
pub fn read_externs<'a>(
    obj: &ObjectFile,
    externs: &'a HashMap<String, u32>,
) -> Vec<(&'a str, u32)> {
    let mut read: Vec<(&str, u32)> = obj
        .relocs
        .iter()
        .filter_map(|r| externs.get_key_value(&r.symbol))
        .map(|(name, &addr)| (name.as_str(), addr))
        .collect();
    // Relocations repeat targets. Every repeat borrows the same map key,
    // so dropping repeats by key address leaves few names to sort.
    read.sort_unstable_by_key(|&(name, _)| name.as_ptr());
    read.dedup_by_key(|&mut (name, _)| name.as_ptr());
    read.sort_unstable();
    read
}

/// Links `objects` into a single image.
///
/// The classic pipeline: per-object local-symbol scoping, global symbol
/// resolution (strong/weak/common rules), segment layout (text, rodata,
/// data, BSS + commons), then relocation.
pub fn link(objects: &[ObjectFile], opts: &LinkOptions) -> LinkResult<LinkOutput> {
    let lay = compute_layout(objects, opts)?;
    let mut stats = LinkStats {
        objects: objects.len() as u64,
        symbols_resolved: lay.symbols_resolved,
        ..LinkStats::default()
    };

    // Copy section bytes to their laid-out offsets.
    let mut text_bytes = Vec::new();
    let mut ro_bytes = Vec::new();
    let mut data_bytes = Vec::new();
    for (i, obj) in objects.iter().enumerate() {
        for (j, sec) in obj.sections.iter().enumerate() {
            let buf = match sec.kind {
                SectionKind::Text => &mut text_bytes,
                SectionKind::RoData => &mut ro_bytes,
                SectionKind::Data => &mut data_bytes,
                SectionKind::Bss => continue,
            };
            // Offsets only grow, so this resize is pure zero padding.
            buf.resize(lay.sec_off[i][j] as usize, 0);
            buf.extend_from_slice(&sec.bytes);
            stats.bytes_copied += sec.bytes.len() as u64;
        }
    }

    let (text_base, ro_base, data_base, bss_base, bss_size) = (
        lay.text_base,
        lay.ro_base,
        lay.data_base,
        lay.bss_base,
        lay.bss_size,
    );
    let addr_of = &lay.addr_of;

    // Virtual address of object i, section j.
    let sec_addr = |i: usize, j: usize| -> u64 {
        let kind = objects[i].sections[j].kind;
        lay.seg_base(kind) + lay.sec_off[i][j]
    };

    // Per-object local maps: name -> vaddr.
    let mut locals: Vec<HashMap<&str, u32>> = Vec::with_capacity(objects.len());
    for (i, obj) in objects.iter().enumerate() {
        let mut m = HashMap::new();
        for sym in obj.symbols.iter() {
            if sym.binding != SymbolBinding::Local {
                continue;
            }
            match sym.def {
                SymbolDef::Defined { section, offset } => {
                    m.insert(sym.name.as_str(), (sec_addr(i, section) + offset) as u32);
                }
                SymbolDef::Absolute { value } => {
                    m.insert(sym.name.as_str(), value as u32);
                }
                _ => {}
            }
        }
        locals.push(m);
    }

    // --- Pass 4: build segments. ---------------------------------------------
    let mut image = LinkedImage {
        name: opts.name.clone(),
        ..LinkedImage::default()
    };
    let mut seg_index: HashMap<SectionKind, usize> = HashMap::new();
    let push_seg = |image: &mut LinkedImage,
                    seg_index: &mut HashMap<SectionKind, usize>,
                    name: &str,
                    kind: SectionKind,
                    vaddr: u64,
                    bytes: Vec<u8>,
                    zero: u64| {
        if bytes.is_empty() && zero == 0 {
            return;
        }
        seg_index.insert(kind, image.segments.len());
        image.segments.push(Segment {
            name: name.into(),
            kind,
            vaddr: vaddr as u32,
            bytes: bytes.into(),
            zero,
        });
    };
    push_seg(
        &mut image,
        &mut seg_index,
        ".text",
        SectionKind::Text,
        text_base,
        text_bytes,
        0,
    );
    push_seg(
        &mut image,
        &mut seg_index,
        ".rodata",
        SectionKind::RoData,
        ro_base,
        ro_bytes,
        0,
    );
    push_seg(
        &mut image,
        &mut seg_index,
        ".data",
        SectionKind::Data,
        data_base,
        data_bytes,
        0,
    );
    push_seg(
        &mut image,
        &mut seg_index,
        ".bss",
        SectionKind::Bss,
        bss_base,
        Vec::new(),
        bss_size,
    );

    if !image.no_overlap() {
        return Err(LinkError::Layout(format!(
            "segments overlap (text_base={:#x}, data_base={:#x})",
            opts.text_base, opts.data_base
        )));
    }

    // --- Pass 5: relocate. -----------------------------------------------------
    let mut unresolved = Vec::new();
    let mut missing = Vec::new();
    for (i, obj) in objects.iter().enumerate() {
        for r in &obj.relocs {
            let site_seg_kind = obj.sections[r.section].kind;
            let site_addr = sec_addr(i, r.section) + r.offset;
            let seg_idx = *seg_index
                .get(&site_seg_kind)
                .ok_or_else(|| LinkError::Reloc("site in missing segment".into()))?;
            let seg_off = site_addr - u64::from(image.segments[seg_idx].vaddr);

            // Resolution order: object-local, then global, then externs.
            let target: Option<u32> = locals[i]
                .get(r.symbol.as_str())
                .copied()
                .or_else(|| addr_of.get(&r.symbol).copied())
                .or_else(|| {
                    opts.externs.get(&r.symbol).copied().inspect(|_| {
                        stats.externs_bound += 1;
                    })
                });

            let Some(s) = target else {
                if opts.allow_undefined {
                    stats.left_unresolved += 1;
                    unresolved.push(UnresolvedRef {
                        symbol: r.symbol.clone(),
                        segment: seg_idx,
                        offset: seg_off,
                        kind: r.kind,
                        addend: r.addend,
                    });
                } else {
                    missing.push(r.symbol.clone());
                }
                continue;
            };

            let value = match r.kind {
                RelocKind::Abs32 | RelocKind::Abs64 | RelocKind::Hi16 | RelocKind::Lo16 => {
                    i64::from(s) + r.addend
                }
                RelocKind::Pcrel32 => i64::from(s) + r.addend - (site_addr as i64 + 4),
            };
            // The segment's buffer is still this link's alone.
            let seg = &mut image.segments[seg_idx];
            let patched = Arc::get_mut(&mut seg.bytes)
                .is_some_and(|b| omos_obj::reloc::apply_patch(b, seg_off, r.kind, value));
            if !patched {
                return Err(LinkError::Reloc(format!(
                    "site {:#x} for `{}` outside segment",
                    site_addr, r.symbol
                )));
            }
            stats.relocs_applied += 1;
        }
    }
    if !missing.is_empty() {
        missing.sort();
        missing.dedup();
        return Err(LinkError::Undefined(missing));
    }

    // --- Pass 6: exports and entry. ---------------------------------------------
    image.symbols = lay.addr_of;
    if let Some(entry_sym) = &opts.entry {
        let addr = image
            .symbols
            .get(entry_sym)
            .copied()
            .ok_or_else(|| LinkError::NoEntry(entry_sym.clone()))?;
        image.entry = Some(addr);
    }

    Ok(LinkOutput {
        image,
        stats,
        unresolved,
    })
}

/// Convenience: links and asserts full resolution, returning just the image.
pub fn link_program(objects: &[ObjectFile], name: &str) -> LinkResult<LinkedImage> {
    let opts = LinkOptions::program(name);
    Ok(link(objects, &opts)?.image)
}

/// Resolves one common symbol table across objects without laying anything
/// out — used by callers that only need duplicate/undefined detection.
pub fn resolve_only(objects: &[ObjectFile]) -> LinkResult<SymbolTable> {
    let mut globals = SymbolTable::new();
    for obj in objects {
        for sym in obj.symbols.iter() {
            if sym.binding == SymbolBinding::Local {
                continue;
            }
            globals.insert(sym.clone())?;
        }
    }
    Ok(globals)
}

/// Lists names that remain undefined after resolving `objects` together.
pub fn undefined_after(objects: &[ObjectFile]) -> LinkResult<Vec<String>> {
    let t = resolve_only(objects)?;
    Ok(t.undefined().map(|s| s.name.clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_isa::assemble;
    use omos_isa::vm::{ExitOnly, FlatMemory, StopReason, Vm};
    use omos_obj::Symbol;

    fn run_image(img: &LinkedImage) -> StopReason {
        // Map everything into one flat memory spanning the image.
        let lo = img.segments.iter().map(|s| s.vaddr).min().unwrap();
        let hi = img.segments.iter().map(|s| s.end()).max().unwrap();
        let mut mem = FlatMemory::new(lo, (hi - u64::from(lo)) as usize + 65536);
        for s in &img.segments {
            mem.load(s.vaddr, &s.bytes);
        }
        let mut vm = Vm::new(img.entry.expect("program has entry"));
        vm.regs[14] = (hi as u32) + 65000; // stack above the image
        vm.run(&mut mem, &mut ExitOnly, 1_000_000)
    }

    #[test]
    fn two_object_program_links_and_runs() {
        let main = assemble(
            "main.o",
            r#"
            .text
            .global _start
_start:     li r1, 4
            call _double
            call _double
            sys 0
            "#,
        )
        .unwrap();
        let lib = assemble(
            "lib.o",
            r#"
            .text
            .global _double
_double:    add r1, r1, r1
            ret
            "#,
        )
        .unwrap();
        let out = link(&[main, lib], &LinkOptions::program("t")).unwrap();
        assert_eq!(out.stats.objects, 2);
        assert_eq!(out.stats.relocs_applied, 2);
        assert_eq!(run_image(&out.image), StopReason::Exited(16));
    }

    #[test]
    fn data_and_bss_layout() {
        let a = assemble(
            "a.o",
            r#"
            .text
            .global _start
_start:     li r2, _value
            ld r1, [r2]
            li r3, _counter
            st r1, [r3]
            ld r1, [r3]
            sys 0
            .data
            .global _value
_value:     .word 123
            .bss
            .global _counter
_counter:   .space 4
            "#,
        )
        .unwrap();
        let out = link(&[a], &LinkOptions::program("t")).unwrap();
        assert_eq!(run_image(&out.image), StopReason::Exited(123));
        // BSS segment exists and sits after data.
        let data = out
            .image
            .segments
            .iter()
            .find(|s| s.kind == SectionKind::Data)
            .unwrap();
        let bss = out
            .image
            .segments
            .iter()
            .find(|s| s.kind == SectionKind::Bss)
            .unwrap();
        assert!(u64::from(bss.vaddr) >= data.end());
    }

    #[test]
    fn commons_allocated_in_bss() {
        let a = assemble(
            "a.o",
            ".text\n.global _start\n_start: li r2, _shared\n ld r1, [r2]\n sys 0\n.comm _shared, 64\n",
        )
        .unwrap();
        let b = assemble("b.o", ".comm _shared, 128\n").unwrap();
        let out = link(&[a, b], &LinkOptions::program("t")).unwrap();
        let bss = out
            .image
            .segments
            .iter()
            .find(|s| s.kind == SectionKind::Bss)
            .unwrap();
        assert!(bss.size() >= 128, "larger common wins");
        let addr = out.image.find("_shared").unwrap();
        assert!(bss.contains(addr));
        assert_eq!(run_image(&out.image), StopReason::Exited(0));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let a = assemble("a.o", ".text\n.global _f\n_f: ret\n").unwrap();
        let b = assemble("b.o", ".text\n.global _f\n_f: ret\n").unwrap();
        let err = link(&[a, b], &LinkOptions::library("t", 0x1000, 0x4000_0000)).unwrap_err();
        assert_eq!(err, LinkError::Duplicate("_f".into()));
    }

    #[test]
    fn undefined_symbols_reported_sorted_unique() {
        let a = assemble(
            "a.o",
            ".text\n.global _start\n_start: call _zeta\n call _alpha\n call _zeta\n sys 0\n",
        )
        .unwrap();
        let err = link(&[a], &LinkOptions::program("t")).unwrap_err();
        assert_eq!(
            err,
            LinkError::Undefined(vec!["_alpha".into(), "_zeta".into()])
        );
    }

    #[test]
    fn externs_bind_like_a_self_contained_library() {
        // The self-contained scheme: the "library" lives at a fixed address
        // chosen by the constraint system; the client links against the
        // export map and calls directly — no PLT, no run-time relocation.
        let lib = assemble(
            "libc.o",
            r#"
            .text
            .global _triple
_triple:    add r2, r1, r1
            add r1, r2, r1
            ret
            "#,
        )
        .unwrap();
        let lib_out = link(
            &[lib],
            &LinkOptions::library("libc", 0x0100_0000, 0x4100_0000),
        )
        .unwrap();
        let client = assemble(
            "main.o",
            ".text\n.global _start\n_start: li r1, 5\n call _triple\n sys 0\n",
        )
        .unwrap();
        let mut opts = LinkOptions::program("client");
        opts.externs = lib_out.image.symbols.clone();
        let client_out = link(&[client], &opts).unwrap();
        assert_eq!(client_out.stats.externs_bound, 1);

        // Run with both images mapped.
        let mut mem = FlatMemory::new(0x1_0000, 0x4200_0000 - 0x1_0000);
        for s in client_out
            .image
            .segments
            .iter()
            .chain(lib_out.image.segments.iter())
        {
            mem.load(s.vaddr, &s.bytes);
        }
        let mut vm = Vm::new(client_out.image.entry.unwrap());
        vm.regs[14] = 0x4150_0000;
        assert_eq!(
            vm.run(&mut mem, &mut ExitOnly, 10_000),
            StopReason::Exited(15)
        );
    }

    #[test]
    fn allow_undefined_collects_sites() {
        let a = assemble(
            "a.o",
            ".text\n.global _start\n_start: call _printf\n li r2, _errno\n ld r1, [r2]\n sys 0\n",
        )
        .unwrap();
        let mut opts = LinkOptions::program("t");
        opts.allow_undefined = true;
        let out = link(&[a], &opts).unwrap();
        assert_eq!(out.unresolved.len(), 2);
        assert_eq!(out.stats.left_unresolved, 2);
        let syms: Vec<&str> = out.unresolved.iter().map(|u| u.symbol.as_str()).collect();
        assert!(syms.contains(&"_printf"));
        assert!(syms.contains(&"_errno"));
    }

    #[test]
    fn local_symbols_do_not_clash_across_objects() {
        let a = assemble(
            "a.o",
            ".text\n.global _start\n_start: li r2, _msg\n ld8 r1, [r2]\n sys 0\n.rodata\n_msg: .ascii \"A\"\n",
        )
        .unwrap();
        let b = assemble(
            "b.o",
            ".text\n.global _other\n_other: li r2, _msg\n ld8 r1, [r2]\n ret\n.rodata\n_msg: .ascii \"B\"\n",
        )
        .unwrap();
        let out = link(&[a, b], &LinkOptions::program("t")).unwrap();
        // Each object's `_msg` resolved to its own string.
        assert_eq!(run_image(&out.image), StopReason::Exited(u32::from(b'A')));
    }

    #[test]
    fn weak_definition_yields_across_objects() {
        let strong = assemble(
            "s.o",
            ".text\n.global _start, _f\n_start: call _f\n sys 0\n_f: li r1, 1\n ret\n",
        )
        .unwrap();
        // Build a weak `_f` by hand (the assembler has no .weak directive).
        let mut weak = assemble("w.o", ".text\n_wf: li r1, 2\n ret\n").unwrap();
        weak.symbols
            .insert(Symbol::defined("_f", 0, 0).weak())
            .unwrap();
        let out = link(&[weak, strong], &LinkOptions::program("t")).unwrap();
        assert_eq!(run_image(&out.image), StopReason::Exited(1));
    }

    #[test]
    fn equal_weak_definitions_keep_the_first_home() {
        // Two weak `_f`s at the same (section, offset) of different
        // objects: the first one seen wins, as it does in a SymbolTable.
        let weak_f = |name: &str| {
            let mut o = assemble(name, ".text\n_body: li r1, 1\n li r1, 2\n ret\n").unwrap();
            o.symbols
                .insert(Symbol::defined("_f", 0, 0).weak())
                .unwrap();
            o
        };
        let objects = [weak_f("a.o"), weak_f("b.o")];
        let opts = LinkOptions::library("t", 0x1000, 0x4000_0000);
        assert_eq!(
            link(&objects, &opts).unwrap().image.find("_f"),
            Some(0x1000)
        );
        assert_eq!(layout_symbols(&objects, &opts).unwrap()["_f"], 0x1000);
    }

    #[test]
    fn overlapping_bases_rejected() {
        let a = assemble(
            "a.o",
            ".text\n.global _start\n_start: sys 0\n.data\n.word 1\n",
        )
        .unwrap();
        let mut opts = LinkOptions::program("t");
        opts.data_base = opts.text_base; // collide
        assert!(matches!(link(&[a], &opts), Err(LinkError::Layout(_))));
    }

    #[test]
    fn absolute_symbols_resolve() {
        let mut a = assemble(
            "a.o",
            ".text\n.global _start\n_start: li r1, _IOBASE\n sys 0\n",
        )
        .unwrap();
        a.symbols
            .insert(Symbol::absolute("_IOBASE", 0xf000))
            .unwrap();
        let out = link(&[a], &LinkOptions::program("t")).unwrap();
        assert_eq!(run_image(&out.image), StopReason::Exited(0xf000));
    }

    #[test]
    fn pcrel_across_objects() {
        let a = assemble(
            "a.o",
            ".text\n.global _start\n_start: beq r0, r0, _target\n halt\n",
        )
        .unwrap();
        let b = assemble("b.o", ".text\n.global _target\n_target: li r1, 3\n sys 0\n").unwrap();
        let out = link(&[a, b], &LinkOptions::program("t")).unwrap();
        assert_eq!(run_image(&out.image), StopReason::Exited(3));
    }

    #[test]
    fn stats_count_work() {
        let a = assemble(
            "a.o",
            ".text\n.global _start\n_start: call _f\n sys 0\n.data\n.word _f\n",
        )
        .unwrap();
        let b = assemble("b.o", ".text\n.global _f\n_f: ret\n").unwrap();
        let out = link(&[a, b], &LinkOptions::program("t")).unwrap();
        assert_eq!(out.stats.relocs_applied, 2);
        assert!(out.stats.bytes_copied >= 16 + 4 + 8);
        assert!(out.stats.symbols_resolved >= 2);
    }

    #[test]
    fn layout_symbols_matches_full_link_exports() {
        // Defined globals across text/data/bss, a common, an absolute, and
        // an extern-satisfied reference: the layout-only map must equal the
        // full link's export map exactly (externs only affect relocation).
        let mut a = assemble(
            "a.o",
            r#"
            .text
            .global _start
_start:     call _helper
            call _ext
            li r2, _value
            ld r1, [r2]
            sys 0
            .data
            .global _value
_value:     .word 7
            .bss
            .global _counter
_counter:   .space 16
            .comm _shared, 64
            "#,
        )
        .unwrap();
        a.symbols
            .insert(Symbol::absolute("_IOBASE", 0xf000))
            .unwrap();
        let b = assemble("b.o", ".text\n.global _helper\n_helper: ret\n").unwrap();
        let mut opts = LinkOptions::library("t", 0x0100_0000, 0x4100_0000);
        opts.externs.insert("_ext".into(), 0x0200_0000);
        let objects = [a, b];
        let planned = layout_symbols(&objects, &opts).unwrap();
        let linked = link(&objects, &opts).unwrap();
        assert_eq!(planned, linked.image.symbols);
    }

    /// One generated symbol: name index, binding (0 global, 1 weak,
    /// 2 local), def kind (0 undefined, 1 defined, 2 common, 3
    /// absolute) and a value that sets its offset, size or value.
    type GenSym = (u8, u8, u8, u64);

    /// Objects of one text section each, `words` 4-byte words long.
    fn model_objects(objects: &[(u64, Vec<GenSym>)]) -> Vec<ObjectFile> {
        objects
            .iter()
            .enumerate()
            .map(|(i, (words, syms))| {
                let mut o = ObjectFile::new(&format!("o{i}.o"));
                o.add_section(omos_obj::Section::with_bytes(
                    ".text",
                    SectionKind::Text,
                    vec![0; *words as usize * 4],
                    4,
                ));
                for &(name, binding, def, v) in syms {
                    let name = format!("_s{name}");
                    let sym = match def {
                        0 => Symbol::undefined(&name),
                        1 => Symbol::defined(&name, 0, (v % words) * 4),
                        2 => Symbol::common(&name, v * 4 + 1),
                        _ => Symbol::absolute(&name, 0x100 * v),
                    };
                    o.symbols.insert_override(match binding {
                        0 => sym,
                        1 => sym.weak(),
                        _ => sym.local(),
                    });
                }
                o
            })
            .collect()
    }

    /// The reference resolution: a `SymbolTable` fed by `insert`, the
    /// home of a defined global being the first object whose entry the
    /// table took, and addresses laid out by hand for one-text-section
    /// objects. Returns the export map and the non-local symbols seen.
    fn reference_exports(
        objects: &[ObjectFile],
        opts: &LinkOptions,
    ) -> LinkResult<(HashMap<String, u32>, u64)> {
        let mut table = SymbolTable::new();
        let mut homes: HashMap<String, usize> = HashMap::new();
        let mut seen = 0;
        for (i, obj) in objects.iter().enumerate() {
            for sym in obj.symbols.iter() {
                if sym.binding == SymbolBinding::Local {
                    continue;
                }
                seen += 1;
                let before = table.get(&sym.name).cloned();
                table.insert(sym.clone())?;
                let after = table.get(&sym.name).map(|s| (s.binding, s.def));
                let took = after == Some((sym.binding, sym.def))
                    && before.is_none_or(|b| (b.binding, b.def) != (sym.binding, sym.def));
                if took {
                    homes.insert(sym.name.clone(), i);
                }
            }
        }
        let mut text_off = Vec::new();
        let mut end = 0u64;
        for obj in objects {
            text_off.push(end);
            end += obj.sections[0].bytes.len() as u64;
        }
        let mut bss = 0u64;
        let mut exports = HashMap::new();
        for sym in table.iter() {
            let addr = match sym.def {
                SymbolDef::Defined { offset, .. } => {
                    u64::from(opts.text_base) + text_off[homes[&sym.name]] + offset
                }
                SymbolDef::Common { size } => {
                    bss = bss.next_multiple_of(8);
                    bss += size;
                    u64::from(opts.data_base) + bss - size
                }
                SymbolDef::Absolute { value } => value,
                SymbolDef::Undefined => continue,
            };
            exports.insert(sym.name.clone(), addr as u32);
        }
        Ok((exports, seen))
    }

    proptest::proptest! {
        #[test]
        fn resolution_matches_the_symbol_table_model(
            objects in proptest::collection::vec(
                (
                    1u64..5,
                    proptest::collection::vec((0u8..5, 0u8..3, 0u8..4, 0u64..4), 0..8),
                ),
                1..5,
            ),
        ) {
            let objects = model_objects(&objects);
            let opts = LinkOptions::library("m", 0x1000, 0x4000_0000);
            let want = reference_exports(&objects, &opts);
            let planned = layout_symbols(&objects, &opts);
            let linked = link(&objects, &opts);
            match want {
                Ok((exports, seen)) => {
                    proptest::prop_assert_eq!(planned.as_ref(), Ok(&exports));
                    let linked = linked.unwrap();
                    proptest::prop_assert_eq!(&linked.image.symbols, &exports);
                    proptest::prop_assert_eq!(linked.stats.symbols_resolved, seen);
                }
                Err(e) => {
                    proptest::prop_assert!(matches!(e, LinkError::Duplicate(_)));
                    proptest::prop_assert_eq!(planned, Err(e.clone()));
                    proptest::prop_assert_eq!(linked.map(|l| l.stats), Err(e));
                }
            }
        }
    }

    #[test]
    fn resolve_only_and_undefined_after() {
        let a = assemble("a.o", ".text\n.global _f\n_f: call _g\n ret\n").unwrap();
        let b = assemble("b.o", ".text\n.global _g\n_g: call _h\n ret\n").unwrap();
        assert_eq!(
            undefined_after(std::slice::from_ref(&a)).unwrap(),
            vec!["_g".to_string()]
        );
        assert_eq!(undefined_after(&[a, b]).unwrap(), vec!["_h".to_string()]);
    }
}
