//! The native `exec()` baseline — the competitor OMOS is measured against.
//!
//! Every invocation of a dynamically linked program on HP-UX/SunOS-style
//! systems redoes work: the kernel parses the executable, the dynamic
//! loader finds and maps the libraries, eager (data) relocations are
//! applied into the process's copy-on-write pages, and procedure calls
//! bind lazily through the PLT on first call. [`exec_native`] performs all
//! of that against the simulated clock, and [`NativeBinder`] services the
//! lazy binds while the program actually runs.

use std::collections::HashMap;

use omos_link::{DynExecutable, DynLibrary, PltEntry};
use omos_obj::RelocKind;

use crate::clock::SimClock;
use crate::cost::CostModel;
use crate::memory::{AddressSpace, ImageFrames};
use crate::process::{Binder, OmosLookup, PltBind, Process};

/// The persistent parts of the native scheme: libraries and their cached
/// page frames (text frames shared across every process, like a buffer
/// cache).
#[derive(Debug)]
pub struct NativeWorld {
    libs: Vec<DynLibrary>,
    lib_frames: Vec<ImageFrames>,
}

impl NativeWorld {
    /// Registers the shared libraries of this "system".
    #[must_use]
    pub fn new(libs: Vec<DynLibrary>) -> NativeWorld {
        let lib_frames = libs
            .iter()
            .map(|l| ImageFrames::from_image(&l.image))
            .collect();
        NativeWorld { libs, lib_frames }
    }

    /// Library by name.
    #[must_use]
    pub fn lib(&self, name: &str) -> Option<(&DynLibrary, &ImageFrames)> {
        self.libs
            .iter()
            .position(|l| l.name == name)
            .map(|i| (&self.libs[i], &self.lib_frames[i]))
    }
}

/// The in-process dynamic linker: answers lazy PLT binds.
#[derive(Debug)]
pub struct NativeBinder {
    plt: Vec<PltEntry>,
    exports: HashMap<String, u32>,
    /// Lazy binds performed so far.
    pub binds: u64,
}

impl Binder for NativeBinder {
    fn bind_plt(&mut self, index: u32) -> Result<PltBind, String> {
        let e = self
            .plt
            .get(index as usize)
            .ok_or_else(|| format!("PLT index {index} out of range"))?;
        let target = *self
            .exports
            .get(&e.symbol)
            .ok_or_else(|| format!("dynamic linker: `{}` not found", e.symbol))?;
        self.binds += 1;
        Ok(PltBind {
            target,
            got_addr: e.got_addr,
            lookups: 1,
        })
    }

    fn omos_lookup(&mut self, _lib_id: u32, name: &str) -> Result<OmosLookup, String> {
        Err(format!(
            "native scheme has no OMOS service (lookup of {name})"
        ))
    }
}

/// Loader writes: patch bytes even into read-only segments, privatizing
/// the page (the sharing loss non-PIC dynamic relocation causes).
fn loader_patch(
    space: &mut AddressSpace,
    addr: u32,
    kind: RelocKind,
    value: i64,
) -> Result<(), String> {
    let bytes = match kind {
        RelocKind::Abs32 | RelocKind::Pcrel32 => (value as u32).to_le_bytes().to_vec(),
        RelocKind::Abs64 => (value as u64).to_le_bytes().to_vec(),
        RelocKind::Hi16 => (((value as u32) >> 16) as u16).to_le_bytes().to_vec(),
        RelocKind::Lo16 => ((value as u32 & 0xffff) as u16).to_le_bytes().to_vec(),
    };
    space
        .force_write(addr, &bytes)
        .map_err(|f| format!("loader patch failed at {addr:#x}: {f}"))
}

/// Executes a dynamically linked program the native way.
///
/// Charges: exec overhead + header parse + shared-library startup, image
/// and library mapping, per-library per-process relocation work, and the
/// executable's eager relocations (each patched into COW pages). Returns
/// the ready process and the binder that will service its lazy binds.
pub fn exec_native(
    world: &NativeWorld,
    exe: &DynExecutable,
    exe_frames: &ImageFrames,
    clock: &mut SimClock,
    cost: &CostModel,
) -> Result<(Process, NativeBinder), String> {
    clock.charge_system(cost.exec_overhead_ns);
    clock.charge_system(cost.exec_parse_ns);
    clock.charge_system(cost.native_lib_startup_ns);

    let mut proc = Process::spawn(exe_frames, clock, cost)?;

    // Map each needed library and redo its per-process relocation work.
    let mut exports: HashMap<String, u32> = HashMap::new();
    for name in &exe.needed {
        let (lib, frames) = world
            .lib(name)
            .ok_or_else(|| format!("needed library `{name}` not registered"))?;
        proc.map_more(frames, clock, cost)?;
        // "schemes that do dynamic link resolution ... must do work in
        // proportion to the number of external references made by the
        // client, every time the library is loaded."
        clock.charge_user(lib.per_process_relocs * cost.reloc_ns);
        for (s, a) in &lib.exports {
            exports.entry(s.clone()).or_insert(*a);
        }
    }

    // Eager relocations: data references into the libraries.
    for u in &exe.eager {
        let target = *exports
            .get(&u.symbol)
            .ok_or_else(|| format!("eager relocation: `{}` not found", u.symbol))?;
        let seg = &exe.image.segments[u.segment];
        let site = seg.vaddr + u.offset as u32;
        let value = match u.kind {
            RelocKind::Pcrel32 => i64::from(target) + u.addend - (i64::from(site) + 4),
            _ => i64::from(target) + u.addend,
        };
        loader_patch(&mut proc.space, site, u.kind, value)?;
        clock.charge_user(cost.lookup_ns + cost.reloc_ns);
    }

    Ok((
        proc,
        NativeBinder {
            plt: exe.plt.clone(),
            exports,
            binds: 0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::InMemFs;
    use crate::process::run_process;
    use omos_isa::{assemble, StopReason};
    use omos_link::{build_dyn_executable, build_dyn_library};

    fn libm() -> DynLibrary {
        build_dyn_library(
            &[assemble(
                "libm.o",
                r#"
                .text
                .global _half, _quarter
_half:          li r9, 2
                divu r1, r1, r9
                ret
_quarter:       li r9, 4
                divu r1, r1, r9
                ret
                .data
                .global _math_mode
_math_mode:     .word 17
                "#,
            )
            .unwrap()],
            "libm",
            0x0200_0000,
            0x4200_0000,
            &[],
        )
        .unwrap()
    }

    fn client() -> DynExecutable {
        let objs = vec![assemble(
            "main.o",
            r#"
            .text
            .global _start
_start:     li r1, 64
            call _half          ; lazy PLT bind happens here
            call _half          ; second call: already bound
            li r2, _math_mode   ; eager data relocation
            ld r3, [r2]
            add r1, r1, r3
            sys 0
            "#,
        )
        .unwrap()];
        build_dyn_executable(&objs, "client", &[&libm()]).unwrap()
    }

    #[test]
    fn native_exec_runs_with_lazy_binding() {
        let world = NativeWorld::new(vec![libm()]);
        let exe = client();
        let frames = ImageFrames::from_image(&exe.image);
        let mut clock = SimClock::new();
        let cost = CostModel::hpux();
        let mut fs = InMemFs::new();
        let (mut proc, mut binder) = exec_native(&world, &exe, &frames, &mut clock, &cost).unwrap();
        let out = run_process(
            &mut proc,
            &mut clock,
            &cost,
            &mut fs,
            &mut binder,
            1_000_000,
        );
        // 64/2/2 + 17 = 33.
        assert_eq!(out.stop, StopReason::Exited(33));
        assert_eq!(binder.binds, 1, "one PLT entry bound lazily, once");
        assert!(clock.user_ns > 0 && clock.system_ns > 0);
    }

    #[test]
    fn eager_patch_privatizes_pages() {
        let world = NativeWorld::new(vec![libm()]);
        let exe = client();
        let frames = ImageFrames::from_image(&exe.image);
        let mut clock = SimClock::new();
        let cost = CostModel::hpux();
        let (proc, _) = exec_native(&world, &exe, &frames, &mut clock, &cost).unwrap();
        // The eager `li r2, _math_mode` patch dirtied a text page.
        assert!(proc.space.cow_faults >= 1);
    }

    #[test]
    fn second_exec_costs_the_same_as_first() {
        // The defining property of the native scheme: relocation work is
        // redone on EVERY exec (that is Table 1's mechanism).
        let world = NativeWorld::new(vec![libm()]);
        let exe = client();
        let frames = ImageFrames::from_image(&exe.image);
        let cost = CostModel::hpux();
        let mut clock = SimClock::new();
        exec_native(&world, &exe, &frames, &mut clock, &cost).unwrap();
        let first = clock.times();
        exec_native(&world, &exe, &frames, &mut clock, &cost).unwrap();
        let second = clock.since(first);
        assert_eq!(first.user_ns, second.user_ns);
        assert_eq!(first.system_ns, second.system_ns);
    }

    #[test]
    fn missing_library_is_an_error() {
        let world = NativeWorld::new(vec![]);
        let exe = client();
        let frames = ImageFrames::from_image(&exe.image);
        let mut clock = SimClock::new();
        let err = exec_native(&world, &exe, &frames, &mut clock, &CostModel::hpux()).unwrap_err();
        assert!(err.contains("libm"));
    }

    #[test]
    fn text_sharing_survives_across_processes_but_patched_pages_do_not() {
        let world = NativeWorld::new(vec![libm()]);
        let exe = client();
        let frames = ImageFrames::from_image(&exe.image);
        let cost = CostModel::hpux();
        let mut clock = SimClock::new();
        let (a, _) = exec_native(&world, &exe, &frames, &mut clock, &cost).unwrap();
        let (b, _) = exec_native(&world, &exe, &frames, &mut clock, &cost).unwrap();
        let acc = crate::memory::MemoryAccounting::measure(&[&a.space, &b.space]);
        // Library text is shared; the eagerly patched client text page is
        // private per process.
        assert!(acc.pages_saved() > 0);
        assert!(acc.private_pages >= 2);
    }
}
