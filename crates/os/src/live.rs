//! Live update of a running partial-image process.
//!
//! When a library is rebound under a running program, the server's
//! rebuild produces a new reply whose program frame bakes the *new*
//! dynamic library ids into its stubs. A process already executing the
//! *old* program text cannot see those: its stub text and its
//! indirect-branch-table slots still point at the retired library. This
//! module patches the running process in place instead of restarting it:
//!
//! 1. **Quiesce** — the process is stopped between `run_process` slices
//!    (structurally guaranteed here: the patch runs while no instruction
//!    is in flight); we charge a stop/resume pair of kernel crossings.
//! 2. **Retarget stubs** — for every stub whose library id changed, the
//!    `li r5, LIB_ID` instruction in the old text is rewritten (a
//!    privileged [`AddressSpace::force_write`], privatizing the page just
//!    like dynamic-loader text patching does).
//! 3. **Swap bound slots** — slots already holding a cached binding are
//!    re-resolved against the *new* library through the normal binder
//!    path (same hash-table lookup, same first-load mapping and IPC
//!    billing as a cold miss) and rewritten to the new entry point.
//!    Unbound slots are left zero: their next call takes the ordinary
//!    stub slow path and binds against the new id naturally.
//! 4. **Resume** — old library frames stay mapped (a caller mid-library
//!    would need them; reclamation is lazy), the new instance's frames
//!    are mapped alongside.
//!
//! The stub sites themselves are recovered by pattern-matching the stub
//! instruction sequence in the old and new program images
//! ([`scan_stub_sites`]) — the slot/name symbols are local and do not
//! survive linking, but the text carries everything.

use omos_isa::{Inst, Opcode, INST_BYTES};
use omos_link::stubs::scan_stub_sites;
use omos_link::LinkedImage;

use crate::cost::CostModel;
use crate::ipc::{charge_request, ImageDescriptor, IpcStats, ReplyShape};
use crate::process::{Binder, Process};
use crate::SimClock;

/// What a live update did to the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveUpdateReport {
    /// Stubs whose baked-in library id was rewritten.
    pub stubs_retargeted: u64,
    /// Bound branch-table slots swapped to the new library's entry.
    pub slots_swapped: u64,
    /// Unbound slots left for lazy binding against the new id.
    pub slots_lazy: u64,
    /// Pages of new library instances mapped into the address space.
    pub pages_mapped: u64,
}

/// Patches a quiesced process from `old_image` (the program text it is
/// executing) to `new_image` (the program rebuilt after the rebind), using
/// `binder` to resolve already-bound slots against the new libraries.
///
/// Returns an error only on address-space faults (a stub or slot address
/// that is not mapped — the images did not come from this process) or a
/// binder failure; the process is unchanged up to the failing site.
pub fn live_patch_process(
    proc: &mut Process,
    old_image: &LinkedImage,
    new_image: &LinkedImage,
    binder: &mut dyn Binder,
    clock: &mut SimClock,
    cost: &CostModel,
    ipc: &mut IpcStats,
) -> Result<LiveUpdateReport, String> {
    use omos_isa::vm::Memory as _;

    // Quiesce + resume: one kernel crossing each.
    clock.charge_system(2 * cost.syscall_ns);

    let old_sites = scan_stub_sites(old_image);
    let new_sites = scan_stub_sites(new_image);
    let mut report = LiveUpdateReport::default();

    for old in &old_sites {
        let Some(new) = new_sites.iter().find(|n| n.name == old.name) else {
            // Entry point no longer exported: leave the stale stub; a
            // call through it fails loudly at lookup time.
            continue;
        };
        if new.lib_id == old.lib_id {
            // Dynamic libraries are keyed by content: an unchanged id
            // means unchanged bytes, so any cached binding stays valid.
            continue;
        }

        // Rewrite the `li r5, LIB_ID` (3rd stub instruction) in place.
        let li_addr = old.stub_addr + 2 * INST_BYTES as u32;
        let li = Inst::new(Opcode::Li).ra(5).imm(new.lib_id).encode();
        proc.space
            .force_write(li_addr, &li)
            .map_err(|e| format!("stub patch at {li_addr:#010x}: {e}"))?;
        clock.charge_system(cost.reloc_ns);
        report.stubs_retargeted += 1;

        // A bound slot must be swapped now; an unbound one binds lazily.
        let mut cur = [0u8; 4];
        proc.space
            .read(old.slot_addr, &mut cur)
            .map_err(|e| format!("slot read at {:#010x}: {e}", old.slot_addr))?;
        if cur == [0u8; 4] {
            report.slots_lazy += 1;
            continue;
        }
        let l = binder
            .omos_lookup(new.lib_id, &old.name)
            .map_err(|msg| format!("re-resolve `{}`: {msg}", old.name))?;
        if let Some(load) = l.load {
            let shape = ReplyShape::with_images(
                128,
                vec![ImageDescriptor {
                    key: load.image_key,
                    epoch: load.image_epoch,
                    pages: load.frames.total_pages(),
                }],
            );
            charge_request(
                clock,
                cost,
                load.transport,
                64 + old.name.len() as u64,
                &shape,
                load.server_ns,
                ipc,
            );
            report.pages_mapped += load.frames.total_pages();
            proc.map_more(&load.frames, clock, cost)?;
        }
        clock.charge_system(l.probes * cost.lookup_ns);
        proc.space
            .force_write(old.slot_addr, &l.target.to_le_bytes())
            .map_err(|e| format!("slot swap at {:#010x}: {e}", old.slot_addr))?;
        clock.charge_system(cost.reloc_ns);
        report.slots_swapped += 1;
    }
    Ok(report)
}
