//! The simulated operating system substrate.
//!
//! The paper's numbers come from HP-UX 9.01 and Mach 3.0/OSF/1 on an
//! HP9000/730; Table 1 is a statement about *where work happens* — kernel
//! exec overhead, per-invocation relocations, IPC round trips, page
//! mapping. This crate reproduces those mechanisms over a deterministic
//! simulated clock:
//!
//! * [`cost`] — the priced operation table ([`cost::CostModel`]), with
//!   calibrated HP-UX and OSF/1-MK profiles;
//! * [`clock`] — the [`clock::SimClock`] accumulating user/system/elapsed
//!   nanoseconds, exactly the three columns of Table 1;
//! * [`fs`] — an in-memory filesystem with priced opens, reads, writes
//!   (synchronous-write multiplier for the paper's NFS remark), and
//!   directories for the `ls` workloads;
//! * [`memory`] — page-granular address spaces with copy-on-write and
//!   frame sharing, so the shared-library memory accounting is exact;
//! * [`ipc`] — Mach IPC / SysV message / Sun RPC transports with distinct
//!   costs (the paper's OMOS configurations used all three);
//! * [`process`] — the process runtime: wires a U32 VM to an address
//!   space, a syscall table, and a pluggable [`process::Binder`] (native
//!   dynamic linker or the OMOS server);
//! * [`exec`] — the native `exec()` baseline: header parsing, segment
//!   mapping, eager relocation, and lazy PLT binding, re-done every
//!   invocation the way HP-UX/SunOS-style schemes do.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod clock;
pub mod cost;
pub mod exec;
pub mod fs;
pub mod ipc;
pub mod live;
pub mod memory;
pub mod process;

pub use clock::{SimClock, Times};
pub use cost::CostModel;
pub use exec::{exec_native, NativeBinder, NativeWorld};
pub use fs::InMemFs;
pub use ipc::{ClientSession, ImageDescriptor, IpcStats, ReplyShape, ShmRing, Transport};
pub use live::{live_patch_process, LiveUpdateReport};
pub use memory::{AddressSpace, ImageFrames, MemoryAccounting, PAGE_SIZE};
pub use process::{run_process, Binder, Process, RunOutcome};
