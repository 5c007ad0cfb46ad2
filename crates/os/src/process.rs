//! The process runtime: a U32 VM wired to an address space, the syscall
//! table, and a pluggable binder.
//!
//! The [`Binder`] trait is where the shared-library schemes differ at run
//! time: the native baseline's dynamic linker answers `BIND` (lazy PLT
//! resolution), and the OMOS server answers `OMOS_LOOKUP` (partial-image
//! stubs). Everything else — files, directories, console output, heap —
//! is scheme-independent.

use omos_isa::locality::LocalityReport;
use omos_isa::{sysno, ExecStats, Memory, StopReason, SysResult, SyscallHandler, Vm, VmFault};

use crate::clock::SimClock;
use crate::cost::CostModel;
use crate::fs::InMemFs;
use crate::ipc::{charge_request, ImageDescriptor, IpcStats, ReplyShape, Transport};
use crate::memory::{AddressSpace, ImageFrames, PAGE_SIZE};

/// Result of a lazy PLT bind.
#[derive(Debug, Clone, Copy)]
pub struct PltBind {
    /// Resolved target address.
    pub target: u32,
    /// GOT slot to patch.
    pub got_addr: u32,
    /// Hash lookups performed (priced by the cost model).
    pub lookups: u64,
}

/// Result of an OMOS partial-image lookup.
#[derive(Debug, Clone)]
pub struct OmosLookup {
    /// Resolved entry point.
    pub target: u32,
    /// Hash probes performed locally.
    pub probes: u64,
    /// Set on the *first* call into the library: segments to map plus the
    /// IPC that fetched them.
    pub load: Option<FirstLoad>,
}

/// The first-load payload of a partial-image library.
#[derive(Debug, Clone)]
pub struct FirstLoad {
    /// The library's cached, pre-relocated frames.
    pub frames: ImageFrames,
    /// Transport used to contact OMOS.
    pub transport: Transport,
    /// Server-side handling time (client waits).
    pub server_ns: u64,
    /// Content-addressed key of the cached image (shared-memory
    /// transports grant a mapping on it instead of copying handles).
    pub image_key: u64,
    /// Cache-instance epoch of that image (see
    /// [`crate::ipc::ImageDescriptor::epoch`]).
    pub image_epoch: u64,
}

/// Run-time binding services, supplied per shared-library scheme.
pub trait Binder {
    /// Resolves PLT entry `index` (native scheme). `Err` aborts the
    /// program with a fault.
    fn bind_plt(&mut self, index: u32) -> Result<PltBind, String>;

    /// Resolves `name` in partial-image library `lib_id` (OMOS scheme).
    fn omos_lookup(&mut self, lib_id: u32, name: &str) -> Result<OmosLookup, String>;
}

/// A binder for fully bound programs: any binding request is a bug.
#[derive(Debug, Default)]
pub struct NoBinder;

impl Binder for NoBinder {
    fn bind_plt(&mut self, index: u32) -> Result<PltBind, String> {
        Err(format!(
            "unexpected PLT bind (index {index}) in a fully bound program"
        ))
    }

    fn omos_lookup(&mut self, lib_id: u32, name: &str) -> Result<OmosLookup, String> {
        Err(format!("unexpected OMOS lookup ({name} in lib {lib_id})"))
    }
}

/// Stack top for spawned processes.
pub const STACK_TOP: u32 = 0xe000_0000;
/// Stack size in pages (initial commit; 32 KB is generous for U32
/// programs and keeps memory accounting dominated by images, not
/// stacks).
pub const STACK_PAGES: u32 = 8;
/// Heap base for `brk`.
pub const HEAP_BASE: u32 = 0xc000_0000;

/// A simulated process: address space + VM state + heap break.
#[derive(Debug)]
pub struct Process {
    /// The address space.
    pub space: AddressSpace,
    /// CPU state.
    pub vm: Vm,
    /// Current heap break.
    pub brk: u32,
}

impl Process {
    /// Creates a process from pre-framed segments: maps the image and a
    /// stack, charging mapping costs.
    pub fn spawn(
        frames: &ImageFrames,
        clock: &mut SimClock,
        cost: &CostModel,
    ) -> Result<Process, String> {
        let mut space = AddressSpace::new();
        let work = space.map(frames)?;
        clock.charge_system(work.regions * cost.map_region_ns + work.pages * cost.map_page_ns);
        let stack_work =
            space.map_private_zero(STACK_TOP - STACK_PAGES * PAGE_SIZE, STACK_PAGES)?;
        clock.charge_system(
            stack_work.regions * cost.map_region_ns + stack_work.pages * cost.map_page_ns,
        );
        let entry = frames
            .entry
            .ok_or_else(|| format!("image {} has no entry", frames.name))?;
        let mut vm = Vm::new(entry);
        vm.regs[14] = STACK_TOP - 64; // a little headroom
        Ok(Process {
            space,
            vm,
            brk: HEAP_BASE,
        })
    }

    /// Reads one little-endian audit counter from the process's private
    /// policy-data pages (what a call-audit stub incremented). `None`
    /// when the address is unmapped.
    pub fn read_counter(&mut self, addr: u32) -> Option<u32> {
        use omos_isa::Memory as _;
        let mut b = [0u8; 4];
        self.space.read(addr, &mut b).ok()?;
        Some(u32::from_le_bytes(b))
    }

    /// Maps additional pre-framed segments (e.g. a shared library),
    /// charging mapping costs.
    pub fn map_more(
        &mut self,
        frames: &ImageFrames,
        clock: &mut SimClock,
        cost: &CostModel,
    ) -> Result<(), String> {
        let work = self.space.map(frames)?;
        clock.charge_system(work.regions * cost.map_region_ns + work.pages * cost.map_page_ns);
        Ok(())
    }
}

/// What a completed (or faulted) run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// How the program stopped.
    pub stop: StopReason,
    /// Instruction-level statistics.
    pub stats: ExecStats,
    /// Bytes written to stdout/stderr.
    pub console: Vec<u8>,
    /// Copy-on-write faults taken.
    pub cow_faults: u64,
    /// Locality report, if a tracker was attached.
    pub locality: Option<LocalityReport>,
    /// IPC performed via the binder.
    pub ipc: IpcStats,
    /// Routine ids logged by monitoring wrappers (`MONLOG`), in call
    /// order.
    pub monitor_events: Vec<u32>,
}

impl RunOutcome {
    /// True if the program exited with code 0.
    #[must_use]
    pub fn success(&self) -> bool {
        matches!(self.stop, StopReason::Exited(0))
    }
}

#[derive(Debug)]
enum PendingMap {
    Image(ImageFrames),
    Zero { vaddr: u32, pages: u32 },
}

#[derive(Debug, Clone)]
struct OpenFile {
    path: String,
    pos: u64,
    dir_entries: Option<Vec<(String, crate::fs::FileStat)>>,
}

struct Runtime<'a> {
    clock: &'a mut SimClock,
    cost: &'a CostModel,
    fs: &'a mut InMemFs,
    binder: &'a mut dyn Binder,
    brk: &'a mut u32,
    fds: Vec<Option<OpenFile>>,
    console: Vec<u8>,
    pending: Vec<PendingMap>,
    ipc: IpcStats,
    monitor_events: Vec<u32>,
}

fn read_cstr(mem: &mut dyn Memory, addr: u32, max: usize) -> Result<String, VmFault> {
    let mut out = Vec::new();
    for i in 0..max {
        let mut b = [0u8; 1];
        mem.read(addr + i as u32, &mut b)?;
        if b[0] == 0 {
            return String::from_utf8(out).map_err(|_| VmFault::BadSyscall {
                num: 0,
                msg: "non-UTF8 string from program".into(),
            });
        }
        out.push(b[0]);
    }
    Err(VmFault::BadSyscall {
        num: 0,
        msg: "unterminated string from program".into(),
    })
}

impl Runtime<'_> {
    fn alloc_fd(&mut self, f: OpenFile) -> u32 {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(f);
                return i as u32 + 3;
            }
        }
        self.fds.push(Some(f));
        self.fds.len() as u32 + 2
    }

    fn fd(&mut self, n: u32) -> Result<&mut OpenFile, VmFault> {
        let idx = (n as usize).checked_sub(3).filter(|&i| i < self.fds.len());
        match idx.and_then(|i| self.fds[i].as_mut()) {
            Some(f) => Ok(f),
            None => Err(VmFault::BadSyscall {
                num: 0,
                msg: format!("bad fd {n}"),
            }),
        }
    }
}

impl SyscallHandler for Runtime<'_> {
    fn syscall(
        &mut self,
        num: u32,
        regs: &mut [u32; omos_isa::inst::NUM_REGS],
        mem: &mut dyn Memory,
    ) -> Result<SysResult, VmFault> {
        self.clock.charge_system(self.cost.syscall_ns);
        match num {
            sysno::EXIT => return Ok(SysResult::Exit(regs[1])),
            sysno::WRITE => {
                let (fd, buf, len) = (regs[1], regs[2], regs[3] as usize);
                let mut data = vec![0u8; len];
                mem.read(buf, &mut data)?;
                self.clock
                    .charge_system(len as u64 * self.cost.write_byte_ns);
                if fd == 1 || fd == 2 {
                    self.console.extend_from_slice(&data);
                } else {
                    let path = self.fd(fd)?.path.clone();
                    self.fs
                        .write(&path, &data, self.clock, self.cost)
                        .map_err(|e| VmFault::BadSyscall {
                            num,
                            msg: e.to_string(),
                        })?;
                }
                regs[1] = len as u32;
            }
            sysno::READ => {
                let (fd, buf, len) = (regs[1], regs[2], u64::from(regs[3]));
                let (path, pos) = {
                    let f = self.fd(fd)?;
                    (f.path.clone(), f.pos)
                };
                let data = self
                    .fs
                    .read(&path, pos, len, self.clock, self.cost)
                    .map_err(|e| VmFault::BadSyscall {
                        num,
                        msg: e.to_string(),
                    })?;
                mem.write(buf, &data)?;
                self.fd(fd)?.pos += data.len() as u64;
                regs[1] = data.len() as u32;
            }
            sysno::OPEN => {
                let path = read_cstr(mem, regs[2], 256)?;
                match self.fs.open(&path, self.clock, self.cost) {
                    Ok(stat) => {
                        let dir_entries =
                            if stat.mode == 1 {
                                Some(self.fs.list_dir(&path, self.clock, self.cost).map_err(
                                    |e| VmFault::BadSyscall {
                                        num,
                                        msg: e.to_string(),
                                    },
                                )?)
                            } else {
                                None
                            };
                        regs[1] = self.alloc_fd(OpenFile {
                            path,
                            pos: 0,
                            dir_entries,
                        });
                    }
                    Err(_) => regs[1] = u32::MAX, // -1: not found
                }
            }
            sysno::CLOSE => {
                let n = regs[1] as usize;
                if n >= 3 && n - 3 < self.fds.len() {
                    self.fds[n - 3] = None;
                }
                regs[1] = 0;
            }
            sysno::STAT => {
                let path = read_cstr(mem, regs[2], 256)?;
                match self.fs.stat(&path, self.clock, self.cost) {
                    Ok(stat) => {
                        mem.write(regs[3], &stat.to_bytes())?;
                        regs[1] = 0;
                    }
                    Err(_) => regs[1] = u32::MAX,
                }
            }
            sysno::GETDENTS => {
                // One entry per call: name (24 bytes, NUL padded) + size +
                // mode, written at r2. Returns 1 if an entry was produced.
                let fd = regs[1];
                let buf = regs[2];
                let f = self.fd(fd)?;
                let entries = f.dir_entries.as_ref().ok_or_else(|| VmFault::BadSyscall {
                    num,
                    msg: "getdents on non-directory".into(),
                })?;
                if let Some((name, stat)) = entries.get(f.pos as usize).cloned() {
                    f.pos += 1;
                    let mut rec = [0u8; 32];
                    let n = name.len().min(23);
                    rec[..n].copy_from_slice(&name.as_bytes()[..n]);
                    rec[24..28].copy_from_slice(&stat.size.to_le_bytes());
                    rec[28..32].copy_from_slice(&stat.mode.to_le_bytes());
                    mem.write(buf, &rec)?;
                    self.clock.charge_system(self.cost.dirent_ns);
                    regs[1] = 1;
                } else {
                    regs[1] = 0;
                }
            }
            sysno::BRK => {
                let grow = regs[1];
                let old = *self.brk;
                let first_new = old.div_ceil(PAGE_SIZE);
                let last_new = (old + grow).div_ceil(PAGE_SIZE);
                if last_new > first_new {
                    self.pending.push(PendingMap::Zero {
                        vaddr: first_new * PAGE_SIZE,
                        pages: last_new - first_new,
                    });
                }
                *self.brk = old + grow;
                regs[1] = old;
            }
            sysno::BIND => {
                let index = regs[6];
                let b = self
                    .binder
                    .bind_plt(index)
                    .map_err(|msg| VmFault::BadSyscall { num, msg })?;
                // The dynamic linker runs in-process: user time.
                self.clock
                    .charge_user(b.lookups * self.cost.lookup_ns + self.cost.reloc_ns);
                mem.write(b.got_addr, &b.target.to_le_bytes())?;
                regs[5] = b.target;
            }
            sysno::OMOS_LOOKUP => {
                let lib_id = regs[5];
                let name = read_cstr(mem, regs[6], 256)?;
                let l = self
                    .binder
                    .omos_lookup(lib_id, &name)
                    .map_err(|msg| VmFault::BadSyscall { num, msg })?;
                if let Some(load) = l.load {
                    // The copied reply is 128 flat; a mapped transport
                    // grants the image by its content key instead.
                    let shape = ReplyShape::with_images(
                        128,
                        vec![ImageDescriptor {
                            key: load.image_key,
                            epoch: load.image_epoch,
                            pages: load.frames.total_pages(),
                        }],
                    );
                    charge_request(
                        self.clock,
                        self.cost,
                        load.transport,
                        64 + name.len() as u64,
                        &shape,
                        load.server_ns,
                        &mut self.ipc,
                    );
                    self.pending.push(PendingMap::Image(load.frames));
                }
                self.clock.charge_user(l.probes * self.cost.lookup_ns);
                regs[5] = l.target;
            }
            sysno::TIME => regs[1] = (self.clock.elapsed_ns / 1000) as u32,
            sysno::MONLOG => self.monitor_events.push(regs[5]),
            sysno::IOCTL => regs[1] = 0,
            other => {
                return Err(VmFault::BadSyscall {
                    num: other,
                    msg: "unknown syscall".into(),
                })
            }
        }
        Ok(SysResult::Continue)
    }
}

/// Runs a process to completion (halt, exit, fault, or fuel exhaustion),
/// charging the clock for every mechanism along the way.
pub fn run_process(
    proc: &mut Process,
    clock: &mut SimClock,
    cost: &CostModel,
    fs: &mut InMemFs,
    binder: &mut dyn Binder,
    fuel: u64,
) -> RunOutcome {
    let start_instr = proc.vm.stats.instructions;
    let mut rt = Runtime {
        clock,
        cost,
        fs,
        binder,
        brk: &mut proc.brk,
        fds: Vec::new(),
        console: Vec::new(),
        pending: Vec::new(),
        ipc: IpcStats::default(),
        monitor_events: Vec::new(),
    };
    let mut remaining = fuel;
    let stop = loop {
        if remaining == 0 {
            break StopReason::Fault(VmFault::FuelExhausted);
        }
        remaining -= 1;
        let step = proc.vm.step(&mut proc.space, &mut rt);
        // Apply any maps the syscall queued before the next instruction.
        let mut map_error = None;
        for p in rt.pending.drain(..) {
            let work = match p {
                PendingMap::Image(frames) => proc.space.map(&frames),
                PendingMap::Zero { vaddr, pages } => proc.space.map_private_zero(vaddr, pages),
            };
            match work {
                Ok(w) => rt
                    .clock
                    .charge_system(w.regions * cost.map_region_ns + w.pages * cost.map_page_ns),
                Err(msg) => {
                    map_error = Some(msg);
                    break;
                }
            }
        }
        if let Some(msg) = map_error {
            break StopReason::Fault(VmFault::BadSyscall {
                num: sysno::OMOS_LOOKUP,
                msg,
            });
        }
        match step {
            Ok(None) => {}
            Ok(Some(s)) => break s,
            Err(f) => break StopReason::Fault(f),
        }
    };
    let console = std::mem::take(&mut rt.console);
    let monitor_events = std::mem::take(&mut rt.monitor_events);
    let ipc = rt.ipc;
    drop(rt);

    // User time for retired instructions.
    let instrs = proc.vm.stats.instructions - start_instr;
    clock.charge_user(instrs * cost.instr_ns);

    // Locality penalties.
    let locality = proc.vm.tracker.as_mut().map(|t| t.report());
    if let Some(l) = locality {
        clock.charge_user(l.cache_misses * cost.icache_miss_ns);
        clock.charge_system(l.page_faults * cost.code_page_fault_ns);
    }

    RunOutcome {
        stop,
        stats: proc.vm.stats,
        console,
        cow_faults: proc.space.cow_faults,
        locality,
        ipc,
        monitor_events,
    }
}
