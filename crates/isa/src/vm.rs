//! The U32 interpreting virtual machine.
//!
//! Memory and system calls are traits so the simulated OS can plug in its
//! page-granular address spaces and its syscall table; the VM itself only
//! knows how to fetch, decode, and execute. Execution statistics feed the
//! cost model (every instruction has a price) and the locality model
//! (every fetch address can be traced).

use crate::inst::{Inst, Opcode, INST_BYTES, NUM_REGS, REG_LR};
use crate::locality::Tracker;

/// A machine fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmFault {
    /// Fetched byte did not decode to an instruction.
    BadOpcode {
        /// PC of the offending fetch.
        pc: u32,
    },
    /// Unmapped or protection-violating access.
    MemFault {
        /// Faulting address.
        addr: u32,
        /// True for stores.
        write: bool,
    },
    /// Unsigned division by zero.
    DivByZero {
        /// PC of the offending instruction.
        pc: u32,
    },
    /// The fuel limit was reached (probable infinite loop).
    FuelExhausted,
    /// A syscall handler rejected the request.
    BadSyscall {
        /// Syscall number.
        num: u32,
        /// Explanation.
        msg: String,
    },
}

impl std::fmt::Display for VmFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmFault::BadOpcode { pc } => write!(f, "illegal instruction at {pc:#x}"),
            VmFault::MemFault { addr, write } => {
                write!(
                    f,
                    "memory fault ({}) at {addr:#x}",
                    if *write { "store" } else { "load" }
                )
            }
            VmFault::DivByZero { pc } => write!(f, "division by zero at {pc:#x}"),
            VmFault::FuelExhausted => write!(f, "fuel exhausted"),
            VmFault::BadSyscall { num, msg } => write!(f, "bad syscall {num}: {msg}"),
        }
    }
}

impl std::error::Error for VmFault {}

/// Why execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction.
    Halted,
    /// The program exited through a syscall, with this code.
    Exited(u32),
    /// A fault.
    Fault(VmFault),
}

/// What a syscall handler tells the VM to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysResult {
    /// Keep executing.
    Continue,
    /// Terminate with an exit code.
    Exit(u32),
}

/// Byte-addressed memory as seen by the VM.
pub trait Memory {
    /// Reads `buf.len()` bytes at `addr`.
    fn read(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), VmFault>;
    /// Writes `buf` at `addr`.
    fn write(&mut self, addr: u32, buf: &[u8]) -> Result<(), VmFault>;
}

/// The OS half of the machine: services `sys` instructions.
pub trait SyscallHandler {
    /// Handles syscall `num`. Arguments live in `regs[1..=4]`; results go
    /// back into `regs[1]`.
    fn syscall(
        &mut self,
        num: u32,
        regs: &mut [u32; NUM_REGS],
        mem: &mut dyn Memory,
    ) -> Result<SysResult, VmFault>;
}

/// Execution statistics, consumed by the cost and locality models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// Calls (direct and indirect).
    pub calls: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Syscalls issued.
    pub syscalls: u64,
}

/// The virtual machine: registers, a PC, statistics, and an optional
/// instruction-locality tracker.
#[derive(Debug)]
pub struct Vm {
    /// General-purpose registers; `regs[0]` always reads zero.
    pub regs: [u32; NUM_REGS],
    /// Program counter.
    pub pc: u32,
    /// Retired-instruction statistics.
    pub stats: ExecStats,
    /// Optional i-side locality tracker (see [`crate::locality`]).
    pub tracker: Option<Tracker>,
}

impl Vm {
    /// Creates a VM with all registers zero and the PC at `entry`.
    #[must_use]
    pub fn new(entry: u32) -> Vm {
        Vm {
            regs: [0; NUM_REGS],
            pc: entry,
            stats: ExecStats::default(),
            tracker: None,
        }
    }

    fn reg(&self, r: u8) -> u32 {
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    fn set_reg(&mut self, r: u8, v: u32) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Runs until halt, exit, fault, or `fuel` instructions.
    pub fn run(
        &mut self,
        mem: &mut dyn Memory,
        sys: &mut dyn SyscallHandler,
        fuel: u64,
    ) -> StopReason {
        let mut remaining = fuel;
        loop {
            if remaining == 0 {
                return StopReason::Fault(VmFault::FuelExhausted);
            }
            remaining -= 1;
            match self.step(mem, sys) {
                Ok(None) => {}
                Ok(Some(stop)) => return stop,
                Err(fault) => return StopReason::Fault(fault),
            }
        }
    }

    /// Executes one instruction. Returns `Ok(Some(_))` when the program
    /// finishes, `Ok(None)` to continue.
    pub fn step(
        &mut self,
        mem: &mut dyn Memory,
        sys: &mut dyn SyscallHandler,
    ) -> Result<Option<StopReason>, VmFault> {
        let pc = self.pc;
        if let Some(t) = &mut self.tracker {
            t.touch(pc);
        }
        let mut raw = [0u8; 8];
        mem.read(pc, &mut raw)?;
        let inst = Inst::decode(&raw).ok_or(VmFault::BadOpcode { pc })?;
        self.stats.instructions += 1;
        let mut next = pc.wrapping_add(INST_BYTES as u32);
        use Opcode::*;
        match inst.op {
            Nop => {}
            Halt => return Ok(Some(StopReason::Halted)),
            Li => self.set_reg(inst.ra, inst.imm),
            Mov => self.set_reg(inst.ra, self.reg(inst.rb)),
            Add => self.set_reg(inst.ra, self.reg(inst.rb).wrapping_add(self.reg(inst.rc))),
            Sub => self.set_reg(inst.ra, self.reg(inst.rb).wrapping_sub(self.reg(inst.rc))),
            Mul => self.set_reg(inst.ra, self.reg(inst.rb).wrapping_mul(self.reg(inst.rc))),
            Divu => {
                let d = self.reg(inst.rc);
                if d == 0 {
                    return Err(VmFault::DivByZero { pc });
                }
                self.set_reg(inst.ra, self.reg(inst.rb) / d);
            }
            And => self.set_reg(inst.ra, self.reg(inst.rb) & self.reg(inst.rc)),
            Or => self.set_reg(inst.ra, self.reg(inst.rb) | self.reg(inst.rc)),
            Xor => self.set_reg(inst.ra, self.reg(inst.rb) ^ self.reg(inst.rc)),
            Shl => self.set_reg(inst.ra, self.reg(inst.rb) << (self.reg(inst.rc) & 31)),
            Shr => self.set_reg(inst.ra, self.reg(inst.rb) >> (self.reg(inst.rc) & 31)),
            Addi => self.set_reg(inst.ra, self.reg(inst.rb).wrapping_add(inst.imm)),
            Ld => {
                let addr = self.reg(inst.rb).wrapping_add(inst.imm);
                let mut b = [0u8; 4];
                mem.read(addr, &mut b)?;
                self.set_reg(inst.ra, u32::from_le_bytes(b));
                self.stats.loads += 1;
            }
            St => {
                let addr = self.reg(inst.rb).wrapping_add(inst.imm);
                mem.write(addr, &self.reg(inst.ra).to_le_bytes())?;
                self.stats.stores += 1;
            }
            Ld8 => {
                let addr = self.reg(inst.rb).wrapping_add(inst.imm);
                let mut b = [0u8; 1];
                mem.read(addr, &mut b)?;
                self.set_reg(inst.ra, u32::from(b[0]));
                self.stats.loads += 1;
            }
            St8 => {
                let addr = self.reg(inst.rb).wrapping_add(inst.imm);
                mem.write(addr, &[(self.reg(inst.ra) & 0xff) as u8])?;
                self.stats.stores += 1;
            }
            Call => {
                self.set_reg(REG_LR, next);
                next = inst.imm;
                self.stats.calls += 1;
            }
            Callr => {
                self.set_reg(REG_LR, next);
                next = self.reg(inst.rb);
                self.stats.calls += 1;
            }
            Ret => next = self.reg(REG_LR),
            Jmp => next = inst.imm,
            Jmpr => next = self.reg(inst.rb),
            Beq | Bne | Blt | Bge => {
                let a = self.reg(inst.ra);
                let b = self.reg(inst.rb);
                let taken = match inst.op {
                    Beq => a == b,
                    Bne => a != b,
                    Blt => (a as i32) < (b as i32),
                    Bge => (a as i32) >= (b as i32),
                    _ => unreachable!("filtered by match arm"),
                };
                if taken {
                    next = pc.wrapping_add(INST_BYTES as u32).wrapping_add(inst.imm);
                    self.stats.taken_branches += 1;
                }
            }
            Sys => {
                self.stats.syscalls += 1;
                // The handler sees the *committed* next PC so re-entrant
                // handlers (the partial-image stubs) can resume correctly.
                self.pc = next;
                match sys.syscall(inst.imm, &mut self.regs, mem)? {
                    SysResult::Continue => {}
                    SysResult::Exit(code) => return Ok(Some(StopReason::Exited(code))),
                }
                // `regs[0]` stays hardwired even if a handler scribbled it.
                self.regs[0] = 0;
                return Ok(None);
            }
        }
        self.pc = next;
        Ok(None)
    }
}

/// A flat `Vec<u8>`-backed memory for tests and standalone use.
#[derive(Debug)]
pub struct FlatMemory {
    base: u32,
    bytes: Vec<u8>,
}

impl FlatMemory {
    /// Creates `size` zero bytes mapped at `base`.
    #[must_use]
    pub fn new(base: u32, size: usize) -> FlatMemory {
        FlatMemory {
            base,
            bytes: vec![0; size],
        }
    }

    /// Copies `data` into memory at absolute address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (test-setup bug).
    pub fn load(&mut self, addr: u32, data: &[u8]) {
        let off = (addr - self.base) as usize;
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }
}

impl Memory for FlatMemory {
    fn read(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), VmFault> {
        let off = addr.wrapping_sub(self.base) as usize;
        if addr < self.base || off + buf.len() > self.bytes.len() {
            return Err(VmFault::MemFault { addr, write: false });
        }
        buf.copy_from_slice(&self.bytes[off..off + buf.len()]);
        Ok(())
    }

    fn write(&mut self, addr: u32, buf: &[u8]) -> Result<(), VmFault> {
        let off = addr.wrapping_sub(self.base) as usize;
        if addr < self.base || off + buf.len() > self.bytes.len() {
            return Err(VmFault::MemFault { addr, write: true });
        }
        self.bytes[off..off + buf.len()].copy_from_slice(buf);
        Ok(())
    }
}

/// A syscall handler that rejects everything except `exit` (number 0).
#[derive(Debug, Default)]
pub struct ExitOnly;

impl SyscallHandler for ExitOnly {
    fn syscall(
        &mut self,
        num: u32,
        regs: &mut [u32; NUM_REGS],
        _mem: &mut dyn Memory,
    ) -> Result<SysResult, VmFault> {
        if num == 0 {
            Ok(SysResult::Exit(regs[1]))
        } else {
            Err(VmFault::BadSyscall {
                num,
                msg: "only exit is supported here".into(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    /// Assembles, lays text at `base`, runs to completion.
    fn run_at(base: u32, src: &str) -> (StopReason, Vm) {
        let obj = assemble("t.o", src).expect("assembles");
        let text = &obj.sections[obj.section_index(".text").unwrap()].bytes;
        // Quick direct placement: no relocations allowed in these tests.
        assert!(
            obj.relocs.is_empty(),
            "test programs must be self-contained"
        );
        let mut mem = FlatMemory::new(base, 64 * 1024);
        mem.load(base, text);
        let mut vm = Vm::new(base);
        vm.regs[14] = base + 60 * 1024; // stack near the top
        let stop = vm.run(&mut mem, &mut ExitOnly, 1_000_000);
        (stop, vm)
    }

    #[test]
    fn arithmetic_and_exit() {
        let (stop, _) = run_at(
            0x1000,
            r#"
            .text
            li r1, 6
            li r2, 7
            mul r1, r1, r2
            sys 0
            "#,
        );
        assert_eq!(stop, StopReason::Exited(42));
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (stop, _) = run_at(
            0x1000,
            r#"
            .text
            li r0, 99
            mov r1, r0
            sys 0
            "#,
        );
        assert_eq!(stop, StopReason::Exited(0));
    }

    #[test]
    fn loop_counts_down() {
        let (stop, vm) = run_at(
            0x1000,
            r#"
            .text
            li r1, 10
            li r2, 0
_loop:      addi r2, r2, 3
            addi r1, r1, -1
            bne r1, r0, _loop
            mov r1, r2
            sys 0
            "#,
        );
        assert_eq!(stop, StopReason::Exited(30));
        assert_eq!(vm.stats.taken_branches, 9);
    }

    #[test]
    fn call_and_ret_via_patched_relocation() {
        // A direct `call _double` emits an Abs32 relocation; patch it by
        // hand the way the linker will, then run.
        let obj = assemble(
            "t.o",
            r#"
            .text
            li r1, 5
            call _double
            sys 0
_double:    add r1, r1, r1
            ret
            "#,
        )
        .unwrap();
        let base = 0x2000u32;
        let mut text = obj.sections[0].bytes.clone();
        assert_eq!(obj.relocs.len(), 1);
        let r = &obj.relocs[0];
        let target = match obj.symbols.get("_double").unwrap().def {
            omos_obj::SymbolDef::Defined { offset, .. } => base + offset as u32,
            _ => unreachable!("label is defined"),
        };
        assert!(omos_obj::reloc::apply_patch(
            &mut text,
            r.offset,
            r.kind,
            i64::from(target)
        ));
        let mut mem = FlatMemory::new(base, 64 * 1024);
        mem.load(base, &text);
        let mut vm = Vm::new(base);
        let stop = vm.run(&mut mem, &mut ExitOnly, 1000);
        assert_eq!(stop, StopReason::Exited(10));
        assert_eq!(vm.stats.calls, 1);
    }

    #[test]
    fn call_via_register() {
        let (stop, vm) = run_at(
            0x2000,
            r#"
            .text
            li r1, 5
            li r5, 0x2020         ; address of _double below (0x2000 + 4*8)
            callr r5
            sys 0
            nop                   ; 0x2018: padding so _double sits at 0x2020
_double:    add r1, r1, r1
            ret
            "#,
        );
        assert_eq!(stop, StopReason::Exited(10));
        assert_eq!(vm.stats.calls, 1);
    }

    #[test]
    fn memory_loads_and_stores() {
        let (stop, vm) = run_at(
            0x1000,
            r#"
            .text
            li r2, 0x8000
            li r1, 0xabcd
            st r1, [r2+4]
            ld r3, [r2+4]
            ld8 r4, [r2+5]     ; second byte of 0xabcd little-endian = 0xab
            mov r1, r4
            sys 0
            "#,
        );
        assert_eq!(stop, StopReason::Exited(0xab));
        assert_eq!(vm.stats.loads, 2);
        assert_eq!(vm.stats.stores, 1);
    }

    #[test]
    fn signed_compares() {
        let (stop, _) = run_at(
            0x1000,
            r#"
            .text
            li r1, -1          ; 0xffffffff
            li r2, 1
            blt r1, r2, _ok    ; signed: -1 < 1
            li r1, 0
            sys 0
_ok:        li r1, 77
            sys 0
            "#,
        );
        assert_eq!(stop, StopReason::Exited(77));
    }

    #[test]
    fn div_by_zero_faults() {
        let (stop, _) = run_at(
            0x1000,
            r#"
            .text
            li r1, 10
            divu r1, r1, r0
            sys 0
            "#,
        );
        assert!(matches!(stop, StopReason::Fault(VmFault::DivByZero { .. })));
    }

    #[test]
    fn unmapped_access_faults() {
        let (stop, _) = run_at(
            0x1000,
            r#"
            .text
            li r2, 0
            ld r1, [r2]        ; below base
            sys 0
            "#,
        );
        assert!(matches!(
            stop,
            StopReason::Fault(VmFault::MemFault {
                addr: 0,
                write: false
            })
        ));
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let obj = assemble("t.o", ".text\n_l: jmp 0x1000\n").unwrap();
        let text = &obj.sections[0].bytes;
        let mut mem = FlatMemory::new(0x1000, 4096);
        mem.load(0x1000, text);
        let mut vm = Vm::new(0x1000);
        let stop = vm.run(&mut mem, &mut ExitOnly, 100);
        assert_eq!(stop, StopReason::Fault(VmFault::FuelExhausted));
        assert_eq!(vm.stats.instructions, 100);
    }

    #[test]
    fn halt_stops() {
        let (stop, _) = run_at(0x1000, ".text\nhalt\n");
        assert_eq!(stop, StopReason::Halted);
    }

    #[test]
    fn illegal_instruction_faults() {
        let mut mem = FlatMemory::new(0x1000, 4096);
        mem.load(0x1000, &[0xff; 8]);
        let mut vm = Vm::new(0x1000);
        let stop = vm.run(&mut mem, &mut ExitOnly, 10);
        assert_eq!(stop, StopReason::Fault(VmFault::BadOpcode { pc: 0x1000 }));
    }

    #[test]
    fn unknown_syscall_rejected_by_exit_only() {
        let (stop, _) = run_at(0x1000, ".text\nsys 42\n");
        assert!(matches!(
            stop,
            StopReason::Fault(VmFault::BadSyscall { num: 42, .. })
        ));
    }

    #[test]
    fn jmpr_dispatches() {
        let (stop, _) = run_at(
            0x1000,
            r#"
            .text
            li r5, 0x1018
            jmpr r5
            halt               ; skipped
            li r1, 9           ; 0x1018
            sys 0
            "#,
        );
        assert_eq!(stop, StopReason::Exited(9));
    }
}
