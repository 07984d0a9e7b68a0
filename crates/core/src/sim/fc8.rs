//! Functional simulator for FlexiCore8.
//!
//! Identical in shape to [`Fc4Core`](crate::sim::fc4::Fc4Core) with the
//! §3.3 differences: an 8-bit datapath, four octet data-memory words, 4-bit
//! immediates sign-extended to the datapath, and the two-byte `LOAD BYTE`
//! instruction, whose second fetch costs an extra clock cycle (the single
//! stateful bit in FlexiCore8's controller, §3.4).
//!
//! The step/run loop lives in [`crate::exec::Engine`]; this module
//! contributes only the FlexiCore8 decode/execute semantics via the
//! [`Core`] trait.

use crate::error::SimError;
use crate::exec::{Core, Engine, ExecState, Flow, Snapshot};
use crate::io::{InputPort, OutputPort};
use crate::isa::fc8::{Instruction, IPORT_ADDR, MEM_WORDS, OPORT_ADDR};
use crate::isa::sign_extend;
use crate::program::Program;
use crate::sim::fault::{ArchState, FaultHook, NoFaults};
use crate::sim::RunResult;
use crate::trace::StepEvent;

const SIGN_BIT: u8 = 0x80;

/// A FlexiCore8 core plus its off-chip program memory and MMU.
#[derive(Debug, Clone)]
pub struct Fc8Core {
    exec: ExecState,
    acc: u8,
    mem: [u8; MEM_WORDS],
}

impl Fc8Core {
    /// A core reset to power-on state with `program` loaded.
    #[must_use]
    pub fn new(program: Program) -> Self {
        Fc8Core {
            exec: ExecState::new(program),
            acc: 0,
            mem: [0; MEM_WORDS],
        }
    }

    /// Reset architectural state, keeping the program image.
    pub fn reset(&mut self) {
        let program = core::mem::take(&mut self.exec.program);
        *self = Fc8Core::new(program);
    }

    /// Replace the external program memory and reset.
    pub fn reprogram(&mut self, program: Program) {
        *self = Fc8Core::new(program);
    }

    /// Current program counter (7 bits, in-page).
    #[must_use]
    pub fn pc(&self) -> u8 {
        self.exec.pc
    }

    /// Current accumulator value.
    #[must_use]
    pub fn acc(&self) -> u8 {
        self.acc
    }

    /// The data-memory word at `addr`, or `None` when `addr >= 4`.
    #[must_use]
    pub fn mem(&self, addr: u8) -> Option<u8> {
        self.mem.get(usize::from(addr)).copied()
    }

    /// Elapsed clock cycles (LOAD BYTE counts two).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.exec.cycle
    }

    /// Retired instruction count.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.exec.instructions
    }

    /// Whether the halt idiom has been reached.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.exec.halted
    }

    /// The currently selected MMU page.
    #[must_use]
    pub fn page(&self) -> u8 {
        self.exec.mmu.page()
    }

    /// The loaded program image.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.exec.program
    }

    fn read_operand<I: InputPort, F: FaultHook>(
        &mut self,
        addr: u8,
        input: &mut I,
        faults: &mut F,
    ) -> u8 {
        if addr == IPORT_ADDR {
            let v = input.read(self.exec.cycle);
            if F::ACTIVE {
                faults.on_input(self.exec.cycle, v)
            } else {
                v
            }
        } else {
            self.mem[usize::from(addr & 0x3)]
        }
    }

    /// Execute one instruction.
    ///
    /// # Errors
    ///
    /// * [`SimError::FetchOutOfBounds`] — fetch address outside the image,
    /// * [`SimError::IllegalInstruction`] — reserved encoding,
    /// * [`SimError::TruncatedInstruction`] — `LOAD BYTE` at the last byte
    ///   of the image.
    pub fn step<I, O>(&mut self, input: &mut I, output: &mut O) -> Result<StepEvent, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        self.step_with(input, output, &mut NoFaults)
    }

    /// [`step`](Fc8Core::step) with a fault-injection hook.
    ///
    /// # Errors
    ///
    /// Same as [`Fc8Core::step`].
    pub fn step_with<I, O, F>(
        &mut self,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Result<StepEvent, SimError>
    where
        I: InputPort,
        O: OutputPort,
        F: FaultHook,
    {
        Engine::with_faults(&mut *self, faults).step(input, output)
    }

    /// Run until the halt idiom or until `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Fc8Core::step`].
    pub fn run<I, O>(
        &mut self,
        input: &mut I,
        output: &mut O,
        max_cycles: u64,
    ) -> Result<RunResult, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        self.run_with(input, output, max_cycles, &mut NoFaults)
    }

    /// [`run`](Fc8Core::run) with a fault-injection hook. State faults
    /// are applied once before the first fetch (a stuck power-on bit)
    /// and after every retired instruction.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Fc8Core::step_with`].
    pub fn run_with<I, O, F>(
        &mut self,
        input: &mut I,
        output: &mut O,
        max_cycles: u64,
        faults: &mut F,
    ) -> Result<RunResult, SimError>
    where
        I: InputPort,
        O: OutputPort,
        F: FaultHook,
    {
        Engine::with_faults(&mut *self, faults).run(input, output, max_cycles)
    }
}

impl Core for Fc8Core {
    type Insn = Instruction;
    const FETCH_WINDOW: usize = 2;

    #[inline]
    fn state(&self) -> &ExecState {
        &self.exec
    }

    #[inline]
    fn state_mut(&mut self) -> &mut ExecState {
        &mut self.exec
    }

    #[inline]
    fn decode(&self, window: &[u8], address: u32) -> Result<(Instruction, u8), SimError> {
        let (insn, len) = Instruction::decode(window).map_err(|e| match e {
            crate::error::DecodeError::NeedsSecondByte { .. } => {
                SimError::TruncatedInstruction { address }
            }
            crate::error::DecodeError::Illegal { raw } => {
                SimError::IllegalInstruction { raw, address }
            }
        })?;
        Ok((insn, len as u8))
    }

    #[inline]
    fn execute<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        insn: Instruction,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Flow {
        match insn {
            Instruction::AddImm { imm } => {
                self.acc = self.acc.wrapping_add(sign_extend(imm, 4) as u8);
            }
            Instruction::NandImm { imm } => {
                self.acc = !(self.acc & (sign_extend(imm, 4) as u8));
            }
            Instruction::XorImm { imm } => {
                self.acc ^= sign_extend(imm, 4) as u8;
            }
            Instruction::AddMem { src } => {
                let v = self.read_operand(src, input, faults);
                self.acc = self.acc.wrapping_add(v);
            }
            Instruction::NandMem { src } => {
                let v = self.read_operand(src, input, faults);
                self.acc = !(self.acc & v);
            }
            Instruction::XorMem { src } => {
                let v = self.read_operand(src, input, faults);
                self.acc ^= v;
            }
            Instruction::Load { addr } => {
                self.acc = self.read_operand(addr, input, faults);
            }
            Instruction::Store { addr } => {
                if addr != IPORT_ADDR {
                    self.mem[usize::from(addr & 0x3)] = self.acc;
                }
                if addr == OPORT_ADDR {
                    let driven = if F::ACTIVE {
                        faults.on_output(self.exec.cycle, self.acc)
                    } else {
                        self.acc
                    };
                    output.write(self.exec.cycle, driven);
                    self.exec.mmu.observe(driven);
                }
            }
            Instruction::LoadByte { imm } => {
                self.acc = imm;
            }
            Instruction::Branch { target } => {
                if self.acc & SIGN_BIT != 0 {
                    return Flow::Jump { target };
                }
            }
        }
        Flow::Sequential
    }

    #[inline]
    fn insn_cycles(len: u8) -> u64 {
        u64::from(len)
    }

    fn arch_state(&mut self) -> ArchState<'_> {
        let (page, pending_page) = self.exec.mmu.fault_view();
        ArchState {
            pc: &mut self.exec.pc,
            acc: Some(&mut self.acc),
            mem: &mut self.mem,
            page,
            pending_page,
            data_mask: 0xFF,
        }
    }

    #[inline]
    fn event_acc(&self) -> u8 {
        self.acc
    }

    fn save_arch(&self, snap: &mut Snapshot) {
        snap.acc = self.acc;
        snap.mem = self.mem.to_vec();
    }

    fn load_arch(&mut self, snap: &Snapshot) {
        self.acc = snap.acc;
        self.mem.copy_from_slice(&snap.mem);
    }

    fn same_regs(&self, snap: &Snapshot) -> bool {
        self.acc == snap.acc && self.mem[..] == snap.mem[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ConstInput, NullOutput, RecordingOutput};
    use crate::isa::fc8::Instruction as I;

    fn assemble(insns: &[I]) -> Program {
        let mut bytes = Vec::new();
        for i in insns {
            i.encode_into(&mut bytes);
        }
        Program::from_bytes(bytes)
    }

    #[test]
    fn load_byte_loads_full_octet_and_costs_two_cycles() {
        let prog = assemble(&[
            I::LoadByte { imm: 0xAB },
            I::Store { addr: 2 },
            I::LoadByte { imm: 0x80 },
            I::Branch { target: 5 }, // byte address 5 is this branch itself
        ]);
        let mut core = Fc8Core::new(prog);
        let r = core
            .run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert!(r.halted());
        assert_eq!(core.mem(2), Some(0xAB));
        // 2 + 1 + 2 + 1 cycles
        assert_eq!(r.cycles, 6);
        assert_eq!(r.instructions, 4);
    }

    #[test]
    fn immediates_are_sign_extended() {
        let prog = assemble(&[
            I::LoadByte { imm: 0x10 },
            I::AddImm { imm: 0xD }, // -3
            I::Store { addr: 2 },
            I::LoadByte { imm: 0x80 },
            I::Branch { target: 6 },
        ]);
        let mut core = Fc8Core::new(prog);
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.mem(2), Some(0x0D));
    }

    #[test]
    fn branch_tests_bit_seven() {
        // byte layout: 0-1 LOAD BYTE, 2 branch (self), 3-4 LOAD BYTE,
        // 5 branch (self)
        let prog = assemble(&[
            I::LoadByte { imm: 0x7F }, // bytes 0-1
            I::Branch { target: 2 },   // byte 2: self-target, not taken
            I::LoadByte { imm: 0xFF }, // bytes 3-4
            I::Branch { target: 5 },   // byte 5: self-target, taken: halt
        ]);
        let mut core = Fc8Core::new(prog);
        let r = core
            .run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert!(r.halted());
        assert_eq!(r.taken_branches, 1);
    }

    #[test]
    fn eight_bit_io_roundtrip() {
        let prog = assemble(&[
            I::Load { addr: 0 },
            I::AddMem { src: 0 }, // doubles the input
            I::Store { addr: 1 },
            I::LoadByte { imm: 0x80 },
            I::Branch { target: 5 },
        ]);
        let mut core = Fc8Core::new(prog);
        let mut out = RecordingOutput::new();
        core.run(&mut ConstInput::new(0x55), &mut out, 100).unwrap();
        assert_eq!(out.values(), vec![0xAA]);
    }

    #[test]
    fn truncated_load_byte_is_error() {
        let prog = Program::from_bytes(vec![0x08]);
        let mut core = Fc8Core::new(prog);
        let err = core
            .step(&mut ConstInput::new(0), &mut NullOutput::new())
            .unwrap_err();
        assert!(matches!(err, SimError::TruncatedInstruction { address: 0 }));
    }

    #[test]
    fn only_four_memory_words() {
        let prog = assemble(&[
            I::LoadByte { imm: 0x42 },
            I::Store { addr: 3 },
            I::LoadByte { imm: 0x80 },
            I::Branch { target: 5 },
        ]);
        let mut core = Fc8Core::new(prog);
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.mem(3), Some(0x42));
        assert_eq!(core.mem(2), Some(0));
        assert_eq!(core.mem(4), None);
    }
}
