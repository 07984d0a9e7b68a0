//! Functional simulator for FlexiCore4.
//!
//! Models the architectural state of Figure 3: a 7-bit program counter, a
//! 4-bit accumulator, and eight 4-bit data-memory words of which addresses 0
//! and 1 are the input and output buses. The off-chip
//! `Mmu` (see [`crate::mmu`]) is simulated alongside, snooping the output
//! port exactly as the external board does (§5.1).
//!
//! The step/run loop lives in [`crate::exec::Engine`]; this module
//! contributes only the FlexiCore4 decode/execute semantics via the
//! [`Core`] trait.

use crate::error::SimError;
use crate::exec::{Core, Engine, ExecState, Flow, Snapshot};
use crate::io::{InputPort, OutputPort};
use crate::isa::fc4::{Instruction, IPORT_ADDR, MEM_WORDS, OPORT_ADDR};
use crate::program::Program;
use crate::sim::fault::{ArchState, FaultHook, NoFaults};
use crate::sim::RunResult;
use crate::trace::StepEvent;

const WIDTH_MASK: u8 = 0xF;
const SIGN_BIT: u8 = 0x8;

/// A FlexiCore4 core plus its off-chip program memory and MMU.
#[derive(Debug, Clone)]
pub struct Fc4Core {
    exec: ExecState,
    acc: u8,
    mem: [u8; MEM_WORDS],
}

impl Fc4Core {
    /// A core reset to power-on state with `program` in its external memory.
    #[must_use]
    pub fn new(program: Program) -> Self {
        Fc4Core {
            exec: ExecState::new(program),
            acc: 0,
            mem: [0; MEM_WORDS],
        }
    }

    /// Reset architectural state (keeps the program image — this is what
    /// power-cycling a field-programmed chip does).
    pub fn reset(&mut self) {
        let program = core::mem::take(&mut self.exec.program);
        *self = Fc4Core::new(program);
    }

    /// Replace the external program memory and reset — *field
    /// reprogramming*.
    pub fn reprogram(&mut self, program: Program) {
        *self = Fc4Core::new(program);
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

    /// The data-memory word at `addr`, or `None` when `addr >= 8`.
    /// Addresses 0/1 return the backing latches, not live bus values.
    #[must_use]
    pub fn mem(&self, addr: u8) -> Option<u8> {
        self.mem.get(usize::from(addr)).copied()
    }

    /// Elapsed clock cycles.
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
            let v = input.read(self.exec.cycle) & WIDTH_MASK;
            if F::ACTIVE {
                faults.on_input(self.exec.cycle, v) & WIDTH_MASK
            } else {
                v
            }
        } else {
            self.mem[usize::from(addr & 0x7)]
        }
    }

    /// Execute one instruction.
    ///
    /// # Errors
    ///
    /// * [`SimError::FetchOutOfBounds`] if the fetch address is outside the
    ///   program image,
    /// * [`SimError::IllegalInstruction`] for reserved encodings.
    pub fn step<I, O>(&mut self, input: &mut I, output: &mut O) -> Result<StepEvent, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        self.step_with(input, output, &mut NoFaults)
    }

    /// [`step`](Fc4Core::step) with a fault-injection hook.
    ///
    /// # Errors
    ///
    /// Same contract as [`Fc4Core::step`]; a corrupted fetch may surface
    /// as [`SimError::IllegalInstruction`].
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
    /// Propagates any error from [`Fc4Core::step`].
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

    /// [`run`](Fc4Core::run) with a fault-injection hook. State faults
    /// are applied once before the first fetch (a stuck power-on bit)
    /// and after every retired instruction.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Fc4Core::step_with`].
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

impl Core for Fc4Core {
    type Insn = Instruction;
    const FETCH_WINDOW: usize = 1;

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
        let byte = window[0];
        let insn = Instruction::decode(byte).map_err(|_| SimError::IllegalInstruction {
            raw: byte.into(),
            address,
        })?;
        Ok((insn, 1))
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
                self.acc = self.acc.wrapping_add(imm) & WIDTH_MASK;
            }
            Instruction::NandImm { imm } => {
                self.acc = !(self.acc & imm) & WIDTH_MASK;
            }
            Instruction::XorImm { imm } => {
                self.acc = (self.acc ^ imm) & WIDTH_MASK;
            }
            Instruction::AddMem { src } => {
                let v = self.read_operand(src, input, faults);
                self.acc = self.acc.wrapping_add(v) & WIDTH_MASK;
            }
            Instruction::NandMem { src } => {
                let v = self.read_operand(src, input, faults);
                self.acc = !(self.acc & v) & WIDTH_MASK;
            }
            Instruction::XorMem { src } => {
                let v = self.read_operand(src, input, faults);
                self.acc = (self.acc ^ v) & WIDTH_MASK;
            }
            Instruction::Load { addr } => {
                self.acc = self.read_operand(addr, input, faults);
            }
            Instruction::Store { addr } => {
                if addr != IPORT_ADDR {
                    self.mem[usize::from(addr & 0x7)] = self.acc;
                }
                if addr == OPORT_ADDR {
                    let driven = if F::ACTIVE {
                        faults.on_output(self.exec.cycle, self.acc) & WIDTH_MASK
                    } else {
                        self.acc
                    };
                    output.write(self.exec.cycle, driven);
                    self.exec.mmu.observe(driven);
                }
            }
            Instruction::Branch { target } => {
                if self.acc & SIGN_BIT != 0 {
                    return Flow::Jump { target };
                }
            }
        }
        Flow::Sequential
    }

    fn arch_state(&mut self) -> ArchState<'_> {
        let (page, pending_page) = self.exec.mmu.fault_view();
        ArchState {
            pc: &mut self.exec.pc,
            acc: Some(&mut self.acc),
            mem: &mut self.mem,
            page,
            pending_page,
            data_mask: WIDTH_MASK,
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
    use crate::io::{ConstInput, NullOutput, RecordingOutput, ScriptedInput};
    use crate::isa::fc4::Instruction as I;
    use crate::sim::StopReason;

    fn assemble(insns: &[I]) -> Program {
        Program::from_bytes(insns.iter().map(|i| i.encode()).collect())
    }

    /// A spin-forever tail: set ACC negative, branch to self.
    fn halt_tail(at: u8) -> [I; 2] {
        [
            I::NandImm { imm: 0 }, // ACC = 0xF, negative
            I::Branch { target: at + 1 },
        ]
    }

    #[test]
    fn add_immediate_wraps_mod_16() {
        let mut prog = vec![
            I::AddImm { imm: 9 },
            I::AddImm { imm: 9 },
            I::Store { addr: 2 },
        ];
        prog.extend(halt_tail(3));
        let mut core = Fc4Core::new(assemble(&prog));
        let r = core
            .run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert!(r.halted());
        assert_eq!(core.mem(2), Some(2)); // 18 mod 16
    }

    #[test]
    fn load_from_iport_and_store_to_oport() {
        let mut prog = vec![
            I::Load { addr: 0 },
            I::AddImm { imm: 1 },
            I::Store { addr: 1 },
        ];
        prog.extend(halt_tail(3));
        let mut core = Fc4Core::new(assemble(&prog));
        let mut out = RecordingOutput::new();
        core.run(&mut ConstInput::new(0x7), &mut out, 100).unwrap();
        assert_eq!(out.values(), vec![0x8]);
    }

    #[test]
    fn branch_taken_only_when_negative() {
        // ACC = 3 (positive): branch must fall through, then ACC = 0xF and
        // the next branch is taken.
        let prog = assemble(&[
            I::AddImm { imm: 3 },
            I::Branch { target: 1 }, // not taken (would spin)
            I::NandImm { imm: 0 },
            I::Branch { target: 3 }, // taken: halt
        ]);
        let mut core = Fc4Core::new(prog);
        let r = core
            .run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert!(r.halted());
        assert_eq!(r.instructions, 4);
        assert_eq!(r.taken_branches, 1);
    }

    #[test]
    fn store_then_load_roundtrips_memory() {
        let mut prog = vec![
            I::AddImm { imm: 5 },
            I::Store { addr: 3 },
            I::XorImm { imm: 0xF },
            I::Load { addr: 3 },
        ];
        prog.extend(halt_tail(4));
        let mut core = Fc4Core::new(assemble(&prog));
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.mem(3), Some(5));
        assert_eq!(core.acc(), 0xF, "final NAND result, after reload was 5");
    }

    #[test]
    fn store_to_iport_is_ignored() {
        let mut prog = vec![
            I::AddImm { imm: 7 },
            I::Store { addr: 0 },
            I::Load { addr: 0 },
            I::Store { addr: 3 },
        ];
        prog.extend(halt_tail(4));
        let mut core = Fc4Core::new(assemble(&prog));
        // input reads 2; the store to address 0 must not shadow the bus
        core.run(&mut ConstInput::new(2), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.mem(3), Some(2));
    }

    #[test]
    fn oport_reads_back_last_written_value() {
        let mut prog = vec![
            I::AddImm { imm: 6 },
            I::Store { addr: 1 },
            I::AddImm { imm: 1 },
            I::Load { addr: 1 },
            I::Store { addr: 2 },
        ];
        prog.extend(halt_tail(5));
        let mut core = Fc4Core::new(assemble(&prog));
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.mem(2), Some(6));
    }

    #[test]
    fn fetch_past_end_is_error() {
        let prog = assemble(&[I::AddImm { imm: 1 }]);
        let mut core = Fc4Core::new(prog);
        core.step(&mut ConstInput::new(0), &mut NullOutput::new())
            .unwrap();
        let err = core
            .step(&mut ConstInput::new(0), &mut NullOutput::new())
            .unwrap_err();
        assert!(matches!(err, SimError::FetchOutOfBounds { address: 1, .. }));
    }

    #[test]
    fn cycle_limit_stops_nonhalting_program() {
        // infinite loop that is not the halt idiom (two-instruction cycle)
        let prog = assemble(&[
            I::NandImm { imm: 0 },
            I::Branch { target: 0 }, // jumps back to 0, never to itself
        ]);
        let mut core = Fc4Core::new(prog);
        let r = core
            .run(&mut ConstInput::new(0), &mut NullOutput::new(), 50)
            .unwrap();
        assert_eq!(r.stop, StopReason::CycleLimit);
        assert_eq!(r.cycles, 50);
    }

    #[test]
    fn mmu_page_switch_via_oport() {
        // page 0: write 0xE, 0xD, 1 to OPORT, then branch to 0 — which is
        // now page 1 offset 0. Page 1 holds the halt tail.
        let mut image = Vec::new();
        let page0 = [
            I::NandImm { imm: 0 },   // acc = 0xF
            I::AddImm { imm: 0xF },  // acc = 0xE
            I::Store { addr: 1 },    // escape 1
            I::XorImm { imm: 0x3 },  // 0xE ^ 3 = 0xD
            I::Store { addr: 1 },    // escape 2
            I::AddImm { imm: 4 },    // 0xD + 4 = 0x11 & 0xF = 1
            I::Store { addr: 1 },    // page = 1
            I::NandImm { imm: 0 },   // acc negative for the jump
            I::Branch { target: 0 }, // lands at page 1, offset 0
        ];
        for i in page0 {
            image.push(i.encode());
        }
        image.resize(128, 0); // pad page 0
        let page1 = [I::NandImm { imm: 0 }, I::Branch { target: 1 }];
        for i in page1 {
            image.push(i.encode());
        }
        let mut core = Fc4Core::new(Program::from_bytes(image));
        let mut out = RecordingOutput::new();
        let r = core.run(&mut ConstInput::new(0), &mut out, 1000).unwrap();
        assert!(r.halted());
        assert_eq!(core.page(), 1);
        assert_eq!(out.values(), vec![0xE, 0xD, 0x1]);
    }

    #[test]
    fn scripted_input_consumed_in_order() {
        let mut prog = vec![
            I::Load { addr: 0 },
            I::Store { addr: 2 },
            I::Load { addr: 0 },
            I::AddMem { src: 2 },
            I::Store { addr: 1 },
        ];
        prog.extend(halt_tail(5));
        let mut core = Fc4Core::new(assemble(&prog));
        let mut input = ScriptedInput::new(vec![3, 4]);
        let mut out = RecordingOutput::new();
        core.run(&mut input, &mut out, 100).unwrap();
        assert_eq!(out.values(), vec![7]);
    }

    #[test]
    fn reset_and_reprogram() {
        let mut prog = vec![I::AddImm { imm: 5 }];
        prog.extend(halt_tail(1));
        let mut core = Fc4Core::new(assemble(&prog));
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert!(core.is_halted());
        core.reset();
        assert!(!core.is_halted());
        assert_eq!(core.pc(), 0);
        assert_eq!(core.acc(), 0);

        let mut prog2 = vec![I::AddImm { imm: 2 }];
        prog2.extend(halt_tail(1));
        core.reprogram(assemble(&prog2));
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.acc(), 0xF, "halt tail NANDs to 0xF");
        assert_eq!(core.mem(2), Some(0));
    }

    #[test]
    fn out_of_range_mem_access_is_none() {
        let core = Fc4Core::new(assemble(&[I::AddImm { imm: 1 }]));
        assert_eq!(core.mem(7), Some(0));
        assert_eq!(core.mem(8), None);
    }
}
