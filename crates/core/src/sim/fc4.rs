//! Functional simulator for the fabricated cores: FlexiCore4, and
//! FlexiCore8, which is FlexiCore4 at eight bits.
//!
//! [`FabCore`] models the architectural state of Figure 3: a 7-bit
//! program counter, a `W`-bit accumulator, and a 32-bit data memory —
//! eight 4-bit words on FlexiCore4, four octets on FlexiCore8 — of which
//! addresses 0 and 1 are the input and output buses. The off-chip `Mmu`
//! (see [`crate::mmu`]) is simulated alongside, snooping the output port
//! exactly as the external board does (§5.1).
//!
//! The datapath width `W` is a compile-time parameter, so [`Fc4Core`]
//! and [`Fc8Core`] each monomorphise their own step loop. Everything
//! that differs between them derives from `W`: the width mask, the sign
//! bit the branch tests, the word count and address mask, the fetch
//! window and whether `LOAD BYTE` decodes. One execute body serves both:
//! 4-bit immediates are sign-extended to the datapath, which on
//! FlexiCore4 is the raw nibble arithmetic mod 16. FlexiCore8's two-byte
//! `LOAD BYTE` costs an extra clock cycle for its second fetch (the
//! single stateful bit in FlexiCore8's controller, §3.4).
//!
//! The step/run loop lives in [`crate::exec`]; this module contributes
//! only the decode/execute semantics via the [`Core`] trait, whose
//! provided methods drive it.

use crate::error::{DecodeError, SimError};
use crate::exec::{Core, ExecState, Flow, Snapshot};
use crate::io::{InputPort, OutputPort};
use crate::isa::fc4::{has_load_byte, mem_words, Instruction};
use crate::isa::{sign_extend, AluOp};
use crate::program::Program;
use crate::sim::fault::{ArchState, FaultHook};
use crate::sim::{read_cell, write_cell};

/// A fabricated FlexiCore of datapath width `W` (4 or 8) plus its
/// off-chip program memory and MMU.
#[derive(Debug, Clone)]
pub struct FabCore<const W: u32> {
    exec: ExecState,
    acc: u8,
    /// The data memory; FlexiCore8 uses the first four words.
    mem: [u8; mem_words(4)],
}

/// The fabricated 4-bit FlexiCore4 (Figure 2a).
pub type Fc4Core = FabCore<4>;
/// The fabricated 8-bit FlexiCore8 (Figure 2b).
pub type Fc8Core = FabCore<8>;

impl<const W: u32> FabCore<W> {
    const MASK: u8 = ((1u16 << W) - 1) as u8;
    const SIGN_BIT: u8 = 1 << (W - 1);
    const WORDS: usize = mem_words(W);

    /// A core reset to power-on state with `program` in its external memory.
    #[must_use]
    pub fn new(program: Program) -> Self {
        FabCore {
            exec: ExecState::new(program),
            acc: 0,
            mem: [0; mem_words(4)],
        }
    }

    /// Reset architectural state (keeps the program image — this is what
    /// power-cycling a field-programmed chip does).
    pub fn reset(&mut self) {
        let program = core::mem::take(&mut self.exec.program);
        *self = FabCore::new(program);
    }

    /// Replace the external program memory and reset — *field
    /// reprogramming*.
    pub fn reprogram(&mut self, program: Program) {
        *self = FabCore::new(program);
    }

    /// Current accumulator value.
    #[must_use]
    pub fn acc(&self) -> u8 {
        self.acc
    }

    /// The data-memory word at `addr`, or `None` past the last word.
    /// Addresses 0/1 return the backing latches, not live bus values.
    #[must_use]
    pub fn mem(&self, addr: u8) -> Option<u8> {
        self.words().get(usize::from(addr)).copied()
    }

    fn words(&self) -> &[u8] {
        &self.mem[..Self::WORDS]
    }

    #[inline]
    fn read<I: InputPort, F: FaultHook>(&self, addr: u8, input: &mut I, faults: &mut F) -> u8 {
        read_cell(&self.exec, self.words(), addr, Self::MASK, input, faults)
    }

    #[inline]
    fn alu(&mut self, op: AluOp, operand: u8) {
        self.acc = op.apply(self.acc, operand, W);
    }
}

/// A 4-bit immediate sign-extended to the datapath.
#[inline]
fn sext4(imm: u8) -> u8 {
    sign_extend(imm, 4) as u8
}

impl<const W: u32> Core for FabCore<W> {
    type Insn = Instruction;
    const FETCH_WINDOW: usize = if has_load_byte(W) { 2 } else { 1 };

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
        let (insn, len) = Instruction::decode(window, W).map_err(|e| match e {
            DecodeError::NeedsSecondByte { .. } => SimError::TruncatedInstruction { address },
            DecodeError::Illegal { raw } => SimError::IllegalInstruction { raw, address },
        })?;
        Ok((insn, len as u8))
    }

    // inlined into every copy of the engine's step, which runs it
    // once per simulated instruction
    #[inline(always)]
    fn execute<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        insn: Instruction,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Flow {
        match insn {
            Instruction::AddImm { imm } => self.alu(AluOp::Add, sext4(imm)),
            Instruction::NandImm { imm } => self.alu(AluOp::Nand, sext4(imm)),
            Instruction::XorImm { imm } => self.alu(AluOp::Xor, sext4(imm)),
            Instruction::AddMem { src } => {
                let v = self.read(src, input, faults);
                self.alu(AluOp::Add, v);
            }
            Instruction::NandMem { src } => {
                let v = self.read(src, input, faults);
                self.alu(AluOp::Nand, v);
            }
            Instruction::XorMem { src } => {
                let v = self.read(src, input, faults);
                self.alu(AluOp::Xor, v);
            }
            Instruction::Load { addr } => self.acc = self.read(addr, input, faults),
            Instruction::Store { addr } => {
                let (mem, acc) = (&mut self.mem[..Self::WORDS], self.acc);
                write_cell(&mut self.exec, mem, addr, acc, Self::MASK, output, faults);
            }
            Instruction::LoadByte { imm } => self.acc = imm,
            Instruction::Branch { target } => {
                if self.acc & Self::SIGN_BIT != 0 {
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
            mem: &mut self.mem[..Self::WORDS],
            page,
            pending_page,
            data_mask: Self::MASK,
        }
    }

    #[inline]
    fn event_acc(&self) -> u8 {
        self.acc
    }

    fn save_arch(&self, snap: &mut Snapshot) {
        snap.acc = self.acc;
        snap.mem = self.words().to_vec();
    }

    fn load_arch(&mut self, snap: &Snapshot) {
        self.acc = snap.acc;
        self.mem[..Self::WORDS].copy_from_slice(&snap.mem);
    }

    fn same_regs(&self, snap: &Snapshot) -> bool {
        self.acc == snap.acc && self.words() == &snap.mem[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ConstInput, NullOutput, RecordingOutput, ScriptedInput};
    use crate::isa::fc4::Instruction as I;
    use crate::sim::StopReason;

    fn assemble(insns: &[I]) -> Program {
        let mut bytes = Vec::new();
        for i in insns {
            i.encode_into(&mut bytes);
        }
        Program::from_bytes(bytes)
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
            i.encode_into(&mut image);
        }
        image.resize(128, 0); // pad page 0
        let page1 = [I::NandImm { imm: 0 }, I::Branch { target: 1 }];
        for i in page1 {
            i.encode_into(&mut image);
        }
        let mut core = Fc4Core::new(Program::from_bytes(image));
        let mut out = RecordingOutput::new();
        let r = core.run(&mut ConstInput::new(0), &mut out, 1000).unwrap();
        assert!(r.halted());
        assert_eq!(core.state().page(), 1);
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
        assert!(core.state().is_halted());
        core.reset();
        assert!(!core.state().is_halted());
        assert_eq!(core.state().pc(), 0);
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
