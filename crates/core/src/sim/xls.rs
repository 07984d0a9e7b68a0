//! Functional simulator for the load-store ISA of the DSE (§6.2).
//!
//! The machine has eight 4-bit registers (`r0`/`r1` memory-mapped to the IO
//! buses), an `nzp` + carry flags register updated by every ALU/`MOV`
//! instruction, and — with
//! [`Feature::Subroutines`](crate::isa::features::Feature::Subroutines) — a
//! return-address
//! register. Instructions are sixteen bits; the program counter indexes
//! *instructions*, with the byte fetch address being `2 * pc`.
//!
//! Feature gating mirrors [`XaccCore`](crate::sim::xacc::XaccCore):
//! executing an instruction whose feature is disabled raises
//! [`SimError::IllegalInstruction`].
//!
//! The step/run loop lives in [`crate::exec`]; this module
//! contributes only the load-store decode/execute semantics via the
//! [`Core`] trait, whose provided methods drive it.

use crate::error::SimError;
use crate::exec::{Core, ExecState, Flow, Snapshot, PC_MASK};
use crate::io::{InputPort, OutputPort};
use crate::isa::features::FeatureSet;
use crate::isa::sign_extend;
use crate::isa::xls::{Instruction, Operand, NUM_REGS};
use crate::program::Program;
use crate::sim::fault::{ArchState, FaultHook};
use crate::sim::{read_cell, write_cell};

const WIDTH_MASK: u8 = 0xF;

/// Condition flags produced by the last value-writing instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Result was negative (sign bit set).
    pub n: bool,
    /// Result was zero.
    pub z: bool,
    /// Result was positive (neither negative nor zero).
    pub p: bool,
    /// Carry / borrow-free flag from arithmetic and shifts.
    pub c: bool,
}

impl Flags {
    /// N/Z/P/C packed into bits 0–3, the [`Snapshot::flags`] layout.
    fn bits(self) -> u8 {
        u8::from(self.n) | u8::from(self.z) << 1 | u8::from(self.p) << 2 | u8::from(self.c) << 3
    }

    fn set_nzp(&mut self, value: u8) {
        let v = value & WIDTH_MASK;
        self.n = v & 0x8 != 0;
        self.z = v == 0;
        self.p = !self.n && !self.z;
    }
}

/// A load-store core with a given feature configuration.
#[derive(Debug, Clone)]
pub struct XlsCore {
    features: FeatureSet,
    exec: ExecState,
    regs: [u8; NUM_REGS],
    flags: Flags,
    ra: u8,
}

impl XlsCore {
    /// A core with `features` enabled and `program` loaded.
    #[must_use]
    pub fn new(features: FeatureSet, program: Program) -> Self {
        XlsCore {
            features,
            exec: ExecState::new(program),
            regs: [0; NUM_REGS],
            flags: Flags::default(),
            ra: 0,
        }
    }

    /// Reset architectural state, keeping program and features.
    pub fn reset(&mut self) {
        let features = self.features;
        let program = core::mem::take(&mut self.exec.program);
        *self = XlsCore::new(features, program);
    }

    /// The enabled feature set.
    #[must_use]
    pub fn features(&self) -> FeatureSet {
        self.features
    }

    /// The register `r`, or `None` when `r >= 8`.
    #[must_use]
    pub fn reg(&self, r: u8) -> Option<u8> {
        self.regs.get(usize::from(r)).copied()
    }

    /// Current condition flags.
    #[must_use]
    pub fn flags(&self) -> Flags {
        self.flags
    }

    #[inline]
    fn read<I: InputPort, F: FaultHook>(&self, r: u8, input: &mut I, faults: &mut F) -> u8 {
        read_cell(&self.exec, &self.regs, r, WIDTH_MASK, input, faults)
    }
}

impl Core for XlsCore {
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
    fn fetch_address(&self, page_pc: u32) -> u32 {
        page_pc * 2
    }

    #[inline]
    fn decode(&self, window: &[u8], address: u32) -> Result<(Instruction, u8), SimError> {
        let (insn, len) = Instruction::decode_bytes(window).map_err(|e| match e {
            crate::error::DecodeError::NeedsSecondByte { .. } => {
                SimError::TruncatedInstruction { address }
            }
            crate::error::DecodeError::Illegal { raw } => {
                SimError::IllegalInstruction { raw, address }
            }
        })?;
        if !insn.is_legal(self.features) {
            return Err(SimError::IllegalInstruction {
                raw: insn.encode(),
                address,
            });
        }
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
            Instruction::Alu { op, rd, operand } => {
                let b = match operand {
                    Operand::Reg(rs) => self.read(rs, input, faults),
                    Operand::Imm(imm) => sign_extend(imm, 4) as u8,
                };
                // the datapath reads rd even for MOV, consuming the input
                let a = self.read(rd, input, faults);
                let (result, carry) = op.apply(a, b, self.flags.c);
                self.flags.c = carry;
                self.flags.set_nzp(result);
                let regs = &mut self.regs;
                write_cell(&mut self.exec, regs, rd, result, WIDTH_MASK, output, faults);
            }
            Instruction::Br { cond, target } => {
                let f = self.flags;
                let bits = cond.bits();
                let go = (bits & 0b100 != 0 && f.n)
                    || (bits & 0b010 != 0 && f.z)
                    || (bits & 0b001 != 0 && f.p);
                if go {
                    return Flow::Jump { target };
                }
            }
            Instruction::Call { target } => {
                self.ra = (self.exec.pc + 1) & PC_MASK;
                return Flow::Jump { target };
            }
            Instruction::Ret => {
                return Flow::Jump { target: self.ra };
            }
        }
        Flow::Sequential
    }

    #[inline]
    fn pc_increment(_len: u8) -> u8 {
        1
    }

    #[inline]
    fn budget_spent(state: &ExecState) -> u64 {
        state.instructions
    }

    fn arch_state(&mut self) -> ArchState<'_> {
        let (page, pending_page) = self.exec.mmu.fault_view();
        ArchState {
            pc: &mut self.exec.pc,
            acc: None,
            mem: &mut self.regs,
            page,
            pending_page,
            data_mask: WIDTH_MASK,
        }
    }

    fn save_arch(&self, snap: &mut Snapshot) {
        snap.ra = self.ra;
        snap.flags = self.flags.bits();
        snap.mem = self.regs.to_vec();
    }

    fn load_arch(&mut self, snap: &Snapshot) {
        self.ra = snap.ra;
        self.flags = Flags {
            n: snap.flags & 1 != 0,
            z: snap.flags & 2 != 0,
            p: snap.flags & 4 != 0,
            c: snap.flags & 8 != 0,
        };
        self.regs.copy_from_slice(&snap.mem);
    }

    fn same_regs(&self, snap: &Snapshot) -> bool {
        self.ra == snap.ra && self.flags.bits() == snap.flags && self.regs[..] == snap.mem[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ConstInput, NullOutput, RecordingOutput};
    use crate::isa::xacc::Cond;
    use crate::isa::xls::{Instruction as I, Op};

    fn assemble(insns: &[I]) -> Program {
        let mut bytes = Vec::new();
        for i in insns {
            i.encode_into(&mut bytes);
        }
        Program::from_bytes(bytes)
    }

    fn alu(op: Op, rd: u8, operand: Operand) -> I {
        I::Alu { op, rd, operand }
    }

    fn movi(rd: u8, v: u8) -> I {
        alu(Op::Mov, rd, Operand::Imm(v))
    }

    fn halt(at: u8) -> I {
        // MOV writes flags; an unconditional branch needs BranchFlags, so
        // tests run with the revised feature set.
        I::Br {
            cond: Cond::ALWAYS,
            target: at,
        }
    }

    fn run_prog(features: FeatureSet, insns: &[I], input: u8) -> (XlsCore, RecordingOutput) {
        let mut core = XlsCore::new(features, assemble(insns));
        let mut inp = ConstInput::new(input);
        let mut out = RecordingOutput::new();
        core.run(&mut inp, &mut out, 10_000).expect("run");
        (core, out)
    }

    #[test]
    fn two_operand_add() {
        let prog = [
            movi(2, 5),
            movi(3, 4),
            alu(Op::Add, 2, Operand::Reg(3)), // r2 = 9
            halt(3),
        ];
        let (core, _) = run_prog(FeatureSet::revised(), &prog, 0);
        assert_eq!(core.reg(2), Some(9));
        assert!(core.state().is_halted());
    }

    #[test]
    fn io_through_registers() {
        let prog = [
            alu(Op::Mov, 2, Operand::Reg(0)), // r2 = input
            alu(Op::Add, 2, Operand::Reg(2)), // double it
            alu(Op::Mov, 1, Operand::Reg(2)), // drive output
            halt(3),
        ];
        let (_, out) = run_prog(FeatureSet::revised(), &prog, 0x3);
        assert_eq!(out.values(), vec![0x6]);
    }

    #[test]
    fn flags_drive_branches() {
        // r2 = 0 -> MOV sets Z; br.z skips the increment
        let prog = [
            movi(2, 0),
            I::Br {
                cond: Cond::Z,
                target: 3,
            },
            alu(Op::Add, 2, Operand::Imm(1)), // skipped
            alu(Op::Mov, 3, Operand::Reg(2)), // r3 = 0
            halt(4),
        ];
        let (core, _) = run_prog(FeatureSet::revised(), &prog, 0);
        assert_eq!(core.reg(3), Some(0));
    }

    #[test]
    fn sub_and_carry_flags() {
        let prog = [
            movi(2, 3),
            alu(Op::Sub, 2, Operand::Imm(5)), // 3-5 = 0xE, borrow
            halt(2),
        ];
        let (core, _) = run_prog(FeatureSet::revised(), &prog, 0);
        assert_eq!(core.reg(2), Some(0xE));
        assert!(!core.flags().c);
        assert!(core.flags().n);
    }

    #[test]
    fn call_ret_roundtrip() {
        let prog = [
            I::Call { target: 3 },            // 0
            alu(Op::Mov, 3, Operand::Reg(2)), // 1: after return, r3 = r2
            halt(2),                          // 2
            movi(2, 7),                       // 3: subroutine
            I::Ret,                           // 4
        ];
        let (core, _) = run_prog(FeatureSet::revised(), &prog, 0);
        assert_eq!(core.reg(3), Some(7));
    }

    #[test]
    fn shifts() {
        let prog = [
            movi(2, 0xD),                     // negative
            alu(Op::Asr, 2, Operand::Imm(1)), // 0xE
            movi(3, 0xD),
            alu(Op::Lsr, 3, Operand::Imm(1)), // 0x6
            halt(4),
        ];
        let (core, _) = run_prog(FeatureSet::revised(), &prog, 0);
        assert_eq!(core.reg(2), Some(0xE));
        assert_eq!(core.reg(3), Some(0x6));
    }

    #[test]
    fn shift_carry_matches_the_accumulator_dialect() {
        // carry = bit `amount - 1` for amounts 1..=4 (a shift by four
        // carries out the top bit), clear above four, kept at zero
        use crate::isa::xacc::Instruction as X;
        use crate::sim::xacc::XaccCore;
        let features = FeatureSet::revised();
        for value in 0..16u8 {
            for amount in 0..8u8 {
                for carry in [false, true] {
                    for op in [Op::Asr, Op::Lsr] {
                        let shift = if op == Op::Asr {
                            X::AsrImm { amount }
                        } else {
                            X::LsrImm { amount }
                        };
                        let mut xacc = XaccCore::new(features, Program::from_bytes(shift.encode()));
                        let mut snap = xacc.snapshot();
                        (snap.acc, snap.flags) = (value, u8::from(carry));
                        xacc.restore(&snap);
                        let mut xls =
                            XlsCore::new(features, assemble(&[alu(op, 2, Operand::Imm(amount))]));
                        let mut snap = xls.snapshot();
                        (snap.mem[2], snap.flags) = (value, u8::from(carry) << 3);
                        xls.restore(&snap);
                        xacc.step(&mut ConstInput::new(0), &mut NullOutput::new())
                            .unwrap();
                        xls.step(&mut ConstInput::new(0), &mut NullOutput::new())
                            .unwrap();
                        let case = format!("{op:?} {value:#x} by {amount}, carry {carry}");
                        assert_eq!(xls.reg(2), Some(xacc.acc()), "{case}");
                        assert_eq!(xls.flags().c, xacc.carry(), "{case}");
                    }
                }
            }
        }
        // the seam itself: a shift by exactly four carries out bit 3
        let (core, _) = run_prog(
            FeatureSet::revised(),
            &[movi(2, 0x8), alu(Op::Lsr, 2, Operand::Imm(4)), halt(2)],
            0,
        );
        assert_eq!(core.reg(2), Some(0));
        assert!(core.flags().c);
    }

    #[test]
    fn feature_gating_enforced() {
        let prog = assemble(&[alu(Op::Adc, 2, Operand::Reg(3))]);
        let mut core = XlsCore::new(FeatureSet::BASE, prog);
        let err = core
            .step(&mut ConstInput::new(0), &mut NullOutput::new())
            .unwrap_err();
        assert!(matches!(err, SimError::IllegalInstruction { .. }));
    }

    #[test]
    fn mov_to_iport_register_is_discarded() {
        let prog = [
            movi(0, 5),                       // write to input register: ignored
            alu(Op::Mov, 2, Operand::Reg(0)), // reads the live bus
            halt(2),
        ];
        let (core, _) = run_prog(FeatureSet::revised(), &prog, 0x9);
        assert_eq!(core.reg(2), Some(0x9));
    }

    #[test]
    fn fetched_bytes_are_two_per_instruction() {
        let prog = [movi(2, 1), halt(1)];
        let mut core = XlsCore::new(FeatureSet::revised(), assemble(&prog));
        let r = core
            .run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(r.instructions, 2);
        assert_eq!(r.fetched_bytes, 4);
        assert_eq!(core.reg(8), None);
    }
}
