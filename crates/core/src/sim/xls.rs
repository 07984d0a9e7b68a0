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
//! The step/run loop lives in [`crate::exec::Engine`]; this module
//! contributes only the load-store decode/execute semantics via the
//! [`Core`] trait.

use crate::error::SimError;
use crate::exec::{Core, Engine, ExecState, Flow, Snapshot, PC_MASK};
use crate::io::{InputPort, OutputPort};
use crate::isa::features::FeatureSet;
use crate::isa::sign_extend;
use crate::isa::xls::{Instruction, Op, Operand, IPORT_REG, NUM_REGS, OPORT_REG};
use crate::program::Program;
use crate::sim::fault::{ArchState, FaultHook, NoFaults};
use crate::sim::RunResult;
use crate::trace::StepEvent;

const WIDTH: u32 = 4;
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

    /// Current program counter (instruction index).
    #[must_use]
    pub fn pc(&self) -> u8 {
        self.exec.pc
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

    /// Whether the halt idiom has been reached.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.exec.halted
    }

    /// Retired instruction count.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.exec.instructions
    }

    /// Elapsed ISA-level cycles (one per retired instruction).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.exec.cycle
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

    fn read_reg<I: InputPort, F: FaultHook>(&mut self, r: u8, input: &mut I, faults: &mut F) -> u8 {
        if r == IPORT_REG {
            let v = input.read(self.exec.cycle) & WIDTH_MASK;
            if F::ACTIVE {
                faults.on_input(self.exec.cycle, v) & WIDTH_MASK
            } else {
                v
            }
        } else {
            self.regs[usize::from(r & 7)]
        }
    }

    fn write_reg<O: OutputPort, F: FaultHook>(
        &mut self,
        r: u8,
        value: u8,
        output: &mut O,
        faults: &mut F,
    ) {
        let v = value & WIDTH_MASK;
        if r != IPORT_REG {
            self.regs[usize::from(r & 7)] = v;
        }
        if r == OPORT_REG {
            let driven = if F::ACTIVE {
                faults.on_output(self.exec.cycle, v) & WIDTH_MASK
            } else {
                v
            };
            output.write(self.exec.cycle, driven);
            self.exec.mmu.observe(driven);
        }
    }

    /// Execute one instruction.
    ///
    /// # Errors
    ///
    /// Same contract as [`XaccCore::step`](crate::sim::xacc::XaccCore::step).
    pub fn step<I, O>(&mut self, input: &mut I, output: &mut O) -> Result<StepEvent, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        self.step_with(input, output, &mut NoFaults)
    }

    /// [`step`](XlsCore::step) with a fault-injection hook.
    ///
    /// # Errors
    ///
    /// Same as [`XlsCore::step`].
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

    fn alu(&mut self, op: Op, a: u8, b: u8) -> u8 {
        let mask = WIDTH_MASK;
        match op {
            Op::Add => {
                let s = u16::from(a) + u16::from(b);
                self.flags.c = s > u16::from(mask);
                (s as u8) & mask
            }
            Op::Adc => {
                let s = u16::from(a) + u16::from(b) + u16::from(self.flags.c);
                self.flags.c = s > u16::from(mask);
                (s as u8) & mask
            }
            Op::Sub => {
                let (r, borrow) = sub4(a, b, 0);
                self.flags.c = !borrow;
                r
            }
            Op::Swb => {
                let (r, borrow) = sub4(a, b, u8::from(!self.flags.c));
                self.flags.c = !borrow;
                r
            }
            Op::And => a & b & mask,
            Op::Or => (a | b) & mask,
            Op::Xor => (a ^ b) & mask,
            Op::Nand => !(a & b) & mask,
            Op::Mov => b & mask,
            Op::Neg => {
                let (r, borrow) = sub4(0, a, 0);
                self.flags.c = !borrow;
                r
            }
            Op::Asr => {
                let amount = u32::from(b & 7);
                let sign = a & 0x8 != 0;
                if amount == 0 {
                    a
                } else if amount >= WIDTH {
                    self.flags.c = false;
                    if sign {
                        mask
                    } else {
                        0
                    }
                } else {
                    self.flags.c = (a >> (amount - 1)) & 1 != 0;
                    let mut v = a >> amount;
                    if sign {
                        v |= (mask << (WIDTH - amount)) & mask;
                    }
                    v & mask
                }
            }
            Op::Lsr => {
                let amount = u32::from(b & 7);
                if amount == 0 {
                    a
                } else if amount >= WIDTH {
                    self.flags.c = false;
                    0
                } else {
                    self.flags.c = (a >> (amount - 1)) & 1 != 0;
                    (a >> amount) & mask
                }
            }
            Op::MulL => a.wrapping_mul(b) & mask,
            Op::MulH => ((u16::from(a) * u16::from(b)) >> WIDTH) as u8 & mask,
        }
    }

    /// Run until the halt idiom or until `max_steps` instructions retire.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`XlsCore::step`].
    pub fn run<I, O>(
        &mut self,
        input: &mut I,
        output: &mut O,
        max_steps: u64,
    ) -> Result<RunResult, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        self.run_with(input, output, max_steps, &mut NoFaults)
    }

    /// [`run`](XlsCore::run) with a fault-injection hook. State faults
    /// are applied once before the first fetch (a stuck power-on bit)
    /// and after every retired instruction.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`XlsCore::step_with`].
    pub fn run_with<I, O, F>(
        &mut self,
        input: &mut I,
        output: &mut O,
        max_steps: u64,
        faults: &mut F,
    ) -> Result<RunResult, SimError>
    where
        I: InputPort,
        O: OutputPort,
        F: FaultHook,
    {
        Engine::with_faults(&mut *self, faults).run(input, output, max_steps)
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
                    Operand::Reg(rs) => self.read_reg(rs, input, faults),
                    Operand::Imm(v) => (sign_extend(v, 4) as u8) & WIDTH_MASK,
                };
                let a = self.read_reg(rd, input, faults);
                let result = self.alu(op, a, b);
                self.flags.set_nzp(result);
                self.write_reg(rd, result, output, faults);
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

fn sub4(a: u8, b: u8, borrow_in: u8) -> (u8, bool) {
    let lhs = i16::from(a & 0xF);
    let rhs = i16::from(b & 0xF) + i16::from(borrow_in);
    ((lhs - rhs) as u8 & 0xF, lhs < rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ConstInput, NullOutput, RecordingOutput};
    use crate::isa::xacc::Cond;
    use crate::isa::xls::Instruction as I;

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
        assert!(core.is_halted());
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
