//! Functional simulator for the extended accumulator ISA (§6).
//!
//! The simulator is parameterized by a [`FeatureSet`]; executing an
//! instruction whose feature is not enabled raises
//! [`SimError::IllegalInstruction`], exactly as a core synthesized without
//! that hardware would fail to decode it. With an empty feature set the
//! machine is architecturally the base FlexiCore4 (re-encoded).
//!
//! Beyond FlexiCore4's state, the extended machine carries a carry flag
//! (for `ADC`/`SWB` data coalescing) and, when
//! [`Feature::Subroutines`](crate::isa::features::Feature::Subroutines) is
//! enabled, a single return-address register (8 flip-flops, §6.1 — calls do
//! not nest).
//!
//! At the ISA level each instruction costs one "cycle"; the
//! [`uarch`](crate::uarch) module turns retired-instruction, fetched-byte
//! and taken-branch counts into clock cycles for a concrete
//! microarchitecture and program-bus width.
//!
//! The step/run loop lives in [`crate::exec`]; this module
//! contributes only the extended-accumulator decode/execute semantics via
//! the [`Core`] trait, whose provided methods drive it.

use crate::error::SimError;
use crate::exec::{Core, ExecState, Flow, Snapshot, PC_MASK};
use crate::io::{InputPort, OutputPort};
use crate::isa::features::FeatureSet;
use crate::isa::sign_extend;
use crate::isa::xacc::Instruction;
use crate::isa::xls::Operand;
use crate::program::Program;
use crate::sim::fault::{ArchState, FaultHook};
use crate::sim::{read_cell, write_cell};

const WIDTH: u32 = 4;
const WIDTH_MASK: u8 = 0xF;
const MEM_WORDS: usize = 8;

/// An extended-accumulator core with a given feature configuration.
#[derive(Debug, Clone)]
pub struct XaccCore {
    features: FeatureSet,
    exec: ExecState,
    acc: u8,
    carry: bool,
    ra: u8,
    mem: [u8; MEM_WORDS],
}

impl XaccCore {
    /// A core with `features` enabled and `program` loaded.
    #[must_use]
    pub fn new(features: FeatureSet, program: Program) -> Self {
        XaccCore {
            features,
            exec: ExecState::new(program),
            acc: 0,
            carry: false,
            ra: 0,
            mem: [0; MEM_WORDS],
        }
    }

    /// Reset architectural state, keeping program and features.
    pub fn reset(&mut self) {
        let features = self.features;
        let program = core::mem::take(&mut self.exec.program);
        *self = XaccCore::new(features, program);
    }

    /// The enabled feature set.
    #[must_use]
    pub fn features(&self) -> FeatureSet {
        self.features
    }

    /// Current accumulator value.
    #[must_use]
    pub fn acc(&self) -> u8 {
        self.acc
    }

    /// Current carry flag.
    #[must_use]
    pub fn carry(&self) -> bool {
        self.carry
    }

    /// The data-memory word at `addr`, or `None` when `addr >= 8`.
    #[must_use]
    pub fn mem(&self, addr: u8) -> Option<u8> {
        self.mem.get(usize::from(addr)).copied()
    }

    #[inline]
    fn read<I: InputPort, F: FaultHook>(&self, m: u8, input: &mut I, faults: &mut F) -> u8 {
        read_cell(&self.exec, &self.mem, m, WIDTH_MASK, input, faults)
    }
}

impl Core for XaccCore {
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
        if !insn.is_legal(self.features) {
            return Err(SimError::IllegalInstruction {
                raw: u16::from(window[0]),
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
        if let Some((op, operand)) = insn.alu() {
            let b = match operand {
                Operand::Reg(m) => self.read(m, input, faults),
                Operand::Imm(imm) => sign_extend(imm, 4) as u8,
            };
            (self.acc, self.carry) = op.apply(self.acc, b, self.carry);
            return Flow::Sequential;
        }
        match insn {
            Instruction::Xch { m } | Instruction::Store { m } => {
                let old = self.acc;
                if matches!(insn, Instruction::Xch { .. }) {
                    self.acc = self.read(m, input, faults);
                }
                let cells = &mut self.mem;
                write_cell(&mut self.exec, cells, m, old, WIDTH_MASK, output, faults);
            }
            Instruction::Br { cond, target } if cond.taken(self.acc, WIDTH) => {
                return Flow::Jump { target };
            }
            Instruction::Call { target } => {
                self.ra = (self.exec.pc + 2) & PC_MASK;
                return Flow::Jump { target };
            }
            Instruction::Ret => {
                return Flow::Jump { target: self.ra };
            }
            // untaken branches, and the ALU instructions executed above
            _ => {}
        }
        Flow::Sequential
    }

    #[inline]
    fn budget_spent(state: &ExecState) -> u64 {
        state.instructions
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
        snap.ra = self.ra;
        snap.flags = u8::from(self.carry);
        snap.mem = self.mem.to_vec();
    }

    fn load_arch(&mut self, snap: &Snapshot) {
        self.acc = snap.acc;
        self.ra = snap.ra;
        self.carry = snap.flags & 1 != 0;
        self.mem.copy_from_slice(&snap.mem);
    }

    fn same_regs(&self, snap: &Snapshot) -> bool {
        self.acc == snap.acc
            && self.ra == snap.ra
            && u8::from(self.carry) == snap.flags
            && self.mem[..] == snap.mem[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ConstInput, NullOutput, RecordingOutput};
    use crate::isa::features::Feature;
    use crate::isa::xacc::{Cond, Instruction as I};
    use crate::sim::RunResult;

    fn assemble(insns: &[I]) -> Program {
        let mut bytes = Vec::new();
        for i in insns {
            i.encode_into(&mut bytes);
        }
        Program::from_bytes(bytes)
    }

    fn run_with(
        features: FeatureSet,
        insns: &[I],
        input: u8,
    ) -> (XaccCore, RunResult, RecordingOutput) {
        let mut core = XaccCore::new(features, assemble(insns));
        let mut inp = ConstInput::new(input);
        let mut out = RecordingOutput::new();
        let r = core.run(&mut inp, &mut out, 10_000).expect("run");
        (core, r, out)
    }

    /// Unconditional branch-to-self for BranchFlags configs; `at` is the
    /// byte address of this (two-byte) instruction.
    fn halt(at: u8) -> I {
        I::Br {
            cond: Cond::ALWAYS,
            target: at,
        }
    }

    #[test]
    fn adc_chains_carry_for_multinibble_addition() {
        let f = FeatureSet::revised();
        // low-nibble ADD overflows; ADC on the next nibble consumes the carry
        let prog = [
            I::AddImm { imm: 3 },  // acc = 3, carry 0             @0
            I::Store { m: 2 },     // r2 = 3                       @1
            I::NandImm { imm: 0 }, // acc = 0xF                    @2
            I::Add { m: 2 },       // 0xF + 3 = 0x12 -> 2, carry 1 @3
            I::Store { m: 3 },     //                              @4
            I::AdcImm { imm: 4 },  // 2 + 4 + 1 = 7, carry 0       @5
            I::Store { m: 4 },     //                              @6
            halt(7),
        ];
        let (core, r, _) = run_with(f, &prog, 0);
        assert!(r.halted());
        assert_eq!(core.mem(3), Some(2));
        assert_eq!(core.mem(4), Some(7));
        assert!(!core.carry());
    }

    #[test]
    fn sub_sets_borrow_free_carry() {
        let f = FeatureSet::revised();
        let prog = [
            I::AddImm { imm: 2 }, // acc = 2          @0
            I::Store { m: 2 },    // r2 = 2           @1
            I::AddImm { imm: 1 }, // acc = 3          @2
            I::Sub { m: 2 },      // 3 - 2 = 1, carry @3
            I::Store { m: 3 },    //                  @4
            halt(5),
        ];
        let (core, _, _) = run_with(f, &prog, 0);
        assert_eq!(core.mem(3), Some(1));
        assert!(core.carry());

        let prog = [
            I::AddImm { imm: 3 },   // acc = 3                        @0
            I::Store { m: 2 },      // r2 = 3                         @1
            I::AddImm { imm: 0xF }, // 3 - 1 = 2                      @2
            I::Sub { m: 2 },        // 2 - 3 = 0xF, borrow: carry clr @3
            I::Store { m: 3 },      //                                @4
            halt(5),
        ];
        let (core, _, _) = run_with(f, &prog, 0);
        assert_eq!(core.mem(3), Some(0xF));
        assert!(!core.carry());
    }

    #[test]
    fn swb_consumes_borrow() {
        let f = FeatureSet::revised();
        // 16-bit style subtraction: low nibble borrows, SWB consumes it on
        // the high nibble. Load the high nibble from memory prepared before
        // the subtraction (an ADD would clobber the borrow).
        let prog = [
            I::AddImm { imm: 2 },   // acc = 2                       @0
            I::Store { m: 4 },      // r4 = 2 (high of minuend)      @1
            I::AddImm { imm: 1 },   // acc = 3                       @2
            I::Store { m: 2 },      // r2 = 3 (low of subtrahend)    @3
            I::AddImm { imm: 1 },   // acc = 4                       @4
            I::Store { m: 5 },      // r5 = 4 (high of subtrahend)   @5
            I::AddImm { imm: 0xF }, // acc = 3  (4 - 1)              @6
            I::Sub { m: 5 },        // 3 - 4 = 0xF, borrow           @7
            I::Load { m: 4 },       // acc = 2 (logic: carry kept)   @8
            I::Swb { m: 2 },        // 2 - 3 - 1 = 0xE, borrow       @9
            I::Store { m: 6 },      //                               @10
            halt(11),
        ];
        let (core, _, _) = run_with(f, &prog, 0);
        assert_eq!(core.mem(6), Some(0xE));
        assert!(!core.carry());
    }

    #[test]
    fn shifts_behave_and_set_carry() {
        let f = FeatureSet::revised();
        let prog = [
            I::AddImm { imm: 3 },    // 0b0011 @0
            I::LsrImm { amount: 1 }, // 0b0001 carry 1 @1
            I::Store { m: 2 },       // @2
            halt(3),
        ];
        let (core, _, _) = run_with(f, &prog, 0);
        assert_eq!(core.mem(2), Some(1));
        assert!(core.carry());

        // asr keeps the sign: 0b1010 >> 1 (arith) = 0b1101
        let prog = [
            I::NandImm { imm: 0 },   // 0xF @0
            I::AddImm { imm: 4 },    // 0xF - 4 = 0xB @1
            I::AddImm { imm: 7 },    // 0xB - 1 = 0xA @2
            I::AsrImm { amount: 1 }, // 0xD, carry 0 @3
            I::Store { m: 2 },       // @4
            halt(5),
        ];
        let (core, _, _) = run_with(f, &prog, 0);
        assert_eq!(core.mem(2), Some(0xD));
        assert!(!core.carry());
    }

    #[test]
    fn shift_by_width_or_more_saturates() {
        let f = FeatureSet::revised();
        let prog = [
            I::NandImm { imm: 0 },   // acc = 0xF (negative) @0
            I::AsrImm { amount: 6 }, // sign-fill: 0xF @1
            I::Store { m: 2 },       // @2
            I::NandImm { imm: 0 },   // acc = 0xF @3
            I::LsrImm { amount: 7 }, // 0 @4
            I::Store { m: 3 },       // @5
            I::NandImm { imm: 0 },   // @6
            halt(7),
        ];
        let (core, _, _) = run_with(f, &prog, 0);
        assert_eq!(core.mem(2), Some(0xF));
        assert_eq!(core.mem(3), Some(0));
    }

    #[test]
    fn branch_flags_conditions() {
        let f = FeatureSet::only(Feature::BranchFlags);
        // acc = 0 -> br.z taken, skipping the two addi
        let prog = [
            I::Br {
                cond: Cond::Z,
                target: 4,
            }, // @0-1
            I::AddImm { imm: 1 }, // @2 skipped
            I::AddImm { imm: 1 }, // @3 skipped
            I::Store { m: 2 },    // @4: r2 = 0
            halt(5),
        ];
        let (core, r, _) = run_with(f, &prog, 0);
        assert_eq!(core.mem(2), Some(0));
        assert_eq!(r.taken_branches, 2); // the br.z and the halt spin
    }

    #[test]
    fn call_and_ret() {
        let f = FeatureSet::revised();
        let prog = [
            I::Call { target: 5 }, // @0-1
            I::Store { m: 2 },     // @2 (return lands here)
            halt(3),               // @3-4
            I::AddImm { imm: 2 },  // @5 subroutine body
            I::Ret,                // @6
        ];
        let (core, r, _) = run_with(f, &prog, 0);
        assert!(r.halted());
        assert_eq!(core.mem(2), Some(2));
    }

    #[test]
    fn xch_swaps_acc_and_memory() {
        let f = FeatureSet::revised();
        let prog = [
            I::AddImm { imm: 3 }, // @0 acc = 3
            I::Store { m: 2 },    // @1 r2 = 3
            I::AddImm { imm: 2 }, // @2 acc = 5
            I::Xch { m: 2 },      // @3 acc = 3, r2 = 5
            I::Store { m: 3 },    // @4 r3 = 3
            halt(5),
        ];
        let (core, _, _) = run_with(f, &prog, 0);
        assert_eq!(core.mem(2), Some(5));
        assert_eq!(core.mem(3), Some(3));
    }

    #[test]
    fn multiplier_low_and_high() {
        let f = FeatureSet::only(Feature::Multiplier).with(Feature::BranchFlags);
        // 6 * 7 = 42 = 0x2A: mull -> 0xA, mulh -> 0x2
        let prog = [
            I::AddImm { imm: 7 },   // 7  @0
            I::Store { m: 2 },      // r2 = 7 @1
            I::AddImm { imm: 0xF }, // 6  @2
            I::Store { m: 3 },      // r3 = 6 @3
            I::MulL { m: 2 },       // 6*7 low = 0xA @4
            I::Store { m: 4 },      // @5
            I::Load { m: 3 },       // 6 @6
            I::MulH { m: 2 },       // high = 2 @7
            I::Store { m: 5 },      // @8
            halt(9),
        ];
        let (core, _, _) = run_with(f, &prog, 0);
        assert_eq!(core.mem(4), Some(0xA));
        assert_eq!(core.mem(5), Some(0x2));
    }

    #[test]
    fn feature_violation_is_illegal_instruction() {
        let base = FeatureSet::BASE;
        let prog = assemble(&[I::Adc { m: 2 }]);
        let mut core = XaccCore::new(base, prog);
        let err = core
            .step(&mut ConstInput::new(0), &mut NullOutput::new())
            .unwrap_err();
        assert!(matches!(err, SimError::IllegalInstruction { .. }));
    }

    #[test]
    fn base_config_matches_fc4_semantics() {
        // the same logical program on Fc4Core and base XaccCore produces the
        // same memory state
        use crate::isa::fc4::Instruction as F;
        use crate::sim::fc4::Fc4Core;

        let fc4 = [
            F::Load { addr: 0 },
            F::AddImm { imm: 3 },
            F::Store { addr: 2 },
            F::NandImm { imm: 0 },
            F::Branch { target: 4 },
        ];
        let xac = [
            I::Load { m: 0 },      // @0
            I::AddImm { imm: 3 },  // @1
            I::Store { m: 2 },     // @2
            I::NandImm { imm: 0 }, // @3
            I::Br {
                cond: Cond::N,
                target: 4,
            }, // @4-5
        ];
        let mut a = Fc4Core::new(Program::from_bytes(
            fc4.iter().flat_map(|i| i.encode()).collect(),
        ));
        a.run(&mut ConstInput::new(9), &mut NullOutput::new(), 100)
            .unwrap();
        let (b, r, _) = run_with(FeatureSet::BASE, &xac, 9);
        assert!(r.halted());
        assert_eq!(a.mem(2), b.mem(2));
        assert_eq!(a.mem(2), Some(0xC));
    }

    #[test]
    fn neg_negates() {
        let f = FeatureSet::revised();
        let prog = [
            I::AddImm { imm: 3 }, // @0
            I::Neg,               // @1 acc = 0xD
            I::Store { m: 2 },    // @2
            halt(3),
        ];
        let (core, _, _) = run_with(f, &prog, 0);
        assert_eq!(core.mem(2), Some(0xD));
        assert!(!core.carry(), "3 > 0 so 0-3 borrows");
    }

    #[test]
    fn fetched_bytes_counts_two_byte_branches() {
        let f = FeatureSet::revised();
        let prog = [
            I::AddImm { imm: 1 }, // 1 byte
            halt(1),              // 2 bytes, spins once then halts
        ];
        let (_, r, _) = run_with(f, &prog, 0);
        assert_eq!(r.instructions, 2);
        assert_eq!(r.fetched_bytes, 3);
    }
}
