//! The one accumulator core: FlexiCore4, FlexiCore8 and the extended
//! accumulator of the design-space exploration (§6).
//!
//! [`AccCore`] models the architectural state of Figure 3 — a 7-bit
//! program counter, an accumulator and a 32-bit data memory whose
//! addresses 0 and 1 are the input and output buses — plus, on the
//! extended accumulator, a carry flag (for `ADC`/`SWB` data coalescing)
//! and a single return-address register (8 flip-flops, §6.1: calls do
//! not nest). The off-chip `Mmu` (see [`crate::mmu`]) is simulated
//! alongside, snooping the output port exactly as the external board
//! does (§5.1).
//!
//! All three dialects run the one [`Instruction`] set through one
//! execute body. The type parameter names the dialect
//! ([`AccDialect`]), and every fact that differs between them is a
//! constant derived from it, so each core monomorphises its own step
//! loop:
//!
//! * the datapath width (4 bits, or 8 on FlexiCore8) and the data-memory
//!   words (eight, or four octets on FlexiCore8);
//! * whether the carry flag and the link register exist (only on the
//!   extended accumulator; on the fabricated cores they stay 0, and so do
//!   `Snapshot::flags` and `Snapshot::ra`);
//! * the decoder and listing ([`Instruction::decode`],
//!   [`DialectInsn`]) and the fetch window: one byte on
//!   FlexiCore4, two where an instruction can take two;
//! * what an instruction costs: FlexiCore8's two-byte `LOAD BYTE` pays a
//!   clock cycle per fetch beat (the single stateful bit in FlexiCore8's
//!   controller, §3.4), while every extended-accumulator instruction
//!   costs one ISA-level "cycle" — the [`uarch`](crate::uarch) module
//!   turns retired-instruction, fetched-byte and taken-branch counts into
//!   clock cycles for a concrete microarchitecture and bus width;
//! * the watchdog budget: cycles on the fabricated cores, retired
//!   instructions on the extended accumulator.
//!
//! 4-bit immediates are sign-extended to the datapath, which on a 4-bit
//! core is the raw nibble arithmetic mod 16. The core carries a
//! [`FeatureSet`]: decoding an instruction whose feature is not enabled
//! raises [`SimError::IllegalInstruction`], exactly as a core synthesized
//! without that hardware would fail to decode it. The fabricated cores
//! carry [`FeatureSet::BASE`], under which everything their encoding
//! decodes is legal.
//!
//! The step/run loop lives in [`crate::exec`]; this module contributes
//! only the decode/execute semantics via the [`Core`] trait, whose
//! provided methods drive it.

use core::marker::PhantomData;
use std::sync::Arc;

use crate::error::{DecodeError, SimError};
use crate::exec::{predecode, Core, Decoded, ExecState, Flow, Progress, Snapshot, PC_MASK};
use crate::io::{InputPort, OutputPort};
use crate::isa::acc::{Cond, DialectInsn, Instruction};
use crate::isa::features::FeatureSet;
use crate::isa::xls::Op;
use crate::isa::{fc4, sign_extend, Dialect};
use crate::program::Program;
use crate::sim::fault::{ArchState, FaultHook};
use crate::sim::{read_cell, write_cell};

/// Names an accumulator dialect at the type level; [`AccCore`] derives
/// every per-dialect fact from [`AccDialect::DIALECT`].
pub trait AccDialect {
    /// The dialect.
    const DIALECT: Dialect;
}

/// A fabricated core of datapath width `W`: FlexiCore4 (`W = 4`) or
/// FlexiCore8 (`W = 8`).
#[derive(Debug, Clone, Copy)]
pub enum Fab<const W: u32> {}

impl<const W: u32> AccDialect for Fab<W> {
    const DIALECT: Dialect = if W == 8 { Dialect::Fc8 } else { Dialect::Fc4 };
}

/// The extended accumulator of the design-space exploration.
#[derive(Debug, Clone, Copy)]
pub enum Xacc {}

impl AccDialect for Xacc {
    const DIALECT: Dialect = Dialect::ExtendedAcc;
}

/// An accumulator core of dialect `D` plus its off-chip program memory
/// and MMU.
#[derive(Debug, Clone)]
pub struct AccCore<D> {
    features: FeatureSet,
    exec: ExecState,
    acc: u8,
    carry: bool,
    ra: u8,
    /// The data memory; FlexiCore8 uses the first four words.
    mem: [u8; 8],
    decoded: Arc<Decoded<DialectInsn>>,
    dialect: PhantomData<D>,
}

impl<D: AccDialect> AccCore<D> {
    const WIDTH: u32 = D::DIALECT.datapath_bits();
    const MASK: u8 = ((1u16 << Self::WIDTH) - 1) as u8;
    const WORDS: usize = D::DIALECT.mem_words() as usize;
    /// The carry flag and the link register exist.
    const EXTENDED: bool = !D::DIALECT.is_fabricated();
    /// The encoding has FlexiCore8's two-byte `LOAD BYTE`.
    const LOAD_BYTE: bool = fc4::has_load_byte(Self::WIDTH) && !Self::EXTENDED;
    /// A branch's encoded length: one byte on the fabricated cores, two
    /// on the extended accumulator (`isa::fc4::len`, `isa::xacc::len`).
    const BR_LEN: u8 = if Self::EXTENDED { 2 } else { 1 };

    /// A core with `features` enabled and `program` loaded, reset to
    /// power-on state.
    #[must_use]
    pub fn with_features(features: FeatureSet, program: Program) -> Self {
        let mut core = AccCore {
            features,
            exec: ExecState::new(program),
            acc: 0,
            carry: false,
            ra: 0,
            mem: [0; 8],
            decoded: Arc::default(),
            dialect: PhantomData,
        };
        core.decoded = predecode(&core);
        core
    }

    /// Reset architectural state, keeping program and features (this is
    /// what power-cycling a field-programmed chip does).
    pub fn reset(&mut self) {
        let program = core::mem::take(&mut self.exec.program);
        *self = AccCore::with_features(self.features, program);
    }

    /// Replace the external program memory and reset — *field
    /// reprogramming*.
    pub fn reprogram(&mut self, program: Program) {
        *self = AccCore::with_features(self.features, program);
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

    /// Current carry flag (always clear on the fabricated cores).
    #[must_use]
    pub fn carry(&self) -> bool {
        self.carry
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
    fn read<I: InputPort, F: FaultHook>(
        &self,
        addr: u8,
        cycle: u64,
        input: &mut I,
        faults: &mut F,
    ) -> u8 {
        read_cell(self.words(), addr, Self::MASK, cycle, input, faults)
    }

    /// `ACC = ACC op b` on the datapath; the carry is kept only where it
    /// exists.
    #[inline(always)]
    fn alu(&mut self, op: Op, b: u8) {
        let (acc, carry) = op.apply(self.acc, b, self.carry, Self::WIDTH);
        self.acc = acc;
        if Self::EXTENDED {
            self.carry = carry;
        }
    }

    #[inline(always)]
    fn store<O: OutputPort, F: FaultHook>(
        &mut self,
        m: u8,
        cycle: u64,
        output: &mut O,
        faults: &mut F,
    ) {
        let (cells, acc, mmu) = (&mut self.mem[..Self::WORDS], self.acc, &mut self.exec.mmu);
        write_cell(cells, m, acc, Self::MASK, cycle, mmu, output, faults);
    }

    /// The §6 extensions. The fabricated encodings decode none of
    /// them, so on FlexiCore4/8 this folds away and their step loops
    /// hold the base ISA only.
    #[inline(always)]
    fn execute_extension<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        insn: Instruction,
        pc: u8,
        cycle: u64,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Flow {
        use Instruction as I;
        if !Self::EXTENDED {
            return Flow::Sequential { len: 1 };
        }
        match insn {
            I::Adc { m } => self.alu(Op::Adc, self.read(m, cycle, input, faults)),
            I::Sub { m } => self.alu(Op::Sub, self.read(m, cycle, input, faults)),
            I::Swb { m } => self.alu(Op::Swb, self.read(m, cycle, input, faults)),
            I::Or { m } => self.alu(Op::Or, self.read(m, cycle, input, faults)),
            I::MulL { m } => self.alu(Op::MulL, self.read(m, cycle, input, faults)),
            I::MulH { m } => self.alu(Op::MulH, self.read(m, cycle, input, faults)),
            I::AdcImm { imm } => self.alu(Op::Adc, sext4(imm)),
            I::OrImm { imm } => self.alu(Op::Or, sext4(imm)),
            I::AsrImm { amount } => self.alu(Op::Asr, amount),
            I::LsrImm { amount } => self.alu(Op::Lsr, amount),
            I::Neg => self.alu(Op::Neg, 0),
            I::Xch { m } => {
                let loaded = self.read(m, cycle, input, faults);
                self.store(m, cycle, output, faults);
                self.acc = loaded;
            }
            I::Call { target } => {
                self.ra = (pc + 2) & PC_MASK;
                return Flow::Jump { len: 2, target };
            }
            I::Ret => {
                return Flow::Jump {
                    len: 1,
                    target: self.ra,
                }
            }
            // the base ISA, executed by `execute`, and FlexiCore8's
            // `LOAD BYTE`, which this encoding does not decode
            _ => {}
        }
        Flow::Sequential { len: 1 }
    }
}

/// A 4-bit immediate sign-extended to the datapath.
#[inline]
fn sext4(imm: u8) -> u8 {
    sign_extend(imm, 4) as u8
}

impl<D: AccDialect> Core for AccCore<D> {
    type Insn = DialectInsn;
    const FETCH_WINDOW: usize = if matches!(D::DIALECT, Dialect::Fc4) {
        1
    } else {
        2
    };

    #[inline]
    fn state(&self) -> &ExecState {
        &self.exec
    }

    #[inline]
    fn state_mut(&mut self) -> &mut ExecState {
        &mut self.exec
    }

    #[inline]
    fn decode(&self, window: &[u8], address: u32) -> Result<(DialectInsn, u8), SimError> {
        let (insn, len) = Instruction::decode(window, D::DIALECT).map_err(|e| match e {
            DecodeError::NeedsSecondByte { .. } => SimError::TruncatedInstruction { address },
            DecodeError::Illegal { raw } => SimError::IllegalInstruction { raw, address },
        })?;
        // the fabricated encoding decodes the base ISA only, which every
        // feature set allows
        if Self::EXTENDED && !insn.is_legal(self.features) {
            return Err(SimError::IllegalInstruction {
                raw: u16::from(window[0]),
                address,
            });
        }
        Ok((insn.in_dialect(D::DIALECT), len as u8))
    }

    #[inline]
    fn decoded(&self) -> &Arc<Decoded<DialectInsn>> {
        &self.decoded
    }

    // inlined into every copy of the engine's step, which runs it
    // once per simulated instruction
    #[inline(always)]
    fn execute<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        insn: DialectInsn,
        pc: u8,
        cycle: u64,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Flow {
        use Instruction as I;
        // one match, each arm with its ALU operation and its encoded
        // length constant, so every arm folds to its own datapath and
        // the next PC waits on the arm, not on a loaded length: on
        // FlexiCore4 every arm is one byte long
        match insn.insn {
            I::Add { m } => self.alu(Op::Add, self.read(m, cycle, input, faults)),
            I::Nand { m } => self.alu(Op::Nand, self.read(m, cycle, input, faults)),
            I::Xor { m } => self.alu(Op::Xor, self.read(m, cycle, input, faults)),
            I::Load { m } => self.alu(Op::Mov, self.read(m, cycle, input, faults)),
            I::AddImm { imm } => self.alu(Op::Add, sext4(imm)),
            I::NandImm { imm } => self.alu(Op::Nand, sext4(imm)),
            I::XorImm { imm } => self.alu(Op::Xor, sext4(imm)),
            // only FlexiCore8's encoding decodes it
            I::LoadByte { imm } if Self::LOAD_BYTE => {
                self.acc = imm & Self::MASK;
                return Flow::Sequential { len: 2 };
            }
            I::Store { m } => self.store(m, cycle, output, faults),
            I::Br { cond, target } => {
                // the fabricated encoding's one branch is `br.n`
                let cond = if Self::EXTENDED { cond } else { Cond::N };
                let len = Self::BR_LEN;
                return if cond.taken(self.acc, Self::WIDTH) {
                    Flow::Jump { len, target }
                } else {
                    Flow::Sequential { len }
                };
            }
            extension => {
                return self.execute_extension(extension, pc, cycle, input, output, faults)
            }
        }
        Flow::Sequential { len: 1 }
    }

    #[inline]
    fn insn_cycles(len: u8) -> u64 {
        if Self::EXTENDED {
            1
        } else {
            u64::from(len)
        }
    }

    #[inline]
    fn budget_spent(at: &Progress) -> u64 {
        if Self::EXTENDED {
            at.instructions
        } else {
            at.cycle
        }
    }

    #[inline]
    fn arch_state<'a>(&'a mut self, pc: &'a mut u8) -> ArchState<'a> {
        let (page, pending_page) = self.exec.mmu.fault_view();
        ArchState {
            pc,
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
        snap.ra = self.ra;
        snap.flags = u8::from(self.carry);
        snap.mem = self.words().to_vec();
    }

    fn load_arch(&mut self, snap: &Snapshot) {
        self.acc = snap.acc;
        if Self::EXTENDED {
            self.ra = snap.ra;
            self.carry = snap.flags & 1 != 0;
        }
        self.mem[..Self::WORDS].copy_from_slice(&snap.mem);
    }

    fn same_regs(&self, snap: &Snapshot) -> bool {
        self.acc == snap.acc
            && (!Self::EXTENDED || (self.ra == snap.ra && u8::from(self.carry) == snap.flags))
            && self.words() == &snap.mem[..]
    }
}
