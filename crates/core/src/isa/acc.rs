//! The one accumulator instruction set: FlexiCore4, FlexiCore8 and the
//! extended accumulator of the design-space exploration (§6) all run
//! [`Instruction`].
//!
//! The paper's §6 grows the fabricated FlexiCore4 ISA with extensions
//! (ADC/SUB, shifts, nzp branches, XCH, CALL/RET, MUL) on the same
//! accumulator datapath; FlexiCore8 is FlexiCore4 at eight bits plus
//! `LOAD BYTE`. So one enum holds every accumulator instruction, and
//! [`Instruction::required_feature`] names the extension each needs
//! beyond the base ISA. Only the binary encodings differ, and exactly
//! two exist beside the enum:
//!
//! * [`fc4`] — the fabricated encoding of Figure 2, at
//!   datapath width 4 (FlexiCore4) or 8 (FlexiCore8, which adds
//!   `LOAD BYTE`); it encodes the base ISA only;
//! * [`xacc`] — the compact DSE encoding of every
//!   extension, which has no `LOAD BYTE`.
//!
//! The methods that need an encoding ([`Instruction::decode`],
//! [`Instruction::encode_into`], [`Instruction::len`]) take the
//! accumulator [`Dialect`] that picks it, and a [`DialectInsn`] carries
//! an instruction together with its dialect. The listings differ too: the fabricated one prints
//! `nandi`/`xori` immediates as raw hex nibbles and the base branch as
//! `br`, where the DSE listing prints signed immediates and `br.n`.

use crate::error::DecodeError;
use crate::isa::features::{Feature, FeatureSet};
use crate::isa::xls::{Op, Operand};
use crate::isa::{fc4, sign_extend, xacc, Dialect};

/// Branch condition mask: any subset of negative / zero / positive.
///
/// The base FlexiCore branch corresponds to [`Cond::N`]; the
/// [`Feature::BranchFlags`] extension unlocks the remaining masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cond {
    bits: u8,
}

impl Cond {
    /// Branch if negative (the base FlexiCore condition).
    pub const N: Cond = Cond { bits: 0b100 };
    /// Branch if zero.
    pub const Z: Cond = Cond { bits: 0b010 };
    /// Branch if positive (non-zero, non-negative).
    pub const P: Cond = Cond { bits: 0b001 };
    /// Branch always.
    pub const ALWAYS: Cond = Cond { bits: 0b111 };
    /// Branch never (legal encoding; effectively a two-byte no-op).
    pub const NEVER: Cond = Cond { bits: 0b000 };
    /// Branch if not zero.
    pub const NZ: Cond = Cond { bits: 0b101 };
    /// Branch if zero or negative (less-or-equal-zero).
    pub const LE: Cond = Cond { bits: 0b110 };
    /// Branch if zero or positive (greater-or-equal-zero).
    pub const GE: Cond = Cond { bits: 0b011 };

    /// Build from a raw 3-bit `nzp` mask.
    #[must_use]
    pub fn from_bits(bits: u8) -> Cond {
        Cond { bits: bits & 0b111 }
    }

    /// The raw 3-bit `nzp` mask.
    #[must_use]
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// Evaluate against an accumulator value of the given bit width:
    /// taken when the mask holds the value's one class — negative, zero
    /// or positive.
    #[must_use]
    #[inline]
    pub fn taken(self, acc: u8, width: u32) -> bool {
        let v = acc & ((1u16 << width) - 1) as u8;
        let class = if v >> (width - 1) != 0 {
            Cond::N.bits
        } else if v == 0 {
            Cond::Z.bits
        } else {
            Cond::P.bits
        };
        self.bits & class != 0
    }
}

impl core::fmt::Display for Cond {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self.bits {
            0b000 => "never",
            0b001 => "p",
            0b010 => "z",
            0b011 => "zp",
            0b100 => "n",
            0b101 => "np",
            0b110 => "nz",
            _ => "always",
        };
        f.write_str(s)
    }
}

/// A decoded accumulator instruction, of any accumulator dialect.
///
/// The nine FlexiCore4 operations of Figure 2a are `Add`, `Nand`, `Xor`,
/// `Load`, `Store`, `AddImm`, `NandImm`, `XorImm` and `Br` with
/// [`Cond::N`]; FlexiCore8 adds `LoadByte`. Everything else is a §6
/// extension, gated by [`Instruction::required_feature`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// `ACC += MEM[m]`; sets carry.
    Add {
        /// Memory address.
        m: u8,
    },
    /// `ACC += MEM[m] + C`; sets carry. Requires [`Feature::AddWithCarry`].
    Adc {
        /// Memory address.
        m: u8,
    },
    /// `ACC -= MEM[m]`; sets carry (borrow-free flag, 6502 style).
    /// Requires [`Feature::AddWithCarry`].
    Sub {
        /// Memory address.
        m: u8,
    },
    /// `ACC -= MEM[m] + !C`; sets carry. Requires [`Feature::AddWithCarry`].
    Swb {
        /// Memory address.
        m: u8,
    },
    /// `ACC = !(ACC & MEM[m])` — retained base operation.
    Nand {
        /// Memory address.
        m: u8,
    },
    /// `ACC |= MEM[m]`. Requires [`Feature::AddWithCarry`] (extended ALU).
    Or {
        /// Memory address.
        m: u8,
    },
    /// `ACC ^= MEM[m]`.
    Xor {
        /// Memory address.
        m: u8,
    },
    /// Exchange `ACC` and `MEM[m]`. Requires [`Feature::AccExchange`].
    Xch {
        /// Memory address.
        m: u8,
    },
    /// `ACC = MEM[m]` (reading address 0 samples the input bus).
    Load {
        /// Memory address.
        m: u8,
    },
    /// `MEM[m] = ACC` (writing address 1 drives the output bus).
    Store {
        /// Memory address.
        m: u8,
    },
    /// `ACC += sext(imm4)`; sets carry.
    AddImm {
        /// Raw 4-bit immediate, sign-extended to the datapath before use.
        imm: u8,
    },
    /// `ACC = !(ACC & sext(imm4))`.
    NandImm {
        /// Raw 4-bit immediate.
        imm: u8,
    },
    /// `ACC |= sext(imm4)`. Requires [`Feature::AddWithCarry`].
    OrImm {
        /// Raw 4-bit immediate.
        imm: u8,
    },
    /// `ACC ^= sext(imm4)`.
    XorImm {
        /// Raw 4-bit immediate.
        imm: u8,
    },
    /// Arithmetic shift right by `amount`; carry = last bit out (see
    /// [`Op::Asr`]). Requires [`Feature::BarrelShifter`].
    AsrImm {
        /// Shift amount 0..8.
        amount: u8,
    },
    /// Logical shift right by `amount`; carry = last bit out (see
    /// [`Op::Lsr`]). Requires [`Feature::BarrelShifter`].
    LsrImm {
        /// Shift amount 0..8.
        amount: u8,
    },
    /// `ACC += sext(imm4) + C`. Requires [`Feature::AddWithCarry`].
    AdcImm {
        /// Raw 4-bit immediate.
        imm: u8,
    },
    /// `ACC = -ACC`; sets carry like `SUB`. Requires
    /// [`Feature::AddWithCarry`].
    Neg,
    /// `ACC = low(ACC * MEM[m])`, `m < 4`. Requires [`Feature::Multiplier`].
    MulL {
        /// Memory address (0..4).
        m: u8,
    },
    /// `ACC = high(ACC * MEM[m])`, `m < 4`. Requires
    /// [`Feature::Multiplier`].
    MulH {
        /// Memory address (0..4).
        m: u8,
    },
    /// Conditional branch to a 7-bit in-page target. Masks other than
    /// [`Cond::N`] require [`Feature::BranchFlags`].
    Br {
        /// Condition mask.
        cond: Cond,
        /// 7-bit in-page target.
        target: u8,
    },
    /// Call: `RA = PC + 2; PC = target`. Requires [`Feature::Subroutines`].
    Call {
        /// 7-bit in-page target.
        target: u8,
    },
    /// Return: `PC = RA`. Requires [`Feature::Subroutines`].
    Ret,
    /// `ACC = imm` — FlexiCore8's two-byte `LOAD BYTE`.
    LoadByte {
        /// Full 8-bit immediate carried in the second byte.
        imm: u8,
    },
}

impl Instruction {
    /// The feature this instruction needs beyond the base ISA, if any.
    #[must_use]
    pub fn required_feature(self) -> Option<Feature> {
        match self {
            Instruction::Adc { .. }
            | Instruction::AdcImm { .. }
            | Instruction::Sub { .. }
            | Instruction::Swb { .. }
            | Instruction::Or { .. }
            | Instruction::OrImm { .. }
            | Instruction::Neg => Some(Feature::AddWithCarry),
            Instruction::AsrImm { .. } | Instruction::LsrImm { .. } => Some(Feature::BarrelShifter),
            Instruction::MulL { .. } | Instruction::MulH { .. } => Some(Feature::Multiplier),
            Instruction::Xch { .. } => Some(Feature::AccExchange),
            Instruction::Call { .. } | Instruction::Ret => Some(Feature::Subroutines),
            Instruction::Br { cond, .. } if cond != Cond::N => Some(Feature::BranchFlags),
            _ => None,
        }
    }

    /// Whether this instruction is legal under `features`.
    #[must_use]
    pub fn is_legal(self, features: FeatureSet) -> bool {
        self.required_feature().is_none_or(|f| features.contains(f))
    }

    /// The ALU operation this instruction applies to the accumulator,
    /// and its second operand: [`Operand::Reg`] names a memory word,
    /// [`Operand::Imm`] a 4-bit immediate (sign-extended; a shift amount
    /// is at most 7, so it reads unchanged). `LOAD` is a `MOV` of its
    /// word. `None` for `XCH`, `STORE`, `LOAD BYTE` and the control
    /// transfers, which bypass the ALU. The abstract transfer folds
    /// through this; the simulator's execute arms apply the same
    /// operations, each as a constant.
    #[must_use]
    #[inline]
    pub fn alu(self) -> Option<(Op, Operand)> {
        use Operand::{Imm, Reg};
        Some(match self {
            Instruction::Add { m } => (Op::Add, Reg(m)),
            Instruction::Adc { m } => (Op::Adc, Reg(m)),
            Instruction::Sub { m } => (Op::Sub, Reg(m)),
            Instruction::Swb { m } => (Op::Swb, Reg(m)),
            Instruction::Nand { m } => (Op::Nand, Reg(m)),
            Instruction::Or { m } => (Op::Or, Reg(m)),
            Instruction::Xor { m } => (Op::Xor, Reg(m)),
            Instruction::Load { m } => (Op::Mov, Reg(m)),
            Instruction::MulL { m } => (Op::MulL, Reg(m)),
            Instruction::MulH { m } => (Op::MulH, Reg(m)),
            Instruction::AddImm { imm } => (Op::Add, Imm(imm)),
            Instruction::AdcImm { imm } => (Op::Adc, Imm(imm)),
            Instruction::NandImm { imm } => (Op::Nand, Imm(imm)),
            Instruction::OrImm { imm } => (Op::Or, Imm(imm)),
            Instruction::XorImm { imm } => (Op::Xor, Imm(imm)),
            Instruction::AsrImm { amount } => (Op::Asr, Imm(amount)),
            Instruction::LsrImm { amount } => (Op::Lsr, Imm(amount)),
            Instruction::Neg => (Op::Neg, Imm(0)),
            Instruction::Xch { .. }
            | Instruction::Store { .. }
            | Instruction::Br { .. }
            | Instruction::Call { .. }
            | Instruction::Ret
            | Instruction::LoadByte { .. } => return None,
        })
    }

    /// Decode the instruction at the front of `bytes` in accumulator
    /// `dialect`'s encoding, returning it and its encoded length.
    ///
    /// # Errors
    ///
    /// The encoding's errors: see [`fc4::decode`] and [`xacc::decode`].
    #[inline]
    pub fn decode(bytes: &[u8], dialect: Dialect) -> Result<(Self, usize), DecodeError> {
        if dialect.is_fabricated() {
            fc4::decode(bytes, dialect.datapath_bits())
        } else {
            debug_assert_eq!(dialect, Dialect::ExtendedAcc, "an accumulator dialect");
            xacc::decode(bytes)
        }
    }

    /// Encoded size in bytes in accumulator `dialect`'s encoding.
    #[must_use]
    pub fn len(self, dialect: Dialect) -> usize {
        if dialect.is_fabricated() {
            fc4::len(self)
        } else {
            xacc::len(self)
        }
    }

    /// Append the encoding in accumulator `dialect` to `buf`, returning
    /// the number of bytes written.
    ///
    /// # Panics
    ///
    /// If the encoding has no form for this instruction: see
    /// [`fc4::encode_into`] and [`xacc::encode_into`].
    pub fn encode_into(self, dialect: Dialect, buf: &mut Vec<u8>) -> usize {
        if dialect.is_fabricated() {
            fc4::encode_into(self, buf)
        } else {
            xacc::encode_into(self, buf)
        }
    }

    /// Encode in accumulator `dialect` to a small byte vector.
    ///
    /// # Panics
    ///
    /// As [`Instruction::encode_into`].
    #[must_use]
    pub fn encode(self, dialect: Dialect) -> Vec<u8> {
        let mut v = Vec::with_capacity(2);
        self.encode_into(dialect, &mut v);
        v
    }

    /// The instruction in accumulator `dialect`.
    #[must_use]
    pub fn in_dialect(self, dialect: Dialect) -> DialectInsn {
        DialectInsn {
            insn: self,
            dialect,
        }
    }
}

/// The DSE listing: signed immediates, and the branch condition as a
/// suffix (`br.n`).
impl core::fmt::Display for Instruction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Instruction::Add { m } => write!(f, "add r{m}"),
            Instruction::Adc { m } => write!(f, "adc r{m}"),
            Instruction::Sub { m } => write!(f, "sub r{m}"),
            Instruction::Swb { m } => write!(f, "swb r{m}"),
            Instruction::Nand { m } => write!(f, "nand r{m}"),
            Instruction::Or { m } => write!(f, "or r{m}"),
            Instruction::Xor { m } => write!(f, "xor r{m}"),
            Instruction::Xch { m } => write!(f, "xch r{m}"),
            Instruction::Load { m } => write!(f, "load r{m}"),
            Instruction::Store { m } => write!(f, "store r{m}"),
            Instruction::AddImm { imm } => write!(f, "addi {}", sign_extend(imm, 4)),
            Instruction::NandImm { imm } => write!(f, "nandi {}", sign_extend(imm, 4)),
            Instruction::OrImm { imm } => write!(f, "ori {}", sign_extend(imm, 4)),
            Instruction::XorImm { imm } => write!(f, "xori {}", sign_extend(imm, 4)),
            Instruction::AsrImm { amount } => write!(f, "asri {amount}"),
            Instruction::LsrImm { amount } => write!(f, "lsri {amount}"),
            Instruction::AdcImm { imm } => write!(f, "adci {}", sign_extend(imm, 4)),
            Instruction::Neg => f.write_str("neg"),
            Instruction::MulL { m } => write!(f, "mull r{m}"),
            Instruction::MulH { m } => write!(f, "mulh r{m}"),
            Instruction::Br { cond, target } => write!(f, "br.{cond} {target:#04x}"),
            Instruction::Call { target } => write!(f, "call {target:#04x}"),
            Instruction::Ret => f.write_str("ret"),
            Instruction::LoadByte { imm } => write!(f, "ldb {imm:#04x}"),
        }
    }
}

/// An [`Instruction`] in one accumulator dialect
/// ([`Instruction::in_dialect`]): it encodes, sizes and displays itself
/// in that dialect's encoding and listing. The simulators decode to
/// this, and the assembler lowers to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DialectInsn {
    /// The instruction.
    pub insn: Instruction,
    /// The dialect that encodes and lists it.
    pub dialect: Dialect,
}

impl DialectInsn {
    /// Encoded size in bytes.
    #[must_use]
    pub fn len(self) -> usize {
        self.insn.len(self.dialect)
    }

    /// Append the encoding to `buf`, returning the number of bytes
    /// written.
    ///
    /// # Panics
    ///
    /// As [`Instruction::encode_into`].
    pub fn encode_into(self, buf: &mut Vec<u8>) -> usize {
        self.insn.encode_into(self.dialect, buf)
    }

    /// Always `false`; instructions occupy at least one byte.
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }
}

impl core::fmt::Display for DialectInsn {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Figure 2's listing: logic immediates as raw nibbles, and the
        // one branch condition left implicit
        if self.dialect.is_fabricated() {
            match self.insn {
                Instruction::NandImm { imm } => return write!(f, "nandi {imm:#x}"),
                Instruction::XorImm { imm } => return write!(f, "xori {imm:#x}"),
                Instruction::Br {
                    cond: Cond::N,
                    target,
                } => return write!(f, "br {target:#04x}"),
                _ => {}
            }
        }
        self.insn.fmt(f)
    }
}
