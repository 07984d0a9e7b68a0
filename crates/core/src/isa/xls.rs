//! The two-operand load-store ISA of the design-space exploration (§6.2).
//!
//! The paper's DSE compares the accumulator model against a load-store
//! machine whose register file plays the role of the accumulator machine's
//! data memory. Instructions are **sixteen bits** — this is the crucial
//! property for Figure 13: with an 8-bit program bus the load-store machine
//! cannot fetch an instruction per cycle, ruling out its single-cycle and
//! two-stage-pipelined implementations.
//!
//! Encoding (one halfword, big-endian in the program image):
//!
//! ```text
//! ALU      [ op:5 | rd:3 | i:1 | rs:3 | imm:4 ]   rd = rd op (i ? sext(imm) : rs)
//! MOV      [ MOV  | rd:3 | i:1 | rs:3 | imm:4 ]   rd = (i ? sext(imm) : rs)
//! BR       [ BR   | nzp:3 | target:8 ]
//! CALL     [ CALL | 000  | target:8 ]
//! RET/NEG  [ op:5 | rd:3 | 0000000 0 ]
//! ```
//!
//! Registers `r0` and `r1` are memory-mapped IO, mirroring the accumulator
//! machines: reading `r0` samples the input bus, writing `r1` drives the
//! output bus. `r2`–`r7` are general purpose.
//!
//! All ALU operations and `MOV` update the `nzp` condition flags on the
//! value written to `rd`; branches test the flags register (unlike the
//! accumulator dialects, which test the accumulator directly).

use crate::error::DecodeError;
use crate::isa::acc::Cond;
use crate::isa::features::{Feature, FeatureSet};

/// Number of architectural registers (including the two IO-mapped ones).
pub const NUM_REGS: usize = 8;

/// The operations of the design-space-exploration ALU (§6.2).
///
/// Every dialect executes through this one datapath, [`Op::apply`]: the
/// load-store dialect names the operation in its encoding, and the
/// accumulator dialects map their ALU instructions onto it
/// ([`acc::Instruction::alu`]).
///
/// [`acc::Instruction::alu`]: crate::isa::acc::Instruction::alu
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `rd += operand`; sets carry.
    Add,
    /// `rd += operand + C`. Requires [`Feature::AddWithCarry`].
    Adc,
    /// `rd -= operand`.
    Sub,
    /// `rd -= operand + !C`. Requires [`Feature::AddWithCarry`].
    Swb,
    /// `rd &= operand`.
    And,
    /// `rd |= operand`.
    Or,
    /// `rd ^= operand`.
    Xor,
    /// `rd = !(rd & operand)` — kept for parity with the accumulator ISA.
    Nand,
    /// `rd = operand` (register move or load-immediate).
    Mov,
    /// `rd = -rd` (operand ignored).
    Neg,
    /// `rd >>= operand` arithmetic, by the operand's low three bits.
    /// Carry is the last bit shifted out: bit `amount - 1` for amounts
    /// 1–4, clear above four (only sign copies leave), unchanged by a
    /// shift of zero. Requires [`Feature::BarrelShifter`].
    Asr,
    /// `rd >>= operand` logical, with [`Op::Asr`]'s carry rule. Requires
    /// [`Feature::BarrelShifter`].
    Lsr,
    /// `rd = low(rd * operand)`. Requires [`Feature::Multiplier`].
    MulL,
    /// `rd = high(rd * operand)`. Requires [`Feature::Multiplier`].
    MulH,
}

impl Op {
    const ALL: [Op; 14] = [
        Op::Add,
        Op::Adc,
        Op::Sub,
        Op::Swb,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Nand,
        Op::Mov,
        Op::Neg,
        Op::Asr,
        Op::Lsr,
        Op::MulL,
        Op::MulH,
    ];

    fn code(self) -> u16 {
        Op::ALL
            .iter()
            .position(|o| *o == self)
            .expect("Op::ALL enumerates every Op variant") as u16
    }

    fn from_code(code: u16) -> Option<Op> {
        Op::ALL.get(code as usize).copied()
    }

    /// The feature this operation needs beyond the base dialect, if any.
    #[must_use]
    pub fn required_feature(self) -> Option<Feature> {
        match self {
            Op::Adc | Op::Swb => Some(Feature::AddWithCarry),
            Op::Asr | Op::Lsr => Some(Feature::BarrelShifter),
            Op::MulL | Op::MulH => Some(Feature::Multiplier),
            _ => None,
        }
    }

    /// Apply the operation at datapath `width` (1..=8 bits; 4 on the DSE
    /// dialects) to the first operand `a` (the accumulator or `rd`) and
    /// second operand `b`, with carry flag `carry` in. Returns the
    /// `width`-bit result and the carry flag after it.
    ///
    /// Additions set carry on carry-out and subtractions on no borrow
    /// (6502 style; `NEG` is `0 - a`), shifts follow [`Op::Asr`]'s rule,
    /// and every other operation leaves the carry as it was. `MOV`
    /// ignores `a`, `NEG` ignores `b`, and only `ADC`/`SWB` read `carry`.
    #[must_use]
    // inlined into each execute arm, where `self` and `width` are
    // constants and the match folds to one operation
    #[inline(always)]
    pub fn apply(self, a: u8, b: u8, carry: bool, width: u32) -> (u8, bool) {
        debug_assert!((1..=8).contains(&width));
        let mask = ((1u16 << width) - 1) as u8;
        let (a, b) = (a & mask, b & mask);
        let add = |b: u8, carry_in: bool| {
            let sum = u16::from(a) + u16::from(b) + u16::from(carry_in);
            (sum as u8 & mask, sum > u16::from(mask))
        };
        let sub = |lhs: u8, rhs: u8, borrow_in: bool| {
            let rhs = u16::from(rhs) + u16::from(borrow_in);
            (
                u16::from(lhs).wrapping_sub(rhs) as u8 & mask,
                u16::from(lhs) >= rhs,
            )
        };
        match self {
            Op::Add => add(b, false),
            Op::Adc => add(b, carry),
            Op::Sub => sub(a, b, false),
            Op::Swb => sub(a, b, !carry),
            Op::Neg => sub(0, a, false),
            Op::And => (a & b, carry),
            Op::Or => (a | b, carry),
            Op::Xor => (a ^ b, carry),
            Op::Nand => (!(a & b) & mask, carry),
            Op::Mov => (b, carry),
            Op::Asr | Op::Lsr => {
                let amount = u32::from(b & 7);
                if amount == 0 {
                    return (a, carry);
                }
                let fill = if self == Op::Asr && a >> (width - 1) != 0 {
                    mask
                } else {
                    0
                };
                let carry = amount <= width && (a >> (amount - 1)) & 1 != 0;
                if amount >= width {
                    (fill, carry)
                } else {
                    (((a >> amount) | (fill << (width - amount))) & mask, carry)
                }
            }
            Op::MulL => (a.wrapping_mul(b) & mask, carry),
            Op::MulH => (((u16::from(a) * u16::from(b)) >> width) as u8, carry),
        }
    }

    /// Lower-case mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Add => "add",
            Op::Adc => "adc",
            Op::Sub => "sub",
            Op::Swb => "swb",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Nand => "nand",
            Op::Mov => "mov",
            Op::Neg => "neg",
            Op::Asr => "asr",
            Op::Lsr => "lsr",
            Op::MulL => "mull",
            Op::MulH => "mulh",
        }
    }
}

const OP_BR: u16 = 28;
const OP_CALL: u16 = 29;
const OP_RET: u16 = 30;

/// The second operand of an ALU instruction: a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand.
    Reg(u8),
    /// 4-bit immediate, sign-extended before use.
    Imm(u8),
}

/// A decoded load-store instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Register/immediate ALU or move operation.
    Alu {
        /// Operation.
        op: Op,
        /// Destination (and first source) register.
        rd: u8,
        /// Second operand.
        operand: Operand,
    },
    /// Conditional branch; tests the flags register. Masks other than
    /// [`Cond::N`] require [`Feature::BranchFlags`].
    Br {
        /// Condition mask.
        cond: Cond,
        /// Instruction-index target (0..128).
        target: u8,
    },
    /// Call. Requires [`Feature::Subroutines`].
    Call {
        /// Instruction-index target.
        target: u8,
    },
    /// Return. Requires [`Feature::Subroutines`].
    Ret,
}

impl Instruction {
    /// Encoded size in bytes — always two.
    #[must_use]
    pub fn len(self) -> usize {
        2
    }

    /// Always `false`.
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }

    /// The feature this instruction needs beyond the base dialect, if any.
    #[must_use]
    pub fn required_feature(self) -> Option<Feature> {
        match self {
            Instruction::Alu { op, .. } => op.required_feature(),
            Instruction::Br { cond, .. } if cond != Cond::N => Some(Feature::BranchFlags),
            Instruction::Call { .. } | Instruction::Ret => Some(Feature::Subroutines),
            _ => None,
        }
    }

    /// Whether this instruction is legal under `features`.
    #[must_use]
    pub fn is_legal(self, features: FeatureSet) -> bool {
        self.required_feature().is_none_or(|f| features.contains(f))
    }

    /// Encode to a 16-bit halfword.
    ///
    /// `NEG` ignores its second operand; it is canonicalized to the
    /// immediate-zero form so every instruction has one encoding.
    #[must_use]
    pub fn encode(self) -> u16 {
        match self {
            Instruction::Alu { op, rd, operand } => {
                let operand = if op == Op::Neg {
                    Operand::Imm(0)
                } else {
                    operand
                };
                let (i, rs, imm) = match operand {
                    Operand::Reg(r) => (0u16, u16::from(r & 7), 0u16),
                    Operand::Imm(v) => (1u16, 0u16, u16::from(v & 0xF)),
                };
                (op.code() << 11) | (u16::from(rd & 7) << 8) | (i << 7) | (rs << 4) | imm
            }
            Instruction::Br { cond, target } => {
                (OP_BR << 11) | (u16::from(cond.bits()) << 8) | u16::from(target)
            }
            Instruction::Call { target } => (OP_CALL << 11) | u16::from(target),
            Instruction::Ret => OP_RET << 11,
        }
    }

    /// Encode into `buf` as two big-endian bytes; returns 2.
    pub fn encode_into(self, buf: &mut Vec<u8>) -> usize {
        let h = self.encode();
        buf.push((h >> 8) as u8);
        buf.push(h as u8);
        2
    }

    /// Decode a 16-bit halfword.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Illegal`] for reserved opcodes or reserved
    /// field patterns.
    pub fn decode(halfword: u16) -> Result<Self, DecodeError> {
        let opc = halfword >> 11;
        if let Some(op) = Op::from_code(opc) {
            let rd = ((halfword >> 8) & 7) as u8;
            let i = (halfword >> 7) & 1 != 0;
            let rs = ((halfword >> 4) & 7) as u8;
            let imm = (halfword & 0xF) as u8;
            if op == Op::Neg && (!i || rs != 0 || imm != 0) {
                // only the canonical operand-less form is legal
                return Err(DecodeError::Illegal { raw: halfword });
            }
            let operand = if i {
                if rs != 0 {
                    return Err(DecodeError::Illegal { raw: halfword });
                }
                Operand::Imm(imm)
            } else {
                if imm != 0 {
                    return Err(DecodeError::Illegal { raw: halfword });
                }
                Operand::Reg(rs)
            };
            return Ok(Instruction::Alu { op, rd, operand });
        }
        match opc {
            OP_BR => Ok(Instruction::Br {
                cond: Cond::from_bits(((halfword >> 8) & 7) as u8),
                target: (halfword & 0xFF) as u8,
            }),
            OP_CALL => {
                if halfword & 0x0700 != 0 {
                    return Err(DecodeError::Illegal { raw: halfword });
                }
                Ok(Instruction::Call {
                    target: (halfword & 0xFF) as u8,
                })
            }
            OP_RET => {
                if halfword & 0x07FF != 0 {
                    return Err(DecodeError::Illegal { raw: halfword });
                }
                Ok(Instruction::Ret)
            }
            _ => Err(DecodeError::Illegal { raw: halfword }),
        }
    }

    /// Decode from the front of a big-endian byte stream.
    ///
    /// # Errors
    ///
    /// [`DecodeError::NeedsSecondByte`] if only one byte is available, or
    /// any error from [`Instruction::decode`].
    pub fn decode_bytes(bytes: &[u8]) -> Result<(Self, usize), DecodeError> {
        let hi = *bytes.first().ok_or(DecodeError::Illegal { raw: 0 })?;
        let lo = *bytes
            .get(1)
            .ok_or(DecodeError::NeedsSecondByte { raw: hi })?;
        let h = (u16::from(hi) << 8) | u16::from(lo);
        Instruction::decode(h).map(|i| (i, 2))
    }
}

impl core::fmt::Display for Instruction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Instruction::Alu { op, rd, operand } => {
                if op == Op::Neg {
                    return write!(f, "neg r{rd}");
                }
                match operand {
                    Operand::Reg(rs) => write!(f, "{} r{rd}, r{rs}", op.mnemonic()),
                    Operand::Imm(v) => {
                        write!(
                            f,
                            "{}i r{rd}, {}",
                            op.mnemonic(),
                            crate::isa::sign_extend(v, 4)
                        )
                    }
                }
            }
            Instruction::Br { cond, target } => write!(f, "br.{cond} {target:#04x}"),
            Instruction::Call { target } => write!(f, "call {target:#04x}"),
            Instruction::Ret => f.write_str("ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Instruction> {
        let mut v = vec![Instruction::Ret];
        for op in Op::ALL {
            for rd in 0..8 {
                if op == Op::Neg {
                    v.push(Instruction::Alu {
                        op,
                        rd,
                        operand: Operand::Imm(0),
                    });
                    continue;
                }
                v.push(Instruction::Alu {
                    op,
                    rd,
                    operand: Operand::Reg((rd + 1) & 7),
                });
                v.push(Instruction::Alu {
                    op,
                    rd,
                    operand: Operand::Imm(0xD),
                });
            }
        }
        for c in 0..8 {
            v.push(Instruction::Br {
                cond: Cond::from_bits(c),
                target: 0x42,
            });
        }
        v.push(Instruction::Call { target: 0x7F });
        v
    }

    #[test]
    fn roundtrip_all_samples() {
        for insn in samples() {
            let h = insn.encode();
            assert_eq!(Instruction::decode(h), Ok(insn), "halfword={h:#06x}");
            let mut bytes = Vec::new();
            insn.encode_into(&mut bytes);
            let (d, n) = Instruction::decode_bytes(&bytes).unwrap();
            assert_eq!((d, n), (insn, 2));
        }
    }

    #[test]
    fn all_instructions_sixteen_bits() {
        for insn in samples() {
            assert_eq!(insn.len(), 2);
        }
    }

    #[test]
    fn reserved_opcodes_rejected() {
        for opc in [14u16, 20, 27, 31] {
            assert!(Instruction::decode(opc << 11).is_err(), "opcode {opc}");
        }
    }

    #[test]
    fn noncanonical_operand_fields_rejected() {
        // imm form with rs != 0
        let h = (Op::Add.code() << 11) | (1 << 7) | (3 << 4) | 5;
        assert!(Instruction::decode(h).is_err());
        // reg form with imm != 0
        let h = (Op::Add.code() << 11) | (3 << 4) | 5;
        assert!(Instruction::decode(h).is_err());
    }

    #[test]
    fn feature_gating() {
        let base = FeatureSet::BASE;
        let add = Instruction::Alu {
            op: Op::Add,
            rd: 2,
            operand: Operand::Reg(3),
        };
        assert!(add.is_legal(base));
        let adc = Instruction::Alu {
            op: Op::Adc,
            rd: 2,
            operand: Operand::Reg(3),
        };
        assert!(!adc.is_legal(base));
        assert!(adc.is_legal(FeatureSet::revised()));
        assert!(!Instruction::Ret.is_legal(base));
    }

    #[test]
    fn display_forms() {
        let i = Instruction::Alu {
            op: Op::Add,
            rd: 2,
            operand: Operand::Imm(0xD),
        };
        assert_eq!(i.to_string(), "addi r2, -3");
        let i = Instruction::Alu {
            op: Op::Mov,
            rd: 4,
            operand: Operand::Reg(2),
        };
        assert_eq!(i.to_string(), "mov r4, r2");
    }
}
