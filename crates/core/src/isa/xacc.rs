//! The extended accumulator ISA of the design-space exploration (§6.1–6.2).
//!
//! Section 6.1 of the paper settles on this revised operation set for an
//! accumulator machine:
//!
//! > Add(i), Adc(i), Sub, Swb, And(i), Or(i), Xor(i), Neg, Xch, Load, Store,
//! > Branch nzp, Call, Ret, Asr(i), Lsr(i)
//!
//! The paper does not publish binary encodings for the DSE dialects, so this
//! module defines a compact one with the properties §6.2 assumes: ordinary
//! instructions stay **eight bits** wide (one program-bus beat), immediates
//! keep FlexiCore4's four bits, and only control transfers (`BR`, `CALL`)
//! take a second byte for their target.
//!
//! ```text
//! group M   [ 0 0 | op:3 | m:3 ]      mem ALU: add adc sub swb nand or xor xch
//! group A   [ 0 1 | op:2 | imm:4 ]    addi nandi ori xori (imm4, sign-extended)
//! control   [ 1 0 | nzp:3 | f:1 ] [ 0 target:7 ]   f=0 BR, f=1 CALL
//! group B   [ 1 1 | op:2 | v:4 ]      load/store, adci, shifts, ret/neg/mul
//! ```
//!
//! Group-B sub-encodings: `op=0` is `[d | m:3]` (load/store), `op=1` is
//! `adci imm4`, `op=2` is `[arith | amt:3]` (logical/arithmetic right
//! shift), `op=3` packs `ret` (v=0), `neg` (v=1) and the multiplier
//! (`[1 | hi | m:2]`, operands limited to the first four memory words).
//!
//! `NAND` is retained from the base ISA in every configuration, so base-ISA
//! idioms (`nandi 0`) keep working; `AND` is always synthesizable as two
//! NANDs. Which instructions are *architecturally legal* depends on the
//! enabled [`FeatureSet`]: see [`Instruction::required_feature`]. A
//! configuration with no features enabled is exactly the base FlexiCore4
//! ISA re-encoded.

use crate::error::DecodeError;
use crate::isa::features::{Feature, FeatureSet};
use crate::isa::xls::{Op, Operand};

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

    /// Evaluate against an accumulator value of the given bit width.
    #[must_use]
    pub fn taken(self, acc: u8, width: u32) -> bool {
        let mask = ((1u16 << width) - 1) as u8;
        let v = acc & mask;
        let n = v & (1 << (width - 1)) != 0;
        let z = v == 0;
        let p = !n && !z;
        (self.bits & 0b100 != 0 && n)
            || (self.bits & 0b010 != 0 && z)
            || (self.bits & 0b001 != 0 && p)
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

/// A decoded extended-accumulator instruction.
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
    /// `ACC = MEM[m]`.
    Load {
        /// Memory address.
        m: u8,
    },
    /// `MEM[m] = ACC`.
    Store {
        /// Memory address.
        m: u8,
    },
    /// `ACC += sext(imm4)`; sets carry.
    AddImm {
        /// Raw 4-bit immediate, sign-extended before use.
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
    /// Conditional branch to a 7-bit in-page target (two-byte encoding).
    /// Masks other than [`Cond::N`] require [`Feature::BranchFlags`].
    Br {
        /// Condition mask.
        cond: Cond,
        /// 7-bit in-page target.
        target: u8,
    },
    /// Call: `RA = PC + 2; PC = target` (two-byte encoding).
    /// Requires [`Feature::Subroutines`].
    Call {
        /// 7-bit in-page target.
        target: u8,
    },
    /// Return: `PC = RA`. Requires [`Feature::Subroutines`].
    Ret,
}

impl Instruction {
    /// Encoded size in bytes (1, or 2 for `BR`/`CALL`).
    #[must_use]
    pub fn len(self) -> usize {
        match self {
            Instruction::Br { .. } | Instruction::Call { .. } => 2,
            _ => 1,
        }
    }

    /// Always `false`.
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }

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

    /// The DSE ALU operation this instruction applies to the accumulator,
    /// and its second operand: [`Operand::Reg`] names a memory word,
    /// [`Operand::Imm`] a 4-bit immediate (sign-extended; a shift amount
    /// is at most 7, so it reads unchanged). `LOAD` is a `MOV` of its
    /// word. `None` for `XCH`, `STORE` and the control transfers, which
    /// bypass the ALU.
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
            | Instruction::Ret => return None,
        })
    }

    /// Encode into `buf`; returns bytes written.
    pub fn encode_into(self, buf: &mut Vec<u8>) -> usize {
        const GM: u8 = 0b0000_0000;
        const GA: u8 = 0b0100_0000;
        const GC: u8 = 0b1000_0000;
        const GB: u8 = 0b1100_0000;
        match self {
            Instruction::Add { m } => buf.push(GM | (m & 7)),
            Instruction::Adc { m } => buf.push(GM | (1 << 3) | (m & 7)),
            Instruction::Sub { m } => buf.push(GM | (2 << 3) | (m & 7)),
            Instruction::Swb { m } => buf.push(GM | (3 << 3) | (m & 7)),
            Instruction::Nand { m } => buf.push(GM | (4 << 3) | (m & 7)),
            Instruction::Or { m } => buf.push(GM | (5 << 3) | (m & 7)),
            Instruction::Xor { m } => buf.push(GM | (6 << 3) | (m & 7)),
            Instruction::Xch { m } => buf.push(GM | (7 << 3) | (m & 7)),
            Instruction::AddImm { imm } => buf.push(GA | (imm & 0xF)),
            Instruction::NandImm { imm } => buf.push(GA | (1 << 4) | (imm & 0xF)),
            Instruction::OrImm { imm } => buf.push(GA | (2 << 4) | (imm & 0xF)),
            Instruction::XorImm { imm } => buf.push(GA | (3 << 4) | (imm & 0xF)),
            Instruction::Br { cond, target } => {
                buf.push(GC | (cond.bits() << 1));
                buf.push(target & 0x7F);
            }
            Instruction::Call { target } => {
                buf.push(GC | (Cond::ALWAYS.bits() << 1) | 1);
                buf.push(target & 0x7F);
            }
            Instruction::Load { m } => buf.push(GB | (m & 7)),
            Instruction::Store { m } => buf.push(GB | (1 << 3) | (m & 7)),
            Instruction::AdcImm { imm } => buf.push(GB | (1 << 4) | (imm & 0xF)),
            Instruction::LsrImm { amount } => buf.push(GB | (2 << 4) | (amount & 7)),
            Instruction::AsrImm { amount } => buf.push(GB | (2 << 4) | (1 << 3) | (amount & 7)),
            Instruction::Ret => buf.push(GB | (3 << 4)),
            Instruction::Neg => buf.push(GB | (3 << 4) | 1),
            Instruction::MulL { m } => buf.push(GB | (3 << 4) | (1 << 3) | (m & 3)),
            Instruction::MulH { m } => buf.push(GB | (3 << 4) | (1 << 3) | (1 << 2) | (m & 3)),
        }
        self.len()
    }

    /// Encode to a byte vector.
    #[must_use]
    pub fn encode(self) -> Vec<u8> {
        let mut v = Vec::with_capacity(2);
        self.encode_into(&mut v);
        v
    }

    /// Decode from the front of `bytes`, returning `(instruction, length)`.
    ///
    /// # Errors
    ///
    /// * [`DecodeError::Illegal`] for reserved encodings,
    /// * [`DecodeError::NeedsSecondByte`] for a lone `BR`/`CALL` opcode byte.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), DecodeError> {
        let b = *bytes.first().ok_or(DecodeError::Illegal { raw: 0 })?;
        match b >> 6 {
            0b00 => {
                let m = b & 7;
                Ok((
                    match (b >> 3) & 7 {
                        0 => Instruction::Add { m },
                        1 => Instruction::Adc { m },
                        2 => Instruction::Sub { m },
                        3 => Instruction::Swb { m },
                        4 => Instruction::Nand { m },
                        5 => Instruction::Or { m },
                        6 => Instruction::Xor { m },
                        _ => Instruction::Xch { m },
                    },
                    1,
                ))
            }
            0b01 => {
                let imm = b & 0xF;
                Ok((
                    match (b >> 4) & 3 {
                        0 => Instruction::AddImm { imm },
                        1 => Instruction::NandImm { imm },
                        2 => Instruction::OrImm { imm },
                        _ => Instruction::XorImm { imm },
                    },
                    1,
                ))
            }
            0b10 => {
                if b & 0b0001_0000 != 0 {
                    return Err(DecodeError::Illegal { raw: b.into() });
                }
                let cond = Cond::from_bits((b >> 1) & 7);
                let is_call = b & 1 != 0;
                let target = *bytes
                    .get(1)
                    .ok_or(DecodeError::NeedsSecondByte { raw: b })?
                    & 0x7F;
                if is_call {
                    if cond != Cond::ALWAYS {
                        return Err(DecodeError::Illegal { raw: b.into() });
                    }
                    Ok((Instruction::Call { target }, 2))
                } else {
                    Ok((Instruction::Br { cond, target }, 2))
                }
            }
            _ => {
                let v = b & 0xF;
                match (b >> 4) & 3 {
                    0 => Ok((
                        if v & 0b1000 == 0 {
                            Instruction::Load { m: v & 7 }
                        } else {
                            Instruction::Store { m: v & 7 }
                        },
                        1,
                    )),
                    1 => Ok((Instruction::AdcImm { imm: v }, 1)),
                    2 => Ok((
                        if v & 0b1000 == 0 {
                            Instruction::LsrImm { amount: v & 7 }
                        } else {
                            Instruction::AsrImm { amount: v & 7 }
                        },
                        1,
                    )),
                    _ => match v {
                        0 => Ok((Instruction::Ret, 1)),
                        1 => Ok((Instruction::Neg, 1)),
                        8..=11 => Ok((Instruction::MulL { m: v & 3 }, 1)),
                        12..=15 => Ok((Instruction::MulH { m: v & 3 }, 1)),
                        _ => Err(DecodeError::Illegal { raw: b.into() }),
                    },
                }
            }
        }
    }
}

impl core::fmt::Display for Instruction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        use crate::isa::sign_extend;
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instructions() -> Vec<Instruction> {
        let mut v = vec![Instruction::Ret, Instruction::Neg];
        for m in 0..8 {
            v.extend([
                Instruction::Add { m },
                Instruction::Adc { m },
                Instruction::Sub { m },
                Instruction::Swb { m },
                Instruction::Nand { m },
                Instruction::Or { m },
                Instruction::Xor { m },
                Instruction::Xch { m },
                Instruction::Load { m },
                Instruction::Store { m },
            ]);
        }
        for m in 0..4 {
            v.push(Instruction::MulL { m });
            v.push(Instruction::MulH { m });
        }
        for imm in 0..16 {
            v.extend([
                Instruction::AddImm { imm },
                Instruction::NandImm { imm },
                Instruction::OrImm { imm },
                Instruction::XorImm { imm },
                Instruction::AdcImm { imm },
            ]);
        }
        for amount in 0..8 {
            v.push(Instruction::AsrImm { amount });
            v.push(Instruction::LsrImm { amount });
        }
        for c in 0..8 {
            v.push(Instruction::Br {
                cond: Cond::from_bits(c),
                target: 0x55,
            });
        }
        v.push(Instruction::Call { target: 0x7F });
        v
    }

    #[test]
    fn encode_decode_roundtrip() {
        for insn in sample_instructions() {
            let bytes = insn.encode();
            let (decoded, len) =
                Instruction::decode(&bytes).unwrap_or_else(|e| panic!("decode {insn:?}: {e}"));
            assert_eq!(decoded, insn);
            assert_eq!(len, bytes.len());
        }
    }

    #[test]
    fn all_single_bytes_decode_uniquely() {
        // every decodable single byte must re-encode to itself
        for b in 0..=255u8 {
            if let Ok((insn, 1)) = Instruction::decode(&[b]) {
                assert_eq!(insn.encode(), vec![b], "byte {b:#04x} -> {insn}");
            }
        }
    }

    #[test]
    fn control_transfers_are_two_bytes() {
        assert_eq!(
            Instruction::Br {
                cond: Cond::N,
                target: 3
            }
            .len(),
            2
        );
        assert_eq!(Instruction::Call { target: 3 }.len(), 2);
        assert_eq!(Instruction::Add { m: 2 }.len(), 1);
    }

    #[test]
    fn cond_evaluation_4bit() {
        assert!(Cond::N.taken(0x8, 4));
        assert!(!Cond::N.taken(0x7, 4));
        assert!(Cond::Z.taken(0x0, 4));
        assert!(Cond::P.taken(0x3, 4));
        assert!(!Cond::P.taken(0x0, 4));
        assert!(!Cond::P.taken(0xF, 4));
        assert!(Cond::ALWAYS.taken(0x0, 4));
        assert!(Cond::ALWAYS.taken(0xF, 4));
        assert!(!Cond::NEVER.taken(0x5, 4));
        assert!(Cond::NZ.taken(0xF, 4)); // np mask: negative qualifies
    }

    #[test]
    fn feature_gating() {
        let base = FeatureSet::BASE;
        assert!(Instruction::Add { m: 2 }.is_legal(base));
        assert!(Instruction::Nand { m: 2 }.is_legal(base));
        assert!(Instruction::Br {
            cond: Cond::N,
            target: 0
        }
        .is_legal(base));
        assert!(!Instruction::Br {
            cond: Cond::ALWAYS,
            target: 0
        }
        .is_legal(base));
        assert!(!Instruction::Adc { m: 2 }.is_legal(base));
        assert!(!Instruction::AsrImm { amount: 1 }.is_legal(base));
        assert!(!Instruction::Ret.is_legal(base));

        let revised = FeatureSet::revised();
        assert!(Instruction::Adc { m: 2 }.is_legal(revised));
        assert!(Instruction::Xch { m: 2 }.is_legal(revised));
        assert!(Instruction::Ret.is_legal(revised));
        assert!(!Instruction::MulL { m: 2 }.is_legal(revised));
    }

    #[test]
    fn base_feature_set_is_fc4_equivalent_ops() {
        // every instruction legal in the base configuration must be one of
        // the nine FlexiCore4 operations (re-encoded)
        for insn in sample_instructions() {
            if insn.is_legal(FeatureSet::BASE) {
                let ok = matches!(
                    insn,
                    Instruction::Add { .. }
                        | Instruction::Nand { .. }
                        | Instruction::Xor { .. }
                        | Instruction::Load { .. }
                        | Instruction::Store { .. }
                        | Instruction::AddImm { .. }
                        | Instruction::NandImm { .. }
                        | Instruction::XorImm { .. }
                        | Instruction::Br { cond: Cond::N, .. }
                );
                assert!(ok, "{insn:?} should not be legal in base config");
            }
        }
    }

    #[test]
    fn reserved_encodings_rejected() {
        // control group with bit 4 set is reserved
        assert!(Instruction::decode(&[0b1001_0000, 0]).is_err());
        // call with a non-always condition is reserved
        assert!(Instruction::decode(&[0b1000_0011, 0]).is_err());
        // group-B op=3 with v in 2..=7 is reserved
        for v in 2..8u8 {
            assert!(Instruction::decode(&[0b1111_0000 | v]).is_err(), "{v}");
        }
    }

    #[test]
    fn imm4_covers_the_full_nibble() {
        // the re-encoded ISA must keep FlexiCore4's immediate reach
        let i = Instruction::XorImm { imm: 0x8 };
        let bytes = i.encode();
        assert_eq!(Instruction::decode(&bytes).unwrap().0, i);
    }
}
