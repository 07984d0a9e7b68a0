//! The extended accumulator encoding of the design-space exploration
//! (§6.1–6.2).
//!
//! Section 6.1 of the paper settles on this revised operation set for an
//! accumulator machine:
//!
//! > Add(i), Adc(i), Sub, Swb, And(i), Or(i), Xor(i), Neg, Xch, Load, Store,
//! > Branch nzp, Call, Ret, Asr(i), Lsr(i)
//!
//! Every one of these is an [`Instruction`] of the one accumulator ISA.
//! The paper does not publish binary encodings for the DSE dialects, so
//! this module defines a compact one with the properties §6.2 assumes: ordinary
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
//! enabled [`FeatureSet`](crate::isa::features::FeatureSet): see
//! [`Instruction::required_feature`]. A configuration with no features
//! enabled is exactly the base FlexiCore4 ISA re-encoded. FlexiCore8's
//! `LOAD BYTE` has no form here.

use crate::error::DecodeError;
use crate::isa::acc::{Cond, Instruction};

/// Size of `insn`'s encoding in bytes (1, or 2 for `BR`/`CALL`).
#[must_use]
pub fn len(insn: Instruction) -> usize {
    match insn {
        Instruction::Br { .. } | Instruction::Call { .. } => 2,
        _ => 1,
    }
}

/// Append `insn`'s encoding to `buf`; returns bytes written.
///
/// # Panics
///
/// For FlexiCore8's `LOAD BYTE`, which this encoding lacks.
pub fn encode_into(insn: Instruction, buf: &mut Vec<u8>) -> usize {
    const GM: u8 = 0b0000_0000;
    const GA: u8 = 0b0100_0000;
    const GC: u8 = 0b1000_0000;
    const GB: u8 = 0b1100_0000;
    match insn {
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
        Instruction::LoadByte { .. } => panic!("`{insn}` has no extended-accumulator encoding"),
    }
    len(insn)
}

/// Decode from the front of `bytes`, returning `(instruction, length)`.
///
/// # Errors
///
/// * [`DecodeError::Illegal`] for reserved encodings,
/// * [`DecodeError::NeedsSecondByte`] for a lone `BR`/`CALL` opcode byte.
pub fn decode(bytes: &[u8]) -> Result<(Instruction, usize), DecodeError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::features::FeatureSet;
    use crate::isa::Dialect;

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
            let bytes = insn.encode(Dialect::ExtendedAcc);
            let (decoded, len) = decode(&bytes).unwrap_or_else(|e| panic!("decode {insn:?}: {e}"));
            assert_eq!(decoded, insn);
            assert_eq!(len, bytes.len());
        }
    }

    #[test]
    fn all_single_bytes_decode_uniquely() {
        // every decodable single byte must re-encode to itself
        for b in 0..=255u8 {
            if let Ok((insn, 1)) = decode(&[b]) {
                assert_eq!(
                    insn.encode(Dialect::ExtendedAcc),
                    vec![b],
                    "byte {b:#04x} -> {insn}"
                );
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
            .len(Dialect::ExtendedAcc),
            2
        );
        assert_eq!(Instruction::Call { target: 3 }.len(Dialect::ExtendedAcc), 2);
        assert_eq!(Instruction::Add { m: 2 }.len(Dialect::ExtendedAcc), 1);
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
        assert!(decode(&[0b1001_0000, 0]).is_err());
        // call with a non-always condition is reserved
        assert!(decode(&[0b1000_0011, 0]).is_err());
        // group-B op=3 with v in 2..=7 is reserved
        for v in 2..8u8 {
            assert!(decode(&[0b1111_0000 | v]).is_err(), "{v}");
        }
    }

    #[test]
    fn imm4_covers_the_full_nibble() {
        // the re-encoded ISA must keep FlexiCore4's immediate reach
        let i = Instruction::XorImm { imm: 0x8 };
        let bytes = i.encode(Dialect::ExtendedAcc);
        assert_eq!(decode(&bytes).unwrap().0, i);
    }
}
