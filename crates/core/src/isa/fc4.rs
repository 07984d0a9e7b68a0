//! The fabricated FlexiCore encoding (paper Figure 2): FlexiCore4, and
//! FlexiCore8, which is FlexiCore4 at eight bits.
//!
//! Both cores run the base subset of the one accumulator
//! [`Instruction`] set; this module holds its fabricated encoding.
//! FlexiCore8 keeps every FlexiCore4 instruction and format (§3.3). One
//! [`decode`] serves both cores; the datapath `width` (4 or 8) decides
//! the three things that differ:
//!
//! * the data memory holds 32 bits at either width — eight 4-bit words
//!   on FlexiCore4, four octets on FlexiCore8 ([`mem_words`]) — so the
//!   memory address field shrinks from three bits to two and the bits
//!   above it are reserved;
//! * the opcode byte `0x08`, reserved on FlexiCore4, is FlexiCore8's
//!   two-byte `LOAD BYTE` ([`crate::isa::fc8`]);
//! * the simulator sign-extends the 4-bit immediates to the datapath and
//!   branches on its top bit ([`crate::sim::acc::AccCore`]).
//!
//! The encoding embeds datapath control directly in the instruction bits:
//!
//! * bit 7 — `1` selects the branch format; `0` everything else,
//! * bit 6 — ALU input multiplexer: `1` = immediate operand, `0` = memory
//!   operand,
//! * bits 5:4 — ALU output multiplexer (`00` ADD, `01` NAND, `10` XOR);
//!   `11` selects the transfer (load/store) format,
//! * bits 3:0 — immediate, or reserved zeros above a memory address.
//!
//! ```text
//! Branch     [ 1 | target:7 ]             br.n: taken iff ACC's top bit is set
//! I-Type     [ 0 | 1 | op:2 | imm:4 ]     ACC = ACC op sext(imm)
//! M-Type     [ 0 | 0 | op:2 | m:4 ]       ACC = ACC op MEM[m]
//! T-Type     [ 0 | d | 1 1  | m:4 ]       d=0 LOAD, d=1 STORE
//! Load Byte  [ 0000_1000 ] [ imm:8 ]      FlexiCore8 only: ACC = imm
//! ```
//!
//! The memory field `m` is `0 src:3` on FlexiCore4 and `0 0 src:2` on
//! FlexiCore8.
//!
//! **Reconstruction note.** Figure 2a leaves the bit that distinguishes
//! `LOAD` from `STORE` ambiguous in the scanned text. We place the direction
//! in bit 6 (`0` = LOAD, `1` = STORE), consistent with bit 6's hardware role:
//! for a LOAD the datapath passes the *memory* operand through, exactly the
//! `0 = memory` sense bit 6 already has for M-type instructions.
//!
//! Addresses 0 and 1 are memory-mapped to the input and output buses
//! respectively (§3.3), leaving the other words as general-purpose storage.

use crate::error::DecodeError;
use crate::isa::acc::{Cond, Instruction};
use crate::isa::fc8::LOAD_BYTE_OPCODE;
use crate::isa::AluOp;

/// Data-memory words (the two memory-mapped IO words included) at
/// datapath `width`: the 32-bit memory holds eight words on FlexiCore4
/// and four on FlexiCore8.
#[must_use]
pub const fn mem_words(width: u32) -> usize {
    (32 / width) as usize
}

/// Whether datapath `width` decodes `LOAD BYTE`: only FlexiCore8 does.
#[must_use]
pub const fn has_load_byte(width: u32) -> bool {
    width == 8
}

/// Size of `insn`'s fabricated encoding in bytes (1, or 2 for `LOAD
/// BYTE`).
#[must_use]
pub fn len(insn: Instruction) -> usize {
    match insn {
        Instruction::LoadByte { .. } => 2,
        _ => 1,
    }
}

/// Append `insn`'s fabricated encoding to `buf`, returning the number of
/// bytes written (1 or 2).
///
/// Field values are masked to their field widths (a memory address to
/// FlexiCore4's three bits), so out-of-range arguments cannot produce
/// an encoding that decodes to a different format.
///
/// # Panics
///
/// For the §6 extensions and branch conditions other than
/// [`Cond::N`], which the fabricated cores do not have.
pub fn encode_into(insn: Instruction, buf: &mut Vec<u8>) -> usize {
    match insn {
        Instruction::AddImm { imm } => buf.push(0b0100_0000 | (imm & 0xF)),
        Instruction::NandImm { imm } => buf.push(0b0101_0000 | (imm & 0xF)),
        Instruction::XorImm { imm } => buf.push(0b0110_0000 | (imm & 0xF)),
        Instruction::Add { m } => buf.push(m & 0x7),
        Instruction::Nand { m } => buf.push(0b0001_0000 | (m & 0x7)),
        Instruction::Xor { m } => buf.push(0b0010_0000 | (m & 0x7)),
        Instruction::Load { m } => buf.push(0b0011_0000 | (m & 0x7)),
        Instruction::Store { m } => buf.push(0b0111_0000 | (m & 0x7)),
        Instruction::Br {
            cond: Cond::N,
            target,
        } => buf.push(0b1000_0000 | (target & 0x7F)),
        Instruction::LoadByte { imm } => buf.extend([LOAD_BYTE_OPCODE, imm]),
        other => panic!("`{other}` has no fabricated encoding"),
    }
    len(insn)
}

/// Decode the instruction at the front of `bytes` on a fabricated core
/// of datapath `width` (4 or 8). Returns the instruction and its
/// encoded length.
///
/// # Errors
///
/// * [`DecodeError::Illegal`] for an empty window and for reserved
///   encodings: a memory or transfer format with a bit set above the
///   address field — `0b1000` on FlexiCore4, `0b1100` on FlexiCore8,
///   whose `0x08` is `LOAD BYTE` instead;
/// * [`DecodeError::NeedsSecondByte`] if `bytes` holds only the `LOAD
///   BYTE` opcode.
#[inline]
pub fn decode(bytes: &[u8], width: u32) -> Result<(Instruction, usize), DecodeError> {
    let byte = *bytes.first().ok_or(DecodeError::Illegal { raw: 0 })?;
    if byte & 0x80 != 0 {
        return Ok((
            Instruction::Br {
                cond: Cond::N,
                target: byte & 0x7F,
            },
            1,
        ));
    }
    if has_load_byte(width) && byte == LOAD_BYTE_OPCODE {
        let imm = *bytes
            .get(1)
            .ok_or(DecodeError::NeedsSecondByte { raw: byte })?;
        return Ok((Instruction::LoadByte { imm }, 2));
    }
    let imm_mode = byte & 0x40 != 0;
    let alu = AluOp::from_field(byte >> 4);
    if let (true, Some(alu)) = (imm_mode, alu) {
        let imm = byte & 0xF;
        let insn = match alu {
            AluOp::Add => Instruction::AddImm { imm },
            AluOp::Nand => Instruction::NandImm { imm },
            AluOp::Xor => Instruction::XorImm { imm },
        };
        return Ok((insn, 1));
    }
    let addr_mask = (mem_words(width) - 1) as u8;
    if byte & 0xF & !addr_mask != 0 {
        return Err(DecodeError::Illegal { raw: byte.into() });
    }
    let m = byte & addr_mask;
    let insn = match alu {
        Some(AluOp::Add) => Instruction::Add { m },
        Some(AluOp::Nand) => Instruction::Nand { m },
        Some(AluOp::Xor) => Instruction::Xor { m },
        // op == 0b11: transfer format
        None if imm_mode => Instruction::Store { m },
        None => Instruction::Load { m },
    };
    Ok((insn, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Dialect;

    fn all_legal_instructions() -> Vec<Instruction> {
        let mut v = Vec::new();
        for imm in 0..16u8 {
            v.push(Instruction::AddImm { imm });
            v.push(Instruction::NandImm { imm });
            v.push(Instruction::XorImm { imm });
        }
        for a in 0..8u8 {
            v.push(Instruction::Add { m: a });
            v.push(Instruction::Nand { m: a });
            v.push(Instruction::Xor { m: a });
            v.push(Instruction::Load { m: a });
            v.push(Instruction::Store { m: a });
        }
        for t in 0..128u8 {
            v.push(Instruction::Br {
                cond: Cond::N,
                target: t,
            });
        }
        v
    }

    #[test]
    fn encode_decode_roundtrip_all() {
        for insn in all_legal_instructions() {
            let bytes = insn.encode(Dialect::Fc4);
            assert_eq!(decode(&bytes, 4), Ok((insn, 1)), "{bytes:?}");
        }
    }

    #[test]
    fn every_byte_decodes_or_is_reserved() {
        let mut legal = 0usize;
        for byte in 0..=255u8 {
            match decode(&[byte], 4) {
                Ok((insn, _)) => {
                    legal += 1;
                    assert_eq!(
                        insn.encode(Dialect::Fc4),
                        [byte],
                        "re-encode mismatch for {byte:#04x}"
                    );
                }
                Err(DecodeError::Illegal { .. }) => {
                    // reserved encodings all have op!=branch and bit3 set in
                    // memory/transfer mode
                    assert_eq!(byte & 0x80, 0);
                    assert_eq!(byte & 0b1000, 0b1000);
                    assert!(byte & 0x40 == 0 || (byte >> 4) & 0b11 == 0b11);
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        // 128 branches + 48 I-type + 24 M-type + 16 T-type = 216 legal bytes
        assert_eq!(legal, 216);
    }

    #[test]
    fn figure2a_field_wiring() {
        let byte = |insn: Instruction| insn.encode(Dialect::Fc4)[0];
        // bits 5:4 go straight to the ALU output mux
        assert_eq!(byte(Instruction::AddImm { imm: 0 }) >> 4 & 0b11, 0b00);
        assert_eq!(byte(Instruction::NandImm { imm: 0 }) >> 4 & 0b11, 0b01);
        assert_eq!(byte(Instruction::XorImm { imm: 0 }) >> 4 & 0b11, 0b10);
        // bit 6 selects immediate vs memory operand
        assert_eq!(byte(Instruction::AddImm { imm: 5 }) & 0x40, 0x40);
        assert_eq!(byte(Instruction::Add { m: 5 }) & 0x40, 0);
    }

    #[test]
    fn branch_encoding_uses_high_bit() {
        assert_eq!(
            Instruction::Br {
                cond: Cond::N,
                target: 0x55
            }
            .encode(Dialect::Fc4),
            [0xD5]
        );
    }

    #[test]
    fn listing1_style_instructions_display() {
        assert_eq!(
            Instruction::AddImm { imm: 0xD }
                .in_dialect(Dialect::Fc4)
                .to_string(),
            "addi -3"
        );
        assert_eq!(
            Instruction::NandImm { imm: 0 }
                .in_dialect(Dialect::Fc4)
                .to_string(),
            "nandi 0x0"
        );
        assert_eq!(
            Instruction::Load { m: 2 }
                .in_dialect(Dialect::Fc4)
                .to_string(),
            "load r2"
        );
    }

    #[test]
    fn masks_out_of_range_fields() {
        // address 9 wraps into the 3-bit field rather than corrupting opcode bits
        let enc = Instruction::Load { m: 9 }.encode(Dialect::Fc4);
        assert_eq!(decode(&enc, 4), Ok((Instruction::Load { m: 1 }, 1)));
    }
}
