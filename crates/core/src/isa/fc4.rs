//! The fabricated FlexiCore instruction set (paper Figure 2): FlexiCore4,
//! and FlexiCore8, which is FlexiCore4 at eight bits.
//!
//! FlexiCore8 keeps every FlexiCore4 instruction and format (§3.3). One
//! [`Instruction`] enum and one [`Instruction::decode`] serve both cores;
//! the datapath `width` (4 or 8) decides the three things that differ:
//!
//! * the data memory holds 32 bits at either width — eight 4-bit words
//!   on FlexiCore4, four octets on FlexiCore8 ([`mem_words`]) — so the
//!   memory address field shrinks from three bits to two and the bits
//!   above it are reserved;
//! * the opcode byte `0x08`, reserved on FlexiCore4, is FlexiCore8's
//!   two-byte `LOAD BYTE` ([`crate::isa::fc8`]);
//! * the simulator sign-extends the 4-bit immediates to the datapath and
//!   branches on its top bit ([`crate::sim::fc4::FabCore`]).
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
//! Branch     [ 1 | target:7 ]             taken iff ACC's top bit is set
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

/// A decoded fabricated-core instruction.
///
/// The nine instructions of Figure 2a — three ALU operations in each of
/// two addressing modes, `LOAD`, `STORE`, and the conditional branch —
/// plus FlexiCore8's `LOAD BYTE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// `ACC = ACC + sext(imm)`.
    AddImm {
        /// 4-bit immediate (sign-extended to the datapath).
        imm: u8,
    },
    /// `ACC = !(ACC & sext(imm))`.
    NandImm {
        /// 4-bit immediate.
        imm: u8,
    },
    /// `ACC = ACC ^ sext(imm)`.
    XorImm {
        /// 4-bit immediate.
        imm: u8,
    },
    /// `ACC = ACC + MEM[src]`.
    AddMem {
        /// Memory address.
        src: u8,
    },
    /// `ACC = !(ACC & MEM[src])`.
    NandMem {
        /// Memory address.
        src: u8,
    },
    /// `ACC = ACC ^ MEM[src]`.
    XorMem {
        /// Memory address.
        src: u8,
    },
    /// `ACC = MEM[addr]` (reading address 0 samples the input bus).
    Load {
        /// Memory address.
        addr: u8,
    },
    /// `MEM[addr] = ACC` (writing address 1 drives the output bus).
    Store {
        /// Memory address.
        addr: u8,
    },
    /// `if ACC < 0 { PC = target }` — branch within the current 128-byte
    /// page on the accumulator's top bit.
    Branch {
        /// 7-bit in-page target address.
        target: u8,
    },
    /// `ACC = imm` — FlexiCore8's two-byte `LOAD BYTE`.
    LoadByte {
        /// Full 8-bit immediate carried in the second byte.
        imm: u8,
    },
}

impl Instruction {
    /// Size of the encoded instruction in bytes (1, or 2 for `LOAD BYTE`).
    #[must_use]
    pub fn len(self) -> usize {
        match self {
            Instruction::LoadByte { .. } => 2,
            _ => 1,
        }
    }

    /// Always `false`; instructions occupy at least one byte.
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }

    /// Encode into `buf`, returning the number of bytes written (1 or 2).
    ///
    /// Field values are masked to their field widths (a memory address to
    /// FlexiCore4's three bits), so out-of-range arguments cannot produce
    /// an encoding that decodes to a different format.
    pub fn encode_into(self, buf: &mut Vec<u8>) -> usize {
        match self {
            Instruction::AddImm { imm } => buf.push(0b0100_0000 | (imm & 0xF)),
            Instruction::NandImm { imm } => buf.push(0b0101_0000 | (imm & 0xF)),
            Instruction::XorImm { imm } => buf.push(0b0110_0000 | (imm & 0xF)),
            Instruction::AddMem { src } => buf.push(src & 0x7),
            Instruction::NandMem { src } => buf.push(0b0001_0000 | (src & 0x7)),
            Instruction::XorMem { src } => buf.push(0b0010_0000 | (src & 0x7)),
            Instruction::Load { addr } => buf.push(0b0011_0000 | (addr & 0x7)),
            Instruction::Store { addr } => buf.push(0b0111_0000 | (addr & 0x7)),
            Instruction::Branch { target } => buf.push(0b1000_0000 | (target & 0x7F)),
            Instruction::LoadByte { imm } => buf.extend([LOAD_BYTE_OPCODE, imm]),
        }
        self.len()
    }

    /// Encode to a small byte vector.
    #[must_use]
    pub fn encode(self) -> Vec<u8> {
        let mut v = Vec::with_capacity(2);
        self.encode_into(&mut v);
        v
    }

    /// Decode the instruction at the front of `bytes` on a core of
    /// datapath `width` (4 or 8). Returns the instruction and its encoded
    /// length.
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
    pub fn decode(bytes: &[u8], width: u32) -> Result<(Self, usize), DecodeError> {
        let byte = *bytes.first().ok_or(DecodeError::Illegal { raw: 0 })?;
        if byte & 0x80 != 0 {
            return Ok((
                Instruction::Branch {
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
        let addr = byte & addr_mask;
        let insn = match alu {
            Some(AluOp::Add) => Instruction::AddMem { src: addr },
            Some(AluOp::Nand) => Instruction::NandMem { src: addr },
            Some(AluOp::Xor) => Instruction::XorMem { src: addr },
            // op == 0b11: transfer format
            None if imm_mode => Instruction::Store { addr },
            None => Instruction::Load { addr },
        };
        Ok((insn, 1))
    }
}

impl core::fmt::Display for Instruction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Instruction::AddImm { imm } => write!(f, "addi {}", crate::isa::sign_extend(imm, 4)),
            Instruction::NandImm { imm } => write!(f, "nandi {imm:#x}"),
            Instruction::XorImm { imm } => write!(f, "xori {imm:#x}"),
            Instruction::AddMem { src } => write!(f, "add r{src}"),
            Instruction::NandMem { src } => write!(f, "nand r{src}"),
            Instruction::XorMem { src } => write!(f, "xor r{src}"),
            Instruction::Load { addr } => write!(f, "load r{addr}"),
            Instruction::Store { addr } => write!(f, "store r{addr}"),
            Instruction::Branch { target } => write!(f, "br {target:#04x}"),
            Instruction::LoadByte { imm } => write!(f, "ldb {imm:#04x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_legal_instructions() -> Vec<Instruction> {
        let mut v = Vec::new();
        for imm in 0..16u8 {
            v.push(Instruction::AddImm { imm });
            v.push(Instruction::NandImm { imm });
            v.push(Instruction::XorImm { imm });
        }
        for a in 0..8u8 {
            v.push(Instruction::AddMem { src: a });
            v.push(Instruction::NandMem { src: a });
            v.push(Instruction::XorMem { src: a });
            v.push(Instruction::Load { addr: a });
            v.push(Instruction::Store { addr: a });
        }
        for t in 0..128u8 {
            v.push(Instruction::Branch { target: t });
        }
        v
    }

    #[test]
    fn encode_decode_roundtrip_all() {
        for insn in all_legal_instructions() {
            let bytes = insn.encode();
            assert_eq!(Instruction::decode(&bytes, 4), Ok((insn, 1)), "{bytes:?}");
        }
    }

    #[test]
    fn every_byte_decodes_or_is_reserved() {
        let mut legal = 0usize;
        for byte in 0..=255u8 {
            match Instruction::decode(&[byte], 4) {
                Ok((insn, _)) => {
                    legal += 1;
                    assert_eq!(insn.encode(), [byte], "re-encode mismatch for {byte:#04x}");
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
        let byte = |insn: Instruction| insn.encode()[0];
        // bits 5:4 go straight to the ALU output mux
        assert_eq!(byte(Instruction::AddImm { imm: 0 }) >> 4 & 0b11, 0b00);
        assert_eq!(byte(Instruction::NandImm { imm: 0 }) >> 4 & 0b11, 0b01);
        assert_eq!(byte(Instruction::XorImm { imm: 0 }) >> 4 & 0b11, 0b10);
        // bit 6 selects immediate vs memory operand
        assert_eq!(byte(Instruction::AddImm { imm: 5 }) & 0x40, 0x40);
        assert_eq!(byte(Instruction::AddMem { src: 5 }) & 0x40, 0);
    }

    #[test]
    fn branch_encoding_uses_high_bit() {
        assert_eq!(Instruction::Branch { target: 0x55 }.encode(), [0xD5]);
    }

    #[test]
    fn listing1_style_instructions_display() {
        assert_eq!(Instruction::AddImm { imm: 0xD }.to_string(), "addi -3");
        assert_eq!(Instruction::NandImm { imm: 0 }.to_string(), "nandi 0x0");
        assert_eq!(Instruction::Load { addr: 2 }.to_string(), "load r2");
    }

    #[test]
    fn masks_out_of_range_fields() {
        // address 9 wraps into the 3-bit field rather than corrupting opcode bits
        let enc = Instruction::Load { addr: 9 }.encode();
        assert_eq!(
            Instruction::decode(&enc, 4),
            Ok((Instruction::Load { addr: 1 }, 1))
        );
    }
}
