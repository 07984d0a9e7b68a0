//! What FlexiCore8 (paper Figure 2b) adds to FlexiCore4.
//!
//! FlexiCore8 keeps every FlexiCore4 instruction and format but widens the
//! datapath to eight bits, so it runs the one accumulator
//! [`Instruction`](crate::isa::acc::Instruction) set through FlexiCore4's
//! [`decode`](crate::isa::fc4::decode) at `width` 8. To stay inside the 800-NAND2 area budget the data memory is
//! halved to four octet words (§3.3), so the memory address fields shrink
//! to two bits (bits 3:2 are fixed zeros).
//!
//! `LOAD BYTE` is the only instruction in either fabricated ISA that is not
//! eight bits: the opcode byte `0x08` (a reserved FlexiCore4 encoding — bit 3
//! set in a memory-format instruction) tells the controller that the *next*
//! byte fetched from program memory is data, not an instruction. This is the
//! single stateful bit in FlexiCore8's controller (§3.4).
//!
//! I-type immediates are sign-extended from four to eight bits so idioms such
//! as `addi -3` keep working on the wider datapath (reconstruction choice;
//! the paper does not state the extension rule). On FlexiCore4 the
//! extension is invisible: the result keeps only the low four bits.

/// The opcode byte announcing a `LOAD BYTE` payload.
pub const LOAD_BYTE_OPCODE: u8 = 0b0000_1000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DecodeError;
    use crate::isa::acc::{Cond, Instruction};
    use crate::isa::fc4::decode;
    use crate::isa::Dialect;

    fn all_legal() -> Vec<Instruction> {
        let mut v = Vec::new();
        for imm in 0..16u8 {
            v.push(Instruction::AddImm { imm });
            v.push(Instruction::NandImm { imm });
            v.push(Instruction::XorImm { imm });
        }
        for a in 0..4u8 {
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
        for imm in [0u8, 1, 0x7F, 0x80, 0xFF] {
            v.push(Instruction::LoadByte { imm });
        }
        v
    }

    #[test]
    fn encode_decode_roundtrip() {
        for insn in all_legal() {
            let bytes = insn.encode(Dialect::Fc8);
            let (decoded, len) = decode(&bytes, 8).expect("legal");
            assert_eq!(decoded, insn);
            assert_eq!(len, bytes.len());
        }
    }

    #[test]
    fn load_byte_is_0x08_prefix() {
        let bytes = Instruction::LoadByte { imm: 0xAB }.encode(Dialect::Fc8);
        assert_eq!(bytes, vec![LOAD_BYTE_OPCODE, 0xAB]);
        // FlexiCore4 keeps the encoding reserved
        assert_eq!(decode(&bytes, 4), Err(DecodeError::Illegal { raw: 0x08 }));
    }

    #[test]
    fn load_byte_needs_second_byte() {
        assert_eq!(
            decode(&[0x08], 8),
            Err(DecodeError::NeedsSecondByte { raw: 0x08 })
        );
    }

    #[test]
    fn narrower_address_fields_than_fc4() {
        // bits 3:2 must be zero in memory formats
        assert!(decode(&[0b0000_0100], 8).is_err());
        assert!(decode(&[0b0011_0100], 8).is_err());
        // ... where FlexiCore4 reads address 4
        assert_eq!(
            decode(&[0b0011_0100], 4),
            Ok((Instruction::Load { m: 4 }, 1))
        );
        // 0b0000_1000 is LOAD BYTE, not illegal
        assert!(matches!(
            decode(&[0x08, 0x00], 8),
            Ok((Instruction::LoadByte { imm: 0 }, 2))
        ));
    }

    #[test]
    fn shared_formats_match_fc4_encodings() {
        // FlexiCore8 "has all of the instructions of FlexiCore4" — every
        // byte both widths decode means the same instruction on both.
        let mut shared = 0;
        for byte in 0..=255u8 {
            if let (Ok(narrow), Ok(wide)) = (decode(&[byte, 0], 4), decode(&[byte, 0], 8)) {
                assert_eq!(narrow, wide, "{byte:#04x}");
                shared += 1;
            }
        }
        // 128 branches + 48 I-type + 12 M-type + 8 T-type
        assert_eq!(shared, 196);
    }
}
