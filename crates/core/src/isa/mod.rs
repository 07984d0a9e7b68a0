//! Instruction-set architectures of the FlexiCore family.
//!
//! Four dialects are modelled:
//!
//! | Dialect | Paper section | Datapath | Memory | Notes |
//! |---|---|---|---|---|
//! | [`fc4`] | §3.3, Fig. 2a | 4 bit | 8 × 4 bit | fabricated base core |
//! | [`fc8`] | §3.3, Fig. 2b | 8 bit | 4 × 8 bit | `fc4` at eight bits, adds `LOAD BYTE` |
//! | [`xacc`] | §6.1–6.2 | 4 bit | 8 × 4 bit (opt. 16) | extended accumulator ISA |
//! | [`xls`] | §6.2 | 4 bit | 8 registers | two-operand load-store ISA |
//!
//! The three accumulator dialects share one instruction set,
//! [`acc::Instruction`]: the DSE extensions are features gated by
//! [`acc::Instruction::required_feature`], and `LOAD BYTE` is
//! FlexiCore8's. Only their encodings differ, and there are two: the
//! fabricated one of Figure 2 ([`fc4`], at width 4 or 8; [`fc8`] holds
//! what the wider core adds), which follows the paper bit-for-bit (see
//! [`fc4`] for the one reconstruction choice made where the figure is
//! ambiguous), and the DSE one ([`xacc`]). The paper does not publish
//! encodings for the DSE dialects, so `xacc` and `xls` define compact
//! encodings with the operand counts and instruction widths the paper's
//! Section 6.2 assumes (8-bit instructions for the accumulator machine,
//! 16-bit for load-store).

pub mod acc;
pub mod fc4;
pub mod fc8;
pub mod features;
pub mod xacc;
pub mod xls;

/// The data cell every dialect maps to the input bus (§3.3): reading it
/// samples the bus, and writes to it are dropped.
pub const IPORT_CELL: u8 = 0;
/// The data cell every dialect maps to the output bus, which a write
/// drives and the off-chip MMU snoops.
pub const OPORT_CELL: u8 = 1;

/// The three ALU functions shared by every fabricated FlexiCore.
///
/// The paper chose exactly `ADD`, `NAND` and `XOR` because all three fall out
/// of a single ripple-carry adder: the adder's internal propagate (XOR) and
/// generate (AND) terms are exported as side effects, and NAND costs only
/// four extra inverters (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluOp {
    /// Two's-complement addition (carry-out discarded).
    Add,
    /// Bitwise NAND.
    Nand,
    /// Bitwise XOR.
    Xor,
}

impl AluOp {
    /// The 2-bit `op` field encoding used by both FlexiCore4 and FlexiCore8
    /// (instruction bits 5:4, wired directly to the ALU output multiplexer).
    #[must_use]
    pub fn field(self) -> u8 {
        match self {
            AluOp::Add => 0b00,
            AluOp::Nand => 0b01,
            AluOp::Xor => 0b10,
        }
    }

    /// Decode a 2-bit `op` field. Returns `None` for `0b11`, which selects
    /// the transfer (load/store) format instead of an ALU function.
    #[must_use]
    pub fn from_field(bits: u8) -> Option<Self> {
        match bits & 0b11 {
            0b00 => Some(AluOp::Add),
            0b01 => Some(AluOp::Nand),
            0b10 => Some(AluOp::Xor),
            _ => None,
        }
    }

    /// Apply the operation to `a` and `b`, truncated to `width` bits,
    /// on the one accumulator ALU ([`xls::Op::apply`]).
    ///
    /// `width` must be 1..=8; the fabricated cores use 4 and 8.
    #[must_use]
    pub fn apply(self, a: u8, b: u8, width: u32) -> u8 {
        let op = match self {
            AluOp::Add => xls::Op::Add,
            AluOp::Nand => xls::Op::Nand,
            AluOp::Xor => xls::Op::Xor,
        };
        op.apply(a, b, false, width).0
    }
}

impl core::fmt::Display for AluOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Nand => "nand",
            AluOp::Xor => "xor",
        };
        f.write_str(s)
    }
}

/// Identifies one of the modelled ISA dialects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// The fabricated 4-bit FlexiCore4 (Figure 2a).
    Fc4,
    /// The fabricated 8-bit FlexiCore8 (Figure 2b).
    Fc8,
    /// The extended accumulator ISA of the design-space exploration (§6).
    ExtendedAcc,
    /// The two-operand load-store ISA of the design-space exploration (§6.2).
    LoadStore,
}

impl Dialect {
    /// Datapath width in bits.
    #[must_use]
    pub const fn datapath_bits(self) -> u32 {
        match self {
            Dialect::Fc4 | Dialect::ExtendedAcc | Dialect::LoadStore => 4,
            Dialect::Fc8 => 8,
        }
    }

    /// Width of the *shortest* instruction encoding in bits.
    #[must_use]
    pub fn base_instruction_bits(self) -> u32 {
        match self {
            Dialect::Fc4 | Dialect::Fc8 | Dialect::ExtendedAcc => 8,
            Dialect::LoadStore => 16,
        }
    }

    /// Number of data-memory words (accumulator dialects) or registers
    /// (load-store dialect), IO-mapped entries included.
    #[must_use]
    pub const fn mem_words(self) -> u8 {
        match self {
            Dialect::Fc4 | Dialect::Fc8 => fc4::mem_words(self.datapath_bits()) as u8,
            Dialect::ExtendedAcc | Dialect::LoadStore => 8,
        }
    }

    /// Whether this is one of the fabricated cores, FlexiCore4 or
    /// FlexiCore8: the fabricated encoding and listing, no carry flag or
    /// link register, and a clock cycle per fetched byte.
    #[must_use]
    pub const fn is_fabricated(self) -> bool {
        matches!(self, Dialect::Fc4 | Dialect::Fc8)
    }

    /// Whether the dialect has a dedicated accumulator register (the
    /// load-store dialect keeps all state in its register file).
    #[must_use]
    pub fn has_accumulator(self) -> bool {
        !matches!(self, Dialect::LoadStore)
    }
}

impl core::fmt::Display for Dialect {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Dialect::Fc4 => "fc4",
            Dialect::Fc8 => "fc8",
            Dialect::ExtendedAcc => "xacc",
            Dialect::LoadStore => "xls",
        };
        f.write_str(s)
    }
}

/// Sign-extend the low `bits` bits of `v` into an `i16`.
///
/// Used for 4-bit immediates: the paper's Listing 1 writes `addi -3`, so
/// immediates are interpreted as two's-complement nibbles.
#[must_use]
pub fn sign_extend(v: u8, bits: u32) -> i16 {
    debug_assert!((1..=8).contains(&bits));
    let shift = 16 - bits;
    ((i16::from(v)) << shift) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_field_roundtrip() {
        for op in [AluOp::Add, AluOp::Nand, AluOp::Xor] {
            assert_eq!(AluOp::from_field(op.field()), Some(op));
        }
        assert_eq!(AluOp::from_field(0b11), None);
    }

    #[test]
    fn alu_apply_masks_to_width() {
        assert_eq!(AluOp::Add.apply(0xF, 0x1, 4), 0x0);
        assert_eq!(AluOp::Add.apply(0xFF, 0x02, 8), 0x01);
        assert_eq!(AluOp::Nand.apply(0b1010, 0b0110, 4), 0b1101);
        assert_eq!(AluOp::Xor.apply(0b1010, 0b0110, 4), 0b1100);
    }

    #[test]
    fn nand_of_zero_is_all_ones() {
        // the `nandi 0` idiom from the paper's Listing 1 sets ACC = -1
        assert_eq!(AluOp::Nand.apply(0x3, 0x0, 4), 0xF);
        assert_eq!(AluOp::Nand.apply(0xAB, 0x00, 8), 0xFF);
    }

    #[test]
    fn sign_extend_nibbles() {
        assert_eq!(sign_extend(0xD, 4), -3);
        assert_eq!(sign_extend(0x7, 4), 7);
        assert_eq!(sign_extend(0x8, 4), -8);
        assert_eq!(sign_extend(0x0, 4), 0);
        assert_eq!(sign_extend(0xFF, 8), -1);
    }

    #[test]
    fn dialect_properties() {
        assert_eq!(Dialect::Fc4.datapath_bits(), 4);
        assert_eq!(Dialect::Fc8.datapath_bits(), 8);
        assert_eq!(Dialect::LoadStore.base_instruction_bits(), 16);
        assert_eq!(Dialect::Fc4.to_string(), "fc4");
    }
}
