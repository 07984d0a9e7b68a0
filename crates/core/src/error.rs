//! Error types for simulation and instruction decoding.

use core::fmt;

/// Errors produced while simulating a FlexiCore.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The program counter advanced past the end of the loaded program image
    /// and no instruction byte exists at the fetch address.
    ///
    /// On real silicon the fetch bus would float; the simulator treats it as
    /// a hard error so buggy programs are caught instead of executing noise.
    FetchOutOfBounds {
        /// The full (page-extended) fetch address.
        address: u32,
        /// The size of the loaded program image in bytes.
        program_len: usize,
    },
    /// An instruction byte did not decode to a legal instruction for the
    /// active ISA dialect.
    IllegalInstruction {
        /// The offending raw encoding (low byte, or both bytes for
        /// two-byte formats).
        raw: u16,
        /// The full fetch address of the instruction.
        address: u32,
    },
    /// The cycle budget given to [`run`](crate::exec::Core::run) was
    /// exhausted before the program reached its halt idiom.
    CycleLimitExceeded {
        /// The budget that was exhausted.
        limit: u64,
    },
    /// A two-byte instruction (e.g. FlexiCore8 `LOAD BYTE`) straddled the end
    /// of the program image, leaving no byte to fetch for its payload.
    TruncatedInstruction {
        /// The full fetch address of the first (opcode) byte.
        address: u32,
    },
    /// The MMU page register selects a page that starts beyond the end
    /// of the loaded program image.
    ///
    /// A healthy program can only reach a page it actually branched to,
    /// so this indicates a corrupted page register or pending-commit
    /// latch (a §5.1 MMU fault site). The engine raises it *before* the
    /// fetch, so a resilient executor sees a recoverable lane fault
    /// instead of silently running noise from an unmapped page.
    PageOutOfRange {
        /// The 4-bit page the MMU selected.
        page: u8,
        /// The size of the loaded program image in bytes.
        program_len: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::FetchOutOfBounds {
                address,
                program_len,
            } => write!(
                f,
                "instruction fetch at address {address:#06x} is outside the \
                 {program_len}-byte program image"
            ),
            SimError::IllegalInstruction { raw, address } => write!(
                f,
                "illegal instruction encoding {raw:#06x} at address {address:#06x}"
            ),
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "program did not halt within {limit} cycles")
            }
            SimError::TruncatedInstruction { address } => write!(
                f,
                "two-byte instruction at address {address:#06x} is truncated \
                 by the end of the program image"
            ),
            SimError::PageOutOfRange { page, program_len } => write!(
                f,
                "mmu page register selects page {page} but the \
                 {program_len}-byte program image ends before it"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Errors produced while decoding a single instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The encoding does not correspond to any instruction of the dialect.
    Illegal {
        /// The raw encoding that failed to decode.
        raw: u16,
    },
    /// The encoding is the first byte of a two-byte instruction and the
    /// second byte was not supplied.
    NeedsSecondByte {
        /// The raw first byte.
        raw: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Illegal { raw } => {
                write!(f, "illegal instruction encoding {raw:#06x}")
            }
            DecodeError::NeedsSecondByte { raw } => write!(
                f,
                "encoding {raw:#04x} is the first byte of a two-byte \
                 instruction; the second byte is required to decode it"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_error_messages_are_lowercase_and_informative() {
        let e = SimError::FetchOutOfBounds {
            address: 0x80,
            program_len: 16,
        };
        let msg = e.to_string();
        assert!(msg.contains("0x0080"));
        assert!(msg.contains("16-byte"));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn decode_error_display() {
        let e = DecodeError::Illegal { raw: 0x1ff };
        assert!(e.to_string().contains("0x01ff"));
        let e = DecodeError::NeedsSecondByte { raw: 0x08 };
        assert!(e.to_string().contains("two-byte"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
        assert_send_sync::<DecodeError>();
    }
}
