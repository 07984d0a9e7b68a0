//! Disassembler — decodes program images back to mnemonics.
//!
//! Used by listings, debugging and the round-trip property tests.

use flexicore::isa::{acc, xls, Dialect};
use flexicore::program::Program;

/// One disassembled instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisasmLine {
    /// Byte address of the first byte.
    pub address: u32,
    /// Encoded length in bytes.
    pub len: usize,
    /// Mnemonic text, or a `.byte`/`.half` escape for undecodable data.
    pub text: String,
}

/// Disassemble a full program image for `dialect`.
///
/// Undecodable bytes are rendered as `.byte 0x…` (accumulator dialects) or
/// `.half 0x…` (load-store) so the output always covers the whole image —
/// padding between MMU pages shows up this way.
#[must_use]
pub fn disassemble(dialect: Dialect, program: &Program) -> Vec<DisasmLine> {
    let bytes = program.as_bytes();
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let window = &bytes[at..];
        let (text, len) = match dialect {
            Dialect::Fc4 | Dialect::Fc8 | Dialect::ExtendedAcc => {
                match acc::Instruction::decode(window, dialect) {
                    Ok((i, n)) => (i.in_dialect(dialect).to_string(), n),
                    Err(_) => (format!(".byte {:#04x}", window[0]), 1),
                }
            }
            Dialect::LoadStore => {
                if window.len() >= 2 {
                    let h = (u16::from(window[0]) << 8) | u16::from(window[1]);
                    match xls::Instruction::decode(h) {
                        Ok(i) => (i.to_string(), 2),
                        Err(_) => (format!(".half {h:#06x}"), 2),
                    }
                } else {
                    (format!(".byte {:#04x}", window[0]), 1)
                }
            }
        };
        out.push(DisasmLine {
            address: at as u32,
            len,
            text,
        });
        at += len;
    }
    out
}

/// Render a disassembly as text, one instruction per line.
#[must_use]
pub fn disassemble_text(dialect: Dialect, program: &Program) -> String {
    use core::fmt::Write;
    let mut s = String::new();
    for line in disassemble(dialect, program) {
        let _ = writeln!(s, "{:04x}  {}", line.address, line.text);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assembler, Target};

    #[test]
    fn fc4_roundtrip_text() {
        let out = Assembler::new(Target::fc4())
            .assemble("load r0\naddi 3\nstore r1\n")
            .unwrap();
        let text = disassemble_text(Dialect::Fc4, out.program());
        assert!(text.contains("load r0"));
        assert!(text.contains("addi 3"));
        assert!(text.contains("store r1"));
    }

    #[test]
    fn covers_whole_image_including_padding() {
        let src = "nop\n.page 1\nhalt\n";
        let out = Assembler::new(Target::fc4()).assemble(src).unwrap();
        let lines = disassemble(Dialect::Fc4, out.program());
        let covered: usize = lines.iter().map(|l| l.len).sum();
        assert_eq!(covered, out.program().len());
    }

    #[test]
    fn ls_halfwords() {
        let out = Assembler::new(Target::xls_revised())
            .assemble("add r2, r3\nret\n")
            .unwrap();
        let text = disassemble_text(Dialect::LoadStore, out.program());
        assert!(text.contains("add r2, r3"));
        assert!(text.contains("ret"));
    }

    #[test]
    fn undecodable_bytes_render_as_data() {
        // 0x08 is reserved in fc4
        let p = Program::from_bytes(vec![0x08]);
        let lines = disassemble(Dialect::Fc4, &p);
        assert_eq!(lines[0].text, ".byte 0x08");
    }
}
