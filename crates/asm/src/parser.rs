//! Statement parser.
//!
//! Turns source lines into a flat statement list, lexing and parsing each
//! line in one pass. Mnemonics and conditions stay slices of the source;
//! label names become [`LabelId`]s of one [`Symbols`] table as they are
//! parsed. Mnemonic validity and operand shapes are checked later, during
//! expansion, where the target dialect is known.

use std::borrow::Cow;
use std::ops::Range;

use crate::error::{AsmError, AsmErrorKind};
use crate::ir::{LabelId, Symbols};
use crate::lexer::{first_bad_token, Line, Token};

/// An instruction operand as written in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Register / data-memory word `rN`.
    Reg(u8),
    /// Immediate literal.
    Imm(i64),
    /// Label reference.
    Label(LabelId),
}

/// One parsed statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt<'a> {
    /// Label definition.
    Label {
        /// The label.
        id: LabelId,
        /// Source line.
        line: usize,
    },
    /// `.page n` — subsequent code is placed in MMU page `n`.
    Page {
        /// The page number (0..16).
        page: u8,
        /// Source line.
        line: usize,
    },
    /// An instruction or pseudo-instruction.
    Insn {
        /// Lower-cased mnemonic (without condition suffix).
        mnemonic: Cow<'a, str>,
        /// Condition suffix for branches (`z` in `br.z`), if present.
        cond: Option<Cow<'a, str>>,
        /// Operands in source order: a range of [`Parsed::operands`].
        operands: Range<usize>,
        /// Source line.
        line: usize,
    },
}

impl Stmt<'_> {
    /// The source line of this statement.
    #[must_use]
    pub fn line(&self) -> usize {
        match self {
            Stmt::Label { line, .. } | Stmt::Page { line, .. } | Stmt::Insn { line, .. } => *line,
        }
    }
}

/// A parsed source: its statements, the operands they index, and the
/// labels they name.
#[derive(Debug, Clone, Default)]
pub struct Parsed<'a> {
    /// Statements in source order.
    pub stmts: Vec<Stmt<'a>>,
    /// The operands of every instruction, in source order.
    pub operands: Vec<Operand>,
    /// Every label the source defines or references.
    pub symbols: Symbols<'a>,
}

/// Parse a complete source text.
///
/// # Errors
///
/// Reports unlexable tokens, malformed directives or operands. As if the
/// whole source were lexed first, an unlexable token anywhere outranks a
/// malformed statement on an earlier line.
pub fn parse(source: &str) -> Result<Parsed<'_>, AsmError> {
    let mut parsed = Parsed::default();
    for (idx, raw) in source.lines().enumerate() {
        if let Err(e) = parsed.line(idx + 1, raw) {
            if matches!(e.kind(), AsmErrorKind::BadToken { .. }) {
                return Err(e);
            }
            return Err(first_bad_token(source, idx).unwrap_or(e));
        }
    }
    Ok(parsed)
}

impl<'a> Parsed<'a> {
    fn line(&mut self, n: usize, raw: &'a str) -> Result<(), AsmError> {
        let Some(mut line) = Line::split(n, raw)? else {
            return Ok(());
        };
        if let Some(name) = line.label.take() {
            let id = self.symbols.intern(name);
            self.stmts.push(Stmt::Label { id, line: n });
        }
        let Some(head) = line.next_token().transpose()? else {
            return Ok(());
        };
        match head {
            Token::Directive(d) if d == "page" => {
                let page = match line.next_token().transpose()? {
                    Some(Token::Int(v)) if (0..16).contains(&v) => v as u8,
                    Some(Token::Int(v)) => {
                        return Err(AsmError::new(
                            n,
                            AsmErrorKind::OutOfRange {
                                what: "page number".into(),
                                value: v,
                                range: (0, 15),
                            },
                        ))
                    }
                    _ => {
                        return Err(AsmError::new(
                            n,
                            AsmErrorKind::Syntax {
                                message: "`.page` takes one integer argument".into(),
                            },
                        ))
                    }
                };
                if line.words.next().is_some() {
                    return Err(AsmError::new(
                        n,
                        AsmErrorKind::Syntax {
                            message: "unexpected tokens after `.page n`".into(),
                        },
                    ));
                }
                self.stmts.push(Stmt::Page { page, line: n });
                Ok(())
            }
            Token::Directive(d) => Err(AsmError::new(
                n,
                AsmErrorKind::Syntax {
                    message: format!("unknown directive `.{d}`"),
                },
            )),
            Token::Ident(name) => {
                let (mnemonic, cond) = split_cond(name);
                let start = self.operands.len();
                while let Some(token) = line.next_token() {
                    let operand = match token? {
                        Token::Reg(r) => Operand::Reg(r),
                        Token::Int(v) => Operand::Imm(v),
                        Token::Ident(l) => Operand::Label(self.symbols.intern(l)),
                        Token::Directive(d) => {
                            return Err(AsmError::new(
                                n,
                                AsmErrorKind::Syntax {
                                    message: format!("directive `.{d}` cannot be an operand"),
                                },
                            ))
                        }
                    };
                    self.operands.push(operand);
                }
                self.stmts.push(Stmt::Insn {
                    mnemonic,
                    cond,
                    operands: start..self.operands.len(),
                    line: n,
                });
                Ok(())
            }
            other => Err(AsmError::new(
                n,
                AsmErrorKind::Syntax {
                    message: format!("expected a mnemonic or directive, found {other:?}"),
                },
            )),
        }
    }
}

/// Split `br.z` into the mnemonic `br` and the condition `z`.
fn split_cond(name: Cow<'_, str>) -> (Cow<'_, str>, Option<Cow<'_, str>>) {
    let at = match name.bytes().position(|b| b == b'.') {
        Some(at) if at > 0 && at + 1 < name.len() => at,
        _ => return (name, None),
    };
    match name {
        Cow::Borrowed(name) => (
            Cow::Borrowed(&name[..at]),
            Some(Cow::Borrowed(&name[at + 1..])),
        ),
        Cow::Owned(name) => (
            Cow::Owned(name[..at].to_string()),
            Some(Cow::Owned(name[at + 1..].to_string())),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insn<'p>(parsed: &'p Parsed<'_>, i: usize) -> (&'p str, Option<&'p str>, &'p [Operand]) {
        match &parsed.stmts[i] {
            Stmt::Insn {
                mnemonic,
                cond,
                operands,
                ..
            } => (
                mnemonic,
                cond.as_deref(),
                &parsed.operands[operands.clone()],
            ),
            other => panic!("not an instruction: {other:?}"),
        }
    }

    #[test]
    fn parses_labels_and_instructions() {
        let parsed = parse("loop: load r0\n  br loop\n").unwrap();
        assert_eq!(parsed.stmts.len(), 3);
        let Stmt::Label { id, .. } = parsed.stmts[0] else {
            panic!("a label first");
        };
        assert_eq!(parsed.symbols.name(id).to_string(), "loop");
        assert_eq!(insn(&parsed, 1), ("load", None, &[Operand::Reg(0)][..]));
        assert_eq!(insn(&parsed, 2), ("br", None, &[Operand::Label(id)][..]));
    }

    #[test]
    fn condition_suffix_split() {
        let parsed = parse("br.nz top\nBR.NZ top\nbr. top\n").unwrap();
        assert_eq!(insn(&parsed, 0).0, "br");
        assert_eq!(insn(&parsed, 0).1, Some("nz"));
        assert_eq!(insn(&parsed, 1).0, "br");
        assert_eq!(insn(&parsed, 1).1, Some("nz"));
        assert_eq!(insn(&parsed, 2).0, "br.");
        assert_eq!(insn(&parsed, 2).1, None);
    }

    #[test]
    fn page_directive() {
        let parsed = parse(".page 2\n").unwrap();
        assert!(matches!(parsed.stmts[0], Stmt::Page { page: 2, .. }));
        assert!(parse(".page 16\n").is_err());
        assert!(parse(".page\n").is_err());
        assert!(parse(".unknown 1\n").is_err());
    }

    #[test]
    fn mixed_operands() {
        let parsed = parse("movi r2, 7\n").unwrap();
        assert_eq!(insn(&parsed, 0).2, &[Operand::Reg(2), Operand::Imm(7)]);
    }

    #[test]
    fn label_definitions_and_references_share_one_id_whatever_their_case() {
        let parsed = parse("Loop: nop\n  jmp LOOP\n  jmp loop\n").unwrap();
        let Stmt::Label { id, .. } = parsed.stmts[0] else {
            panic!("a label first");
        };
        assert_eq!(insn(&parsed, 2).2, &[Operand::Label(id)]);
        assert_eq!(insn(&parsed, 3).2, &[Operand::Label(id)]);
        assert_eq!(parsed.symbols.len(), 1);
    }
}
