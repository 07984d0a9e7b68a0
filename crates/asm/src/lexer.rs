//! Line-oriented tokenizer.
//!
//! FlexiCore assembly is simple enough that the lexer works line by line:
//! comments run from `;` to end of line, tokens are separated by whitespace
//! and commas, and a trailing `:` on the first token makes it a label
//! definition.
//!
//! Tokens borrow their text from the source. Identifiers and directives
//! are case-insensitive: one that contains an upper-case letter is folded
//! to lower case (the only copy the lexer makes), every other one stays a
//! slice of the source.

use std::borrow::Cow;

use crate::error::{AsmError, AsmErrorKind};

/// A lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// An identifier: mnemonic, label reference, or condition suffix holder
    /// (e.g. `br.z` lexes as one identifier, split later).
    Ident(Cow<'a, str>),
    /// A register/memory operand `rN`.
    Reg(u8),
    /// An integer literal (decimal, `0x…`, `0b…`, possibly negated).
    Int(i64),
    /// A directive starting with `.` (e.g. `.page`).
    Directive(Cow<'a, str>),
}

/// One non-empty source line: its label and the words after it, not yet
/// lexed.
#[derive(Debug, Clone)]
pub struct Line<'a> {
    /// 1-based line number.
    pub number: usize,
    /// Label defined at the start of this line, if any, case-folded.
    pub label: Option<Cow<'a, str>>,
    /// The words after the label.
    pub words: Words<'a>,
}

impl<'a> Line<'a> {
    /// Split source line `number` (1-based) into its label and words;
    /// `None` for a line with nothing but whitespace and comment.
    ///
    /// # Errors
    ///
    /// [`AsmErrorKind::BadToken`] for a malformed label.
    pub fn split(number: usize, raw: &'a str) -> Result<Option<Line<'a>>, AsmError> {
        let mut words = Words { line: raw, at: 0 };
        let mut after_first = words;
        let Some(first) = after_first.next() else {
            return Ok(None);
        };
        let mut label = None;
        // allow `label:` and `label: insn ...`
        if let Some(name) = first.strip_suffix(':') {
            if name.is_empty() {
                return Err(bad_token(first, number));
            }
            validate_ident(name, number)?;
            label = Some(fold(name));
            words = after_first;
        }
        Ok(Some(Line {
            number,
            label,
            words,
        }))
    }

    /// Lex the next word.
    ///
    /// # Errors
    ///
    /// [`AsmErrorKind::BadToken`] for unlexable text.
    pub fn next_token(&mut self) -> Option<Result<Token<'a>, AsmError>> {
        let word = self.words.next()?;
        Some(lex_token(word, self.number))
    }
}

/// The words of a line: runs of text between spaces, tabs and commas,
/// up to the `;` that starts a comment.
#[derive(Debug, Clone, Copy)]
pub struct Words<'a> {
    line: &'a str,
    at: usize,
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let bytes = self.line.as_bytes();
        let mut i = self.at;
        while i < bytes.len() && is_separator(bytes[i]) {
            i += 1;
        }
        if i == bytes.len() || bytes[i] == b';' {
            self.at = bytes.len();
            return None;
        }
        let start = i;
        while i < bytes.len() && !is_separator(bytes[i]) && bytes[i] != b';' {
            i += 1;
        }
        self.at = i;
        // separators and `;` are ASCII, so both ends are character
        // boundaries
        Some(&self.line[start..i])
    }
}

fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b',')
}

/// `word` in lower case, copied only when it has an upper-case letter.
fn fold(word: &str) -> Cow<'_, str> {
    if word.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(word.to_ascii_lowercase())
    } else {
        Cow::Borrowed(word)
    }
}

/// The first unlexable token of the lines from `from` (0-based) on, if
/// any. Errors rank as if the whole source were lexed before any
/// statement is judged, so such a token outranks a parse error on an
/// earlier line.
#[must_use]
pub(crate) fn first_bad_token(source: &str, from: usize) -> Option<AsmError> {
    for (idx, raw) in source.lines().enumerate().skip(from) {
        let mut line = match Line::split(idx + 1, raw) {
            Ok(Some(line)) => line,
            Ok(None) => continue,
            Err(e) => return Some(e),
        };
        while let Some(token) = line.next_token() {
            if let Err(e) = token {
                return Some(e);
            }
        }
    }
    None
}

fn bad_token(text: &str, line: usize) -> AsmError {
    AsmError::new(
        line,
        AsmErrorKind::BadToken {
            text: text.to_string(),
        },
    )
}

fn validate_ident(name: &str, line: usize) -> Result<(), AsmError> {
    let ok = name
        .bytes()
        .all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'@')
        && name.bytes().next().is_some_and(|c| !c.is_ascii_digit());
    if ok {
        Ok(())
    } else {
        Err(bad_token(name, line))
    }
}

fn lex_token(word: &str, line: usize) -> Result<Token<'_>, AsmError> {
    if let Some(dir) = word.strip_prefix('.') {
        validate_ident(dir, line)?;
        return Ok(Token::Directive(fold(dir)));
    }
    // registers: r0..r15 (lowercase or uppercase)
    if let Some(rest) = word.strip_prefix(['r', 'R']) {
        if let Ok(n) = rest.parse::<u8>() {
            if n < 16 {
                return Ok(Token::Reg(n));
            }
        }
    }
    if let Some(v) = parse_int(word) {
        return Ok(Token::Int(v));
    }
    if word.starts_with(|c: char| c.is_ascii_digit()) || word.starts_with('-') {
        return Err(bad_token(word, line));
    }
    validate_ident(word, line)?;
    Ok(Token::Ident(fold(word)))
}

fn parse_int(word: &str) -> Option<i64> {
    let (neg, body) = match word.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, word),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        i64::from_str_radix(bin, 2).ok()?
    } else if body.bytes().all(|c| c.is_ascii_digit()) && !body.is_empty() {
        body.parse::<i64>().ok()?
    } else {
        return None;
    };
    Some(if neg { -v } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A non-empty line as `(number, label, tokens)`.
    type Lexed<'a> = (usize, Option<String>, Vec<Token<'a>>);

    /// Every non-empty line of `source`.
    fn lex(source: &str) -> Result<Vec<Lexed<'_>>, AsmError> {
        let mut lines = Vec::new();
        for (idx, raw) in source.lines().enumerate() {
            let Some(mut line) = Line::split(idx + 1, raw)? else {
                continue;
            };
            let mut tokens = Vec::new();
            while let Some(token) = line.next_token() {
                tokens.push(token?);
            }
            lines.push((line.number, line.label.map(Cow::into_owned), tokens));
        }
        Ok(lines)
    }

    fn ident(name: &str) -> Token<'_> {
        Token::Ident(Cow::Borrowed(name))
    }

    #[test]
    fn lexes_labels_mnemonics_and_operands() {
        let lines = lex("start:  load r0 ; read input\n  addi -3\n").unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].1.as_deref(), Some("start"));
        assert_eq!(lines[0].2, vec![ident("load"), Token::Reg(0)]);
        assert_eq!(lines[1].2, vec![ident("addi"), Token::Int(-3)]);
    }

    #[test]
    fn skips_blank_and_comment_only_lines() {
        let lines = lex("\n; nothing\n   \n  halt\n").unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].0, 4);
    }

    #[test]
    fn hex_binary_and_negative_literals() {
        let lines = lex("x: addi 0x0F\n y: addi 0b101\n z: addi -8\n w: addi -0x3\n").unwrap();
        assert_eq!(lines[0].2[1], Token::Int(15));
        assert_eq!(lines[1].2[1], Token::Int(5));
        assert_eq!(lines[2].2[1], Token::Int(-8));
        assert_eq!(lines[3].2[1], Token::Int(-3));
    }

    #[test]
    fn commas_are_separators() {
        let lines = lex("add r2, r3\n").unwrap();
        assert_eq!(lines[0].2, vec![ident("add"), Token::Reg(2), Token::Reg(3)]);
    }

    #[test]
    fn directives() {
        let lines = lex(".page 3\n").unwrap();
        assert_eq!(
            lines[0].2,
            vec![Token::Directive(Cow::Borrowed("page")), Token::Int(3)]
        );
    }

    #[test]
    fn label_with_instruction_on_same_line() {
        let lines = lex("loop: addi 1\n").unwrap();
        assert_eq!(lines[0].1.as_deref(), Some("loop"));
        assert_eq!(lines[0].2.len(), 2);
    }

    #[test]
    fn bad_tokens_are_rejected() {
        assert!(lex("addi 12abc\n").is_err());
        assert!(lex(": load r0\n").is_err());
    }

    #[test]
    fn register_out_of_range_is_identifier_error() {
        // r16 is not a register; it also isn't a valid identifier start? it
        // is a valid identifier actually ("r16"), so it lexes as Ident and
        // the parser rejects it later.
        let lines = lex("load r16\n").unwrap();
        assert_eq!(lines[0].2[1], ident("r16"));
    }

    #[test]
    fn dotted_condition_mnemonics_lex_as_single_ident() {
        let lines = lex("br.z done\n").unwrap();
        assert_eq!(lines[0].2, vec![ident("br.z"), ident("done")]);
    }

    #[test]
    fn upper_case_identifiers_and_labels_fold_and_others_borrow() {
        let lines = lex("Loop: LOAD R3\n  .PAGE 1\n  br.Z Done\n").unwrap();
        assert_eq!(lines[0].1.as_deref(), Some("loop"));
        assert_eq!(lines[0].2, vec![ident("load"), Token::Reg(3)]);
        assert_eq!(lines[1].2[0], Token::Directive(Cow::Borrowed("page")));
        assert_eq!(lines[2].2, vec![ident("br.z"), ident("done")]);
        assert!(matches!(fold("loop"), Cow::Borrowed("loop")));
        assert!(matches!(fold("@div_step2"), Cow::Borrowed(_)));
        assert!(matches!(fold("LoOp"), Cow::Owned(ref s) if s == "loop"));
    }

    #[test]
    fn a_later_bad_token_is_found_from_any_line() {
        let src = "nop\n.page 1 2\nx: addi 3q\n";
        assert!(first_bad_token(src, 0).is_some());
        assert_eq!(first_bad_token(src, 1).unwrap().line(), 3);
        assert!(first_bad_token(src, 3).is_none());
        assert!(first_bad_token("nop\n9x: nop\n", 0).is_some());
    }
}
