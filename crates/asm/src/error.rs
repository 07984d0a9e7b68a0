//! Assembler error type.

use core::fmt;

use flexicore::isa::features::Feature;

/// An error produced while assembling a source file.
///
/// Every error carries the 1-based source line it was detected on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    line: usize,
    kind: AsmErrorKind,
}

/// The specific failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsmErrorKind {
    /// A token could not be lexed.
    BadToken {
        /// The offending text.
        text: String,
    },
    /// The statement did not parse (wrong operand count/kind, unknown
    /// mnemonic, malformed directive…).
    Syntax {
        /// Human-readable description.
        message: String,
    },
    /// A mnemonic that exists in the family but not in the target dialect
    /// or feature configuration, with no software expansion available.
    Unsupported {
        /// The mnemonic.
        mnemonic: String,
        /// Why it is unavailable.
        reason: String,
        /// The ISA extension that would make it available, if one would.
        feature: Option<Feature>,
    },
    /// An immediate or address operand is outside its field range.
    OutOfRange {
        /// What was out of range.
        what: String,
        /// The offending value.
        value: i64,
        /// Allowed range, inclusive.
        range: (i64, i64),
    },
    /// A label was referenced but never defined.
    UndefinedLabel {
        /// The label name.
        name: String,
    },
    /// A label was defined more than once.
    DuplicateLabel {
        /// The label name.
        name: String,
    },
    /// A branch targets a label in a different 128-byte page; use `pjmp`.
    CrossPageBranch {
        /// The label name.
        name: String,
        /// Page holding the branch.
        from_page: u8,
        /// Page holding the target.
        to_page: u8,
    },
    /// A page overflowed its 128 bytes.
    PageOverflow {
        /// The page number that overflowed.
        page: u8,
        /// Bytes the page's code actually needs.
        bytes: usize,
    },
}

impl AsmError {
    pub(crate) fn new(line: usize, kind: AsmErrorKind) -> Self {
        AsmError { line, kind }
    }

    /// 1-based source line the error was detected on.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }

    /// The specific failure.
    #[must_use]
    pub fn kind(&self) -> &AsmErrorKind {
        &self.kind
    }

    /// The ISA extension the target lacks, when that is why the source
    /// does not assemble.
    #[must_use]
    pub fn missing_feature(&self) -> Option<Feature> {
        match self.kind {
            AsmErrorKind::Unsupported { feature, .. } => feature,
            _ => None,
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            AsmErrorKind::BadToken { text } => write!(f, "unrecognised token `{text}`"),
            AsmErrorKind::Syntax { message } => write!(f, "{message}"),
            AsmErrorKind::Unsupported {
                mnemonic, reason, ..
            } => {
                write!(f, "`{mnemonic}` is not available on this target: {reason}")
            }
            AsmErrorKind::OutOfRange { what, value, range } => write!(
                f,
                "{what} value {value} is outside the allowed range {}..={}",
                range.0, range.1
            ),
            AsmErrorKind::UndefinedLabel { name } => write!(f, "undefined label `{name}`"),
            AsmErrorKind::DuplicateLabel { name } => write!(f, "duplicate label `{name}`"),
            AsmErrorKind::CrossPageBranch {
                name,
                from_page,
                to_page,
            } => write!(
                f,
                "branch to `{name}` crosses from page {from_page} to page {to_page}; \
                 use `pjmp` for cross-page transfers"
            ),
            AsmErrorKind::PageOverflow { page, bytes } => {
                write!(f, "page {page} needs {bytes} bytes but pages are 128 bytes")
            }
        }
    }
}

impl std::error::Error for AsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line_number() {
        let e = AsmError::new(
            7,
            AsmErrorKind::UndefinedLabel {
                name: "loop".into(),
            },
        );
        assert_eq!(e.to_string(), "line 7: undefined label `loop`");
        assert_eq!(e.line(), 7);
    }

    #[test]
    fn out_of_range_message() {
        let e = AsmError::new(
            2,
            AsmErrorKind::OutOfRange {
                what: "immediate".into(),
                value: 99,
                range: (-8, 7),
            },
        );
        assert!(e.to_string().contains("-8..=7"));
    }
}
