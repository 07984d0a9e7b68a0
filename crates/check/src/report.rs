//! Findings, severities and the analysis report.

use std::collections::BTreeSet;

/// How bad a finding is.
///
/// The ordering is semantic: `Info < Warning < Error`, so severity
/// filters can use plain comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: dead code, analysis-precision notes.
    Info,
    /// Probably a bug, but the program can still run: reads of
    /// never-written state, accidental MMU arming, page-straddling
    /// fetches.
    Warning,
    /// The program will fault or hang if the flagged point is reached:
    /// illegal encodings, off-image fetches, no reachable halt.
    Error,
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

impl Severity {
    /// Parse a severity name as used by CLI flags (`info`, `warning`,
    /// `error`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Severity> {
        match name {
            "info" => Some(Severity::Info),
            "warning" | "warn" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// The lint catalogue (DESIGN.md §10.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// A reachable address decodes to a reserved or feature-gated
    /// encoding; executing it raises `IllegalInstruction`.
    IllegalEncoding,
    /// A reachable two-byte instruction starts on the image's last
    /// byte; executing it raises `TruncatedInstruction`.
    TruncatedEncoding,
    /// A reachable fetch address lies beyond the image; executing it
    /// raises `FetchOutOfBounds`.
    OffImageFetch,
    /// A page change commits a page whose base lies beyond the image;
    /// the next step raises `PageOutOfRange`.
    PageOutOfImage,
    /// No reachable path can execute the halt idiom (a taken
    /// control transfer to its own address): every error-free run
    /// spins until the watchdog expires.
    StaticHang,
    /// A read of a data word (or register) that no reachable path has
    /// written: the program depends on power-on state.
    UninitRead,
    /// Output writes may spell the MMU escape prefix and arm a page
    /// change in a single-page program — an accidental trigger.
    EscapeArming,
    /// A two-byte instruction straddles a 128-byte page boundary: its
    /// second byte is fetched from the *next* page while the PC wraps
    /// within the current one.
    PageStraddle,
    /// Bytes no reachable instruction covers (dead code or data).
    Unreachable,
    /// A page change commits a data-dependent page number: for *some*
    /// input the committed page may lie beyond the image and the next
    /// step raises `PageOutOfRange`. Warning, not error — unlike
    /// [`Lint::PageOutOfImage`] the bad page is input-chosen, not
    /// hard-coded.
    WildPageCommit,
    /// The abstract interpretation gave up before converging;
    /// reachability-based lints are suppressed.
    Imprecise,
}

impl Lint {
    /// The severity class of this lint.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Lint::IllegalEncoding
            | Lint::TruncatedEncoding
            | Lint::OffImageFetch
            | Lint::PageOutOfImage
            | Lint::StaticHang => Severity::Error,
            Lint::UninitRead | Lint::EscapeArming | Lint::PageStraddle | Lint::WildPageCommit => {
                Severity::Warning
            }
            Lint::Unreachable | Lint::Imprecise => Severity::Info,
        }
    }

    /// Short machine-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lint::IllegalEncoding => "illegal-encoding",
            Lint::TruncatedEncoding => "truncated-encoding",
            Lint::OffImageFetch => "off-image-fetch",
            Lint::PageOutOfImage => "page-out-of-image",
            Lint::StaticHang => "static-hang",
            Lint::UninitRead => "uninit-read",
            Lint::EscapeArming => "escape-arming",
            Lint::PageStraddle => "page-straddle",
            Lint::Unreachable => "unreachable",
            Lint::WildPageCommit => "wild-page-commit",
            Lint::Imprecise => "imprecise",
        }
    }
}

/// One analysis finding, anchored to a fetch address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Severity (always `lint.severity()`).
    pub severity: Severity,
    /// The full fetch address the finding is anchored to (byte address;
    /// `page << 7 | pc` on the byte-addressed dialects).
    pub address: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl core::fmt::Display for Finding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: [{}] {:#06x}: {}",
            self.severity,
            self.lint.name(),
            self.address,
            self.message
        )
    }
}

/// The result of analyzing one program image.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// All findings, sorted by address then lint.
    pub findings: Vec<Finding>,
    /// Fetch addresses of every instruction the abstract interpretation
    /// can reach. When [`CheckReport::exact`] is true this is a sound
    /// over-approximation: no concrete run fetches outside it.
    pub reachable: BTreeSet<u32>,
    /// Image bytes covered by reachable instructions.
    pub covered_bytes: BTreeSet<u32>,
    /// Whether the reachability result is a sound over-approximation.
    /// False when the MMU automaton lost precision (a page change with
    /// a non-constant page value), in which case reachability-derived
    /// lints are suppressed and `reachable` is not a claim.
    pub exact: bool,
    /// Whether some reachable path can execute the halt idiom.
    /// Meaningful only when `exact`.
    pub halt_reachable: bool,
    /// Whether any reachable path may arm an MMU page change.
    pub may_change_page: bool,
    /// A worst-case clock-cycle bound: `Some(b)` means every error-free
    /// run halts within `b` cycles (the reachable CFG is acyclic).
    pub cycle_bound: Option<u64>,
    /// Worst-case retired-instruction bound, same contract.
    pub instruction_bound: Option<u64>,
    /// Number of distinct reachable instructions.
    pub reachable_instructions: usize,
    /// Image size in bytes.
    pub image_bytes: usize,
}

impl CheckReport {
    /// Findings at or above `severity`.
    #[must_use]
    pub fn at_least(&self, severity: Severity) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity >= severity)
            .collect()
    }

    /// Whether any finding is at or above `severity`.
    #[must_use]
    pub fn has_at_least(&self, severity: Severity) -> bool {
        self.findings.iter().any(|f| f.severity >= severity)
    }

    /// Bytes covered by reachable instructions.
    #[must_use]
    pub fn reachable_bytes(&self) -> usize {
        self.covered_bytes.len()
    }

    /// Render every finding, one per line, plus a one-line summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        let errors = self.at_least(Severity::Error).len();
        let warnings = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count();
        out.push_str(&format!(
            "{} reachable instruction(s), {} byte(s) of {}; {} error(s), {} warning(s)\n",
            self.reachable_instructions,
            self.reachable_bytes(),
            self.image_bytes,
            errors,
            warnings,
        ));
        out
    }
}
