//! flexcheck — dialect-generic static analysis for FlexiCore images.
//!
//! The field-reprogrammable flow (paper §5) loads arbitrary program
//! images over the MMU link; nothing rejected a bad image before it was
//! burned into the ECC store and the first sign of a bug was a watchdog
//! `Hung` verdict. This crate analyzes an assembled [`Program`] for any
//! of the four dialects *before* it runs:
//!
//! * a control-flow graph over page-extended program counters,
//!   respecting the off-chip MMU page model (escape sequence, commit
//!   delay) of [`flexicore::mmu`];
//! * an abstract-interpretation dataflow pass over flat
//!   constant-propagation lattices ([`abs`]), whose transfer function
//!   ([`sem`]) mirrors the generic execution engine step-for-step and
//!   reuses the `flexicore::isa` decoders — there is no second decoder;
//! * a lint catalogue ([`report::Lint`]): illegal/truncated encodings,
//!   off-image fetches, static hangs (no reachable halt idiom), reads
//!   of never-written state, accidental MMU escape arming, page
//!   straddles, dead code, and conservative worst-case cycle bounds.
//!
//! The correctness story is **differential soundness** ([`soundness`]):
//! seeded campaigns generate random programs and check every lint's
//! claim against ground truth from the concrete engine — an address
//! flagged unreachable is never fetched, a program with a static-hang
//! finding never halts, a cycle bound is never exceeded, and a program
//! with no uninit-read findings is invariant under power-on memory
//! perturbation.
//!
//! ```
//! use flexasm::{Assembler, Target};
//! use flexcheck::{analyze, Severity};
//!
//! let asm = Assembler::new(Target::fc4())
//!     .assemble("start: addi 1\n  store r2\n  halt\n")
//!     .unwrap();
//! let report = flexcheck::check_assembly(&asm);
//! assert!(!report.has_at_least(Severity::Error), "{}", report.render());
//! assert!(report.halt_reachable);
//! ```

pub mod abs;
pub mod cfg;
pub mod report;
pub mod sem;
pub mod soundness;
pub mod vuln;

use flexasm::Assembly;
use flexasm::Target;
use flexicore::Program;

pub use report::{CheckReport, Finding, Lint, Severity};

/// Analyze an assembled program image for the given target.
#[must_use]
pub fn analyze(target: &Target, program: &Program) -> CheckReport {
    cfg::analyze(target, program)
}

/// Analyze the output of the assembler (target taken from the
/// assembly itself).
#[must_use]
pub fn check_assembly(assembly: &Assembly) -> CheckReport {
    cfg::analyze(&assembly.target(), assembly.program())
}

/// The static admission gate shared by every service-style entry point
/// (the field-reprogramming link's image gate, the toolchain daemon's
/// `link-admit` request): refuse `program` when the analyzer reports
/// any finding at or above `deny` severity.
///
/// # Errors
///
/// The refusing findings, ordered as the analyzer reported them.
pub fn admit(target: &Target, program: &Program, deny: Severity) -> Result<(), Vec<Finding>> {
    let report = cfg::analyze(target, program);
    let findings: Vec<Finding> = report.at_least(deny).into_iter().cloned().collect();
    if findings.is_empty() {
        Ok(())
    } else {
        Err(findings)
    }
}
