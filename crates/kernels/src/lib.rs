//! # flexkernels
//!
//! The seven benchmark kernels of the FlexiCores paper (Table 6, §5.1),
//! written once in `flexasm`'s feature-conditional assembly so a single
//! source builds for the base FlexiCore4 ISA **and** for every
//! design-space-exploration configuration (§6).
//!
//! | kernel | type (paper) | input protocol |
//! |---|---|---|
//! | Calculator | interactive | op (0 add, 1 sub, 2 mul, 3 div), a, b |
//! | Four-tap FIR | streaming | 8 signed 4-bit samples |
//! | Decision Tree | reactive | 3 features (0..=7) |
//! | IntAvg | streaming | 8 samples (0..=7) |
//! | Thresholding | streaming | 8 samples, 8-bit, two nibbles each |
//! | Parity Check | reactive | 8-bit word as two nibbles, low first |
//! | XorShift8 | reactive | 8-bit state as two nibbles, low first |
//!
//! Each kernel comes with a golden Rust [`oracle`] that predicts the exact
//! output-port byte stream (including the zero separators and, for the
//! paged Calculator, the MMU escape sequences), plus an input-space
//! sampler ([`inputs`]) used by the Figure 8 experiments.
//!
//! ```
//! use flexkernels::Kernel;
//! use flexasm::Target;
//!
//! // parity of 0x53 (0101_0011): four bits set -> parity 0
//! let run = Kernel::ParityCheck.run(Target::fc4(), &[0x3, 0x5])?;
//! assert!(run.verified);
//! assert_eq!(run.outputs, vec![0]);
//! # Ok::<(), flexkernels::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fc8_demo;
pub mod harness;
pub mod inputs;
pub mod oracle;
pub mod sources;

pub use harness::{BatchCase, KernelRun, RunError, Verdict};

use flexasm::{AsmError, Assembler, Assembly, Target};

/// The seven benchmark kernels of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kernel {
    /// Four-function calculator (interactive; uses MMU pages).
    Calculator,
    /// Four-tap FIR filter, coefficients in {−1, 1} (streaming).
    FirFilter,
    /// Depth-4 decision-tree inference over 3 features (reactive).
    DecisionTree,
    /// Exponential-smoothing integer average (streaming).
    IntAvg,
    /// Stream thresholding with a sticky flag (streaming).
    Thresholding,
    /// 8-bit parity (reactive).
    ParityCheck,
    /// 8-bit xorshift PRNG step, triple (3, 5, 7) (reactive).
    XorShift8,
}

impl Kernel {
    /// All kernels, in the paper's Table 6 order.
    pub const ALL: [Kernel; 7] = [
        Kernel::Calculator,
        Kernel::FirFilter,
        Kernel::DecisionTree,
        Kernel::IntAvg,
        Kernel::Thresholding,
        Kernel::ParityCheck,
        Kernel::XorShift8,
    ];

    /// Display name matching the paper's tables and figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Calculator => "Calculator",
            Kernel::FirFilter => "Four-tap FIR",
            Kernel::DecisionTree => "Decision Tree",
            Kernel::IntAvg => "IntAvg",
            Kernel::Thresholding => "Thresholding",
            Kernel::ParityCheck => "Parity Check",
            Kernel::XorShift8 => "XorShift8",
        }
    }

    /// The paper's reported static instruction count (Table 6), for
    /// side-by-side reporting in EXPERIMENTS.md.
    #[must_use]
    pub fn paper_static_instructions(self) -> usize {
        match self {
            Kernel::Calculator => 352,
            Kernel::FirFilter => 177,
            Kernel::DecisionTree => 210,
            Kernel::IntAvg => 132,
            Kernel::Thresholding => 102,
            Kernel::ParityCheck => 105,
            Kernel::XorShift8 => 186,
        }
    }

    /// Whether the kernel has a program for `dialect`.
    ///
    /// Everything builds for the 4-bit dialects. FlexiCore8's four data
    /// words (two of them the IO ports) fit only the kernels that live in
    /// two scratch registers — currently [`Kernel::ParityCheck`] — which
    /// is the §3.3 capacity trade-off the paper describes.
    #[must_use]
    pub fn supports(self, dialect: flexicore::isa::Dialect) -> bool {
        match dialect {
            flexicore::isa::Dialect::Fc8 => matches!(self, Kernel::ParityCheck),
            _ => true,
        }
    }

    /// Whether the kernel processes a stream (latency/energy reported per
    /// input) rather than a single activation.
    #[must_use]
    pub fn is_streaming(self) -> bool {
        matches!(
            self,
            Kernel::FirFilter | Kernel::IntAvg | Kernel::Thresholding
        )
    }

    /// Number of input items one execution consumes (streaming kernels
    /// process [`STREAM_LEN`] samples; reactive/interactive ones a fixed
    /// tuple).
    #[must_use]
    pub fn inputs_per_run(self) -> usize {
        match self {
            Kernel::Calculator => 3,
            Kernel::FirFilter | Kernel::IntAvg => STREAM_LEN,
            // 8-bit samples arrive as two nibbles each
            Kernel::Thresholding => STREAM_LEN * 2,
            Kernel::DecisionTree => 3,
            Kernel::ParityCheck | Kernel::XorShift8 => 2,
        }
    }

    /// The accumulator-dialect assembly source for this kernel.
    #[must_use]
    pub fn source(self) -> String {
        sources::source(self)
    }

    /// The assembly source for this kernel on a given dialect.
    #[must_use]
    pub fn source_for(self, dialect: flexicore::isa::Dialect) -> String {
        sources::source_for(self, dialect)
    }

    /// Assemble for `target`.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors (e.g. a feature-gated mnemonic with no
    /// software expansion on the chosen target).
    pub fn assemble(self, target: Target) -> Result<Assembly, AsmError> {
        Assembler::new(target).assemble(&self.source_for(target.dialect))
    }

    /// Run on the functional simulator for `target` with the given input
    /// values, verifying against the oracle.
    ///
    /// # Errors
    ///
    /// Assembly errors, simulator faults, oracle mismatches or cycle-limit
    /// overruns — see [`RunError`].
    pub fn run(self, target: Target, inputs: &[u8]) -> Result<KernelRun, RunError> {
        harness::PreparedKernel::new(self, target)?.run_with(
            inputs,
            harness::CYCLE_BUDGET,
            &mut flexicore::sim::NoFaults,
        )
    }
}

impl core::fmt::Display for Kernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Samples consumed per execution by the streaming kernels.
pub const STREAM_LEN: usize = 8;
