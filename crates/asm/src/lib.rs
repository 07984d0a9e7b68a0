//! # flexasm
//!
//! An assembler for the FlexiCore ISA family (the paper used "a custom
//! assembler written in Python", §5.1 — this is its Rust equivalent, with
//! one major addition: **feature-conditional pseudo-instruction
//! expansion**, which is what lets one kernel source build for every point
//! of the paper's design-space exploration).
//!
//! ## Dialects
//!
//! A [`Target`] pairs a [`Dialect`](flexicore::isa::Dialect) with a
//! [`FeatureSet`](flexicore::isa::features::FeatureSet). Pseudo-instructions
//! such as `jmp`, `ldi`, `sub`, `or`, `lsr1` expand to single hardware
//! instructions when the corresponding ISA extension is enabled and to the
//! (sometimes much longer) base-ISA sequences otherwise — reproducing, for
//! example, the paper's Listing 1 observation that a right shift costs tens
//! of instructions on the base ISA.
//!
//! ## Example
//!
//! ```
//! use flexasm::{Assembler, Target};
//!
//! let src = "
//!     ; add 3 to the input and emit it
//!     load  r0
//!     addi  3
//!     store r1
//!     halt
//! ";
//! let asm = Assembler::new(Target::fc4());
//! let out = asm.assemble(src)?;
//! assert_eq!(out.static_instructions(), 5); // halt expands to 2
//! # Ok::<(), flexasm::AsmError>(())
//! ```
//!
//! ## Syntax
//!
//! * one statement per line; `;` starts a comment
//! * `label:` defines a label at the current address
//! * mnemonics, labels and directives are case-insensitive: `Loop:`
//!   defines the label `jmp loop` jumps to
//! * `.page n` starts a new 128-byte program page (requires the off-chip
//!   MMU at run time)
//! * immediates: decimal (possibly negative), `0x…` hex or `0b…` binary
//! * memory operands / registers are written `r0`–`r15`
//!
//! See [`expand`] for the full pseudo-instruction catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assemble;
pub mod disasm;
pub mod error;
pub mod expand;
pub mod ir;
pub mod lexer;
pub mod parser;
pub mod target;

pub use assemble::{Assembler, Assembly};
pub use error::AsmError;
pub use target::{Target, TargetParseError};
