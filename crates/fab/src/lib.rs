//! # flexfab
//!
//! A virtual FlexLogIC fabrication line (paper §4): 200 mm polyimide
//! wafers of FlexiCore dies, a Monte-Carlo process model (Poisson defects
//! with a radial edge gradient, per-die delay and current variation), and
//! the probe-station test harness that decides whether each die is
//! functional — reproducing the paper's yield tables (Table 5), wafer
//! error maps (Figure 6), current-draw maps and variation statistics
//! (Figure 7), and the per-core summary rows of Table 4.
//!
//! All randomness flows from explicit `u64` seeds; the documented default
//! seeds regenerate the published experiment outputs byte-for-byte.
//!
//! ```
//! use flexfab::wafer_run::{WaferExperiment, CoreDesign};
//!
//! let exp = WaferExperiment::new(CoreDesign::FlexiCore4, 1);
//! let run = exp.run(4.5, 500)?;
//! assert!(run.yield_inclusion() > 0.5, "most centre dies work");
//! assert!(run.yield_full() < 1.0, "edge dies mostly do not");
//! # Ok::<(), flexfab::FabError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod cost;
pub mod current;
pub mod error;
pub mod lots;
pub mod tester;
pub mod variation;
pub mod wafer;
pub mod wafer_run;
pub mod wafermap;

pub use error::FabError;
