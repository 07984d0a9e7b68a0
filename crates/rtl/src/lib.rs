//! # flexrtl
//!
//! Structural gate-level implementations of the fabricated FlexiCores,
//! built cell-by-cell on [`flexgate`] by one builder, [`build`], from a
//! datapath width and an ISA feature set: the single-cycle FlexiCore4 of
//! Figure 3 (4, `BASE`), FlexiCore8 with its one-flip-flop `LOAD BYTE`
//! controller (8, `BASE`), and the FlexiCore4+ variant taped out in §6.1
//! (4, `FeatureSet::fc4_plus()`: barrel shifter + branch condition flags).
//!
//! Because these are real netlists, the paper's physical tables fall out
//! mechanically: module area/power breakdowns (Tables 2–3) from
//! [`flexgate::report`], device counts and fmax (Table 4) from the cell
//! specs and [`flexgate::timing`], and the yield experiments of §4 from
//! fault injection on exactly these gates.
//!
//! [`cosim`] proves the netlists cycle-equivalent to the ISA simulators in
//! `flexicore` on directed and random programs.
//!
//! ```
//! use flexgate::report::Report;
//! use flexicore::isa::features::FeatureSet;
//!
//! let netlist = flexrtl::build(4, FeatureSet::BASE);
//! let report = Report::of(&netlist);
//! // the fabricated chip had 2104 devices; the reconstruction is within 1 %
//! assert!((report.total.devices as i64 - 2104).abs() < 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cosim;
pub mod fc4;
pub mod fc4plus;

pub use fc4::build;
