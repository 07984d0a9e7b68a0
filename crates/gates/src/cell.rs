//! The thirteen-cell 0.8 µm IGZO standard-cell library (paper Figure 1).
//!
//! Cells are n-type TFT logic with resistive pull-ups, so a k-input
//! NAND/NOR is k transistors plus one load resistor; compound cells
//! (XOR/XNOR/MUX) are built from those internally and a flip-flop is a
//! NAND-based master–slave pair. The paper lists the library as: BUF (2
//! variants), DFF (2), INV (2), MUX (1), NAND (2), NOR (2), XNOR (1),
//! XOR (1) — thirteen cells total, which is exactly the set below.
//!
//! ## Calibration
//!
//! Three per-cell quantities are calibrated rather than derived:
//!
//! * **area** (NAND2 equivalents) — ratios follow device counts; the
//!   absolute µm² scale is pinned so the FlexiCore4 netlist occupies the
//!   paper's 5.56 mm² (see [`NAND2_AREA_UM2`]).
//! * **static current** (µA at 4.5 V) — each load resistor conducts
//!   whenever its output is low (≈ half the time); values are scaled so a
//!   FlexiCore4 netlist draws ≈ 1.1 mA at 4.5 V, the paper's measured
//!   mean (Figure 7). Current scales linearly with supply voltage
//!   (resistive loads).
//! * **delay** (arbitrary units) — ratios follow logic depth; the absolute
//!   scale is pinned in [`timing`](crate::timing) so FlexiCore4 closes
//!   timing at 12.5 kHz with margin at 4.5 V.

/// Effective area of one NAND2 placement site in µm², including routing
/// and utilization overheads: calibrated so this library's FlexiCore4
/// netlist (≈ 592 NAND2 equivalents of raw cell area) occupies the
/// paper's 5.56 mm². (The paper quotes 801 NAND2 for the placed-and-routed
/// design, which bundles that overhead into the count instead.)
pub const NAND2_AREA_UM2: f64 = 9_385.0;

/// A cell of the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant names are the cell names
pub enum CellKind {
    BufX1,
    BufX2,
    InvX1,
    InvX2,
    Nand2,
    Nand3,
    Nor2,
    Nor3,
    Xor2,
    Xnor2,
    Mux2,
    Dff,
    DffR,
}

/// Static properties of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Human-readable cell name.
    pub name: &'static str,
    /// Number of logic inputs (data inputs; the DFF's clock and the reset
    /// pin are implicit).
    pub inputs: usize,
    /// TFTs + load resistors.
    pub devices: u32,
    /// Area in NAND2 equivalents.
    pub area_nand2: f64,
    /// Mean static current at 4.5 V in µA.
    pub static_ua: f64,
    /// Propagation delay in normalized units (clock-to-Q for flops).
    pub delay: f64,
    /// Whether the cell is sequential.
    pub sequential: bool,
}

impl CellKind {
    /// Every cell, in a stable order.
    pub const ALL: [CellKind; 13] = [
        CellKind::BufX1,
        CellKind::BufX2,
        CellKind::InvX1,
        CellKind::InvX2,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Dff,
        CellKind::DffR,
    ];

    /// The cell's static properties.
    #[must_use]
    pub fn spec(self) -> CellSpec {
        match self {
            CellKind::BufX1 => CellSpec {
                name: "BUF_X1",
                inputs: 1,
                devices: 4,
                area_nand2: 1.0,
                static_ua: 2.6,
                delay: 1.0,
                sequential: false,
            },
            CellKind::BufX2 => CellSpec {
                name: "BUF_X2",
                inputs: 1,
                devices: 5,
                area_nand2: 1.25,
                static_ua: 3.2,
                delay: 0.9,
                sequential: false,
            },
            CellKind::InvX1 => CellSpec {
                name: "INV_X1",
                inputs: 1,
                devices: 2,
                area_nand2: 0.75,
                static_ua: 1.6,
                delay: 0.6,
                sequential: false,
            },
            CellKind::InvX2 => CellSpec {
                name: "INV_X2",
                inputs: 1,
                devices: 3,
                area_nand2: 1.0,
                static_ua: 2.0,
                delay: 0.5,
                sequential: false,
            },
            CellKind::Nand2 => CellSpec {
                name: "NAND2",
                inputs: 2,
                devices: 3,
                area_nand2: 1.0,
                static_ua: 2.0,
                delay: 1.0,
                sequential: false,
            },
            CellKind::Nand3 => CellSpec {
                name: "NAND3",
                inputs: 3,
                devices: 4,
                area_nand2: 1.5,
                static_ua: 2.3,
                delay: 1.3,
                sequential: false,
            },
            CellKind::Nor2 => CellSpec {
                name: "NOR2",
                inputs: 2,
                devices: 3,
                area_nand2: 1.0,
                static_ua: 2.0,
                delay: 1.1,
                sequential: false,
            },
            CellKind::Nor3 => CellSpec {
                name: "NOR3",
                inputs: 3,
                devices: 4,
                area_nand2: 1.5,
                static_ua: 2.3,
                delay: 1.4,
                sequential: false,
            },
            CellKind::Xor2 => CellSpec {
                name: "XOR2",
                inputs: 2,
                devices: 9,
                area_nand2: 2.5,
                static_ua: 5.0,
                delay: 2.0,
                sequential: false,
            },
            CellKind::Xnor2 => CellSpec {
                name: "XNOR2",
                inputs: 2,
                devices: 9,
                area_nand2: 2.5,
                static_ua: 5.0,
                delay: 2.0,
                sequential: false,
            },
            CellKind::Mux2 => CellSpec {
                name: "MUX2",
                inputs: 3, // sel, a, b
                devices: 10,
                area_nand2: 2.25,
                static_ua: 4.6,
                delay: 1.8,
                sequential: false,
            },
            CellKind::Dff => CellSpec {
                name: "DFF",
                inputs: 1, // d
                devices: 18,
                area_nand2: 6.0,
                static_ua: 10.0,
                delay: 2.0,
                sequential: true,
            },
            CellKind::DffR => CellSpec {
                name: "DFF_R",
                inputs: 1,
                devices: 20,
                area_nand2: 6.5,
                static_ua: 11.0,
                delay: 2.1,
                sequential: true,
            },
        }
    }

    /// Evaluate the cell's boolean function over lane-parallel values.
    ///
    /// `ins` must hold exactly [`CellSpec::inputs`] elements. Sequential
    /// cells are evaluated by the simulator's state machinery, not here.
    /// [`BatchSim`](crate::sim::BatchSim) compiles these truth tables
    /// into its tape's mux-step encodings; the `compiled_oracle` test
    /// holds the two copies together.
    ///
    /// # Panics
    ///
    /// Panics (debug) on wrong input arity.
    #[must_use]
    pub fn eval(self, ins: &[u64]) -> u64 {
        debug_assert_eq!(ins.len(), self.spec().inputs, "{self:?} arity");
        match self {
            CellKind::BufX1 | CellKind::BufX2 => ins[0],
            CellKind::InvX1 | CellKind::InvX2 => !ins[0],
            CellKind::Nand2 => !(ins[0] & ins[1]),
            CellKind::Nand3 => !(ins[0] & ins[1] & ins[2]),
            CellKind::Nor2 => !(ins[0] | ins[1]),
            CellKind::Nor3 => !(ins[0] | ins[1] | ins[2]),
            CellKind::Xor2 => ins[0] ^ ins[1],
            CellKind::Xnor2 => !(ins[0] ^ ins[1]),
            // sel ? a : b
            CellKind::Mux2 => (ins[0] & ins[1]) | (!ins[0] & ins[2]),
            CellKind::Dff | CellKind::DffR => ins[0],
        }
    }
}

impl core::fmt::Display for CellKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_cells_as_in_figure_1() {
        assert_eq!(CellKind::ALL.len(), 13);
        let names: std::collections::HashSet<_> =
            CellKind::ALL.iter().map(|c| c.spec().name).collect();
        assert_eq!(names.len(), 13, "names must be unique");
    }

    #[test]
    fn nand2_is_the_area_unit() {
        assert!((CellKind::Nand2.spec().area_nand2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn device_counts_follow_ntype_structure() {
        // k-input NAND/NOR = k TFTs + 1 resistor
        assert_eq!(CellKind::Nand2.spec().devices, 3);
        assert_eq!(CellKind::Nand3.spec().devices, 4);
        assert_eq!(CellKind::Nor2.spec().devices, 3);
        assert_eq!(CellKind::InvX1.spec().devices, 2);
        // flops dominate
        assert!(CellKind::Dff.spec().devices > 3 * CellKind::Nand2.spec().devices);
    }

    #[test]
    fn eval_truth_tables() {
        let t = !0u64;
        let f = 0u64;
        assert_eq!(CellKind::Nand2.eval(&[t, t]), f);
        assert_eq!(CellKind::Nand2.eval(&[t, f]), t);
        assert_eq!(CellKind::Nor2.eval(&[f, f]), t);
        assert_eq!(CellKind::Xor2.eval(&[t, f]), t);
        assert_eq!(CellKind::Xnor2.eval(&[t, f]), f);
        assert_eq!(CellKind::Mux2.eval(&[t, 0xAA, 0x55]), 0xAA);
        assert_eq!(CellKind::Mux2.eval(&[f, 0xAA, 0x55]), 0x55);
        assert_eq!(CellKind::Nand3.eval(&[t, t, t]), f);
        assert_eq!(CellKind::Nor3.eval(&[f, f, t]), f);
        assert_eq!(CellKind::InvX1.eval(&[0xF0]), !0xF0);
    }

    #[test]
    fn lane_parallel_evaluation() {
        // different lanes carry independent values
        let a = 0b1100u64;
        let b = 0b1010u64;
        assert_eq!(CellKind::Nand2.eval(&[a, b]) & 0xF, 0b0111);
    }

    #[test]
    fn sequential_flags() {
        assert!(CellKind::Dff.spec().sequential);
        assert!(CellKind::DffR.spec().sequential);
        assert!(!CellKind::Mux2.spec().sequential);
    }
}
