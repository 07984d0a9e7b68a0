//! The FlexiCore4+ extension circuits (§6.1, Figure 4c).
//!
//! The paper fabricated a small number of FlexiCore4 variants carrying two
//! of the DSE extensions — a barrel shifter (arithmetic/logical right
//! shifts) and three-bit branch condition flags — at a cost of ~15 % more
//! devices than the base core. The exact FlexiCore4+ encoding was not
//! published; this reconstruction hangs the new hardware off FlexiCore4's
//! reserved encodings (bit 3 set in the memory/transfer formats selects
//! the shifter; the branch format gains an `nzp` mask in bits 6:4 of a
//! two-byte branch whose decode cost we approximate with the mask logic):
//! the *structure* — what hardware is added and what it costs — is what
//! Table 4 and the die photo report, and that is what this netlist
//! reproduces.
//!
//! [`crate::build`] wires these circuits into FlexiCore4 for
//! `FeatureSet::fc4_plus()`, and `flexdse::area` prices the same two
//! circuits as single DSE features, so both see one copy of each.

use flexgate::netlist::{Net, Netlist};
use flexgate::CellKind;

/// The FlexiCore4+ barrel shifter: `a` shifted right by `amt` places
/// (`amt[0]` shifts by 1, `amt[1]` by 2) in two mux stages. Vacated bits
/// take the sign bit of `a` when `arith` is high and zero otherwise.
pub fn right_shifter(n: &mut Netlist, a: &[Net], amt: [Net; 2], arith: Net) -> Vec<Net> {
    let width = a.len();
    let fill = n.and(arith, a[width - 1]);
    let s1: Vec<Net> = (0..width)
        .map(|i| {
            let from = if i + 1 < width { a[i + 1] } else { fill };
            n.mux(amt[0], from, a[i])
        })
        .collect();
    (0..width)
        .map(|i| {
            let from = if i + 2 < width { s1[i + 2] } else { fill };
            n.mux(amt[1], from, s1[i])
        })
        .collect()
}

/// The FlexiCore4+ branch condition over a 4-bit accumulator: its
/// negative, zero and positive flags, each gated by its `mask` bit
/// (`[p, z, n]`, low bit first), ORed into one take-the-branch net.
pub fn nzp_condition(n: &mut Netlist, acc: &[Net], mask: [Net; 3]) -> Net {
    let nflag = acc[3];
    let z01 = n.cell(CellKind::Nor2, &[acc[0], acc[1]]);
    let z23 = n.cell(CellKind::Nor2, &[acc[2], acc[3]]);
    let zflag = n.and(z01, z23);
    let nz = n.or(nflag, zflag);
    let pflag = n.not(nz);
    let take_n = n.and(mask[2], nflag);
    let take_z = n.and(mask[1], zflag);
    let take_p = n.and(mask[0], pflag);
    let t_nz = n.or(take_n, take_z);
    n.or(t_nz, take_p)
}

#[cfg(test)]
mod tests {
    use crate::build;
    use flexgate::report::Report;
    use flexicore::isa::features::FeatureSet;

    #[test]
    fn well_formed() {
        assert!(build(4, FeatureSet::fc4_plus()).levelize().is_ok());
    }

    #[test]
    fn about_fifteen_percent_more_devices_than_fc4() {
        // paper: FlexiCore4+ contains 15 % more devices than FlexiCore4
        let fc4 = Report::of(&build(4, FeatureSet::BASE)).total.devices as f64;
        let plus = Report::of(&build(4, FeatureSet::fc4_plus())).total.devices as f64;
        let ratio = plus / fc4;
        assert!(
            (1.05..1.30).contains(&ratio),
            "device ratio fc4+/fc4 = {ratio:.3}"
        );
    }

    #[test]
    fn shifter_adds_area_to_the_alu_side() {
        let r = Report::of(&build(4, FeatureSet::fc4_plus()));
        assert!(r.module_rollup("shifter").area() > 10.0);
    }
}
