//! Structural pins of the three fabricated netlists and of the DSE cost
//! of the two FlexiCore4+ extensions.
//!
//! Each digest is an order-sensitive FNV-1a over every cell of a netlist
//! (kind, input nets, output net, module name), so netlist code that emits
//! the same gates in another order, with swapped operands or under
//! another module fails here even when the area totals agree. The
//! FlexiCore4+ shifter and nzp-flag circuits are built once and shared
//! by `build_fc4_plus` and `flexdse::area`; the `estimate` pins hold the
//! DSE side of that sharing to its exact `f64` bits. Bump a pin only
//! together with a note saying why the netlist legitimately moved.

use flexdse::area::{estimate, CoreCost};
use flexdse::{CoreConfig, OperandModel};
use flexgate::netlist::Netlist;
use flexicore::isa::features::{Feature, FeatureSet};
use flexicore::uarch::Microarch;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn word(hash: &mut u64, value: u64) {
    fnv1a(hash, &value.to_le_bytes());
}

/// FNV-1a over every cell in netlist order, plus the cell count.
fn netlist_digest(netlist: &Netlist) -> (u64, usize) {
    let mut hash = FNV_OFFSET;
    for cell in netlist.cells() {
        word(&mut hash, cell.kind as u64);
        word(&mut hash, cell.inputs.len() as u64);
        for net in &cell.inputs {
            word(&mut hash, net.index() as u64);
        }
        word(&mut hash, cell.output.index() as u64);
        let module = &netlist.modules()[cell.module];
        word(&mut hash, module.len() as u64);
        fnv1a(&mut hash, module.as_bytes());
    }
    (hash, netlist.cells().len())
}

/// Every field of a cost, floats as their bit patterns.
fn cost_bits(cost: &CoreCost) -> [u64; 5] {
    [
        cost.area_nand2.to_bits(),
        cost.devices,
        cost.static_ua.to_bits(),
        cost.path_units.to_bits(),
        cost.cells as u64,
    ]
}

fn single_feature_cost(feature: Feature) -> [u64; 5] {
    cost_bits(&estimate(&CoreConfig {
        operand: OperandModel::Accumulator,
        uarch: Microarch::SingleCycle,
        features: FeatureSet::only(feature),
    }))
}

#[test]
fn fc4_netlist_is_pinned() {
    assert_eq!(
        netlist_digest(&flexrtl::build_fc4()),
        (0x0101_890F_6DC3_5936, 262)
    );
}

#[test]
fn fc8_netlist_is_pinned() {
    assert_eq!(
        netlist_digest(&flexrtl::build_fc8()),
        (0x93FB_2CF7_459E_B0AA, 324)
    );
}

#[test]
fn fc4_plus_netlist_is_pinned() {
    assert_eq!(
        netlist_digest(&flexrtl::build_fc4_plus()),
        (0x1839_F485_A359_5521, 301)
    );
}

#[test]
fn barrel_shifter_cost_is_pinned() {
    assert_eq!(
        single_feature_cost(Feature::BarrelShifter),
        [
            0x4083_2200_0000_0000,
            2182,
            0x4092_58CC_CCCC_CCDA,
            0x4043_B333_3333_3334,
            272,
        ]
    );
}

#[test]
fn branch_flags_cost_is_pinned() {
    assert_eq!(
        single_feature_cost(Feature::BranchFlags),
        [
            0x4082_FC00_0000_0000,
            2140,
            0x4092_3266_6666_6673,
            0x4042_CCCC_CCCC_CCCE,
            279,
        ]
    );
}
