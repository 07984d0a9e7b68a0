//! Functional checks for the FlexiCore4+ netlist: the §6.1 extensions —
//! barrel shifter and branch condition flags — must actually work in the
//! gate-level reconstruction, not just occupy area.

use flexgate::sim::BatchSim;
use flexicore::isa::acc::Instruction as I;
use flexicore::isa::features::FeatureSet;
use flexicore::isa::Dialect;

fn feed(sim: &mut BatchSim, byte: u8, iport: u8) {
    sim.set_input_value("instr", u64::from(byte), !0);
    sim.set_input_value("iport", u64::from(iport), !0);
    sim.clock();
    // refresh combinational outputs (pc pad buffers) after the edge
    sim.settle();
}

/// A FlexiCore4+ shift instruction (reconstruction encoding: a register-
/// format byte with bit 3 set; bits 1:0 = amount, bit 2 = arithmetic).
fn shift(amount: u8, arithmetic: bool) -> u8 {
    // M-type ADD pattern with bit3 high selects the shifter
    0b0000_1000 | (u8::from(arithmetic) << 2) | (amount & 0b11)
}

#[test]
fn base_instructions_still_work() {
    let n = flexrtl::build(4, FeatureSet::fc4_plus());
    let mut sim = BatchSim::new(&n).unwrap();
    sim.reset();
    feed(&mut sim, I::AddImm { imm: 5 }.encode(Dialect::Fc4)[0], 0);
    feed(&mut sim, I::AddImm { imm: 9 }.encode(Dialect::Fc4)[0], 0);
    feed(&mut sim, I::Store { m: 1 }.encode(Dialect::Fc4)[0], 0);
    sim.settle();
    assert_eq!(sim.output_value("oport", 0), (5 + 9) & 0xF);
}

#[test]
fn logical_right_shift_by_two() {
    let n = flexrtl::build(4, FeatureSet::fc4_plus());
    let mut sim = BatchSim::new(&n).unwrap();
    sim.reset();
    feed(
        &mut sim,
        I::AddImm { imm: 0b1100 }.encode(Dialect::Fc4)[0],
        0,
    );
    feed(&mut sim, shift(2, false), 0);
    feed(&mut sim, I::Store { m: 1 }.encode(Dialect::Fc4)[0], 0);
    sim.settle();
    assert_eq!(sim.output_value("oport", 0), 0b0011);
}

#[test]
fn arithmetic_shift_sign_fills() {
    let n = flexrtl::build(4, FeatureSet::fc4_plus());
    let mut sim = BatchSim::new(&n).unwrap();
    sim.reset();
    feed(
        &mut sim,
        I::AddImm { imm: 0b1010 }.encode(Dialect::Fc4)[0],
        0,
    );
    feed(&mut sim, shift(1, true), 0);
    feed(&mut sim, I::Store { m: 1 }.encode(Dialect::Fc4)[0], 0);
    sim.settle();
    assert_eq!(sim.output_value("oport", 0), 0b1101);
}

#[test]
fn branch_flags_take_zero_and_positive() {
    // FlexiCore4+ branch: mask rides in instr[6:4] (reconstruction):
    // n = bit6, z = bit5, p = bit4.
    let n = flexrtl::build(4, FeatureSet::fc4_plus());
    let mut sim = BatchSim::new(&n).unwrap();
    sim.reset();
    // ACC = 0: a branch-on-zero must be taken
    let br_z = 0b1010_0101; // branch, z mask, target low bits 0101
    feed(&mut sim, br_z, 0);
    sim.settle();
    assert_eq!(sim.output_value("pc", 0) & 0xF, 0b0101);

    // ACC = 3 (positive): branch-on-zero must fall through,
    // branch-on-positive must be taken
    let mut sim = BatchSim::new(&n).unwrap();
    sim.reset();
    feed(&mut sim, I::AddImm { imm: 3 }.encode(Dialect::Fc4)[0], 0);
    let pc_before = sim.output_value("pc", 0);
    feed(&mut sim, br_z, 0);
    sim.settle();
    assert_eq!(sim.output_value("pc", 0), pc_before + 1, "z not taken");
    let br_p = 0b1001_0111;
    feed(&mut sim, br_p, 0);
    sim.settle();
    assert_eq!(sim.output_value("pc", 0) & 0xF, 0b0111, "p taken");
}
