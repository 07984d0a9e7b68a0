//! Differential fuzzing: random legal instruction streams must execute
//! identically on the architectural simulators and the gate-level
//! netlists — the strongest equivalence evidence behind the §4.1 test
//! methodology (where the netlist plays the chip and the ISA model plays
//! the golden Verilog simulation).

use flexicore::exec::AnyCore;
use flexicore::io::ConstInput;
use flexicore::isa::acc::{self, Cond};
use flexicore::isa::features::FeatureSet;
use flexicore::isa::Dialect;
use flexicore::program::Program;
use flexicore::sim::fc4::{Fc4Core, Fc8Core};
use flexrtl::cosim::cosim;
use proptest::prelude::*;

fn arb_fc4(len: usize) -> impl Strategy<Value = Vec<acc::Instruction>> {
    let insn = prop_oneof![
        (0u8..16).prop_map(|imm| acc::Instruction::AddImm { imm }),
        (0u8..16).prop_map(|imm| acc::Instruction::NandImm { imm }),
        (0u8..16).prop_map(|imm| acc::Instruction::XorImm { imm }),
        (0u8..8).prop_map(|m| acc::Instruction::Add { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Nand { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Xor { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Load { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Store { m }),
        // keep branch targets inside the program so fetches stay in range
        (0u8..32).prop_map(|target| acc::Instruction::Br {
            cond: Cond::N,
            target
        }),
    ];
    proptest::collection::vec(insn, len..=len)
}

fn arb_fc8(len: usize) -> impl Strategy<Value = Vec<acc::Instruction>> {
    let insn = prop_oneof![
        (0u8..16).prop_map(|imm| acc::Instruction::AddImm { imm }),
        (0u8..16).prop_map(|imm| acc::Instruction::NandImm { imm }),
        (0u8..16).prop_map(|imm| acc::Instruction::XorImm { imm }),
        (0u8..4).prop_map(|m| acc::Instruction::Add { m }),
        (0u8..4).prop_map(|m| acc::Instruction::Nand { m }),
        (0u8..4).prop_map(|m| acc::Instruction::Xor { m }),
        (0u8..4).prop_map(|m| acc::Instruction::Load { m }),
        (0u8..4).prop_map(|m| acc::Instruction::Store { m }),
        any::<u8>().prop_map(|imm| acc::Instruction::LoadByte { imm }),
        (0u8..24).prop_map(|target| acc::Instruction::Br {
            cond: Cond::N,
            target
        }),
    ];
    proptest::collection::vec(insn, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fc4_rtl_equals_isa_on_random_programs(
        insns in arb_fc4(32),
        input in 0u8..16,
    ) {
        let bytes: Vec<u8> = insns.iter().flat_map(|i| i.encode(Dialect::Fc4)).collect();
        let program = Program::from_bytes(bytes);
        let netlist = flexrtl::build(4, FeatureSet::BASE);
        let core = AnyCore::Fc4(Fc4Core::new(program));
        let result = cosim(&netlist, core, &mut ConstInput::new(input), 300);
        prop_assert!(result.is_equivalent(), "{:?}", result.mismatches);
        prop_assert!(result.cycles > 0);
    }

    #[test]
    fn fc8_rtl_equals_isa_on_random_programs(
        insns in arb_fc8(24),
        input in 0u8..=255u8,
    ) {
        let mut bytes = Vec::new();
        for i in &insns {
            i.encode_into(Dialect::Fc8, &mut bytes);
        }
        let program = Program::from_bytes(bytes);
        let netlist = flexrtl::build(8, FeatureSet::BASE);
        let core = AnyCore::Fc8(Fc8Core::new(program));
        let result = cosim(&netlist, core, &mut ConstInput::new(input), 300);
        prop_assert!(result.is_equivalent(), "{:?}", result.mismatches);
    }
}
