//! Property-based tests (proptest) over the core data structures and
//! invariants: instruction-set round-trips, ALU-vs-oracle equivalence,
//! gate-level arithmetic, MMU behaviour and simulator determinism.

use proptest::prelude::*;

use flexgate::netlist::Netlist;
use flexgate::sim::BatchSim;
use flexicore::exec::Core;
use flexicore::io::{ConstInput, RecordingOutput};
use flexicore::isa::acc::{self, Cond};
use flexicore::isa::{fc4, xacc, xls, AluOp, Dialect};
use flexicore::mmu::Mmu;
use flexicore::program::Program;
use flexicore::sim::fc4::Fc4Core;

// ---------------------------------------------------------------------------
// instruction encodings
// ---------------------------------------------------------------------------

fn arb_fc4_instruction() -> impl Strategy<Value = acc::Instruction> {
    prop_oneof![
        (0u8..16).prop_map(|imm| acc::Instruction::AddImm { imm }),
        (0u8..16).prop_map(|imm| acc::Instruction::NandImm { imm }),
        (0u8..16).prop_map(|imm| acc::Instruction::XorImm { imm }),
        (0u8..8).prop_map(|m| acc::Instruction::Add { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Nand { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Xor { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Load { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Store { m }),
        (0u8..128).prop_map(|target| acc::Instruction::Br {
            cond: Cond::N,
            target
        }),
    ]
}

fn arb_xacc_instruction() -> impl Strategy<Value = acc::Instruction> {
    prop_oneof![
        (0u8..8).prop_map(|m| acc::Instruction::Add { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Adc { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Sub { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Swb { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Nand { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Or { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Xor { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Xch { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Load { m }),
        (0u8..8).prop_map(|m| acc::Instruction::Store { m }),
        (0u8..16).prop_map(|imm| acc::Instruction::AddImm { imm }),
        (0u8..16).prop_map(|imm| acc::Instruction::NandImm { imm }),
        (0u8..16).prop_map(|imm| acc::Instruction::OrImm { imm }),
        (0u8..16).prop_map(|imm| acc::Instruction::XorImm { imm }),
        (0u8..16).prop_map(|imm| acc::Instruction::AdcImm { imm }),
        (0u8..8).prop_map(|amount| acc::Instruction::AsrImm { amount }),
        (0u8..8).prop_map(|amount| acc::Instruction::LsrImm { amount }),
        (0u8..4).prop_map(|m| acc::Instruction::MulL { m }),
        (0u8..4).prop_map(|m| acc::Instruction::MulH { m }),
        Just(acc::Instruction::Neg),
        Just(acc::Instruction::Ret),
        ((0u8..8), (0u8..128)).prop_map(|(c, target)| acc::Instruction::Br {
            cond: Cond::from_bits(c),
            target,
        }),
        (0u8..128).prop_map(|target| acc::Instruction::Call { target }),
    ]
}

fn arb_xls_instruction() -> impl Strategy<Value = xls::Instruction> {
    let op = prop_oneof![
        Just(xls::Op::Add),
        Just(xls::Op::Adc),
        Just(xls::Op::Sub),
        Just(xls::Op::Swb),
        Just(xls::Op::And),
        Just(xls::Op::Or),
        Just(xls::Op::Xor),
        Just(xls::Op::Nand),
        Just(xls::Op::Mov),
        Just(xls::Op::Neg),
        Just(xls::Op::Asr),
        Just(xls::Op::Lsr),
        Just(xls::Op::MulL),
        Just(xls::Op::MulH),
    ];
    prop_oneof![
        (
            op,
            0u8..8,
            prop_oneof![
                (0u8..8).prop_map(xls::Operand::Reg),
                (0u8..16).prop_map(xls::Operand::Imm),
            ]
        )
            .prop_map(|(op, rd, operand)| {
                // NEG is canonicalized to its operand-less form
                let operand = if op == xls::Op::Neg {
                    xls::Operand::Imm(0)
                } else {
                    operand
                };
                xls::Instruction::Alu { op, rd, operand }
            }),
        ((0u8..8), any::<u8>()).prop_map(|(c, target)| xls::Instruction::Br {
            cond: Cond::from_bits(c),
            target,
        }),
        any::<u8>().prop_map(|target| xls::Instruction::Call { target }),
        Just(xls::Instruction::Ret),
    ]
}

proptest! {
    #[test]
    fn fc4_encode_decode_roundtrip(insn in arb_fc4_instruction()) {
        let bytes = insn.encode(Dialect::Fc4);
        prop_assert_eq!(fc4::decode(&bytes, 4), Ok((insn, 1)));
    }

    #[test]
    fn fc8_every_byte_decodes_or_rejects_consistently(byte in any::<u8>(), second in any::<u8>()) {
        // any decodable byte must re-encode to itself
        if let Ok((insn, len)) = fc4::decode(&[byte, second], 8) {
            let bytes = insn.encode(Dialect::Fc8);
            prop_assert_eq!(bytes.len(), len);
            prop_assert_eq!(bytes[0], byte);
            if len == 2 {
                prop_assert_eq!(bytes[1], second);
            }
        }
    }

    #[test]
    fn xacc_encode_decode_roundtrip(insn in arb_xacc_instruction()) {
        let bytes = insn.encode(Dialect::ExtendedAcc);
        let (decoded, len) = xacc::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, insn);
        prop_assert_eq!(len, bytes.len());
    }

    #[test]
    fn xls_encode_decode_roundtrip(insn in arb_xls_instruction()) {
        let h = insn.encode();
        prop_assert_eq!(xls::Instruction::decode(h), Ok(insn));
    }

    #[test]
    fn alu_matches_wide_integer_oracle(a in 0u8..16, b in 0u8..16) {
        prop_assert_eq!(
            AluOp::Add.apply(a, b, 4),
            ((u16::from(a) + u16::from(b)) & 0xF) as u8
        );
        prop_assert_eq!(AluOp::Nand.apply(a, b, 4), !(a & b) & 0xF);
        prop_assert_eq!(AluOp::Xor.apply(a, b, 4), (a ^ b) & 0xF);
    }
}

// ---------------------------------------------------------------------------
// gate-level arithmetic
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn netlist_adder_matches_u32_addition(a in 0u64..256, b in 0u64..256) {
        let mut n = Netlist::new();
        let ia = n.inputs("a", 8);
        let ib = n.inputs("b", 8);
        let zero = n.const0();
        let (sum, carry) = n.ripple_adder(&ia, &ib, zero);
        n.outputs("sum", &sum);
        n.output("carry", carry);
        let mut sim = BatchSim::new(&n).unwrap();
        sim.set_input_value("a", a, !0);
        sim.set_input_value("b", b, !0);
        sim.settle();
        prop_assert_eq!(sim.output_value("sum", 0), (a + b) & 0xFF);
        prop_assert_eq!(sim.output_value("carry", 0), (a + b) >> 8);
    }

    #[test]
    fn netlist_incrementer_matches(a in 0u64..128) {
        let mut n = Netlist::new();
        let ia = n.inputs("a", 7);
        let one = n.const1();
        let out = n.incrementer(&ia, one);
        n.outputs("out", &out);
        let mut sim = BatchSim::new(&n).unwrap();
        sim.set_input_value("a", a, !0);
        sim.settle();
        prop_assert_eq!(sim.output_value("out", 0), (a + 1) & 0x7F);
    }

    #[test]
    fn mux_tree_selects_the_indexed_word(sel in 0u64..8, words in proptest::array::uniform8(0u64..16)) {
        let mut n = Netlist::new();
        let s = n.inputs("sel", 3);
        let _ = s;
        let ws: Vec<Vec<flexgate::Net>> =
            (0..8).map(|k| n.inputs(&format!("w{k}"), 4)).collect();
        let sel_nets = n.input_ports()["sel"].clone();
        let out = n.mux_tree(&sel_nets, &ws);
        n.outputs("out", &out);
        let mut sim = BatchSim::new(&n).unwrap();
        sim.set_input_value("sel", sel, !0);
        for (k, w) in words.iter().enumerate() {
            sim.set_input_value(&format!("w{k}"), *w, !0);
        }
        sim.settle();
        prop_assert_eq!(sim.output_value("out", 0), words[sel as usize]);
    }
}

// ---------------------------------------------------------------------------
// simulator invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random legal programs either halt, run out of budget, or fault —
    /// and do so *deterministically*.
    #[test]
    fn fc4_simulation_is_deterministic(
        insns in proptest::collection::vec(arb_fc4_instruction(), 1..60),
        input in 0u8..16,
    ) {
        let program = Program::from_bytes(insns.iter().flat_map(|i| i.encode(Dialect::Fc4)).collect());
        let run = |program: Program| {
            let mut core = Fc4Core::new(program);
            let mut output = RecordingOutput::new();
            let r = core.run(&mut ConstInput::new(input), &mut output, 2_000);
            (r.map(|x| (x.cycles, x.instructions, x.stop)), output.values(),
             core.acc(), core.state().pc())
        };
        prop_assert_eq!(run(program.clone()), run(program));
    }

    /// The accumulator and memory never exceed 4 bits, whatever executes.
    #[test]
    fn fc4_state_stays_in_range(
        insns in proptest::collection::vec(arb_fc4_instruction(), 1..60),
        input in 0u8..16,
    ) {
        let program = Program::from_bytes(insns.iter().flat_map(|i| i.encode(Dialect::Fc4)).collect());
        let mut core = Fc4Core::new(program);
        let mut output = RecordingOutput::new();
        let mut inp = ConstInput::new(input);
        for _ in 0..500 {
            if core.state().is_halted() || core.step(&mut inp, &mut output).is_err() {
                break;
            }
            prop_assert!(core.acc() < 16);
            prop_assert!(core.state().pc() < 128);
            for a in 0..8 {
                prop_assert!(core.mem(a).unwrap() < 16);
            }
        }
        for v in output.values() {
            prop_assert!(v < 16);
        }
    }

    /// Whatever the output stream, the MMU page register only changes via
    /// a complete escape sequence.
    #[test]
    fn mmu_only_switches_on_full_escapes(values in proptest::collection::vec(0u8..16, 0..64)) {
        let mut mmu = Mmu::new();
        let mut last_three = Vec::new();
        for &v in &values {
            mmu.tick();
            mmu.tick();
            mmu.tick();
            let before = mmu.page();
            let fired = mmu.observe(v);
            last_three.push(v);
            if last_three.len() > 3 {
                last_three.remove(0);
            }
            if fired {
                prop_assert_eq!(last_three.len(), 3);
                prop_assert_eq!(last_three[0], flexicore::mmu::ESCAPE_1);
                prop_assert_eq!(last_three[1], flexicore::mmu::ESCAPE_2);
            } else {
                // page can only change through a previously recognised,
                // now-committing escape — observed via pending
                let _ = before;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// assembler round-trips
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Disassembling an assembled single-page fc4 program and re-assembling
    /// the text yields the same machine code (branch targets are rewritten
    /// to labels; programs whose branches land mid-instruction are skipped
    /// — fc4 instructions are all one byte so that never happens here).
    #[test]
    fn fc4_disassembly_reassembles_identically(
        insns in proptest::collection::vec(arb_fc4_instruction(), 1..100),
    ) {
        use flexasm::disasm::disassemble;
        let bytes: Vec<u8> = insns.iter().flat_map(|i| i.encode(Dialect::Fc4)).collect();
        // branches must target addresses inside the program
        prop_assume!(insns.iter().all(|i| match i {
            acc::Instruction::Br { target, .. } => usize::from(*target) < bytes.len(),
            _ => true,
        }));
        let program = Program::from_bytes(bytes.clone());
        let lines = disassemble(flexicore::isa::Dialect::Fc4, &program);
        let mut src = String::new();
        for line in &lines {
            src.push_str(&format!("a{}:\n", line.address));
            if let Some(rest) = line.text.strip_prefix("br ") {
                let t = u8::from_str_radix(rest.trim_start_matches("0x"), 16).unwrap();
                src.push_str(&format!("br a{t}\n"));
            } else {
                src.push_str(&line.text);
                src.push('\n');
            }
        }
        let reassembled = flexasm::Assembler::new(flexasm::Target::fc4())
            .assemble(&src)
            .unwrap();
        prop_assert_eq!(reassembled.program().as_bytes(), &bytes[..]);
    }

    /// A zero-fault [`FaultPlane`] must be invisible: for every kernel ×
    /// dialect pair the dialect can hold, the hooked run reproduces the
    /// clean run bit-for-bit — same outputs, same raw stream, same cycle
    /// and instruction counts, same stop reason.
    #[test]
    fn zero_fault_plane_is_bit_for_bit_transparent(seed in any::<u64>()) {
        use flexicore::sim::fault::{FaultPlane, NoFaults};
        use flexkernels::harness::{PreparedKernel, CYCLE_BUDGET};
        use flexkernels::inputs::Sampler;
        use flexkernels::Kernel;

        for name in ["fc4", "fc8", "xacc", "xls"] {
            let target = flexinject::target_from_name(name).unwrap();
            for kernel in Kernel::ALL {
                if !kernel.supports(target.dialect) {
                    continue;
                }
                let inputs = Sampler::new(kernel, seed).draw();
                let prepared = PreparedKernel::new(kernel, target).expect("kernel assembles");
                let clean = prepared
                    .run_with(&inputs, CYCLE_BUDGET, &mut NoFaults)
                    .expect("clean run must verify");
                let mut plane = FaultPlane::new();
                let hooked = prepared
                    .run_with(&inputs, CYCLE_BUDGET, &mut plane)
                    .expect("zero-fault run must verify");
                prop_assert_eq!(&clean.outputs, &hooked.outputs, "{} on {}", kernel.name(), name);
                prop_assert_eq!(&clean.raw_outputs, &hooked.raw_outputs);
                prop_assert_eq!(clean.result, hooked.result);
                prop_assert!(hooked.verified);
            }
        }
    }

    /// The shared engine behind [`flexicore::exec::Core`] upholds its accounting
    /// invariants on every dialect: a retired instruction costs at least
    /// one cycle and at least one fetched byte, kernels terminate via
    /// the halt idiom (not the watchdog), and [`NoFaults`] is
    /// indistinguishable from an armed-but-empty [`FaultPlane`].
    #[test]
    fn engine_invariants_hold_on_all_dialects(seed in any::<u64>()) {
        use flexicore::exec::AnyCore;
        use flexicore::io::ScriptedInput;
        use flexicore::sim::fault::FaultPlane;
        use flexicore::sim::StopReason;
        use flexkernels::inputs::Sampler;
        use flexkernels::Kernel;

        for name in ["fc4", "fc8", "xacc", "xls"] {
            let target = flexinject::target_from_name(name).unwrap();
            for kernel in [Kernel::ParityCheck, Kernel::XorShift8] {
                if !kernel.supports(target.dialect) {
                    continue;
                }
                let program = kernel.assemble(target).unwrap().into_program();
                let inputs = Sampler::new(kernel, seed).draw();

                let mut core =
                    AnyCore::for_dialect(target.dialect, target.features, program.clone());
                let mut input = ScriptedInput::new(inputs.clone());
                let mut output = RecordingOutput::new();
                let result = core.run(&mut input, &mut output, 200_000).unwrap();

                prop_assert!(result.cycles >= result.instructions, "{name}: {result:?}");
                prop_assert!(result.fetched_bytes >= result.instructions, "{name}: {result:?}");
                prop_assert_eq!(result.stop, StopReason::Halted, "{} must halt", name);
                prop_assert!(core.is_halted());

                // an empty fault plane threads through the same engine
                // without disturbing a single architectural event
                let mut hooked_core =
                    AnyCore::for_dialect(target.dialect, target.features, program.clone());
                let mut hooked_input = ScriptedInput::new(inputs.clone());
                let mut hooked_output = RecordingOutput::new();
                let mut plane = FaultPlane::new();
                let hooked = hooked_core
                    .run_with(&mut hooked_input, &mut hooked_output, 200_000, &mut plane)
                    .unwrap();
                prop_assert_eq!(result, hooked, "{} diverged under the empty plane", name);
                prop_assert_eq!(output.values(), hooked_output.values());
                prop_assert_eq!(core.pc(), hooked_core.pc());
            }
        }
    }

    /// Campaign classification is a pure function of the seed: replaying
    /// a campaign reproduces every fault draw and every outcome.
    #[test]
    fn campaigns_classify_deterministically(seed in any::<u64>(), trials in 1usize..24) {
        use flexinject::{run_campaign, CampaignConfig, FaultModel};
        use flexkernels::Kernel;

        let target = flexinject::target_from_name("fc4").unwrap();
        let mut config = CampaignConfig::new(target, Kernel::XorShift8, trials, seed);
        config.model = FaultModel::Mixed;
        let a = run_campaign(config).unwrap();
        let b = run_campaign(config).unwrap();
        prop_assert_eq!(a.trials, b.trials);
        prop_assert_eq!(a.clean_cycles, b.clean_cycles);
    }

    /// Branch-free load-store programs disassemble and reassemble to the
    /// same halfwords.
    #[test]
    fn xls_disassembly_reassembles_identically(
        insns in proptest::collection::vec(arb_xls_instruction(), 1..60),
    ) {
        use flexasm::disasm::disassemble;
        // keep only data instructions: labels for branch targets are
        // covered by the fc4 round-trip above
        let insns: Vec<xls::Instruction> = insns
            .into_iter()
            .filter(|i| matches!(i, xls::Instruction::Alu { .. }))
            .collect();
        prop_assume!(!insns.is_empty());
        let mut bytes = Vec::new();
        for i in &insns {
            i.encode_into(&mut bytes);
        }
        let program = Program::from_bytes(bytes.clone());
        let lines = disassemble(flexicore::isa::Dialect::LoadStore, &program);
        let src: String = lines
            .iter()
            .map(|l| format!("{}\n", l.text))
            .collect();
        // all features on: the generator draws multiplier/shift ops too
        let all_features: flexicore::isa::features::FeatureSet =
            flexicore::isa::features::Feature::ALL.into_iter().collect();
        let reassembled = flexasm::Assembler::new(flexasm::Target::xls(all_features))
            .assemble(&src)
            .unwrap();
        prop_assert_eq!(reassembled.program().as_bytes(), &bytes[..]);
    }
}
