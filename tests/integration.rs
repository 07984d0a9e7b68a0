//! Cross-crate integration tests: the full pipeline from assembly source
//! through functional simulation, gate-level co-simulation, wafer testing
//! and the DSE — the paths every published table/figure takes.

use flexasm::{Assembler, Target};
use flexfab::wafer_run::{CoreDesign, WaferExperiment};
use flexicore::exec::{AnyCore, Core};
use flexicore::io::{ConstInput, RecordingOutput, ScriptedInput};
use flexicore::sim::fc4::Fc4Core;
use flexkernels::inputs::Sampler;
use flexkernels::Kernel;
use flexrtl::cosim::cosim;

/// The architectural model for an assembled program.
fn core_of(assembly: &flexasm::Assembly) -> AnyCore {
    let target = assembly.target();
    AnyCore::for_dialect(target.dialect, target.features, assembly.program().clone())
}

/// A kernel assembled by `flexasm` must behave identically on the
/// architectural simulator and on the gate-level FlexiCore4 netlist —
/// the §4.1 test methodology end to end.
#[test]
fn parity_kernel_runs_identically_on_rtl_and_isa() {
    let assembly = Kernel::ParityCheck.assemble(Target::fc4()).unwrap();
    let netlist = flexrtl::build_fc4();
    // the kernel reads two input nibbles through the scripted port; the
    // cosim input presents the same fixed value to both models each cycle,
    // so use a constant word
    let result = cosim(&netlist, core_of(&assembly), &mut ConstInput::new(0x9), 500);
    assert!(result.is_equivalent(), "{:?}", result.mismatches);
    assert!(result.cycles > 30, "ran {} cycles", result.cycles);
}

#[test]
fn thresholding_kernel_cosimulates_on_fc4_rtl() {
    let assembly = Kernel::Thresholding.assemble(Target::fc4()).unwrap();
    let netlist = flexrtl::build_fc4();
    let result = cosim(
        &netlist,
        core_of(&assembly),
        &mut ConstInput::new(0x3),
        2_000,
    );
    assert!(result.is_equivalent(), "{:?}", result.mismatches);
}

#[test]
fn fc8_program_cosimulates_including_load_byte() {
    let src = "
        ldb   0x5A
        store r2
        load  r0
        nand  r2
        store r1
        halt
    ";
    let assembly = Assembler::new(Target::fc8()).assemble(src).unwrap();
    let netlist = flexrtl::build_fc8();
    let result = cosim(
        &netlist,
        core_of(&assembly),
        &mut ConstInput::new(0x66),
        500,
    );
    assert!(result.is_equivalent(), "{:?}", result.mismatches);
}

/// Every kernel × every DSE target: assemble, run, oracle-verify. This is
/// the correctness backbone of Figures 8–13.
#[test]
fn kernel_matrix_verifies_against_oracles() {
    let targets = [
        ("fc4", Target::fc4()),
        ("xacc revised", Target::xacc_revised()),
        ("xls revised", Target::xls_revised()),
    ];
    for (name, target) in targets {
        for kernel in Kernel::ALL {
            let mut sampler = Sampler::new(kernel, 42);
            for case in sampler.draw_many(6) {
                let run = kernel
                    .run(target, &case)
                    .unwrap_or_else(|e| panic!("{kernel} on {name}: {e}"));
                assert!(run.verified);
            }
        }
    }
}

/// The xorshift kernel, chained output→input, must traverse the full
/// 255-state period — exercising the simulator, the assembler and the
/// PRNG's mathematical property together.
#[test]
fn xorshift_kernel_has_full_period_end_to_end() {
    let program = Kernel::XorShift8
        .assemble(Target::fc4())
        .unwrap()
        .into_program();
    let mut state = 1u8;
    let mut seen = std::collections::HashSet::new();
    for _ in 0..255 {
        assert!(seen.insert(state), "state {state:#04x} repeated");
        let mut core = Fc4Core::new(program.clone());
        let mut input = ScriptedInput::new(vec![state & 0xF, state >> 4]);
        let mut output = RecordingOutput::new();
        let r = core.run(&mut input, &mut output, 100_000).unwrap();
        assert!(r.halted());
        let vals = output.values();
        state = (vals[2] << 4) | vals[0];
        assert_ne!(state, 0);
    }
    assert_eq!(state, 1, "period must be exactly 255");
}

/// The paged calculator runs *gate level* end-to-end: assembled program,
/// seven MMU pages, and the FlexiCore4 netlist matching the ISA model on
/// every cycle — the full §4.1 + §5.1 methodology in one test.
#[test]
fn calculator_cosimulates_through_the_mmu_on_gate_level() {
    let assembly = Kernel::Calculator.assemble(Target::fc4()).unwrap();
    let netlist = flexrtl::build_fc4();
    // op, a, b arrive on the input port; the cosim presents a constant
    // byte, so pick an op whose reads tolerate repetition: op=2 (multiply)
    // reads op, a, b as three successive IPORT samples -> 2 * 2 = 4.
    let result = cosim(&netlist, core_of(&assembly), &mut ConstInput::new(2), 2_000);
    assert!(result.is_equivalent(), "{:?}", result.mismatches);
    assert!(
        result.cycles > 100,
        "multiply crosses four pages: {} cycles",
        result.cycles
    );
}

/// The paged calculator exercises the off-chip MMU across up to seven
/// pages; exhaustive over all operations on a spread of operands.
#[test]
fn calculator_pages_through_the_mmu_correctly() {
    for op in 0..4u8 {
        for (a, b) in [(0, 0), (15, 15), (7, 9), (12, 5), (3, 14)] {
            let b = if op == 3 && b == 0 { 1 } else { b };
            let run = Kernel::Calculator
                .run(Target::fc4(), &[op, a, b])
                .unwrap_or_else(|e| panic!("op {op} a {a} b {b}: {e}"));
            assert!(run.verified);
        }
    }
}

/// The FlexiCore8 parity kernel, gate-level: the program the harness
/// checks on all 256 words also matches the FlexiCore8 netlist
/// cycle-for-cycle.
#[test]
fn fc8_native_parity_cosimulates() {
    let assembly = Kernel::ParityCheck.assemble(Target::fc8()).unwrap();
    let netlist = flexrtl::build_fc8();
    for word in [0x00u8, 0x01, 0x5A, 0xFF, 0x80] {
        let result = cosim(
            &netlist,
            core_of(&assembly),
            &mut ConstInput::new(word),
            500,
        );
        assert!(
            result.is_equivalent(),
            "word {word:#04x}: {:?}",
            result.mismatches
        );
    }
}

/// Wafer experiments must regenerate identically from their seed, and
/// the published seed must reproduce the Table 5 bands.
#[test]
fn wafer_results_are_reproducible_and_in_band() {
    let exp = WaferExperiment::published(CoreDesign::FlexiCore4);
    let run_a = exp.run(4.5, 3_000).unwrap();
    let run_b = exp.run(4.5, 3_000).unwrap();
    assert_eq!(run_a.outcomes, run_b.outcomes);
    let y = run_a.yield_inclusion();
    assert!((0.70..=0.95).contains(&y), "inclusion yield {y}");
}

/// FlexiCore8 must be strictly worse than FlexiCore4 at 3 V — the paper's
/// central voltage-sensitivity observation.
#[test]
fn voltage_sensitivity_orders_the_cores() {
    let fc4 = WaferExperiment::published(CoreDesign::FlexiCore4)
        .run(3.0, 2_000)
        .unwrap();
    let fc8 = WaferExperiment::published(CoreDesign::FlexiCore8)
        .run(3.0, 2_000)
        .unwrap();
    assert!(fc4.yield_inclusion() > 2.0 * fc8.yield_inclusion());
}

/// Reprogramming the same chip with every kernel in turn — the "field
/// reprogrammable" headline property.
#[test]
fn one_chip_runs_every_kernel() {
    let mut core = Fc4Core::new(
        Kernel::ParityCheck
            .assemble(Target::fc4())
            .unwrap()
            .into_program(),
    );
    for kernel in Kernel::ALL {
        let program = kernel.assemble(Target::fc4()).unwrap().into_program();
        core.reprogram(program);
        let mut sampler = Sampler::new(kernel, 5);
        let case = sampler.draw();
        let mut input = ScriptedInput::new(case.clone());
        let mut output = RecordingOutput::new();
        let r = core.run(&mut input, &mut output, 200_000).unwrap();
        assert!(r.halted(), "{kernel} halted");
        let expected =
            flexkernels::oracle::expected_outputs(kernel, flexicore::isa::Dialect::Fc4, &case);
        assert_eq!(output.values(), expected, "{kernel}");
    }
}

/// The paper's measured 360 nJ/instruction and the gate-level static
/// power model must agree: both describe the same chip (§3.1's "power is
/// static" means energy/instruction = P / f).
#[test]
fn per_instruction_energy_is_consistent_with_gate_level_power() {
    use flexicore::energy::{FLEXICORE4_NJ_PER_INSN, FLEXICORE_CLOCK_HZ};
    let netlist = flexrtl::build_fc4();
    let report = flexgate::report::Report::of(&netlist);
    let power_mw = report.total.static_power_mw(4.5);
    let nj_per_insn = power_mw * 1e6 / FLEXICORE_CLOCK_HZ;
    let ratio = nj_per_insn / FLEXICORE4_NJ_PER_INSN;
    assert!(
        (0.8..1.25).contains(&ratio),
        "gate-level model gives {nj_per_insn:.0} nJ/insn vs the paper's 360 (x{ratio:.2})"
    );
}

/// Cross-page `call` without `pjmp` must be rejected at assembly time,
/// like cross-page branches.
#[test]
fn cross_page_call_is_rejected() {
    let src = "
        call far
        halt
    .page 1
    far:
        ret
    ";
    let err = Assembler::new(Target::xacc_revised())
        .assemble(src)
        .unwrap_err();
    assert!(
        matches!(
            err.kind(),
            flexasm::error::AsmErrorKind::CrossPageBranch { .. }
        ),
        "{err}"
    );
}
