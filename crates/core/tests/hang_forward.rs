//! Exactness oracle for the engine's hang fast-forward.
//!
//! The one drain loop, `Engine::resume` (behind `AnyCore::run_with`),
//! skips the tail of a run that has settled into a loop it cannot leave,
//! and skips the fetch-bus visit of hooks that leave the bus alone. The
//! oracle here is the path that does neither: a plain
//! `while !halted && budget_spent < budget { step_with }` loop. Every
//! run must end with the same `RunResult` (or error), the same output
//! writes with the same cycle stamps, the same core state, the same
//! input cursor and the same fault-hook state, bit for bit. Fault planes
//! on the fetch bus and off it both appear, so the fetch latch is held
//! to the oracle too.
//!
//! Budgets run from 0 and 1 up past 20 000, so hangs cross several
//! power-of-two checkpoints; full-page images (the PC wraps instead of
//! running off the end) make hangs common.

use flexicore::exec::{AnyCore, Snapshot};
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::isa::features::FeatureSet;
use flexicore::isa::xacc::Cond;
use flexicore::isa::{fc4, xls, Dialect};
use flexicore::program::Program;
use flexicore::sim::fault::{ArchFault, FaultKind, FaultPlane, StateElement};
use flexicore::sim::{RunResult, StopReason};
use flexicore::SimError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything a run leaves behind.
#[derive(Debug, PartialEq)]
struct Ending {
    result: Result<RunResult, SimError>,
    writes: Vec<(u64, u8)>,
    core: Snapshot,
    reads: usize,
    hook: FaultPlane,
}

/// One run's material.
#[derive(Debug, Clone)]
struct Case {
    dialect: Dialect,
    features: FeatureSet,
    program: Program,
    inputs: Vec<u8>,
    faults: Vec<ArchFault>,
    budget: u64,
}

impl Case {
    fn core(&self) -> AnyCore {
        AnyCore::for_dialect(self.dialect, self.features, self.program.clone())
    }

    /// The plain loop: power-on faults, then step until halted or out of
    /// budget.
    fn oracle(&self) -> Ending {
        let mut core = self.core();
        let mut input = ScriptedInput::new(self.inputs.clone());
        let mut output = RecordingOutput::new();
        let mut hook = FaultPlane::with_faults(self.faults.clone());
        core.power_on_faults(&mut hook);
        let mut result = Ok(());
        while !core.is_halted() && core.budget_spent() < self.budget {
            if let Err(e) = core.step_with(&mut input, &mut output, &mut hook) {
                result = Err(e);
                break;
            }
        }
        Ending {
            result: result.map(|()| core.run_result()),
            writes: output.writes().to_vec(),
            core: core.snapshot(),
            reads: input.reads(),
            hook,
        }
    }

    fn run_with(&self) -> Ending {
        let mut core = self.core();
        let mut input = ScriptedInput::new(self.inputs.clone());
        let mut output = RecordingOutput::new();
        let mut hook = FaultPlane::with_faults(self.faults.clone());
        let result = core.run_with(&mut input, &mut output, self.budget, &mut hook);
        Ending {
            result,
            writes: output.writes().to_vec(),
            core: core.snapshot(),
            reads: input.reads(),
            hook,
        }
    }
}

fn dialects() -> impl Strategy<Value = Dialect> {
    prop_oneof![
        Just(Dialect::Fc4),
        Just(Dialect::Fc8),
        Just(Dialect::ExtendedAcc),
        Just(Dialect::LoadStore),
    ]
}

fn features() -> impl Strategy<Value = FeatureSet> {
    prop_oneof![Just(FeatureSet::BASE), Just(FeatureSet::revised())]
}

fn elements() -> impl Strategy<Value = StateElement> {
    prop_oneof![
        Just(StateElement::Pc),
        Just(StateElement::Acc),
        (0u8..8).prop_map(StateElement::Mem),
        Just(StateElement::FetchBus),
        Just(StateElement::InputPort),
        Just(StateElement::OutputPort),
        Just(StateElement::PageReg),
        Just(StateElement::PagePending),
    ]
}

/// Stuck-ats and flips, some of them firing after the first checkpoint
/// so the hook turns steady mid-run.
fn arch_faults() -> impl Strategy<Value = ArchFault> {
    let kinds = prop_oneof![
        Just(FaultKind::StuckAt0),
        Just(FaultKind::StuckAt1),
        (0u64..3_000).prop_map(FaultKind::FlipAtCycle),
    ];
    (elements(), 0u8..8, kinds).prop_map(|(element, bit, kind)| ArchFault { element, bit, kind })
}

/// Short images, and whole pages whose PC wraps instead of running off
/// the end (one page of bytes for the byte-indexed dialects, two for
/// the instruction-indexed load-store PC).
fn images() -> impl Strategy<Value = Program> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..40),
        proptest::collection::vec(any::<u8>(), 128..=130),
        proptest::collection::vec(any::<u8>(), 256..=258),
    ]
    .prop_map(Program::from_bytes)
}

fn budgets() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        2u64..400,
        1_000u64..5_000,
        16_000u64..24_000,
    ]
}

fn cases() -> impl Strategy<Value = Case> {
    (
        dialects(),
        features(),
        images(),
        proptest::collection::vec(any::<u8>(), 0..6),
        proptest::collection::vec(arch_faults(), 0..3),
        budgets(),
    )
        .prop_map(
            |(dialect, features, program, inputs, faults, budget)| Case {
                dialect,
                features,
                program,
                inputs,
                faults,
                budget,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `AnyCore::run_with` ends exactly where the plain loop ends.
    #[test]
    fn run_with_equals_the_plain_loop(case in cases()) {
        prop_assert_eq!(case.run_with(), case.oracle(), "{:?}", case);
    }
}

/// A seeded sweep of whole-page random images under one stuck-at or
/// flip each, at a 20 000 budget: hundreds of runs hang across several
/// checkpoints, and every one must still match the plain loop.
#[test]
fn seeded_hang_sweep_matches_the_plain_loop() {
    let per_dialect = if cfg!(debug_assertions) { 60 } else { 200 };
    let mut rng = StdRng::seed_from_u64(0x4A46_0F0F);
    let mut hangs = 0;
    for dialect in [
        Dialect::Fc4,
        Dialect::Fc8,
        Dialect::ExtendedAcc,
        Dialect::LoadStore,
    ] {
        let len = if dialect == Dialect::LoadStore {
            256
        } else {
            128
        };
        for _ in 0..per_dialect {
            let program = Program::from_bytes((0..len).map(|_| rng.gen()).collect());
            let mut cases = Vec::new();
            for _ in 0..4 {
                let element = match rng.gen_range(0..6) {
                    0 => StateElement::Pc,
                    1 => StateElement::Acc,
                    2 => StateElement::FetchBus,
                    3 => StateElement::InputPort,
                    4 => StateElement::OutputPort,
                    _ => StateElement::Mem(rng.gen_range(0..8u8)),
                };
                let kind = match rng.gen_range(0..3) {
                    0 => FaultKind::StuckAt0,
                    1 => FaultKind::StuckAt1,
                    _ => FaultKind::FlipAtCycle(rng.gen_range(0..4_000u64)),
                };
                cases.push(Case {
                    dialect,
                    features: FeatureSet::revised(),
                    program: program.clone(),
                    inputs: (0..rng.gen_range(0..4)).map(|_| rng.gen()).collect(),
                    faults: vec![ArchFault {
                        element,
                        bit: rng.gen_range(0..4u8),
                        kind,
                    }],
                    budget: 20_000,
                });
            }
            for case in &cases {
                let want = case.oracle();
                if matches!(want.result, Ok(r) if r.stop == StopReason::CycleLimit) {
                    hangs += 1;
                }
                assert_eq!(case.run_with(), want, "{case:?}");
            }
        }
    }
    assert!(
        hangs >= per_dialect / 2,
        "the sweep must exercise the watchdog, got {hangs} hangs"
    );
}

/// A two-instruction spin under an unbounded watchdog returns at once,
/// with accounting that saturates instead of overflowing.
#[test]
fn unbounded_spin_returns_promptly() {
    let fc4_spin = vec![
        fc4::Instruction::NandImm { imm: 0 }.encode(),
        fc4::Instruction::Branch { target: 0 }.encode(),
    ];
    let mut xls_spin = Vec::new();
    xls::Instruction::Alu {
        op: xls::Op::Mov,
        rd: 2,
        operand: xls::Operand::Imm(0),
    }
    .encode_into(&mut xls_spin);
    xls::Instruction::Br {
        cond: Cond::ALWAYS,
        target: 0,
    }
    .encode_into(&mut xls_spin);
    let stuck = FaultPlane::with_faults(vec![ArchFault {
        element: StateElement::Mem(3),
        bit: 0,
        kind: FaultKind::StuckAt1,
    }]);
    for (dialect, program, bytes_per_insn) in [
        (Dialect::Fc4, Program::from_bytes(fc4_spin), 1),
        (Dialect::LoadStore, Program::from_bytes(xls_spin), 2),
    ] {
        for plane in [FaultPlane::new(), stuck.clone()] {
            let mut core = AnyCore::for_dialect(dialect, FeatureSet::revised(), program.clone());
            let mut hook = plane.clone();
            let r = core
                .run_with(
                    &mut ScriptedInput::new(vec![1]),
                    &mut RecordingOutput::new(),
                    u64::MAX,
                    &mut hook,
                )
                .expect("a spin never faults");
            assert_eq!(r.stop, StopReason::CycleLimit);
            assert_eq!(r.instructions, u64::MAX, "{dialect:?}");
            assert_eq!(r.cycles, u64::MAX, "{dialect:?}");
            assert_eq!(r.taken_branches, u64::MAX / 2, "{dialect:?}");
            assert_eq!(
                r.fetched_bytes,
                u64::MAX.saturating_mul(bytes_per_insn),
                "{dialect:?}"
            );
        }
    }
}

/// The repeat test compares the input position too: a loop whose core
/// state repeats while it consumes a long script must not be skipped,
/// because a later value breaks it out.
#[test]
fn input_position_gates_the_jump() {
    use fc4::Instruction as I;
    let program = Program::from_bytes(
        [
            I::Load { addr: 0 },     // acc = next input
            I::Branch { target: 4 }, // negative input: leave
            I::NandImm { imm: 0 },   // acc = 0xF
            I::Branch { target: 0 }, // poll again
            I::NandImm { imm: 0 },   //
            I::Branch { target: 5 }, // halt idiom
        ]
        .iter()
        .map(|i| i.encode())
        .collect(),
    );
    let mut inputs = vec![1u8; 3_000];
    inputs.push(0x8);
    let case = Case {
        dialect: Dialect::Fc4,
        features: FeatureSet::BASE,
        program,
        inputs,
        faults: Vec::new(),
        budget: 20_000,
    };
    let want = case.oracle();
    assert!(
        matches!(want.result, Ok(r) if r.halted()),
        "{:?}",
        want.result
    );
    assert_eq!(case.run_with(), want);
}

/// `same_regs` sees every piece of dialect-private state a snapshot
/// restores: perturbing any one of them makes the core differ from the
/// original snapshot and match the perturbed one.
#[test]
fn same_regs_sees_every_restored_field() {
    use flexicore::exec::Core;
    use flexicore::sim::{fc4::Fc4Core, fc8::Fc8Core, xacc::XaccCore, xls::XlsCore};

    fn check<C: Core>(mut core: C) {
        let base = core.snapshot();
        assert!(core.same_regs(&base));
        let mut perturbed = Vec::new();
        for bit in 0..4 {
            let mut s = base.clone();
            s.flags ^= 1 << bit;
            perturbed.push(s);
        }
        for i in 0..base.mem.len() {
            let mut s = base.clone();
            s.mem[i] ^= 1;
            perturbed.push(s);
        }
        let (mut acc, mut ra) = (base.clone(), base.clone());
        acc.acc ^= 1;
        ra.ra ^= 1;
        perturbed.extend([acc, ra]);
        let mut seen = 0;
        for s in perturbed {
            core.restore(&s);
            if core.snapshot() != s {
                continue; // not part of this dialect's state
            }
            seen += 1;
            assert!(core.same_regs(&s), "{s:?}");
            assert!(!core.same_regs(&base), "{s:?} vs {base:?}");
        }
        assert!(seen > base.mem.len(), "every field was exercised");
    }
    let program = Program::from_bytes(vec![0; 4]);
    check(Fc4Core::new(program.clone()));
    check(Fc8Core::new(program.clone()));
    check(XaccCore::new(FeatureSet::revised(), program.clone()));
    check(XlsCore::new(FeatureSet::revised(), program));
}
