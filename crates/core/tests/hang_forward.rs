//! Exactness oracle for the engine's hang fast-forward.
//!
//! The one drain loop, `Core::resume_with` (behind `AnyCore::run_with`),
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
//!
//! A second strategy sits on the boundary of the quiet stretches, the
//! hook-free runs up to a pending flip: two or three flips per plane at
//! cycles 0..64, on port, fetch-bus and state elements alike, and
//! FlexiCore8 images dense in two-cycle `LOAD BYTE`s, whose state visit
//! lands two cycles after the step starts.
//!
//! A third sits on the detector's schedule: budgets on either side of
//! the first two checkpoints (64 and 128 units), and fabricated-core
//! loops whose period is longer than the first checkpoint's window, so
//! only a re-anchor can catch them. The schedule itself is pinned by
//! counting the steps a steady hook sees on two hangs, and, for the
//! fault-free code's later first checkpoint, the periods a fault-free
//! hang writes to the port.

use flexicore::exec::{AnyCore, Snapshot};
use flexicore::io::{OutputPort, RecordingOutput, ScriptedInput};
use flexicore::isa::acc::{self, Cond};
use flexicore::isa::features::FeatureSet;
use flexicore::isa::{xls, Dialect};
use flexicore::program::Program;
use flexicore::sim::fault::{ArchFault, ArchState, FaultHook, FaultKind, FaultPlane, StateElement};
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

/// Flips only, early enough that most fire inside the run.
fn early_flips() -> impl Strategy<Value = ArchFault> {
    (elements(), 0u8..8, 0u64..64).prop_map(|(element, bit, at)| ArchFault {
        element,
        bit,
        kind: FaultKind::FlipAtCycle(at),
    })
}

/// A FlexiCore8 image of legal instructions, one in three a `LOAD BYTE`,
/// with branches that stay inside the image.
fn fc8_load_byte_images() -> impl Strategy<Value = Program> {
    proptest::collection::vec((0u8..9, any::<u8>()), 4..48).prop_map(|picks| {
        let len = picks.len() as u8;
        let mut bytes = Vec::new();
        for (pick, arg) in picks {
            let insn = match pick {
                0..=2 => acc::Instruction::LoadByte { imm: arg },
                3 => acc::Instruction::AddImm { imm: arg & 0xF },
                4 => acc::Instruction::Xor { m: arg & 0x3 },
                5 => acc::Instruction::Load { m: arg & 0x3 },
                6 => acc::Instruction::Store { m: arg & 0x3 },
                7 => acc::Instruction::NandImm { imm: arg & 0xF },
                _ => acc::Instruction::Br {
                    cond: Cond::N,
                    target: arg % len,
                },
            };
            insn.encode_into(Dialect::Fc8, &mut bytes);
        }
        Program::from_bytes(bytes)
    })
}

fn boundary_cases() -> impl Strategy<Value = Case> {
    let material = prop_oneof![
        (Just(Dialect::Fc8), fc8_load_byte_images()),
        (dialects(), images()),
    ];
    let budgets = prop_oneof![0u64..200, 1_000u64..3_000];
    (
        material,
        features(),
        proptest::collection::vec(any::<u8>(), 0..6),
        proptest::collection::vec(early_flips(), 2..=3),
        budgets,
    )
        .prop_map(
            |((dialect, program), features, inputs, faults, budget)| Case {
                dialect,
                features,
                program,
                inputs,
                faults,
                budget,
            },
        )
}

/// Budgets one unit either side of, and on, the first two
/// checkpoints, and budgets that leave room for several re-anchors.
fn checkpoint_budgets() -> impl Strategy<Value = u64> {
    prop_oneof![63u64..=65, 127u64..=129, 130u64..3_000]
}

/// A fabricated-core image: a straight-line prefix, then a loop of 63
/// to 100 straight-line instructions closed by `NAND 0` (the
/// accumulator turns negative) and a taken branch back. Its period is
/// longer than the 64-unit window after the first checkpoint unless a
/// fault breaks it.
fn long_loop_images() -> impl Strategy<Value = Program> {
    let straight = (0u8..8, any::<u8>()).prop_map(|(pick, arg)| match pick {
        0 => acc::Instruction::AddImm { imm: arg & 0xF },
        1 => acc::Instruction::NandImm { imm: arg & 0xF },
        2 => acc::Instruction::XorImm { imm: arg & 0xF },
        3 => acc::Instruction::Add { m: arg & 0x3 },
        4 => acc::Instruction::Xor { m: arg & 0x3 },
        5 => acc::Instruction::Load { m: arg & 0x3 },
        6 => acc::Instruction::Store { m: arg & 0x3 },
        _ => acc::Instruction::Nand { m: arg & 0x3 },
    });
    (
        proptest::collection::vec(straight.clone(), 0..26),
        proptest::collection::vec(straight, 63..=100),
    )
        .prop_map(|(prefix, body)| {
            let start = prefix.len() as u8;
            let mut bytes = Vec::new();
            for insn in prefix.iter().chain(&body).chain(&[
                acc::Instruction::NandImm { imm: 0 },
                acc::Instruction::Br {
                    cond: Cond::N,
                    target: start,
                },
            ]) {
                insn.encode_into(Dialect::Fc4, &mut bytes);
            }
            Program::from_bytes(bytes)
        })
}

fn schedule_cases() -> impl Strategy<Value = Case> {
    let material = prop_oneof![
        (
            prop_oneof![Just(Dialect::Fc4), Just(Dialect::Fc8)],
            long_loop_images()
        ),
        (dialects(), images()),
    ];
    (
        material,
        features(),
        proptest::collection::vec(any::<u8>(), 0..6),
        proptest::collection::vec(arch_faults(), 0..2),
        checkpoint_budgets(),
    )
        .prop_map(
            |((dialect, program), features, inputs, faults, budget)| Case {
                dialect,
                features,
                program,
                inputs,
                faults,
                budget,
            },
        )
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
    // a third of the cases come from each strategy, so `cases()` keeps
    // its 512 draws and the boundary and schedule cases come on top
    #![proptest_config(ProptestConfig::with_cases(1536))]

    /// `AnyCore::run_with` ends exactly where the plain loop ends.
    #[test]
    fn run_with_equals_the_plain_loop(
        case in prop_oneof![cases(), boundary_cases(), schedule_cases()]
    ) {
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

/// A steady hook that counts its state visits: one per simulated step,
/// plus the power-on visit, and none for the steps a jump skips. The
/// count never reaches the core, so the run is that of `NoFaults`.
#[derive(Default)]
struct StepCounter {
    visits: u64,
}

impl FaultHook for StepCounter {
    fn is_steady(&self) -> bool {
        true
    }

    fn on_state(&mut self, _cycle: u64, _state: &mut ArchState<'_>) {
        self.visits += 1;
    }
}

/// The kernel harness's watchdog, in cycles.
const CYCLE_BUDGET: u64 = 200_000;

/// The steps simulated in one FlexiCore4 run of `insns` to the kernel
/// watchdog, once the run is checked to hang and to end where the
/// plain loop ends.
fn steps_to_watchdog(insns: &[acc::Instruction]) -> u64 {
    let program = Program::from_bytes(insns.iter().flat_map(|i| i.encode(Dialect::Fc4)).collect());
    let run = |plain: bool| {
        let mut core = AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, program.clone());
        let mut input = ScriptedInput::new(Vec::new());
        let mut output = RecordingOutput::new();
        let mut hook = StepCounter::default();
        let result = if plain {
            core.power_on_faults(&mut hook);
            while !core.is_halted() && core.budget_spent() < CYCLE_BUDGET {
                core.step_with(&mut input, &mut output, &mut hook)
                    .expect("the loop never faults");
            }
            core.run_result()
        } else {
            core.run_with(&mut input, &mut output, CYCLE_BUDGET, &mut hook)
                .expect("the loop never faults")
        };
        (
            result,
            output.writes().to_vec(),
            core.snapshot(),
            hook.visits,
        )
    };
    let (result, writes, core, steps) = run(false);
    let (plain_result, plain_writes, plain_core, _) = run(true);
    assert_eq!(result.stop, StopReason::CycleLimit);
    assert_eq!(
        (result, writes, core),
        (plain_result, plain_writes, plain_core)
    );
    steps
}

/// The detector anchors first at 64 units: a period-2 loop entered
/// after two cycles is caught within a few periods of that checkpoint,
/// not of a later one.
#[test]
fn a_hang_is_caught_within_periods_of_the_first_checkpoint() {
    use acc::Instruction as I;
    let period = 2;
    let steps = steps_to_watchdog(&[
        I::AddImm { imm: 1 },
        I::AddImm { imm: 1 },
        I::NandImm { imm: 0 }, // acc = -1, so the branch is taken
        I::Br {
            cond: Cond::N,
            target: 2,
        },
    ]);
    // the power-on visit, the steps to the checkpoint, the search and
    // the replayed period, and at most one partial period
    assert!(steps <= 1 + 64 + 3 * period, "{steps} steps simulated");
}

/// A loop entered after the first checkpoint, with a period longer
/// than its 64-unit window, is caught by the re-anchor at 128.
#[test]
fn a_long_period_entered_late_is_caught_by_the_next_anchor() {
    use acc::Instruction as I;
    // count r2 down from 0 to 7: nine passes of four cycles
    let mut insns = vec![
        I::Load { m: 2 },
        I::AddImm { imm: 0xF },
        I::Store { m: 2 },
        I::Br {
            cond: Cond::N,
            target: 0,
        },
    ];
    // a straight run to cycle 66, past the first checkpoint, leaving
    // acc = -1 as every later pass does
    insns.extend([I::XorImm { imm: 0 }; 29]);
    insns.push(I::NandImm { imm: 0 });
    let start = insns.len() as u8;
    for i in 0..68 {
        insns.push(if i % 2 == 0 {
            I::AddImm { imm: 1 }
        } else {
            I::XorImm { imm: 5 }
        });
    }
    insns.extend([
        I::NandImm { imm: 0 },
        I::Br {
            cond: Cond::N,
            target: start,
        },
    ]);
    let period = 70;
    let steps = steps_to_watchdog(&insns);
    assert!(steps <= 1 + 128 + 3 * period, "{steps} steps simulated");
}

/// Counts the output writes a run simulates, and the replays the jump
/// asks for in their place.
#[derive(Default)]
struct WriteCounter {
    writes: u64,
    repeats: u64,
}

impl OutputPort for WriteCounter {
    fn write(&mut self, _cycle: u64, _value: u8) {
        self.writes += 1;
    }

    fn repeat(&mut self, _period: &[(u64, u8)], _shift: u64, _times: u64) {
        self.repeats += 1;
    }
}

/// A fault-free run anchors first at 1 024 units: a loop that writes
/// the port once per period, entered after two cycles, is simulated
/// until about that checkpoint and jumped from within a few periods of
/// it, never from the 64-unit checkpoint of an active hook.
#[test]
fn a_fault_free_hang_is_caught_from_the_later_first_checkpoint() {
    use acc::Instruction as I;
    let program = Program::from_bytes(
        [
            I::AddImm { imm: 1 },
            I::AddImm { imm: 1 },
            I::Store { m: 1 },     // one output write per period
            I::NandImm { imm: 0 }, // acc = -1, so the branch is taken
            I::Br {
                cond: Cond::N,
                target: 2,
            },
        ]
        .iter()
        .flat_map(|i| i.encode(Dialect::Fc4))
        .collect(),
    );
    let period = 3;
    let core = || AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, program.clone());

    let mut counter = WriteCounter::default();
    core()
        .run(
            &mut ScriptedInput::new(Vec::new()),
            &mut counter,
            CYCLE_BUDGET,
        )
        .expect("the loop never faults");
    assert_eq!(counter.repeats, 1, "one jump");
    let periods = counter.writes;
    assert!(
        ((1024 - 2) / period..=(1 + 1024 + 3 * period) / period).contains(&periods),
        "{periods} periods simulated"
    );

    let mut fast = core();
    let mut fast_output = RecordingOutput::new();
    let result = fast
        .run(
            &mut ScriptedInput::new(Vec::new()),
            &mut fast_output,
            CYCLE_BUDGET,
        )
        .expect("the loop never faults");
    let mut plain = core();
    let mut plain_output = RecordingOutput::new();
    let mut input = ScriptedInput::new(Vec::new());
    while !plain.is_halted() && plain.budget_spent() < CYCLE_BUDGET {
        plain
            .step(&mut input, &mut plain_output)
            .expect("the loop never faults");
    }
    assert_eq!(result.stop, StopReason::CycleLimit);
    assert_eq!(
        (result, fast_output.writes(), fast.snapshot()),
        (plain.run_result(), plain_output.writes(), plain.snapshot())
    );
}

/// A two-instruction spin under an unbounded watchdog returns at once,
/// with accounting that saturates instead of overflowing.
#[test]
fn unbounded_spin_returns_promptly() {
    let fc4_spin = [
        acc::Instruction::NandImm { imm: 0 }.encode(Dialect::Fc4),
        acc::Instruction::Br {
            cond: Cond::N,
            target: 0,
        }
        .encode(Dialect::Fc4),
    ]
    .concat();
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
    use acc::Instruction as I;
    let program = Program::from_bytes(
        [
            I::Load { m: 0 }, // acc = next input
            I::Br {
                cond: Cond::N,
                target: 4,
            }, // negative input: leave
            I::NandImm { imm: 0 }, // acc = 0xF
            I::Br {
                cond: Cond::N,
                target: 0,
            }, // poll again
            I::NandImm { imm: 0 }, //
            I::Br {
                cond: Cond::N,
                target: 5,
            }, // halt idiom
        ]
        .iter()
        .flat_map(|i| i.encode(Dialect::Fc4))
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
    use flexicore::sim::{fc4::Fc4Core, fc4::Fc8Core, xacc::XaccCore, xls::XlsCore};

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
