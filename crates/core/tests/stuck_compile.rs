//! Compiled stuck-at planes against the plain step loop.
//!
//! A steady `FaultPlane` whose faults that can still act are all
//! stuck-ats on one element compiles to a `StuckMask`, and
//! `Core::resume_with` drains the rest of the run on that mask; a stuck
//! fetch bus runs on the table of the stuck image. `Core::step_with`
//! keeps visiting the plane itself, so a plain
//! `while !halted && budget_spent < budget { step_with }` loop under the
//! same plane is an independent oracle: every run must end with the
//! same `RunResult` (or error), the same output writes, the same core
//! state, the same input cursor and the same plane, bit for bit.
//!
//! Planes hold one to three stuck-ats on one element (sa0 and sa1 on the
//! same bit in both orders among them) on every element: the PC, the
//! accumulator, data words including an index past the dialect's
//! memory, the fetch bus, both ports, the page register and the pending
//! latch. Two-element planes, which stay hooked, and stuck-ats next to
//! flips that fire early, which compile once the flips have fired, sit
//! beside them. Images are random bytes, illegal ones included, short or
//! spanning more than one page; budgets sit on either side of the first
//! two hang checkpoints (64 and 128 units) and run into long hangs.

use flexicore::exec::{AnyCore, Snapshot};
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::isa::features::FeatureSet;
use flexicore::isa::Dialect;
use flexicore::program::Program;
use flexicore::sim::fault::{ArchFault, FaultHook, FaultKind, FaultPlane, StateElement};
use flexicore::sim::RunResult;
use flexicore::SimError;
use proptest::prelude::*;

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
    /// budget, visiting the plane at every step.
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

    /// The drain loop, `run_with`, on a clone of one prototype core, so
    /// a stuck fetch bus's image table is built once and then shared.
    fn run_with(&self, prototype: &AnyCore) -> Ending {
        let mut core = prototype.clone();
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

    /// `run_with` twice on clones of one core, each against the plain
    /// loop.
    fn check(&self) -> Result<(), TestCaseError> {
        let oracle = self.oracle();
        let prototype = self.core();
        let (first, second) = (self.run_with(&prototype), self.run_with(&prototype));
        prop_assert_eq!(&first, &oracle, "{:?}", self);
        prop_assert_eq!(&second, &oracle, "{:?}", self);
        Ok(())
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

/// Every element; `Mem(8)` and `Mem(9)` lie past every dialect's memory,
/// `Mem(4)..` past FlexiCore8's.
fn elements() -> impl Strategy<Value = StateElement> {
    prop_oneof![
        Just(StateElement::Pc),
        Just(StateElement::Acc),
        (0u8..10).prop_map(StateElement::Mem),
        Just(StateElement::FetchBus),
        Just(StateElement::InputPort),
        Just(StateElement::OutputPort),
        Just(StateElement::PageReg),
        Just(StateElement::PagePending),
    ]
}

fn stuck_kinds() -> impl Strategy<Value = FaultKind> {
    prop_oneof![Just(FaultKind::StuckAt0), Just(FaultKind::StuckAt1)]
}

/// One to three stuck-ats on `element`, bits drawn over the whole byte
/// so bits past the element's width appear too.
fn stuck_ats(element: StateElement, picks: Vec<(u8, FaultKind)>) -> Vec<ArchFault> {
    picks
        .into_iter()
        .map(|(bit, kind)| ArchFault { element, bit, kind })
        .collect()
}

/// A one-element plane: one to three stuck-ats, or sa0 and sa1 on one
/// bit in either order followed by up to one more stuck-at.
fn one_element_planes() -> impl Strategy<Value = Vec<ArchFault>> {
    let picks = proptest::collection::vec((0u8..8, stuck_kinds()), 1..=3);
    let clashes = (
        0u8..8,
        any::<bool>(),
        proptest::collection::vec((0u8..8, stuck_kinds()), 0..=1),
    )
        .prop_map(|(bit, one_first, tail)| {
            let (first, second) = if one_first {
                (FaultKind::StuckAt1, FaultKind::StuckAt0)
            } else {
                (FaultKind::StuckAt0, FaultKind::StuckAt1)
            };
            let mut picks = vec![(bit, first), (bit, second)];
            picks.extend(tail);
            picks
        });
    (elements(), prop_oneof![picks, clashes]).prop_map(|(element, picks)| stuck_ats(element, picks))
}

/// Stuck-ats on two distinct elements, interleaved.
fn two_element_planes() -> impl Strategy<Value = Vec<ArchFault>> {
    (
        elements(),
        elements(),
        proptest::collection::vec((any::<bool>(), 0u8..8, stuck_kinds()), 2..=4),
    )
        .prop_map(|(a, b, picks)| {
            let b = if a == b { StateElement::OutputPort } else { b };
            let b = if a == b { StateElement::Pc } else { b };
            let mut faults: Vec<ArchFault> = picks
                .into_iter()
                .map(|(first, bit, kind)| ArchFault {
                    element: if first { a } else { b },
                    bit,
                    kind,
                })
                .collect();
            // both elements present
            faults[0].element = a;
            faults[1].element = b;
            faults
        })
}

/// A one-element plane plus one or two flips early enough that most
/// fire inside the run, on any element.
fn fired_flip_planes() -> impl Strategy<Value = Vec<ArchFault>> {
    (
        one_element_planes(),
        proptest::collection::vec((elements(), 0u8..8, 0u64..16), 1..=2),
        any::<bool>(),
    )
        .prop_map(|(mut faults, flips, flips_first)| {
            let flips = flips.into_iter().map(|(element, bit, at)| ArchFault {
                element,
                bit,
                kind: FaultKind::FlipAtCycle(at),
            });
            if flips_first {
                faults.splice(0..0, flips);
            } else {
                faults.extend(flips);
            }
            faults
        })
}

/// Random bytes, illegal ones included: short images, and images of one
/// page or more whose PC wraps or which hold a second page.
fn images() -> impl Strategy<Value = Program> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..40),
        proptest::collection::vec(any::<u8>(), 128..=130),
        proptest::collection::vec(any::<u8>(), 256..=300),
    ]
    .prop_map(Program::from_bytes)
}

/// Budgets one unit either side of, and on, the first two hang
/// checkpoints, and long hangs.
fn budgets() -> impl Strategy<Value = u64> {
    prop_oneof![63u64..=65, 127u64..=129, 16_000u64..24_000]
}

fn cases(planes: impl Strategy<Value = Vec<ArchFault>>) -> impl Strategy<Value = Case> {
    (
        dialects(),
        features(),
        images(),
        proptest::collection::vec(any::<u8>(), 0..6),
        planes,
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
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// One-element planes compile from the start and run on the mask.
    #[test]
    fn one_element_plane_equals_the_plain_loop(case in cases(one_element_planes())) {
        prop_assert!(FaultPlane::with_faults(case.faults.clone()).compiled().is_some());
        case.check()?;
    }

    /// Two-element planes never compile and stay on the hooked path.
    #[test]
    fn two_element_plane_equals_the_plain_loop(case in cases(two_element_planes())) {
        prop_assert!(FaultPlane::with_faults(case.faults.clone()).compiled().is_none());
        case.check()?;
    }

    /// A plane with pending flips runs hooked, then compiles once they
    /// have all fired.
    #[test]
    fn stuck_at_beside_fired_flips_equals_the_plain_loop(case in cases(fired_flip_planes())) {
        prop_assert!(FaultPlane::with_faults(case.faults.clone()).compiled().is_none());
        case.check()?;
    }
}
