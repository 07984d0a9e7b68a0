//! Lockstep properties: the packed 64-lane driver against the scalar
//! engine, which stays the differential oracle.
//!
//! Every lane admitted to a [`PackedDriver`] (via [`run_packed_lanes`])
//! must retire with exactly the status, accounting, and output stream a
//! serial `run_with` of the same core/input/fault-plane produces —
//! across all four dialects, over arbitrary program bytes (legal or
//! not), and with fault planes that do and do not corrupt the fetch bus
//! (the cached-decode and divergence-fallback paths respectively).

use flexicore::exec::{run_packed_lanes, AnyCore, LaneStatus};
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::isa::features::FeatureSet;
use flexicore::isa::Dialect;
use flexicore::program::Program;
use flexicore::sim::fault::{ArchFault, FaultKind, FaultPlane, StateElement};
use proptest::prelude::*;

fn dialects() -> impl Strategy<Value = Dialect> {
    prop_oneof![
        Just(Dialect::Fc4),
        Just(Dialect::Fc8),
        Just(Dialect::ExtendedAcc),
        Just(Dialect::LoadStore),
    ]
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

fn fault_kinds() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::StuckAt0),
        Just(FaultKind::StuckAt1),
        (0u64..200).prop_map(FaultKind::FlipAtCycle),
    ]
}

fn arch_faults() -> impl Strategy<Value = ArchFault> {
    (elements(), 0u8..8, fault_kinds()).prop_map(|(element, bit, kind)| ArchFault {
        element,
        bit,
        kind,
    })
}

/// Watchdog budgets short of the first hang fast-forward checkpoint
/// (1 024 units) and well past it, so hung lanes take the jump.
fn budgets() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..400, 2_000u64..20_000]
}

/// One lane's worth of campaign material.
#[derive(Debug, Clone)]
struct LanePlan {
    dialect: Dialect,
    faults: Vec<ArchFault>,
    inputs: Vec<u8>,
}

fn lane_plans() -> impl Strategy<Value = LanePlan> {
    (
        dialects(),
        proptest::collection::vec(arch_faults(), 0..3),
        proptest::collection::vec(any::<u8>(), 1..6),
    )
        .prop_map(|(dialect, faults, inputs)| LanePlan {
            dialect,
            faults,
            inputs,
        })
}

/// The serial oracle: `run_with` on a fresh core, mapped onto the
/// driver's retirement statuses.
fn serial_oracle(
    dialect: Dialect,
    program: &Program,
    inputs: &[u8],
    faults: &FaultPlane,
    budget: u64,
) -> (LaneStatus, Vec<u8>) {
    let mut core = AnyCore::for_dialect(dialect, FeatureSet::BASE, program.clone());
    let mut input = ScriptedInput::new(inputs.to_vec());
    let mut output = RecordingOutput::new();
    let mut hook = faults.clone();
    let status = match core.run_with(&mut input, &mut output, budget, &mut hook) {
        Ok(r) if r.halted() => LaneStatus::Done(r),
        Ok(r) => LaneStatus::Hung(r),
        Err(e) => LaneStatus::Faulted(e),
    };
    (status, output.values().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary program bytes, mixed dialects, faulty and clean lanes:
    /// packed execution retires every lane exactly as the scalar engine
    /// does.
    #[test]
    fn packed_batches_replay_the_scalar_engine(
        program_bytes in proptest::collection::vec(any::<u8>(), 1..40),
        plans in proptest::collection::vec(lane_plans(), 1..24),
        budget in budgets(),
    ) {
        let program = Program::from_bytes(program_bytes);
        let batch: Vec<_> = plans
            .iter()
            .map(|p| {
                (
                    AnyCore::for_dialect(p.dialect, FeatureSet::BASE, program.clone()),
                    ScriptedInput::new(p.inputs.clone()),
                    RecordingOutput::new(),
                    FaultPlane::with_faults(p.faults.clone()),
                )
            })
            .collect();
        let packed = run_packed_lanes(batch, budget);
        prop_assert_eq!(packed.len(), plans.len());
        for (plan, (status, output)) in plans.iter().zip(packed) {
            let faults = FaultPlane::with_faults(plan.faults.clone());
            let (want_status, want_output) =
                serial_oracle(plan.dialect, &program, &plan.inputs, &faults, budget);
            prop_assert_eq!(&status, &want_status, "dialect {:?}", plan.dialect);
            prop_assert_eq!(output.values(), &want_output[..], "dialect {:?}", plan.dialect);
        }
    }

    /// Same-program 64-lane packs where one half corrupts the fetch bus
    /// and the other half does not: the divergence fallback and the
    /// shared cache must coexist without contaminating each other.
    #[test]
    fn fetch_divergence_never_contaminates_clean_lanes(
        program_bytes in proptest::collection::vec(any::<u8>(), 4..32),
        dialect in dialects(),
        bus_bit in 0u8..8,
        lanes in 2usize..16,
        budget in budgets(),
    ) {
        let program = Program::from_bytes(program_bytes);
        let plans: Vec<FaultPlane> = (0..lanes)
            .map(|l| {
                if l % 2 == 0 {
                    FaultPlane::new()
                } else {
                    FaultPlane::with_faults(vec![ArchFault {
                        element: StateElement::FetchBus,
                        bit: bus_bit,
                        kind: FaultKind::StuckAt1,
                    }])
                }
            })
            .collect();
        let batch: Vec<_> = plans
            .iter()
            .map(|p| {
                (
                    AnyCore::for_dialect(dialect, FeatureSet::BASE, program.clone()),
                    ScriptedInput::new(vec![5]),
                    RecordingOutput::new(),
                    p.clone(),
                )
            })
            .collect();
        let packed = run_packed_lanes(batch, budget);
        for (plane, (status, output)) in plans.iter().zip(packed) {
            let (want_status, want_output) =
                serial_oracle(dialect, &program, &[5], plane, budget);
            prop_assert_eq!(&status, &want_status);
            prop_assert_eq!(output.values(), &want_output[..]);
        }
    }
}
