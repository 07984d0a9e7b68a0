//! The predecoded program table against the raw decode it replaces.
//!
//! Every core decodes its program once, at construction, into one entry
//! per byte address, and a step whose fetch bus is fault-free reads that
//! entry instead of decoding the fetch window. Three things hold it to
//! the raw path:
//!
//! * each entry is exactly the instruction of the core's own
//!   `decode(window(a), a)`, with `None` where that decode fails (the
//!   length the decode returns is what the executed arm reports;
//!   `step_commit.rs` holds the two equal);
//! * a fault-free `run_with` (table) ends exactly like a plain
//!   `step_with` loop under an empty `FaultPlane`, whose active hook
//!   makes every step fetch and decode the raw bytes;
//! * a fault on the fetch bus still corrupts what the core executes: a
//!   stuck bus bit runs exactly like an image with that bit stuck in
//!   every byte.
//!
//! Images hold illegal bytes, end on a lone first byte of a two-byte
//! instruction, and span more than one page, under the base, revised and
//! full feature sets.

use flexicore::exec::{AnyCore, Core, Snapshot};
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::isa::acc::{self, Cond};
use flexicore::isa::features::{Feature, FeatureSet};
use flexicore::isa::{xls, Dialect};
use flexicore::program::Program;
use flexicore::sim::fault::{ArchFault, FaultHook, FaultKind, FaultPlane, NoFaults, StateElement};
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
}

#[derive(Debug, Clone)]
struct Case {
    dialect: Dialect,
    features: FeatureSet,
    program: Program,
    inputs: Vec<u8>,
    budget: u64,
}

impl Case {
    fn core(&self) -> AnyCore {
        AnyCore::for_dialect(self.dialect, self.features, self.program.clone())
    }

    /// A plain `step_with` loop until halted or out of budget.
    fn stepped<F: FaultHook>(&self, hook: &mut F) -> Ending {
        let mut core = self.core();
        let mut input = ScriptedInput::new(self.inputs.clone());
        let mut output = RecordingOutput::new();
        core.power_on_faults(hook);
        let mut result = Ok(());
        while !core.is_halted() && core.budget_spent() < self.budget {
            if let Err(e) = core.step_with(&mut input, &mut output, hook) {
                result = Err(e);
                break;
            }
        }
        Ending {
            result: result.map(|()| core.run_result()),
            writes: output.writes().to_vec(),
            core: core.snapshot(),
            reads: input.reads(),
        }
    }

    /// The drain loop, `run_with`.
    fn run_with<F: FaultHook>(&self, hook: &mut F) -> Ending {
        let mut core = self.core();
        let mut input = ScriptedInput::new(self.inputs.clone());
        let mut output = RecordingOutput::new();
        let result = core.run_with(&mut input, &mut output, self.budget, hook);
        Ending {
            result,
            writes: output.writes().to_vec(),
            core: core.snapshot(),
            reads: input.reads(),
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

fn all_features() -> FeatureSet {
    Feature::ALL
        .into_iter()
        .fold(FeatureSet::BASE, FeatureSet::with)
}

fn features() -> impl Strategy<Value = FeatureSet> {
    prop_oneof![
        Just(FeatureSet::BASE),
        Just(FeatureSet::revised()),
        Just(all_features()),
    ]
}

/// The first bytes of the dialect's two-byte instructions: each decodes
/// alone to `TruncatedInstruction`.
fn lone_first_bytes(dialect: Dialect, features: FeatureSet) -> Vec<u8> {
    let core = AnyCore::for_dialect(dialect, features, Program::new());
    (0..=255u8)
        .filter(|&b| {
            let decoded = match &core {
                AnyCore::Fc4(c) => c.decode(&[b], 0).map(drop),
                AnyCore::Fc8(c) => c.decode(&[b], 0).map(drop),
                AnyCore::Xacc(c) => c.decode(&[b], 0).map(drop),
                AnyCore::Xls(c) => c.decode(&[b], 0).map(drop),
            };
            matches!(decoded, Err(SimError::TruncatedInstruction { .. }))
        })
        .collect()
}

/// Random bytes (illegal ones included), short or spanning two or more
/// pages of every dialect, half of them ending on a lone first byte of
/// a two-byte instruction.
fn cases() -> impl Strategy<Value = Case> {
    let bytes = prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..40),
        proptest::collection::vec(any::<u8>(), 128..=130),
        proptest::collection::vec(any::<u8>(), 256..=300),
    ];
    let budgets = prop_oneof![Just(0u64), 1u64..200, 1_000u64..3_000];
    (
        dialects(),
        features(),
        bytes,
        (any::<bool>(), any::<usize>()),
        proptest::collection::vec(any::<u8>(), 0..8),
        budgets,
    )
        .prop_map(|(dialect, features, mut bytes, tail, inputs, budget)| {
            let lone = lone_first_bytes(dialect, features);
            if let ((true, pick), false) = (tail, lone.is_empty()) {
                bytes.push(lone[pick % lone.len()]);
            }
            Case {
                dialect,
                features,
                program: Program::from_bytes(bytes),
                inputs,
                budget,
            }
        })
}

/// Every entry of `core`'s table is the instruction of its own decode
/// of the window at that address.
fn table_is_the_decode<C: Core>(core: &C)
where
    C::Insn: PartialEq + std::fmt::Debug,
{
    let program = core.state().program();
    let table = core.predecoded();
    assert_eq!(table.len(), program.len());
    for (address, entry) in (0u32..).zip(table) {
        let decoded = core.decode(program.window(address), address).ok();
        assert_eq!(*entry, decoded.map(|(insn, _)| insn), "address {address}");
    }
}

fn check_table(core: &AnyCore) {
    match core {
        AnyCore::Fc4(c) => table_is_the_decode(c),
        AnyCore::Fc8(c) => table_is_the_decode(c),
        AnyCore::Xacc(c) => table_is_the_decode(c),
        AnyCore::Xls(c) => table_is_the_decode(c),
    }
}

/// Where `core`'s table lives, to tell a shared table from a copy.
fn table_address(core: &AnyCore) -> *const () {
    match core {
        AnyCore::Fc4(c) => c.predecoded().as_ptr().cast(),
        AnyCore::Fc8(c) => c.predecoded().as_ptr().cast(),
        AnyCore::Xacc(c) => c.predecoded().as_ptr().cast(),
        AnyCore::Xls(c) => c.predecoded().as_ptr().cast(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn each_entry_is_the_cores_decode(case in cases()) {
        let core = case.core();
        check_table(&core);
        // clones share the table, and a reset rebuilds the same one
        let mut clone = core.clone();
        prop_assert_eq!(table_address(&clone), table_address(&core));
        clone.reset();
        check_table(&clone);
    }

    #[test]
    fn fault_free_run_equals_the_raw_step_loop(case in cases()) {
        let raw = case.stepped(&mut FaultPlane::new());
        prop_assert_eq!(case.run_with(&mut NoFaults), raw);
    }

    /// A bit stuck on the fetch bus is the same as that bit stuck in
    /// every byte of the image, which the fault-free path runs from its
    /// own table.
    #[test]
    fn fetch_bus_stuck_at_runs_the_stuck_image(case in cases(), bit in 0u8..8, one in any::<bool>()) {
        let (kind, mask) = if one {
            (FaultKind::StuckAt1, 1u8 << bit)
        } else {
            (FaultKind::StuckAt0, 0)
        };
        let mut plane = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::FetchBus,
            bit,
            kind,
        }]);
        let stuck = Case {
            program: case
                .program
                .as_bytes()
                .iter()
                .map(|b| b & !(1 << bit) | mask)
                .collect(),
            ..case.clone()
        };
        prop_assert_eq!(case.run_with(&mut plane), stuck.run_with(&mut NoFaults));
    }
}

/// A short kernel per dialect that reads the input, adds one, writes it
/// and halts.
fn echo_program(dialect: Dialect) -> Program {
    let mut bytes = Vec::new();
    if dialect == Dialect::LoadStore {
        for insn in [
            xls::Instruction::Alu {
                op: xls::Op::Mov,
                rd: 2,
                operand: xls::Operand::Reg(0),
            },
            xls::Instruction::Alu {
                op: xls::Op::Add,
                rd: 2,
                operand: xls::Operand::Imm(1),
            },
            xls::Instruction::Alu {
                op: xls::Op::Mov,
                rd: 1,
                operand: xls::Operand::Reg(2),
            },
            xls::Instruction::Br {
                cond: Cond::ALWAYS,
                target: 3,
            },
        ] {
            insn.encode_into(&mut bytes);
        }
    } else {
        for insn in [
            acc::Instruction::Load { m: 0 },
            acc::Instruction::AddImm { imm: 1 },
            acc::Instruction::Store { m: 1 },
            acc::Instruction::NandImm { imm: 0 },
        ] {
            insn.encode_into(dialect, &mut bytes);
        }
        let halt = bytes.len() as u8;
        acc::Instruction::Br {
            cond: Cond::N,
            target: halt,
        }
        .encode_into(dialect, &mut bytes);
    }
    Program::from_bytes(bytes)
}

/// A stuck fetch-bus bit changes what runs: on every dialect, some
/// stuck-at of the bus makes the echo kernel end differently from its
/// fault-free run.
#[test]
fn fetch_bus_stuck_at_still_corrupts_the_run() {
    for dialect in [
        Dialect::Fc4,
        Dialect::Fc8,
        Dialect::ExtendedAcc,
        Dialect::LoadStore,
    ] {
        let case = Case {
            dialect,
            features: FeatureSet::revised(),
            program: echo_program(dialect),
            inputs: vec![5],
            budget: 500,
        };
        let clean = case.run_with(&mut NoFaults);
        assert!(
            matches!(&clean.result, Ok(r) if r.halted()),
            "{dialect:?}: {clean:?}"
        );
        assert_eq!(clean.writes.last().map(|w| w.1), Some(6), "{dialect:?}");
        let corrupted = (0u8..8)
            .flat_map(|bit| [FaultKind::StuckAt0, FaultKind::StuckAt1].map(|kind| (bit, kind)))
            .filter(|&(bit, kind)| {
                let mut plane = FaultPlane::with_faults(vec![ArchFault {
                    element: StateElement::FetchBus,
                    bit,
                    kind,
                }]);
                case.run_with(&mut plane) != clean
            })
            .count();
        assert!(
            corrupted > 0,
            "{dialect:?}: no fetch-bus stuck-at changed the run"
        );
    }
}
