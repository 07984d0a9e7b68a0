//! The corrupt-page guard: a faulted MMU page register must surface as
//! [`SimError::PageOutOfRange`] — a recoverable lane fault — instead of
//! fetching noise from an unmapped page, while legitimate page changes
//! keep working.

use flexicore::exec::AnyCore;
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::isa::features::FeatureSet;
use flexicore::isa::{fc4, Dialect};
use flexicore::program::Program;
use flexicore::sim::{ArchFault, FaultKind, FaultPlane, StateElement};
use flexicore::SimError;

/// A one-page fc4 program: copy the input to the output, then halt.
fn one_page_program() -> Program {
    use fc4::Instruction as I;
    let bytes: Vec<u8> = [
        I::Load { addr: 0 },
        I::Store { addr: 1 },
        I::NandImm { imm: 0 },
        I::Branch { target: 3 },
    ]
    .iter()
    .flat_map(|i| i.encode())
    .collect();
    Program::from_bytes(bytes)
}

fn run_with_fault(fault: ArchFault) -> Result<flexicore::RunResult, SimError> {
    let mut core = AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, one_page_program());
    let mut plane = FaultPlane::with_faults(vec![fault]);
    let mut input = ScriptedInput::new(vec![5]);
    let mut output = RecordingOutput::new();
    core.run_with(&mut input, &mut output, 10_000, &mut plane)
}

#[test]
fn stuck_page_register_is_a_page_fault_not_noise() {
    let err = run_with_fault(ArchFault {
        element: StateElement::PageReg,
        bit: 3,
        kind: FaultKind::StuckAt1,
    })
    .expect_err("page 8 of a 4-byte image must not fetch");
    assert_eq!(
        err,
        SimError::PageOutOfRange {
            page: 8,
            program_len: 4,
        }
    );
}

#[test]
fn transient_page_flip_mid_run_is_caught() {
    let err = run_with_fault(ArchFault {
        element: StateElement::PageReg,
        bit: 0,
        kind: FaultKind::FlipAtCycle(2),
    })
    .expect_err("flipped page register must fault at the next fetch");
    assert!(
        matches!(err, SimError::PageOutOfRange { page: 1, .. }),
        "got {err:?}"
    );
}

#[test]
fn page_faults_display_the_corrupt_page() {
    let err = run_with_fault(ArchFault {
        element: StateElement::PageReg,
        bit: 2,
        kind: FaultKind::StuckAt1,
    })
    .expect_err("page 4 is unmapped");
    let msg = err.to_string();
    assert!(msg.contains("page 4"), "got {msg:?}");
}

#[test]
fn legitimate_page_change_still_fetches_the_new_page() {
    use fc4::Instruction as I;
    // page 0 forwards the scripted 0xE, 0xD, 1 escape sequence to the
    // output port, then branches to 0x20 of the newly selected page 1,
    // where the program halts after emitting one more value.
    let page0 = [
        I::Load { addr: 0 }, // 0xE
        I::Store { addr: 1 },
        I::Load { addr: 0 }, // 0xD
        I::Store { addr: 1 },
        I::Load { addr: 0 }, // 1 — page change pending after this store
        I::Store { addr: 1 },
        I::NandImm { imm: 0 },      // delay slot (old page)
        I::Branch { target: 0x20 }, // delay slot (old page)
    ];
    let page1 = [
        I::Load { addr: 0 }, // fetched from page 1
        I::Store { addr: 1 },
        I::NandImm { imm: 0 },
        I::Branch { target: 0x23 },
    ];
    let mut bytes: Vec<u8> = page0.iter().flat_map(|i| i.encode()).collect();
    bytes.resize(128 + 0x20, 0);
    bytes.extend(page1.iter().flat_map(|i| i.encode()));

    let mut core = AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, Program::from_bytes(bytes));
    let mut input = ScriptedInput::new(vec![0xE, 0xD, 1, 0x6]);
    let mut output = RecordingOutput::new();
    let result = core
        .run(&mut input, &mut output, 10_000)
        .expect("the guard must not reject a mapped page");
    assert!(result.halted());
    assert_eq!(output.values().last(), Some(&0x6), "page 1 code ran");
}

#[test]
fn corrupt_pending_latch_faults_at_commit_not_before() {
    use fc4::Instruction as I;
    // Same page-changing program, but a stuck bit in the pending-commit
    // latch retargets the in-flight change from page 1 to page 9 —
    // which was never programmed. The guard must catch it when the
    // corrupt value commits.
    let page0 = [
        I::Load { addr: 0 },
        I::Store { addr: 1 },
        I::Load { addr: 0 },
        I::Store { addr: 1 },
        I::Load { addr: 0 },
        I::Store { addr: 1 },
        I::NandImm { imm: 0 },
        I::Branch { target: 0x20 },
    ];
    let page1 = [
        I::Load { addr: 0 },
        I::Store { addr: 1 },
        I::NandImm { imm: 0 },
        I::Branch { target: 0x23 },
    ];
    let mut bytes: Vec<u8> = page0.iter().flat_map(|i| i.encode()).collect();
    bytes.resize(128 + 0x20, 0);
    bytes.extend(page1.iter().flat_map(|i| i.encode()));

    let mut core = AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, Program::from_bytes(bytes));
    let mut plane = FaultPlane::with_faults(vec![ArchFault {
        element: StateElement::PagePending,
        bit: 3,
        kind: FaultKind::StuckAt1,
    }]);
    let mut input = ScriptedInput::new(vec![0xE, 0xD, 1, 0x6]);
    let mut output = RecordingOutput::new();
    let err = core
        .run_with(&mut input, &mut output, 10_000, &mut plane)
        .expect_err("retargeted commit selects unmapped page 9");
    assert!(
        matches!(err, SimError::PageOutOfRange { page: 9, .. }),
        "got {err:?}"
    );
}
