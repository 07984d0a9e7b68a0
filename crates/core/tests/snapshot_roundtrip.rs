//! Snapshot/restore round-trips across every dialect.
//!
//! A rollback-recovery executor is only as sound as its checkpoints: if
//! `snapshot()` misses one bit of architectural state (the xacc carry,
//! the xls flags, a pending MMU page change), a restored core silently
//! diverges from the run it replaced. Each test runs a program partway,
//! checkpoints, records the reference continuation, then replays from
//! the checkpoint — on the same core and on a freshly constructed one —
//! and demands bit-for-bit identical outputs and final state.

use flexicore::exec::AnyCore;
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::isa::features::FeatureSet;
use flexicore::isa::{fc4, xacc, xls, Dialect};
use flexicore::program::Program;

/// Step `core` until it halts, bounded by a step guard.
fn run_to_halt(core: &mut AnyCore, input: &mut ScriptedInput, output: &mut RecordingOutput) {
    let mut guard = 0u32;
    while !core.is_halted() {
        core.step(input, output).expect("step");
        guard += 1;
        assert!(guard < 10_000, "program did not halt");
    }
}

/// The shared drill: run `prefix` instructions, checkpoint (core +
/// input cursor), finish the run as the reference, then replay twice
/// from the checkpoint — a rollback onto the same core, and a
/// migration onto a fresh core of the same design.
fn roundtrip(core: AnyCore, inputs: Vec<u8>, prefix: u32) {
    let fresh = core.clone();
    let mut core = core;
    let mut input = ScriptedInput::new(inputs);
    let mut output = RecordingOutput::new();
    for _ in 0..prefix {
        assert!(!core.is_halted(), "prefix longer than the program");
        core.step(&mut input, &mut output).expect("prefix step");
    }
    let snap = core.snapshot();
    let input_at_snap = input.clone();

    let mut ref_out = RecordingOutput::new();
    run_to_halt(&mut core, &mut input, &mut ref_out);
    let ref_end = core.snapshot();

    // rollback: the same core, rolled back to the checkpoint
    core.restore(&snap);
    assert_eq!(
        core.snapshot(),
        snap,
        "restore must reproduce the checkpoint"
    );
    let mut replay_in = input_at_snap.clone();
    let mut replay_out = RecordingOutput::new();
    run_to_halt(&mut core, &mut replay_in, &mut replay_out);
    assert_eq!(
        replay_out.values(),
        ref_out.values(),
        "rollback replay diverged"
    );
    assert_eq!(core.snapshot(), ref_end);

    // migration: a spare power-on core adopts the checkpoint
    let mut spare = fresh;
    spare.restore(&snap);
    let mut spare_in = input_at_snap;
    let mut spare_out = RecordingOutput::new();
    run_to_halt(&mut spare, &mut spare_in, &mut spare_out);
    assert_eq!(
        spare_out.values(),
        ref_out.values(),
        "migrated replay diverged"
    );
    assert_eq!(spare.snapshot(), ref_end);
}

#[test]
fn fc4_roundtrip_covers_acc_and_mem() {
    use fc4::Instruction as I;
    let prog: Vec<u8> = [
        I::Load { addr: 0 },
        I::AddImm { imm: 1 },
        I::Store { addr: 1 },
        I::Load { addr: 0 },
        I::AddImm { imm: 2 },
        I::Store { addr: 1 },
        I::NandImm { imm: 0 },
        I::Branch { target: 7 },
    ]
    .iter()
    .flat_map(|i| i.encode())
    .collect();
    let core = AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, Program::from_bytes(prog));
    for prefix in 0..6 {
        roundtrip(core.clone(), vec![3, 9], prefix);
    }
}

#[test]
fn fc4_roundtrip_preserves_pending_mmu_page_change() {
    use fc4::Instruction as I;
    // page 0: forward the scripted 0xE, 0xD, 1 sequence to the output
    // port (arming a page change to page 1), then branch to 0x20; the
    // commit delay means the branch still fetches from page 0, and the
    // instruction after it from page 1.
    let page0 = [
        I::Load { addr: 0 }, // 0xE
        I::Store { addr: 1 },
        I::Load { addr: 0 }, // 0xD
        I::Store { addr: 1 },
        I::Load { addr: 0 }, // 1 — page change pending after this store
        I::Store { addr: 1 },
        I::NandImm { imm: 0 },      // delay slot 1 (old page)
        I::Branch { target: 0x20 }, // delay slot 2 (old page)
    ];
    let page1 = [
        I::Load { addr: 0 }, // fetched from page 1
        I::AddImm { imm: 4 },
        I::Store { addr: 1 },
        I::NandImm { imm: 0 },
        I::Branch { target: 0x24 },
    ];
    let mut bytes: Vec<u8> = page0.iter().flat_map(|i| i.encode()).collect();
    bytes.resize(128 + 0x20, 0);
    bytes.extend(page1.iter().flat_map(|i| i.encode()));
    let core = AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, Program::from_bytes(bytes));
    // prefixes 5..8 checkpoint while the page change sits in the MMU
    // delay line; losing it would replay the wrong page
    for prefix in 0..10 {
        roundtrip(core.clone(), vec![0xE, 0xD, 1, 0x6], prefix);
    }
}

#[test]
fn fc8_roundtrip_covers_acc_and_mem() {
    use fc4::Instruction as I;
    let prog = [
        I::Load { addr: 0 },
        I::AddImm { imm: 7 },
        I::Store { addr: 1 },
        I::Load { addr: 0 },
        I::XorImm { imm: 3 },
        I::Store { addr: 1 },
        I::NandImm { imm: 0 },
    ];
    let mut bytes = Vec::new();
    for i in &prog {
        i.encode_into(&mut bytes);
    }
    let halt_at = bytes.len() as u8;
    I::Branch { target: halt_at }.encode_into(&mut bytes);
    let core = AnyCore::for_dialect(Dialect::Fc8, FeatureSet::BASE, Program::from_bytes(bytes));
    for prefix in 0..6 {
        roundtrip(core.clone(), vec![0x21, 0x5A], prefix);
    }
}

#[test]
fn xacc_roundtrip_covers_carry_and_link_register() {
    use xacc::{Cond, Instruction as I};
    let prog = [
        I::AddImm { imm: 0xF }, // acc = 0xF
        I::AdcImm { imm: 0x2 }, // overflows: acc = 1, carry set
        I::Store {
            m: flexicore::isa::OPORT_CELL,
        },
        I::AdcImm { imm: 0 }, // consumes the carry: acc = 2
        I::Store {
            m: flexicore::isa::OPORT_CELL,
        },
    ];
    let mut bytes = Vec::new();
    for i in &prog {
        i.encode_into(&mut bytes);
    }
    let halt_at = bytes.len() as u8;
    I::Br {
        cond: Cond::ALWAYS,
        target: halt_at,
    }
    .encode_into(&mut bytes);
    let core = AnyCore::for_dialect(
        Dialect::ExtendedAcc,
        FeatureSet::revised(),
        Program::from_bytes(bytes),
    );
    // prefix 2 checkpoints with the carry flag set — a snapshot that
    // drops it replays 1 instead of 2 on the second output
    for prefix in 0..5 {
        roundtrip(core.clone(), vec![], prefix);
    }
}

#[test]
fn xls_roundtrip_covers_flags_and_register_file() {
    use xacc::Cond;
    use xls::{Instruction as I, Op, Operand};
    let prog = [
        I::Alu {
            op: Op::Mov,
            rd: 2,
            operand: Operand::Reg(flexicore::isa::IPORT_CELL),
        },
        I::Alu {
            op: Op::Add,
            rd: 2,
            operand: Operand::Imm(0xF),
        }, // sets carry + NZP flags
        I::Alu {
            op: Op::Adc,
            rd: 2,
            operand: Operand::Imm(0),
        }, // consumes carry
        I::Alu {
            op: Op::Mov,
            rd: flexicore::isa::OPORT_CELL,
            operand: Operand::Reg(2),
        },
    ];
    let mut bytes = Vec::new();
    for i in &prog {
        i.encode_into(&mut bytes);
    }
    let halt_at = (bytes.len() / 2) as u8;
    I::Br {
        cond: Cond::ALWAYS,
        target: halt_at,
    }
    .encode_into(&mut bytes);
    let core = AnyCore::for_dialect(
        Dialect::LoadStore,
        FeatureSet::revised(),
        Program::from_bytes(bytes),
    );
    // prefix 2 checkpoints between the carry-setting ADD and the ADC
    for prefix in 0..4 {
        roundtrip(core.clone(), vec![0x3], prefix);
    }
}
