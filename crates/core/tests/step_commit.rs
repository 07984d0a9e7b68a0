//! What a step commits against what the decode says, on every window.
//!
//! The decode table holds instructions only: the length that moves the
//! PC, the cycle count and the fetched-byte count is what the executed
//! arm reports (`exec::Flow`), a constant per arm. So the arms and the
//! decoder each know every instruction's length, and this file holds
//! them equal, exhaustively: for every one-byte window and every
//! two-byte window on FlexiCore4, FlexiCore8, the extended accumulator
//! (base, revised and all features) and the load-store dialect (the
//! same three feature sets), one step from states that take and that
//! skip every branch must commit
//!
//! * `fetched_bytes` equal to the decoded length `len`,
//! * `cycles` equal to `Core::insn_cycles(len)`, in the step's event
//!   too,
//! * a fall-through PC of `pc + Core::pc_increment(len)`, and a link
//!   register, where a call writes one, holding that same address;
//!
//! and a window whose decode fails must fail the step with the same
//! error. Each step runs twice: through `Core::step`, which decodes the
//! raw bytes, and as a one-unit `Core::run`, which reads the decode
//! table, and both must leave the same core state.

use flexicore::exec::Core;
use flexicore::io::{ConstInput, RecordingOutput};
use flexicore::isa::features::{Feature, FeatureSet};
use flexicore::program::Program;
use flexicore::sim::fc4::{Fc4Core, Fc8Core};
use flexicore::sim::xacc::XaccCore;
use flexicore::sim::xls::XlsCore;

/// The PC each two-byte window is stepped from is the window's own
/// address; a one-byte window sits at this PC, at the end of its image.
const LONE_PC: u8 = 3;

/// The link register before every step, where the dialect has one: no
/// return address a call from the stepped PCs writes, so a written one
/// always shows.
const RA: u8 = 0x55;

/// One architectural state to step from: the accumulator and the
/// `Snapshot::flags` byte.
type State = (u8, u8);

/// Accumulator states that make every accumulator branch condition both
/// hold and fail: zero, positive and negative at the datapath's width.
fn acc_states(width: u32, carry: bool) -> Vec<State> {
    let negative = 1u8 << (width - 1);
    let mut states = vec![(0, 0), (1, 0), (negative, 0)];
    if carry {
        states.push((negative | 1, 1));
    }
    states
}

/// Load-store flag states: no N/Z/P flag set, so no branch is taken,
/// and all three set, so every branch with a condition is.
const XLS_STATES: [State; 2] = [(0, 0b1000), (0, 0b0111)];

/// Every two-byte window, laid out so that each sits at an even address
/// of a 128-byte image: one image holds the windows `(first, second)`
/// for 64 consecutive `second`s.
fn paired_images() -> impl Iterator<Item = (Vec<u8>, Vec<[u8; 2]>)> {
    (0..=255u8).flat_map(|first| {
        (0..4u16).map(move |quarter| {
            let windows: Vec<[u8; 2]> =
                (0..64).map(|i| [first, (quarter * 64 + i) as u8]).collect();
            (windows.concat(), windows)
        })
    })
}

fn all_features() -> FeatureSet {
    Feature::ALL
        .into_iter()
        .fold(FeatureSet::BASE, FeatureSet::with)
}

/// Step `core` once from `pc` in `state`, through the raw decode and
/// through the table, and check what the step committed against the
/// decode of `window` at that address.
fn check_step<C: Core + Clone>(what: &str, core: &C, pc: u8, window: &[u8], state: State)
where
    C::Insn: std::fmt::Debug,
{
    let address = core.fetch_address(u32::from(pc));
    let decoded = core.decode(window, address);
    let mut from = core.snapshot();
    from.pc = pc;
    from.acc = state.0;
    from.flags = state.1;
    from.ra = RA;
    let what = format!("{what} window {window:02x?} at pc {pc} from {state:?}");

    let mut stepped = core.clone();
    stepped.restore(&from);
    // the dialects without a link register or flags keep theirs at 0
    let from = stepped.snapshot();
    let event = stepped.step(&mut ConstInput::new(0), &mut RecordingOutput::new());
    let mut ran = core.clone();
    ran.restore(&from);
    let run = ran.run(&mut ConstInput::new(0), &mut RecordingOutput::new(), 1);

    let (insn, len) = match decoded {
        Err(error) => {
            assert_eq!(event.map(drop), Err(error.clone()), "{what}: step");
            assert_eq!(run.map(drop), Err(error), "{what}: run");
            return;
        }
        Ok(decoded) => decoded,
    };
    let what = format!("{what} ({insn:?}, len {len})");
    let event = event.unwrap_or_else(|e| panic!("{what}: step failed: {e}"));
    run.unwrap_or_else(|e| panic!("{what}: run failed: {e}"));
    let after = stepped.snapshot();
    assert_eq!(after.fetched_bytes, u64::from(len), "{what}: fetched bytes");
    assert_eq!(after.cycle, C::insn_cycles(len), "{what}: cycles");
    assert_eq!(event.cycles, C::insn_cycles(len), "{what}: event cycles");
    let fall_through = pc.wrapping_add(C::pc_increment(len)) & 0x7F;
    if !event.taken_branch {
        assert_eq!(after.pc, fall_through, "{what}: fall-through pc");
    }
    if after.ra != from.ra {
        assert_eq!(after.ra, fall_through, "{what}: return address");
    }
    assert_eq!(ran.snapshot(), after, "{what}: the table step");
}

/// Every window of one dialect and feature set. `new` builds the core
/// around an image.
fn check_dialect<C: Core + Clone>(what: &str, new: impl Fn(Program) -> C, states: &[State])
where
    C::Insn: std::fmt::Debug,
{
    for first in 0..=255u8 {
        let probe = new(Program::from_bytes(Vec::new()));
        let address = probe.fetch_address(u32::from(LONE_PC)) as usize;
        let mut image = vec![0; address];
        image.push(first);
        let core = new(Program::from_bytes(image));
        for &state in states {
            check_step(what, &core, LONE_PC, &[first], state);
        }
    }
    for (image, windows) in paired_images() {
        let core = new(Program::from_bytes(image));
        for (pair, window) in windows.iter().enumerate() {
            // the load-store PC indexes two-byte instructions
            let address = 2 * pair as u32;
            let pc = (0..128u8)
                .find(|&pc| core.fetch_address(u32::from(pc)) == address)
                .expect("every even address has a PC");
            for &state in states {
                check_step(what, &core, pc, window, state);
            }
        }
    }
}

#[test]
fn flexicore4_steps_commit_the_decoded_length() {
    check_dialect("fc4", Fc4Core::new, &acc_states(4, false));
}

#[test]
fn flexicore8_steps_commit_the_decoded_length() {
    check_dialect("fc8", Fc8Core::new, &acc_states(8, false));
}

#[test]
fn extended_accumulator_steps_commit_the_decoded_length() {
    for features in [FeatureSet::BASE, FeatureSet::revised(), all_features()] {
        let what = format!("xacc {features:?}");
        let new = |program| XaccCore::new(features, program);
        check_dialect(&what, new, &acc_states(4, true));
    }
}

#[test]
fn load_store_steps_commit_the_decoded_length() {
    for features in [FeatureSet::BASE, FeatureSet::revised(), all_features()] {
        let what = format!("xls {features:?}");
        check_dialect(
            &what,
            |program| XlsCore::new(features, program),
            &XLS_STATES,
        );
    }
}
