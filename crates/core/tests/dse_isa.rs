//! Pin of the two design-space-exploration ISAs, the extended
//! accumulator (`xacc`) and the load-store (`xls`) dialect: their full
//! decode tables and the one-step semantics of every legal encoding.
//!
//! Per dialect and feature set, one FNV-1a digest covers
//!
//! * the decode of every encoding — every first byte followed by a fixed
//!   second byte on `xacc`, every halfword on `xls` — as the
//!   instruction's `Display` text and encoded length, or the error;
//! * one `step` of every legal encoding (control transfers with a few
//!   targets, the core's own address among them) from a fixed grid of
//!   accumulator, carry/flags, data-memory or register-file and
//!   input-bus states, as the step's event or error, the post-step
//!   `Snapshot` and the output writes.
//!
//! The digests were captured while each dialect still executed through
//! its own hand-written ALU and cell file, so they hold the shared
//! datapath to the originals' bytes: carry-in and borrow, shift carries,
//! masks, sign-extended immediates, feature gating, the input and output
//! ports and the MMU snoop all show up here as a mismatch. Bump a pin
//! only together with a note saying why the ISA legitimately moved.
//!
//! The `xls` digest was re-captured once, when `asr`/`lsr` by exactly
//! four took the accumulator dialect's documented carry rule (carry =
//! bit `amount - 1` for amounts 1–4, clear above four); it had cleared
//! the carry on every shift of four or more. Nothing else moved.

use flexicore::exec::Core;
use flexicore::io::{ConstInput, RecordingOutput};
use flexicore::isa::features::FeatureSet;
use flexicore::program::Program;
use flexicore::sim::xacc::XaccCore;
use flexicore::sim::xls::XlsCore;
use flexshard::{fnv1a, FNV_OFFSET};

/// The byte after the decoded one in the `xacc` decode table.
const SECOND_BYTE: u8 = 0xA5;

/// Second bytes (control-transfer targets) stepped on `xacc`: the
/// core's own address, an in-page target and one with the reserved top
/// bit set.
const XACC_TARGETS: [u8; 3] = [0x00, 0x05, 0x85];

/// Control-transfer targets stepped on `xls`, likewise.
const XLS_TARGETS: [u8; 3] = [0x00, 0x05, 0x80];

/// The architectural states every legal encoding is stepped from.
struct Grid {
    accs: &'static [u8],
    /// `Snapshot::flags` values: the carry on `xacc`, N/Z/P/C on `xls`.
    flags: &'static [u8],
    mems: &'static [&'static [u8]],
    inputs: &'static [u8],
}

/// FNV-1a over the decode `table` (one window per entry) and one step of
/// every encoding in `legal` from every state of `grid`. `new` builds
/// the dialect's core around a program image.
fn isa_digest<C>(
    new: impl Fn(Program) -> C,
    table: impl Iterator<Item = Vec<u8>>,
    legal: impl Fn(&C::Insn, &[u8]) -> Vec<Vec<u8>>,
    grid: &Grid,
) -> u64
where
    C: Core,
    C::Insn: core::fmt::Display,
{
    let mut hash = FNV_OFFSET;
    let mut steps = Vec::new();
    let probe = new(Program::from_bytes(vec![0]));
    for window in table {
        let line = match probe.decode(&window, 0) {
            Ok((insn, len)) => {
                steps.extend(legal(&insn, &window));
                format!("{window:02x?} {insn} {len}\n")
            }
            Err(e) => format!("{window:02x?} {e:?}\n"),
        };
        hash = line.bytes().fold(hash, |h, b| fnv1a(h, b.into()));
    }
    for bytes in &steps {
        for &acc in grid.accs {
            for &flags in grid.flags {
                for &mem in grid.mems {
                    for &input in grid.inputs {
                        let mut core = new(Program::from_bytes(bytes.clone()));
                        let mut snap = core.snapshot();
                        snap.acc = acc;
                        snap.flags = flags;
                        snap.mem = mem.to_vec();
                        core.restore(&snap);
                        let mut out = RecordingOutput::new();
                        let event = core.step(&mut ConstInput::new(input), &mut out);
                        let line = format!(
                            "{bytes:?} {event:?} {:?} {:?}\n",
                            core.snapshot(),
                            out.writes()
                        );
                        hash = line.bytes().fold(hash, |h, b| fnv1a(h, b.into()));
                    }
                }
            }
        }
    }
    hash
}

fn xacc_digest(features: FeatureSet) -> u64 {
    let grid = Grid {
        accs: &[0x0, 0x1, 0x7, 0x8, 0xF],
        flags: &[0, 1],
        mems: &[
            &[0x0, 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7],
            &[0xF, 0xE, 0x9, 0x8, 0xC, 0x3, 0xA, 0x5],
        ],
        inputs: &[0x0, 0x6, 0xB],
    };
    isa_digest(
        |program| XaccCore::new(features, program),
        (0..=255u8).map(|first| vec![first, SECOND_BYTE]),
        |insn, window| {
            if insn.len() == 1 {
                vec![vec![window[0]]]
            } else {
                XACC_TARGETS.iter().map(|&t| vec![window[0], t]).collect()
            }
        },
        &grid,
    )
}

#[test]
fn xacc_revised_isa_is_pinned() {
    assert_eq!(xacc_digest(FeatureSet::revised()), 0x07F4_5A64_D902_EB0C);
}

#[test]
fn xacc_all_features_isa_is_pinned() {
    let all = FeatureSet::all_combinations().last().unwrap();
    assert_eq!(xacc_digest(all), 0xC461_2E98_197A_E38A);
}

#[test]
fn xls_isa_is_pinned() {
    use flexicore::isa::xls::Instruction;
    let all = FeatureSet::all_combinations().last().unwrap();
    let grid = Grid {
        accs: &[0],
        // carry clear and set, and each of N, Z and P
        flags: &[0x0, 0x9, 0x2, 0xC],
        mems: &[
            &[0x0, 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7],
            &[0xF, 0xE, 0x9, 0x8, 0xC, 0x3, 0xA, 0x5],
        ],
        inputs: &[0x0, 0x6, 0xB],
    };
    let digest = isa_digest(
        |program| XlsCore::new(all, program),
        (0..=u16::MAX).map(|h| h.to_be_bytes().to_vec()),
        |insn, window| match insn {
            Instruction::Br { .. } | Instruction::Call { .. } => {
                if XLS_TARGETS.contains(&window[1]) {
                    vec![window.to_vec()]
                } else {
                    Vec::new()
                }
            }
            _ => vec![window.to_vec()],
        },
        &grid,
    );
    assert_eq!(digest, 0x9CBB_5186_A993_0366);
}
