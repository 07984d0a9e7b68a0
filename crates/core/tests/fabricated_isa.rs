//! Pin of the two fabricated ISAs, FlexiCore4 and FlexiCore8: their full
//! decode tables and the one-step semantics of every legal encoding.
//!
//! Per dialect, one FNV-1a digest covers
//!
//! * the decode of every first byte, followed by a fixed second byte, as
//!   the instruction's `Display` text and encoded length, or the error;
//! * one `step` of every legal encoding (each `LOAD BYTE` with a few
//!   payloads) from a fixed grid of accumulator, data-memory and
//!   input-bus states, as the step's event or error, the post-step
//!   `Snapshot` and the output writes.
//!
//! Both digests were captured while FlexiCore4 and FlexiCore8 still had
//! separate instruction enums, decoders and simulators, so they hold the
//! shared width-parameterised core to the two originals' bytes: masks,
//! sign extension, reserved encodings, the MMU snoop of the output port
//! and the two-clock `LOAD BYTE` all show up here as a mismatch. Bump a
//! pin only together with a note saying why the ISA legitimately moved.

use flexicore::exec::Core;
use flexicore::io::{ConstInput, RecordingOutput};
use flexicore::program::Program;
use flexicore::sim::fc4::{Fc4Core, Fc8Core};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The byte after the decoded one in the decode table.
const SECOND_BYTE: u8 = 0xA5;

/// `LOAD BYTE` payloads stepped from every state.
const PAYLOADS: [u8; 5] = [0x00, 0x01, 0x7F, 0x80, 0xFF];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Everything the pin reads from one dialect.
struct Grid {
    accs: &'static [u8],
    mems: &'static [&'static [u8]],
    inputs: &'static [u8],
}

/// FNV-1a over the decode table and one step of every legal encoding
/// from every state of `grid`. `new` builds the dialect's core.
fn isa_digest<C>(new: fn(Program) -> C, grid: &Grid) -> u64
where
    C: Core,
    C::Insn: core::fmt::Display,
{
    let mut hash = FNV_OFFSET;
    let mut legal = Vec::new();
    let probe = new(Program::from_bytes(vec![0]));
    for first in 0..=255u8 {
        let line = match probe.decode(&[first, SECOND_BYTE], 0) {
            Ok((insn, len)) => {
                if len == 1 {
                    legal.push(vec![first]);
                } else {
                    legal.extend(PAYLOADS.iter().map(|&p| vec![first, p]));
                }
                format!("{first:#04x} {insn} {len}\n")
            }
            Err(e) => format!("{first:#04x} {e:?}\n"),
        };
        fnv1a(&mut hash, line.as_bytes());
    }
    for bytes in &legal {
        for &acc in grid.accs {
            for &mem in grid.mems {
                for &input in grid.inputs {
                    let mut core = new(Program::from_bytes(bytes.clone()));
                    let mut snap = core.snapshot();
                    snap.acc = acc;
                    snap.mem = mem.to_vec();
                    core.restore(&snap);
                    let mut out = RecordingOutput::new();
                    let event = core.step(&mut ConstInput::new(input), &mut out);
                    let line = format!(
                        "{bytes:?} {event:?} {:?} {:?}\n",
                        core.snapshot(),
                        out.writes()
                    );
                    fnv1a(&mut hash, line.as_bytes());
                }
            }
        }
    }
    hash
}

#[test]
fn fc4_isa_is_pinned() {
    let grid = Grid {
        accs: &[0x0, 0x1, 0x7, 0x8, 0xF],
        mems: &[
            &[0x0, 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7],
            &[0xF, 0xE, 0x9, 0x8, 0xC, 0x3, 0xA, 0x5],
        ],
        inputs: &[0x0, 0x6, 0xB, 0xFF],
    };
    assert_eq!(isa_digest(Fc4Core::new, &grid), 0xED5B_D81B_D4BA_1E07);
}

#[test]
fn fc8_isa_is_pinned() {
    let grid = Grid {
        accs: &[0x00, 0x01, 0x0F, 0x7F, 0x80, 0xA5, 0xFF],
        mems: &[&[0x00, 0x01, 0x02, 0x03], &[0xFF, 0x80, 0x7F, 0x5A]],
        inputs: &[0x00, 0x06, 0x9C, 0xFF],
    };
    assert_eq!(isa_digest(Fc8Core::new, &grid), 0xED14_6120_490B_D8DF);
}
