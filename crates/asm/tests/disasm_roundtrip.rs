//! Disassembler round-trip property: for every dialect, a random image
//! of legal instructions disassembles to text that reassembles to the
//! bit-identical image. This pins the `Display` grammar of every
//! instruction to the assembler's parser — numeric branch targets,
//! condition-mask spellings (`br.never` included), signed immediates
//! and hex formatting all have to agree.

use flexasm::disasm::disassemble;
use flexasm::{Assembler, Target};
use flexicore::isa::{fc4, xacc, xls, Dialect};
use flexicore::program::Program;
use proptest::prelude::*;

/// Sample one legal instruction by rejection against the real decoder
/// for the target, fully feature-enabled so every decodable instruction
/// is also assemblable. Returns the *canonical* re-encoding — images the
/// assembler produces are always canonical (e.g. xacc branch second
/// bytes have a clear top bit), and bit-identity is only meaningful for
/// canonical input.
fn sample_insn(target: &Target, rng: &mut impl FnMut() -> u8) -> Vec<u8> {
    loop {
        match target.dialect {
            Dialect::Fc4 => {
                let b = rng();
                if let Ok((insn, _)) = fc4::Instruction::decode(&[b], 4) {
                    return insn.encode();
                }
            }
            Dialect::Fc8 => {
                let bytes = [rng(), rng()];
                if let Ok((insn, _)) = fc4::Instruction::decode(&bytes, 8) {
                    return insn.encode();
                }
            }
            Dialect::ExtendedAcc => {
                let bytes = [rng(), rng()];
                if let Ok((insn, _)) = xacc::Instruction::decode(&bytes) {
                    if insn.is_legal(target.features) {
                        return insn.encode();
                    }
                }
            }
            Dialect::LoadStore => {
                let half = (u16::from(rng()) << 8) | u16::from(rng());
                if let Ok(insn) = xls::Instruction::decode(half) {
                    if insn.is_legal(target.features) {
                        return insn.encode().to_be_bytes().to_vec();
                    }
                }
            }
        }
    }
}

/// Build a random legal image, then assert the round trip.
fn roundtrip(target: Target, seed: u64) {
    let mut state = seed | 1;
    let mut rng = move || {
        // xorshift64 is plenty for fuzz bytes
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 32) as u8
    };
    let budget = 1 + (rng() as usize % 100);
    let mut image = Vec::new();
    while image.len() < budget {
        image.extend(sample_insn(&target, &mut rng));
    }
    let program = Program::from_bytes(image.clone());
    let text: String = disassemble(target.dialect, &program)
        .into_iter()
        .map(|line| format!("{}\n", line.text))
        .collect();
    let reassembled = Assembler::new(target)
        .assemble(&text)
        .unwrap_or_else(|e| panic!("{:?} seed {seed:#x}: {e}\n{text}", target.dialect));
    assert_eq!(
        reassembled.program().as_bytes(),
        &image[..],
        "{:?} seed {seed:#x} not bit-identical:\n{text}",
        target.dialect
    );
}

proptest! {
    #[test]
    fn fc4_roundtrip(seed in any::<u64>()) {
        roundtrip(Target::fc4(), seed);
    }

    #[test]
    fn fc8_roundtrip(seed in any::<u64>()) {
        roundtrip(Target::fc8(), seed);
    }

    #[test]
    fn xacc_roundtrip(seed in any::<u64>()) {
        roundtrip(Target::xacc_revised(), seed);
    }

    #[test]
    fn xls_roundtrip(seed in any::<u64>()) {
        roundtrip(Target::xls_revised(), seed);
    }
}

#[test]
fn numeric_branch_targets_assemble() {
    // the disassembler's own output spelling
    let out = Assembler::new(Target::fc4()).assemble("br 0x10\n").unwrap();
    assert_eq!(out.program().as_bytes(), &[0b1001_0000]);
    let out = Assembler::new(Target::xacc_revised())
        .assemble("call 0x05\nbr.never 0x00\n")
        .unwrap();
    assert_eq!(out.program().len(), 4);
}
