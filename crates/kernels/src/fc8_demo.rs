//! Native FlexiCore8 demonstration programs.
//!
//! The benchmark suite of Table 6 was measured on FlexiCore4 (§5.2), so
//! the [`Kernel`](crate::Kernel) catalogue targets the 4-bit dialects,
//! with one exception: the parity check also has a FlexiCore8 program
//! (`Kernel::ParityCheck.source_for(Dialect::Fc8)`) that folds the whole
//! byte per ALU operation. On FlexiCore4 the same function costs a
//! nibble fold; on FlexiCore8 it is a straight 8-step unrolled fold
//! (FlexiCore8 has only two general-purpose words, r2/r3, so there is no
//! loop counter to spare — exactly the §3.3 capacity trade-off).
//!
//! FlexiCore8 exists "to support applications with > 4-bit data
//! requirements" (§3.3); this module carries one more program that
//! exploits the wider datapath natively — an 8-bit checksum — with its
//! oracle.

use flexasm::{Assembler, Target};
use flexicore::exec::Core;
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::sim::fc4::Fc8Core;
use flexicore::SimError;

/// The native 8-bit ones'-complement checksum: reads `n` bytes (first
/// input is `n`, at most 15) and emits the byte-wise sum mod 256.
#[must_use]
pub fn checksum8_source() -> String {
    "\
; FlexiCore8 checksum: sum = (sum + byte) mod 256 over n bytes.
; registers: r2 sum, r3 counter (counts up from -n)
        ldb   0
        store r2            ; sum = 0
        load  r0            ; n (1..15)
        nandi -1            ; ~n (imm4 -1 sign-extends to 0xFF)
        addi  1             ; -n
        store r3            ; counter counts up to zero
loop:
        load  r0            ; next byte
        add   r2
        store r2
        load  r3
        addi  1
        store r3
        br    loop          ; negative counter: more bytes
        load  r2
        store r1
        halt
"
    .to_string()
}

/// Run the native checksum program over `bytes` (at most 15).
///
/// # Errors
///
/// Propagates assembler or simulator failures.
///
/// # Panics
///
/// Panics if `bytes` is empty or longer than 15.
pub fn run_checksum8(bytes: &[u8]) -> Result<u8, SimError> {
    assert!(!bytes.is_empty() && bytes.len() <= 15);
    let assembly = Assembler::new(Target::fc8())
        .assemble(&checksum8_source())
        .expect("fc8 checksum assembles");
    let mut core = Fc8Core::new(assembly.into_program());
    let mut inputs = vec![bytes.len() as u8];
    inputs.extend_from_slice(bytes);
    let mut input = ScriptedInput::new(inputs);
    let mut output = RecordingOutput::new();
    let result = core.run(&mut input, &mut output, 100_000)?;
    assert!(result.halted());
    Ok(output.last().expect("one output"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum8_matches_wrapping_sum() {
        let cases: &[&[u8]] = &[
            &[1],
            &[0xFF, 0x01],
            &[0x10, 0x20, 0x30],
            &[0xAA; 15],
            &[0x00, 0xFF, 0x80, 0x7F, 0x01],
        ];
        for bytes in cases {
            let expected = bytes.iter().fold(0u8, |acc, &b| acc.wrapping_add(b));
            assert_eq!(run_checksum8(bytes).unwrap(), expected, "{bytes:02x?}");
        }
    }
}
