//! Hamming SECDED(13,8): the per-word ECC of the external program store.
//!
//! Every stored program byte is kept as a 13-bit code word: twelve bits
//! of a Hamming(12,8) code — parity bits at positions 1, 2, 4 and 8,
//! data bits at the remaining positions 3, 5, 6, 7, 9, 10, 11, 12 —
//! plus an overall parity bit at position 0. The extended code corrects
//! every single-bit upset and *detects* (without miscorrecting) every
//! double-bit upset:
//!
//! * a single flip at position `p ≥ 1` gives syndrome `p` with the
//!   overall parity violated — flip bit `p` back;
//! * a single flip of the overall parity bit gives syndrome 0 with the
//!   overall parity violated — flip bit 0 back;
//! * any double flip leaves the overall parity *intact* while the
//!   syndrome is nonzero (two distinct positions never XOR to zero),
//!   which is exactly the uncorrectable signature.

/// Bits per SECDED code word (8 data + 4 Hamming parity + 1 overall).
pub const CODE_BITS: u32 = 13;

/// Mask selecting the 13 code bits of a stored word.
pub const WORD_MASK: u16 = (1 << CODE_BITS) - 1;

/// Code-word positions holding data bits, low data bit first.
const DATA_POSITIONS: [u16; 8] = [3, 5, 6, 7, 9, 10, 11, 12];

/// The outcome of decoding one stored word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decoded {
    /// The word was stored intact.
    Clean(u8),
    /// A single-bit upset was corrected; the data is trustworthy.
    Corrected(u8),
    /// A multi-bit upset was detected; the payload is the raw data
    /// bits, which must not be trusted (the page needs reprogramming).
    Uncorrectable(u8),
}

impl Decoded {
    /// The decoded data byte, trustworthy or not.
    #[must_use]
    pub fn data(self) -> u8 {
        match self {
            Decoded::Clean(d) | Decoded::Corrected(d) | Decoded::Uncorrectable(d) => d,
        }
    }
}

/// Encode one data byte into a 13-bit SECDED word.
#[must_use]
pub fn encode(data: u8) -> u16 {
    let mut word = 0u16;
    for (i, &pos) in DATA_POSITIONS.iter().enumerate() {
        if data & (1 << i) != 0 {
            word |= 1 << pos;
        }
    }
    // Hamming parity bits: bit `p` covers every position with `p` set
    for p in [1u16, 2, 4, 8] {
        let mut parity = 0u16;
        for &pos in &DATA_POSITIONS {
            if pos & p != 0 {
                parity ^= (word >> pos) & 1;
            }
        }
        word |= parity << p;
    }
    // overall parity (bit 0): make the popcount of the full word even
    word |= word.count_ones() as u16 & 1;
    word
}

/// Extract the raw data bits of a word without any checking.
#[must_use]
pub fn data_bits(word: u16) -> u8 {
    let mut data = 0u8;
    for (i, &pos) in DATA_POSITIONS.iter().enumerate() {
        if word & (1 << pos) != 0 {
            data |= 1 << i;
        }
    }
    data
}

/// Decode one stored word, correcting a single-bit upset and flagging
/// anything worse.
#[must_use]
pub fn decode(word: u16) -> Decoded {
    let word = word & WORD_MASK;
    let mut syndrome = 0u16;
    for pos in 1..CODE_BITS as u16 {
        if word & (1 << pos) != 0 {
            syndrome ^= pos;
        }
    }
    let parity_even = word.count_ones().is_multiple_of(2);
    match (syndrome, parity_even) {
        (0, true) => Decoded::Clean(data_bits(word)),
        // only the overall parity bit flipped; the data is intact
        (0, false) => Decoded::Corrected(data_bits(word)),
        (s, false) if u32::from(s) < CODE_BITS => Decoded::Corrected(data_bits(word ^ (1 << s))),
        // syndrome set with parity intact (even # of flips), or a
        // syndrome pointing outside the word: at least two upsets
        _ => Decoded::Uncorrectable(data_bits(word)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_byte_round_trips_clean() {
        for b in 0..=255u8 {
            assert_eq!(decode(encode(b)), Decoded::Clean(b), "{b:#04x}");
        }
    }

    #[test]
    fn code_words_have_even_parity() {
        for b in 0..=255u8 {
            assert_eq!(encode(b).count_ones() % 2, 0, "{b:#04x}");
        }
    }

    #[test]
    fn every_single_flip_is_corrected_exhaustively() {
        for b in 0..=255u8 {
            let word = encode(b);
            for bit in 0..CODE_BITS {
                assert_eq!(
                    decode(word ^ (1 << bit)),
                    Decoded::Corrected(b),
                    "{b:#04x} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn every_double_flip_is_flagged_exhaustively() {
        for b in 0..=255u8 {
            let word = encode(b);
            for i in 0..CODE_BITS {
                for j in i + 1..CODE_BITS {
                    let corrupt = word ^ (1 << i) ^ (1 << j);
                    assert!(
                        matches!(decode(corrupt), Decoded::Uncorrectable(_)),
                        "{b:#04x} bits {i},{j}: {:?}",
                        decode(corrupt)
                    );
                }
            }
        }
    }

    #[test]
    fn upper_bits_outside_the_word_are_ignored() {
        assert_eq!(decode(encode(0xA7) | 0xE000), Decoded::Clean(0xA7));
    }
}
