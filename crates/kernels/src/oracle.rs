//! Golden models: the exact output-port byte stream each kernel must
//! produce, computed in plain Rust.
//!
//! The oracles mirror the kernels *bit for bit*, including mod-16
//! arithmetic, the zero separators, and — for the accumulator dialects'
//! paged kernels — the MMU escape triples that `pjmp` drives onto the
//! output port. The generated kernels (Calculator, Decision Tree) share
//! their tables with these oracles, so program and model cannot drift.

use crate::sources::{
    DecisionTreeSpec, CALC_DIV_PAGE, CALC_MUL_PAGES, CALC_SUB_PAGE, TREE_LEFT_PAGE, TREE_RIGHT_PAGE,
};
use crate::{Kernel, STREAM_LEN};
use flexicore::isa::Dialect;
use flexicore::mmu::{ESCAPE_1, ESCAPE_2};

/// Arithmetic shift right by one on a 4-bit value.
#[must_use]
pub fn nibble_asr(v: u8) -> u8 {
    ((v >> 1) | (v & 0x8)) & 0xF
}

/// One step of the kernel's xorshift (triple 3, 5, 7) on an 8-bit state.
#[must_use]
pub fn xorshift_step(x: u8) -> u8 {
    let mut x = x;
    x ^= x << 3;
    x ^= x >> 5;
    x ^= x << 7;
    x
}

fn escape(page: u8) -> [u8; 3] {
    [ESCAPE_1, ESCAPE_2, page]
}

/// The most values any kernel writes in one run: FIR's eight samples
/// with their separators, and Calculator's multiply, which enters four
/// pages before its two results.
const MAX_STREAM: usize = 2 * STREAM_LEN;

/// An expected output stream, held inline: computing one allocates
/// nothing. Reads as the slice of its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stream {
    values: [u8; MAX_STREAM],
    len: usize,
}

impl Stream {
    fn push(&mut self, value: u8) {
        self.values[self.len] = value;
        self.len += 1;
    }

    fn extend(&mut self, values: impl IntoIterator<Item = u8>) {
        for value in values {
            self.push(value);
        }
    }
}

impl core::ops::Deref for Stream {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.values[..self.len]
    }
}

/// The expected output stream for `kernel` on `inputs`, when built for
/// `dialect`.
///
/// The accumulator dialects (`fc4`, `xacc`) run the paged programs and so
/// include MMU escape triples; the load-store programs are single-page.
///
/// # Panics
///
/// Panics if `inputs` is shorter than [`Kernel::inputs_per_run`] — callers
/// obtain inputs from [`crate::inputs`], which sizes them correctly.
#[must_use]
pub fn expected_outputs(kernel: Kernel, dialect: Dialect, inputs: &[u8]) -> Vec<u8> {
    expected_stream(kernel, dialect, inputs).to_vec()
}

/// [`expected_outputs`] held inline.
///
/// # Panics
///
/// As [`expected_outputs`].
#[must_use]
pub fn expected_stream(kernel: Kernel, dialect: Dialect, inputs: &[u8]) -> Stream {
    assert!(
        inputs.len() >= kernel.inputs_per_run(),
        "{kernel} needs {} inputs, got {}",
        kernel.inputs_per_run(),
        inputs.len()
    );
    let paged = dialect != Dialect::LoadStore;
    match kernel {
        Kernel::Calculator => calculator(inputs, paged),
        Kernel::FirFilter => fir(inputs),
        Kernel::DecisionTree => decision_tree(inputs, paged),
        Kernel::IntAvg => intavg(inputs),
        Kernel::Thresholding => thresholding(inputs),
        Kernel::ParityCheck => parity(inputs),
        Kernel::XorShift8 => xorshift(inputs),
    }
}

fn calculator(inputs: &[u8], paged: bool) -> Stream {
    let op = inputs[0] & 0xF;
    let a = inputs[1] & 0xF;
    let b = inputs[2] & 0xF;
    let mut out = Stream::default();
    match op {
        0 => {
            let sum = u16::from(a) + u16::from(b);
            out.extend([(sum & 0xF) as u8, 0, u8::from(sum > 0xF), 0]);
        }
        1 => {
            if paged {
                out.extend(escape(CALC_SUB_PAGE));
            }
            let diff = a.wrapping_sub(b) & 0xF;
            out.extend([diff, 0, u8::from(a < b), 0]);
        }
        2 => {
            if paged {
                for page in CALC_MUL_PAGES {
                    out.extend(escape(page));
                }
            }
            let p = u16::from(a) * u16::from(b);
            out.extend([(p & 0xF) as u8, 0, (p >> 4) as u8, 0]);
        }
        _ => {
            if paged {
                out.extend(escape(CALC_DIV_PAGE));
            }
            assert!(b != 0, "calculator division requires a non-zero divisor");
            out.extend([a / b, 0, a % b, 0]);
        }
    }
    out
}

fn fir(inputs: &[u8]) -> Stream {
    let mut delay = [0u8; 3]; // x[n-1], x[n-2], x[n-3]
    let mut out = Stream::default();
    for &raw in &inputs[..STREAM_LEN] {
        let x = raw & 0xF;
        let y = x
            .wrapping_sub(delay[0])
            .wrapping_add(delay[1])
            .wrapping_sub(delay[2])
            & 0xF;
        out.extend([y, 0]);
        delay = [x, delay[0], delay[1]];
    }
    out
}

fn decision_tree(inputs: &[u8], paged: bool) -> Stream {
    let features = [inputs[0] & 0x7, inputs[1] & 0x7, inputs[2] & 0x7];
    let mut out = Stream::default();
    if paged {
        let root_right = features[DecisionTreeSpec::feature(1)] > DecisionTreeSpec::threshold(1);
        out.extend(escape(if root_right {
            TREE_RIGHT_PAGE
        } else {
            TREE_LEFT_PAGE
        }));
    }
    out.extend([DecisionTreeSpec::classify(features), 0]);
    out
}

fn intavg(inputs: &[u8]) -> Stream {
    let mut avg = 0u8;
    let mut out = Stream::default();
    for &raw in &inputs[..STREAM_LEN] {
        let x = raw & 0x7;
        let diff = x.wrapping_sub(avg) & 0xF;
        let step = nibble_asr(nibble_asr(diff));
        avg = avg.wrapping_add(step) & 0xF;
        out.push(avg);
    }
    out
}

/// The thresholding kernel's sticky 8-bit threshold.
pub const THRESHOLD: u8 = 0x5A;

fn thresholding(inputs: &[u8]) -> Stream {
    let mut flag = 0u8;
    let mut out = Stream::default();
    for pair in inputs[..STREAM_LEN * 2].chunks(2) {
        let sample = (pair[1] & 0xF) << 4 | (pair[0] & 0xF);
        if sample > THRESHOLD {
            flag = 1;
        }
        out.push(flag);
    }
    out
}

fn parity(inputs: &[u8]) -> Stream {
    let word = (inputs[1] & 0xF) << 4 | (inputs[0] & 0xF);
    let mut out = Stream::default();
    out.push(word.count_ones() as u8 & 1);
    out
}

fn xorshift(inputs: &[u8]) -> Stream {
    let x = (inputs[1] & 0xF) << 4 | (inputs[0] & 0xF);
    let next = xorshift_step(x);
    let mut out = Stream::default();
    out.extend([next & 0xF, 0, next >> 4, 0]);
    out
}

/// Extract the payload values (results only) from a raw output stream by
/// removing the leading MMU escape triples and the zero separators the
/// kernel protocol inserts.
#[must_use]
pub fn payload(kernel: Kernel, dialect: Dialect, raw: &[u8]) -> Vec<u8> {
    let paged = dialect != Dialect::LoadStore;
    let mut values = raw;
    // strip leading escape triples
    while paged && values.len() >= 3 && values[0] == ESCAPE_1 && values[1] == ESCAPE_2 {
        values = &values[3..];
    }
    match kernel {
        Kernel::Calculator | Kernel::XorShift8 | Kernel::FirFilter => {
            // zero-separated pairs: take even positions
            values.iter().step_by(2).copied().collect()
        }
        Kernel::DecisionTree => values.first().copied().into_iter().collect(),
        Kernel::IntAvg | Kernel::Thresholding | Kernel::ParityCheck => values.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_has_full_period() {
        let mut x = 1u8;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..255 {
            assert!(seen.insert(x), "repeated state {x:#04x}");
            x = xorshift_step(x);
            assert_ne!(x, 0, "xorshift must never reach zero");
        }
        assert_eq!(x, 1, "period must be exactly 255");
    }

    #[test]
    fn nibble_asr_sign_fills() {
        assert_eq!(nibble_asr(0b1010), 0b1101);
        assert_eq!(nibble_asr(0b0100), 0b0010);
        assert_eq!(nibble_asr(0xF), 0xF);
        assert_eq!(nibble_asr(0), 0);
    }

    #[test]
    fn calculator_add_carry() {
        assert_eq!(
            *calculator(&[0, 9, 9], true),
            [2, 0, 1, 0] // 18 = 0x12
        );
        assert_eq!(*calculator(&[0, 3, 4], true), [7, 0, 0, 0]);
    }

    #[test]
    fn calculator_sub_borrow_and_pages() {
        let out = calculator(&[1, 3, 5], true);
        assert_eq!(&out[..3], &escape(CALC_SUB_PAGE));
        assert_eq!(&out[3..], &[0xE, 0, 1, 0]); // 3-5 = -2, borrow
        let unpaged = calculator(&[1, 3, 5], false);
        assert_eq!(*unpaged, [0xE, 0, 1, 0]);
    }

    #[test]
    fn calculator_mul_walks_all_pages() {
        let out = calculator(&[2, 7, 6], true);
        assert_eq!(out.len(), 4 * 3 + 4);
        assert_eq!(out.len(), MAX_STREAM, "the longest stream fits");
        assert_eq!(&out[12..], &[0xA, 0, 0x2, 0]); // 42 = 0x2A
    }

    #[test]
    fn calculator_div() {
        let out = calculator(&[3, 13, 4], false);
        assert_eq!(*out, [3, 0, 1, 0]);
    }

    #[test]
    fn thresholding_flag_is_sticky() {
        // samples: 0x21, 0x5B (>0x5A), 0x5A (not >), then small ones
        let out = thresholding(&[
            0x1, 0x2, 0xB, 0x5, 0xA, 0x5, 0x0, 0x0, 0x1, 0x0, 0x2, 0x0, 0x3, 0x0, 0x4, 0x0,
        ]);
        assert_eq!(*out, [0, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn thresholding_boundary_cases() {
        let run = |sample: u8| {
            let mut inputs = vec![0u8; 16];
            inputs[0] = sample & 0xF;
            inputs[1] = sample >> 4;
            thresholding(&inputs)[0]
        };
        assert_eq!(run(0x5A), 0, "equal is not above");
        assert_eq!(run(0x5B), 1);
        assert_eq!(run(0x4F), 0, "high nibble below");
        assert_eq!(run(0x60), 1, "high nibble above");
        assert_eq!(run(0xFF), 1);
        assert_eq!(run(0x00), 0);
    }

    #[test]
    fn fir_filters_a_step() {
        // unit step into {+1,-1,+1,-1} taps: 1, 0, 1, 0, 0, ...
        let out = fir(&[1, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(out.len(), MAX_STREAM, "the longest stream fits");
        let ys: Vec<u8> = out.iter().step_by(2).copied().collect();
        assert_eq!(ys, vec![1, 0, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn intavg_converges_toward_input() {
        // truncating alpha=1/4 smoothing of a constant 7 climbs 0,1,2,3,4
        // and stalls once the residual drops below 4
        let out = intavg(&[7, 7, 7, 7, 7, 7, 7, 7]);
        assert_eq!(*out, [1, 2, 3, 4, 4, 4, 4, 4]);
        assert!(out.iter().all(|&v| v <= 7), "{out:?}");
    }

    #[test]
    fn parity_counts_bits() {
        assert_eq!(*parity(&[0x3, 0x5]), [0]); // 0x53: 4 bits
        assert_eq!(*parity(&[0x1, 0x0]), [1]);
        assert_eq!(*parity(&[0xF, 0xF]), [0]);
    }

    #[test]
    fn payload_strips_protocol() {
        let raw = calculator(&[2, 7, 6], true);
        assert_eq!(
            payload(Kernel::Calculator, Dialect::Fc4, &raw),
            vec![0xA, 0x2]
        );
        let raw = decision_tree(&[1, 2, 3], true);
        let p = payload(Kernel::DecisionTree, Dialect::Fc4, &raw);
        assert_eq!(p.len(), 1);
    }
}
