//! Input-space sampling for the Figure 8 experiments.
//!
//! The paper averages latency/energy over the input space, exhaustively
//! where feasible and by random sampling for the Decision Tree (§5.2). The
//! samplers here implement the same policy with a seeded RNG so every
//! experiment regenerates identically.

use crate::{Kernel, STREAM_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The most values one input case holds: Thresholding's two
/// [`STREAM_LEN`]-sample streams.
pub const MAX_CASE: usize = 2 * STREAM_LEN;

/// One input case held inline, at most [`MAX_CASE`] values, so drawing
/// and keeping it allocates nothing. It derefs to the values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    values: [u8; MAX_CASE],
    len: u8,
}

impl core::ops::Deref for Case {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.values[..usize::from(self.len)]
    }
}

/// Collects at most [`MAX_CASE`] values; a longer iterator panics.
impl FromIterator<u8> for Case {
    fn from_iter<T: IntoIterator<Item = u8>>(values: T) -> Self {
        let mut case = Case {
            values: [0; MAX_CASE],
            len: 0,
        };
        for value in values {
            case.values[usize::from(case.len)] = value;
            case.len += 1;
        }
        case
    }
}

/// Deterministic input-case generator for one kernel.
#[derive(Debug)]
pub struct Sampler {
    kernel: Kernel,
    rng: StdRng,
}

impl Sampler {
    /// A sampler seeded for reproducibility.
    #[must_use]
    pub fn new(kernel: Kernel, seed: u64) -> Self {
        Sampler {
            kernel,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draw one input case (sized per [`Kernel::inputs_per_run`]), held
    /// inline.
    pub fn case(&mut self) -> Case {
        let rng = &mut self.rng;
        match self.kernel {
            Kernel::Calculator => {
                let op = rng.gen_range(0..4u8);
                let a = rng.gen_range(0..16u8);
                // non-zero divisor per the paper's definition of the kernel
                let b = if op == 3 {
                    rng.gen_range(1..16u8)
                } else {
                    rng.gen_range(0..16u8)
                };
                [op, a, b].into_iter().collect()
            }
            Kernel::DecisionTree => (0..3).map(|_| rng.gen_range(0..8u8)).collect(),
            Kernel::ParityCheck => {
                let low = rng.gen_range(0..16u8);
                [low, rng.gen_range(0..16u8)].into_iter().collect()
            }
            Kernel::XorShift8 => {
                // any non-zero 8-bit state
                let x = rng.gen_range(1..=255u8);
                [x & 0xF, x >> 4].into_iter().collect()
            }
            Kernel::FirFilter => (0..STREAM_LEN).map(|_| rng.gen_range(0..16u8)).collect(),
            Kernel::IntAvg => (0..STREAM_LEN).map(|_| rng.gen_range(0..8u8)).collect(),
            Kernel::Thresholding => (0..STREAM_LEN * 2)
                .map(|_| rng.gen_range(0..16u8))
                .collect(),
        }
    }

    /// Draw one input case as a vector: [`case`](Sampler::case)'s values.
    pub fn draw(&mut self) -> Vec<u8> {
        self.case().to_vec()
    }

    /// Draw `n` cases.
    pub fn draw_many(&mut self, n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|_| self.draw()).collect()
    }
}

/// Exhaustive input enumeration where the space is small enough
/// (everything except the streaming kernels, whose 8-sample streams are
/// sampled instead). Returns `None` for kernels whose space is sampled.
#[must_use]
pub fn exhaustive_cases(kernel: Kernel) -> Option<Vec<Vec<u8>>> {
    match kernel {
        Kernel::Calculator => {
            let mut v = Vec::new();
            for op in 0..4u8 {
                for a in 0..16u8 {
                    for b in 0..16u8 {
                        if op == 3 && b == 0 {
                            continue;
                        }
                        v.push(vec![op, a, b]);
                    }
                }
            }
            Some(v)
        }
        Kernel::ParityCheck => Some(
            (0..=255u16)
                .map(|w| vec![(w & 0xF) as u8, (w >> 4) as u8])
                .collect(),
        ),
        Kernel::XorShift8 => Some((1..=255u8).map(|w| vec![w & 0xF, w >> 4]).collect()),
        Kernel::DecisionTree => {
            let mut v = Vec::new();
            for f0 in 0..8u8 {
                for f1 in 0..8u8 {
                    for f2 in 0..8u8 {
                        v.push(vec![f0, f1, f2]);
                    }
                }
            }
            Some(v)
        }
        Kernel::FirFilter | Kernel::IntAvg | Kernel::Thresholding => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic() {
        let a: Vec<_> = Sampler::new(Kernel::Calculator, 7).draw_many(5);
        let b: Vec<_> = Sampler::new(Kernel::Calculator, 7).draw_many(5);
        assert_eq!(a, b);
        let c: Vec<_> = Sampler::new(Kernel::Calculator, 8).draw_many(5);
        assert_ne!(a, c);
    }

    #[test]
    fn cases_are_correctly_sized_and_ranged() {
        for k in Kernel::ALL {
            let mut s = Sampler::new(k, 1);
            for case in s.draw_many(50) {
                assert_eq!(case.len(), k.inputs_per_run(), "{k}");
                assert!(case.iter().all(|&v| v < 16));
            }
        }
    }

    #[test]
    fn division_never_draws_zero_divisor() {
        let mut s = Sampler::new(Kernel::Calculator, 99);
        for case in s.draw_many(500) {
            if case[0] == 3 {
                assert_ne!(case[2], 0);
            }
        }
    }

    #[test]
    fn exhaustive_sizes() {
        assert_eq!(exhaustive_cases(Kernel::ParityCheck).unwrap().len(), 256);
        assert_eq!(exhaustive_cases(Kernel::XorShift8).unwrap().len(), 255);
        assert_eq!(exhaustive_cases(Kernel::DecisionTree).unwrap().len(), 512);
        assert_eq!(
            exhaustive_cases(Kernel::Calculator).unwrap().len(),
            4 * 256 - 16
        );
        assert!(exhaustive_cases(Kernel::IntAvg).is_none());
    }
}
