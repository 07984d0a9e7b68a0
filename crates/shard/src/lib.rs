//! # flexshard
//!
//! Deterministic threaded execution for campaign-style workloads.
//!
//! Every campaign in the workspace — fault injection, recovery soaks,
//! link soaks, wafer screens — is a map over independent work units
//! whose results are reported in unit order. This crate runs that map
//! across threads **without changing a single bit of the output**:
//!
//! * Work units are *indexed*, and results are merged back in index
//!   order, so the report layout never depends on scheduling.
//! * Each unit's computation must be a pure function of its index (and
//!   whatever seed material the caller derived for that index) — never
//!   of a shared mutable RNG. Campaigns achieve this by drawing all
//!   RNG-dependent material serially up front, or by deriving a private
//!   stream per unit with [`shard_seed`] or [`cell_seed`].
//! * This crate owns every derived seed: the [`splitmix64`] step,
//!   [`shard_seed`] and [`cell_seed`] exist here and nowhere else.
//! * The pool is self-scheduling (workers pull the next unit index from
//!   a shared counter), so wall-clock balances across uneven units
//!   while determinism rides entirely on the order-preserving merge.
//!
//! Under this contract `threads = 1` and `threads = N` replay
//! bit-for-bit identical campaigns. The regression tests of every
//! campaign crate assert exactly that.
//!
//! The [`FORCE_THREADS_ENV`] environment variable overrides every
//! requested thread count; CI sets it to run the whole test suite
//! multi-threaded and catch any unit that smuggled in shared state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable that, when set to a positive integer, overrides
/// the thread count requested by every [`map_indexed`] call. Lets CI
/// force `--threads > 1` across an entire test run without touching any
/// campaign configuration.
pub const FORCE_THREADS_ENV: &str = "FLEXSHARD_FORCE_THREADS";

/// The most threads any pool starts, whatever was requested or forced.
/// Every thread count replays the same report, so a larger count buys
/// nothing and risks the host refusing the threads.
pub const MAX_THREADS: usize = 256;

/// Resolve a requested thread count against the [`FORCE_THREADS_ENV`]
/// override, then clamp it to `1..=`[`MAX_THREADS`]. Zero (from either
/// source) is treated as 1: the library never refuses to run —
/// rejecting `--threads 0` loudly is the CLI's job.
#[must_use]
pub fn effective_threads(requested: usize) -> usize {
    resolve_threads(requested, std::env::var(FORCE_THREADS_ENV).ok().as_deref())
}

/// [`effective_threads`] with the override's value passed in.
fn resolve_threads(requested: usize, forced: Option<&str>) -> usize {
    let forced = forced.and_then(|v| v.trim().parse::<usize>().ok());
    match forced {
        Some(n) if n > 0 => n,
        _ => requested,
    }
    .clamp(1, MAX_THREADS)
}

/// One splitmix64 step: advance `state` by the golden-ratio increment
/// and return the finalized value — the same mixer the vendored `rand`
/// uses. Every derived seed and dependency-free draw in the workspace
/// (PowerCut torn bits, gate-level defect sites, [`shard_seed`]) runs
/// through this one function.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The FNV-1a offset basis: the starting value of every digest that
/// folds with [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// One FNV-1a step: fold `value` into `hash`. Every pinned digest in the
/// workspace's library code (the fault-site enumeration, the
/// vulnerability report, the `flexi check --vuln` suite) folds its
/// values through this one function, starting from [`FNV_OFFSET`].
#[must_use]
#[inline]
pub fn fnv1a(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Derive the private seed of work unit `index` from a campaign seed
/// with one [`splitmix64`] step, so unit streams are as decorrelated as
/// fresh `StdRng` streams. Two different `(seed, index)` pairs collide
/// only if splitmix64 does.
#[must_use]
#[inline]
pub fn shard_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut state = campaign_seed.wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    splitmix64(&mut state)
}

/// The seed of one campaign cell: `seed × φ·2⁶⁴ + cell`, where `cell`
/// packs the cell's coordinates (kernel, rate, repetition, …) into one
/// word. Unlike [`shard_seed`] this is not mixed — the cell's `StdRng`
/// does the mixing — and it is part of the replay contract of every
/// campaign that seeds its cells with it.
#[must_use]
#[inline]
pub fn cell_seed(seed: u64, cell: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(cell)
}

/// Map `f` over `0..count` on up to `threads` worker threads and return
/// the results **in index order**. `f(i)` must be a pure function of
/// `i`; under that contract the returned vector is identical for every
/// thread count (the determinism contract the campaign crates test).
///
/// The requested thread count is first resolved through
/// [`effective_threads`], then clamped to `count`; `threads <= 1` runs
/// inline with no pool at all.
pub fn map_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(threads).min(count);
    if threads <= 1 {
        return (0..count).map(f).collect();
    }
    // Self-scheduling pool: workers pull the next unit index from a
    // shared counter and stash (index, result) pairs; the merge sorts
    // by index, so scheduling order cannot leak into the output.
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    let worker = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            local.push((i, f(i)));
        }
        collected
            .lock()
            .expect("a worker panicked while holding the merge lock")
            .append(&mut local);
    };
    std::thread::scope(|scope| {
        // a host that grants fewer threads than asked runs the units on
        // the ones it granted, or inline if none
        let spawned = (0..threads)
            .take_while(|_| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, worker)
                    .is_ok()
            })
            .count();
        if spawned == 0 {
            worker();
        }
    });
    let mut pairs = collected
        .into_inner()
        .expect("a worker panicked while holding the merge lock");
    pairs.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), count);
    pairs.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_decorrelated() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..4u64 {
            for index in 0..64u64 {
                assert!(seen.insert(shard_seed(seed, index)));
            }
        }
        assert_ne!(shard_seed(1, 0), shard_seed(0, 1));
    }

    /// Seeds at the edges of the domain, plus one with every nibble set.
    const EDGES: [u64; 4] = [0, 1, 0x1234_5678_9ABC_DEF0, u64::MAX];

    #[test]
    fn fnv1a_folds_bytes_like_the_reference() {
        // the published FNV-1a test vector for "a"
        assert_eq!(fnv1a(FNV_OFFSET, u64::from(b'a')), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn shard_seed_values_are_pinned() {
        let pinned: [[u64; 4]; 4] = [
            [
                0xE220_A839_7B1D_CDAF,
                0xE4BA_CEA5_C4B9_B499,
                0x3618_6C9B_09A5_C323,
                0x8A7E_6316_529F_79A8,
            ],
            [
                0x910A_2DEC_8902_5CC1,
                0x0AB1_85BB_B69A_2D35,
                0xF177_6137_9B58_E8A4,
                0x2F58_118E_563E_E174,
            ],
            [
                0x1619_22C6_45CE_50E8,
                0xEDFF_095C_BDC5_47D9,
                0x5FE1_F126_C558_F61C,
                0x6EBB_A3C4_6795_9019,
            ],
            [
                0xE4D9_7177_1B65_2C20,
                0xA784_C31D_524D_0DF7,
                0xBE20_0F97_A821_62FB,
                0xFCC3_3CB0_7158_AA5E,
            ],
        ];
        for (row, seed) in pinned.iter().zip(EDGES) {
            for (&want, index) in row.iter().zip(EDGES) {
                assert_eq!(
                    shard_seed(seed, index),
                    want,
                    "shard_seed({seed:#x}, {index:#x})"
                );
            }
        }
    }

    #[test]
    fn cell_seed_values_are_pinned() {
        let pinned: [[u64; 4]; 4] = [
            [0, 1, 0x1234_5678_9ABC_DEF0, u64::MAX],
            [
                0x9E37_79B9_7F4A_7C15,
                0x9E37_79B9_7F4A_7C16,
                0xB06B_D032_1A07_5B05,
                0x9E37_79B9_7F4A_7C14,
            ],
            [
                0xC93A_7B79_AEDA_89B0,
                0xC93A_7B79_AEDA_89B1,
                0xDB6E_D1F2_4997_68A0,
                0xC93A_7B79_AEDA_89AF,
            ],
            [
                0x61C8_8646_80B5_83EB,
                0x61C8_8646_80B5_83EC,
                0x73FC_DCBF_1B72_62DB,
                0x61C8_8646_80B5_83EA,
            ],
        ];
        for (row, seed) in pinned.iter().zip(EDGES) {
            for (&want, cell) in row.iter().zip(EDGES) {
                assert_eq!(
                    cell_seed(seed, cell),
                    want,
                    "cell_seed({seed:#x}, {cell:#x})"
                );
            }
        }
    }

    #[test]
    fn splitmix64_streams_are_pinned() {
        let pinned: [([u64; 3], u64); 4] = [
            (
                [
                    0xE220_A839_7B1D_CDAF,
                    0x6E78_9E6A_A1B9_65F4,
                    0x06C4_5D18_8009_454F,
                ],
                0xDAA6_6D2C_7DDF_743F,
            ),
            (
                [
                    0x910A_2DEC_8902_5CC1,
                    0xBEEB_8DA1_658E_EC67,
                    0xF893_A2EE_FB32_555E,
                ],
                0xDAA6_6D2C_7DDF_7440,
            ),
            (
                [
                    0x1619_22C6_45CE_50E8,
                    0xAD76_0CAF_A169_7B60,
                    0x3501_FF44_902C_A50D,
                ],
                0xECDA_C3A5_189C_532F,
            ),
            (
                [
                    0xE4D9_7177_1B65_2C20,
                    0xE99F_F867_DBF6_82C9,
                    0x382F_F84C_B272_81E9,
                ],
                0xDAA6_6D2C_7DDF_743E,
            ),
        ];
        for ((outputs, end), seed) in pinned.iter().zip(EDGES) {
            let mut state = seed;
            for &want in outputs {
                assert_eq!(splitmix64(&mut state), want, "stream from {seed:#x}");
            }
            assert_eq!(state, *end, "state after three steps from {seed:#x}");
        }
    }

    #[test]
    fn thread_counts_are_clamped_to_the_ceiling() {
        assert_eq!(resolve_threads(0, None), 1);
        assert_eq!(resolve_threads(8, None), 8);
        assert_eq!(resolve_threads(MAX_THREADS + 1, None), MAX_THREADS);
        assert_eq!(resolve_threads(usize::MAX, None), MAX_THREADS);
        assert_eq!(resolve_threads(1 << 20, Some("junk")), MAX_THREADS);
        assert_eq!(resolve_threads(4, Some(" 3 ")), 3);
        assert_eq!(resolve_threads(4, Some("0")), 4);
        assert_eq!(resolve_threads(1, Some("1048576")), MAX_THREADS);
        assert_eq!(
            resolve_threads(1, Some("18446744073709551615")),
            MAX_THREADS
        );
    }

    #[test]
    fn map_indexed_preserves_order_across_thread_counts() {
        let serial = map_indexed(257, 1, |i| i * i);
        for threads in [2, 4, 8] {
            assert_eq!(map_indexed(257, threads, |i| i * i), serial);
        }
        assert_eq!(map_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn uneven_units_still_merge_in_order() {
        // make late units finish first to exercise the merge sort
        let out = map_indexed(64, 8, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }
}
