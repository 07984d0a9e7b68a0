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
//!   stream per unit with [`shard_seed`].
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

/// Derive the private seed of work unit `index` from a campaign seed
/// using a splitmix64 finalizer — the same mixer the vendored `rand`
/// uses, so unit streams are as decorrelated as fresh `StdRng` streams.
/// Two different `(seed, index)` pairs collide only if splitmix64 does.
#[must_use]
pub fn shard_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut z = campaign_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
