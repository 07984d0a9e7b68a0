//! What does closed-loop health management cost at campaign scale?
//!
//! One group, three cases over the same 32-trial × 8-tick lifetime
//! soak (identical [`StressSchedule`] histories, the determinism
//! contract guarantees it):
//!
//! * **static-tmr** — the always-TMR baseline: no re-screen, no
//!   migration, no re-flash, no ladder moves;
//! * **adaptive** — the full [`MissionManager`] loop on one thread,
//!   which prices the reaction machinery itself;
//! * **adaptive-threaded** — the same campaign through the `--threads`
//!   pool, which prices the coordination layer.
//!
//! Throughput is trials/sec via [`Throughput::Elements`]; headline
//! numbers live in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flexasm::Target;
use flexkernels::Kernel;
use flexmission::{run_mission_campaign, MissionConfig};

const TRIALS: usize = 32;
const TICKS: u32 = 8;
const SEED: u64 = 0x0015_510A;

/// Worker count for the threaded case: the machine's parallelism, but
/// at least 2 so the pool is always exercised for real.
fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .max(2)
}

fn mission_soak(c: &mut Criterion) {
    let base = MissionConfig::new(Target::fc4(), Kernel::ParityCheck, TRIALS, TICKS, SEED);
    let threads = pool_threads();

    let mut group = c.benchmark_group("mission-soak");
    group.throughput(Throughput::Elements(TRIALS as u64));
    group.bench_function("static-tmr", |b| {
        let config = MissionConfig {
            adaptive: false,
            ..base
        };
        b.iter(|| {
            run_mission_campaign(&config)
                .expect("campaign runs")
                .trials
                .len()
        });
    });
    group.bench_function("adaptive", |b| {
        b.iter(|| {
            run_mission_campaign(&base)
                .expect("campaign runs")
                .trials
                .len()
        });
    });
    let threaded = MissionConfig { threads, ..base };
    group.bench_function(&format!("adaptive-threaded-{threads}t"), |b| {
        b.iter(|| {
            run_mission_campaign(&threaded)
                .expect("campaign runs")
                .trials
                .len()
        });
    });
    group.finish();
}

criterion_group!(benches, mission_soak);
criterion_main!(benches);
