//! Replay pin for checkpoint/rollback recovery: every field of every
//! [`RecoveryRun`] — committed outputs, halt and give-up flags, retry
//! and reassignment counts, each retry event, and the committed end
//! state — over DMR and simplex runs on all four dialects under
//! stuck-at, transient and mixed faults, with spares on offer, folded
//! into one digest.
//!
//! Intervals and watchdog budgets vary per run, so segment ends of
//! every kind (reached, halted, crashed, hung) are covered. A change to
//! the segment runner, the checkpoint or the retry policy shows up here
//! as a digest mismatch. Bump the pinned value only together with a
//! note saying why the runs legitimately moved.

use std::collections::BTreeSet;

use flexicore::sim::FaultPlane;
use flexinject::campaign::{draw_fault, FaultModel};
use flexinject::{sites, target_from_name};
use flexkernels::harness::PreparedKernel;
use flexkernels::{inputs::Sampler, Kernel};
use flexresilient::recovery::{RecoveryConfig, RecoveryExecutor, RecoveryRun};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fold_u64(hash: &mut u64, value: u64) {
    fold(hash, &value.to_le_bytes());
}

/// Fold every field of `run`.
fn fold_run(hash: &mut u64, run: &RecoveryRun) {
    fold_u64(hash, run.outputs.len() as u64);
    fold(hash, &run.outputs);
    fold(hash, &[u8::from(run.halted), u8::from(run.gave_up)]);
    fold_u64(hash, u64::from(run.retries));
    fold_u64(hash, u64::from(run.reassignments));
    fold_u64(hash, run.trace.len() as u64);
    for event in &run.trace {
        fold_u64(hash, event.segment as u64);
        fold_u64(hash, u64::from(event.attempt));
        fold(
            hash,
            format!("{:?} {:?}", event.cause, event.action).as_bytes(),
        );
    }
    let end = &run.end;
    fold(
        hash,
        &[end.pc, u8::from(end.halted), end.acc, end.ra, end.flags],
    );
    fold(hash, &end.mem);
    fold(hash, format!("{:?}", end.mmu).as_bytes());
}

/// FNV-1a over every run, in dialect, kernel, fault-model and draw
/// order. Also returns how many runs gave up and the retry causes seen.
fn recovery_digest() -> (u64, usize, BTreeSet<String>) {
    let mut hash = FNV_OFFSET;
    let mut gave_up = 0;
    let mut causes = BTreeSet::new();
    let mut cell = 0u64;
    for name in ["fc4", "fc8", "xacc", "xls"] {
        let target = target_from_name(name).expect("built-in dialect");
        let site_list = sites::enumerate(target.dialect);
        for kernel in Kernel::ALL {
            if !kernel.supports(target.dialect) {
                continue;
            }
            let prepared = PreparedKernel::new(kernel, target).expect("kernel assembles");
            for model in [
                FaultModel::StuckAt,
                FaultModel::Transient,
                FaultModel::Mixed,
            ] {
                let mut rng = StdRng::seed_from_u64(0x2EC0_0000 + cell);
                let mut sampler = Sampler::new(kernel, 0x5A11 + cell);
                cell += 1;
                for trial in 0..12u64 {
                    let executor = RecoveryExecutor::new(
                        prepared.core(),
                        RecoveryConfig {
                            interval: [1, 7, 64, 500][trial as usize % 4],
                            max_retries: 4,
                            budget: [3_000, 20_000][trial as usize % 2],
                        },
                    );
                    let fault = draw_fault(&mut rng, &site_list, model, 400);
                    let lane = rng.gen_range(0..2usize);
                    let inputs = sampler.draw();
                    let spares = vec![FaultPlane::new(); trial as usize % 3];
                    let mut planes = [FaultPlane::new(), FaultPlane::new()];
                    planes[lane] = FaultPlane::with_faults(vec![fault]);

                    let dmr = executor.run_dmr(&inputs, planes, spares.clone());
                    let simplex =
                        executor.run_simplex(&inputs, FaultPlane::with_faults(vec![fault]), spares);
                    for run in [&dmr, &simplex] {
                        fold_run(&mut hash, run);
                        gave_up += usize::from(run.gave_up);
                        causes.extend(run.trace.iter().map(|e| format!("{:?}", e.cause)));
                    }
                }
            }
        }
    }
    (hash, gave_up, causes)
}

#[test]
fn recovery_runs_are_pinned() {
    let (got, gave_up, causes) = recovery_digest();
    assert!(gave_up > 0, "the grid must exhaust a retry budget");
    assert_eq!(
        causes.into_iter().collect::<Vec<_>>(),
        ["Crash", "Divergence", "Hang"],
        "the grid must retry on every cause"
    );
    assert_eq!(
        got, 0xa083_0d0e_c572_a011,
        "recovery digest drifted — pin {got:#018x} ({gave_up} gave up)"
    );
}
