//! Replay pin for execution out of the protected store: every field of
//! every [`LinkRun`] — admission, transfer telemetry, committed outputs,
//! halt and give-up flags, rollback, repair and correction counts, scrub
//! totals, the event trace and the committed end state — folded into
//! one digest.
//!
//! The grid is the soak campaign on all four dialects at bit-error
//! rates {0, 5e-4, 2e-3}, once with the default executor policy and
//! once under a stressed one (short segments, tight watchdog, scrubbing
//! every segment, many upsets), plus image rollbacks over a dead
//! channel. A change to the segment runner, the checkpoint, the scrub
//! cadence or the repair path shows up here as a digest mismatch. Bump
//! the pinned value only together with a note saying why the runs
//! legitimately moved.

use std::collections::BTreeSet;

use flexasm::Target;
use flexicore::sim::{ArchFault, FaultKind, FaultPlane, StateElement};
use flexkernels::harness::PreparedKernel;
use flexkernels::{inputs::Sampler, Kernel};
use flexlink::exec::{LinkEvent, LinkExecConfig, LinkRun, LinkedExecutor, StoreUpset};
use flexlink::protocol::{self, LinkConfig};
use flexlink::soak::{run_soak, SoakConfig};
use flexlink::{ChannelConfig, EccStore, NoisyChannel};

const TARGETS: [fn() -> Target; 4] = [
    Target::fc4,
    Target::fc8,
    Target::xacc_revised,
    Target::xls_revised,
];

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
fn fold_run(hash: &mut u64, run: &LinkRun) {
    fold(hash, &[u8::from(run.admitted), u8::from(run.programmed)]);
    fold(hash, format!("{:?}", run.admission_findings).as_bytes());
    fold(hash, format!("{:?}", run.transfer).as_bytes());
    fold_u64(hash, run.outputs.len() as u64);
    fold(hash, &run.outputs);
    fold(hash, &[u8::from(run.halted), u8::from(run.gave_up)]);
    fold_u64(hash, u64::from(run.rollbacks));
    fold_u64(hash, u64::from(run.image_rollbacks));
    fold_u64(hash, u64::from(run.reprogrammed_pages));
    fold_u64(hash, run.read_corrections as u64);
    fold_u64(hash, run.scrub.sweeps as u64);
    fold_u64(hash, run.scrub.corrected as u64);
    fold_u64(hash, run.scrub.uncorrectable as u64);
    fold_u64(hash, run.trace.len() as u64);
    for event in &run.trace {
        fold(hash, format!("{event:?}").as_bytes());
    }
    let end = &run.end;
    fold(
        hash,
        &[end.pc, u8::from(end.halted), end.acc, end.ra, end.flags],
    );
    fold(hash, &end.mem);
    fold(hash, format!("{:?}", end.mmu).as_bytes());
}

/// The kind of every event in `run`'s trace (`Retry`, `Scrub`, …).
fn event_kinds(run: &LinkRun) -> impl Iterator<Item = String> + '_ {
    run.trace.iter().map(|e| {
        let text = format!("{e:?}");
        text.split_whitespace()
            .next()
            .unwrap_or_default()
            .to_string()
    })
}

/// FNV-1a over every soak trial, dialect by dialect, default policy
/// before stressed. Also returns the event kinds seen.
fn soak_digest() -> (u64, BTreeSet<String>) {
    let mut hash = FNV_OFFSET;
    let mut kinds = BTreeSet::new();
    for (i, target) in TARGETS.into_iter().enumerate() {
        let target = target();
        let rates = vec![0.0, 5e-4, 2e-3];
        let default = SoakConfig::new(target, rates.clone(), 0x50AC + i as u64);
        let stressed = SoakConfig {
            upsets_per_trial: 8,
            exec: LinkExecConfig {
                interval: 5,
                max_retries: 3,
                budget: 3_000,
                scrub_interval: 1,
            },
            ..SoakConfig::new(target, rates, 0x57E5 + i as u64)
        };
        for config in [default, stressed] {
            let campaign = run_soak(config).expect("kernels assemble");
            for trial in &campaign.trials {
                fold(&mut hash, trial.outcome.to_string().as_bytes());
                fold_run(&mut hash, &trial.run);
                kinds.extend(event_kinds(&trial.run));
            }
        }
    }
    (hash, kinds)
}

/// Linked runs of every supported kernel with a fault in the lane:
/// crashes (the corrupt-page MMU guard, a derailed PC), hangs and
/// silent corruption, each under store upsets. Also returns the retry
/// causes seen.
fn faulted_digest() -> (u64, BTreeSet<String>) {
    let mut hash = FNV_OFFSET;
    let mut causes = BTreeSet::new();
    let faults = [
        (StateElement::PageReg, 2, FaultKind::FlipAtCycle(40)),
        (StateElement::Pc, 6, FaultKind::StuckAt1),
        (StateElement::Pc, 0, FaultKind::StuckAt0),
        (StateElement::FetchBus, 0, FaultKind::FlipAtCycle(25)),
        (StateElement::Acc, 1, FaultKind::StuckAt1),
    ];
    for target in TARGETS {
        let target = target();
        for kernel in Kernel::ALL {
            if !kernel.supports(target.dialect) {
                continue;
            }
            let prepared = PreparedKernel::new(kernel, target).expect("kernel assembles");
            let executor = LinkedExecutor::new(
                target,
                prepared.program().clone(),
                LinkConfig::default(),
                LinkExecConfig {
                    interval: 8,
                    max_retries: 3,
                    budget: 4_000,
                    scrub_interval: 2,
                },
            );
            let inputs = Sampler::new(kernel, 0xFA17).draw();
            let upsets = [
                StoreUpset {
                    segment: 1,
                    word: 0,
                    bit: 4,
                },
                StoreUpset {
                    segment: 3,
                    word: prepared.program().len() / 2,
                    bit: 9,
                },
            ];
            for (i, &(element, bit, kind)) in faults.iter().enumerate() {
                let plane = FaultPlane::with_faults(vec![ArchFault { element, bit, kind }]);
                let run = executor.run(
                    &inputs,
                    ChannelConfig::with_bit_error_rate(5e-4),
                    i as u64,
                    &upsets,
                    plane,
                );
                fold_run(&mut hash, &run);
                for event in &run.trace {
                    if let LinkEvent::Retry { cause, .. } = event {
                        causes.insert(format!("{cause:?}"));
                    }
                }
            }
        }
    }
    (hash, causes)
}

/// Runs out of a pre-programmed store whose decayed pages cannot be
/// repaired over a dead channel, with the prior image armed: every
/// dialect restarts from power-on on the prior image.
fn rollback_digest() -> (u64, u32) {
    let mut hash = FNV_OFFSET;
    let mut image_rollbacks = 0;
    for target in TARGETS {
        let target = target();
        let golden = PreparedKernel::new(Kernel::ParityCheck, target)
            .expect("parity fits every dialect")
            .program()
            .clone();
        let executor = LinkedExecutor::new(
            target,
            golden.clone(),
            LinkConfig::default(),
            LinkExecConfig {
                interval: 4,
                ..LinkExecConfig::default()
            },
        )
        .with_rollback(golden.clone());
        let mut store = EccStore::erased(golden.len());
        let transfer = protocol::program_store(
            golden.as_bytes(),
            &mut store,
            &mut NoisyChannel::new(ChannelConfig::clean(), 1),
            LinkConfig::default(),
        );
        assert!(transfer.complete());
        // two flips in one word are beyond SECDED, before the run and
        // again mid-run
        store.flip_bit(1, 2);
        store.flip_bit(1, 10);
        let upsets = [
            StoreUpset {
                segment: 2,
                word: 0,
                bit: 3,
            },
            StoreUpset {
                segment: 2,
                word: 0,
                bit: 7,
            },
        ];
        let dead = ChannelConfig {
            drop_rate: 1.0,
            ..ChannelConfig::clean()
        };
        let run =
            executor.run_from_store(store, &[0x3, 0x5, 0x6], dead, 9, &upsets, FaultPlane::new());
        image_rollbacks += run.image_rollbacks;
        assert!(run
            .trace
            .iter()
            .any(|e| matches!(e, LinkEvent::ImageRollback { .. })));
        fold_run(&mut hash, &run);
    }
    (hash, image_rollbacks)
}

#[test]
fn soak_runs_are_pinned() {
    let (got, kinds) = soak_digest();
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["PageRepair", "Scrub"],
        "the grid must scrub and repair"
    );
    assert_eq!(
        got, 0xa449_08c4_169e_30ac,
        "soak digest drifted — pin {got:#018x}"
    );
}

#[test]
fn faulted_lane_runs_are_pinned() {
    let (got, causes) = faulted_digest();
    assert_eq!(
        causes.into_iter().collect::<Vec<_>>(),
        ["Crash", "Hang"],
        "the grid must retry on every cause"
    );
    assert_eq!(
        got, 0x6b95_d8af_f9c3_9ae4,
        "faulted digest drifted — pin {got:#018x}"
    );
}

#[test]
fn dead_channel_rollbacks_are_pinned() {
    let (got, image_rollbacks) = rollback_digest();
    assert!(image_rollbacks >= 8, "{image_rollbacks} image rollbacks");
    assert_eq!(
        got, 0xa500_350d_0072_c1fa,
        "rollback digest drifted — pin {got:#018x}"
    );
}
