//! Acceptance criteria for the resilient execution layer:
//!
//! * TMR masks 100 % of single-lane stuck-at faults on all four
//!   dialects;
//! * checkpoint/rollback recovers ≥ 90 % of injected transient faults;
//! * the same seed reproduces identical trials and retry traces
//!   bit-for-bit;
//! * every benchmark kernel runs through the resilient executor;
//! * the degradation ladder composes end-to-end from a fabricated
//!   wafer's salvage pool.

use flexasm::Target;
use flexfab::wafer_run::{CoreDesign, WaferExperiment};
use flexinject::campaign::FaultModel;
use flexinject::pool::SalvagePool;
use flexkernels::harness::PreparedKernel;
use flexkernels::{inputs::Sampler, oracle, Kernel};
use flexresilient::recovery::{RecoveryConfig, RecoveryExecutor};
use flexresilient::sched::{compose, QuorumMode};
use flexresilient::vote::{NmrConfig, NmrExecutor, VoteVerdict};
use flexresilient::{
    run_recovery_campaign, RecoveryCampaignConfig, ResilienceTally, ResilientOutcome,
};

const ALL_TARGETS: [fn() -> Target; 4] = [
    Target::fc4,
    Target::fc8,
    Target::xacc_revised,
    Target::xls_revised,
];

fn quick(target: Target, mode: QuorumMode, model: FaultModel, seed: u64) -> RecoveryCampaignConfig {
    RecoveryCampaignConfig {
        budget: 20_000,
        model,
        mode,
        ..RecoveryCampaignConfig::new(target, Kernel::ParityCheck, 24, seed)
    }
}

#[test]
fn tmr_masks_every_single_lane_stuck_at_fault_on_all_dialects() {
    for target in ALL_TARGETS {
        let target = target();
        let campaign =
            run_recovery_campaign(quick(target, QuorumMode::Tmr, FaultModel::StuckAt, 17)).unwrap();
        assert_eq!(campaign.trials.len(), 24);
        for (i, trial) in campaign.trials.iter().enumerate() {
            assert_eq!(
                trial.outcome,
                ResilientOutcome::Masked,
                "{:?} trial {i}: {} on lane {} was not masked",
                target.dialect,
                trial.fault,
                trial.lane
            );
        }
    }
}

#[test]
fn checkpoint_rollback_recovers_most_transients_on_all_dialects() {
    for target in ALL_TARGETS {
        let target = target();
        let campaign = run_recovery_campaign(quick(
            target,
            QuorumMode::DmrReexec,
            FaultModel::Transient,
            29,
        ))
        .unwrap();
        let tally = ResilienceTally::of(&campaign.trials);
        assert!(
            tally.survival_rate() >= 0.9,
            "{:?}: survival {:.2} < 0.90 over {} trials ({} unrecoverable)",
            target.dialect,
            tally.survival_rate(),
            tally.total(),
            tally.unrecoverable
        );
    }
}

#[test]
fn same_seed_reproduces_identical_trials_bit_for_bit() {
    for mode in [QuorumMode::Tmr, QuorumMode::DmrReexec, QuorumMode::Simplex] {
        let cfg = quick(Target::fc4(), mode, FaultModel::Mixed, 41);
        let a = run_recovery_campaign(cfg).unwrap();
        let b = run_recovery_campaign(cfg).unwrap();
        assert_eq!(a.trials, b.trials, "{mode}");
        assert_eq!(a.clean_cycles, b.clean_cycles, "{mode}");
    }
}

#[test]
fn retry_traces_replay_bit_for_bit() {
    // a stuck-at on one DMR lane forces rollbacks and a reassignment;
    // the full RecoveryRun (outputs, trace, counters) must replay
    use flexicore::sim::{ArchFault, FaultKind, FaultPlane, StateElement};
    let prepared = PreparedKernel::new(Kernel::ParityCheck, Target::fc4()).unwrap();
    let executor = RecoveryExecutor::new(
        prepared.core(),
        RecoveryConfig {
            interval: 16,
            max_retries: 6,
            budget: 20_000,
        },
    );
    let planes = || {
        [
            FaultPlane::with_faults(vec![ArchFault {
                element: StateElement::OutputPort,
                bit: 0,
                kind: FaultKind::StuckAt1,
            }]),
            FaultPlane::new(),
        ]
    };
    let a = executor.run_dmr(&[0x3, 0x5], planes(), vec![FaultPlane::new(); 2]);
    let b = executor.run_dmr(&[0x3, 0x5], planes(), vec![FaultPlane::new(); 2]);
    assert!(!a.trace.is_empty(), "the fault must force retries");
    assert_eq!(a, b);
}

#[test]
fn corrupt_page_mmu_faults_are_recovered_not_sdc() {
    // A corrupted §5.1 page register surfaces as a PageOutOfRange lane
    // crash (never silent data corruption), which the resilient layer
    // absorbs: TMR outvotes a permanently stuck page register, and
    // checkpoint/rollback re-executes through a transient page flip.
    use flexicore::sim::{ArchFault, FaultKind, FaultPlane, StateElement};
    let prepared = PreparedKernel::new(Kernel::ParityCheck, Target::fc4()).unwrap();
    let inputs = [0x3, 0x5];
    let expected = oracle::expected_outputs(Kernel::ParityCheck, Target::fc4().dialect, &inputs);

    // TMR: lane 0's page register is stuck at page 8 — that lane
    // crashes on its first fetch and the healthy majority wins
    let tmr = NmrExecutor::new(
        prepared.core(),
        NmrConfig {
            budget: 20_000,
            ..NmrConfig::default()
        },
    )
    .unwrap();
    let stuck = ArchFault {
        element: StateElement::PageReg,
        bit: 3,
        kind: FaultKind::StuckAt1,
    };
    let voted = tmr.run(
        &inputs,
        vec![
            FaultPlane::with_faults(vec![stuck]),
            FaultPlane::new(),
            FaultPlane::new(),
        ],
    );
    assert_eq!(voted.verdict, VoteVerdict::Majority);
    assert_eq!(voted.outputs, expected, "no SDC from the corrupt page");

    // DMR re-exec: a one-shot flip of the page register mid-run crashes
    // the lane, rollback replays the segment, and the retry (the flip
    // has already fired) completes oracle-exact
    let dmr = RecoveryExecutor::new(
        prepared.core(),
        RecoveryConfig {
            interval: 16,
            max_retries: 6,
            budget: 20_000,
        },
    );
    let flip = ArchFault {
        element: StateElement::PageReg,
        bit: 0,
        kind: FaultKind::FlipAtCycle(40),
    };
    let run = dmr.run_dmr(
        &inputs,
        [FaultPlane::with_faults(vec![flip]), FaultPlane::new()],
        vec![],
    );
    assert!(run.halted && !run.gave_up);
    assert!(run.retries > 0, "the page flip must force a rollback");
    assert_eq!(run.outputs, expected, "recovered, not corrupted");
}

#[test]
fn every_kernel_runs_through_the_resilient_executor() {
    let target = Target::fc4();
    for kernel in Kernel::ALL {
        let prepared = PreparedKernel::new(kernel, target).unwrap();
        let inputs = Sampler::new(kernel, 13).draw();
        let expected = oracle::expected_outputs(kernel, target.dialect, &inputs);

        let tmr = NmrExecutor::new(prepared.core(), NmrConfig::default()).unwrap();
        let voted = tmr.run(&inputs, vec![flexicore::sim::FaultPlane::new(); 3]);
        assert_eq!(voted.verdict, VoteVerdict::Unanimous, "{kernel}");
        assert_eq!(voted.outputs, expected, "{kernel}");
        assert!(voted.state.halted, "{kernel}");

        let dmr = RecoveryExecutor::new(prepared.core(), RecoveryConfig::default());
        let run = dmr.run_dmr(
            &inputs,
            [
                flexicore::sim::FaultPlane::new(),
                flexicore::sim::FaultPlane::new(),
            ],
            vec![],
        );
        assert!(run.halted && !run.gave_up, "{kernel}");
        assert_eq!(run.outputs, expected, "{kernel}");
        assert_eq!(run.retries, 0, "{kernel}: clean lanes never diverge");
    }
}

#[test]
fn degradation_ladder_composes_from_a_fabricated_wafer() {
    let exp = WaferExperiment::published(CoreDesign::FlexiCore4);
    let run = exp.run(4.5, 300).unwrap();
    let pool = SalvagePool::from_wafer(&run, CoreDesign::FlexiCore4);
    let quorums = compose(&pool);

    // every pooled die is scheduled exactly once
    let scheduled: usize = quorums.iter().map(|q| q.dies.len()).sum();
    assert_eq!(scheduled, pool.len());
    // a mostly-functional wafer yields plenty of TMR quorums
    assert!(quorums.iter().any(|q| q.mode == QuorumMode::Tmr));
    // quorum members are always pairwise fault-site-disjoint
    for q in &quorums {
        for a in 0..q.dies.len() {
            for b in a + 1..q.dies.len() {
                assert!(q.dies[a].disjoint_with(&q.dies[b]));
            }
        }
    }

    // a clean TMR quorum from the pool runs a kernel oracle-exact
    let clean = quorums
        .iter()
        .find(|q| q.mode == QuorumMode::Tmr && q.defects() == 0)
        .expect("a good wafer has three clean dies");
    let prepared = PreparedKernel::new(Kernel::ParityCheck, Target::fc4()).unwrap();
    let executor = NmrExecutor::new(
        prepared.core(),
        NmrConfig {
            budget: 20_000,
            ..NmrConfig::default()
        },
    )
    .unwrap();
    let inputs = [0x3, 0x5];
    let voted = executor.run(&inputs, clean.planes());
    assert_eq!(voted.verdict, VoteVerdict::Unanimous);
    assert_eq!(
        voted.outputs,
        oracle::expected_outputs(Kernel::ParityCheck, Target::fc4().dialect, &inputs)
    );

    // retiring dies walks the pool down the ladder
    let mut shrinking = pool.clone();
    let ids: Vec<usize> = shrinking.dies().iter().map(|d| d.id).collect();
    for id in ids.iter().take(pool.len() - 2) {
        shrinking.retire(*id);
    }
    assert_eq!(shrinking.len(), 2);
    let degraded = compose(&shrinking);
    assert!(
        degraded.iter().all(|q| q.mode != QuorumMode::Tmr),
        "two dies cannot form TMR"
    );
}
