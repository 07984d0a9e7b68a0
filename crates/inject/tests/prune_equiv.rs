//! Campaign-pruning equivalence: a statically pruned campaign must be
//! byte-identical to the unpruned one — same trials, same outcomes,
//! same clean-cycle count — it may only *skip* simulations whose
//! outcome the analyzer already proved.
//!
//! These tests are the user-facing face of the soundness contract that
//! `flexcheck::soundness::check_masked_sites` enforces differentially:
//! if the analyzer ever claimed a live site was masked, the pruned
//! report here would diverge from ground truth and fail loudly.

use flexasm::Target;
use flexcheck::vuln::VulnReport;
use flexfab::wafer_run::{CoreDesign, WaferExperiment};
use flexinject::campaign::{run_campaign, run_campaign_pruned, CampaignConfig, FaultModel};
use flexinject::salvage::SalvageScreen;
use flexinject::{Outcome, SalvageConfig};
use flexkernels::harness::PreparedKernel;
use flexkernels::Kernel;

fn all_targets() -> [Target; 4] {
    [
        Target::fc4(),
        Target::fc8(),
        Target::xacc_revised(),
        Target::xls_revised(),
    ]
}

fn report_for(kernel: Kernel, target: Target) -> VulnReport {
    let prepared = PreparedKernel::new(kernel, target).expect("kernel assembles");
    flexcheck::vuln::analyze(&target, prepared.program())
}

#[test]
fn pruned_campaigns_are_byte_identical_on_all_dialects() {
    for target in all_targets() {
        let kernel = Kernel::ParityCheck;
        let report = report_for(kernel, target);
        let cfg = CampaignConfig {
            budget: 20_000,
            model: FaultModel::Mixed,
            ..CampaignConfig::new(target, kernel, 48, 0xE0_17)
        };
        let full = run_campaign(cfg).expect("unpruned campaign");
        let pruned = run_campaign_pruned(cfg, Some(&report)).expect("pruned campaign");
        assert_eq!(full.trials, pruned.trials, "{:?}", target.dialect);
        assert_eq!(full.clean_cycles, pruned.clean_cycles);
        assert_eq!(full.executed, full.trials.len());
        assert!(
            pruned.executed <= full.executed,
            "pruning may only remove simulations"
        );
        // every synthesized trial really is masked per the report
        for t in &pruned.trials {
            if report.is_masked_fault(&t.fault) {
                assert_eq!(t.outcome, Outcome::Masked, "{:?}", t.fault);
            }
        }
    }
}

#[test]
fn pruning_is_stable_across_threads() {
    let target = Target::fc8();
    let kernel = Kernel::ParityCheck;
    let report = report_for(kernel, target);
    // ragged trial counts: fewer trials than threads, and counts no
    // thread count divides
    for trials in [1, 5, 64, 77] {
        let base = CampaignConfig {
            budget: 20_000,
            model: FaultModel::Mixed,
            ..CampaignConfig::new(target, kernel, trials, 0x5EED)
        };
        let serial = run_campaign_pruned(base, Some(&report)).expect("serial pruned");
        for threads in [1, 3, 8] {
            let parallel = run_campaign_pruned(CampaignConfig { threads, ..base }, Some(&report))
                .expect("parallel pruned");
            assert_eq!(
                serial.trials, parallel.trials,
                "{trials} trials / {threads} threads"
            );
            assert_eq!(serial.executed, parallel.executed);
        }
    }
}

#[test]
fn pruning_actually_removes_work_on_the_kernel_suite() {
    // The acceptance bar: across the kernel suite, static pruning must
    // remove at least a quarter of all site-runs. Masked fractions per
    // dialect are pinned elsewhere (vuln digests); this asserts the
    // end-to-end effect on real campaigns.
    let mut total = 0usize;
    let mut executed = 0usize;
    for target in all_targets() {
        for kernel in Kernel::ALL {
            if !kernel.supports(target.dialect) {
                continue;
            }
            let report = report_for(kernel, target);
            let cfg = CampaignConfig {
                budget: 20_000,
                ..CampaignConfig::new(target, kernel, 32, 0xCA_FE)
            };
            let pruned = run_campaign_pruned(cfg, Some(&report)).expect("pruned campaign");
            total += pruned.trials.len();
            executed += pruned.executed;
        }
    }
    assert!(
        executed * 4 <= total * 3,
        "pruning removed too little: {executed}/{total} trials still simulated"
    );
}

#[test]
fn pruned_salvage_is_byte_identical() {
    let config = SalvageConfig {
        cases_per_kernel: 1,
        budget: 30_000,
        seed: 5,
        threads: 1,
    };
    let exp = WaferExperiment::published(CoreDesign::FlexiCore4);
    let run = exp.run(4.5, 300).expect("wafer run");
    let screen = SalvageScreen::new(CoreDesign::FlexiCore4, config).expect("screen");
    let full = screen.analyze(&run);
    let pruned = screen.analyze_pruned(&run);
    assert_eq!(full.classes, pruned.classes);
    assert_eq!(full.in_inclusion, pruned.in_inclusion);
    // and the thread count still never changes the pruned analysis
    let threaded = SalvageScreen::new(
        CoreDesign::FlexiCore4,
        SalvageConfig {
            threads: 8,
            ..config
        },
    )
    .expect("screen");
    assert_eq!(threaded.analyze_pruned(&run).classes, pruned.classes);
}
