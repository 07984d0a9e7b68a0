//! Acceptance lint: every benchmark kernel, on every dialect it
//! supports, must come out of the analyzer with no error-severity
//! findings. The fc8 checksum demo rides along.

use flexasm::Target;
use flexcheck::Severity;
use flexicore::isa::features::FeatureSet;
use flexkernels::Kernel;

fn targets() -> Vec<(&'static str, Target)> {
    vec![
        ("fc4", Target::fc4()),
        ("fc8", Target::fc8()),
        ("xacc-base", Target::xacc(FeatureSet::BASE)),
        ("xacc-revised", Target::xacc_revised()),
        ("xls-revised", Target::xls_revised()),
    ]
}

#[test]
fn all_kernels_lint_clean_at_error_severity() {
    let mut checked = 0usize;
    for kernel in Kernel::ALL {
        for (name, target) in targets() {
            if !kernel.supports(target.dialect) {
                continue;
            }
            let assembly = kernel
                .assemble(target)
                .unwrap_or_else(|e| panic!("{kernel}/{name}: {e}"));
            let report = flexcheck::check_assembly(&assembly);
            assert!(
                !report.has_at_least(Severity::Error),
                "{kernel}/{name} has error findings:\n{}",
                report.render()
            );
            assert!(
                report.halt_reachable,
                "{kernel}/{name}: no reachable halt:\n{}",
                report.render()
            );
            checked += 1;
        }
    }
    // 7 kernels × 4 accumulator/LS targets + ParityCheck on fc8
    assert_eq!(checked, 7 * 4 + 1);
}

#[test]
fn kernels_terminate_with_finite_bounds_when_exact() {
    // the streaming kernels loop on input forever by design, but every
    // kernel that the analyzer can model exactly must have a reachable
    // halt; spot-check that exact single-shot kernels get real bounds
    for (name, target) in targets() {
        if !Kernel::ParityCheck.supports(target.dialect) {
            continue;
        }
        let assembly = Kernel::ParityCheck.assemble(target).unwrap();
        let report = flexcheck::check_assembly(&assembly);
        assert!(report.halt_reachable, "parity_check/{name}");
    }
}

#[test]
fn fc8_demo_programs_lint_clean() {
    let assembly = flexasm::Assembler::new(Target::fc8())
        .assemble(&flexkernels::fc8_demo::checksum8_source())
        .expect("checksum8 assembles");
    let report = flexcheck::check_assembly(&assembly);
    assert!(
        !report.has_at_least(Severity::Error),
        "checksum8 has error findings:\n{}",
        report.render()
    );
}
