//! Oracle for the segment runner: [`Lane::run_segment`] drains through
//! the engine (fetch latch, hang fast-forward) in bounded
//! `resume_with` calls, and must stop exactly where the plain loop —
//! halted? → quota reached? → watchdog spent? → step — stops: the same
//! [`SegmentEnd`], snapshot, output stream, input position and fault
//! plane, segment after segment.
//!
//! The grid covers all four dialects (FC8 with a program dense in
//! two-cycle `LOAD BYTE`s), intervals {1, 2, 63, 64, `u64::MAX`},
//! watchdog budgets {0, 1, 7, 20 000}, a fetch-bus transient (the fetch
//! latch on) and page-register stuck-ats (steady hooks, so hung runs
//! are fast-forwarded).

use std::collections::BTreeSet;

use flexasm::{Assembler, Target};
use flexicore::exec::AnyCore;
use flexicore::io::InputPort;
use flexicore::program::Program;
use flexicore::sim::{ArchFault, FaultKind, FaultPlane, StateElement};
use flexkernels::harness::PreparedKernel;
use flexkernels::{inputs::Sampler, Kernel};
use flexresilient::recovery::{Checkpoint, Lane, SegmentEnd};

const INTERVALS: [u64; 5] = [1, 2, 63, 64, u64::MAX];
const BUDGETS: [u64; 4] = [0, 1, 7, 20_000];
/// Segments compared per run; enough for every run at interval 64 and
/// above, and hundreds of one-instruction segments below.
const MAX_SEGMENTS: usize = 400;

/// The reference: step one instruction at a time, checking halt, then
/// the quota, then the watchdog before every step.
fn stepped(lane: &mut Lane, target: u64, budget: u64) -> SegmentEnd {
    loop {
        if lane.core.is_halted() {
            return SegmentEnd::Halted;
        }
        if lane.core.instructions() >= target {
            return SegmentEnd::Reached;
        }
        if lane.core.budget_spent() >= budget {
            return SegmentEnd::Hung;
        }
        if lane
            .core
            .step_with(&mut lane.input, &mut lane.output, &mut lane.plane)
            .is_err()
        {
            return SegmentEnd::Crashed;
        }
    }
}

fn assemble(target: Target, source: &str) -> Program {
    Assembler::new(target)
        .assemble(source)
        .expect("test program assembles")
        .into_program()
}

fn fault(element: StateElement, bit: u8, kind: FaultKind) -> FaultPlane {
    FaultPlane::with_faults(vec![ArchFault { element, bit, kind }])
}

/// One runner-vs-oracle case: a core, its inputs and its faults.
struct Case {
    name: &'static str,
    core: AnyCore,
    inputs: Vec<u8>,
    plane: FaultPlane,
}

fn kernel_case(name: &'static str, kernel: Kernel, target: Target, plane: FaultPlane) -> Case {
    Case {
        name,
        core: PreparedKernel::new(kernel, target)
            .expect("kernel assembles")
            .core(),
        inputs: Sampler::new(kernel, 0x0AC1E).draw(),
        plane,
    }
}

fn program_case(name: &'static str, target: Target, source: &str, plane: FaultPlane) -> Case {
    Case {
        name,
        core: AnyCore::for_dialect(target.dialect, target.features, assemble(target, source)),
        inputs: vec![3, 9, 27],
        plane,
    }
}

fn cases() -> Vec<Case> {
    let fc8 = Target::fc8();
    // LOAD BYTE costs two cycles, so a budget in cycles runs out at half
    // the instruction count it would on the other dialects
    let ldb_dense = "top: ldb 5\nstore r1\nldb 200\nldb 17\nstore r1\njmp top\n";
    let counter = "top: addi 1\nstore r1\njmp top\n";
    vec![
        kernel_case(
            "fc4 parity",
            Kernel::ParityCheck,
            Target::fc4(),
            FaultPlane::new(),
        ),
        kernel_case(
            "fc4 calculator",
            Kernel::Calculator,
            Target::fc4(),
            FaultPlane::new(),
        ),
        kernel_case("fc8 parity", Kernel::ParityCheck, fc8, FaultPlane::new()),
        program_case("fc8 ldb loop", fc8, ldb_dense, FaultPlane::new()),
        program_case(
            "fc8 ldb halt",
            fc8,
            "ldb 5\nldb 6\nstore r1\nldb 7\nldb 8\nstore r1\nhalt\n",
            FaultPlane::new(),
        ),
        kernel_case(
            "xacc intavg",
            Kernel::IntAvg,
            Target::xacc_revised(),
            FaultPlane::new(),
        ),
        kernel_case(
            "xls xorshift",
            Kernel::XorShift8,
            Target::xls_revised(),
            FaultPlane::new(),
        ),
        kernel_case(
            "fc4 parity, fetch-bus transient",
            Kernel::ParityCheck,
            Target::fc4(),
            fault(StateElement::FetchBus, 3, FaultKind::FlipAtCycle(30)),
        ),
        program_case(
            "fc8 ldb loop, fetch-bus transient",
            fc8,
            ldb_dense,
            fault(StateElement::FetchBus, 1, FaultKind::FlipAtCycle(11)),
        ),
        program_case(
            "fc4 counter, page-register stuck-at",
            Target::fc4(),
            counter,
            fault(StateElement::PageReg, 2, FaultKind::StuckAt0),
        ),
        program_case(
            "fc8 ldb loop, page-register stuck-at",
            fc8,
            ldb_dense,
            fault(StateElement::PageReg, 0, FaultKind::StuckAt0),
        ),
        kernel_case(
            "fc4 calculator, page-register stuck-at",
            Kernel::Calculator,
            Target::fc4(),
            fault(StateElement::PageReg, 1, FaultKind::StuckAt0),
        ),
        program_case(
            "xacc counter, page-register stuck-at",
            Target::xacc_revised(),
            counter,
            fault(StateElement::PageReg, 3, FaultKind::StuckAt0),
        ),
        kernel_case(
            "xls parity, pc stuck-at",
            Kernel::ParityCheck,
            Target::xls_revised(),
            fault(StateElement::Pc, 0, FaultKind::StuckAt1),
        ),
    ]
}

/// Run `case` segment by segment through the runner and the oracle in
/// lockstep, committing after every reached quota. Returns the endings
/// seen.
fn compare(case: &Case, interval: u64, budget: u64) -> Vec<SegmentEnd> {
    let what = format!("{} · interval {interval} · budget {budget}", case.name);
    let mut checkpoint = Checkpoint::power_on(&case.core, &case.inputs);
    let mut lane = checkpoint.lane(case.core.clone(), case.plane.clone());
    lane.core.power_on_faults(&mut lane.plane);
    let mut reference = checkpoint.clone();
    let mut oracle = lane.clone();

    let mut ends = Vec::new();
    for segment in 0..MAX_SEGMENTS {
        let end = lane.run_segment(&checkpoint, interval, budget);
        let target = reference
            .snapshot()
            .instructions
            .saturating_add(interval.max(1));
        let want = stepped(&mut oracle, target, budget);
        let at = format!("{what} · segment {segment}");
        assert_eq!(end, want, "{at}");
        assert_eq!(lane.core.snapshot(), oracle.core.snapshot(), "{at}");
        assert_eq!(lane.output.writes(), oracle.output.writes(), "{at}");
        assert_eq!(lane.input.position(), oracle.input.position(), "{at}");
        assert_eq!(lane.plane, oracle.plane, "{at}");
        ends.push(end);
        if end != SegmentEnd::Reached {
            break;
        }
        checkpoint.commit(&mut lane);
        reference.commit(&mut oracle);
    }
    assert_eq!(
        checkpoint.into_committed(),
        reference.into_committed(),
        "{what}"
    );
    ends
}

#[test]
fn segment_runner_matches_the_plain_step_loop() {
    let mut seen = BTreeSet::new();
    let mut long_hangs = 0;
    for case in cases() {
        for interval in INTERVALS {
            for budget in BUDGETS {
                let ends = compare(&case, interval, budget);
                seen.extend(ends.iter().map(|end| format!("{end:?}")));
                let last = ends.last().copied();
                long_hangs += usize::from(
                    interval == u64::MAX && budget == 20_000 && last == Some(SegmentEnd::Hung),
                );
            }
        }
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        ["Crashed", "Halted", "Hung", "Reached"],
        "every segment ending is exercised"
    );
    assert!(
        long_hangs >= 4,
        "hangs long enough to fast-forward: {long_hangs}"
    );
}
