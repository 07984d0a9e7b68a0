//! Checkpoint/rollback recovery: run in short segments, compare at
//! every boundary, and re-execute from the last good checkpoint when
//! the lanes disagree.
//!
//! The executor runs one or two lanes in lockstep segments of a fixed
//! number of retired instructions. At every boundary it takes a cheap
//! architectural [`Checkpoint`] ([`Snapshot`] plus the input cursor and
//! the committed output stream) and — in DMR mode — compares the lanes'
//! segment outputs and [`StateDigest`]s. On divergence, crash or hang,
//! every lane is rolled back to the canonical checkpoint and the
//! segment re-executes.
//!
//! This module is the one home of checkpointed segment execution:
//! [`Lane::run_segment`], [`Checkpoint`] and [`RetryCause`] also drive
//! `flexlink`'s executor out of the protected program store. A segment
//! drains through [`AnyCore::resume_with`] like every other run, so it
//! gets the engine's fetch latch and exact hang fast-forward.
//!
//! Fault planes are **never** rolled back: a transient flip that
//! already fired stays fired (the particle strike happened; rewinding
//! the machine does not repeat it), so re-execution after a transient
//! is clean and the retry succeeds — that is the recovery mechanism.
//! A *permanent* fault diverges again on every retry; after an
//! exponentially backed-off number of attempts the suspect lane is
//! reassigned to a spare die (a fresh core restored from the
//! checkpoint, carrying the spare's fault plane). A segment that
//! exhausts its retry budget gives up, returning the outputs committed
//! so far.
//!
//! Everything here is deterministic — no RNG, no wall-clock — so a
//! retry trace replays bit-for-bit from the same inputs and planes.
//!
//! Simplex mode (one lane, checkpoints only) detects crashes and hangs
//! but **cannot** detect silent data corruption: with no second lane to
//! compare against, a wrong-but-halting run commits. That blind spot is
//! the price of the bottom rung of the degradation ladder.

use flexicore::exec::{AnyCore, Snapshot};
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::sim::FaultPlane;

use crate::vote::StateDigest;

/// Configuration of a [`RecoveryExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Retired instructions per segment (checkpoint cadence).
    pub interval: u64,
    /// Retry attempts per segment before giving up.
    pub max_retries: u32,
    /// Watchdog budget per lane (cycles on FC4/FC8, retired
    /// instructions on the extended dialects); exceeding it inside a
    /// segment counts as a hang.
    pub budget: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            interval: 64,
            max_retries: 8,
            budget: 200_000,
        }
    }
}

/// Why a segment was retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetryCause {
    /// DMR lanes disagreed on segment outputs or architectural state.
    Divergence,
    /// A lane raised a simulator error.
    Crash,
    /// A lane exhausted the watchdog budget.
    Hang,
}

/// What the executor did about a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetryAction {
    /// Rolled every lane back to the checkpoint and re-executed.
    Rollback,
    /// Rolled back and additionally moved one lane onto a spare die.
    Reassign {
        /// The lane index that was reassigned.
        lane: usize,
    },
    /// Exhausted the retry budget; the run stops at the checkpoint.
    GiveUp,
}

/// One entry of the deterministic retry trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryEvent {
    /// Which segment (0-based commit index) failed.
    pub segment: usize,
    /// Attempt number within the segment (1-based).
    pub attempt: u32,
    /// What went wrong.
    pub cause: RetryCause,
    /// What the executor did.
    pub action: RetryAction,
}

/// The result of one recovery-executed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRun {
    /// The committed output stream.
    pub outputs: Vec<u8>,
    /// Whether the program reached the halt idiom.
    pub halted: bool,
    /// Whether a segment exhausted its retry budget.
    pub gave_up: bool,
    /// Total retry attempts across all segments.
    pub retries: u32,
    /// Lane-to-spare reassignments performed.
    pub reassignments: u32,
    /// The full retry trace, in order.
    pub trace: Vec<RetryEvent>,
    /// The committed end state.
    pub end: StateDigest,
}

/// How one lane finished a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentEnd {
    /// Retired the segment's instruction quota.
    Reached,
    /// Hit the halt idiom before the quota.
    Halted,
    /// Raised a simulator error.
    Crashed,
    /// Burned the watchdog budget.
    Hung,
}

impl SegmentEnd {
    /// The retry this ending calls for: `None` when the segment may
    /// commit.
    #[must_use]
    pub fn retry_cause(self) -> Option<RetryCause> {
        match self {
            SegmentEnd::Reached | SegmentEnd::Halted => None,
            SegmentEnd::Crashed => Some(RetryCause::Crash),
            SegmentEnd::Hung => Some(RetryCause::Hang),
        }
    }
}

/// One lane of checkpointed execution: a core plus its private IO and
/// fault plane.
#[derive(Debug, Clone)]
pub struct Lane {
    /// The simulated die.
    pub core: AnyCore,
    /// The lane's input cursor.
    pub input: ScriptedInput<'static>,
    /// Outputs written since the last checkpoint.
    pub output: RecordingOutput,
    /// The lane's faults; never rolled back (see the module docs).
    pub plane: FaultPlane,
}

impl Lane {
    /// Run one segment from `checkpoint`: until the lane has retired
    /// `interval` instructions past it (at least one), halts, crashes or
    /// has spent `budget` (cycles on FC4/FC8, retired instructions on
    /// the extended dialects).
    ///
    /// The lane drains through [`AnyCore::resume_with`], bounded so it
    /// stops exactly where stepping one instruction at a time and
    /// checking halt, then quota, then watchdog before each step would:
    /// every instruction spends at least one budget unit, so a bound of
    /// `spent + (target - retired)` never carries the lane past its
    /// quota. Most segments finish in one call; FC8's two-cycle
    /// `LOAD BYTE` can leave part of the quota for another.
    pub fn run_segment(
        &mut self,
        checkpoint: &Checkpoint,
        interval: u64,
        budget: u64,
    ) -> SegmentEnd {
        let target = checkpoint.snap.instructions.saturating_add(interval.max(1));
        loop {
            if self.core.is_halted() {
                return SegmentEnd::Halted;
            }
            let retired = self.core.instructions();
            if retired >= target {
                return SegmentEnd::Reached;
            }
            let spent = self.core.budget_spent();
            if spent >= budget {
                return SegmentEnd::Hung;
            }
            let bound = budget.min(spent.saturating_add(target - retired));
            if self
                .core
                .resume_with(&mut self.input, &mut self.output, bound, &mut self.plane)
                .is_err()
            {
                return SegmentEnd::Crashed;
            }
        }
    }
}

/// The committed state every lane re-synchronizes to: an architectural
/// snapshot, the input cursor, and the outputs committed so far.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    snap: Snapshot,
    input: ScriptedInput<'static>,
    committed: Vec<u8>,
}

impl Checkpoint {
    /// The power-on checkpoint of `core`: its state before any power-on
    /// fault lands, `inputs` unread, nothing committed.
    #[must_use]
    pub fn power_on(core: &AnyCore, inputs: &[u8]) -> Self {
        Checkpoint {
            snap: core.snapshot(),
            input: ScriptedInput::new(inputs.to_vec()),
            committed: Vec::new(),
        }
    }

    /// A lane running `core` under `plane` from this checkpoint's input
    /// cursor, with nothing written. The core is taken as it is.
    #[must_use]
    pub fn lane(&self, core: AnyCore, plane: FaultPlane) -> Lane {
        Lane {
            core,
            input: self.input.clone(),
            output: RecordingOutput::new(),
            plane,
        }
    }

    /// The committed architectural state.
    #[must_use]
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// Commit `lane`'s segment: append its outputs and adopt its state
    /// and input cursor. The lane is left at the new checkpoint.
    pub fn commit(&mut self, lane: &mut Lane) {
        self.committed.extend(lane.output.values());
        self.snap = lane.core.snapshot();
        self.input = lane.input.clone();
        lane.output = RecordingOutput::new();
    }

    /// Roll `lane` back onto the checkpoint. Its fault plane is
    /// deliberately left alone (see the module docs).
    pub fn rewind(&self, lane: &mut Lane) {
        lane.core.restore(&self.snap);
        lane.input = self.input.clone();
        lane.output = RecordingOutput::new();
    }

    /// The committed output stream.
    #[must_use]
    pub fn into_committed(self) -> Vec<u8> {
        self.committed
    }
}

/// Runs a program under checkpoint/rollback, in DMR-with-re-execution
/// or simplex mode.
#[derive(Debug, Clone)]
pub struct RecoveryExecutor {
    proto: AnyCore,
    config: RecoveryConfig,
}

impl RecoveryExecutor {
    /// An executor cloning fresh lanes from `proto`.
    #[must_use]
    pub fn new(proto: AnyCore, config: RecoveryConfig) -> Self {
        RecoveryExecutor { proto, config }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// Dual-modular redundancy with re-execution: two lanes compared at
    /// every checkpoint, `spares` consumed by lane reassignment.
    #[must_use]
    pub fn run_dmr(
        &self,
        inputs: &[u8],
        planes: [FaultPlane; 2],
        spares: Vec<FaultPlane>,
    ) -> RecoveryRun {
        self.run_lanes(inputs, planes.into(), spares)
    }

    /// Simplex with checkpoints: one lane, rollback on crash or hang
    /// only. Silent data corruption passes through undetected.
    #[must_use]
    pub fn run_simplex(
        &self,
        inputs: &[u8],
        plane: FaultPlane,
        spares: Vec<FaultPlane>,
    ) -> RecoveryRun {
        self.run_lanes(inputs, vec![plane], spares)
    }

    fn run_lanes(
        &self,
        inputs: &[u8],
        planes: Vec<FaultPlane>,
        mut spares: Vec<FaultPlane>,
    ) -> RecoveryRun {
        // The canonical checkpoint starts *before* power-on faults are
        // applied, so the very first rollback already lands on a clean
        // architectural state.
        let mut checkpoint = Checkpoint::power_on(&self.proto, inputs);
        let mut lanes: Vec<Lane> = planes
            .into_iter()
            .map(|plane| {
                let mut lane = checkpoint.lane(self.proto.clone(), plane);
                lane.core.power_on_faults(&mut lane.plane);
                lane
            })
            .collect();

        let mut trace = Vec::new();
        let mut retries = 0u32;
        let mut reassignments = 0u32;
        let mut gave_up = false;

        let mut segment = 0usize;
        'run: while !checkpoint.snapshot().halted {
            let mut attempt = 0u32;
            let mut next_reassign = 1u32;
            loop {
                let mut failure: Option<(RetryCause, usize)> = None;
                for (index, lane) in lanes.iter_mut().enumerate() {
                    let end =
                        lane.run_segment(&checkpoint, self.config.interval, self.config.budget);
                    if let Some(cause) = end.retry_cause() {
                        failure.get_or_insert((cause, index));
                    }
                }
                if failure.is_none() && lanes.len() >= 2 {
                    let reference = StateDigest::of(&lanes[0].core.snapshot());
                    let diverged = lanes[1..].iter().any(|lane| {
                        lane.output.values() != lanes[0].output.values()
                            || StateDigest::of(&lane.core.snapshot()) != reference
                    });
                    if diverged {
                        // DMR cannot attribute a divergence to a lane;
                        // the suspect is chosen by alternation below.
                        failure = Some((RetryCause::Divergence, 1));
                    }
                }

                let Some((cause, suspect)) = failure else {
                    break; // segment agreed: commit below
                };
                attempt += 1;
                retries += 1;
                if attempt > self.config.max_retries {
                    trace.push(RetryEvent {
                        segment,
                        attempt,
                        cause,
                        action: RetryAction::GiveUp,
                    });
                    gave_up = true;
                    break 'run;
                }
                let action = if attempt >= next_reassign && !spares.is_empty() {
                    next_reassign = next_reassign.saturating_mul(2);
                    // Divergence points at no one, so reassignment
                    // alternates between the lanes; within two
                    // reassignments the faulty lane has been replaced.
                    let lane = if cause == RetryCause::Divergence && lanes.len() == 2 {
                        reassignments as usize % 2
                    } else {
                        suspect
                    };
                    lanes[lane] = checkpoint.lane(self.proto.clone(), spares.remove(0));
                    reassignments += 1;
                    RetryAction::Reassign { lane }
                } else {
                    RetryAction::Rollback
                };
                trace.push(RetryEvent {
                    segment,
                    attempt,
                    cause,
                    action,
                });
                for lane in &mut lanes {
                    checkpoint.rewind(lane);
                }
            }

            // Commit: lane 0 speaks for the agreed state. Re-syncing the
            // other lanes to the canonical snapshot keeps their budget
            // accounting in lockstep for the next segment.
            checkpoint.commit(&mut lanes[0]);
            for lane in &mut lanes[1..] {
                checkpoint.rewind(lane);
            }
            segment += 1;
        }

        RecoveryRun {
            halted: checkpoint.snapshot().halted,
            end: StateDigest::of(checkpoint.snapshot()),
            outputs: checkpoint.into_committed(),
            gave_up,
            retries,
            reassignments,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexasm::Target;
    use flexicore::sim::{ArchFault, FaultKind, StateElement};
    use flexkernels::harness::PreparedKernel;
    use flexkernels::{oracle, Kernel};

    fn parity_setup() -> (RecoveryExecutor, Vec<u8>, Vec<u8>) {
        let prepared = PreparedKernel::new(Kernel::ParityCheck, Target::fc4()).unwrap();
        let inputs = vec![0x3, 0x5];
        let expected =
            oracle::expected_outputs(Kernel::ParityCheck, Target::fc4().dialect, &inputs);
        let executor = RecoveryExecutor::new(
            prepared.core(),
            RecoveryConfig {
                interval: 16,
                max_retries: 6,
                budget: 20_000,
            },
        );
        (executor, inputs, expected)
    }

    fn flip(element: StateElement, bit: u8, at: u64) -> FaultPlane {
        FaultPlane::with_faults(vec![ArchFault {
            element,
            bit,
            kind: FaultKind::FlipAtCycle(at),
        }])
    }

    fn stuck(element: StateElement, bit: u8) -> FaultPlane {
        FaultPlane::with_faults(vec![ArchFault {
            element,
            bit,
            kind: FaultKind::StuckAt1,
        }])
    }

    #[test]
    fn clean_dmr_commits_without_retries() {
        let (executor, inputs, expected) = parity_setup();
        let run = executor.run_dmr(&inputs, [FaultPlane::new(), FaultPlane::new()], vec![]);
        assert!(run.halted && !run.gave_up);
        assert_eq!(run.retries, 0);
        assert!(run.trace.is_empty());
        assert_eq!(run.outputs, expected);
    }

    #[test]
    fn transient_divergence_is_rolled_back_and_recovered() {
        let (executor, inputs, expected) = parity_setup();
        // an accumulator flip early in the run corrupts lane 0 once
        let run = executor.run_dmr(
            &inputs,
            [flip(StateElement::Acc, 2, 40), FaultPlane::new()],
            vec![],
        );
        assert!(run.halted && !run.gave_up, "{:?}", run.trace);
        assert_eq!(run.outputs, expected);
        assert!(run.retries > 0, "the flip must actually perturb the run");
        assert_eq!(run.reassignments, 0, "no spares were offered");
    }

    #[test]
    fn permanent_fault_is_retired_onto_a_spare() {
        let (executor, inputs, expected) = parity_setup();
        let run = executor.run_dmr(
            &inputs,
            [stuck(StateElement::OutputPort, 0), FaultPlane::new()],
            vec![FaultPlane::new(), FaultPlane::new()],
        );
        assert!(run.halted && !run.gave_up, "{:?}", run.trace);
        assert_eq!(run.outputs, expected);
        assert!(run.reassignments >= 1, "{:?}", run.trace);
    }

    #[test]
    fn permanent_fault_without_spares_gives_up() {
        let (executor, inputs, _) = parity_setup();
        let run = executor.run_dmr(
            &inputs,
            [stuck(StateElement::OutputPort, 0), FaultPlane::new()],
            vec![],
        );
        assert!(run.gave_up);
        assert_eq!(
            run.trace.last().map(|e| e.action),
            Some(RetryAction::GiveUp)
        );
        assert_eq!(run.retries, executor.config().max_retries + 1);
    }

    #[test]
    fn simplex_recovers_from_crashes_but_not_sdc() {
        let (executor, inputs, expected) = parity_setup();
        // a PC bit stuck high derails fetch: detectable, so a spare fixes it
        let crashing =
            executor.run_simplex(&inputs, stuck(StateElement::Pc, 6), vec![FaultPlane::new()]);
        assert!(crashing.halted && !crashing.gave_up, "{:?}", crashing.trace);
        assert_eq!(crashing.outputs, expected);
        assert!(crashing.reassignments >= 1);

        // a stuck output bit halts cleanly with wrong outputs: invisible
        let sdc = executor.run_simplex(&inputs, stuck(StateElement::OutputPort, 0), vec![]);
        assert!(sdc.halted && !sdc.gave_up);
        assert_eq!(sdc.retries, 0);
        assert_ne!(sdc.outputs, expected, "simplex cannot see SDC");
    }

    #[test]
    fn retry_traces_replay_bit_for_bit() {
        let (executor, inputs, _) = parity_setup();
        let planes = || [flip(StateElement::Acc, 1, 30), stuck(StateElement::Acc, 3)];
        let spares = || vec![FaultPlane::new(), FaultPlane::new()];
        let a = executor.run_dmr(&inputs, planes(), spares());
        let b = executor.run_dmr(&inputs, planes(), spares());
        assert_eq!(a, b);
    }
}
