//! N-modular redundancy: the same program on N lanes, outputs decided
//! by majority vote.
//!
//! Each lane is an independent simulated die — its own core, scripted
//! input cursor, output recorder and [`FaultPlane`] — run to completion
//! one after another. After every lane retires, the output streams are
//! compared window by window and the final architectural states are
//! compared as [`StateDigest`]s. A window (or the end state) where at
//! least a quorum of lanes agree is decided by that majority, masking
//! whatever the dissenting lane did; a window with no quorum is flagged
//! as potential silent data corruption rather than silently decided.
//!
//! Voting is purely architectural: it sees what the paper's off-chip
//! board sees (the output port stream) plus the state a §4.1 tester
//! could scan out, never simulator internals. Two fault-free lanes are
//! bit-for-bit identical by construction, so with at most one faulty
//! lane a 3-lane quorum always holds.

use flexicore::exec::{AnyCore, LaneStatus, Snapshot};
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::mmu::Mmu;
use flexicore::sim::FaultPlane;

/// The architectural fingerprint of a finished lane: everything voted
/// on besides the output stream. Built from a [`Snapshot`] by dropping
/// the accounting counters — two lanes that reconverged after a masked
/// fault may disagree on cycle counts while agreeing on every
/// observable bit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateDigest {
    /// Program counter.
    pub pc: u8,
    /// Whether the halt idiom was reached.
    pub halted: bool,
    /// Accumulator (0 on the load-store dialect).
    pub acc: u8,
    /// Link register (0 on dialects without one).
    pub ra: u8,
    /// Packed condition flags (dialect-specific; 0 when absent).
    pub flags: u8,
    /// Data memory or register file.
    pub mem: Vec<u8>,
    /// The off-chip MMU transducer state.
    pub mmu: Mmu,
}

impl StateDigest {
    /// Digest a snapshot.
    #[must_use]
    pub fn of(snap: &Snapshot) -> Self {
        StateDigest {
            pc: snap.pc,
            halted: snap.halted,
            acc: snap.acc,
            ra: snap.ra,
            flags: snap.flags,
            mem: snap.mem.clone(),
            mmu: snap.mmu,
        }
    }
}

/// How decisively a vote went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VoteVerdict {
    /// Every lane agreed.
    Unanimous,
    /// A quorum agreed; the dissenters were outvoted (fault masked).
    Majority,
    /// No quorum — the plurality value is reported but cannot be
    /// trusted (potential silent data corruption).
    QuorumLost,
}

/// One voted output window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowVote {
    /// Window index (window `i` covers output positions
    /// `i*window .. (i+1)*window`).
    pub index: usize,
    /// How the window's vote went.
    pub verdict: VoteVerdict,
    /// Lanes that disagreed with the winning value.
    pub dissenters: Vec<usize>,
}

/// Configuration of an [`NmrExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct NmrConfig {
    /// Number of redundant lanes (3 = TMR). Quorum is `lanes/2 + 1`.
    pub lanes: usize,
    /// Output values voted per window.
    pub window: usize,
    /// Watchdog budget per lane (cycles on FC4/FC8, retired
    /// instructions on the extended dialects).
    pub budget: u64,
}

/// Why an [`NmrConfig`] cannot drive an [`NmrExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NmrConfigError {
    /// `lanes` is zero: there is no lane to vote.
    NoLanes,
    /// `window` is zero: the output stream cannot be cut into windows.
    EmptyWindow,
}

impl core::fmt::Display for NmrConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            NmrConfigError::NoLanes => "an N-modular executor needs at least one lane",
            NmrConfigError::EmptyWindow => "an N-modular voting window holds at least one output",
        })
    }
}

impl std::error::Error for NmrConfigError {}

impl NmrConfig {
    /// Check that the configuration can drive an executor.
    ///
    /// # Errors
    ///
    /// [`NmrConfigError`] for zero lanes or a zero-length window.
    pub(crate) fn validate(&self) -> Result<(), NmrConfigError> {
        if self.lanes == 0 {
            Err(NmrConfigError::NoLanes)
        } else if self.window == 0 {
            Err(NmrConfigError::EmptyWindow)
        } else {
            Ok(())
        }
    }
}

impl Default for NmrConfig {
    fn default() -> Self {
        NmrConfig {
            lanes: 3,
            window: 4,
            budget: 200_000,
        }
    }
}

/// The decided result of one N-modular run.
#[derive(Debug, Clone)]
pub struct NmrRun {
    /// The voted output stream (per-window plurality winners).
    pub outputs: Vec<u8>,
    /// Per-window vote records, in stream order.
    pub windows: Vec<WindowVote>,
    /// The voted end state.
    pub state: StateDigest,
    /// How the end-state vote went.
    pub state_verdict: VoteVerdict,
    /// The worst verdict across every window and the end state.
    pub verdict: VoteVerdict,
    /// Lanes that dissented anywhere (output window, end state, or by
    /// crashing / hanging).
    pub suspects: Vec<usize>,
    /// How each lane retired, in lane order.
    pub statuses: Vec<LaneStatus>,
}

/// Runs one program image on N redundant lanes and votes the results.
#[derive(Debug, Clone)]
pub struct NmrExecutor {
    proto: AnyCore,
    config: NmrConfig,
}

impl NmrExecutor {
    /// An executor cloning fresh lanes from `proto` (a core with the
    /// program image loaded, e.g. [`PreparedKernel::core`]).
    ///
    /// [`PreparedKernel::core`]: flexkernels::harness::PreparedKernel::core
    ///
    /// # Errors
    ///
    /// [`NmrConfigError`] if `config` has no lanes or an empty window.
    pub fn new(proto: AnyCore, config: NmrConfig) -> Result<Self, NmrConfigError> {
        config.validate()?;
        Ok(NmrExecutor { proto, config })
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &NmrConfig {
        &self.config
    }

    /// Run `inputs` through every lane, one [`FaultPlane`] per lane, and
    /// vote the outputs and end states.
    ///
    /// # Panics
    ///
    /// Panics if `planes.len()` differs from the configured lane count.
    #[must_use]
    pub fn run(&self, inputs: &[u8], planes: Vec<FaultPlane>) -> NmrRun {
        assert_eq!(
            planes.len(),
            self.config.lanes,
            "one fault plane per configured lane"
        );
        let mut streams = Vec::with_capacity(planes.len());
        let mut digests = Vec::with_capacity(planes.len());
        let mut statuses = Vec::with_capacity(planes.len());
        for mut plane in planes {
            let mut core = self.proto.clone();
            let mut output = RecordingOutput::new();
            let run = core.run_with(
                &mut ScriptedInput::new(inputs.to_vec()),
                &mut output,
                self.config.budget,
                &mut plane,
            );
            streams.push(output.values());
            digests.push(StateDigest::of(&core.snapshot()));
            statuses.push(LaneStatus::of(run));
        }

        let quorum = self.config.lanes / 2 + 1;
        let mut outputs = Vec::new();
        let mut windows = Vec::new();
        let mut suspects: Vec<usize> = Vec::new();
        let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
        for index in 0..longest.div_ceil(self.config.window) {
            let lo = index * self.config.window;
            let chunks: Vec<&[u8]> = streams
                .iter()
                .map(|s| {
                    let hi = (lo + self.config.window).min(s.len());
                    if lo >= s.len() {
                        &[][..]
                    } else {
                        &s[lo..hi]
                    }
                })
                .collect();
            let (votes, winner) = plurality(&chunks);
            let verdict = verdict_of(votes, chunks.len(), quorum);
            let dissenters: Vec<usize> = chunks
                .iter()
                .enumerate()
                .filter(|&(_, c)| *c != *winner)
                .map(|(i, _)| i)
                .collect();
            outputs.extend_from_slice(winner);
            note_suspects(&mut suspects, &dissenters);
            windows.push(WindowVote {
                index,
                verdict,
                dissenters,
            });
        }

        let (votes, winner) = plurality(&digests);
        let state_verdict = verdict_of(votes, digests.len(), quorum);
        let state = winner.clone();
        let state_dissenters: Vec<usize> = digests
            .iter()
            .enumerate()
            .filter(|&(_, d)| *d != state)
            .map(|(i, _)| i)
            .collect();
        note_suspects(&mut suspects, &state_dissenters);

        let verdict = windows
            .iter()
            .map(|w| w.verdict)
            .chain([state_verdict])
            .max()
            .unwrap_or(VoteVerdict::Unanimous);
        NmrRun {
            outputs,
            windows,
            state,
            state_verdict,
            verdict,
            suspects,
            statuses,
        }
    }
}

/// Plurality over `items`: the count and first item reaching the
/// maximum multiplicity. Ties break toward the lowest lane index, so
/// the vote is a pure function of the lane contents.
fn plurality<T: Eq>(items: &[T]) -> (usize, &T) {
    let mut best = 0usize;
    let mut winner = &items[0];
    for candidate in items {
        let votes = items.iter().filter(|i| *i == candidate).count();
        if votes > best {
            best = votes;
            winner = candidate;
        }
    }
    (best, winner)
}

fn verdict_of(votes: usize, lanes: usize, quorum: usize) -> VoteVerdict {
    if votes == lanes {
        VoteVerdict::Unanimous
    } else if votes >= quorum {
        VoteVerdict::Majority
    } else {
        VoteVerdict::QuorumLost
    }
}

fn note_suspects(suspects: &mut Vec<usize>, dissenters: &[usize]) {
    for &d in dissenters {
        if !suspects.contains(&d) {
            suspects.push(d);
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

    fn parity_executor() -> (NmrExecutor, Vec<u8>, Vec<u8>) {
        let prepared = PreparedKernel::new(Kernel::ParityCheck, Target::fc4()).unwrap();
        let inputs = vec![0x3, 0x5];
        let expected =
            oracle::expected_outputs(Kernel::ParityCheck, Target::fc4().dialect, &inputs);
        let executor = NmrExecutor::new(
            prepared.core(),
            NmrConfig {
                budget: 20_000,
                ..NmrConfig::default()
            },
        )
        .unwrap();
        (executor, inputs, expected)
    }

    fn stuck(element: StateElement, bit: u8) -> FaultPlane {
        FaultPlane::with_faults(vec![ArchFault {
            element,
            bit,
            kind: FaultKind::StuckAt1,
        }])
    }

    #[test]
    fn clean_lanes_vote_unanimously() {
        let (executor, inputs, expected) = parity_executor();
        let run = executor.run(&inputs, vec![FaultPlane::new(); 3]);
        assert_eq!(run.verdict, VoteVerdict::Unanimous);
        assert_eq!(run.outputs, expected);
        assert!(run.suspects.is_empty());
        assert!(run.state.halted);
    }

    #[test]
    fn single_faulty_lane_is_outvoted() {
        let (executor, inputs, expected) = parity_executor();
        for lane in 0..3 {
            let mut planes = vec![FaultPlane::new(); 3];
            planes[lane] = stuck(StateElement::OutputPort, 0);
            let run = executor.run(&inputs, planes);
            assert_ne!(run.verdict, VoteVerdict::QuorumLost, "lane {lane}");
            assert_eq!(run.outputs, expected, "lane {lane}");
            // parity(0x53) = 0, so oport.0 stuck-at-1 really corrupts
            // the faulty lane: the vote was load-bearing, not a no-op
            assert_eq!(run.suspects, vec![lane]);
        }
    }

    #[test]
    fn crashing_lane_is_outvoted_too() {
        let (executor, inputs, expected) = parity_executor();
        let mut planes = vec![FaultPlane::new(); 3];
        // a PC bit stuck high tends to derail fetch entirely
        planes[2] = stuck(StateElement::Pc, 6);
        let run = executor.run(&inputs, planes);
        assert_ne!(run.verdict, VoteVerdict::QuorumLost);
        assert_eq!(run.outputs, expected);
    }

    #[test]
    fn two_faulty_lanes_lose_the_quorum_detectably() {
        let (executor, inputs, _) = parity_executor();
        // three pairwise-different lanes: no two agree anywhere it counts
        let planes = vec![
            stuck(StateElement::OutputPort, 0),
            stuck(StateElement::OutputPort, 1),
            stuck(StateElement::Pc, 6),
        ];
        let run = executor.run(&inputs, planes);
        assert_eq!(run.verdict, VoteVerdict::QuorumLost);
    }

    #[test]
    fn zero_lanes_or_window_is_rejected_not_a_panic() {
        let proto = PreparedKernel::new(Kernel::ParityCheck, Target::fc4())
            .unwrap()
            .core();
        for (config, error) in [
            (
                NmrConfig {
                    lanes: 0,
                    ..NmrConfig::default()
                },
                NmrConfigError::NoLanes,
            ),
            (
                NmrConfig {
                    window: 0,
                    ..NmrConfig::default()
                },
                NmrConfigError::EmptyWindow,
            ),
        ] {
            assert_eq!(config.validate(), Err(error));
            assert_eq!(
                NmrExecutor::new(proto.clone(), config).map(|_| ()),
                Err(error)
            );
        }
        assert!(NmrExecutor::new(
            proto,
            NmrConfig {
                lanes: 1,
                window: 1,
                ..NmrConfig::default()
            }
        )
        .is_ok());
    }

    #[test]
    fn vote_is_deterministic() {
        let (executor, inputs, _) = parity_executor();
        let planes = || {
            vec![
                stuck(StateElement::Acc, 1),
                FaultPlane::new(),
                FaultPlane::new(),
            ]
        };
        let a = executor.run(&inputs, planes());
        let b = executor.run(&inputs, planes());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.state, b.state);
    }
}
