//! Execution out of the protected store: checkpointed segments with
//! scrubbing and page repair woven in.
//!
//! The [`LinkedExecutor`] programs an [`EccStore`] through the noisy
//! channel, then runs the image in checkpointed segments on
//! `flexresilient`'s segment runner ([`Lane::run_segment`] from a
//! [`Checkpoint`]) — with the link layer in the loop:
//!
//! * before every segment attempt the store is re-materialized through
//!   the ECC read path, so a single-bit store upset is corrected before
//!   the core can fetch it;
//! * on a periodic cadence the store is **scrubbed**: corrected words
//!   are rewritten in place, and a page with an uncorrectable word is
//!   **reprogrammed** over the channel from the golden image;
//! * an uncorrectable page, a lane crash (e.g. the corrupt-page MMU
//!   guard firing) or a hang rolls execution back to the last committed
//!   checkpoint, so the retried segment re-fetches from the repaired
//!   image instead of committing work derived from corrupt code.
//!
//! Everything — channel noise, upset schedule, retry trace — is driven
//! by explicit seeds and schedules, so a [`LinkRun`] replays
//! bit-for-bit.

use crate::channel::{ChannelConfig, NoisyChannel};
use crate::protocol::{self, FrameClass, LinkConfig, TransferReport};
use crate::store::EccStore;
use flexasm::Target;
use flexicore::exec::AnyCore;
use flexicore::program::Program;
use flexicore::sim::FaultPlane;
use flexresilient::recovery::{Checkpoint, Lane, RetryCause};
use flexresilient::vote::StateDigest;

/// Segmenting and scrubbing policy of a [`LinkedExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkExecConfig {
    /// Retired instructions per checkpointed segment.
    pub interval: u64,
    /// Re-execution attempts per segment before giving up.
    pub max_retries: u32,
    /// Watchdog budget (cycles on FC4/FC8, instructions on the
    /// extended dialects); exceeding it inside a segment is a hang.
    pub budget: u64,
    /// Segments between background scrub sweeps (0 disables scrubbing).
    pub scrub_interval: usize,
}

impl Default for LinkExecConfig {
    fn default() -> Self {
        LinkExecConfig {
            interval: 64,
            max_retries: 8,
            budget: 200_000,
            scrub_interval: 4,
        }
    }
}

/// One scheduled store upset: flip `bit` of `word` just before
/// `segment` runs. Campaigns draw these from a seeded generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreUpset {
    /// The segment boundary at which the upset lands.
    pub segment: usize,
    /// The stored word (program byte index) hit.
    pub word: usize,
    /// The code bit flipped.
    pub bit: u8,
}

/// One entry of the deterministic link-execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// A background scrub sweep ran.
    Scrub {
        /// Segment boundary at which the sweep ran.
        segment: usize,
        /// Words corrected and rewritten.
        corrected: usize,
        /// Words found beyond correction.
        uncorrectable: usize,
    },
    /// A page with uncorrectable words was reprogrammed over the
    /// channel.
    PageRepair {
        /// Segment boundary at which the repair happened.
        segment: usize,
        /// The repaired store page.
        page: usize,
        /// How the repair transfer went.
        class: FrameClass,
    },
    /// A segment rolled back to the checkpoint and re-executed.
    Retry {
        /// The failing segment (commit index).
        segment: usize,
        /// Attempt number within the segment (1-based).
        attempt: u32,
        /// What went wrong: a crash (including the corrupt-page MMU
        /// guard) or a hang.
        cause: RetryCause,
    },
    /// Channel repair of a decayed page failed, and the executor fell
    /// back to the last authenticated image (the A partition's copy),
    /// restarting execution from power-on.
    ImageRollback {
        /// Segment boundary at which the rollback happened.
        segment: usize,
    },
}

/// Accumulated scrub telemetry over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubTotals {
    /// Sweeps performed.
    pub sweeps: usize,
    /// Words corrected across all sweeps.
    pub corrected: usize,
    /// Uncorrectable words found across all sweeps.
    pub uncorrectable: usize,
}

/// The result of one linked run: programming, execution and repair
/// telemetry plus the committed outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkRun {
    /// Whether the image passed static admission (always `true` when no
    /// admission policy is configured).
    pub admitted: bool,
    /// The analyzer findings that refused admission (empty otherwise).
    pub admission_findings: Vec<flexcheck::Finding>,
    /// Telemetry of the initial image transfer.
    pub transfer: TransferReport,
    /// Whether the initial transfer verified every page.
    pub programmed: bool,
    /// The committed output stream.
    pub outputs: Vec<u8>,
    /// Whether the program reached the halt idiom.
    pub halted: bool,
    /// Whether a segment exhausted its retry budget.
    pub gave_up: bool,
    /// Segment re-executions (crash or hang rollbacks).
    pub rollbacks: u32,
    /// Full-image rollbacks to the last authenticated prior image
    /// after a failed channel repair (see
    /// [`LinkedExecutor::with_rollback`]).
    pub image_rollbacks: u32,
    /// Pages reprogrammed over the channel after the initial transfer.
    pub reprogrammed_pages: u32,
    /// Single-bit corrections applied by the materializing read path.
    pub read_corrections: usize,
    /// Background-scrub telemetry.
    pub scrub: ScrubTotals,
    /// The ordered event trace.
    pub trace: Vec<LinkEvent>,
    /// The committed end state.
    pub end: StateDigest,
}

/// Runs a golden image through the reprogramming link and executes it
/// out of the protected store.
#[derive(Debug, Clone)]
pub struct LinkedExecutor {
    target: Target,
    golden: Program,
    link: LinkConfig,
    exec: LinkExecConfig,
    admission: Option<flexcheck::Severity>,
    prior: Option<Program>,
}

impl LinkedExecutor {
    /// An executor for `golden` on `target`'s dialect.
    #[must_use]
    pub fn new(target: Target, golden: Program, link: LinkConfig, exec: LinkExecConfig) -> Self {
        LinkedExecutor {
            target,
            golden,
            link,
            exec,
            admission: None,
            prior: None,
        }
    }

    /// Arm last-resort image rollback: when a decayed page cannot be
    /// reprogrammed over the channel, fall back to `prior` — the last
    /// authenticated image, held locally in the A partition — instead
    /// of executing a corrupt store. The fallback is a *local* write
    /// (no channel), followed by a power-on restart.
    #[must_use]
    pub fn with_rollback(mut self, prior: Program) -> Self {
        self.prior = Some(prior);
        self
    }

    /// Gate store programming on the static analyzer: an image with any
    /// finding at or above `deny` severity is refused before a single
    /// frame goes over the channel (the field-reprogramming flow's
    /// pre-burn check).
    #[must_use]
    pub fn with_admission(mut self, deny: flexcheck::Severity) -> Self {
        self.admission = Some(deny);
        self
    }

    /// The golden image.
    #[must_use]
    pub fn golden(&self) -> &Program {
        &self.golden
    }

    /// Program the store through a channel seeded with `channel_seed`,
    /// then run to the halt idiom with `inputs` scripted on the input
    /// port, `upsets` landing on their scheduled segment boundaries and
    /// `plane` injected into the lane.
    #[must_use]
    pub fn run(
        &self,
        inputs: &[u8],
        channel_cfg: ChannelConfig,
        channel_seed: u64,
        upsets: &[StoreUpset],
        plane: FaultPlane,
    ) -> LinkRun {
        if let Some(deny) = self.admission {
            if let Err(findings) = flexcheck::admit(&self.target, &self.golden, deny) {
                // refuse before programming: no frame reaches the store
                return LinkRun {
                    admitted: false,
                    admission_findings: findings,
                    programmed: false,
                    ..self.blank_run(TransferReport {
                        frames: Vec::new(),
                        backoff_cycles: 0,
                        channel: Default::default(),
                    })
                };
            }
        }

        let mut store = EccStore::erased(self.golden.len());
        let mut channel = NoisyChannel::new(channel_cfg, channel_seed);
        let transfer =
            protocol::program_store(self.golden.as_bytes(), &mut store, &mut channel, self.link);
        let programmed = transfer.complete();

        let run = LinkRun {
            programmed,
            ..self.blank_run(transfer)
        };
        if !programmed {
            // the image never verified: refuse to run corrupt code
            return run;
        }
        self.execute(run, store, channel, inputs, upsets, plane)
    }

    /// Run out of an already-programmed store — the post-update boot
    /// path, where the image reached the die earlier and only repairs
    /// (and last-resort rollback) may touch the channel.
    #[must_use]
    pub fn run_from_store(
        &self,
        store: EccStore,
        inputs: &[u8],
        channel_cfg: ChannelConfig,
        channel_seed: u64,
        upsets: &[StoreUpset],
        plane: FaultPlane,
    ) -> LinkRun {
        let channel = NoisyChannel::new(channel_cfg, channel_seed);
        let run = self.blank_run(TransferReport {
            frames: Vec::new(),
            backoff_cycles: 0,
            channel: Default::default(),
        });
        self.execute(run, store, channel, inputs, upsets, plane)
    }

    /// A run skeleton before execution: admitted, programmed, empty
    /// telemetry.
    fn blank_run(&self, transfer: TransferReport) -> LinkRun {
        LinkRun {
            admitted: true,
            admission_findings: Vec::new(),
            transfer,
            programmed: true,
            outputs: Vec::new(),
            halted: false,
            gave_up: false,
            rollbacks: 0,
            image_rollbacks: 0,
            reprogrammed_pages: 0,
            read_corrections: 0,
            scrub: ScrubTotals::default(),
            trace: Vec::new(),
            end: StateDigest::of(&self.fresh_core(self.golden.clone()).snapshot()),
        }
    }

    /// The checkpointed execution loop over a programmed store.
    fn execute(
        &self,
        mut run: LinkRun,
        mut store: EccStore,
        mut channel: NoisyChannel,
        inputs: &[u8],
        upsets: &[StoreUpset],
        plane: FaultPlane,
    ) -> LinkRun {
        // a rollback on the very first materialize is benign: nothing
        // has executed yet, and the power-on below already starts from
        // the restored image
        let (image, _fell_back) = self.materialize(&mut run, &mut store, &mut channel, 0);
        let (mut checkpoint, mut lane) = self.power_on(image, inputs, plane);

        let mut segment = 0usize;
        let mut attempt = 0u32;
        while !checkpoint.snapshot().halted {
            // the link layer's work before every attempt: land the
            // segment's scheduled upsets, scrub on cadence — and before
            // every retry, since a crash may mean the store decayed
            // under us — then repair and re-fetch
            if attempt == 0 {
                for upset in upsets.iter().filter(|u| u.segment == segment) {
                    if upset.word < store.len() {
                        store.flip_bit(upset.word, upset.bit);
                    }
                }
            }
            let cadence = self.exec.scrub_interval != 0
                && segment != 0
                && segment.is_multiple_of(self.exec.scrub_interval);
            if attempt > 0 || cadence {
                let report = store.scrub();
                run.scrub.sweeps += 1;
                run.scrub.corrected += report.corrected;
                run.scrub.uncorrectable += report.uncorrectable;
                run.trace.push(LinkEvent::Scrub {
                    segment,
                    corrected: report.corrected,
                    uncorrectable: report.uncorrectable,
                });
            }
            let (image, fell_back) = self.materialize(&mut run, &mut store, &mut channel, segment);
            if fell_back {
                if run.image_rollbacks > self.exec.max_retries {
                    run.gave_up = true;
                    break;
                }
                // the restored image is a different program: committed
                // work no longer applies, so restart from power-on
                (checkpoint, lane) = self.power_on(image, inputs, std::mem::take(&mut lane.plane));
                segment += 1;
                attempt = 0;
                continue;
            }
            let repaired = image.as_bytes() != lane.core.program().as_bytes();
            if repaired {
                // roll back onto the repaired image so the segment
                // re-fetches re-programmed code
                lane.core = self.fresh_core(image);
            }
            if repaired || attempt > 0 {
                checkpoint.rewind(&mut lane);
            }

            let end = lane.run_segment(&checkpoint, self.exec.interval, self.exec.budget);
            let Some(cause) = end.retry_cause() else {
                checkpoint.commit(&mut lane);
                segment += 1;
                attempt = 0;
                continue;
            };
            attempt += 1;
            run.rollbacks += 1;
            run.trace.push(LinkEvent::Retry {
                segment,
                attempt,
                cause,
            });
            if attempt > self.exec.max_retries {
                run.gave_up = true;
                break;
            }
        }

        run.halted = checkpoint.snapshot().halted;
        run.end = StateDigest::of(checkpoint.snapshot());
        run.outputs = checkpoint.into_committed();
        run
    }

    /// Power `image` on: a fresh core, its power-on checkpoint, and a
    /// lane on it carrying `plane`, whose power-on faults have landed.
    fn power_on(&self, image: Program, inputs: &[u8], plane: FaultPlane) -> (Checkpoint, Lane) {
        let core = self.fresh_core(image);
        let checkpoint = Checkpoint::power_on(&core, inputs);
        let mut lane = checkpoint.lane(core, plane);
        lane.core.power_on_faults(&mut lane.plane);
        (checkpoint, lane)
    }

    fn fresh_core(&self, program: Program) -> AnyCore {
        AnyCore::for_dialect(self.target.dialect, self.target.features, program)
    }

    /// Decode the store into an executable image, reprogramming any
    /// page that has decayed beyond correction. If the channel repair
    /// itself fails and a prior image is armed (see
    /// [`with_rollback`](Self::with_rollback)), the store is rewritten
    /// locally from the prior image and the second tuple element is
    /// `true`: the caller must restart from power-on.
    fn materialize(
        &self,
        run: &mut LinkRun,
        store: &mut EccStore,
        channel: &mut NoisyChannel,
        segment: usize,
    ) -> (Program, bool) {
        let mut m = store.materialize();
        run.read_corrections += m.corrected;
        if !m.bad_pages.is_empty() {
            let mut seq = 0u8;
            let mut backoff = 0u64;
            for page in m.bad_pages {
                let log = protocol::program_page(
                    self.golden.as_bytes(),
                    page,
                    store,
                    channel,
                    self.link,
                    &mut seq,
                    &mut backoff,
                );
                run.reprogrammed_pages += 1;
                run.trace.push(LinkEvent::PageRepair {
                    segment,
                    page,
                    class: log.class,
                });
            }
            m = store.materialize();
            if !m.bad_pages.is_empty() {
                if let Some(prior) = &self.prior {
                    // the channel could not bring the store back: fall
                    // back to the locally held authenticated image
                    *store = EccStore::erased(prior.len());
                    store.write_image(prior.as_bytes());
                    run.image_rollbacks += 1;
                    run.trace.push(LinkEvent::ImageRollback { segment });
                    return (prior.clone(), true);
                }
            }
        }
        (m.program, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexicore::sim::{ArchFault, FaultKind, StateElement};
    use flexkernels::harness::PreparedKernel;
    use flexkernels::{oracle, Kernel};

    fn parity_executor() -> (LinkedExecutor, Vec<u8>, Vec<u8>) {
        let prepared = PreparedKernel::new(Kernel::ParityCheck, Target::fc4()).unwrap();
        let inputs = vec![0x3, 0x5];
        let expected =
            oracle::expected_outputs(Kernel::ParityCheck, Target::fc4().dialect, &inputs);
        let executor = LinkedExecutor::new(
            Target::fc4(),
            prepared.program().clone(),
            LinkConfig::default(),
            LinkExecConfig {
                interval: 16,
                max_retries: 6,
                budget: 20_000,
                scrub_interval: 2,
            },
        );
        (executor, inputs, expected)
    }

    #[test]
    fn clean_link_runs_oracle_exact() {
        let (executor, inputs, expected) = parity_executor();
        let run = executor.run(&inputs, ChannelConfig::clean(), 1, &[], FaultPlane::new());
        assert!(run.programmed && run.halted && !run.gave_up);
        assert_eq!(run.outputs, expected);
        assert_eq!(run.rollbacks, 0);
        assert_eq!(run.reprogrammed_pages, 0);
    }

    #[test]
    fn single_bit_upset_is_absorbed_by_the_read_path() {
        let (executor, inputs, expected) = parity_executor();
        let upsets = [StoreUpset {
            segment: 1,
            word: 3,
            bit: 6,
        }];
        let run = executor.run(
            &inputs,
            ChannelConfig::clean(),
            1,
            &upsets,
            FaultPlane::new(),
        );
        assert!(run.halted && !run.gave_up);
        assert_eq!(run.outputs, expected);
        assert_eq!(run.reprogrammed_pages, 0, "a single flip needs no repair");
        assert!(
            run.read_corrections > 0 || run.scrub.corrected > 0,
            "the upset must be seen and corrected: {run:?}"
        );
    }

    #[test]
    fn double_bit_upset_forces_page_repair_and_recovers() {
        let (executor, inputs, expected) = parity_executor();
        let upsets = [
            StoreUpset {
                segment: 1,
                word: 3,
                bit: 1,
            },
            StoreUpset {
                segment: 1,
                word: 3,
                bit: 9,
            },
        ];
        let run = executor.run(
            &inputs,
            ChannelConfig::clean(),
            1,
            &upsets,
            FaultPlane::new(),
        );
        assert!(run.halted && !run.gave_up, "{:?}", run.trace);
        assert_eq!(run.outputs, expected, "repaired, not corrupted");
        assert!(run.reprogrammed_pages > 0, "{:?}", run.trace);
    }

    #[test]
    fn mmu_page_flip_crashes_rolls_back_and_recovers() {
        let (executor, inputs, expected) = parity_executor();
        let plane = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::PageReg,
            bit: 2,
            kind: FaultKind::FlipAtCycle(40),
        }]);
        let run = executor.run(&inputs, ChannelConfig::clean(), 1, &[], plane);
        assert!(run.halted && !run.gave_up, "{:?}", run.trace);
        assert_eq!(run.outputs, expected);
        assert!(run.rollbacks > 0, "the page fault must force a rollback");
    }

    #[test]
    fn noisy_transfer_still_yields_an_exact_run() {
        let (executor, inputs, expected) = parity_executor();
        let cfg = ChannelConfig::with_bit_error_rate(1e-3);
        let run = executor.run(&inputs, cfg, 23, &[], FaultPlane::new());
        assert!(run.programmed, "{:?}", run.transfer);
        assert!(run.halted && !run.gave_up);
        assert_eq!(run.outputs, expected);
    }

    #[test]
    fn linked_runs_replay_bit_for_bit() {
        let (executor, inputs, _) = parity_executor();
        let cfg = ChannelConfig::with_bit_error_rate(2e-3);
        let upsets = [
            StoreUpset {
                segment: 1,
                word: 2,
                bit: 0,
            },
            StoreUpset {
                segment: 2,
                word: 2,
                bit: 11,
            },
        ];
        let a = executor.run(&inputs, cfg, 77, &upsets, FaultPlane::new());
        let b = executor.run(&inputs, cfg, 77, &upsets, FaultPlane::new());
        assert_eq!(a, b);
    }

    #[test]
    fn dead_channel_refuses_to_run() {
        let (executor, inputs, _) = parity_executor();
        let cfg = ChannelConfig {
            drop_rate: 1.0,
            ..ChannelConfig::clean()
        };
        let run = executor.run(&inputs, cfg, 9, &[], FaultPlane::new());
        assert!(!run.programmed && !run.halted);
        assert!(run.outputs.is_empty(), "no corrupt code may execute");
    }

    #[test]
    fn admission_refuses_statically_hung_image() {
        // load r0; store r2; nandi 0; br 3 — the last byte is the halt
        // idiom's self-branch
        let golden = vec![0x30, 0x72, 0x50, 0x83];
        let admit = |bytes: Vec<u8>| {
            LinkedExecutor::new(
                Target::fc4(),
                Program::from_bytes(bytes),
                LinkConfig::default(),
                LinkExecConfig::default(),
            )
            .with_admission(flexcheck::Severity::Error)
        };

        let run =
            admit(golden.clone()).run(&[7], ChannelConfig::clean(), 1, &[], FaultPlane::new());
        assert!(run.admitted && run.programmed && run.halted);

        // corrupt the self-branch into `br 0`: the loop can never halt
        // and the store must refuse before a single frame is sent
        let mut corrupt = golden;
        corrupt[3] = 0x80;
        let run = admit(corrupt).run(&[7], ChannelConfig::clean(), 1, &[], FaultPlane::new());
        assert!(!run.admitted && !run.programmed && !run.halted);
        assert!(run
            .admission_findings
            .iter()
            .any(|f| f.lint == flexcheck::Lint::StaticHang));
        assert!(
            run.transfer.frames.is_empty(),
            "nothing went over the channel"
        );
        assert!(run.outputs.is_empty());
    }

    fn store_with(program: &Program) -> EccStore {
        let mut store = EccStore::erased(program.len());
        store.write_image(program.as_bytes());
        store
    }

    #[test]
    fn run_from_store_executes_a_preprogrammed_image() {
        let (executor, inputs, expected) = parity_executor();
        let store = store_with(executor.golden());
        let run = executor.run_from_store(
            store,
            &inputs,
            ChannelConfig::clean(),
            1,
            &[],
            FaultPlane::new(),
        );
        assert!(run.halted && !run.gave_up);
        assert_eq!(run.outputs, expected);
        assert!(run.transfer.frames.is_empty(), "no initial transfer ran");
        assert_eq!(run.image_rollbacks, 0);
    }

    #[test]
    fn failed_repair_rolls_back_to_the_prior_image() {
        let (executor, inputs, expected) = parity_executor();
        let prior = executor.golden().clone();
        let executor = executor.with_rollback(prior);
        let mut store = store_with(executor.golden());
        // two flips in one word: beyond SECDED correction, and the dead
        // channel below means the page repair can never succeed
        store.flip_bit(3, 1);
        store.flip_bit(3, 9);
        let dead = ChannelConfig {
            drop_rate: 1.0,
            ..ChannelConfig::clean()
        };
        let run = executor.run_from_store(store, &inputs, dead, 5, &[], FaultPlane::new());
        assert!(run.halted && !run.gave_up, "{:?}", run.trace);
        assert_eq!(run.outputs, expected, "the prior image runs oracle-exact");
        assert_eq!(run.image_rollbacks, 1, "{:?}", run.trace);
        assert!(run
            .trace
            .iter()
            .any(|e| matches!(e, LinkEvent::ImageRollback { .. })));
    }

    #[test]
    fn mid_run_decay_with_a_dead_channel_restarts_on_the_prior_image() {
        let (executor, inputs, expected) = parity_executor();
        let prior = executor.golden().clone();
        let executor = executor.with_rollback(prior);
        let upsets = [
            StoreUpset {
                segment: 1,
                word: 3,
                bit: 1,
            },
            StoreUpset {
                segment: 1,
                word: 3,
                bit: 9,
            },
        ];
        let dead = ChannelConfig {
            drop_rate: 1.0,
            ..ChannelConfig::clean()
        };
        let a = executor.run_from_store(
            store_with(executor.golden()),
            &inputs,
            dead,
            5,
            &upsets,
            FaultPlane::new(),
        );
        assert!(a.halted && !a.gave_up, "{:?}", a.trace);
        assert_eq!(a.outputs, expected, "power-on restart recommits everything");
        assert!(a.image_rollbacks >= 1, "{:?}", a.trace);
        let b = executor.run_from_store(
            store_with(executor.golden()),
            &inputs,
            dead,
            5,
            &upsets,
            FaultPlane::new(),
        );
        assert_eq!(a, b, "rollback runs replay bit-for-bit");
    }

    #[test]
    fn unrepairable_store_without_a_prior_image_gives_up_or_degrades() {
        let (executor, inputs, expected) = parity_executor();
        let mut store = store_with(executor.golden());
        store.flip_bit(3, 1);
        store.flip_bit(3, 9);
        let dead = ChannelConfig {
            drop_rate: 1.0,
            ..ChannelConfig::clean()
        };
        let run = executor.run_from_store(store, &inputs, dead, 5, &[], FaultPlane::new());
        assert_eq!(run.image_rollbacks, 0, "no prior image was armed");
        assert!(
            run.gave_up || run.outputs != expected || run.reprogrammed_pages > 0,
            "a corrupt store with no fallback cannot silently run clean: {run:?}"
        );
    }

    #[test]
    fn kernels_pass_admission() {
        let (executor, inputs, expected) = parity_executor();
        let gated = executor.with_admission(flexcheck::Severity::Error);
        let run = gated.run(&inputs, ChannelConfig::clean(), 1, &[], FaultPlane::new());
        assert!(run.admitted && run.programmed && run.halted);
        assert_eq!(run.outputs, expected);
    }
}
