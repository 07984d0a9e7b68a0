//! Seeded lifetime-soak campaigns: whole missions, tick by tick, under
//! a replayable [`StressSchedule`].
//!
//! One *trial* is one deployed platform living one mission: three
//! active dies (a TMR-capable quorum) plus spares, an authenticated
//! dual-slot program store, and — when `adaptive` is set — the
//! closed-loop [`MissionManager`] reacting to what the telemetry shows.
//! The static baseline runs always-TMR and never reacts: no re-screen,
//! no migration, no re-flash, no ladder moves. Comparing the two
//! campaigns under the *same* stress history is the crate's acceptance
//! measurement.
//!
//! ## Useful-work accounting
//!
//! A platform owns a fixed die budget, so lanes spent on redundancy are
//! lanes not spent on work. A correct tick earns `4 − lanes` credits
//! (TMR 1, DMR 2, simplex 3): the cheaper the quorum that still
//! produced an oracle-exact result, the more of the platform was free
//! to do other work that tick. Incorrect ticks earn nothing, and a
//! mission that ends early (end-of-life) forfeits every remaining tick
//! as unrecoverable.
//!
//! ## Determinism contract
//!
//! Trial `i` derives every stream it owns — stress schedule, input
//! samples, re-screen stimulus, link jitter — from
//! `flexshard::shard_seed(campaign_seed, i)`, so a trial is a pure
//! function of `(config, i)`. Campaigns run through
//! [`flexshard::map_indexed`] and replay bit-for-bit for every thread
//! count; the regression tests assert it.

use crate::health::{HealthMonitor, HealthState, LaneTelemetry};
use crate::manager::{ManagerConfig, MissionManager};
use flexasm::Target;
use flexcheck::Severity;
use flexicore::exec::{AnyCore, LaneStatus};
use flexicore::program::Program;
use flexicore::sim::{ArchFault, FaultPlane, PowerCut};
use flexinject::{BrownoutPlan, StressConfig, StressSchedule};
use flexkernels::harness::{PreparedKernel, Verdict};
use flexkernels::inputs::Sampler;
use flexkernels::{oracle, Kernel, RunError};
use flexlink::attack::DEVICE_KEY;
use flexlink::{
    sign_update, ChannelConfig, Device, LinkConfig, NoisyChannel, RejectReason, UpdateStatus,
};
use flexresilient::{NmrConfig, NmrExecutor, QuorumMode, VoteVerdict};
use flexshard::shard_seed;

/// Per-trial derived stream indices (the second `shard_seed` argument).
/// Appended-only, like every other draw-order contract in the
/// workspace.
const STREAM_STRESS: u64 = 1;
const STREAM_LINK: u64 = 2;
const STREAM_INPUTS: u64 = 3;
const STREAM_RESCREEN: u64 = 4;
const STREAM_CHANNEL: u64 = 5;

/// Dies a full TMR quorum occupies (the active set of a fresh trial).
const ACTIVE_LANES: usize = 3;

/// Configuration of one mission campaign.
#[derive(Debug, Clone, Copy)]
pub struct MissionConfig {
    /// Assembly target (dialect + feature set).
    pub target: Target,
    /// The kernel the fleet runs.
    pub kernel: Kernel,
    /// Independent mission trials.
    pub trials: usize,
    /// Mission length in ticks.
    pub ticks: u32,
    /// Campaign master seed.
    pub seed: u64,
    /// Spare dies beyond the three active lanes.
    pub spares: usize,
    /// Watchdog budget per lane per tick.
    pub budget: u64,
    /// Closed-loop health management on (`true`) or the static
    /// always-TMR baseline (`false`).
    pub adaptive: bool,
    /// `flexcheck` admission gate on re-flashed images, if any.
    pub deny: Option<Severity>,
    /// Reaction-policy knobs (ignored by the static baseline).
    pub manager: ManagerConfig,
    /// Marginal cells per die that wear out during the mission.
    pub marginal_per_die: u32,
    /// Per-tick bend-event probability, per-mille.
    pub bend_per_mille: u32,
    /// Per-tick brownout-window probability, per-mille.
    pub brownout_per_mille: u32,
    /// Per-tick program-store upset probability, per-mille.
    pub store_upset_per_mille: u32,
    /// Worker threads (subject to `FLEXSHARD_FORCE_THREADS`).
    pub threads: usize,
}

impl MissionConfig {
    /// A campaign with the default stress intensities and policy.
    #[must_use]
    pub fn new(target: Target, kernel: Kernel, trials: usize, ticks: u32, seed: u64) -> Self {
        let defaults = StressConfig::new(target.dialect, ticks, 1, seed);
        MissionConfig {
            target,
            kernel,
            trials,
            ticks,
            seed,
            spares: 2,
            budget: 10_000,
            adaptive: true,
            deny: None,
            manager: ManagerConfig::default(),
            marginal_per_die: defaults.marginal_per_die,
            bend_per_mille: defaults.bend_per_mille,
            brownout_per_mille: defaults.brownout_per_mille,
            store_upset_per_mille: defaults.store_upset_per_mille,
            threads: 1,
        }
    }

    fn stress_config(&self, dies: usize, trial_seed: u64) -> StressConfig {
        StressConfig {
            marginal_per_die: self.marginal_per_die,
            bend_per_mille: self.bend_per_mille,
            brownout_per_mille: self.brownout_per_mille,
            store_upset_per_mille: self.store_upset_per_mille,
            ..StressConfig::new(
                self.target.dialect,
                self.ticks,
                dies,
                shard_seed(trial_seed, STREAM_STRESS),
            )
        }
    }
}

/// How one mission ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissionOutcome {
    /// The platform was still serving at the final tick.
    Completed,
    /// Every die was retired before the mission end.
    EndOfLife,
    /// The program store ended the mission unbootable.
    Bricked,
}

/// The full telemetry of one mission trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissionTrial {
    /// Trial index within the campaign.
    pub index: usize,
    /// How the mission ended.
    pub outcome: MissionOutcome,
    /// Useful-work credits earned (see the module docs).
    pub useful_work: u64,
    /// Correct ticks in which the vote outvoted a dissenting lane.
    pub masked: u64,
    /// Ticks saved by a closed-loop reaction (re-run after re-screen /
    /// migration / promotion produced an oracle-exact result).
    pub recovered: u64,
    /// Ticks whose work was lost.
    pub unrecoverable: u64,
    /// Authenticated re-flashes applied after store decay.
    pub reflashes: u64,
    /// In-field self-test re-screens executed.
    pub rescreens: u64,
    /// Migrations onto spare dies.
    pub migrations: u64,
    /// NMR-ladder promotions.
    pub promotions: u64,
    /// NMR-ladder demotions.
    pub demotions: u64,
    /// Forged update images the device *accepted* (must stay zero).
    pub forged_accepted: u64,
    /// Store words healed by background scrubbing.
    pub scrub_corrected: u64,
    /// The quorum mode in force when the mission ended.
    pub end_mode: QuorumMode,
}

/// A finished campaign: one [`MissionTrial`] per trial, in index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissionCampaign {
    /// Whether the closed loop was active.
    pub adaptive: bool,
    /// Per-trial results.
    pub trials: Vec<MissionTrial>,
}

/// Why a campaign could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum MissionError {
    /// The kernel failed to assemble or run at all.
    Kernel(RunError),
    /// The fleet image cannot provision under the configured admission
    /// gate — every trial would reject its own firmware.
    Provision(RejectReason),
    /// The active lanes plus this many spares overflow the die count.
    Spares(usize),
}

impl core::fmt::Display for MissionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MissionError::Kernel(e) => write!(f, "kernel unusable: {e:?}"),
            MissionError::Provision(r) => write!(f, "fleet image inadmissible: {r:?}"),
            MissionError::Spares(n) => write!(f, "{n} spares overflow the platform's die count"),
        }
    }
}

impl std::error::Error for MissionError {}

impl From<RunError> for MissionError {
    fn from(e: RunError) -> Self {
        MissionError::Kernel(e)
    }
}

/// Run a whole mission campaign, threaded and replayable.
///
/// # Errors
///
/// [`MissionError`] if the kernel does not assemble for the target, the
/// spare count overflows the die count, or the signed fleet image fails
/// the golden-path provisioning check (e.g. the `deny` gate rejects the
/// kernel's own image).
pub fn run_mission_campaign(config: &MissionConfig) -> Result<MissionCampaign, MissionError> {
    let dies = ACTIVE_LANES
        .checked_add(config.spares)
        .ok_or(MissionError::Spares(config.spares))?;
    let prepared = PreparedKernel::new(config.kernel, config.target)?;
    let image = prepared.program().as_bytes().to_vec();
    let vuln = flexcheck::vuln::analyze(&config.target, prepared.program());
    // Golden path: if the fleet image cannot provision under this
    // config, no trial can either — fail loudly up front instead of
    // panicking inside a worker thread.
    fresh_device(config, &image, 0)
        .provision(&sign_update(config.target.dialect, &image, 1, DEVICE_KEY))
        .map_err(MissionError::Provision)?;

    let trials = flexshard::map_indexed(config.trials, config.threads, |index| {
        run_trial(config, &prepared, &vuln, &image, dies, index)
    });
    Ok(MissionCampaign {
        adaptive: config.adaptive,
        trials,
    })
}

fn fresh_device(config: &MissionConfig, image: &[u8], trial_seed: u64) -> Device {
    let mut device = Device::new(config.target, image.len(), DEVICE_KEY).with_link(LinkConfig {
        jitter_seed: shard_seed(trial_seed, STREAM_LINK),
        ..LinkConfig::default()
    });
    if let Some(deny) = config.deny {
        device = device.with_admission(deny);
    }
    device
}

/// The mutable platform state of one trial.
struct Platform<'a> {
    config: &'a MissionConfig,
    prepared: &'a PreparedKernel,
    /// Static vulnerability report of the mission kernel: rescreens
    /// spend stimulus in proportion to how much of a die's damage the
    /// analyzer could not prove masked.
    vuln: &'a flexcheck::vuln::VulnReport,
    trial_seed: u64,
    /// Accumulated permanent faults, per die id.
    die_faults: Vec<Vec<ArchFault>>,
    health: Vec<HealthMonitor>,
    /// Die ids currently serving, lane order.
    active: Vec<usize>,
    /// Unused spare die ids, next-up first.
    spares: Vec<usize>,
    /// Spares warming up: `(die, online_tick)`.
    pending: Vec<(usize, u32)>,
    manager: MissionManager,
    rescreen_draws: u64,
    trial: MissionTrial,
}

impl Platform<'_> {
    fn bring_online(&mut self, t: u32) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].1 <= t {
                let (die, _) = self.pending.remove(i);
                self.active.push(die);
            } else {
                i += 1;
            }
        }
    }

    /// Retire `die` and schedule a replacement spare (if any) with a
    /// jittered warm-up delay.
    fn retire(&mut self, die: usize, t: u32) {
        self.active.retain(|&d| d != die);
        self.health[die].mark_failed();
        if !self.spares.is_empty() {
            let spare = self.spares.remove(0);
            let delay = self.manager.migration_delay();
            self.pending.push((spare, t + delay.max(1)));
            self.trial.migrations += 1;
        }
    }

    /// In-field self-test: the die re-runs the mission kernel against
    /// the oracle on a [`flexfab::tester::TestPlan::self_test`]-sized
    /// stimulus budget, excited only by its *permanent* fault set (the
    /// board cannot replay a bend). Passing restores full trust.
    fn rescreen_die(&mut self, die: usize) -> bool {
        let plan = flexfab::tester::TestPlan::self_test();
        // one kernel run stands in for ~64 tester cycles of stimulus;
        // scale the budget by the live fraction of this die's permanent
        // faults — stimulus spent exciting provably-masked damage is
        // wasted, and a die whose faults are all masked only needs a
        // single confirmation run. Pure function of the fault set, so
        // replay stays bit-for-bit.
        let base = (plan.total_cycles() / 64).max(1);
        let faults = &self.die_faults[die];
        let live = faults
            .iter()
            .filter(|f| !self.vuln.is_masked_fault(f))
            .count() as u64;
        let vectors = if faults.is_empty() {
            base
        } else {
            (base * live).div_ceil(faults.len() as u64).max(1)
        };
        let seed = shard_seed(
            shard_seed(self.trial_seed, STREAM_RESCREEN),
            self.rescreen_draws,
        );
        self.rescreen_draws += 1;
        self.trial.rescreens += 1;
        let mut sampler = Sampler::new(self.config.kernel, seed ^ plan.seed);
        let passed = (0..vectors).all(|_| {
            let inputs = sampler.draw();
            let mut plane = FaultPlane::with_faults(self.die_faults[die].clone());
            let verdict = self
                .prepared
                .verdict(&inputs, self.config.budget, &mut plane);
            matches!(verdict, Verdict::Verified(_))
        });
        if passed {
            self.health[die].rescreen_passed();
        }
        passed
    }

    /// Re-screen every die in `suspects`; retire the ones that fail.
    fn rescreen_and_cull(&mut self, suspects: &[usize], t: u32) {
        for &die in suspects {
            if !self.active.contains(&die) {
                continue;
            }
            if !self.rescreen_die(die) {
                self.retire(die, t);
            }
        }
    }

    fn promote(&mut self) {
        if self.manager.note_trouble() {
            self.trial.promotions += 1;
        }
    }

    /// Run one voted execution over the current active lanes. Returns
    /// `None` when no lane is left to run on.
    fn run_quorum(
        &mut self,
        proto: &AnyCore,
        mode: QuorumMode,
        inputs: &[u8],
        expected: &[u8],
        bends: &[(usize, ArchFault)],
        observe: bool,
    ) -> Option<(bool, Vec<usize>, usize)> {
        if self.active.is_empty() {
            return None;
        }
        let lanes = mode.lanes().min(self.active.len());
        let planes: Vec<FaultPlane> = self.active[..lanes]
            .iter()
            .map(|&die| {
                let mut faults = self.die_faults[die].clone();
                faults.extend(bends.iter().filter(|(d, _)| *d == die).map(|(_, f)| *f));
                FaultPlane::with_faults(faults)
            })
            .collect();
        let executor = NmrExecutor::new(
            proto.clone(),
            NmrConfig {
                lanes,
                window: 4,
                budget: self.config.budget,
            },
        )
        .expect("a nonempty active set votes in windows of four");
        let run = executor.run(inputs, planes);
        if observe {
            for (lane, &die) in self.active[..lanes].iter().enumerate() {
                self.health[die].observe(LaneTelemetry {
                    dissented: run.suspects.contains(&lane),
                    crashed: matches!(run.statuses[lane], LaneStatus::Faulted(_)),
                    hung: matches!(run.statuses[lane], LaneStatus::Hung(_)),
                });
            }
        }
        let correct = run.outputs == expected && run.verdict != VoteVerdict::QuorumLost;
        let suspect_dies: Vec<usize> = run
            .suspects
            .iter()
            .filter(|&&lane| lane < lanes)
            .map(|&lane| self.active[lane])
            .collect();
        Some((correct, suspect_dies, lanes))
    }
}

fn credit(lanes: usize) -> u64 {
    (4 - lanes.min(3)) as u64
}

fn run_trial(
    config: &MissionConfig,
    prepared: &PreparedKernel,
    vuln: &flexcheck::vuln::VulnReport,
    image: &[u8],
    total_dies: usize,
    index: usize,
) -> MissionTrial {
    let trial_seed = shard_seed(config.seed, index as u64);
    let dialect = config.target.dialect;
    let stress = StressSchedule::generate(&config.stress_config(total_dies, trial_seed));

    let mut device = fresh_device(config, image, trial_seed);
    device
        .provision(&sign_update(dialect, image, 1, DEVICE_KEY))
        .expect("golden-path provisioning was checked up front");
    // the fleet's monotonic version counter: the device-side anchor can
    // be lost to store decay, so the manager is the source of truth
    let mut version: u64 = 1;
    let mut channel = NoisyChannel::new(
        ChannelConfig::clean(),
        shard_seed(trial_seed, STREAM_CHANNEL),
    );
    let mut sampler = Sampler::new(config.kernel, shard_seed(trial_seed, STREAM_INPUTS));

    let mut platform = Platform {
        config,
        prepared,
        vuln,
        trial_seed,
        die_faults: vec![Vec::new(); total_dies],
        health: vec![HealthMonitor::new(); total_dies],
        active: (0..ACTIVE_LANES).collect(),
        spares: (ACTIVE_LANES..total_dies).collect(),
        pending: Vec::new(),
        manager: MissionManager::new(config.manager),
        rescreen_draws: 0,
        trial: MissionTrial {
            index,
            outcome: MissionOutcome::Completed,
            useful_work: 0,
            masked: 0,
            recovered: 0,
            unrecoverable: 0,
            reflashes: 0,
            rescreens: 0,
            migrations: 0,
            promotions: 0,
            demotions: 0,
            forged_accepted: 0,
            scrub_corrected: 0,
            end_mode: if config.adaptive {
                config.manager.floor
            } else {
                QuorumMode::Tmr
            },
        },
    };

    for t in 0..config.ticks {
        platform.bring_online(t);
        let tick = stress.tick(t);
        // the input stream advances once per tick, unconditionally, so
        // adaptive and static trials sharing a seed see identical cases
        let inputs = sampler.draw();
        let expected = oracle::expected_outputs(config.kernel, dialect, &inputs);

        // 1. permanent wear lands
        for &(die, fault) in &tick.wear {
            platform.die_faults[die].push(fault);
        }

        // 2. store traffic — upsets, then a scrub pass — under this
        // tick's brownout window, if one is open
        let mut power = tick
            .brownout
            .as_ref()
            .map_or_else(PowerCut::never, BrownoutPlan::arm);
        let mut decayed = true;
        if let Some(slot) = device.store().active_slot() {
            let store = device.store_mut().slot_mut(slot);
            let len = store.len();
            for &(word, bit) in &tick.store_upsets {
                store.flip_bit(word % len, bit % 13);
            }
            let report = store.scrub_with(&mut power);
            platform.trial.scrub_corrected += report.corrected as u64;
            decayed = report.uncorrectable > 0;
        }

        // 3. closed-loop re-flash on decay (the static baseline has no
        // loop: it limps on whatever the store decays into). Decay that
        // leaves the active image authenticating takes the normal OTA
        // path; decay that breaks authentication kills the OTA anchor
        // (`apply_update` rightly refuses without a trusted active
        // version), so the manager falls back to a maintenance-port
        // recovery flash — `Device::provision`, which verifies the
        // signature exactly like a field update but needs no live
        // anchor image. An attacker rides both windows; the forged
        // image must bounce off authentication on each path.
        if decayed && config.adaptive {
            let next = version + 1;
            let forged = sign_update(dialect, image, next, b"not-the-fleet-key");
            let status = device
                .apply_update(&forged.wire_bytes(), &mut channel, &mut PowerCut::never())
                .status;
            if matches!(status, UpdateStatus::Applied { .. }) {
                platform.trial.forged_accepted += 1;
            }
            // the legitimate OTA re-flash contends with the same
            // brownout window the scrub did
            let legit = sign_update(dialect, image, next, DEVICE_KEY);
            let ota = device.apply_update(&legit.wire_bytes(), &mut channel, &mut power);
            if matches!(ota.status, UpdateStatus::Applied { .. }) {
                platform.trial.reflashes += 1;
                version = next;
            } else if !power.has_fired() {
                // recovery flash over the externally-powered maintenance
                // port — deferred to the next tick if the supply sagged
                if device.provision(&forged).is_ok() {
                    platform.trial.forged_accepted += 1;
                }
                if device.provision(&legit).is_ok() {
                    platform.trial.reflashes += 1;
                    version = next;
                }
            }
        }

        // 4. the tick's image is whatever authenticates right now
        let authenticated = device
            .store()
            .active_slot()
            .and_then(|slot| device.store().authenticate(slot, DEVICE_KEY));
        let Some((_, image_now)) = authenticated else {
            // nothing trustworthy to run: the tick is lost
            platform.trial.unrecoverable += 1;
            if config.adaptive {
                platform.promote();
            }
            continue;
        };
        let proto = AnyCore::for_dialect(
            dialect,
            config.target.features,
            Program::from_bytes(image_now),
        );

        // 5. voted execution at the policy's lane count
        let mode = if config.adaptive {
            platform.manager.mode()
        } else {
            QuorumMode::Tmr
        };
        let Some((correct, suspect_dies, lanes)) =
            platform.run_quorum(&proto, mode, &inputs, &expected, &tick.bend, true)
        else {
            platform.trial.outcome = MissionOutcome::EndOfLife;
            platform.trial.unrecoverable += u64::from(config.ticks - t);
            break;
        };

        // 6. tally and react
        if correct {
            platform.trial.useful_work += credit(lanes);
            if suspect_dies.is_empty() {
                if config.adaptive && !decayed && platform.manager.note_clean() {
                    platform.trial.demotions += 1;
                }
            } else {
                platform.trial.masked += 1;
                if config.adaptive {
                    platform.promote();
                    platform.rescreen_and_cull(&suspect_dies.clone(), t);
                }
            }
        } else if !config.adaptive {
            platform.trial.unrecoverable += 1;
        } else {
            // react, then retry the tick once on the reshaped platform
            platform.promote();
            let screen: Vec<usize> = if suspect_dies.is_empty() {
                // quorum lost without a nameable dissenter: screen all
                platform.active.clone()
            } else {
                suspect_dies
            };
            platform.rescreen_and_cull(&screen, t);
            let retry_mode = platform.manager.mode();
            match platform.run_quorum(&proto, retry_mode, &inputs, &expected, &tick.bend, false) {
                Some((true, _, retry_lanes)) => {
                    platform.trial.recovered += 1;
                    platform.trial.useful_work += credit(retry_lanes);
                }
                Some((false, _, _)) => platform.trial.unrecoverable += 1,
                None => {
                    platform.trial.outcome = MissionOutcome::EndOfLife;
                    platform.trial.unrecoverable += u64::from(config.ticks - t);
                    break;
                }
            }
        }

        // 7. health-driven retirement, independent of this tick's vote
        if config.adaptive {
            let critical: Vec<usize> = platform
                .active
                .iter()
                .copied()
                .filter(|&d| platform.health[d].state() == HealthState::Critical)
                .collect();
            platform.rescreen_and_cull(&critical, t);
            let failed: Vec<usize> = platform
                .active
                .iter()
                .copied()
                .filter(|&d| platform.health[d].state() == HealthState::Failed)
                .collect();
            for die in failed {
                platform.retire(die, t);
            }
            if platform.active.is_empty()
                && platform.pending.is_empty()
                && platform.spares.is_empty()
            {
                platform.trial.outcome = MissionOutcome::EndOfLife;
                platform.trial.unrecoverable += u64::from(config.ticks - t - 1);
                break;
            }
        }
    }

    if platform.trial.outcome == MissionOutcome::Completed && device.boot().is_err() {
        platform.trial.outcome = MissionOutcome::Bricked;
    }
    platform.trial.end_mode = if config.adaptive {
        platform.manager.mode()
    } else {
        QuorumMode::Tmr
    };
    platform.trial
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MissionTally;

    fn base(adaptive: bool) -> MissionConfig {
        MissionConfig {
            adaptive,
            ..MissionConfig::new(Target::fc4(), Kernel::ParityCheck, 12, 6, 0xA11CE)
        }
    }

    #[test]
    fn campaigns_replay_bit_for_bit() {
        let a = run_mission_campaign(&base(true)).unwrap();
        let b = run_mission_campaign(&base(true)).unwrap();
        assert_eq!(a, b);
        let c = run_mission_campaign(&MissionConfig {
            seed: 0xA11CF,
            ..base(true)
        })
        .unwrap();
        assert_ne!(a, c, "a different seed lives a different mission");
    }

    #[test]
    fn campaigns_are_thread_invariant() {
        // ragged trial counts: fewer trials than threads, and counts no
        // thread count divides
        for trials in [1, 7, 12] {
            let config = |threads| MissionConfig {
                trials,
                threads,
                ..base(true)
            };
            let serial = run_mission_campaign(&config(1)).unwrap();
            for threads in [3, 8] {
                let threaded = run_mission_campaign(&config(threads)).unwrap();
                assert_eq!(serial, threaded, "{trials} trials / {threads} threads");
            }
        }
    }

    #[test]
    fn overflowing_spares_are_an_error_not_a_panic() {
        let err = run_mission_campaign(&MissionConfig {
            spares: usize::MAX,
            ..base(true)
        })
        .unwrap_err();
        assert!(matches!(err, MissionError::Spares(usize::MAX)), "{err}");
    }

    #[test]
    fn quiet_missions_run_clean_and_adaptive_banks_the_lane_savings() {
        let quiet = |adaptive| MissionConfig {
            marginal_per_die: 0,
            bend_per_mille: 0,
            brownout_per_mille: 0,
            store_upset_per_mille: 0,
            ..base(adaptive)
        };
        let adaptive = run_mission_campaign(&quiet(true)).unwrap();
        let fixed = run_mission_campaign(&quiet(false)).unwrap();
        for trial in adaptive.trials.iter().chain(&fixed.trials) {
            assert_eq!(trial.outcome, MissionOutcome::Completed);
            assert_eq!(trial.unrecoverable, 0);
            assert_eq!(trial.reflashes + trial.rescreens + trial.migrations, 0);
            assert_eq!(trial.forged_accepted, 0);
        }
        // adaptive idles at its DMR floor (2 credits/tick); the static
        // baseline burns three lanes for 1 credit/tick, every tick
        let per_trial_ticks = 6;
        for trial in &fixed.trials {
            assert_eq!(trial.useful_work, per_trial_ticks);
        }
        for trial in &adaptive.trials {
            assert_eq!(trial.useful_work, 2 * per_trial_ticks);
            assert_eq!(trial.end_mode, QuorumMode::DmrReexec);
        }
    }

    #[test]
    fn worn_out_platform_without_spares_reaches_end_of_life() {
        let config = MissionConfig {
            spares: 0,
            marginal_per_die: 10,
            ticks: 12,
            trials: 8,
            ..base(true)
        };
        let campaign = run_mission_campaign(&config).unwrap();
        assert!(
            campaign
                .trials
                .iter()
                .any(|t| t.outcome == MissionOutcome::EndOfLife),
            "ten marginal cells per die and no spares must end some missions early"
        );
        // a mission ending early forfeits its remaining ticks
        for trial in &campaign.trials {
            if trial.outcome == MissionOutcome::EndOfLife {
                assert!(trial.unrecoverable > 0, "trial {}", trial.index);
            }
        }
    }

    /// The acceptance measurement from the PR issue: over the same
    /// seeded stress histories, the closed loop completes strictly more
    /// useful work and strictly fewer unrecoverable/bricked outcomes
    /// than static always-TMR, and no forged image is ever accepted.
    #[test]
    fn adaptive_outlives_static_over_five_hundred_missions() {
        let config = |adaptive| MissionConfig {
            trials: 500,
            ticks: 6,
            threads: 8,
            ..base(adaptive)
        };
        let adaptive = run_mission_campaign(&config(true)).unwrap();
        let fixed = run_mission_campaign(&config(false)).unwrap();
        let a = MissionTally::of(&adaptive);
        let s = MissionTally::of(&fixed);

        assert_eq!(a.forged_accepted + s.forged_accepted, 0);
        assert!(
            a.useful_work > s.useful_work,
            "adaptive {} must out-work static {}",
            a.useful_work,
            s.useful_work
        );
        assert!(
            a.unrecoverable + a.bricked < s.unrecoverable + s.bricked,
            "adaptive {}+{} must lose less than static {}+{}",
            a.unrecoverable,
            a.bricked,
            s.unrecoverable,
            s.bricked
        );
        // the loop must actually have closed, not won by luck
        assert!(a.rescreens > 0 && a.reflashes > 0 && a.promotions > 0);
        assert_eq!(s.rescreens + s.reflashes + s.migrations, 0);
    }

    #[test]
    fn inadmissible_fleet_image_fails_the_golden_path() {
        // parity assembles fine, so force a gate that rejects anything
        // flexcheck so much as whispers about; if the gate passes the
        // image the campaign must run instead
        let config = MissionConfig {
            deny: Some(Severity::Info),
            trials: 1,
            ticks: 1,
            ..base(true)
        };
        match run_mission_campaign(&config) {
            Err(MissionError::Provision(_)) => {}
            Ok(campaign) => assert_eq!(campaign.trials.len(), 1),
            Err(e) => panic!("unexpected {e}"),
        }
    }
}
