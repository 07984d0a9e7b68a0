//! Active-attacker campaigns against the secure-update flow.
//!
//! The noisy channel of [`crate::channel`] models *nature*; this
//! module models an *adversary* sitting on the programming link. The
//! attacker sees every legitimate update, can replace the wire bytes
//! wholesale (so CRC framing and host read-back verification pass by
//! construction — the attacker speaks the protocol perfectly), and can
//! schedule a supply collapse at any store write. What the attacker
//! does **not** have is the device key.
//!
//! [`run_attack_soak`] sweeps kernel × dialect × BER × attack × rep
//! and grades every trial *observationally*: after the update attempt
//! the die is rebooted and its booted image compared against the set
//! of genuinely signed images, then executed against the kernel
//! oracle. The acceptance bar (ISSUE 6): **zero** accepted
//! forged/replayed/downgraded images and **zero** bricked dies, with
//! bit-for-bit replay from the campaign seed.

use crate::auth::sign_update;
use crate::channel::{ChannelConfig, NoisyChannel};
use crate::protocol::LinkConfig;
use crate::store::PAGE_BYTES;
use crate::update::{Device, UpdateStatus};
use flexasm::Target;
use flexicore::exec::AnyCore;
use flexicore::io::ScriptedInput;
use flexicore::isa::Dialect;
use flexicore::sim::PowerCut;
use flexkernels::harness::{PreparedKernel, VerdictOutput, CYCLE_BUDGET};
use flexkernels::{inputs::Sampler, oracle, Kernel, RunError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The device key used by campaign dies. The attacker's forgeries are
/// signed under a different key — knowing this constant is knowing the
/// *protocol*, not the *secret*; campaigns model a per-fleet key the
/// MITM never holds.
pub const DEVICE_KEY: &[u8] = b"flexicores-fleet-key-v1";

/// One adversarial (or control) behaviour on the programming link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attack {
    /// No attacker: the legitimate next-version update, over the
    /// (possibly noisy) channel.
    Legit,
    /// The legitimate update with a supply collapse scheduled at a
    /// seeded store-write index (staging or commit, attacker's pick).
    PowerCut,
    /// The legitimate update with 1–4 adversarial bit flips anywhere
    /// in the wire image (the attacker re-frames, so CRCs pass).
    BitFlip,
    /// The legitimate metadata page with the image payload replaced by
    /// attacker bytes of the same length.
    ForgePayload,
    /// A complete forged update — attacker image, attacker-signed
    /// metadata at an inflated version — under the attacker's key.
    ForgeMetadata,
    /// Bit-for-bit replay of the genuine image the die already runs.
    Replay,
    /// A genuine, correctly signed *older* version (v1 after the die
    /// took v2).
    Downgrade,
    /// The legitimate update truncated at a seeded byte offset.
    Truncate,
}

impl Attack {
    /// Every modelled behaviour, in campaign order.
    pub const ALL: [Attack; 8] = [
        Attack::Legit,
        Attack::PowerCut,
        Attack::BitFlip,
        Attack::ForgePayload,
        Attack::ForgeMetadata,
        Attack::Replay,
        Attack::Downgrade,
        Attack::Truncate,
    ];

    /// Short campaign-table name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Attack::Legit => "legit",
            Attack::PowerCut => "power-cut",
            Attack::BitFlip => "bit-flip",
            Attack::ForgePayload => "forge-payload",
            Attack::ForgeMetadata => "forge-metadata",
            Attack::Replay => "replay",
            Attack::Downgrade => "downgrade",
            Attack::Truncate => "truncate",
        }
    }
}

/// The set of behaviours a campaign sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackMix {
    /// Behaviours, swept in order per (kernel, rate) cell.
    pub attacks: Vec<Attack>,
}

impl AttackMix {
    /// Only legitimate updates — the control mix.
    #[must_use]
    pub fn legit() -> Self {
        AttackMix {
            attacks: vec![Attack::Legit],
        }
    }

    /// Every modelled attack plus the legitimate control.
    #[must_use]
    pub fn full() -> Self {
        AttackMix {
            attacks: Attack::ALL.to_vec(),
        }
    }
}

/// Observational grading of one attacked update attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackOutcome {
    /// A legitimate update verified, committed, booted and ran
    /// oracle-exact.
    Applied,
    /// The device refused the update and still boots + runs its
    /// pre-attack genuine image.
    Rejected,
    /// The flow was interrupted (power cut) but the die boots + runs a
    /// genuine image — usually the prior one.
    Recovered,
    /// **Security failure**: the die booted an image outside the
    /// genuinely-signed set, or its version regressed.
    AcceptedForgery,
    /// **Availability failure**: no slot authenticates, or the booted
    /// image no longer runs oracle-exact.
    Bricked,
}

impl core::fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            AttackOutcome::Applied => "applied",
            AttackOutcome::Rejected => "rejected",
            AttackOutcome::Recovered => "recovered",
            AttackOutcome::AcceptedForgery => "accepted-forgery",
            AttackOutcome::Bricked => "bricked",
        })
    }
}

/// Configuration of one attacker soak campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSoakConfig {
    /// Targets (dialects) to sweep.
    pub targets: Vec<Target>,
    /// The channel bit-error-rate axis.
    pub error_rates: Vec<f64>,
    /// Behaviours swept per cell.
    pub mix: AttackMix,
    /// Seeded repetitions per (target, kernel, rate, attack) cell.
    pub reps: usize,
    /// Campaign seed; every draw derives from it.
    pub seed: u64,
    /// Transfer retry policy of the device.
    pub link: LinkConfig,
    /// `flexcheck` admission severity gating activation, if any.
    pub admission: Option<flexcheck::Severity>,
    /// Worker threads executing trials (`1` = run inline, serially).
    /// Never changes the report — every trial's stream derives from its
    /// own sweep coordinates.
    pub threads: usize,
}

impl AttackSoakConfig {
    /// A full-mix campaign over all four dialects, run serially.
    #[must_use]
    pub fn new(error_rates: Vec<f64>, reps: usize, seed: u64) -> Self {
        AttackSoakConfig {
            targets: vec![
                Target::fc4(),
                Target::fc8(),
                Target::xacc_revised(),
                Target::xls_revised(),
            ],
            error_rates,
            mix: AttackMix::full(),
            reps,
            seed,
            link: LinkConfig::default(),
            admission: Some(flexcheck::Severity::Error),
            threads: 1,
        }
    }

    /// Total trials the sweep will run.
    #[must_use]
    pub fn trial_count(&self) -> usize {
        let kernels: usize = self
            .targets
            .iter()
            .map(|t| Kernel::ALL.iter().filter(|k| k.supports(t.dialect)).count())
            .sum();
        kernels * self.error_rates.len() * self.mix.attacks.len() * self.reps
    }
}

/// One graded trial.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackTrial {
    /// The die's dialect.
    pub dialect: Dialect,
    /// The kernel whose image the die runs.
    pub kernel: Kernel,
    /// Channel bit-error rate.
    pub bit_error_rate: f64,
    /// The behaviour exercised.
    pub attack: Attack,
    /// Repetition index within the cell.
    pub rep: usize,
    /// The device's verdict on the update attempt.
    pub status: UpdateStatus,
    /// The observational grade.
    pub outcome: AttackOutcome,
    /// The version the die booted after the attempt.
    pub booted_version: u64,
}

/// A completed attacker soak campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCampaign {
    /// The configuration that produced it.
    pub config: AttackSoakConfig,
    /// Every trial, in sweep order.
    pub trials: Vec<AttackTrial>,
}

impl AttackCampaign {
    /// Trials with `outcome`.
    #[must_use]
    pub fn count(&self, outcome: AttackOutcome) -> usize {
        self.trials.iter().filter(|t| t.outcome == outcome).count()
    }

    /// Security failures: forged/replayed/downgraded images accepted.
    #[must_use]
    pub fn accepted_forgeries(&self) -> usize {
        self.count(AttackOutcome::AcceptedForgery)
    }

    /// Availability failures: dies that no longer boot a working
    /// genuine image.
    #[must_use]
    pub fn bricked_dies(&self) -> usize {
        self.count(AttackOutcome::Bricked)
    }

    /// Whether the campaign met the ISSUE 6 acceptance bar.
    #[must_use]
    pub fn defended(&self) -> bool {
        self.accepted_forgeries() == 0 && self.bricked_dies() == 0
    }
}

/// Run the sweep. Every draw — inputs, flip positions, cut schedules,
/// channel noise — derives from `config.seed`, so the same config
/// replays its trials bit-for-bit.
///
/// # Errors
///
/// [`RunError::Asm`] if a kernel fails to assemble for a configured
/// target.
pub fn run_attack_soak(config: AttackSoakConfig) -> Result<AttackCampaign, RunError> {
    // Assemble each (target, kernel) image once, serially, so assembly
    // errors surface before any trial runs.
    let mut groups: Vec<(Target, Kernel, Vec<u8>)> = Vec::new();
    // Every trial's stream derives from its own sweep coordinates, so
    // trials are independent work units: the plan is laid out serially
    // in sweep order, then executed across threads and merged back
    // bit-for-bit identical to a serial pass.
    let mut plan: Vec<(usize, f64, Attack, usize, u64)> = Vec::with_capacity(config.trial_count());
    for (d, &target) in config.targets.iter().enumerate() {
        for (k, &kernel) in Kernel::ALL
            .iter()
            .filter(|k| k.supports(target.dialect))
            .enumerate()
        {
            let prepared = PreparedKernel::new(kernel, target)?;
            groups.push((target, kernel, prepared.program().as_bytes().to_vec()));
            let group = groups.len() - 1;
            for (r, &ber) in config.error_rates.iter().enumerate() {
                for (a, &attack) in config.mix.attacks.iter().enumerate() {
                    for rep in 0..config.reps {
                        // one private, reproducible stream per cell
                        let cell = (d as u64) << 48
                            | (k as u64) << 40
                            | (r as u64) << 32
                            | (a as u64) << 16
                            | rep as u64;
                        let trial_seed = config
                            .seed
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(cell);
                        plan.push((group, ber, attack, rep, trial_seed));
                    }
                }
            }
        }
    }
    let trials = flexshard::map_indexed(plan.len(), config.threads, |i| {
        let (group, ber, attack, rep, trial_seed) = plan[i];
        let (target, kernel, ref image) = groups[group];
        run_trial(&config, target, kernel, image, ber, attack, rep, trial_seed)
    });
    Ok(AttackCampaign { config, trials })
}

/// Provision a die, mount one attack, reboot, grade.
#[allow(clippy::too_many_arguments)]
fn run_trial(
    config: &AttackSoakConfig,
    target: Target,
    kernel: Kernel,
    image: &[u8],
    ber: f64,
    attack: Attack,
    rep: usize,
    trial_seed: u64,
) -> AttackTrial {
    let mut rng = StdRng::seed_from_u64(trial_seed);
    let dialect = target.dialect;

    let mut device = Device::new(target, image.len(), DEVICE_KEY).with_link(config.link);
    if let Some(deny) = config.admission {
        device = device.with_admission(deny);
    }
    let v1 = sign_update(dialect, image, 1, DEVICE_KEY);
    device
        .provision(&v1)
        .expect("genuine kernel image must provision");

    // replay/downgrade need history: the die legitimately took v2
    let mut active_version = 1u64;
    if matches!(attack, Attack::Replay | Attack::Downgrade) {
        let v2 = sign_update(dialect, image, 2, DEVICE_KEY);
        let mut clean = NoisyChannel::new(ChannelConfig::clean(), trial_seed ^ 0xC1EA);
        let applied = device.apply_update(&v2.wire_bytes(), &mut clean, &mut PowerCut::never());
        assert!(
            matches!(applied.status, UpdateStatus::Applied { .. }),
            "clean legit update must apply: {:?}",
            applied.status
        );
        active_version = 2;
    }

    let legit_next = sign_update(dialect, image, active_version + 1, DEVICE_KEY).wire_bytes();
    let mut power = PowerCut::never();
    let wire: Vec<u8> = match attack {
        Attack::Legit => legit_next,
        Attack::PowerCut => {
            // anywhere in staging, the commit words, or just past them
            let bound = legit_next.len() as u64 + 4;
            power = PowerCut::at_write(rng.gen_range(0..bound), rng.gen());
            legit_next
        }
        Attack::BitFlip => {
            let mut wire = legit_next;
            for _ in 0..rng.gen_range(1..=4usize) {
                let byte = rng.gen_range(0..wire.len());
                wire[byte] ^= 1 << rng.gen_range(0..8u8);
            }
            wire
        }
        Attack::ForgePayload => {
            let mut wire = legit_next;
            for byte in wire[PAGE_BYTES..].iter_mut() {
                *byte = rng.gen();
            }
            wire
        }
        Attack::ForgeMetadata => {
            let forged_image: Vec<u8> = (0..image.len()).map(|_| rng.gen()).collect();
            sign_update(
                dialect,
                &forged_image,
                active_version + 100,
                b"attacker-key",
            )
            .wire_bytes()
        }
        Attack::Replay => sign_update(dialect, image, 2, DEVICE_KEY).wire_bytes(),
        Attack::Downgrade => v1.wire_bytes(),
        Attack::Truncate => {
            let cut = rng.gen_range(0..legit_next.len());
            legit_next[..cut].to_vec()
        }
    };

    let mut channel =
        NoisyChannel::new(ChannelConfig::with_bit_error_rate(ber), trial_seed ^ 0x5A5A);
    let status = device.apply_update(&wire, &mut channel, &mut power).status;

    // the observational grade: reboot and look at what actually runs
    let (outcome, booted_version) = match device.boot() {
        Err(_) => (AttackOutcome::Bricked, 0),
        Ok(boot) => {
            let genuine = boot.program.as_bytes() == image;
            if !genuine || boot.metadata.version < active_version {
                (AttackOutcome::AcceptedForgery, boot.metadata.version)
            } else if !runs_oracle_exact(target, kernel, boot.program.as_bytes(), trial_seed) {
                (AttackOutcome::Bricked, boot.metadata.version)
            } else {
                let graded = match status {
                    UpdateStatus::Applied { .. } => AttackOutcome::Applied,
                    UpdateStatus::Interrupted => AttackOutcome::Recovered,
                    UpdateStatus::Rejected(_) => AttackOutcome::Rejected,
                };
                (graded, boot.metadata.version)
            }
        }
    };

    AttackTrial {
        dialect,
        kernel,
        bit_error_rate: ber,
        attack,
        rep,
        status,
        outcome,
        booted_version,
    }
}

/// Execute the booted image against seeded inputs and the kernel
/// oracle, recording the output as the kernel harness does: only a
/// halted run's values are compared.
fn runs_oracle_exact(target: Target, kernel: Kernel, image: &[u8], seed: u64) -> bool {
    let inputs = Sampler::new(kernel, seed ^ 0xA5A5).draw();
    let expected = oracle::expected_outputs(kernel, target.dialect, &inputs);
    let program = flexicore::program::Program::from_bytes(image.to_vec());
    let mut core = AnyCore::for_dialect(target.dialect, target.features, program);
    let mut input = ScriptedInput::new(inputs);
    let mut output = VerdictOutput::new();
    match core.run(&mut input, &mut output, CYCLE_BUDGET) {
        Ok(result) => result.halted() && output.values() == expected,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(mix: AttackMix, reps: usize) -> AttackSoakConfig {
        AttackSoakConfig {
            targets: vec![Target::fc4()],
            mix,
            ..AttackSoakConfig::new(vec![0.0], reps, 17)
        }
    }

    #[test]
    fn legit_mix_applies_everywhere() {
        let campaign = run_attack_soak(small_config(AttackMix::legit(), 1)).unwrap();
        assert_eq!(campaign.trials.len(), 7, "every fc4 kernel, one rep");
        assert!(campaign
            .trials
            .iter()
            .all(|t| t.outcome == AttackOutcome::Applied));
        assert!(campaign.defended());
    }

    #[test]
    fn full_mix_never_accepts_a_forgery_or_bricks() {
        let cfg = AttackSoakConfig {
            targets: vec![Target::fc4()],
            mix: AttackMix::full(),
            ..AttackSoakConfig::new(vec![0.0], 2, 23)
        };
        let campaign = run_attack_soak(cfg).unwrap();
        assert_eq!(campaign.trials.len(), 7 * 8 * 2);
        assert_eq!(campaign.accepted_forgeries(), 0);
        assert_eq!(campaign.bricked_dies(), 0);
        // the pure forgery attacks must all be rejected outright
        for t in campaign.trials.iter().filter(|t| {
            matches!(
                t.attack,
                Attack::ForgeMetadata | Attack::Replay | Attack::Downgrade
            )
        }) {
            assert_eq!(
                t.outcome,
                AttackOutcome::Rejected,
                "{:?}/{:?}",
                t.attack,
                t.status
            );
        }
    }

    #[test]
    fn power_cut_trials_always_boot_a_genuine_image() {
        let campaign = run_attack_soak(AttackSoakConfig {
            targets: vec![Target::fc8()],
            mix: AttackMix {
                attacks: vec![Attack::PowerCut],
            },
            ..AttackSoakConfig::new(vec![0.0], 24, 31)
        })
        .unwrap();
        assert!(campaign.defended(), "{:?}", campaign.trials);
        for t in &campaign.trials {
            assert!(
                matches!(
                    t.outcome,
                    AttackOutcome::Applied | AttackOutcome::Recovered | AttackOutcome::Rejected
                ),
                "{t:?}"
            );
            assert!(t.booted_version >= 1);
        }
    }

    #[test]
    fn campaigns_replay_bit_for_bit() {
        let cfg = small_config(AttackMix::full(), 1);
        let a = run_attack_soak(cfg.clone()).unwrap();
        let b = run_attack_soak(cfg).unwrap();
        assert_eq!(a.trials, b.trials);
    }

    #[test]
    fn thread_counts_never_change_the_report() {
        // ragged trial counts: one legit cell, then full mixes no
        // thread count divides
        for (mix, reps) in [
            (AttackMix::legit(), 1),
            (AttackMix::full(), 1),
            (AttackMix::full(), 2),
        ] {
            let base = small_config(mix, reps);
            let serial = run_attack_soak(base.clone()).unwrap();
            for threads in [1, 3, 8] {
                let parallel = run_attack_soak(AttackSoakConfig {
                    threads,
                    ..base.clone()
                })
                .unwrap();
                assert_eq!(
                    serial.trials,
                    parallel.trials,
                    "{} trials / {threads} threads",
                    serial.trials.len()
                );
            }
        }
    }
}
