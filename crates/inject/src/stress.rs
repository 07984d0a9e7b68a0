//! Mission-time stress processes: the fault population as a *function
//! of time*.
//!
//! Every campaign before this module froze its fault draw at t = 0. A
//! deployed flexible die does not: IGZO TFTs drift under bias stress
//! until marginal cells fail permanently, mechanical bend events inject
//! spatially clustered transient bursts, and battery sag opens brownout
//! windows during which store writes tear or vanish. A
//! [`StressSchedule`] materializes all three processes for a whole
//! mission up front, from one seed, in one fixed draw order — so any
//! consumer (the `flexmission` lifetime campaigns, a soak test, a CLI
//! replay) observes the identical stress history bit-for-bit, no matter
//! how its trials are threaded.
//!
//! The three processes:
//!
//! * **Wear** — each die carries a seeded set of *marginal cells*:
//!   architectural fault sites whose Vth margin erodes until, at a
//!   per-cell wear-out tick drawn uniformly over the mission, the cell
//!   becomes a permanent stuck-at. Wear only accumulates; a cell that
//!   failed stays failed.
//! * **Bend events** — per-tick Bernoulli bursts of one-shot transient
//!   flips. A burst is spatially clustered: it picks one die and a run
//!   of *adjacent* sites in that dialect's enumeration order (the site
//!   list is layout-ordered, so adjacency is the architectural proxy
//!   for physical locality on the foil).
//! * **Brownout windows** — per-tick supply-sag plans. A brownout tick
//!   carries an armed [`PowerCut`] plan: some write during that tick's
//!   store traffic (scrub heals, reprogramming) tears, and every write
//!   after it is lost. Store upsets ride the same process: single-bit
//!   flips that SECDED corrects, plus rarer same-word double flips that
//!   decay a page beyond correction.
//!
//! Draw order is part of the replay contract, exactly like
//! [`sites::enumerate`]'s site order: wear for every die first (die 0's
//! cells, then die 1's, …), then per-tick draws in tick order. New
//! stress processes must be appended after the existing draws so old
//! seeds keep producing the same histories.

use crate::campaign::FaultModel;
use crate::sites;
use flexicore::isa::Dialect;
use flexicore::sim::{ArchFault, FaultKind, PowerCut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one mission's stress processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressConfig {
    /// Dialect whose site list wear and bend draws target.
    pub dialect: Dialect,
    /// Mission length in ticks.
    pub ticks: u32,
    /// Number of dies wear and bend events are distributed over (the
    /// active lanes plus every spare — stress does not spare the
    /// spares).
    pub dies: usize,
    /// Master seed; every draw derives from it.
    pub seed: u64,
    /// Marginal cells per die that wear out to stuck-ats somewhere in
    /// the mission.
    pub marginal_per_die: u32,
    /// Per-tick bend-event probability, in per-mille.
    pub bend_per_mille: u32,
    /// Adjacent sites a bend burst flips on the struck die.
    pub bend_cluster: u8,
    /// Cycle window bend transients are scheduled inside.
    pub flip_window: u64,
    /// Per-tick brownout-window probability, in per-mille.
    pub brownout_per_mille: u32,
    /// Store writes into a brownout tick before the supply collapses
    /// (the cut index is drawn uniformly below this).
    pub brownout_writes: u64,
    /// Per-tick single-bit program-store upset probability, per-mille.
    pub store_upset_per_mille: u32,
    /// Probability that an upset bursts into a *second* flip of the
    /// same code word (an uncorrectable decay event), per-mille of the
    /// upset draws.
    pub store_burst_per_mille: u32,
    /// Store size in code words upsets are drawn over.
    pub store_words: usize,
    /// Bits per store code word (SECDED(13,8) stores use 13).
    pub store_code_bits: u8,
}

impl StressConfig {
    /// A schedule with the default process intensities: a handful of
    /// marginal cells per die, occasional bends and brownouts, and a
    /// store upset rate high enough that long missions see decay.
    #[must_use]
    pub fn new(dialect: Dialect, ticks: u32, dies: usize, seed: u64) -> Self {
        StressConfig {
            dialect,
            ticks,
            dies,
            seed,
            marginal_per_die: 2,
            bend_per_mille: 120,
            bend_cluster: 3,
            flip_window: 1024,
            brownout_per_mille: 80,
            brownout_writes: 64,
            store_upset_per_mille: 250,
            store_burst_per_mille: 300,
            store_words: 512,
            store_code_bits: 13,
        }
    }
}

/// An armed-but-not-yet-constructed supply collapse for one brownout
/// tick. Kept as plain data (not a [`PowerCut`]) so a [`TickStress`]
/// stays `Eq`-comparable and a consumer can arm as many independent
/// cuts as it has write paths in the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutPlan {
    /// Store write index at which the supply collapses.
    pub cut_at: u64,
    /// Seed deciding which bits of the torn word land old vs new.
    pub torn_seed: u64,
}

impl BrownoutPlan {
    /// Arm a fresh [`PowerCut`] implementing this plan.
    #[must_use]
    pub fn arm(&self) -> PowerCut {
        PowerCut::at_write(self.cut_at, self.torn_seed)
    }
}

/// Everything the stress processes do in one mission tick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickStress {
    /// Marginal cells failing permanently this tick: `(die, fault)`
    /// with a stuck-at kind.
    pub wear: Vec<(usize, ArchFault)>,
    /// Bend-burst transients this tick: `(die, fault)` with a
    /// [`FaultKind::FlipAtCycle`] kind, clustered on adjacent sites.
    pub bend: Vec<(usize, ArchFault)>,
    /// The supply-sag plan, if this tick falls in a brownout window.
    pub brownout: Option<BrownoutPlan>,
    /// Program-store upsets this tick: `(word, bit)` flips. Two entries
    /// sharing a word are a decay event (uncorrectable by SECDED).
    pub store_upsets: Vec<(usize, u8)>,
}

impl TickStress {
    /// Whether this tick applies no stress at all.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.wear.is_empty()
            && self.bend.is_empty()
            && self.brownout.is_none()
            && self.store_upsets.is_empty()
    }
}

/// A whole mission's stress history, materialized tick by tick.
#[derive(Debug, Clone, PartialEq)]
pub struct StressSchedule {
    config: StressConfig,
    ticks: Vec<TickStress>,
}

impl StressSchedule {
    /// Materialize the schedule: a pure function of `config` (the seed
    /// owns every draw), replayable bit-for-bit.
    #[must_use]
    pub fn generate(config: &StressConfig) -> StressSchedule {
        let site_list = sites::enumerate(config.dialect);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x57E5_5EED);
        let mut ticks = vec![TickStress::default(); config.ticks as usize];

        // Wear first, die-major: each marginal cell draws its site, its
        // stuck polarity and its wear-out tick. Cells land in the tick
        // they fail in, preserving draw order within a tick.
        for die in 0..config.dies {
            for _ in 0..config.marginal_per_die {
                if config.ticks == 0 {
                    break;
                }
                let fault = sites::draw_fault(&mut rng, &site_list, FaultModel::StuckAt, 0);
                let at = rng.gen_range(0..config.ticks) as usize;
                ticks[at].wear.push((die, fault));
            }
        }

        // Then the per-tick processes, in tick order.
        for tick in ticks.iter_mut() {
            if per_mille(&mut rng, config.bend_per_mille) && config.dies > 0 {
                let die = rng.gen_range(0..config.dies);
                let center = rng.gen_range(0..site_list.len());
                for k in 0..usize::from(config.bend_cluster.max(1)) {
                    let site = site_list[(center + k) % site_list.len()];
                    let cycle = rng.gen_range(0..config.flip_window.max(1));
                    tick.bend
                        .push((die, site.with_kind(FaultKind::FlipAtCycle(cycle))));
                }
            }
            if per_mille(&mut rng, config.brownout_per_mille) {
                tick.brownout = Some(BrownoutPlan {
                    cut_at: rng.gen_range(0..config.brownout_writes.max(1)),
                    torn_seed: rng.gen(),
                });
            }
            if per_mille(&mut rng, config.store_upset_per_mille) && config.store_words > 0 {
                let word = rng.gen_range(0..config.store_words);
                let bit = rng.gen_range(0..config.store_code_bits.max(1));
                tick.store_upsets.push((word, bit));
                if per_mille(&mut rng, config.store_burst_per_mille) {
                    // a second flip in the same word: SECDED double-bit
                    // decay, repairable only by reprogramming the page
                    let other = (bit + 1 + rng.gen_range(0..config.store_code_bits.max(2) - 1))
                        % config.store_code_bits.max(1);
                    tick.store_upsets.push((word, other));
                }
            }
        }
        StressSchedule {
            config: *config,
            ticks,
        }
    }

    /// The configuration the schedule was generated from.
    #[must_use]
    pub fn config(&self) -> &StressConfig {
        &self.config
    }

    /// Mission length in ticks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether the mission has zero ticks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// The stress applied in tick `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is past the mission end.
    #[must_use]
    pub fn tick(&self, t: u32) -> &TickStress {
        &self.ticks[t as usize]
    }

    /// Total permanent wear faults across the whole mission.
    #[must_use]
    pub fn total_wear(&self) -> usize {
        self.ticks.iter().map(|t| t.wear.len()).sum()
    }
}

/// One per-mille Bernoulli draw. Always consumes exactly one draw so
/// the stream stays aligned regardless of the probability value.
fn per_mille(rng: &mut StdRng, p: u32) -> bool {
    rng.gen_range(0..1000u32) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> StressConfig {
        StressConfig::new(Dialect::Fc4, 64, 5, 0xBEEF)
    }

    #[test]
    fn schedules_replay_bit_for_bit() {
        let a = StressSchedule::generate(&config());
        let b = StressSchedule::generate(&config());
        assert_eq!(a, b);
        let c = StressSchedule::generate(&StressConfig {
            seed: 0xBEF0,
            ..config()
        });
        assert_ne!(a, c, "a different seed draws a different history");
    }

    #[test]
    fn wear_is_conserved_and_permanent() {
        let schedule = StressSchedule::generate(&config());
        assert_eq!(
            schedule.total_wear(),
            5 * 2,
            "every marginal cell wears out exactly once"
        );
        for t in 0..schedule.len() as u32 {
            for (die, fault) in &schedule.tick(t).wear {
                assert!(*die < 5);
                assert!(
                    matches!(fault.kind, FaultKind::StuckAt0 | FaultKind::StuckAt1),
                    "wear faults are permanent: {fault:?}"
                );
            }
        }
    }

    #[test]
    fn bend_bursts_are_clustered_transients_on_one_die() {
        let schedule = StressSchedule::generate(&StressConfig {
            bend_per_mille: 1000,
            ..config()
        });
        let site_list = sites::enumerate(Dialect::Fc4);
        let mut bursts = 0;
        for t in 0..schedule.len() as u32 {
            let bend = &schedule.tick(t).bend;
            if bend.is_empty() {
                continue;
            }
            bursts += 1;
            assert_eq!(bend.len(), 3, "cluster width");
            let die = bend[0].0;
            assert!(bend.iter().all(|(d, _)| *d == die), "one die per burst");
            // adjacency in enumeration order (modulo wraparound)
            let index_of = |f: &ArchFault| {
                site_list
                    .iter()
                    .position(|s| (s.element, s.bit) == (f.element, f.bit))
                    .expect("burst site is enumerated")
            };
            let first = index_of(&bend[0].1);
            for (k, (_, fault)) in bend.iter().enumerate() {
                assert_eq!(index_of(fault), (first + k) % site_list.len());
                assert!(matches!(fault.kind, FaultKind::FlipAtCycle(c) if c < 1024));
            }
        }
        assert_eq!(bursts, schedule.len(), "p = 1000‰ bends every tick");
    }

    #[test]
    fn brownouts_and_upsets_stay_in_bounds() {
        let schedule = StressSchedule::generate(&StressConfig {
            brownout_per_mille: 1000,
            store_upset_per_mille: 1000,
            store_burst_per_mille: 1000,
            ..config()
        });
        for t in 0..schedule.len() as u32 {
            let tick = schedule.tick(t);
            let plan = tick.brownout.expect("p = 1000‰ browns out every tick");
            assert!(plan.cut_at < 64);
            assert!(plan.arm().is_armed());
            assert_eq!(tick.store_upsets.len(), 2, "upset + burst");
            let (w0, b0) = tick.store_upsets[0];
            let (w1, b1) = tick.store_upsets[1];
            assert_eq!(w0, w1, "burst strikes the same word");
            assert_ne!(b0, b1, "but a different bit");
            assert!(w0 < 512 && b0 < 13 && b1 < 13);
        }
    }

    #[test]
    fn degenerate_configs_do_not_panic() {
        for (ticks, dies) in [(0u32, 5usize), (8, 0), (0, 0)] {
            let schedule = StressSchedule::generate(&StressConfig {
                ticks,
                dies,
                ..config()
            });
            assert_eq!(schedule.len(), ticks as usize);
            assert_eq!(schedule.total_wear(), if ticks == 0 { 0 } else { dies * 2 });
        }
    }

    #[test]
    fn quiet_ticks_report_quiet() {
        let schedule = StressSchedule::generate(&StressConfig {
            marginal_per_die: 0,
            bend_per_mille: 0,
            brownout_per_mille: 0,
            store_upset_per_mille: 0,
            ..config()
        });
        for t in 0..schedule.len() as u32 {
            assert!(schedule.tick(t).is_quiet());
        }
    }
}
