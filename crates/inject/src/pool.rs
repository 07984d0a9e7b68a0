//! Salvage pools: partially-defective dies as raw material for
//! redundant execution.
//!
//! The salvage analysis ([`crate::salvage`]) asks whether one die can
//! run every kernel alone. A *pool* asks a weaker, more productive
//! question: which dies can run **together**? Two dies whose defect
//! draws land on different architectural sites never agree on a wrong
//! answer caused by a manufacturing defect, so a majority vote across
//! them masks either die's faults. The resilient executor composes its
//! voting quorums from exactly this material.
//!
//! A pool holds each die's architectural fault set (replayed from its
//! defect seed via [`sites::die_faults`], the same mapping the salvage
//! screen uses). Timing-limited dies never enter a pool — a slow path
//! fails at speed no matter how many partners vote alongside it.

use crate::sites;
use flexfab::wafer_run::{CoreDesign, WaferRun};
use flexicore::isa::Dialect;
use flexicore::sim::ArchFault;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One die available for quorum building.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolDie {
    /// Wafer site index (or synthetic index) — stable across the pool's
    /// lifetime, used in retry traces to name lanes.
    pub id: usize,
    /// The die's permanent architectural fault set; empty for dies that
    /// passed the binary screen.
    pub faults: Vec<ArchFault>,
    /// Gate-level defect count the fault set was replayed from.
    pub defect_count: u32,
}

impl PoolDie {
    /// A die with no known defects.
    #[must_use]
    pub fn clean(id: usize) -> Self {
        PoolDie {
            id,
            faults: Vec::new(),
            defect_count: 0,
        }
    }

    /// Whether the die carries no known faults.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether this die's defect sites are disjoint from `other`'s.
    ///
    /// Disjointness is judged on the (element, bit) site alone, ignoring
    /// stuck polarity: two dies stuck at *opposite* values on the same
    /// bit still vote 1-against-1 there, which a third clean-at-that-bit
    /// lane must break — so a shared site disqualifies the pairing
    /// regardless of polarity.
    #[must_use]
    pub fn disjoint_with(&self, other: &PoolDie) -> bool {
        self.faults.iter().all(|a| {
            other
                .faults
                .iter()
                .all(|b| (a.element, a.bit) != (b.element, b.bit))
        })
    }
}

/// A dialect-specific pool of dies available for redundant execution.
#[derive(Debug, Clone)]
pub struct SalvagePool {
    dialect: Dialect,
    dies: Vec<PoolDie>,
}

impl SalvagePool {
    /// Build a pool directly from dies.
    #[must_use]
    pub fn new(dialect: Dialect, dies: Vec<PoolDie>) -> Self {
        SalvagePool { dialect, dies }
    }

    /// Harvest a tested wafer: functional dies join with an empty fault
    /// set, defect-limited failures join with their replayed fault set,
    /// timing failures are discarded. Die ids are wafer site indices.
    #[must_use]
    pub fn from_wafer(run: &WaferRun, design: CoreDesign) -> Self {
        let dialect = crate::salvage::target_for(design).dialect;
        let dies = run
            .outcomes
            .iter()
            .zip(&run.variations)
            .enumerate()
            .filter_map(|(id, (outcome, variation))| {
                if outcome.functional() {
                    Some(PoolDie::clean(id))
                } else if outcome.timing_errors > 0 {
                    None
                } else {
                    Some(PoolDie {
                        id,
                        faults: sites::die_faults(
                            dialect,
                            variation.defect_seed,
                            variation.defect_count,
                        ),
                        defect_count: variation.defect_count,
                    })
                }
            })
            .collect();
        SalvagePool { dialect, dies }
    }

    /// A deterministic synthetic pool for tests and CLI demos: `n` dies
    /// with defect counts drawn uniformly in `0..=max_defects`.
    #[must_use]
    pub fn synthetic(dialect: Dialect, n: usize, seed: u64, max_defects: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A1_7A9E);
        let dies = (0..n)
            .map(|id| {
                let defect_count = rng.gen_range(0..=max_defects);
                let defect_seed = rng.gen::<u64>();
                PoolDie {
                    id,
                    faults: sites::die_faults(dialect, defect_seed, defect_count),
                    defect_count,
                }
            })
            .collect();
        SalvagePool { dialect, dies }
    }

    /// The dialect every die in the pool implements.
    #[must_use]
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// The dies, in id order as constructed.
    #[must_use]
    pub fn dies(&self) -> &[PoolDie] {
        &self.dies
    }

    /// Number of dies in the pool.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dies.len()
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dies.is_empty()
    }

    /// Permanently remove a die (a lane the recovery layer retired).
    /// Returns the die if it was present.
    pub fn retire(&mut self, id: usize) -> Option<PoolDie> {
        let at = self.dies.iter().position(|d| d.id == id)?;
        Some(self.dies.remove(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfab::wafer_run::WaferExperiment;
    use flexicore::sim::{FaultKind, StateElement};

    fn die_with(id: usize, sites: &[(StateElement, u8)]) -> PoolDie {
        PoolDie {
            id,
            faults: sites
                .iter()
                .map(|&(element, bit)| ArchFault {
                    element,
                    bit,
                    kind: FaultKind::StuckAt0,
                })
                .collect(),
            defect_count: sites.len() as u32,
        }
    }

    #[test]
    fn disjointness_ignores_polarity() {
        let a = die_with(0, &[(StateElement::Acc, 1)]);
        let mut b = die_with(1, &[(StateElement::Acc, 1)]);
        b.faults[0].kind = FaultKind::StuckAt1;
        assert!(!a.disjoint_with(&b), "same site, opposite polarity");

        let c = die_with(2, &[(StateElement::Acc, 2)]);
        assert!(a.disjoint_with(&c));
        assert!(c.disjoint_with(&a), "disjointness is symmetric");
        assert!(a.disjoint_with(&PoolDie::clean(3)));
    }

    #[test]
    fn synthetic_pools_are_deterministic() {
        let a = SalvagePool::synthetic(Dialect::Fc4, 12, 7, 3);
        let b = SalvagePool::synthetic(Dialect::Fc4, 12, 7, 3);
        assert_eq!(a.dies(), b.dies());
        assert_eq!(a.len(), 12);
        let c = SalvagePool::synthetic(Dialect::Fc4, 12, 8, 3);
        assert_ne!(a.dies(), c.dies());
    }

    #[test]
    fn wafer_pools_exclude_timing_failures() {
        let exp = WaferExperiment::published(CoreDesign::FlexiCore4);
        let run = exp.run(4.5, 300).unwrap();
        let pool = SalvagePool::from_wafer(&run, CoreDesign::FlexiCore4);
        assert_eq!(pool.dialect(), Dialect::Fc4);
        assert!(!pool.is_empty());

        let timing_failures = run
            .outcomes
            .iter()
            .filter(|o| !o.functional() && o.timing_errors > 0)
            .count();
        assert_eq!(pool.len(), run.outcomes.len() - timing_failures);

        // clean dies carry no faults; defect-limited dies replay theirs
        for die in pool.dies() {
            let outcome = &run.outcomes[die.id];
            assert_eq!(outcome.timing_errors, 0, "timing die leaked into pool");
            if outcome.functional() {
                assert!(die.is_clean());
            }
        }
    }

    #[test]
    fn retirement_shrinks_the_pool() {
        let mut pool = SalvagePool::synthetic(Dialect::Fc8, 5, 1, 2);
        let before = pool.len();
        let gone = pool.retire(2).expect("die 2 exists");
        assert_eq!(gone.id, 2);
        assert_eq!(pool.len(), before - 1);
        assert!(pool.retire(2).is_none(), "already retired");
        assert!(pool.dies().iter().all(|d| d.id != 2));
    }
}
