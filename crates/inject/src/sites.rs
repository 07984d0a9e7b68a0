//! Fault-site enumeration: every (state element, bit) pair a fault can
//! land on, per dialect.
//!
//! The architectural state differs across the four dialects (datapath
//! width, memory depth, presence of an accumulator), so the site list is
//! dialect-specific. Site order is fixed — enumeration order is part of
//! the campaign determinism contract.

use flexicore::isa::Dialect;
use flexicore::sim::{ArchFault, FaultKind, PowerCut, StateElement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The program counter is 7 bits on every dialect (in-page addressing).
pub const PC_BITS: u8 = 7;

/// Every fetched byte crosses an 8-bit bus regardless of datapath width.
pub const FETCH_BITS: u8 = 8;

/// The off-chip MMU page register and its pending-commit latch are four
/// bits on every dialect (§5.1: sixteen 128-instruction pages).
pub const PAGE_BITS: u8 = 4;

/// One injectable location: a single bit of a single state element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSite {
    /// The state element.
    pub element: StateElement,
    /// The bit within it.
    pub bit: u8,
}

impl FaultSite {
    /// Bind a [`FaultKind`] to this site.
    #[must_use]
    pub fn with_kind(self, kind: FaultKind) -> ArchFault {
        ArchFault {
            element: self.element,
            bit: self.bit,
            kind,
        }
    }
}

/// Every injectable (element, bit) site of a dialect, in a fixed order:
/// PC, accumulator, memory words, fetch bus, input port, output port,
/// MMU page register, MMU pending-commit latch — low bit first within
/// each element. The MMU sites live on the off-chip programming board
/// but are fabricated on the same flexible substrate, so campaigns
/// target them alongside core state. New elements are appended so the
/// prefix order (and with it old seeds' draws over old site lists)
/// never changes.
#[must_use]
pub fn enumerate(dialect: Dialect) -> Vec<FaultSite> {
    let width = dialect.datapath_bits() as u8;
    let mut sites = Vec::new();
    let mut push = |element: StateElement, bits: u8| {
        for bit in 0..bits {
            sites.push(FaultSite { element, bit });
        }
    };
    push(StateElement::Pc, PC_BITS);
    if dialect.has_accumulator() {
        push(StateElement::Acc, width);
    }
    for word in 0..dialect.mem_words() {
        push(StateElement::Mem(word), width);
    }
    push(StateElement::FetchBus, FETCH_BITS);
    push(StateElement::InputPort, width);
    push(StateElement::OutputPort, width);
    push(StateElement::PageReg, PAGE_BITS);
    push(StateElement::PagePending, PAGE_BITS);
    sites
}

/// An order-sensitive FNV-1a digest of a dialect's site enumeration.
///
/// Every seeded campaign's fault draws index into [`enumerate`]'s list,
/// so its *order* — not just its contents — is part of the replay
/// contract: an insertion anywhere but the end silently reshuffles
/// every historical seed's draws. This digest pins the order; the
/// regression test below snapshots it per dialect, so a future append
/// must consciously update the snapshot while a reshuffle fails loudly.
#[must_use]
pub fn enumeration_digest(dialect: Dialect) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for site in enumerate(dialect) {
        let (tag, word) = match site.element {
            StateElement::Pc => (0u8, 0u8),
            StateElement::Acc => (1, 0),
            StateElement::Mem(w) => (2, w),
            StateElement::FetchBus => (3, 0),
            StateElement::InputPort => (4, 0),
            StateElement::OutputPort => (5, 0),
            StateElement::PageReg => (6, 0),
            StateElement::PagePending => (7, 0),
        };
        mix(tag);
        mix(word);
        mix(site.bit);
    }
    hash
}

/// Draw `count` stuck-at faults for one manufactured die from its
/// defect seed, mirroring how `flexfab` maps defect draws onto gate-level
/// fault sites: uniform over the architectural site list, polarity by
/// coin flip, all permanent.
#[must_use]
pub fn die_faults(dialect: Dialect, defect_seed: u64, count: u32) -> Vec<ArchFault> {
    let sites = enumerate(dialect);
    let mut rng = StdRng::seed_from_u64(defect_seed);
    (0..count)
        .map(|_| {
            let site = sites[rng.gen_range(0..sites.len())];
            let kind = if rng.gen_bool(0.5) {
                FaultKind::StuckAt0
            } else {
                FaultKind::StuckAt1
            };
            site.with_kind(kind)
        })
        .collect()
}

/// Draw `count` seeded power-cut plans for a reprogramming campaign:
/// each plan arms a supply collapse at a uniform word-write index below
/// `writes_bound` (the store's write budget for one update — staging
/// pages plus commit-control words), with a per-plan torn-bit seed. The
/// draw order is part of the replay contract, exactly like
/// [`enumerate`]'s site order.
#[must_use]
pub fn power_cut_plans(seed: u64, writes_bound: u64, count: usize) -> Vec<PowerCut> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70D0_C0DE);
    (0..count)
        .map(|_| PowerCut::at_write(rng.gen_range(0..writes_bound.max(1)), rng.gen()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_counts_per_dialect() {
        // fc4: pc 7 + acc 4 + 8 words * 4 + fetch 8 + in 4 + out 4
        //      + page 4 + pending 4
        assert_eq!(enumerate(Dialect::Fc4).len(), 7 + 4 + 32 + 8 + 4 + 4 + 8);
        // fc8: pc 7 + acc 8 + 4 words * 8 + fetch 8 + in 8 + out 8
        //      + page 4 + pending 4
        assert_eq!(enumerate(Dialect::Fc8).len(), 7 + 8 + 32 + 8 + 8 + 8 + 8);
        // xacc matches fc4's shape
        assert_eq!(
            enumerate(Dialect::ExtendedAcc).len(),
            enumerate(Dialect::Fc4).len()
        );
        // xls: no accumulator, 8 registers
        assert_eq!(enumerate(Dialect::LoadStore).len(), 7 + 32 + 8 + 4 + 4 + 8);
    }

    #[test]
    fn mmu_sites_are_enumerated_last() {
        // appended after core state so older seeds' draw order over the
        // core-only prefix is unchanged
        for dialect in [
            Dialect::Fc4,
            Dialect::Fc8,
            Dialect::ExtendedAcc,
            Dialect::LoadStore,
        ] {
            let sites = enumerate(dialect);
            let tail = &sites[sites.len() - 8..];
            assert!(tail[..4].iter().all(|s| s.element == StateElement::PageReg));
            assert!(tail[4..]
                .iter()
                .all(|s| s.element == StateElement::PagePending));
        }
    }

    #[test]
    fn sites_are_unique_and_in_range() {
        for dialect in [
            Dialect::Fc4,
            Dialect::Fc8,
            Dialect::ExtendedAcc,
            Dialect::LoadStore,
        ] {
            let sites = enumerate(dialect);
            let unique: std::collections::HashSet<_> = sites.iter().collect();
            assert_eq!(unique.len(), sites.len(), "{dialect:?}");
            for s in &sites {
                let width = match s.element {
                    StateElement::Pc => PC_BITS,
                    StateElement::FetchBus => FETCH_BITS,
                    StateElement::PageReg | StateElement::PagePending => PAGE_BITS,
                    _ => dialect.datapath_bits() as u8,
                };
                assert!(s.bit < width, "{dialect:?} {:?}", s);
            }
        }
    }

    #[test]
    fn mem_sites_are_valid_addresses_on_a_real_core() {
        // every enumerated Mem word must be readable through the checked
        // accessors of the matching simulator (no panicking indexing)
        use flexicore::exec::AnyCore;
        use flexicore::isa::features::FeatureSet;
        use flexicore::program::Program;

        for dialect in [
            Dialect::Fc4,
            Dialect::Fc8,
            Dialect::ExtendedAcc,
            Dialect::LoadStore,
        ] {
            let core = AnyCore::for_dialect(dialect, FeatureSet::revised(), Program::default());
            for s in enumerate(dialect) {
                if let StateElement::Mem(word) = s.element {
                    assert!(
                        core.mem(word).is_some(),
                        "{dialect:?}: Mem({word}) out of range"
                    );
                }
            }
            assert!(core.mem(dialect.mem_words()).is_none(), "{dialect:?}");
        }
    }

    #[test]
    fn power_cut_plans_are_seeded_and_in_bound() {
        let a = power_cut_plans(9, 500, 16);
        let b = power_cut_plans(9, 500, 16);
        assert_eq!(a, b, "same seed, same plans");
        assert_eq!(a.len(), 16);
        for plan in &a {
            assert!(plan.is_armed());
            assert!(plan.cut_index().unwrap() < 500);
        }
        assert_ne!(a, power_cut_plans(10, 500, 16));
        // a degenerate write budget still yields armed, valid plans
        for plan in power_cut_plans(3, 0, 4) {
            assert_eq!(plan.cut_index(), Some(0));
        }
    }

    #[test]
    fn enumeration_order_digests_are_seed_stable() {
        // Snapshots of the (element, bit) enumeration per dialect. A
        // failure here means the site order changed, which reshuffles
        // every seeded campaign's historical draws: append new elements
        // at the end and update the snapshot *only* for dialects whose
        // list actually grew.
        assert_eq!(enumeration_digest(Dialect::Fc4), 0x901C_FCAF_9DBE_C1F4);
        assert_eq!(enumeration_digest(Dialect::Fc8), 0x9A3F_826E_1B23_65D4);
        assert_eq!(
            enumeration_digest(Dialect::ExtendedAcc),
            0x901C_FCAF_9DBE_C1F4,
            "xacc mirrors fc4's architectural shape"
        );
        assert_eq!(
            enumeration_digest(Dialect::LoadStore),
            0x4577_A5F6_E562_B640
        );
    }

    #[test]
    fn die_faults_are_deterministic_and_permanent() {
        let a = die_faults(Dialect::Fc4, 42, 5);
        let b = die_faults(Dialect::Fc4, 42, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a
            .iter()
            .all(|f| matches!(f.kind, FaultKind::StuckAt0 | FaultKind::StuckAt1)));
        let c = die_faults(Dialect::Fc4, 43, 5);
        assert_ne!(a, c);
    }
}
