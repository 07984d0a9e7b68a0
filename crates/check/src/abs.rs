//! The abstract domains (DESIGN.md §10.1).
//!
//! Everything is a flat constant-propagation lattice: a component is
//! either a known power-on-reachable constant or ⊤ ("any value"). The
//! lattices are deliberately tiny — each component can rise at most
//! once — so the CFG fixpoint converges in a handful of sweeps even on
//! full 2 KiB images.

use flexicore::mmu::{ESCAPE_1, ESCAPE_2};

/// A 4/8-bit data value: a known constant or ⊤.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Any value.
    Top,
    /// Exactly this value.
    Const(u8),
}

impl AbsVal {
    /// Least upper bound.
    #[must_use]
    pub fn join(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Const(a), AbsVal::Const(b)) if a == b => self,
            _ => AbsVal::Top,
        }
    }

    /// Apply a unary fold, keeping ⊤ sticky.
    #[must_use]
    pub fn map(self, f: impl FnOnce(u8) -> u8) -> AbsVal {
        match self {
            AbsVal::Const(v) => AbsVal::Const(f(v)),
            AbsVal::Top => AbsVal::Top,
        }
    }

    /// Apply a binary fold; ⊤ if either side is ⊤.
    #[must_use]
    pub fn map2(self, other: AbsVal, f: impl FnOnce(u8, u8) -> u8) -> AbsVal {
        match (self, other) {
            (AbsVal::Const(a), AbsVal::Const(b)) => AbsVal::Const(f(a, b)),
            _ => AbsVal::Top,
        }
    }

    /// Whether `value` is a possible concretization.
    #[must_use]
    pub fn admits(self, value: u8) -> bool {
        match self {
            AbsVal::Top => true,
            AbsVal::Const(v) => v == value,
        }
    }
}

/// A boolean: known or ⊤.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsBool {
    /// Either truth value.
    Top,
    /// Exactly this truth value.
    Const(bool),
}

impl AbsBool {
    /// Least upper bound.
    #[must_use]
    pub fn join(self, other: AbsBool) -> AbsBool {
        match (self, other) {
            (AbsBool::Const(a), AbsBool::Const(b)) if a == b => self,
            _ => AbsBool::Top,
        }
    }

    /// Whether `true` is a possible concretization.
    #[must_use]
    pub fn may_true(self) -> bool {
        self != AbsBool::Const(false)
    }

    /// Whether `false` is a possible concretization.
    #[must_use]
    pub fn may_false(self) -> bool {
        self != AbsBool::Const(true)
    }

    /// Three-valued OR.
    #[must_use]
    pub fn or(self, other: AbsBool) -> AbsBool {
        match (self, other) {
            (AbsBool::Const(true), _) | (_, AbsBool::Const(true)) => AbsBool::Const(true),
            (AbsBool::Const(false), AbsBool::Const(false)) => AbsBool::Const(false),
            _ => AbsBool::Top,
        }
    }
}

/// Transducer-state bits for [`AbsMmu`].
const IDLE: u8 = 1;
const SAW1: u8 = 2;
const SAW2: u8 = 4;

/// What one abstract [`AbsMmu::tick`] can do.
#[derive(Debug, Clone)]
pub struct TickOutcomes {
    /// The MMU state on paths where no page change commits this slot
    /// (`None` when a commit is unavoidable).
    pub stay: Option<AbsMmu>,
    /// The committed page value and post-commit MMU state, when a
    /// pending change may reach the end of its delay line.
    pub commit: Option<(AbsVal, AbsMmu)>,
}

/// May-analysis of the off-chip MMU: which transducer states are
/// possible, and which pending page commits are in flight.
///
/// The concrete MMU holds at most one pending commit; the abstract
/// version keeps one possible page value per residual delay so that
/// joining control-flow paths with differently-aged commits stays
/// sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsMmu {
    states: u8,
    /// `slots[d-1]`: a pending commit that fires after `d` more ticks.
    slots: [Option<AbsVal>; 3],
    /// Whether "no pending commit" is possible.
    none_pending: bool,
}

impl AbsMmu {
    /// The power-on MMU: idle, nothing pending.
    #[must_use]
    pub fn poweron() -> Self {
        AbsMmu {
            states: IDLE,
            slots: [None; 3],
            none_pending: true,
        }
    }

    /// Least upper bound; returns whether `self` changed.
    pub fn join_in_place(&mut self, other: &AbsMmu) -> bool {
        let before = *self;
        self.states |= other.states;
        self.none_pending |= other.none_pending;
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            *a = match (*a, *b) {
                (Some(x), Some(y)) => Some(x.join(y)),
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            };
        }
        *self != before
    }

    /// Snoop one output-port value (mirrors `Mmu::observe`). Returns
    /// whether this observe may complete an escape sequence (arm a
    /// page change).
    pub fn observe(&mut self, value: AbsVal) -> bool {
        let may = |v: AbsVal, c: u8| match v {
            AbsVal::Top => true,
            AbsVal::Const(x) => x & 0xF == c,
        };
        let may_not = |v: AbsVal, c: u8| match v {
            AbsVal::Top => true,
            AbsVal::Const(x) => x & 0xF != c,
        };
        let mut next = 0u8;
        let mut armed = false;
        if self.states & IDLE != 0 {
            if may(value, ESCAPE_1) {
                next |= SAW1;
            }
            if may_not(value, ESCAPE_1) {
                next |= IDLE;
            }
        }
        if self.states & SAW1 != 0 {
            if may(value, ESCAPE_2) {
                next |= SAW2;
            }
            if may(value, ESCAPE_1) {
                next |= SAW1;
            }
            if may_not(value, ESCAPE_2) && may_not(value, ESCAPE_1) {
                next |= IDLE;
            }
        }
        if self.states & SAW2 != 0 {
            // the sequence completes: a commit enters the delay line
            armed = true;
            let page = value.map(|v| v & 0xF);
            if self.states == SAW2 {
                // the arm is definite: the concrete MMU overwrites any
                // older pending, so the delay line holds exactly this
                // commit and "nothing pending" is no longer possible
                self.slots = [None, None, Some(page)];
                self.none_pending = false;
            } else {
                self.slots[2] = match self.slots[2] {
                    Some(old) => Some(old.join(page)),
                    None => Some(page),
                };
            }
            next |= IDLE;
        }
        self.states = next;
        armed
    }

    /// Advance the delay line one instruction slot (mirrors
    /// `Mmu::tick`, called at the start of every step).
    #[must_use]
    pub fn tick(&self) -> TickOutcomes {
        let commit = self.slots[0].map(|page| {
            // on the commit path the (single) concrete pending was the
            // one that just fired, so nothing else is in flight
            let after = AbsMmu {
                states: self.states,
                slots: [None; 3],
                none_pending: true,
            };
            (page, after)
        });
        let stay_possible = self.none_pending || self.slots[1].is_some() || self.slots[2].is_some();
        let stay = stay_possible.then(|| AbsMmu {
            states: self.states,
            slots: [self.slots[1], self.slots[2], None],
            none_pending: self.none_pending,
        });
        TickOutcomes { stay, commit }
    }

    /// Whether a pending page change may be in flight.
    #[must_use]
    pub fn may_have_pending(&self) -> bool {
        self.slots.iter().any(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absval_lattice() {
        assert_eq!(AbsVal::Const(3).join(AbsVal::Const(3)), AbsVal::Const(3));
        assert_eq!(AbsVal::Const(3).join(AbsVal::Const(4)), AbsVal::Top);
        assert_eq!(AbsVal::Top.join(AbsVal::Const(4)), AbsVal::Top);
        assert!(AbsVal::Top.admits(9));
        assert!(!AbsVal::Const(1).admits(9));
    }

    #[test]
    fn absbool_or() {
        assert_eq!(AbsBool::Const(true).or(AbsBool::Top), AbsBool::Const(true));
        assert_eq!(AbsBool::Top.or(AbsBool::Const(false)), AbsBool::Top);
        assert_eq!(
            AbsBool::Const(false).or(AbsBool::Const(false)),
            AbsBool::Const(false)
        );
    }

    #[test]
    fn mmu_constant_escape_sequence_arms_and_commits() {
        let mut mmu = AbsMmu::poweron();
        assert!(!mmu.observe(AbsVal::Const(ESCAPE_1)));
        assert!(!mmu.observe(AbsVal::Const(ESCAPE_2)));
        assert!(mmu.observe(AbsVal::Const(5)));
        // three ticks later the commit fires, exactly once
        let t1 = mmu.tick();
        assert!(t1.commit.is_none());
        let t2 = t1.stay.unwrap().tick();
        assert!(t2.commit.is_none());
        let t3 = t2.stay.unwrap().tick();
        // the arm was definite, so after the delay elapses only the
        // commit path remains — no spurious same-page successor
        let (page, after) = t3.commit.expect("commit after three ticks");
        assert_eq!(page, AbsVal::Const(5));
        assert!(!after.may_have_pending());
        assert!(t3.stay.is_none(), "definite commit has no stay path");
    }

    #[test]
    fn mmu_non_escape_values_stay_idle() {
        let mut mmu = AbsMmu::poweron();
        for v in [0u8, 3, 7, 0xD] {
            assert!(!mmu.observe(AbsVal::Const(v)));
        }
        assert_eq!(mmu, AbsMmu::poweron());
    }

    #[test]
    fn mmu_top_values_eventually_arm() {
        let mut mmu = AbsMmu::poweron();
        assert!(!mmu.observe(AbsVal::Top));
        assert!(!mmu.observe(AbsVal::Top));
        // third unknown write may complete E, D, page
        assert!(mmu.observe(AbsVal::Top));
        assert!(mmu.may_have_pending());
    }

    #[test]
    fn mmu_double_escape1_stays_armed() {
        // E E D page must still work (mirrors the concrete transducer)
        let mut mmu = AbsMmu::poweron();
        mmu.observe(AbsVal::Const(ESCAPE_1));
        mmu.observe(AbsVal::Const(ESCAPE_1));
        mmu.observe(AbsVal::Const(ESCAPE_2));
        assert!(mmu.observe(AbsVal::Const(2)));
    }
}
