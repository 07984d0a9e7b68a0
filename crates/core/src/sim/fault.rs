//! Architectural fault injection.
//!
//! The wafer model in `flexfab` injects stuck-at faults at the *gate*
//! level; this module lets the same class of defect be observed at the
//! *architecture* level — which faulty dies still run which programs —
//! by corrupting the architectural state the paper's §4.1 tester can
//! observe: program counter, accumulator, data memory / register file,
//! the instruction fetch bus, and the two IO ports.
//!
//! The [`Core`](crate::exec::Core) trait's `step_with`/`run_with`/
//! `resume_with` methods take a [`FaultHook`], so every simulator runs
//! under one. The plain `step`/`run` entry points pass [`NoFaults`],
//! whose hooks are empty `#[inline]` bodies and whose
//! [`ACTIVE`](FaultHook::ACTIVE) constant is `false`, so after
//! monomorphization the fault-free path compiles to exactly the code it
//! was before the hook existed.
//!
//! [`FaultPlane`] is the standard implementation: a set of
//! [`ArchFault`]s, each a permanent stuck-at or a one-shot transient
//! bit flip on one bit of one state element.

use core::fmt;

/// One architectural state element a fault can land on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StateElement {
    /// The program counter (7 bits, in-page).
    Pc,
    /// The accumulator (absent on the load-store dialect).
    Acc,
    /// A data-memory word (accumulator dialects) or register
    /// (load-store dialect), by index.
    Mem(u8),
    /// The instruction fetch bus: every fetched byte passes through it,
    /// so a stuck bus bit corrupts every beat of every fetch.
    FetchBus,
    /// The input bus, as sampled by IPORT reads.
    InputPort,
    /// The output bus, as driven by OPORT writes (the MMU snoops the
    /// corrupted value, exactly as the external board would).
    OutputPort,
    /// The §5.1 MMU page register (4 bits, on the off-chip programming
    /// board): a corrupted page redirects *every* subsequent fetch.
    PageReg,
    /// The MMU pending-commit latch: the page value recognised by the
    /// escape-sequence transducer while it waits out the "short delay".
    /// Faults here land only while a page change is in flight.
    PagePending,
}

impl fmt::Display for StateElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateElement::Pc => write!(f, "pc"),
            StateElement::Acc => write!(f, "acc"),
            StateElement::Mem(i) => write!(f, "mem[{i}]"),
            StateElement::FetchBus => write!(f, "fetch"),
            StateElement::InputPort => write!(f, "iport"),
            StateElement::OutputPort => write!(f, "oport"),
            StateElement::PageReg => write!(f, "page"),
            StateElement::PagePending => write!(f, "page*"),
        }
    }
}

/// How a fault corrupts its bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Permanent stuck-at-0 (open defect).
    StuckAt0,
    /// Permanent stuck-at-1 (short defect).
    StuckAt1,
    /// Transient single-event upset: the bit is inverted once, at the
    /// first opportunity on or after the given cycle.
    FlipAtCycle(u64),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::StuckAt0 => write!(f, "sa0"),
            FaultKind::StuckAt1 => write!(f, "sa1"),
            FaultKind::FlipAtCycle(c) => write!(f, "flip@{c}"),
        }
    }
}

/// One architectural fault: a [`FaultKind`] on one bit of one
/// [`StateElement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchFault {
    /// Where the fault lands.
    pub element: StateElement,
    /// Which bit (must be inside the element's width for the dialect;
    /// site enumeration in `flexinject` guarantees this).
    pub bit: u8,
    /// Stuck-at or transient flip.
    pub kind: FaultKind,
}

impl fmt::Display for ArchFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{} {}", self.element, self.bit, self.kind)
    }
}

/// What one word write to a persistent store actually committed, once a
/// [`PowerCut`] fault site has had its say.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteEffect {
    /// Power held: the full new value landed.
    Committed(u16),
    /// The supply collapsed *during* this write: an arbitrary mix of
    /// old and new bits landed (a torn word).
    Torn(u16),
    /// Power was already out: the write never happened.
    Lost,
}

impl WriteEffect {
    /// The word value now stored, if the cell was touched at all.
    #[must_use]
    pub fn stored(self) -> Option<u16> {
        match self {
            WriteEffect::Committed(w) | WriteEffect::Torn(w) => Some(w),
            WriteEffect::Lost => None,
        }
    }
}

/// A power-cut fault site on a persistent store's write path.
///
/// The §5.1 reprogramming flow writes the new image into an external
/// store on the flexible programming board; that board is powered by
/// the same marginal supply as the core, so a brown-out can strike at
/// *any word write* of a reprogramming or commit sequence. This site
/// models the canonical NVM failure: the write in flight when power
/// collapses commits an arbitrary mix of old and new bits (a *torn
/// write*), and every later write is lost outright.
///
/// The cut index and the torn-bit pattern are both deterministic
/// functions of the plan, so campaigns replay bit-for-bit. Like
/// [`FaultPlane`], an unarmed plan ([`PowerCut::never`]) is fully
/// transparent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PowerCut {
    /// Word-write index at which the supply collapses, if armed.
    cut_at: Option<u64>,
    /// Seed for the torn-bit mix of the interrupted write.
    torn_seed: u64,
    /// Writes observed so far.
    writes: u64,
    /// Whether the cut has fired.
    fired: bool,
}

/// One round of SplitMix64 — the deterministic torn-bit draw (kept
/// local so the core crate stays free of the vendored `rand`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl PowerCut {
    /// A plan with stable power: every write commits in full.
    #[must_use]
    pub fn never() -> Self {
        PowerCut {
            cut_at: None,
            torn_seed: 0,
            writes: 0,
            fired: false,
        }
    }

    /// A plan that tears the `cut_at`-th word write (0-based) and loses
    /// every write after it, with the torn bits drawn from `torn_seed`.
    #[must_use]
    pub fn at_write(cut_at: u64, torn_seed: u64) -> Self {
        PowerCut {
            cut_at: Some(cut_at),
            torn_seed,
            writes: 0,
            fired: false,
        }
    }

    /// Whether the plan schedules a cut at all.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.cut_at.is_some()
    }

    /// Whether the supply has already collapsed.
    #[must_use]
    pub fn has_fired(&self) -> bool {
        self.fired
    }

    /// The scheduled cut index, if armed.
    #[must_use]
    pub fn cut_index(&self) -> Option<u64> {
        self.cut_at
    }

    /// Word writes observed so far (committed, torn or lost).
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Pass one word write through the site: the store must commit
    /// exactly what this returns.
    pub fn on_write(&mut self, old: u16, new: u16) -> WriteEffect {
        let index = self.writes;
        self.writes += 1;
        if self.fired {
            return WriteEffect::Lost;
        }
        match self.cut_at {
            Some(at) if index >= at => {
                self.fired = true;
                let mut state = self.torn_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mask = splitmix64(&mut state) as u16;
                WriteEffect::Torn((old & !mask) | (new & mask))
            }
            _ => WriteEffect::Committed(new),
        }
    }
}

/// A mutable view of a core's architectural state, handed to
/// [`FaultHook::on_state`] after every retired instruction (and once
/// before the first, from `run_with`).
#[derive(Debug)]
pub struct ArchState<'a> {
    /// Program counter (7 bits; hooks must keep it within `0x7F`).
    pub pc: &'a mut u8,
    /// Accumulator, when the dialect has one.
    pub acc: Option<&'a mut u8>,
    /// Data-memory words or registers.
    pub mem: &'a mut [u8],
    /// The MMU page register (4 bits; hooks must keep it within `0xF`).
    pub page: &'a mut u8,
    /// The MMU pending-commit latch, while a page change is in flight.
    pub pending_page: Option<&'a mut u8>,
    /// The datapath width mask (`0xF` for 4-bit cores, `0xFF` for
    /// FlexiCore8); hooks must not set bits outside it.
    pub data_mask: u8,
}

/// The MMU page register and pending latch are four bits on every
/// dialect (§5.1: "a four-bit register").
pub const PAGE_MASK: u8 = 0xF;

/// Observation/corruption points threaded through every simulator step.
///
/// All hooks default to the identity, so an implementation only
/// overrides the points it cares about.
pub trait FaultHook {
    /// `false` promises the hook never changes anything, letting the
    /// simulators skip fault plumbing entirely at compile time.
    const ACTIVE: bool = true;

    /// Whether this hook may alter bytes on the fetch bus.
    ///
    /// [`Core::resume_with`](crate::exec::Core::resume_with) latches this once
    /// per run: a hook answering `false` promises
    /// [`on_fetch`](FaultHook::on_fetch) is the identity (and free of
    /// side effects), so the run skips the per-byte fetch-bus visit.
    /// The default conservatively mirrors [`ACTIVE`](FaultHook::ACTIVE);
    /// [`FaultPlane`] refines it by checking for actual
    /// [`StateElement::FetchBus`] faults.
    #[inline]
    fn corrupts_fetch(&self) -> bool {
        Self::ACTIVE
    }

    /// Whether the hook is time-invariant from here on: every future
    /// visit's effect depends only on the value it is handed, never on
    /// the cycle stamp or on how many visits came before, and no visit
    /// changes the hook. A deterministic core under a steady hook and a
    /// stationary input is eventually periodic, which is what the
    /// engine's hang fast-forward relies on.
    ///
    /// The default `false` ("never arm the fast-forward") is always
    /// sound. [`NoFaults`] answers `true`; [`FaultPlane`] answers `true`
    /// once every fault is a stuck-at or an already-fired flip.
    #[inline]
    fn is_steady(&self) -> bool {
        false
    }

    /// Corrupt one byte crossing the instruction fetch bus.
    #[inline]
    fn on_fetch(&mut self, cycle: u64, byte: u8) -> u8 {
        let _ = cycle;
        byte
    }

    /// Corrupt a value sampled from the input bus (already masked to
    /// the datapath width).
    #[inline]
    fn on_input(&mut self, cycle: u64, value: u8) -> u8 {
        let _ = cycle;
        value
    }

    /// Corrupt a value driven on the output bus.
    #[inline]
    fn on_output(&mut self, cycle: u64, value: u8) -> u8 {
        let _ = cycle;
        value
    }

    /// Corrupt committed architectural state after an instruction
    /// retires.
    #[inline]
    fn on_state(&mut self, cycle: u64, state: &mut ArchState<'_>) {
        let _ = (cycle, state);
    }
}

/// The fault-free hook: every point is the identity and
/// [`ACTIVE`](FaultHook::ACTIVE) is `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    const ACTIVE: bool = false;

    #[inline]
    fn is_steady(&self) -> bool {
        true
    }
}

/// A concrete set of [`ArchFault`]s implementing [`FaultHook`].
///
/// Stuck-at faults reassert on every hook visit; transient flips fire
/// exactly once per [`reset`](FaultPlane::reset). An empty plane is
/// behaviourally identical to [`NoFaults`] (enforced by the
/// `fault_free_plane_is_transparent` property test) but does not get
/// the compile-time fast path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlane {
    faults: Vec<ArchFault>,
    fired: Vec<bool>,
}

impl FaultPlane {
    /// A plane with no faults (transparent).
    #[must_use]
    pub fn new() -> Self {
        FaultPlane::default()
    }

    /// A plane carrying `faults`.
    #[must_use]
    pub fn with_faults(faults: Vec<ArchFault>) -> Self {
        let fired = vec![false; faults.len()];
        FaultPlane { faults, fired }
    }

    /// Add one fault.
    pub fn add(&mut self, fault: ArchFault) {
        self.faults.push(fault);
        self.fired.push(false);
    }

    /// The faults carried.
    #[must_use]
    pub fn faults(&self) -> &[ArchFault] {
        &self.faults
    }

    /// `true` if the plane carries no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Re-arm transient flips (for re-running the same plane).
    pub fn reset(&mut self) {
        for f in &mut self.fired {
            *f = false;
        }
    }

    /// Apply every fault targeting `element` to `value` at `cycle`.
    #[inline]
    fn corrupt(&mut self, element: StateElement, cycle: u64, mut value: u8) -> u8 {
        for (fault, fired) in self.faults.iter().zip(&mut self.fired) {
            if fault.element != element {
                continue;
            }
            let mask = 1u8 << fault.bit;
            match fault.kind {
                FaultKind::StuckAt0 => value &= !mask,
                FaultKind::StuckAt1 => value |= mask,
                FaultKind::FlipAtCycle(at) => {
                    if cycle >= at && !*fired {
                        value ^= mask;
                        *fired = true;
                    }
                }
            }
        }
        value
    }
}

impl FaultHook for FaultPlane {
    #[inline]
    fn corrupts_fetch(&self) -> bool {
        self.faults
            .iter()
            .any(|f| f.element == StateElement::FetchBus)
    }

    fn is_steady(&self) -> bool {
        self.faults
            .iter()
            .zip(&self.fired)
            .all(|(f, &fired)| fired || !matches!(f.kind, FaultKind::FlipAtCycle(_)))
    }

    #[inline]
    fn on_fetch(&mut self, cycle: u64, byte: u8) -> u8 {
        self.corrupt(StateElement::FetchBus, cycle, byte)
    }

    #[inline]
    fn on_input(&mut self, cycle: u64, value: u8) -> u8 {
        self.corrupt(StateElement::InputPort, cycle, value)
    }

    #[inline]
    fn on_output(&mut self, cycle: u64, value: u8) -> u8 {
        self.corrupt(StateElement::OutputPort, cycle, value)
    }

    fn on_state(&mut self, cycle: u64, state: &mut ArchState<'_>) {
        for (fault, fired) in self.faults.iter().zip(&mut self.fired) {
            let mask = 1u8 << fault.bit;
            let (slot, width_mask) = match fault.element {
                StateElement::Pc => (Some(&mut *state.pc), 0x7Fu8),
                StateElement::Acc => match state.acc.as_deref_mut() {
                    Some(acc) => (Some(acc), state.data_mask),
                    None => (None, 0),
                },
                StateElement::Mem(i) => (state.mem.get_mut(usize::from(i)), state.data_mask),
                StateElement::PageReg => (Some(&mut *state.page), PAGE_MASK),
                StateElement::PagePending => (state.pending_page.as_deref_mut(), PAGE_MASK),
                _ => (None, 0),
            };
            let Some(slot) = slot else { continue };
            match fault.kind {
                FaultKind::StuckAt0 => *slot &= !mask,
                FaultKind::StuckAt1 => *slot |= mask & width_mask,
                FaultKind::FlipAtCycle(at) => {
                    if cycle >= at && !*fired {
                        *slot ^= mask & width_mask;
                        *fired = true;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that do not target the MMU registers park the page register
    /// in a caller-provided scratch byte and leave no pending latch.
    fn state_of<'a>(
        pc: &'a mut u8,
        acc: &'a mut u8,
        mem: &'a mut [u8],
        page: &'a mut u8,
    ) -> ArchState<'a> {
        ArchState {
            pc,
            acc: Some(acc),
            mem,
            page,
            pending_page: None,
            data_mask: 0xF,
        }
    }

    #[test]
    fn empty_plane_is_identity() {
        let mut p = FaultPlane::new();
        assert!(p.is_empty());
        assert_eq!(p.on_fetch(3, 0xAB), 0xAB);
        assert_eq!(p.on_input(3, 0x5), 0x5);
        assert_eq!(p.on_output(3, 0x5), 0x5);
        let (mut pc, mut acc, mut mem, mut page) = (5u8, 9u8, [1u8, 2, 3], 0u8);
        p.on_state(3, &mut state_of(&mut pc, &mut acc, &mut mem, &mut page));
        assert_eq!((pc, acc, mem), (5, 9, [1, 2, 3]));
    }

    #[test]
    fn stuck_bits_reassert_every_visit() {
        let mut p = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::Acc,
            bit: 3,
            kind: FaultKind::StuckAt1,
        }]);
        let (mut pc, mut acc, mut mem, mut page) = (0u8, 0u8, [0u8; 4], 0u8);
        p.on_state(0, &mut state_of(&mut pc, &mut acc, &mut mem, &mut page));
        assert_eq!(acc, 0x8);
        acc = 0x2;
        p.on_state(1, &mut state_of(&mut pc, &mut acc, &mut mem, &mut page));
        assert_eq!(acc, 0xA);
    }

    #[test]
    fn plane_is_steady_once_every_flip_has_fired() {
        let stuck = ArchFault {
            element: StateElement::Acc,
            bit: 0,
            kind: FaultKind::StuckAt1,
        };
        assert!(NoFaults.is_steady());
        assert!(FaultPlane::new().is_steady());
        assert!(FaultPlane::with_faults(vec![stuck]).is_steady());
        let mut p = FaultPlane::with_faults(vec![
            stuck,
            ArchFault {
                element: StateElement::FetchBus,
                bit: 0,
                kind: FaultKind::FlipAtCycle(5),
            },
        ]);
        assert!(!p.is_steady(), "a pending flip still depends on the cycle");
        p.on_fetch(6, 0);
        assert!(p.is_steady(), "a fired flip is inert");
        p.reset();
        assert!(!p.is_steady());
    }

    #[test]
    fn flip_fires_once_on_or_after_cycle() {
        let mut p = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::FetchBus,
            bit: 0,
            kind: FaultKind::FlipAtCycle(5),
        }]);
        assert_eq!(p.on_fetch(4, 0x10), 0x10, "before the trigger cycle");
        assert_eq!(p.on_fetch(7, 0x10), 0x11, "first visit at/after fires");
        assert_eq!(p.on_fetch(8, 0x10), 0x10, "one-shot");
        p.reset();
        assert_eq!(p.on_fetch(9, 0x10), 0x11, "re-armed by reset");
    }

    #[test]
    fn stuck_mem_word_masks_only_its_index() {
        let mut p = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::Mem(2),
            bit: 1,
            kind: FaultKind::StuckAt0,
        }]);
        let (mut pc, mut acc, mut page) = (0u8, 0u8, 0u8);
        let mut mem = [0xFu8; 4];
        p.on_state(0, &mut state_of(&mut pc, &mut acc, &mut mem, &mut page));
        assert_eq!(mem, [0xF, 0xF, 0xD, 0xF]);
    }

    #[test]
    fn acc_fault_is_inert_on_accumulatorless_state() {
        let mut p = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::Acc,
            bit: 0,
            kind: FaultKind::StuckAt1,
        }]);
        let mut pc = 0u8;
        let mut regs = [0u8; 8];
        let mut page = 0u8;
        let mut state = ArchState {
            pc: &mut pc,
            acc: None,
            mem: &mut regs,
            page: &mut page,
            pending_page: None,
            data_mask: 0xF,
        };
        p.on_state(0, &mut state);
        assert_eq!(regs, [0u8; 8]);
        assert_eq!(pc, 0);
    }

    #[test]
    fn out_of_range_mem_index_is_ignored() {
        let mut p = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::Mem(7),
            bit: 0,
            kind: FaultKind::StuckAt1,
        }]);
        let (mut pc, mut acc, mut page) = (0u8, 0u8, 0u8);
        let mut mem = [0u8; 4]; // fc8 has only four words
        p.on_state(0, &mut state_of(&mut pc, &mut acc, &mut mem, &mut page));
        assert_eq!(mem, [0u8; 4]);
    }

    #[test]
    fn stuck_page_register_reasserts_and_masks_to_four_bits() {
        let mut p = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::PageReg,
            bit: 3,
            kind: FaultKind::StuckAt1,
        }]);
        let (mut pc, mut acc, mut mem, mut page) = (0u8, 0u8, [0u8; 4], 0u8);
        p.on_state(0, &mut state_of(&mut pc, &mut acc, &mut mem, &mut page));
        assert_eq!(page, 0x8, "bit 3 stuck high in the page register");
        page = 0x2;
        p.on_state(1, &mut state_of(&mut pc, &mut acc, &mut mem, &mut page));
        assert_eq!(page, 0xA, "reasserted on every visit");
        assert_eq!((pc, acc, mem), (0, 0, [0u8; 4]), "core state untouched");
    }

    #[test]
    fn pending_latch_fault_is_inert_without_a_pending_commit() {
        let mut p = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::PagePending,
            bit: 0,
            kind: FaultKind::StuckAt1,
        }]);
        let (mut pc, mut acc, mut mem, mut page) = (0u8, 0u8, [0u8; 4], 0u8);
        // state_of models the idle MMU: no pending-commit latch exists.
        p.on_state(0, &mut state_of(&mut pc, &mut acc, &mut mem, &mut page));
        assert_eq!(page, 0);

        let mut pending = 0x4u8;
        let mut state = ArchState {
            pc: &mut pc,
            acc: Some(&mut acc),
            mem: &mut mem,
            page: &mut page,
            pending_page: Some(&mut pending),
            data_mask: 0xF,
        };
        p.on_state(1, &mut state);
        assert_eq!(pending, 0x5, "latch corrupted while a commit is in flight");
        assert_eq!(page, 0, "committed page register untouched");
    }

    #[test]
    fn unarmed_power_is_transparent() {
        let mut power = PowerCut::never();
        assert!(!power.is_armed());
        for i in 0..32u16 {
            assert_eq!(power.on_write(0, i), WriteEffect::Committed(i));
        }
        assert!(!power.has_fired());
        assert_eq!(power.writes(), 32);
    }

    #[test]
    fn cut_tears_one_write_and_loses_the_rest() {
        let mut power = PowerCut::at_write(2, 7);
        assert_eq!(power.on_write(0, 0xFFFF), WriteEffect::Committed(0xFFFF));
        assert_eq!(power.on_write(0, 0xFFFF), WriteEffect::Committed(0xFFFF));
        let torn = power.on_write(0x0000, 0xFFFF);
        let WriteEffect::Torn(word) = torn else {
            panic!("write at the cut index must tear, got {torn:?}");
        };
        // the torn word mixes old (0) and new (all-ones) bits; with the
        // operands fully disagreeing any value is admissible, so only
        // the state machine is checked here (torn_bits_mix_only_old_and_new
        // covers the mixing law)
        let _ = word;
        assert!(power.has_fired());
        assert_eq!(power.on_write(0, 0xFFFF), WriteEffect::Lost);
        assert_eq!(power.on_write(0, 0xFFFF), WriteEffect::Lost);
    }

    #[test]
    fn torn_bits_mix_only_old_and_new() {
        // every torn bit must come from either the old or the new word:
        // positions where both agree must survive unchanged
        for seed in 0..64u64 {
            let mut power = PowerCut::at_write(0, seed);
            let (old, new) = (0b1010_1010_1010_1010u16, 0b1010_0101_0101_1010);
            let WriteEffect::Torn(word) = power.on_write(old, new) else {
                panic!("cut at write 0 must tear immediately");
            };
            let agree = !(old ^ new);
            assert_eq!(
                word & agree,
                old & agree,
                "seed {seed}: agreed bits flipped"
            );
        }
    }

    #[test]
    fn power_cut_replays_bit_for_bit() {
        let run = |seed| {
            let mut power = PowerCut::at_write(3, seed);
            (0..8u16).map(|i| power.on_write(i, !i)).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11)[3], run(12)[3], "different seeds tear differently");
    }

    #[test]
    fn corrupts_fetch_tracks_fetch_bus_faults_precisely() {
        assert!(!NoFaults.corrupts_fetch());
        assert!(!FaultPlane::new().corrupts_fetch());
        let acc_only = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::Acc,
            bit: 0,
            kind: FaultKind::StuckAt1,
        }]);
        assert!(!acc_only.corrupts_fetch(), "no FetchBus fault present");
        let fetch = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::FetchBus,
            bit: 2,
            kind: FaultKind::FlipAtCycle(9),
        }]);
        assert!(fetch.corrupts_fetch(), "transients on the bus count too");
    }

    #[test]
    fn display_is_compact() {
        let f = ArchFault {
            element: StateElement::Mem(3),
            bit: 2,
            kind: FaultKind::StuckAt1,
        };
        assert_eq!(f.to_string(), "mem[3].2 sa1");
        let f = ArchFault {
            element: StateElement::Pc,
            bit: 6,
            kind: FaultKind::FlipAtCycle(42),
        };
        assert_eq!(f.to_string(), "pc.6 flip@42");
    }
}
