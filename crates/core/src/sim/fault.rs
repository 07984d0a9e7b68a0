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
//! was before the hook existed. A fault plane's quiet stretches, before
//! a pending flip can fire and after the last one has, run on that same
//! code.
//!
//! [`FaultPlane`] is the standard implementation: a set of
//! [`ArchFault`]s, each a permanent stuck-at or a one-shot transient
//! bit flip on one bit of one state element.
//!
//! The fault-site universe is defined here and nowhere else:
//! [`StateElement::all`] lists a dialect's elements in site order and
//! [`StateElement::bits`] gives each one's width. `flexinject::sites`
//! spans them bit by bit for every campaign, and `flexcheck::vuln`
//! classifies them. [`PowerCut`] draws its torn bits with
//! `flexshard::splitmix64`, the workspace's one seed mixer.

use core::fmt;

use crate::exec::PC_MASK;
use crate::isa::Dialect;

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

impl StateElement {
    /// Every element of `dialect`'s fault-site universe, in site order:
    /// PC, accumulator (absent on the load-store dialect), data words,
    /// fetch bus, input port, output port, MMU page register, MMU
    /// pending-commit latch. The MMU elements live on the off-chip
    /// programming board but are fabricated on the same flexible
    /// substrate, so campaigns target them alongside core state.
    ///
    /// The order is part of every seeded campaign's replay contract:
    /// fault draws index into the (element, bit) list this order spans,
    /// so new elements are appended, never inserted.
    pub fn all(dialect: Dialect) -> impl Iterator<Item = StateElement> {
        let acc = dialect.has_accumulator().then_some(StateElement::Acc);
        core::iter::once(StateElement::Pc)
            .chain(acc)
            .chain((0..dialect.mem_words()).map(StateElement::Mem))
            .chain([
                StateElement::FetchBus,
                StateElement::InputPort,
                StateElement::OutputPort,
                StateElement::PageReg,
                StateElement::PagePending,
            ])
    }

    /// The element's width in bits on `dialect`, i.e. how many fault
    /// sites it contributes: the in-page PC is 7 bits and every fetched
    /// byte crosses an 8-bit bus on every dialect, the MMU registers are
    /// [`PAGE_MASK`]-wide, and everything else is a datapath word.
    #[must_use]
    pub fn bits(self, dialect: Dialect) -> u8 {
        match self {
            StateElement::Pc => PC_MASK.count_ones() as u8,
            StateElement::FetchBus => 8,
            StateElement::PageReg | StateElement::PagePending => PAGE_MASK.count_ones() as u8,
            StateElement::Acc
            | StateElement::Mem(_)
            | StateElement::InputPort
            | StateElement::OutputPort => dialect.datapath_bits() as u8,
        }
    }

    /// The element's `(tag, word)` code in the order-sensitive digests
    /// that pin the site universe (`flexinject::sites::enumeration_digest`,
    /// `flexcheck::vuln::VulnReport::digest`): the tag follows [`all`]'s
    /// order and the word is the data-memory index, zero elsewhere.
    ///
    /// [`all`]: StateElement::all
    #[must_use]
    pub fn code(self) -> (u8, u8) {
        match self {
            StateElement::Pc => (0, 0),
            StateElement::Acc => (1, 0),
            StateElement::Mem(word) => (2, word),
            StateElement::FetchBus => (3, 0),
            StateElement::InputPort => (4, 0),
            StateElement::OutputPort => (5, 0),
            StateElement::PageReg => (6, 0),
            StateElement::PagePending => (7, 0),
        }
    }
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
                let mask = flexshard::splitmix64(&mut state) as u16;
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

    /// The first visit stamp at which the hook may act: every visit
    /// stamped earlier is the identity and leaves the hook unchanged.
    /// [`Core::resume_with`](crate::exec::Core::resume_with) runs the
    /// steps whose visits all fall before it on the [`NoFaults`] path,
    /// and once this is `u64::MAX` and the hook
    /// [`is_steady`](FaultHook::is_steady), all of the rest of the run.
    ///
    /// A step that starts at cycle `pre` stamps its port visits `pre`,
    /// its fetch-bus visits `pre + i` for each fetched byte `i`, and its
    /// state visit with the post-step cycle.
    ///
    /// The default `0` ("never quiet") is always sound. [`NoFaults`]
    /// answers `u64::MAX`; [`FaultPlane`] answers `0` while it holds a
    /// stuck-at, `u64::MAX` once every flip has fired, and otherwise the
    /// least cycle among its unfired flips.
    #[inline]
    fn quiet_until(&self) -> u64 {
        0
    }

    /// A loop-free form of this hook for the rest of the run, if it has
    /// one: `Some(mask)` promises that every future visit of this hook
    /// returns what the same visit of `mask` returns and leaves this
    /// hook unchanged. [`Core::resume_with`](crate::exec::Core::resume_with)
    /// asks a steady hook once and drains the rest of the run on the
    /// mask, as it drains a quiet stretch on [`NoFaults`].
    ///
    /// The default `None` ("keep visiting me") is always sound.
    /// [`FaultPlane`] answers `Some` when every fault that can still act
    /// is a stuck-at on one element.
    #[inline]
    fn compiled(&self) -> Option<StuckMask> {
        None
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

    #[inline]
    fn quiet_until(&self) -> u64 {
        u64::MAX
    }
}

/// A concrete set of [`ArchFault`]s implementing [`FaultHook`].
///
/// Stuck-at faults reassert on every hook visit; transient flips fire
/// exactly once per [`reset`](FaultPlane::reset), on the first visit of
/// their element stamped at or after their cycle. So a flip on the PC,
/// the accumulator, a data word or the page register fires on the next
/// state visit, while a port or fetch-bus flip stays armed until its
/// bus is next used, and a pending-latch flip until a page change is in
/// flight.
///
/// A plane of transients only is quiet until its earliest pending flip
/// ([`quiet_until`](FaultHook::quiet_until)), and for good once every
/// flip has fired, so [`Core::resume_with`](crate::exec::Core::resume_with)
/// runs those stretches on the [`NoFaults`] code. A plane whose faults
/// that can still act are all stuck-ats on one element compiles to a
/// [`StuckMask`] ([`compiled`](FaultHook::compiled)), and the engine
/// runs the rest of the run on that instead of walking the fault list
/// at every visit; a plane with stuck-ats on two or more elements stays
/// hooked throughout. [`Core::step_with`](crate::exec::Core::step_with)
/// always visits the plane itself. An empty plane is
/// quiet from the start and behaves identically to [`NoFaults`]
/// (enforced by the `zero_fault_plane_is_bit_for_bit_transparent`
/// property test).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlane {
    faults: Faults,
    fired: Fired,
}

/// A plane's fault list: a single fault is held inline, so a
/// single-fault plane ([`FaultPlane::one`]) allocates nothing; two or
/// more all live in `more`.
#[derive(Debug, Clone, Default)]
struct Faults {
    one: Option<ArchFault>,
    more: Vec<ArchFault>,
}

impl Faults {
    fn new(faults: Vec<ArchFault>) -> Self {
        match faults[..] {
            [] => Faults::default(),
            [one] => Faults {
                one: Some(one),
                more: Vec::new(),
            },
            _ => Faults {
                one: None,
                more: faults,
            },
        }
    }

    fn push(&mut self, fault: ArchFault) {
        match self.one.take() {
            Some(first) => self.more = vec![first, fault],
            None if self.more.is_empty() => self.one = Some(fault),
            None => self.more.push(fault),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[ArchFault] {
        if self.more.is_empty() {
            self.one.as_slice()
        } else {
            &self.more
        }
    }
}

impl PartialEq for Faults {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Faults {}

/// Which of a plane's faults have fired, one bit per fault: the first
/// [`INLINE`](Self::INLINE) held inline, so a plane of up to that many
/// faults allocates nothing beside its fault list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Fired {
    low: u64,
    high: Vec<bool>,
}

impl Fired {
    const INLINE: usize = 64;

    /// None of `len` faults fired.
    fn new(len: usize) -> Self {
        Fired {
            low: 0,
            high: vec![false; len.saturating_sub(Self::INLINE)],
        }
    }

    /// Room for fault `index`, appended unfired.
    fn push(&mut self, index: usize) {
        if index >= Self::INLINE {
            self.high.push(false);
        }
    }

    #[inline]
    fn get(&self, index: usize) -> bool {
        match index.checked_sub(Self::INLINE) {
            None => self.low >> index & 1 != 0,
            Some(i) => self.high[i],
        }
    }

    #[inline]
    fn set(&mut self, index: usize) {
        match index.checked_sub(Self::INLINE) {
            None => self.low |= 1 << index,
            Some(i) => self.high[i] = true,
        }
    }

    fn clear(&mut self) {
        self.low = 0;
        self.high.fill(false);
    }
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
        let fired = Fired::new(faults.len());
        FaultPlane {
            faults: Faults::new(faults),
            fired,
        }
    }

    /// A plane carrying the one fault `fault`, with no allocation: the
    /// plane of a single-fault campaign trial.
    #[must_use]
    pub fn one(fault: ArchFault) -> Self {
        FaultPlane {
            faults: Faults {
                one: Some(fault),
                more: Vec::new(),
            },
            fired: Fired::new(1),
        }
    }

    /// Add one fault.
    pub fn add(&mut self, fault: ArchFault) {
        self.fired.push(self.faults().len());
        self.faults.push(fault);
    }

    /// The faults carried.
    #[inline]
    #[must_use]
    pub fn faults(&self) -> &[ArchFault] {
        self.faults.as_slice()
    }

    /// `true` if the plane carries no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults().is_empty()
    }

    /// Re-arm transient flips (for re-running the same plane).
    pub fn reset(&mut self) {
        self.fired.clear();
    }

    /// Apply every fault targeting `element` to `value` at `cycle`.
    #[inline]
    fn corrupt(&mut self, element: StateElement, cycle: u64, mut value: u8) -> u8 {
        for (i, fault) in self.faults.as_slice().iter().enumerate() {
            if fault.element != element {
                continue;
            }
            let mask = 1u8 << fault.bit;
            match fault.kind {
                FaultKind::StuckAt0 => value &= !mask,
                FaultKind::StuckAt1 => value |= mask,
                FaultKind::FlipAtCycle(at) => {
                    if cycle >= at && !self.fired.get(i) {
                        value ^= mask;
                        self.fired.set(i);
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
        self.faults()
            .iter()
            .any(|f| f.element == StateElement::FetchBus)
    }

    fn is_steady(&self) -> bool {
        self.faults()
            .iter()
            .enumerate()
            .all(|(i, f)| !matches!(f.kind, FaultKind::FlipAtCycle(_)) || self.fired.get(i))
    }

    fn quiet_until(&self) -> u64 {
        let mut until = u64::MAX;
        for (i, fault) in self.faults.as_slice().iter().enumerate() {
            match fault.kind {
                FaultKind::FlipAtCycle(at) if !self.fired.get(i) => until = until.min(at),
                FaultKind::FlipAtCycle(_) => {}
                FaultKind::StuckAt0 | FaultKind::StuckAt1 => return 0,
            }
        }
        until
    }

    /// Composes the stuck-ats in list order, skipping fired flips; an
    /// unfired flip, or stuck-ats on two elements, keep the plane.
    fn compiled(&self) -> Option<StuckMask> {
        let mut compiled: Option<StuckMask> = None;
        for (i, fault) in self.faults.as_slice().iter().enumerate() {
            let mask = 1u8 << fault.bit;
            let (keep, set) = match fault.kind {
                FaultKind::StuckAt0 => (!mask, 0),
                FaultKind::StuckAt1 => (!0, mask),
                FaultKind::FlipAtCycle(_) if self.fired.get(i) => continue,
                FaultKind::FlipAtCycle(_) => return None,
            };
            let stuck = compiled.get_or_insert(StuckMask {
                element: fault.element,
                keep: !0,
                set: 0,
            });
            if stuck.element != fault.element {
                return None;
            }
            stuck.keep &= keep;
            stuck.set = (stuck.set & keep) | set;
        }
        compiled
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
        for (i, fault) in self.faults.as_slice().iter().enumerate() {
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
                    if cycle >= at && !self.fired.get(i) {
                        *slot ^= mask & width_mask;
                        self.fired.set(i);
                    }
                }
            }
        }
    }
}

/// A stuck-at plane compiled to one element (DESIGN.md §16.7): every
/// visit of `element` returns `(value & keep) | set`, and every other
/// visit is the identity. On state, `set` is masked to the element's
/// width at the visit, as a plane masks each stuck-at-1; on the fetch
/// bus and the ports it is not. Each visit is one `match` on the
/// element, with no loop over faults.
///
/// Built by [`FaultPlane`]'s [`compiled`](FaultHook::compiled), which
/// composes the plane's stuck-ats in list order: a stuck-at-0 on bit
/// `b` clears `b` in both `keep` and `set`, a stuck-at-1 sets it in
/// `set`. The engine drains a mask on the PC, the accumulator or a data
/// word on a hook fixed to that element's class instead (`StuckOn`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckMask {
    element: StateElement,
    keep: u8,
    set: u8,
}

impl StuckMask {
    /// The element the mask holds.
    #[must_use]
    pub(crate) fn element(&self) -> StateElement {
        self.element
    }

    /// The `(keep, set)` masks every fetched byte passes through, or
    /// `None` when the mask leaves the fetch bus alone.
    #[must_use]
    pub(crate) fn fetch_bus(&self) -> Option<(u8, u8)> {
        (self.element == StateElement::FetchBus).then_some((self.keep, self.set))
    }

    /// The mask as a hook fixed to `class`, which must be the class of
    /// the mask's element.
    pub(crate) fn on<S: StateClass>(self, class: S) -> StuckOn<S> {
        StuckOn {
            class,
            keep: self.keep,
            set: self.set,
        }
    }

    #[inline]
    fn bus(&self, element: StateElement, value: u8) -> u8 {
        if self.element == element {
            (value & self.keep) | self.set
        } else {
            value
        }
    }
}

/// Hold the state slot `slot` (with its width mask) at `(keep, set)`,
/// `set` masked to the width; a `None` slot is an element this state
/// does not have.
#[inline(always)]
fn stick(slot: Option<(&mut u8, u8)>, keep: u8, set: u8) {
    if let Some((slot, width)) = slot {
        *slot = (*slot & keep) | (set & width);
    }
}

impl FaultHook for StuckMask {
    #[inline]
    fn is_steady(&self) -> bool {
        true
    }

    #[inline]
    fn on_fetch(&mut self, _cycle: u64, byte: u8) -> u8 {
        self.bus(StateElement::FetchBus, byte)
    }

    #[inline]
    fn on_input(&mut self, _cycle: u64, value: u8) -> u8 {
        self.bus(StateElement::InputPort, value)
    }

    #[inline]
    fn on_output(&mut self, _cycle: u64, value: u8) -> u8 {
        self.bus(StateElement::OutputPort, value)
    }

    #[inline]
    fn on_state(&mut self, _cycle: u64, state: &mut ArchState<'_>) {
        let slot = match self.element {
            StateElement::Pc => class::Pc.slot(state),
            StateElement::Acc => class::Acc.slot(state),
            StateElement::Mem(i) => class::Mem(i).slot(state),
            StateElement::PageReg => Some((&mut *state.page, PAGE_MASK)),
            StateElement::PagePending => state
                .pending_page
                .as_deref_mut()
                .map(|page| (page, PAGE_MASK)),
            StateElement::FetchBus | StateElement::InputPort | StateElement::OutputPort => None,
        };
        stick(slot, self.keep, self.set);
    }
}

/// A class of state element fixed at compile time: where its elements
/// sit in an [`ArchState`], and their width.
pub(crate) trait StateClass: Copy {
    /// The element's slot in `state` and its width mask, or `None` where
    /// the state has no such element (a data word past the dialect's
    /// memory, the load-store dialect's accumulator).
    fn slot<'s>(self, state: &'s mut ArchState<'_>) -> Option<(&'s mut u8, u8)>;
}

/// The state classes a [`StuckOn`] hook is specialised to: the ones a
/// steady single-fault trial holds for most of its steps.
pub(crate) mod class {
    use super::{ArchState, StateClass, PC_MASK};

    /// The program counter.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Pc;

    /// The accumulator.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Acc;

    /// The data word (or register) of this index.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Mem(pub(crate) u8);

    impl StateClass for Pc {
        #[inline(always)]
        fn slot<'s>(self, state: &'s mut ArchState<'_>) -> Option<(&'s mut u8, u8)> {
            Some((&mut *state.pc, PC_MASK))
        }
    }

    impl StateClass for Acc {
        #[inline(always)]
        fn slot<'s>(self, state: &'s mut ArchState<'_>) -> Option<(&'s mut u8, u8)> {
            let width = state.data_mask;
            state.acc.as_deref_mut().map(|acc| (acc, width))
        }
    }

    impl StateClass for Mem {
        #[inline(always)]
        fn slot<'s>(self, state: &'s mut ArchState<'_>) -> Option<(&'s mut u8, u8)> {
            let width = state.data_mask;
            let word = state.mem.get_mut(usize::from(self.0));
            word.map(|word| (word, width))
        }
    }
}

/// A [`StuckMask`] on an element whose class `S` is fixed at compile
/// time (DESIGN.md §16.8): a state visit is one masked store to the
/// class's slot, and the port and fetch-bus visits are the identity, so
/// they fold away. The engine drains a steady mask on the PC, the
/// accumulator or a data word on one of these; the other elements keep
/// the [`StuckMask`] itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StuckOn<S> {
    class: S,
    keep: u8,
    set: u8,
}

impl<S: StateClass> FaultHook for StuckOn<S> {
    #[inline]
    fn corrupts_fetch(&self) -> bool {
        false
    }

    #[inline]
    fn is_steady(&self) -> bool {
        true
    }

    #[inline(always)]
    fn on_state(&mut self, _cycle: u64, state: &mut ArchState<'_>) {
        stick(self.class.slot(state), self.keep, self.set);
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
    fn a_single_fault_is_held_inline_and_spills_on_the_second() {
        let fault = |bit| ArchFault {
            element: StateElement::Acc,
            bit,
            kind: FaultKind::FlipAtCycle(0),
        };
        let one = FaultPlane::one(fault(1));
        assert_eq!(one, FaultPlane::with_faults(vec![fault(1)]));
        assert_eq!(one.faults(), &[fault(1)]);
        assert_eq!(one.faults.more.capacity(), 0);
        let mut grown = FaultPlane::new();
        grown.add(fault(1));
        assert_eq!(grown, one);
        grown.add(fault(2));
        grown.add(fault(3));
        assert_eq!(grown.faults(), &[fault(1), fault(2), fault(3)]);
        assert_eq!(
            grown,
            FaultPlane::with_faults(vec![fault(1), fault(2), fault(3)])
        );
        assert_ne!(grown, one);
        // each of them fires once
        let (mut pc, mut acc, mut mem, mut page) = (0u8, 0u8, [0u8; 4], 0u8);
        grown.on_state(0, &mut state_of(&mut pc, &mut acc, &mut mem, &mut page));
        assert_eq!(acc, 0b1110);
        grown.on_state(1, &mut state_of(&mut pc, &mut acc, &mut mem, &mut page));
        assert_eq!(acc, 0b1110);
    }

    #[test]
    fn flips_past_the_inline_fired_bits_fire_once_and_re_arm() {
        // 70 flips of the output port's bit 0 at cycles 0..70: visit k
        // fires flip k alone, so the value toggles once per visit
        let mut p = FaultPlane::with_faults(
            (0..70)
                .map(|at| ArchFault {
                    element: StateElement::OutputPort,
                    bit: 0,
                    kind: FaultKind::FlipAtCycle(at),
                })
                .collect(),
        );
        for round in 0..2 {
            for cycle in 0..70 {
                assert_eq!(p.on_output(cycle, 0), 1, "round {round}, cycle {cycle}");
            }
            assert!(p.is_steady(), "every flip fired");
            assert_eq!(p.on_output(99, 0), 0, "none fires twice");
            p.reset();
            assert_eq!(p.quiet_until(), 0, "re-armed");
        }
        p.add(ArchFault {
            element: StateElement::OutputPort,
            bit: 1,
            kind: FaultKind::FlipAtCycle(5),
        });
        assert_eq!(p.quiet_until(), 0);
        for cycle in 0..70 {
            p.on_output(cycle, 0);
        }
        assert!(p.is_steady(), "the appended flip fired too");
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
    fn plane_is_quiet_until_its_earliest_pending_flip() {
        let flip = |element, at| ArchFault {
            element,
            bit: 0,
            kind: FaultKind::FlipAtCycle(at),
        };
        assert_eq!(NoFaults.quiet_until(), u64::MAX);
        assert_eq!(FaultPlane::new().quiet_until(), u64::MAX);
        let mut p = FaultPlane::with_faults(vec![
            flip(StateElement::FetchBus, 9),
            flip(StateElement::InputPort, 4),
        ]);
        assert_eq!(p.quiet_until(), 4);
        assert_eq!(p.on_input(3, 0), 0, "a visit before the flip is quiet");
        assert_eq!(p.quiet_until(), 4);
        p.on_input(6, 0);
        assert_eq!(p.quiet_until(), 9, "the fired flip drops out");
        p.on_fetch(9, 0);
        assert_eq!(p.quiet_until(), u64::MAX, "nothing left to fire");
        p.add(ArchFault {
            element: StateElement::Acc,
            bit: 0,
            kind: FaultKind::StuckAt0,
        });
        assert_eq!(p.quiet_until(), 0, "a stuck-at acts on every visit");
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
    fn torn_words_are_pinned() {
        // with old all-zero and new all-one, the torn word is the mask
        // itself: one splitmix64 output per (seed, cut index)
        let pinned: [(u64, [u16; 3]); 4] = [
            (0, [0xCDAF, 0x65F4, 0xAB3C]),
            (1, [0x5CC1, 0x82C9, 0x8064]),
            (0x1234_5678_9ABC_DEF0, [0x50E8, 0x3BDC, 0xCBCA]),
            (u64::MAX, [0x2C20, 0xBD7B, 0xC8EC]),
        ];
        for (seed, words) in pinned {
            for (cut, want) in [0u64, 1, 7].into_iter().zip(words) {
                let mut power = PowerCut::at_write(cut, seed);
                for _ in 0..cut {
                    power.on_write(0x0000, 0xFFFF);
                }
                assert_eq!(
                    power.on_write(0x0000, 0xFFFF),
                    WriteEffect::Torn(want),
                    "seed {seed:#x}, cut at write {cut}"
                );
            }
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
    fn planes_compile_when_every_live_fault_is_a_stuck_at_on_one_element() {
        use FaultKind::{FlipAtCycle, StuckAt0, StuckAt1};
        use StateElement::{Acc, FetchBus, Mem, Pc};
        let fault = |element, bit, kind| ArchFault { element, bit, kind };
        let compiled = |faults: &[ArchFault]| FaultPlane::with_faults(faults.to_vec()).compiled();
        let mask = |element, keep, set| Some(StuckMask { element, keep, set });

        assert_eq!(compiled(&[]), None, "nothing to compile");
        assert_eq!(compiled(&[fault(Acc, 1, StuckAt1)]), mask(Acc, 0xFF, 0x02));
        assert_eq!(compiled(&[fault(Pc, 6, StuckAt0)]), mask(Pc, 0xBF, 0));
        // composed in list order: the later of two stuck-ats on a bit wins
        assert_eq!(
            compiled(&[fault(Acc, 1, StuckAt0), fault(Acc, 1, StuckAt1)]),
            mask(Acc, 0xFD, 0x02)
        );
        assert_eq!(
            compiled(&[fault(Acc, 1, StuckAt1), fault(Acc, 1, StuckAt0)]),
            mask(Acc, 0xFD, 0)
        );
        assert_eq!(
            compiled(&[
                fault(FetchBus, 0, StuckAt1),
                fault(FetchBus, 7, StuckAt0),
                fault(FetchBus, 3, StuckAt1),
            ]),
            mask(FetchBus, 0x7F, 0x09)
        );
        // two elements stay hooked; two data words are two elements
        assert_eq!(
            compiled(&[fault(Acc, 0, StuckAt1), fault(Pc, 0, StuckAt0)]),
            None
        );
        assert_eq!(
            compiled(&[fault(Mem(0), 0, StuckAt1), fault(Mem(1), 0, StuckAt1)]),
            None
        );

        // a pending flip keeps the plane; once fired it drops out
        let mut plane = FaultPlane::with_faults(vec![
            fault(Pc, 2, FlipAtCycle(5)),
            fault(FetchBus, 3, StuckAt0),
        ]);
        assert_eq!(plane.compiled(), None);
        let (mut pc, mut acc, mut mem, mut page) = (0u8, 0u8, [0u8; 4], 0u8);
        plane.on_state(6, &mut state_of(&mut pc, &mut acc, &mut mem, &mut page));
        assert_eq!(pc, 0x4, "the flip fired");
        assert_eq!(plane.compiled(), mask(FetchBus, 0xF7, 0));
        plane.reset();
        assert_eq!(plane.compiled(), None, "re-armed");
    }

    #[test]
    fn a_compiled_plane_visits_like_the_plane() {
        // the width rules: stuck-at-1 past the element's width is inert
        // on state and lands on the ports and the fetch bus
        let elements = [
            StateElement::Pc,
            StateElement::Acc,
            StateElement::Mem(1),
            StateElement::Mem(6),
            StateElement::FetchBus,
            StateElement::InputPort,
            StateElement::OutputPort,
            StateElement::PageReg,
            StateElement::PagePending,
        ];
        for element in elements {
            for bits in [[0u8, 7], [5, 5], [3, 1]] {
                for (first, second) in [
                    (FaultKind::StuckAt0, FaultKind::StuckAt1),
                    (FaultKind::StuckAt1, FaultKind::StuckAt0),
                    (FaultKind::StuckAt1, FaultKind::StuckAt1),
                ] {
                    let mut plane = FaultPlane::with_faults(vec![
                        ArchFault {
                            element,
                            bit: bits[0],
                            kind: first,
                        },
                        ArchFault {
                            element,
                            bit: bits[1],
                            kind: second,
                        },
                    ]);
                    let mut stuck = plane.compiled().expect("one element compiles");
                    for value in [0x00u8, 0x0F, 0x5A, 0xFF] {
                        let what = format!("{element} {bits:?} {first} {second} {value:#x}");
                        assert_eq!(stuck.on_fetch(0, value), plane.on_fetch(0, value), "{what}");
                        assert_eq!(stuck.on_input(0, value), plane.on_input(0, value), "{what}");
                        assert_eq!(
                            stuck.on_output(0, value),
                            plane.on_output(0, value),
                            "{what}"
                        );
                        let visit = |hook: &mut dyn FnMut(&mut ArchState<'_>)| {
                            let (mut pc, mut acc, mut mem) =
                                (value & 0x7F, value & 0xF, [value & 0xF; 4]);
                            let (mut page, mut pending) = (value & 0xF, value >> 4);
                            hook(&mut ArchState {
                                pc: &mut pc,
                                acc: Some(&mut acc),
                                mem: &mut mem,
                                page: &mut page,
                                pending_page: Some(&mut pending),
                                data_mask: 0xF,
                            });
                            (pc, acc, mem, page, pending)
                        };
                        assert_eq!(
                            visit(&mut |state| stuck.on_state(0, state)),
                            visit(&mut |state| plane.on_state(0, state)),
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    /// One value's visits: the fetch bus, the input and the output port,
    /// then the PC, accumulator, page register and pending latch and the
    /// data words after the state visit.
    type Visit = (u8, u8, u8, [u8; 4], Vec<u8>);

    /// What each of `hook`'s four visits returns on `dialect`: the fetch
    /// bus and the ports at every byte, and the state from as many
    /// values, each data word holding its own value so that a visit of
    /// the wrong word shows.
    fn visits<H: FaultHook>(hook: &mut H, dialect: Dialect) -> Vec<Visit> {
        let data_mask = ((1u16 << dialect.datapath_bits()) - 1) as u8;
        let words = usize::from(dialect.mem_words());
        (0..=255u8)
            .map(|value| {
                let (mut pc, mut acc) = (value & PC_MASK, value & data_mask);
                let mut mem: Vec<u8> = (0..words)
                    .map(|word| value.wrapping_add(5 * word as u8) & data_mask)
                    .collect();
                let (mut page, mut pending) = (value & PAGE_MASK, value >> 4);
                hook.on_state(
                    0,
                    &mut ArchState {
                        pc: &mut pc,
                        acc: dialect.has_accumulator().then_some(&mut acc),
                        mem: &mut mem,
                        page: &mut page,
                        pending_page: Some(&mut pending),
                        data_mask,
                    },
                );
                (
                    hook.on_fetch(0, value),
                    hook.on_input(0, value),
                    hook.on_output(0, value),
                    [pc, acc, page, pending],
                    mem,
                )
            })
            .collect()
    }

    #[test]
    fn class_hooks_visit_like_their_mask() {
        let dialects = [
            Dialect::Fc4,
            Dialect::Fc8,
            Dialect::ExtendedAcc,
            Dialect::LoadStore,
        ];
        for dialect in dialects {
            for element in StateElement::all(dialect) {
                for bit in 0..element.bits(dialect) {
                    for kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
                        let fault = ArchFault { element, bit, kind };
                        let mut plane = FaultPlane::one(fault);
                        let mut mask = plane.compiled().expect("one stuck-at compiles");
                        let hooked = match element {
                            StateElement::Pc => visits(&mut mask.on(class::Pc), dialect),
                            StateElement::Acc => visits(&mut mask.on(class::Acc), dialect),
                            StateElement::Mem(i) => visits(&mut mask.on(class::Mem(i)), dialect),
                            _ => continue,
                        };
                        let what = format!("{dialect:?} {fault}");
                        assert_eq!(hooked, visits(&mut mask, dialect), "{what}: the mask");
                        // and the plane itself, whose state walk shares
                        // no code with the classes
                        assert_eq!(hooked, visits(&mut plane, dialect), "{what}: the plane");
                    }
                }
            }
        }
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
