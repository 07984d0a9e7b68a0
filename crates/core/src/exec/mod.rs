//! The dialect-generic execution engine.
//!
//! Every FlexiCore dialect simulator used to carry its own copy of the
//! step/run loop: fetch, fault-hook threading, decode, halt-idiom
//! detection, cycle accounting and the watchdog budget. This module
//! implements that loop **exactly once**. A dialect plugs in by
//! implementing [`Core`] — decode and execute semantics plus a handful
//! of per-dialect accounting knobs — and inherits the one API that
//! drives it.
//!
//! The layer has two public pieces:
//!
//! * [`Core`] — the compile-time-generic path. Its provided methods
//!   ([`step`](Core::step), [`step_with`](Core::step_with),
//!   [`run`](Core::run), [`run_with`](Core::run_with),
//!   [`resume_with`](Core::resume_with),
//!   [`power_on_faults`](Core::power_on_faults)) are the only way to
//!   drive a concrete simulator (`Fc4Core`, `Fc8Core`, `XaccCore`,
//!   `XlsCore`), so the fault-free path monomorphizes to the same code
//!   the hand-rolled loops compiled to. Generic accessors (PC, cycles,
//!   halt flag, page, program) live on [`ExecState`], reached through
//!   [`Core::state`].
//! * [`AnyCore`] — runtime dialect dispatch. Consumers that used to
//!   `match` on [`Dialect`](crate::isa::Dialect) at every call site
//!   (kernel harness, CLI, fault campaigns, salvage screens, voting
//!   executors) construct one `AnyCore` and use it uniformly.
//!
//! Every run drains through one loop, [`Core::resume_with`]. Batch work
//! — fault campaigns, salvage, N-modular voting — is a map of
//! independent runs over `AnyCore::run_with`, spread across threads by
//! the campaign crates; there is no batched driver. Six things keep
//! that one loop fast:
//!
//! * **Predecoded programs.** Each core decodes its program once, when
//!   it is built (`predecode`), and its clones share the table. A
//!   step whose fetch bus is fault-free reads the instruction from it.
//!   A fetch bus stuck at fixed bits reads the table of the image as
//!   that bus delivers it, built once per mask and shared the same
//!   way. A hook that corrupts the fetch bus otherwise, an address past
//!   the image and an undecodable entry take the raw fetch and decode.
//! * **A short loop-carried chain.** Each drain takes the core and the
//!   hook as its own arguments and keeps the PC and the run accounting
//!   ([`Progress`]) in a local from its first step to its last, writing
//!   them back on every exit, errors included. Each execute arm reports
//!   its instruction's length as a constant ([`Flow`]), so the next PC
//!   waits on the arm the step took, not on a length loaded with the
//!   instruction (DESIGN.md §16.8).
//! * **Quiet stretches.** A hook whose only faults are pending
//!   transient flips does nothing until the first of them can fire
//!   ([`FaultHook::quiet_until`]), and nothing at all once every flip
//!   has fired. `resume_with` runs those stretches on the [`NoFaults`]
//!   path, the same code a fault-free run compiles to, and visits the
//!   hook only while a flip can fire.
//! * **Compiled stuck-at planes.** A steady hook whose faults that can
//!   still act are all stuck-ats on one element hands the loop a
//!   loop-free [`StuckMask`] ([`FaultHook::compiled`]), and the rest of
//!   the run drains on that instead of a walk of the fault list. A mask
//!   on the PC, the accumulator or a data word drains on a hook fixed to
//!   that element's class at compile time, whose state visit is one
//!   masked store and whose port visits fold away; the other elements
//!   keep one `match` on the element per visit. A plane with stuck-ats
//!   on two or more elements stays hooked.
//! * **The fetch latch.** `resume_with` asks the hook once whether it
//!   [`corrupts_fetch`](FaultHook::corrupts_fetch). A hook answering
//!   `false` promises an identity [`FaultHook::on_fetch`] without side
//!   effects, so the loop skips the per-byte call for the whole run.
//!   The public [`Core::step_with`] always fetches and decodes the raw
//!   bytes, visiting `on_fetch` whenever the hook is active, which
//!   keeps plain step loops an independent oracle.
//! * **The exact hang fast-forward.** When the fault hook is steady
//!   ([`FaultHook::is_steady`]) and the input port stationary
//!   ([`InputPort::position`]), a run whose architectural state repeats
//!   is periodic from there to the watchdog, so the rest of it is
//!   computed rather than simulated: accounting advances by whole
//!   periods and each period's output writes are replayed with shifted
//!   cycle stamps. The results equal the plain run-to-watchdog bit for
//!   bit (DESIGN.md §16).

use std::sync::{Arc, Mutex, PoisonError};

use crate::error::SimError;
use crate::io::{InputPort, OutputPort};
use crate::mmu::Mmu;
use crate::program::Program;
use crate::sim::fault::{class, ArchState, FaultHook, NoFaults, StateElement, StuckMask};
use crate::sim::{RunResult, StopReason};
use crate::trace::StepEvent;

mod any;
mod hang;

pub use any::AnyCore;

/// In-page program-counter mask shared by every dialect (the PC is 7
/// bits on all FlexiCores).
pub const PC_MASK: u8 = 0x7F;

/// One decode table: entry `a` holds the instruction [`Core::decode`]
/// returns for the fetch window at byte address `a`, or `None` where that
/// decode fails. The length is not kept: the executed arm reports it
/// ([`Flow`]).
pub type Predecoded<I> = Arc<[Option<I>]>;

/// A program decoded once, when its core is built (`predecode`), and
/// shared by every clone of the core through one `Arc`: the table of
/// the image, and the tables of the image as a stuck fetch bus delivers
/// it, each built the first time a run needs it (`stuck_image`).
#[derive(Debug)]
pub struct Decoded<I> {
    table: Box<[Option<I>]>,
    stuck: Mutex<Vec<StuckImage<I>>>,
}

/// A stuck fetch bus's `(keep, set)` mask and the table of the image it
/// delivers.
type StuckImage<I> = ((u8, u8), Predecoded<I>);

impl<I> Default for Decoded<I> {
    fn default() -> Self {
        Decoded {
            table: Box::new([]),
            stuck: Mutex::default(),
        }
    }
}

/// Decode `program` at every byte address, through `core`'s own
/// [`Core::decode`].
fn decode_image<C: Core, T: FromIterator<Option<C::Insn>>>(core: &C, program: &Program) -> T {
    (0..program.len() as u32)
        .map(|address| {
            let decoded = core.decode(program.window(address), address);
            decoded.ok().map(|(insn, _)| insn)
        })
        .collect()
}

/// Decode `core`'s program once, for the core and its clones to share.
pub(crate) fn predecode<C: Core>(core: &C) -> Arc<Decoded<C::Insn>> {
    Arc::new(Decoded {
        table: decode_image(core, &core.state().program),
        stuck: Mutex::default(),
    })
}

/// The table of `core`'s image with every byte passed through a fetch
/// bus stuck at `(keep, set)`: built on the first call for that mask,
/// then shared by every clone of the core.
fn stuck_image<C: Core>(core: &C, keep: u8, set: u8) -> Predecoded<C::Insn> {
    let mut images = core
        .decoded()
        .stuck
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some((_, table)) = images.iter().find(|(mask, _)| *mask == (keep, set)) {
        return Arc::clone(table);
    }
    let image = core
        .state()
        .program
        .as_bytes()
        .iter()
        .map(|byte| (byte & keep) | set)
        .collect();
    let table: Predecoded<C::Insn> = decode_image(core, &image);
    images.push(((keep, set), Arc::clone(&table)));
    table
}

/// The rest of a run on a compiled plane's mask (DESIGN.md §16.7): on
/// a hook fixed to the element's class for the PC, the accumulator and a
/// data word (§16.8), on the mask itself for the other elements, a stuck
/// fetch bus on the stuck image's table. Out of line, so that the
/// `resume_with` of every hook holds only its own drains.
#[inline(never)]
fn drain_compiled<C: Core, I: InputPort, O: OutputPort>(
    core: &mut C,
    input: &mut I,
    output: &mut O,
    budget: u64,
    mut stuck: StuckMask,
    clean: Fetch<'_, C::Insn>,
) -> Result<(), SimError> {
    match stuck.element() {
        StateElement::Pc => {
            let hook = &mut stuck.on(class::Pc);
            hang::drain(core, hook, input, output, budget, clean)
        }
        StateElement::Acc => {
            let hook = &mut stuck.on(class::Acc);
            hang::drain(core, hook, input, output, budget, clean)
        }
        StateElement::Mem(word) => {
            let hook = &mut stuck.on(class::Mem(word));
            hang::drain(core, hook, input, output, budget, clean)
        }
        _ => {
            let image = stuck
                .fetch_bus()
                .map(|(keep, set)| stuck_image(core, keep, set));
            let fetch = image.as_deref().map_or(clean, Fetch::Table);
            hang::drain(core, &mut stuck, input, output, budget, fetch)
        }
    }
}

/// Where a step takes its instruction from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fetch<'t, I> {
    /// The decode of the bytes the fetch bus delivers: the core's own
    /// table while the bus is fault-free, a stuck image's table while a
    /// compiled hook holds it stuck.
    Table(&'t [Option<I>]),
    /// No table: every step passes the raw bytes through
    /// [`FaultHook::on_fetch`] and decodes what comes back.
    Raw,
}

/// The dialect-independent execution state every [`Core`] embeds: the
/// program image, the off-chip MMU, and the [`Progress`] the engine
/// commits after each step.
#[derive(Debug, Clone)]
pub struct ExecState {
    pub(crate) program: Program,
    pub(crate) mmu: Mmu,
    pub(crate) at: Progress,
}

/// The program counter and the run accounting: the state every step
/// commits. The drains of [`Core::resume_with`] keep it in a local for
/// the length of the drain and write it back to the core on every exit,
/// errors included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Progress {
    pub(crate) pc: u8,
    pub(crate) cycle: u64,
    pub(crate) instructions: u64,
    pub(crate) taken_branches: u64,
    pub(crate) fetched_bytes: u64,
    pub(crate) halted: bool,
}

impl ExecState {
    /// Power-on state with `program` loaded.
    #[must_use]
    pub fn new(program: Program) -> Self {
        ExecState {
            program,
            mmu: Mmu::new(),
            at: Progress::default(),
        }
    }

    /// Current program counter (7 bits, in-page).
    #[must_use]
    pub fn pc(&self) -> u8 {
        self.at.pc
    }

    /// Elapsed clock cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.at.cycle
    }

    /// Retired instruction count.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.at.instructions
    }

    /// Taken control transfers retired.
    #[must_use]
    pub fn taken_branches(&self) -> u64 {
        self.at.taken_branches
    }

    /// Program-memory bytes fetched.
    #[must_use]
    pub fn fetched_bytes(&self) -> u64 {
        self.at.fetched_bytes
    }

    /// Whether the halt idiom has been reached.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.at.halted
    }

    /// The currently selected MMU page.
    #[must_use]
    pub fn page(&self) -> u8 {
        self.mmu.page()
    }

    /// The loaded program image.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Snapshot the accounting as a [`RunResult`].
    #[must_use]
    pub fn run_result(&self) -> RunResult {
        let at = &self.at;
        RunResult {
            cycles: at.cycle,
            instructions: at.instructions,
            taken_branches: at.taken_branches,
            fetched_bytes: at.fetched_bytes,
            stop: if at.halted {
                StopReason::Halted
            } else {
                StopReason::CycleLimit
            },
        }
    }
}

/// How one run left the engine: the three ways a drain to the halt
/// idiom or the watchdog can end, for consumers that keep the ending of
/// many independent runs (voting lanes, mission dies).
#[derive(Debug, Clone, PartialEq)]
pub enum LaneStatus {
    /// Reached the halt idiom; accounting snapshot attached.
    Done(RunResult),
    /// Exhausted its watchdog budget without halting.
    Hung(RunResult),
    /// The simulator faulted (illegal instruction, bad fetch, …).
    Faulted(SimError),
}

impl LaneStatus {
    /// Classify what a `run`/`run_with` call returned.
    #[must_use]
    pub fn of(run: Result<RunResult, SimError>) -> Self {
        match run {
            Ok(r) if r.halted() => LaneStatus::Done(r),
            Ok(r) => LaneStatus::Hung(r),
            Err(e) => LaneStatus::Faulted(e),
        }
    }
}

/// A checkpoint of one core's full architectural state, excluding the
/// (immutable) program image: the shared [`ExecState`] accounting, the
/// off-chip MMU, and the dialect-private registers flattened into a
/// common layout. Cores are tiny — a snapshot is a few dozen bytes —
/// so checkpointing every K instructions is cheap enough for
/// rollback-recovery executors to take for granted.
///
/// Produced by [`Core::snapshot`]; consumed by [`Core::restore`]. A
/// snapshot only round-trips through a core of the same dialect running
/// the same program (restore does not touch the program image).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Snapshot {
    /// The off-chip MMU (page register, transducer state, delay line).
    pub mmu: Mmu,
    /// Program counter (7 bits, in-page).
    pub pc: u8,
    /// Elapsed clock cycles.
    pub cycle: u64,
    /// Retired instruction count.
    pub instructions: u64,
    /// Taken control transfers retired.
    pub taken_branches: u64,
    /// Program-memory bytes fetched.
    pub fetched_bytes: u64,
    /// Whether the halt idiom had been reached.
    pub halted: bool,
    /// Accumulator (0 on the accumulator-less load-store dialect).
    pub acc: u8,
    /// Link register (0 on dialects without subroutine support).
    pub ra: u8,
    /// Dialect-private flags packed into one byte (carry on the
    /// extended-accumulator dialect; N/Z/P/C on load-store; 0 on the
    /// fabricated dialects, which have no flags).
    pub flags: u8,
    /// Data memory words, or the register file on load-store.
    pub mem: Vec<u8>,
}

impl Snapshot {
    fn empty() -> Self {
        Snapshot {
            mmu: Mmu::new(),
            pc: 0,
            cycle: 0,
            instructions: 0,
            taken_branches: 0,
            fetched_bytes: 0,
            halted: false,
            acc: 0,
            ra: 0,
            flags: 0,
            mem: Vec::new(),
        }
    }
}

/// What an executed instruction did to control flow, and its encoded
/// length in bytes. The engine owns the PC commit, the accounting and the
/// halt-idiom check; execute bodies only report.
///
/// Each execute arm names its instruction's length as a constant, so the
/// next PC waits on the arm the step took, not on a length loaded with
/// the instruction (DESIGN.md §16.8). It must equal the length
/// [`Core::decode`] returns for the instruction: `crates/core/tests/
/// step_commit.rs` holds the two equal on every one- and two-byte window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to the next instruction.
    Sequential {
        /// Encoded length of the executed instruction.
        len: u8,
    },
    /// A taken control transfer.
    Jump {
        /// Encoded length of the executed instruction.
        len: u8,
        /// In-page target address (masked to [`PC_MASK`] by the engine).
        target: u8,
    },
}

/// One dialect's contribution to the execution engine: decode and
/// execute semantics, plus the per-dialect accounting conventions the
/// engine needs to reproduce each simulator's historical numbers.
pub trait Core: Sized {
    /// The decoded instruction type.
    type Insn: Copy;

    /// How many bytes of the fetch window cross the fetch bus per step
    /// (1 for single-byte dialects, 2 for the two-byte ones). Governs
    /// how many [`FaultHook::on_fetch`] calls a step makes, so fault
    /// campaigns stay bit-for-bit reproducible across the migration.
    const FETCH_WINDOW: usize;

    /// The shared execution state.
    fn state(&self) -> &ExecState;

    /// The shared execution state, mutably.
    fn state_mut(&mut self) -> &mut ExecState;

    /// Translate the page-extended program counter into a byte fetch
    /// address. Identity except for instruction-indexed PCs (the
    /// load-store dialect fetches at `2 * pc`).
    fn fetch_address(&self, page_pc: u32) -> u32 {
        page_pc
    }

    /// Decode the fetch window into an instruction and its encoded
    /// length in bytes. Includes feature-legality checks, so an
    /// un-synthesized instruction fails exactly here.
    ///
    /// # Errors
    ///
    /// [`SimError::IllegalInstruction`] / [`SimError::TruncatedInstruction`]
    /// per the dialect's decode rules.
    fn decode(&self, window: &[u8], address: u32) -> Result<(Self::Insn, u8), SimError>;

    /// The loaded program decoded once (`predecode`), built when the
    /// core is constructed and shared by its clones.
    fn decoded(&self) -> &Arc<Decoded<Self::Insn>>;

    /// The loaded program decoded at every byte address. The drains of
    /// [`Core::resume_with`] read their instructions here while the
    /// fetch bus is fault-free, instead of decoding.
    #[inline]
    fn predecoded(&self) -> &[Option<Self::Insn>] {
        &self.decoded().table
    }

    /// Execute one decoded instruction, fetched at in-page `pc` in the
    /// step that starts at `cycle` (the stamp of its port visits):
    /// dialect semantics only. State commit (PC, counters, halt
    /// detection) belongs to the engine, which keeps both in locals while
    /// it drains.
    fn execute<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        insn: Self::Insn,
        pc: u8,
        cycle: u64,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Flow;

    /// Clock cycles one instruction of encoded length `len` costs
    /// (FlexiCore8's two-byte `LOAD BYTE` pays one cycle per fetch
    /// beat; everything else is single-cycle at the ISA level).
    /// `resume_with`'s quiet stretches bound cycles against a budget
    /// that counts instructions on xacc/xls, so every instruction there
    /// must cost 1.
    fn insn_cycles(len: u8) -> u64 {
        let _ = len;
        1
    }

    /// Sequential PC increment for an instruction of encoded length
    /// `len` (byte-indexed PCs advance by `len`; the instruction-indexed
    /// load-store PC advances by 1).
    fn pc_increment(len: u8) -> u8 {
        len
    }

    /// The quantity the watchdog budget is measured in: elapsed cycles
    /// on FlexiCore4/8, retired instructions on the extended dialects.
    fn budget_spent(at: &Progress) -> u64 {
        at.cycle
    }

    /// The dialect's architectural state view for
    /// [`FaultHook::on_state`], around the program counter `pc` (the
    /// core's own, or the local a drain holds it in).
    fn arch_state<'a>(&'a mut self, pc: &'a mut u8) -> ArchState<'a>;

    /// The accumulator value reported in [`StepEvent::acc`] (0 for
    /// accumulator-less dialects).
    fn event_acc(&self) -> u8 {
        0
    }

    /// Copy the dialect-private architectural state (accumulator,
    /// flags, link register, data memory / register file) into `snap`.
    /// The engine-owned fields of `snap` are already filled by
    /// [`Core::snapshot`].
    fn save_arch(&self, snap: &mut Snapshot);

    /// Restore the dialect-private architectural state from `snap`,
    /// mirroring [`Core::save_arch`].
    fn load_arch(&mut self, snap: &Snapshot);

    /// `true` when the dialect-private architectural state equals what
    /// [`Core::save_arch`] wrote into `snap`, compared in place without
    /// building a snapshot. The hang fast-forward's repeat test.
    fn same_regs(&self, snap: &Snapshot) -> bool;

    /// Checkpoint the full architectural state (shared execution state,
    /// MMU, and dialect registers). The program image is *not* captured
    /// — it is immutable, and snapshots stay a few dozen bytes.
    #[must_use]
    fn snapshot(&self) -> Snapshot {
        let state = self.state();
        let at = state.at;
        let mut snap = Snapshot::empty();
        snap.mmu = state.mmu;
        snap.pc = at.pc;
        snap.cycle = at.cycle;
        snap.instructions = at.instructions;
        snap.taken_branches = at.taken_branches;
        snap.fetched_bytes = at.fetched_bytes;
        snap.halted = at.halted;
        self.save_arch(&mut snap);
        snap
    }

    /// Roll the core back to a previously taken [`Core::snapshot`]. The
    /// program image is untouched; `snap` must come from a core of the
    /// same dialect (same memory geometry) running the same program.
    fn restore(&mut self, snap: &Snapshot) {
        let state = self.state_mut();
        state.mmu = snap.mmu;
        state.at = Progress {
            pc: snap.pc,
            cycle: snap.cycle,
            instructions: snap.instructions,
            taken_branches: snap.taken_branches,
            fetched_bytes: snap.fetched_bytes,
            halted: snap.halted,
        };
        self.load_arch(snap);
    }

    /// Execute one instruction.
    ///
    /// # Errors
    ///
    /// * [`SimError::PageOutOfRange`] if a (corrupted) nonzero page
    ///   register selects a page beyond the program image,
    /// * [`SimError::FetchOutOfBounds`] if the fetch address is outside
    ///   the program image,
    /// * [`SimError::IllegalInstruction`] /
    ///   [`SimError::TruncatedInstruction`] from the dialect's decode.
    fn step<I: InputPort, O: OutputPort>(
        &mut self,
        input: &mut I,
        output: &mut O,
    ) -> Result<StepEvent, SimError> {
        self.step_with(input, output, &mut NoFaults)
    }

    /// [`step`](Core::step) with a fault-injection hook. Fetches and
    /// decodes the raw bytes, visiting [`FaultHook::on_fetch`] whenever
    /// the hook is active, whatever it answers to
    /// [`corrupts_fetch`](FaultHook::corrupts_fetch) or
    /// [`compiled`](FaultHook::compiled), so a plain step loop stays an
    /// independent oracle for the drain loop and its decode tables.
    ///
    /// # Errors
    ///
    /// Same contract as [`Core::step`]; a corrupted fetch may surface as
    /// [`SimError::IllegalInstruction`].
    #[inline]
    fn step_with<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Result<StepEvent, SimError> {
        let mut at = self.state().at;
        let event = step(self, faults, &mut at, input, output, Fetch::Raw);
        self.state_mut().at = at;
        event
    }

    /// Run until the halt idiom or until the watchdog `budget` expires
    /// (cycles or retired instructions, per [`Core::budget_spent`]).
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Core::step`].
    fn run<I: InputPort, O: OutputPort>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
    ) -> Result<RunResult, SimError> {
        self.run_with(input, output, budget, &mut NoFaults)
    }

    /// [`run`](Core::run) with a fault-injection hook. State faults are
    /// applied once before the first fetch (a stuck power-on bit) and
    /// after every retired instruction.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Core::step_with`].
    fn run_with<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
        faults: &mut F,
    ) -> Result<RunResult, SimError> {
        self.power_on_faults(faults);
        self.resume_with(input, output, budget, faults)
    }

    /// The run loop without the power-on state-fault visit: drive an
    /// already-powered-on core until the halt idiom or until `budget`
    /// expires. Every run in the stack drains here — `run_with` after
    /// its power-on visit, and deadline-sliced or checkpointed callers
    /// once per slice.
    ///
    /// The hook's [`corrupts_fetch`](FaultHook::corrupts_fetch) answer
    /// is latched once per call: a hook that leaves the fetch bus alone
    /// is not visited per fetched byte. Every stretch in which the hook
    /// provably does nothing — before its first pending flip can fire
    /// ([`quiet_until`](FaultHook::quiet_until)), and all of the run once
    /// it has nothing left to do — runs on the fault-free path. A steady
    /// hook that [`compiles`](FaultHook::compiled) runs the rest of the
    /// run on its [`StuckMask`], a stuck fetch bus on the table of the
    /// stuck image. A run that settles into a loop it can never leave is
    /// fast-forwarded to the watchdog rather than simulated to it. All
    /// of these give identical results (see DESIGN.md §16).
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Core::step_with`].
    fn resume_with<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
        faults: &mut F,
    ) -> Result<RunResult, SimError> {
        // the table's own handle, so that the drains read it from a
        // local rather than through the core they mutate
        let decoded = Arc::clone(self.decoded());
        let clean = Fetch::Table(&decoded.table);
        if !F::ACTIVE {
            hang::drain(self, faults, input, output, budget, clean)?;
            return Ok(self.state().run_result());
        }
        let fetch = if faults.corrupts_fetch() {
            Fetch::Raw
        } else {
            clean
        };
        // A step that starts at cycle `pre` stamps its hook visits at
        // most `pre + reach`: port visits `pre`, fetch beats `pre + i`
        // for `i < FETCH_WINDOW`, the state visit the post-step cycle
        // (`pre + 2` after FlexiCore8's two-cycle `LOAD BYTE`). So it
        // runs hook-free while `pre + reach < quiet_until()`.
        let window = Self::FETCH_WINDOW as u64;
        let reach = window.max(Self::insn_cycles(Self::FETCH_WINDOW as u8));
        // steps an armed hook runs before it is asked again, doubling
        // while a flip waits for its port or bus
        let mut armed = 1u64;
        while hang::runs(self, budget) {
            let spent = hang::spent(self);
            let cycle = self.state().at.cycle;
            // the quiet bound is in cycles, the watchdog in budget units
            debug_assert_eq!(spent, cycle, "every dialect's watchdog counts cycles");
            let at = faults.quiet_until();
            let quiet = if at == u64::MAX && faults.is_steady() {
                budget
            } else {
                at.saturating_sub(reach)
            };
            if cycle < quiet {
                hang::drain(self, &mut NoFaults, input, output, quiet.min(budget), clean)?;
                armed = 1;
            } else if let Some(stuck) = faults.is_steady().then(|| faults.compiled()).flatten() {
                drain_compiled(self, input, output, budget, stuck, clean)?;
            } else {
                let bound = if faults.is_steady() {
                    budget
                } else {
                    spent.saturating_add(armed).min(budget)
                };
                hang::drain(self, faults, input, output, bound, fetch)?;
                armed = armed.saturating_mul(2);
            }
        }
        Ok(self.state().run_result())
    }

    /// Apply state faults once at the current cycle — the "stuck
    /// power-on bit" visit [`run_with`](Core::run_with) makes before the
    /// first fetch. Callers that step or
    /// [`resume_with`](Core::resume_with) a core themselves call this
    /// once first, so their runs match `run_with` exactly.
    fn power_on_faults<F: FaultHook>(&mut self, faults: &mut F) {
        if F::ACTIVE {
            let mut at = self.state().at;
            faults.on_state(at.cycle, &mut self.arch_state(&mut at.pc));
            self.state_mut().at = at;
        }
    }
}

/// The one step shared by every dialect: fetch (with fault
/// corruption), decode, execute, commit. The PC and the run accounting
/// are `at`, which the caller holds in a local and writes back to the
/// core: [`Core::step_with`] around its one step, the drains of
/// [`Core::resume_with`] once per drain (`hang`). Nothing the step calls
/// reads them from the core.
///
/// The instruction comes from `fetch`'s table when it has an entry for
/// the address. A step that finds it there skips
/// [`FaultHook::on_fetch`], which is exact for a hook that answered
/// `false` to [`corrupts_fetch`](FaultHook::corrupts_fetch) (its
/// `on_fetch` is the identity, free of side effects) and for a compiled
/// mask on the stuck image's table.
#[inline(always)]
pub(crate) fn step<C, F, I, O>(
    core: &mut C,
    faults: &mut F,
    at: &mut Progress,
    input: &mut I,
    output: &mut O,
    fetch: Fetch<'_, C::Insn>,
) -> Result<StepEvent, SimError>
where
    C: Core,
    F: FaultHook,
    I: InputPort,
    O: OutputPort,
{
    let state = core.state_mut();
    state.mmu.tick();
    let page = state.mmu.page();
    let page_pc = state.mmu.extend(at.pc);
    let start_cycle = at.cycle;
    let address = core.fetch_address(page_pc);

    // Corrupt-page guard: a page whose first byte lies beyond the image
    // can only come from a corrupted page register or pending-commit
    // latch (software cannot branch to code that was never programmed),
    // so it surfaces as its own recoverable fault rather than a generic
    // out-of-bounds fetch. Page 0 is exempt — running off the end of an
    // unpaged program keeps its historical `FetchOutOfBounds`
    // classification.
    if page != 0 {
        let base = core.fetch_address(u32::from(page) << 7) as usize;
        if base >= core.state().program.len() {
            return Err(SimError::PageOutOfRange {
                page,
                program_len: core.state().program.len(),
            });
        }
    }

    // A fault-free fetch bus delivers the image's bytes and a stuck one
    // the stuck image's, so the chosen table's entry is the decode. An
    // address past the image or an entry whose decode failed takes the
    // raw path, which builds the error.
    let table = match fetch {
        Fetch::Table(table) => table,
        Fetch::Raw => &[],
    };
    let insn = match table.get(address as usize).copied().flatten() {
        Some(insn) => insn,
        None => {
            let window = core.state().program.window(address);
            if window.is_empty() {
                return Err(SimError::FetchOutOfBounds {
                    address,
                    program_len: core.state().program.len(),
                });
            }
            let mut fetch_buf = [0u8; 2];
            // only errors come here from a table, so visiting an
            // identity `on_fetch` costs nothing that matters
            let window: &[u8] = if F::ACTIVE {
                let n = window.len().min(C::FETCH_WINDOW);
                for (i, b) in window[..n].iter().enumerate() {
                    fetch_buf[i] = faults.on_fetch(start_cycle + i as u64, *b);
                }
                &fetch_buf[..n]
            } else {
                window
            };
            core.decode(window, address)?.0
        }
    };

    let (len, jump) = match core.execute(insn, at.pc, start_cycle, input, output, faults) {
        Flow::Sequential { len } => (len, None),
        Flow::Jump { len, target } => (len, Some(target & PC_MASK)),
    };
    let cycles = C::insn_cycles(len);
    let mut next_pc = at.pc.wrapping_add(C::pc_increment(len)) & PC_MASK;
    if let Some(target) = jump {
        if target == at.pc {
            at.halted = true;
        }
        next_pc = target;
        at.taken_branches = at.taken_branches.saturating_add(1);
    }
    at.pc = next_pc;
    // saturating: a fast-forwarded unbounded watchdog can carry the
    // counters to their ceiling
    at.cycle = at.cycle.saturating_add(cycles);
    at.instructions = at.instructions.saturating_add(1);
    at.fetched_bytes = at.fetched_bytes.saturating_add(u64::from(len));
    if F::ACTIVE {
        faults.on_state(at.cycle, &mut core.arch_state(&mut at.pc));
    }

    Ok(StepEvent {
        cycle: start_cycle,
        address,
        next_pc: at.pc,
        acc: core.event_acc(),
        cycles,
        taken_branch: jump.is_some(),
        halted: at.halted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ConstInput, RecordingOutput, ScriptedInput};
    use crate::isa::acc::{Cond, Instruction as I4};
    use crate::isa::features::FeatureSet;
    use crate::isa::Dialect;
    use crate::sim::fault::{ArchFault, FaultKind, FaultPlane, StateElement};

    fn fc4_core(insns: &[I4]) -> AnyCore {
        let program =
            Program::from_bytes(insns.iter().flat_map(|i| i.encode(Dialect::Fc4)).collect());
        AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, program)
    }

    #[test]
    fn budget_exhaustion_hangs_a_run() {
        // spin between two addresses: never the halt idiom
        let mut core = fc4_core(&[
            I4::NandImm { imm: 0 },
            I4::Br {
                cond: Cond::N,
                target: 0,
            },
        ]);
        let run = core.run(&mut ConstInput::new(0), &mut RecordingOutput::new(), 50);
        match LaneStatus::of(run) {
            LaneStatus::Hung(r) => {
                assert!(!r.halted());
                assert_eq!(r.cycles, 50);
            }
            other => panic!("expected Hung, got {other:?}"),
        }
    }

    #[test]
    fn falling_off_the_image_faults_a_run() {
        let mut core = fc4_core(&[I4::AddImm { imm: 1 }]);
        let run = core.run_with(
            &mut ConstInput::new(0),
            &mut RecordingOutput::new(),
            1_000,
            &mut FaultPlane::new(),
        );
        assert!(matches!(
            LaneStatus::of(run),
            LaneStatus::Faulted(SimError::FetchOutOfBounds { .. })
        ));
    }

    #[test]
    fn power_on_faults_apply_before_first_fetch() {
        // PC stuck-at bit 1 on power-on redirects execution to the halt
        // tail at address 2, skipping the store entirely; run_with and a
        // power-on visit followed by resume_with agree
        let insns = [
            I4::AddImm { imm: 5 },
            I4::Store { m: 1 },
            I4::NandImm { imm: 0 },
            I4::Br {
                cond: Cond::N,
                target: 3,
            },
        ];
        let plane = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::Pc,
            bit: 1,
            kind: FaultKind::StuckAt1,
        }]);
        let mut core = fc4_core(&insns);
        let mut output = RecordingOutput::new();
        let run = core.run_with(
            &mut ConstInput::new(0),
            &mut output,
            1_000,
            &mut plane.clone(),
        );
        assert!(matches!(LaneStatus::of(run.clone()), LaneStatus::Done(_)));
        assert!(output.values().is_empty(), "the store was skipped");

        let mut resumed = fc4_core(&insns);
        let mut hook = plane;
        let mut resumed_output = RecordingOutput::new();
        resumed.power_on_faults(&mut hook);
        let again = resumed.resume_with(
            &mut ConstInput::new(0),
            &mut resumed_output,
            1_000,
            &mut hook,
        );
        assert_eq!(again, run);
        assert_eq!(resumed_output.values(), output.values());
    }

    #[test]
    #[allow(clippy::redundant_clone)] // the clone under test is only read
    fn a_stuck_image_is_decoded_once_per_mask_and_shared_by_clones() {
        let AnyCore::Fc4(core) = fc4_core(&[I4::AddImm { imm: 9 }, I4::Load { m: 3 }]) else {
            unreachable!("fc4_core builds a FlexiCore4");
        };
        // built through a clone, then found by the core it was cloned from
        let first = stuck_image(&core.clone(), 0xF7, 0);
        assert!(Arc::ptr_eq(&first, &stuck_image(&core, 0xF7, 0)));
        assert!(!Arc::ptr_eq(&first, &stuck_image(&core, 0xFF, 0x08)));
        let image = core
            .state()
            .program
            .as_bytes()
            .iter()
            .map(|b| b & 0xF7)
            .collect();
        assert_eq!(*first, *crate::sim::fc4::Fc4Core::new(image).predecoded());
    }

    /// Counts fetch-bus visits while promising they are identities.
    struct FetchProbe {
        visits: u64,
    }

    impl FaultHook for FetchProbe {
        fn corrupts_fetch(&self) -> bool {
            false
        }

        fn on_fetch(&mut self, _cycle: u64, byte: u8) -> u8 {
            self.visits += 1;
            byte
        }
    }

    #[test]
    fn fetch_latch_skips_only_the_drain_loop() {
        let echo = [
            I4::Load { m: 0 },
            I4::AddImm { imm: 1 },
            I4::Store { m: 1 },
            I4::NandImm { imm: 0 },
            I4::Br {
                cond: Cond::N,
                target: 4,
            },
        ];
        let mut probe = FetchProbe { visits: 0 };
        let mut core = fc4_core(&echo);
        let mut output = RecordingOutput::new();
        let run = core
            .run_with(
                &mut ScriptedInput::new(vec![2]),
                &mut output,
                1_000,
                &mut probe,
            )
            .unwrap();
        assert!(run.halted());
        assert_eq!(output.values(), vec![3]);
        assert_eq!(probe.visits, 0, "resume latches corrupts_fetch = false");

        let mut stepped = fc4_core(&echo);
        stepped
            .step_with(
                &mut ScriptedInput::new(vec![2]),
                &mut RecordingOutput::new(),
                &mut probe,
            )
            .unwrap();
        assert_eq!(probe.visits, 1, "a single step still visits the fetch bus");
    }
}
