//! The dialect-generic execution engine.
//!
//! Every FlexiCore dialect simulator used to carry its own copy of the
//! step/run loop: fetch, fault-hook threading, decode, halt-idiom
//! detection, cycle accounting and the watchdog budget. This module
//! implements that loop **exactly once**. A dialect plugs in by
//! implementing [`Core`] — decode and execute semantics plus a handful
//! of per-dialect accounting knobs — and [`Engine`] drives it.
//!
//! The layer has two public pieces:
//!
//! * [`Core`] + [`Engine`] — the compile-time-generic path. Each
//!   simulator (`Fc4Core`, `Fc8Core`, `XaccCore`, `XlsCore`) implements
//!   [`Core`] and forwards its public `step`/`run` API to an [`Engine`],
//!   so the fault-free path monomorphizes to the same code the
//!   hand-rolled loops compiled to.
//! * [`AnyCore`] — runtime dialect dispatch. Consumers that used to
//!   `match` on [`Dialect`](crate::isa::Dialect) at every call site
//!   (kernel harness, CLI, fault campaigns, wafer screens, voting
//!   executors) construct one `AnyCore` and use it uniformly.
//!
//! Every run drains through one loop, [`Engine::resume`]. Batch work —
//! fault campaigns, salvage, field screens, N-modular voting — is a map
//! of independent runs over `AnyCore::run_with`, spread across threads
//! by the campaign crates; there is no batched driver. Two things keep
//! that one loop fast:
//!
//! * **The fetch latch.** `resume` asks the hook once whether it
//!   [`corrupts_fetch`](FaultHook::corrupts_fetch). A hook answering
//!   `false` promises an identity [`FaultHook::on_fetch`] without side
//!   effects, so the loop skips the per-byte call for the whole run.
//!   The public [`Engine::step`] still visits `on_fetch` whenever the
//!   hook is active, which keeps plain step loops an independent oracle.
//! * **The exact hang fast-forward.** When the fault hook is steady
//!   ([`FaultHook::is_steady`]) and the input port stationary
//!   ([`InputPort::position`]), a run whose architectural state repeats
//!   is periodic from there to the watchdog, so the rest of it is
//!   computed rather than simulated: accounting advances by whole
//!   periods and each period's output writes are replayed with shifted
//!   cycle stamps. The results equal the plain run-to-watchdog bit for
//!   bit (DESIGN.md §16).

use crate::error::SimError;
use crate::io::{InputPort, OutputPort};
use crate::mmu::Mmu;
use crate::program::Program;
use crate::sim::fault::{ArchState, FaultHook, NoFaults};
use crate::sim::{RunResult, StopReason};
use crate::trace::StepEvent;

mod any;
mod hang;

pub use any::AnyCore;

/// In-page program-counter mask shared by every dialect (the PC is 7
/// bits on all FlexiCores).
pub const PC_MASK: u8 = 0x7F;

/// The dialect-independent execution state every [`Core`] embeds: the
/// program image, the off-chip MMU, the program counter, and the run
/// accounting the engine commits after each step.
#[derive(Debug, Clone)]
pub struct ExecState {
    pub(crate) program: Program,
    pub(crate) mmu: Mmu,
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
            pc: 0,
            cycle: 0,
            instructions: 0,
            taken_branches: 0,
            fetched_bytes: 0,
            halted: false,
        }
    }

    /// Current program counter (7 bits, in-page).
    #[must_use]
    pub fn pc(&self) -> u8 {
        self.pc
    }

    /// Elapsed clock cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Retired instruction count.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Taken control transfers retired.
    #[must_use]
    pub fn taken_branches(&self) -> u64 {
        self.taken_branches
    }

    /// Program-memory bytes fetched.
    #[must_use]
    pub fn fetched_bytes(&self) -> u64 {
        self.fetched_bytes
    }

    /// Whether the halt idiom has been reached.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
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
        RunResult {
            cycles: self.cycle,
            instructions: self.instructions,
            taken_branches: self.taken_branches,
            fetched_bytes: self.fetched_bytes,
            stop: if self.halted {
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

    /// `true` when two snapshots agree on everything a program can
    /// observe — PC, MMU, halt flag, and the dialect registers — while
    /// ignoring the run accounting (cycles, retired instructions, …).
    /// Redundant lanes that diverged and reconverged may legitimately
    /// differ in accounting; a voter comparing architectural agreement
    /// must not flag that as divergence.
    #[must_use]
    pub fn same_arch(&self, other: &Snapshot) -> bool {
        self.mmu == other.mmu
            && self.pc == other.pc
            && self.halted == other.halted
            && self.acc == other.acc
            && self.ra == other.ra
            && self.flags == other.flags
            && self.mem == other.mem
    }
}

/// What an executed instruction did to control flow. The engine owns
/// the PC commit and the halt-idiom check; execute bodies only report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to the next instruction.
    Sequential,
    /// A taken control transfer.
    Jump {
        /// In-page target address (masked to [`PC_MASK`] by the engine).
        target: u8,
    },
}

/// One dialect's contribution to the execution engine: decode and
/// execute semantics, plus the per-dialect accounting conventions the
/// engine needs to reproduce each simulator's historical numbers.
pub trait Core {
    /// The decoded instruction type.
    type Insn;

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

    /// Execute one decoded instruction: dialect semantics only. State
    /// commit (PC, counters, halt detection) belongs to the engine.
    fn execute<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        insn: Self::Insn,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Flow;

    /// Clock cycles one instruction of encoded length `len` costs
    /// (FlexiCore8's two-byte `LOAD BYTE` pays one cycle per fetch
    /// beat; everything else is single-cycle at the ISA level).
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
    fn budget_spent(state: &ExecState) -> u64 {
        state.cycle
    }

    /// The dialect's architectural state view for
    /// [`FaultHook::on_state`].
    fn arch_state(&mut self) -> ArchState<'_>;

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
        let mut snap = Snapshot::empty();
        snap.mmu = state.mmu;
        snap.pc = state.pc;
        snap.cycle = state.cycle;
        snap.instructions = state.instructions;
        snap.taken_branches = state.taken_branches;
        snap.fetched_bytes = state.fetched_bytes;
        snap.halted = state.halted;
        self.save_arch(&mut snap);
        snap
    }

    /// Roll the core back to a previously taken [`Core::snapshot`]. The
    /// program image is untouched; `snap` must come from a core of the
    /// same dialect (same memory geometry) running the same program.
    fn restore(&mut self, snap: &Snapshot) {
        let state = self.state_mut();
        state.mmu = snap.mmu;
        state.pc = snap.pc;
        state.cycle = snap.cycle;
        state.instructions = snap.instructions;
        state.taken_branches = snap.taken_branches;
        state.fetched_bytes = snap.fetched_bytes;
        state.halted = snap.halted;
        self.load_arch(snap);
    }
}

impl<C: Core> Core for &mut C {
    type Insn = C::Insn;
    const FETCH_WINDOW: usize = C::FETCH_WINDOW;

    #[inline]
    fn state(&self) -> &ExecState {
        (**self).state()
    }

    #[inline]
    fn state_mut(&mut self) -> &mut ExecState {
        (**self).state_mut()
    }

    #[inline]
    fn fetch_address(&self, page_pc: u32) -> u32 {
        (**self).fetch_address(page_pc)
    }

    #[inline]
    fn decode(&self, window: &[u8], address: u32) -> Result<(Self::Insn, u8), SimError> {
        (**self).decode(window, address)
    }

    #[inline]
    fn execute<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        insn: Self::Insn,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Flow {
        (**self).execute(insn, input, output, faults)
    }

    #[inline]
    fn insn_cycles(len: u8) -> u64 {
        C::insn_cycles(len)
    }

    #[inline]
    fn pc_increment(len: u8) -> u8 {
        C::pc_increment(len)
    }

    #[inline]
    fn budget_spent(state: &ExecState) -> u64 {
        C::budget_spent(state)
    }

    #[inline]
    fn arch_state(&mut self) -> ArchState<'_> {
        (**self).arch_state()
    }

    #[inline]
    fn event_acc(&self) -> u8 {
        (**self).event_acc()
    }

    #[inline]
    fn save_arch(&self, snap: &mut Snapshot) {
        (**self).save_arch(snap);
    }

    #[inline]
    fn load_arch(&mut self, snap: &Snapshot) {
        (**self).load_arch(snap);
    }

    #[inline]
    fn same_regs(&self, snap: &Snapshot) -> bool {
        (**self).same_regs(snap)
    }
}

/// The one step/run loop shared by every dialect: fetch (with fault
/// corruption), decode, execute, commit, watchdog.
#[derive(Debug)]
pub struct Engine<C, F = NoFaults> {
    core: C,
    faults: F,
}

impl<C: Core> Engine<C, NoFaults> {
    /// An engine with the fault-free hook (compile-time fast path).
    pub fn new(core: C) -> Self {
        Engine {
            core,
            faults: NoFaults,
        }
    }
}

impl<C: Core, F: FaultHook> Engine<C, F> {
    /// An engine threading `faults` through every step.
    pub fn with_faults(core: C, faults: F) -> Self {
        Engine { core, faults }
    }

    /// The driven core.
    pub fn core(&self) -> &C {
        &self.core
    }

    /// The driven core, mutably.
    pub fn core_mut(&mut self) -> &mut C {
        &mut self.core
    }

    /// Consume the engine, returning the core.
    pub fn into_core(self) -> C {
        self.core
    }

    /// Apply state faults once at the current cycle — the "stuck
    /// power-on bit" hook `run` fires before the first fetch.
    pub fn apply_power_on_faults(&mut self) {
        if F::ACTIVE {
            let cycle = self.core.state().cycle;
            self.faults.on_state(cycle, &mut self.core.arch_state());
        }
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
    #[inline]
    pub fn step<I, O>(&mut self, input: &mut I, output: &mut O) -> Result<StepEvent, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        self.step_latched(input, output, F::ACTIVE)
    }

    /// [`step`](Engine::step) with the fetch-bus visit decided by the
    /// caller: `fetch_faults = false` skips [`FaultHook::on_fetch`],
    /// which is exact for a hook that answered `false` to
    /// [`corrupts_fetch`](FaultHook::corrupts_fetch) (its `on_fetch` is
    /// the identity, free of side effects).
    #[inline(always)]
    pub(crate) fn step_latched<I, O>(
        &mut self,
        input: &mut I,
        output: &mut O,
        fetch_faults: bool,
    ) -> Result<StepEvent, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        let state = self.core.state_mut();
        state.mmu.tick();
        let page = state.mmu.page();
        let page_pc = state.mmu.extend(state.pc);
        let start_cycle = state.cycle;
        let address = self.core.fetch_address(page_pc);

        // Corrupt-page guard: a page whose first byte lies beyond the
        // image can only come from a corrupted page register or
        // pending-commit latch (software cannot branch to code that was
        // never programmed), so it surfaces as its own recoverable
        // fault rather than a generic out-of-bounds fetch. Page 0 is
        // exempt — running off the end of an unpaged program keeps its
        // historical `FetchOutOfBounds` classification.
        if page != 0 {
            let base = self.core.fetch_address(u32::from(page) << 7) as usize;
            if base >= self.core.state().program.len() {
                return Err(SimError::PageOutOfRange {
                    page,
                    program_len: self.core.state().program.len(),
                });
            }
        }

        let window = self.core.state().program.window(address);
        if window.is_empty() {
            return Err(SimError::FetchOutOfBounds {
                address,
                program_len: self.core.state().program.len(),
            });
        }
        let mut fetch_buf = [0u8; 2];
        let window: &[u8] = if fetch_faults {
            let n = window.len().min(C::FETCH_WINDOW);
            for (i, b) in window[..n].iter().enumerate() {
                fetch_buf[i] = self.faults.on_fetch(start_cycle + i as u64, *b);
            }
            &fetch_buf[..n]
        } else {
            window
        };
        let (insn, len) = self.core.decode(window, address)?;

        let flow = self.core.execute(insn, input, output, &mut self.faults);

        let state = self.core.state_mut();
        let mut taken = false;
        let mut next_pc = state.pc.wrapping_add(C::pc_increment(len)) & PC_MASK;
        if let Flow::Jump { target } = flow {
            taken = true;
            let target = target & PC_MASK;
            if target == state.pc {
                state.halted = true;
            }
            next_pc = target;
        }
        state.pc = next_pc;
        // saturating: a fast-forwarded unbounded watchdog can carry the
        // counters to their ceiling
        state.cycle = state.cycle.saturating_add(C::insn_cycles(len));
        state.instructions = state.instructions.saturating_add(1);
        state.fetched_bytes = state.fetched_bytes.saturating_add(u64::from(len));
        if taken {
            state.taken_branches = state.taken_branches.saturating_add(1);
        }
        if F::ACTIVE {
            let cycle = self.core.state().cycle;
            self.faults.on_state(cycle, &mut self.core.arch_state());
        }

        let state = self.core.state();
        Ok(StepEvent {
            cycle: start_cycle,
            address,
            next_pc: state.pc,
            acc: self.core.event_acc(),
            cycles: C::insn_cycles(len),
            taken_branch: taken,
            halted: state.halted,
        })
    }

    /// Run until the halt idiom or until the watchdog `budget` expires
    /// (cycles or retired instructions, per [`Core::budget_spent`]).
    /// State faults are applied once before the first fetch (a stuck
    /// power-on bit) and after every retired instruction.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Engine::step`].
    pub fn run<I, O>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
    ) -> Result<RunResult, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        self.apply_power_on_faults();
        self.resume(input, output, budget)
    }

    /// The run loop without the power-on state-fault visit: drive an
    /// already-powered-on core until the halt idiom or until `budget`
    /// expires. Every run in the stack drains here — `run` after its
    /// power-on visit, and deadline-sliced callers once per slice.
    ///
    /// The hook's [`corrupts_fetch`](FaultHook::corrupts_fetch) answer
    /// is latched once per call: a hook that leaves the fetch bus alone
    /// is not visited per fetched byte. A run that settles into a loop
    /// it can never leave is fast-forwarded to the watchdog rather than
    /// simulated to it, with identical results (see DESIGN.md §16).
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Engine::step`].
    pub fn resume<I, O>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
    ) -> Result<RunResult, SimError>
    where
        I: InputPort,
        O: OutputPort,
    {
        let fetch_faults = F::ACTIVE && self.faults.corrupts_fetch();
        hang::drain(self, input, output, budget, fetch_faults)?;
        Ok(self.core.state().run_result())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ConstInput, RecordingOutput, ScriptedInput};
    use crate::isa::fc4::Instruction as I4;
    use crate::isa::features::FeatureSet;
    use crate::isa::Dialect;
    use crate::sim::fault::{ArchFault, FaultKind, FaultPlane, StateElement};

    fn fc4_core(insns: &[I4]) -> AnyCore {
        let program = Program::from_bytes(insns.iter().map(|i| i.encode()).collect());
        AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, program)
    }

    #[test]
    fn budget_exhaustion_hangs_a_run() {
        // spin between two addresses: never the halt idiom
        let mut core = fc4_core(&[I4::NandImm { imm: 0 }, I4::Branch { target: 0 }]);
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
            I4::Store { addr: 1 },
            I4::NandImm { imm: 0 },
            I4::Branch { target: 3 },
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
            I4::Load { addr: 0 },
            I4::AddImm { imm: 1 },
            I4::Store { addr: 1 },
            I4::NandImm { imm: 0 },
            I4::Branch { target: 4 },
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
