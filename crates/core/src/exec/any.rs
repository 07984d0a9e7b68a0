//! Runtime dialect dispatch over the four simulators.

use crate::error::SimError;
use crate::io::{InputPort, OutputPort};
use crate::isa::features::FeatureSet;
use crate::isa::Dialect;
use crate::program::Program;
use crate::sim::fault::FaultHook;
use crate::sim::fc4::{Fc4Core, Fc8Core};
use crate::sim::xacc::XaccCore;
use crate::sim::xls::XlsCore;
use crate::sim::RunResult;
use crate::trace::StepEvent;

use super::{Core, Snapshot};

/// A core of any dialect behind one type, for consumers that pick the
/// dialect at runtime (CLI, kernel harness, fault campaigns). Replaces
/// the per-call-site `match target.dialect { ... }` blocks.
#[derive(Debug, Clone)]
pub enum AnyCore {
    /// A FlexiCore4 core.
    Fc4(Fc4Core),
    /// A FlexiCore8 core.
    Fc8(Fc8Core),
    /// An extended-accumulator core.
    Xacc(XaccCore),
    /// A load-store core.
    Xls(XlsCore),
}

macro_rules! each_core {
    ($self:expr, $c:ident => $body:expr) => {
        match $self {
            AnyCore::Fc4($c) => $body,
            AnyCore::Fc8($c) => $body,
            AnyCore::Xacc($c) => $body,
            AnyCore::Xls($c) => $body,
        }
    };
}

impl AnyCore {
    /// Construct the simulator matching `dialect` with `program`
    /// loaded. `features` gates decoding on the extended dialects and
    /// is ignored by the fabricated ones.
    #[must_use]
    pub fn for_dialect(dialect: Dialect, features: FeatureSet, program: Program) -> Self {
        match dialect {
            Dialect::Fc4 => AnyCore::Fc4(Fc4Core::new(program)),
            Dialect::Fc8 => AnyCore::Fc8(Fc8Core::new(program)),
            Dialect::ExtendedAcc => AnyCore::Xacc(XaccCore::new(features, program)),
            Dialect::LoadStore => AnyCore::Xls(XlsCore::new(features, program)),
        }
    }

    /// Which dialect this core simulates.
    #[must_use]
    pub fn dialect(&self) -> Dialect {
        match self {
            AnyCore::Fc4(_) => Dialect::Fc4,
            AnyCore::Fc8(_) => Dialect::Fc8,
            AnyCore::Xacc(_) => Dialect::ExtendedAcc,
            AnyCore::Xls(_) => Dialect::LoadStore,
        }
    }

    /// Execute one instruction.
    ///
    /// # Errors
    ///
    /// See [`Core::step`].
    pub fn step<I: InputPort, O: OutputPort>(
        &mut self,
        input: &mut I,
        output: &mut O,
    ) -> Result<StepEvent, SimError> {
        each_core!(self, c => c.step(input, output))
    }

    /// [`step`](AnyCore::step) with a fault-injection hook.
    ///
    /// # Errors
    ///
    /// See [`Core::step_with`].
    pub fn step_with<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        input: &mut I,
        output: &mut O,
        faults: &mut F,
    ) -> Result<StepEvent, SimError> {
        each_core!(self, c => c.step_with(input, output, faults))
    }

    /// Run until the halt idiom or until the watchdog `budget` expires
    /// (cycles on FlexiCore4/8, retired instructions on the extended
    /// dialects).
    ///
    /// # Errors
    ///
    /// See [`Core::run`].
    pub fn run<I: InputPort, O: OutputPort>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
    ) -> Result<RunResult, SimError> {
        each_core!(self, c => c.run(input, output, budget))
    }

    /// [`run`](AnyCore::run) with a fault-injection hook.
    ///
    /// # Errors
    ///
    /// See [`Core::run_with`].
    pub fn run_with<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
        faults: &mut F,
    ) -> Result<RunResult, SimError> {
        each_core!(self, c => c.run_with(input, output, budget, faults))
    }

    /// [`run_with`](AnyCore::run_with) minus the power-on state-fault
    /// visit: drive an already-powered-on core until the halt idiom or
    /// until `budget` expires. One dialect dispatch covers the whole
    /// drain, so callers that slice a run (deadline-bounded serving) pay
    /// it once per slice, not per instruction.
    ///
    /// # Errors
    ///
    /// See [`Core::resume_with`].
    pub fn resume_with<I: InputPort, O: OutputPort, F: FaultHook>(
        &mut self,
        input: &mut I,
        output: &mut O,
        budget: u64,
        faults: &mut F,
    ) -> Result<RunResult, SimError> {
        each_core!(self, c => c.resume_with(input, output, budget, faults))
    }

    /// Reset architectural state, keeping program (and features).
    pub fn reset(&mut self) {
        each_core!(self, c => c.reset());
    }

    /// Whether the halt idiom has been reached.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        each_core!(self, c => c.state().is_halted())
    }

    /// Current program counter (7 bits, in-page).
    #[must_use]
    pub fn pc(&self) -> u8 {
        each_core!(self, c => c.state().pc())
    }

    /// Elapsed clock cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        each_core!(self, c => c.state().cycles())
    }

    /// Retired instruction count.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        each_core!(self, c => c.state().instructions())
    }

    /// The currently selected MMU page.
    #[must_use]
    pub fn page(&self) -> u8 {
        each_core!(self, c => c.state().page())
    }

    /// The loaded program image.
    #[must_use]
    pub fn program(&self) -> &Program {
        each_core!(self, c => c.state().program())
    }

    /// The data-memory word or register at `addr`, or `None` when out
    /// of range for the dialect.
    #[must_use]
    pub fn mem(&self, addr: u8) -> Option<u8> {
        match self {
            AnyCore::Fc4(c) => c.mem(addr),
            AnyCore::Fc8(c) => c.mem(addr),
            AnyCore::Xacc(c) => c.mem(addr),
            AnyCore::Xls(c) => c.reg(addr),
        }
    }

    /// The accumulator, or `None` on the accumulator-less load-store
    /// dialect.
    #[must_use]
    pub fn acc(&self) -> Option<u8> {
        match self {
            AnyCore::Fc4(c) => Some(c.acc()),
            AnyCore::Fc8(c) => Some(c.acc()),
            AnyCore::Xacc(c) => Some(c.acc()),
            AnyCore::Xls(_) => None,
        }
    }

    /// How much of a watchdog budget this core has consumed: elapsed
    /// cycles on FlexiCore4/8, retired instructions on the extended
    /// dialects (mirrors each dialect's `run` loop condition).
    #[must_use]
    pub fn budget_spent(&self) -> u64 {
        each_core!(self, c => super::hang::spent(c))
    }

    /// Apply state faults once at the current cycle (see
    /// [`Core::power_on_faults`]).
    pub fn power_on_faults<F: FaultHook>(&mut self, faults: &mut F) {
        each_core!(self, c => c.power_on_faults(faults));
    }

    /// Snapshot the run accounting as a [`RunResult`].
    #[must_use]
    pub fn run_result(&self) -> RunResult {
        each_core!(self, c => c.state().run_result())
    }

    /// Checkpoint the full architectural state (see [`Core::snapshot`]).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        each_core!(self, c => c.snapshot())
    }

    /// Roll back to a previously taken [`AnyCore::snapshot`]. The
    /// snapshot must come from a core of the same dialect running the
    /// same program (see [`Core::restore`]) — restoring onto a freshly
    /// constructed clone of the snapshotted core is how a rollback
    /// executor migrates a checkpoint onto a spare die.
    pub fn restore(&mut self, snap: &Snapshot) {
        each_core!(self, c => c.restore(snap));
    }
}
