//! Functional (ISA-level) simulators for every FlexiCore dialect.
//!
//! All simulators share the same shape: a core owns a [`Program`] image and
//! its architectural state; [`step`](fc4::Fc4Core::step) executes one
//! instruction against a pair of IO ports, and `run` iterates until the
//! *halt idiom* — a taken control transfer to its own address — or a cycle
//! budget expires. The loop itself lives in exactly one place,
//! [`crate::exec::Engine`]: each simulator here contributes only decode
//! and execute semantics (via [`crate::exec::Core`]) and forwards its
//! public `step`/`run` API to the engine. Consumers that need runtime
//! dialect dispatch use [`crate::exec::AnyCore`] instead of matching on
//! the dialect.
//!
//! The halt idiom matches what programs on the physical chips do: FlexiCores
//! have no `HALT` instruction, so a finished program spins on a
//! branch-to-self, and the test harness recognises the quiescent program
//! counter.
//!
//! [`Program`]: crate::program::Program

pub mod fault;
pub mod fc4;
pub mod fc8;
pub mod xacc;
pub mod xls;

pub use fault::{
    ArchFault, ArchState, FaultHook, FaultKind, FaultPlane, NoFaults, PowerCut, StateElement,
    WriteEffect,
};

/// Why a `run` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The program reached the halt idiom (taken branch-to-self).
    Halted,
    /// The cycle budget expired first.
    CycleLimit,
}

/// Aggregate statistics from a `run` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Clock cycles consumed (includes extra fetch beats of multi-byte
    /// instructions).
    pub cycles: u64,
    /// Architectural instructions retired.
    pub instructions: u64,
    /// Taken control transfers retired (used by pipeline timing models).
    pub taken_branches: u64,
    /// Program-memory bytes fetched (used by the bus-width timing models of
    /// §6.2: a core whose bus is narrower than its instructions pays one
    /// cycle per bus beat).
    pub fetched_bytes: u64,
    /// Why execution stopped.
    pub stop: StopReason,
}

impl RunResult {
    /// `true` if the program reached the halt idiom.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.stop == StopReason::Halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halted_reads_stop_reason() {
        let r = RunResult {
            cycles: 1,
            instructions: 1,
            taken_branches: 0,
            fetched_bytes: 1,
            stop: StopReason::Halted,
        };
        assert!(r.halted());
        let r = RunResult {
            stop: StopReason::CycleLimit,
            ..r
        };
        assert!(!r.halted());
    }
}
