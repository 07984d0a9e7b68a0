//! Functional (ISA-level) simulators for every FlexiCore dialect.
//!
//! Two core types cover the four dialects: [`acc::AccCore`] serves the
//! three accumulator dialects, with the dialect as a compile-time
//! parameter ([`fc4::Fc4Core`], [`fc4::Fc8Core`], [`xacc::XaccCore`]), and
//! [`xls`] holds the load-store core of the design-space exploration.
//!
//! All simulators share the same shape: a core owns a [`Program`] image and
//! its architectural state, and reaches its data cells and IO buses
//! through one port-mapped cell file (`read_cell`, `write_cell`);
//! [`Core::step`] executes one instruction
//! against a pair of IO ports, and [`Core::run`] iterates until the
//! *halt idiom* — a taken control transfer to its own address — or a cycle
//! budget expires. The loop itself lives in exactly one place,
//! [`crate::exec`]: each simulator here contributes only decode and
//! execute semantics by implementing [`Core`], whose provided methods
//! are the one API that drives it. Consumers that need runtime dialect
//! dispatch use [`crate::exec::AnyCore`] instead of matching on the
//! dialect.
//!
//! The halt idiom matches what programs on the physical chips do: FlexiCores
//! have no `HALT` instruction, so a finished program spins on a
//! branch-to-self, and the test harness recognises the quiescent program
//! counter.
//!
//! [`Program`]: crate::program::Program
//! [`Core`]: crate::exec::Core
//! [`Core::step`]: crate::exec::Core::step
//! [`Core::run`]: crate::exec::Core::run

pub mod acc;
pub mod fault;
pub mod fc4;
pub mod xacc;
pub mod xls;

pub use fault::{
    ArchFault, ArchState, FaultHook, FaultKind, FaultPlane, NoFaults, PowerCut, StateElement,
    StuckMask, WriteEffect,
};

use crate::io::{InputPort, OutputPort};
use crate::isa::{IPORT_CELL, OPORT_CELL};
use crate::mmu::Mmu;

/// Read cell `addr` of a core's port-mapped cell file `cells` — the
/// data memory, or the load-store register file — in the step that
/// starts at `cycle`. [`IPORT_CELL`] is the input bus, sampled this
/// cycle through the hook's input tap when the hook is active; any other
/// address reads its word, masked to the file's (power-of-two) size.
/// `data_mask` is the datapath width.
#[inline]
pub(crate) fn read_cell<I: InputPort, F: FaultHook>(
    cells: &[u8],
    addr: u8,
    data_mask: u8,
    cycle: u64,
    input: &mut I,
    faults: &mut F,
) -> u8 {
    if addr == IPORT_CELL {
        let v = input.read(cycle) & data_mask;
        if F::ACTIVE {
            faults.on_input(cycle, v) & data_mask
        } else {
            v
        }
    } else {
        cells[usize::from(addr) & (cells.len() - 1)]
    }
}

/// Write `value` to cell `addr` of `cells`, [`read_cell`]'s file, in the
/// step that starts at `cycle`. Writes to [`IPORT_CELL`] are dropped;
/// [`OPORT_CELL`] also drives the output bus, through the hook's output
/// tap when the hook is active, and the off-chip `mmu` snoops the driven
/// value.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_cell<O: OutputPort, F: FaultHook>(
    cells: &mut [u8],
    addr: u8,
    value: u8,
    data_mask: u8,
    cycle: u64,
    mmu: &mut Mmu,
    output: &mut O,
    faults: &mut F,
) {
    if addr != IPORT_CELL {
        cells[usize::from(addr) & (cells.len() - 1)] = value;
    }
    if addr == OPORT_CELL {
        let driven = if F::ACTIVE {
            faults.on_output(cycle, value) & data_mask
        } else {
            value
        };
        output.write(cycle, driven);
        mmu.observe(driven);
    }
}

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
