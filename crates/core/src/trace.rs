//! Execution tracing.
//!
//! Simulators report one [`StepEvent`] per architectural step from
//! `Core::step`. Callers that walk a run instruction by instruction read
//! it directly: `flexi run --trace` prints one line per event, and
//! `flexrtl::cosim` uses its fetch address and byte count to clock the
//! gate-level netlist.

/// What happened during one architectural step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepEvent {
    /// Cycle count *before* this step executed.
    pub cycle: u64,
    /// Full (page-extended) fetch address of the instruction.
    pub address: u32,
    /// Program counter value after the step.
    pub next_pc: u8,
    /// Accumulator value after the step (for the load-store dialect, the
    /// value written to `rd`, or the old flags for pure control flow).
    pub acc: u8,
    /// Number of clock cycles the step consumed (1, or 2 for two-byte
    /// fetches such as FlexiCore8 `LOAD BYTE`).
    pub cycles: u64,
    /// Whether this step was a taken control transfer.
    pub taken_branch: bool,
    /// Whether the step hit the halt idiom (taken branch to itself).
    pub halted: bool,
}
