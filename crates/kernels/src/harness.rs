//! Kernel execution harness: assemble → simulate → verify against oracle.

use crate::{oracle, sources, Kernel};
use flexasm::{AsmError, Target};
use flexicore::exec::AnyCore;
use flexicore::io::{OutputPort, ScriptedInput};
use flexicore::program::Program;
use flexicore::sim::{FaultHook, NoFaults, RunResult};
use flexicore::SimError;

/// Default watchdog budget for one kernel execution (generous; base-ISA
/// shifts are expensive but bounded). Cycles on FC4/FC8, retired
/// instructions on the extended dialects.
pub const CYCLE_BUDGET: u64 = 200_000;

/// The outcome of one verified kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRun {
    /// Payload outputs (protocol escapes/separators stripped).
    pub outputs: Vec<u8>,
    /// Every value driven on the output port, in order.
    pub raw_outputs: Vec<u8>,
    /// Architectural run statistics from the functional simulator.
    pub result: RunResult,
    /// Whether the raw stream matched the oracle exactly.
    pub verified: bool,
    /// Static instruction count of the assembled program.
    pub static_instructions: usize,
    /// Code size in bytes.
    pub code_bytes: usize,
}

/// Errors from [`run_kernel`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunError {
    /// The kernel failed to assemble for the target.
    Asm(AsmError),
    /// The simulator faulted.
    Sim(SimError),
    /// Execution did not reach the halt idiom within the watchdog budget
    /// (defaults to [`CYCLE_BUDGET`]).
    DidNotHalt,
    /// The output stream differed from the oracle.
    OracleMismatch {
        /// What the oracle predicted.
        expected: Vec<u8>,
        /// What the simulated core produced.
        actual: Vec<u8>,
    },
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::Asm(e) => write!(f, "assembly failed: {e}"),
            RunError::Sim(e) => write!(f, "simulation faulted: {e}"),
            RunError::DidNotHalt => write!(f, "kernel did not halt within the cycle budget"),
            RunError::OracleMismatch { expected, actual } => write!(
                f,
                "output mismatch: expected {expected:02x?}, got {actual:02x?}"
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Asm(e) => Some(e),
            RunError::Sim(e) => Some(e),
            RunError::DidNotHalt | RunError::OracleMismatch { .. } => None,
        }
    }
}

impl From<AsmError> for RunError {
    fn from(e: AsmError) -> Self {
        RunError::Asm(e)
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// A kernel assembled once for a target, reusable across many runs
/// (fault-injection campaigns run thousands of executions of the same
/// program image).
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    kernel: Kernel,
    target: Target,
    program: Program,
    static_instructions: usize,
    code_bytes: usize,
}

impl PreparedKernel {
    /// Assemble `kernel` for `target`.
    ///
    /// # Errors
    ///
    /// [`RunError::Asm`] if the kernel does not assemble.
    pub fn new(kernel: Kernel, target: Target) -> Result<Self, RunError> {
        let source = sources::source_for(kernel, target.dialect);
        let assembly = flexasm::Assembler::new(target).assemble(&source)?;
        Ok(PreparedKernel {
            kernel,
            target,
            static_instructions: assembly.static_instructions(),
            code_bytes: assembly.code_bytes(),
            program: assembly.into_program(),
        })
    }

    /// The kernel this program implements.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The assembly target.
    #[must_use]
    pub fn target(&self) -> Target {
        self.target
    }

    /// The assembled program image.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// A fresh simulator of the target dialect with the assembled image
    /// loaded.
    #[must_use]
    pub fn core(&self) -> AnyCore {
        AnyCore::for_dialect(
            self.target.dialect,
            self.target.features,
            self.program.clone(),
        )
    }

    /// Execute once with `inputs` scripted on the input port, a `budget`
    /// watchdog, and `faults` injected, verifying against the oracle.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run_with<F: FaultHook>(
        &self,
        inputs: &[u8],
        budget: u64,
        faults: &mut F,
    ) -> Result<KernelRun, RunError> {
        let mut input = ScriptedInput::new(inputs.to_vec());
        let mut output = VerdictOutput::new();
        let result = self
            .core()
            .run_with(&mut input, &mut output, budget, faults)?;
        debug_assert!(
            !(output.skipped_replay() && result.halted()),
            "a fast-forwarded run ends at its watchdog, unhalted"
        );
        self.verify(inputs, output.into_values(), result)
    }

    /// Run one case per [`BatchCase`], each exactly as
    /// [`run_with`](Self::run_with) runs it. Results are in case order.
    #[must_use]
    pub fn run_batch<F: FaultHook>(
        &self,
        cases: Vec<BatchCase<F>>,
        budget: u64,
    ) -> Vec<Result<KernelRun, RunError>> {
        cases
            .into_iter()
            .map(|mut case| self.run_with(&case.inputs, budget, &mut case.faults))
            .collect()
    }

    /// Oracle-verify a raw output stream produced elsewhere (e.g. by a
    /// resilient or link-layer executor that drove the core itself) and
    /// package it as a [`KernelRun`].
    ///
    /// # Errors
    ///
    /// [`RunError::DidNotHalt`] if `result` never reached the halt
    /// idiom, [`RunError::OracleMismatch`] if the stream differs from
    /// the oracle's prediction for `inputs`.
    pub fn verify(
        &self,
        inputs: &[u8],
        raw_outputs: Vec<u8>,
        result: RunResult,
    ) -> Result<KernelRun, RunError> {
        if !result.halted() {
            return Err(RunError::DidNotHalt);
        }
        let expected = oracle::expected_outputs(self.kernel, self.target.dialect, inputs);
        if raw_outputs != expected {
            return Err(RunError::OracleMismatch {
                expected,
                actual: raw_outputs,
            });
        }
        let outputs = oracle::payload(self.kernel, self.target.dialect, &raw_outputs);
        Ok(KernelRun {
            outputs,
            raw_outputs,
            result,
            verified: true,
            static_instructions: self.static_instructions,
            code_bytes: self.code_bytes,
        })
    }
}

/// The output port [`PreparedKernel::run_with`] records into: one byte
/// per write and no cycle stamp, because a verdict reads only the
/// values a halted run wrote.
///
/// Its [`repeat`](OutputPort::repeat) records nothing. The engine calls
/// `repeat` only to replay the periods a hang fast-forward skips
/// (DESIGN.md §16.3), and such a run ends at its watchdog without
/// halting, since every state in a repeating period is unhalted. A
/// verdict rejects an unhalted run before it reads a value, so
/// [`values`](Self::values) is the run's whole output stream whenever
/// the run halted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerdictOutput {
    values: Vec<u8>,
    skipped_replay: bool,
}

impl VerdictOutput {
    /// An empty port.
    #[must_use]
    pub fn new() -> Self {
        VerdictOutput::default()
    }

    /// The values written, in order: the whole stream if the run halted.
    #[must_use]
    pub fn values(&self) -> &[u8] {
        &self.values
    }

    /// The values written, by value.
    #[must_use]
    pub fn into_values(self) -> Vec<u8> {
        self.values
    }

    /// Whether a fast-forward's replay was skipped, which only a run
    /// that never halts can ask for.
    #[must_use]
    pub fn skipped_replay(&self) -> bool {
        self.skipped_replay
    }
}

impl OutputPort for VerdictOutput {
    fn write(&mut self, _cycle: u64, value: u8) {
        self.values.push(value);
    }

    fn repeat(&mut self, _period: &[(u64, u8)], _shift: u64, _times: u64) {
        self.skipped_replay = true;
    }
}

/// One entry in a [`PreparedKernel::run_batch`] sweep: the scripted
/// input stream plus the case's private fault hook.
#[derive(Debug, Clone)]
pub struct BatchCase<F = NoFaults> {
    /// Values scripted on the input port.
    pub inputs: Vec<u8>,
    /// The case's fault hook (use [`NoFaults`] for clean runs).
    pub faults: F,
}

impl BatchCase<NoFaults> {
    /// A clean (fault-free) case.
    #[must_use]
    pub fn clean(inputs: Vec<u8>) -> Self {
        BatchCase {
            inputs,
            faults: NoFaults,
        }
    }
}

/// Assemble `kernel` for `target`, execute it on the matching functional
/// simulator with `inputs` scripted on the input port, and verify the
/// output stream against the oracle.
///
/// # Errors
///
/// See [`RunError`].
pub fn run_kernel(kernel: Kernel, target: Target, inputs: &[u8]) -> Result<KernelRun, RunError> {
    run_kernel_with(kernel, target, inputs, CYCLE_BUDGET, &mut NoFaults)
}

/// [`run_kernel`] with a configurable watchdog `budget` and a
/// fault-injection hook. Campaign runners use tighter budgets for faster
/// hang detection and a [`flexicore::sim::FaultPlane`] for injection;
/// `run_kernel(k, t, i)` is exactly
/// `run_kernel_with(k, t, i, CYCLE_BUDGET, &mut NoFaults)`.
///
/// # Errors
///
/// See [`RunError`].
pub fn run_kernel_with<F: FaultHook>(
    kernel: Kernel,
    target: Target,
    inputs: &[u8],
    budget: u64,
    faults: &mut F,
) -> Result<KernelRun, RunError> {
    PreparedKernel::new(kernel, target)?.run_with(inputs, budget, faults)
}

/// Aggregate statistics over many input cases (one Figure 8 data point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelStats {
    /// Mean retired instructions per execution.
    pub mean_instructions: f64,
    /// Mean clock cycles per execution (ISA-level).
    pub mean_cycles: f64,
    /// Mean taken branches per execution.
    pub mean_taken_branches: f64,
    /// Mean program bytes fetched per execution.
    pub mean_fetched_bytes: f64,
    /// Number of cases measured.
    pub cases: usize,
    /// Static instruction count (same for every case).
    pub static_instructions: usize,
    /// Code bytes (same for every case).
    pub code_bytes: usize,
}

/// Run `kernel` over every case in `cases` and average the architectural
/// counts. Every case is oracle-verified; the first failure aborts.
///
/// # Errors
///
/// See [`RunError`].
pub fn measure(kernel: Kernel, target: Target, cases: &[Vec<u8>]) -> Result<KernelStats, RunError> {
    assert!(!cases.is_empty(), "need at least one input case");
    let prepared = PreparedKernel::new(kernel, target)?;
    let mut instructions = 0u64;
    let mut cycles = 0u64;
    let mut taken = 0u64;
    let mut fetched = 0u64;
    let mut static_instructions = 0;
    let mut code_bytes = 0;
    for case in cases {
        let run = prepared.run_with(case, CYCLE_BUDGET, &mut NoFaults)?;
        instructions += run.result.instructions;
        cycles += run.result.cycles;
        taken += run.result.taken_branches;
        fetched += run.result.fetched_bytes;
        static_instructions = run.static_instructions;
        code_bytes = run.code_bytes;
    }
    let n = cases.len() as f64;
    Ok(KernelStats {
        mean_instructions: instructions as f64 / n,
        mean_cycles: cycles as f64 / n,
        mean_taken_branches: taken as f64 / n,
        mean_fetched_bytes: fetched as f64 / n,
        cases: cases.len(),
        static_instructions,
        code_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Sampler;

    #[test]
    fn parity_on_fc4_matches_oracle() {
        let run = run_kernel(Kernel::ParityCheck, Target::fc4(), &[0x1, 0x0]).unwrap();
        assert!(run.verified);
        assert_eq!(run.outputs, vec![1]);
    }

    #[test]
    fn thresholding_on_fc4() {
        // samples 0x21, 0x7B (> 0x5A), then zeros: sticky from sample 2
        let run = run_kernel(
            Kernel::Thresholding,
            Target::fc4(),
            &[1, 2, 0xB, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        )
        .unwrap();
        assert_eq!(run.outputs, vec![0, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn parity_on_fc8_matches_oracle_exhaustively() {
        let prepared = PreparedKernel::new(Kernel::ParityCheck, Target::fc8()).unwrap();
        for word in 0..=255u8 {
            let run = prepared
                .run_with(&[word & 0xF, word >> 4], CYCLE_BUDGET, &mut NoFaults)
                .unwrap();
            assert_eq!(
                run.outputs,
                vec![(word.count_ones() & 1) as u8],
                "{word:#04x}"
            );
        }
    }

    #[test]
    fn fc8_support_matches_assembler_reality() {
        for k in Kernel::ALL {
            let assembles = k.assemble(Target::fc8()).is_ok();
            assert_eq!(
                assembles,
                k.supports(flexicore::isa::Dialect::Fc8),
                "{k}: supports() must track what actually assembles"
            );
        }
    }

    #[test]
    fn run_batch_matches_serial_runs() {
        let prepared = PreparedKernel::new(Kernel::ParityCheck, Target::fc8()).unwrap();
        let mut s = Sampler::new(Kernel::ParityCheck, 11);
        let cases = s.draw_many(8);
        let batch = prepared.run_batch(
            cases.iter().map(|c| BatchCase::clean(c.clone())).collect(),
            CYCLE_BUDGET,
        );
        for (case, batched) in cases.iter().zip(batch) {
            let serial = prepared.run_with(case, CYCLE_BUDGET, &mut NoFaults);
            let batched = batched.unwrap();
            let serial = serial.unwrap();
            assert_eq!(batched.raw_outputs, serial.raw_outputs);
            assert_eq!(batched.result, serial.result);
        }
    }

    #[test]
    fn run_batch_reports_per_lane_errors() {
        let prepared = PreparedKernel::new(Kernel::ParityCheck, Target::fc4()).unwrap();
        // budget 1 cannot reach the halt idiom: every lane is DidNotHalt
        let batch = prepared.run_batch(vec![BatchCase::clean(vec![0x1, 0x0])], 1);
        assert_eq!(batch.len(), 1);
        assert!(matches!(batch[0], Err(RunError::DidNotHalt)));
    }

    #[test]
    fn verdict_output_keeps_values_and_skips_replay() {
        let mut port = VerdictOutput::new();
        port.write(3, 0xA);
        port.write(9, 0xB);
        assert!(!port.skipped_replay());
        port.repeat(&[(9, 0xB)], 6, 1_000);
        assert!(port.skipped_replay());
        assert_eq!(port.values(), [0xA, 0xB]);
        assert_eq!(port.into_values(), vec![0xA, 0xB]);
    }

    #[test]
    fn measure_averages_over_cases() {
        let mut s = Sampler::new(Kernel::ParityCheck, 3);
        let cases = s.draw_many(10);
        let stats = measure(Kernel::ParityCheck, Target::fc4(), &cases).unwrap();
        assert_eq!(stats.cases, 10);
        assert!(stats.mean_instructions > 10.0);
        assert!(stats.static_instructions > 0);
    }
}
