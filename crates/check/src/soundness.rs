//! Differential soundness campaigns (DESIGN.md §10.3).
//!
//! Every lint ships with an adversarial refutation harness, not just
//! unit tests: seeded generators produce random program images (raw
//! bytes, legal-instruction streams, output-quiet streams, and genuine
//! multi-page images with MMU escape sequences), the analyzer makes its
//! claims, and the concrete [`AnyCore`] engine is run as ground truth.
//! A violation of any claim is reported with the campaign seed, so
//! every run is bit-for-bit replayable.
//!
//! Checked claims (when the report is [`exact`](crate::CheckReport::exact)):
//!
//! 1. **Reachability**: every fetch address the engine visits is in the
//!    report's reachable set — nothing flagged unreachable is fetched.
//! 2. **Crash coverage**: every engine error has a matching
//!    error-severity finding at its address.
//! 3. **Halting**: a halted run implies `halt_reachable`; a static-hang
//!    finding implies the run never halts.
//! 4. **Bounds**: a halted run retires no more than the reported cycle
//!    and instruction bounds, and a budget above the watchdog bound is
//!    never exhausted.
//! 5. **Uninit independence**: with no uninit-read findings, perturbing
//!    power-on data memory changes nothing observable.

use flexasm::Target;
use flexicore::error::SimError;
use flexicore::exec::AnyCore;
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::isa::features::{Feature, FeatureSet};
use flexicore::isa::{acc, fc8, xls, Dialect};
use flexicore::Program;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::report::{CheckReport, Lint};

/// Campaign parameters. The default [`CampaignConfig::smoke`] is sized
/// for CI; acceptance runs use [`CampaignConfig::full`].
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Seed for the whole campaign (generators and trial inputs).
    pub seed: u64,
    /// Random programs generated per dialect.
    pub programs_per_dialect: usize,
    /// Watchdog budget per trial (cycles or instructions, per dialect).
    pub budget: u64,
}

impl CampaignConfig {
    /// A fast configuration for CI smoke runs.
    #[must_use]
    pub fn smoke(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            programs_per_dialect: 150,
            budget: 2_000,
        }
    }

    /// The acceptance-criteria configuration: at least 1000 programs
    /// per dialect.
    #[must_use]
    pub fn full(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            programs_per_dialect: 1_000,
            budget: 4_096,
        }
    }
}

/// Aggregate campaign results.
#[derive(Debug, Default)]
pub struct CampaignStats {
    /// Programs analyzed.
    pub programs: usize,
    /// Programs whose analysis stayed exact (sound reachability claims).
    pub exact_programs: usize,
    /// Concrete trials executed.
    pub trials: usize,
    /// Trials that reached the halt idiom.
    pub halted_trials: usize,
    /// Total findings across all programs.
    pub findings: usize,
    /// Soundness violations (empty on a passing campaign). Each entry
    /// names the claim, the dialect, and the per-program seed.
    pub violations: Vec<String>,
}

impl CampaignStats {
    /// One-line summary for logs.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} program(s), {} exact, {} trial(s) ({} halted), {} finding(s), {} violation(s)",
            self.programs,
            self.exact_programs,
            self.trials,
            self.halted_trials,
            self.findings,
            self.violations.len()
        )
    }
}

/// Run a full differential campaign over all four dialects.
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> CampaignStats {
    let mut stats = CampaignStats::default();
    let dialects = [
        Dialect::Fc4,
        Dialect::Fc8,
        Dialect::ExtendedAcc,
        Dialect::LoadStore,
    ];
    for (d_idx, dialect) in dialects.into_iter().enumerate() {
        for i in 0..config.programs_per_dialect {
            // one derived seed per program: replayable in isolation
            let seed = flexshard::cell_seed(config.seed, (d_idx * 1_000_003 + i) as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let target = random_target(dialect, &mut rng);
            let program = generate_program(&target, i, &mut rng);
            check_program(&target, &program, seed, config.budget, &mut stats);
        }
    }
    stats
}

/// Pick a feature configuration: the fabricated dialects are fixed, the
/// DSE dialects draw a random feature subset.
fn random_target(dialect: Dialect, rng: &mut StdRng) -> Target {
    match dialect {
        Dialect::Fc4 => Target::fc4(),
        Dialect::Fc8 => Target::fc8(),
        Dialect::ExtendedAcc | Dialect::LoadStore => {
            let mut features = FeatureSet::new();
            for f in Feature::ALL {
                if rng.gen_bool(0.5) {
                    features = features.with(f);
                }
            }
            if dialect == Dialect::ExtendedAcc {
                Target::xacc(features)
            } else {
                Target::xls(features)
            }
        }
    }
}

/// Sample one legal instruction encoding by rejection against the real
/// decoder (no second decoder, mirroring the analyzer itself).
fn sample_legal(target: &Target, rng: &mut StdRng, quiet: bool) -> Vec<u8> {
    loop {
        match target.dialect {
            Dialect::Fc4 | Dialect::Fc8 | Dialect::ExtendedAcc => {
                // one byte per draw, two where an instruction can take both
                let mut bytes = vec![rng.gen::<u8>()];
                if target.dialect != Dialect::Fc4 {
                    bytes.push(rng.gen());
                }
                let Ok((insn, len)) = acc::Instruction::decode(&bytes, target.dialect) else {
                    continue;
                };
                if !insn.is_legal(target.features) {
                    continue;
                }
                if quiet
                    && matches!(
                        insn,
                        acc::Instruction::Store { m: 1 } | acc::Instruction::Xch { m: 1 }
                    )
                {
                    continue;
                }
                bytes.truncate(len);
                return bytes;
            }
            Dialect::LoadStore => {
                let half: u16 = rng.gen();
                let Ok(insn) = xls::Instruction::decode(half) else {
                    continue;
                };
                if !insn.is_legal(target.features) {
                    continue;
                }
                if quiet && matches!(insn, xls::Instruction::Alu { rd: 1, .. }) {
                    continue;
                }
                return half.to_be_bytes().to_vec();
            }
        }
    }
}

/// The four generator flavors, cycled per program index.
fn generate_program(target: &Target, index: usize, rng: &mut StdRng) -> Program {
    match index % 4 {
        // raw bytes: exercises illegal/truncated/off-image paths
        0 => {
            let len = rng.gen_range(1..=160usize);
            Program::from_bytes((0..len).map(|_| rng.gen()).collect())
        }
        // legal single-page stream
        1 => {
            let budget = rng.gen_range(2..=100usize);
            let mut bytes = Vec::new();
            while bytes.len() < budget {
                bytes.extend(sample_legal(target, rng, false));
            }
            Program::from_bytes(bytes)
        }
        // output-quiet stream: never drives the output port, so the MMU
        // analysis stays exact and reachability/bound claims are live
        2 => {
            let budget = rng.gen_range(2..=100usize);
            let mut bytes = Vec::new();
            while bytes.len() < budget {
                bytes.extend(sample_legal(target, rng, true));
            }
            Program::from_bytes(bytes)
        }
        // multi-page image with a constant escape sequence (fabricated
        // dialects only; the DSE dialects reuse the quiet flavor)
        _ => match target.dialect {
            Dialect::Fc4 => paged_fc4(rng),
            Dialect::Fc8 => paged_fc8(rng),
            _ => {
                let budget = rng.gen_range(2..=100usize);
                let mut bytes = Vec::new();
                while bytes.len() < budget {
                    bytes.extend(sample_legal(target, rng, true));
                }
                Program::from_bytes(bytes)
            }
        },
    }
}

/// A two-page fc4 image: page 0 arms a constant page-1 change and
/// branches; the target lands in page 1 on a halt idiom.
fn paged_fc4(rng: &mut StdRng) -> Program {
    use flexicore::mmu::{ESCAPE_1, ESCAPE_2};
    let xori = |v: u8| 0b0110_0000 | (v & 0xF);
    let nandi0 = 0b0101_0000;
    let store1 = 0b0111_0001;
    let br = |t: u8| 0b1000_0000 | (t & 0x7F);
    let target_pc = rng.gen_range(0..=5u8);
    // acc: 0 -> F -> E -> D -> 1 (dataflow-constant escape sequence)
    let mut bytes = vec![
        nandi0,
        xori(0xF ^ ESCAPE_1),
        store1,
        xori(ESCAPE_1 ^ ESCAPE_2),
        store1,
        xori(ESCAPE_2 ^ 1),
        store1,        // arms page 1, commit in 3 steps
        nandi0,        // acc = 0xF (negative), tick 1
        br(target_pc), // tick 2; taken; next fetch ticks into page 1
    ];
    bytes.resize(128, 0x42); // unreachable page-0 padding
    bytes.resize(128 + usize::from(target_pc), 0x42);
    bytes.push(nandi0);
    bytes.push(br(target_pc + 1)); // halt idiom in page 1
    Program::from_bytes(bytes)
}

/// Same shape for fc8, using `LOAD BYTE` for the escape constants.
fn paged_fc8(rng: &mut StdRng) -> Program {
    use flexicore::mmu::{ESCAPE_1, ESCAPE_2};
    let ldb = fc8::LOAD_BYTE_OPCODE;
    let store1 = 0b0111_0001;
    let br = |t: u8| 0b1000_0000 | (t & 0x7F);
    let target_pc = rng.gen_range(0..=5u8);
    let mut bytes = Vec::new();
    for v in [ESCAPE_1, ESCAPE_2, 1] {
        bytes.extend_from_slice(&[ldb, v, store1]);
    }
    bytes.extend_from_slice(&[ldb, 0x80]); // acc negative, tick 1
    bytes.push(br(target_pc)); // tick 2; next fetch ticks into page 1
    bytes.resize(128 + usize::from(target_pc), 0x42);
    bytes.extend_from_slice(&[ldb, 0x80, br(target_pc + 2)]);
    Program::from_bytes(bytes)
}

/// Tracked data-cell indices for the uninit-perturbation trial.
fn tracked_cells(dialect: Dialect) -> std::ops::RangeInclusive<usize> {
    1..=usize::from(dialect.mem_words()) - 1
}

fn data_mask(dialect: Dialect) -> u8 {
    ((1u16 << dialect.datapath_bits()) - 1) as u8
}

/// The outcome of one concrete trial.
struct Trial {
    outputs: Vec<u8>,
    halted: bool,
    instructions: u64,
    error: Option<&'static str>,
}

/// Run one trial, checking per-step reachability and crash coverage.
#[allow(clippy::too_many_arguments)]
fn run_trial(
    target: &Target,
    program: &Program,
    report: &CheckReport,
    inputs: &[u8],
    budget: u64,
    perturb_seed: Option<u64>,
    violations: &mut Vec<String>,
    ctx: &str,
) -> Trial {
    let mut core = AnyCore::for_dialect(target.dialect, target.features, program.clone());
    if let Some(seed) = perturb_seed {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut snap = core.snapshot();
        for cell in tracked_cells(target.dialect) {
            if cell < snap.mem.len() {
                snap.mem[cell] = rng.gen::<u8>() & data_mask(target.dialect);
            }
        }
        core.restore(&snap);
    }
    let mut input = ScriptedInput::new(inputs.to_vec());
    let mut output = RecordingOutput::new();
    let mut error = None;
    while !core.is_halted() && core.budget_spent() < budget {
        match core.step(&mut input, &mut output) {
            Ok(event) => {
                if report.exact && !report.reachable.contains(&event.address) {
                    violations.push(format!(
                        "{ctx}: engine fetched {:#06x}, not in the reachable set",
                        event.address
                    ));
                }
            }
            Err(e) => {
                let (lints, address, name): (&[Lint], _, _) = match e {
                    SimError::IllegalInstruction { address, .. } => {
                        (&[Lint::IllegalEncoding], Some(address), "illegal")
                    }
                    SimError::TruncatedInstruction { address } => {
                        (&[Lint::TruncatedEncoding], Some(address), "truncated")
                    }
                    SimError::FetchOutOfBounds { address, .. } => {
                        (&[Lint::OffImageFetch], Some(address), "off-image")
                    }
                    // a page-out is claimed either by a constant bad
                    // page (PageOutOfImage) or a data-dependent one
                    // (WildPageCommit)
                    SimError::PageOutOfRange { .. } => (
                        &[Lint::PageOutOfImage, Lint::WildPageCommit],
                        None,
                        "page-out",
                    ),
                    _ => unreachable!("step() never raises the watchdog"),
                };
                if report.exact {
                    let covered = report
                        .findings
                        .iter()
                        .any(|f| lints.contains(&f.lint) && address.is_none_or(|a| f.address == a));
                    if !covered {
                        violations.push(format!(
                            "{ctx}: engine raised {name} at {address:?} with no matching finding"
                        ));
                    }
                }
                error = Some(name);
                break;
            }
        }
    }
    Trial {
        outputs: output.values(),
        halted: core.is_halted(),
        instructions: core.instructions(),
        error,
    }
}

/// Analyze one program and validate every claim against the engine.
pub fn check_program(
    target: &Target,
    program: &Program,
    seed: u64,
    budget: u64,
    stats: &mut CampaignStats,
) {
    let report = crate::analyze(target, program);
    stats.programs += 1;
    stats.findings += report.findings.len();
    if report.exact {
        stats.exact_programs += 1;
    }
    let dialect = target.dialect;
    let static_hang = report.findings.iter().any(|f| f.lint == Lint::StaticHang);
    let uninit_free = report.exact && !report.findings.iter().any(|f| f.lint == Lint::UninitRead);
    let max_in = data_mask(dialect) & 0xF;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
    let scripted: Vec<u8> = (0..64).map(|_| rng.gen::<u8>() & 0xF).collect();
    let input_sets = [vec![0u8], vec![max_in], scripted];

    // the watchdog budget is cycles on fc4/fc8, instructions on the DSE
    // dialects; pick the matching bound for the no-cycle-limit claim
    let watchdog_bound = match dialect {
        Dialect::Fc4 | Dialect::Fc8 => report.cycle_bound,
        _ => report.instruction_bound,
    };
    let effective_budget = match watchdog_bound {
        // bound claim: a budget strictly above the bound is never hit
        Some(b) if b.saturating_add(1) < budget => b + 1,
        _ => budget,
    };

    for (t_idx, inputs) in input_sets.iter().enumerate() {
        let ctx = format!("{dialect:?} seed={seed:#x} trial={t_idx}");
        let trial = run_trial(
            target,
            program,
            &report,
            inputs,
            effective_budget,
            None,
            &mut stats.violations,
            &ctx,
        );
        stats.trials += 1;
        if trial.halted {
            stats.halted_trials += 1;
            if !report.halt_reachable {
                stats
                    .violations
                    .push(format!("{ctx}: halted but halt_reachable is false"));
            }
            if static_hang {
                stats
                    .violations
                    .push(format!("{ctx}: halted despite a static-hang finding"));
            }
        }
        if report.exact {
            if let (Some(b), true) = (report.instruction_bound, trial.halted) {
                if trial.instructions > b {
                    stats.violations.push(format!(
                        "{ctx}: retired {} instructions, bound was {b}",
                        trial.instructions
                    ));
                }
            }
            // with a watchdog bound, the run must end by halt or crash
            if watchdog_bound.is_some() && !trial.halted && trial.error.is_none() {
                stats.violations.push(format!(
                    "{ctx}: budget {effective_budget} exhausted despite bound {watchdog_bound:?}"
                ));
            }
        }
        if uninit_free {
            let perturbed = run_trial(
                target,
                program,
                &report,
                inputs,
                effective_budget,
                Some(seed ^ 0xBEEF ^ t_idx as u64),
                &mut stats.violations,
                &ctx,
            );
            stats.trials += 1;
            if perturbed.outputs != trial.outputs
                || perturbed.halted != trial.halted
                || perturbed.instructions != trial.instructions
                || perturbed.error != trial.error
            {
                stats.violations.push(format!(
                    "{ctx}: behavior changed under power-on memory perturbation \
                     with no uninit-read findings"
                ));
            }
        }
    }
}

/// Aggregate results of a masked-site differential campaign
/// ([`run_vuln_campaign`]).
#[derive(Debug, Default)]
pub struct VulnCampaignStats {
    /// Programs analyzed.
    pub programs: usize,
    /// Programs whose analysis stayed exact (only those make claims).
    pub exact_programs: usize,
    /// State elements proven masked across all programs.
    pub masked_elements: usize,
    /// Faulted engine runs compared against their clean reference.
    pub trials: usize,
    /// Unsound masking verdicts (empty on a passing campaign).
    pub violations: Vec<String>,
}

impl VulnCampaignStats {
    /// One-line summary for logs.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} program(s), {} exact, {} masked element(s), {} faulted trial(s), {} violation(s)",
            self.programs,
            self.exact_programs,
            self.masked_elements,
            self.trials,
            self.violations.len()
        )
    }
}

/// Everything the paper's §4.1 tester (and every oracle in this repo)
/// can observe about one run. Two runs with equal observations are
/// indistinguishable to campaigns, salvage screens and voters.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observation {
    outputs: Vec<u8>,
    halted: bool,
    instructions: u64,
    cycles: u64,
    error: Option<String>,
}

/// Run `program` to completion under `faults`, recording observables.
/// `perturb_seed` scrambles the power-on data memory first (identically
/// for the clean and faulted member of a differential pair).
fn observe(
    target: &Target,
    program: &Program,
    inputs: &[u8],
    budget: u64,
    perturb_seed: Option<u64>,
    faults: &mut flexicore::sim::FaultPlane,
) -> Observation {
    let mut core = AnyCore::for_dialect(target.dialect, target.features, program.clone());
    if let Some(seed) = perturb_seed {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut snap = core.snapshot();
        for cell in tracked_cells(target.dialect) {
            if cell < snap.mem.len() {
                snap.mem[cell] = rng.gen::<u8>() & data_mask(target.dialect);
            }
        }
        core.restore(&snap);
    }
    let mut input = ScriptedInput::new(inputs.to_vec());
    let mut output = RecordingOutput::new();
    let error = match core.run_with(&mut input, &mut output, budget, faults) {
        Ok(_) => None,
        Err(e) => Some(format!("{e:?}")),
    };
    Observation {
        outputs: output.values(),
        halted: core.is_halted(),
        instructions: core.instructions(),
        cycles: core.cycles(),
        error,
    }
}

/// Exhaustively inject every provably-masked site of one program —
/// both stuck-at polarities plus a mid-run transient flip, per bit —
/// and fail on any observable divergence from the clean run.
pub fn check_masked_sites(
    target: &Target,
    program: &Program,
    seed: u64,
    budget: u64,
    stats: &mut VulnCampaignStats,
) {
    use flexicore::sim::{ArchFault, FaultKind, FaultPlane};

    let vuln = crate::vuln::analyze(target, program);
    stats.programs += 1;
    if vuln.exact {
        stats.exact_programs += 1;
    }
    let masked: Vec<_> = vuln
        .elements
        .iter()
        .filter(|e| e.class == crate::vuln::SiteClass::ProvablyMasked)
        .collect();
    stats.masked_elements += masked.len();

    // the fault matrix: every masked (element, bit) under SA0, SA1 and
    // a transient flip landing mid-budget
    let mut faults: Vec<ArchFault> = Vec::new();
    for e in &masked {
        for bit in 0..e.bits {
            for kind in [
                FaultKind::StuckAt0,
                FaultKind::StuckAt1,
                FaultKind::FlipAtCycle(budget / 2),
            ] {
                faults.push(ArchFault {
                    element: e.element,
                    bit,
                    kind,
                });
            }
        }
    }
    // plus every polarity-refined stuck-at on live elements: bits the
    // analyzer proved constant at all observation points, where a
    // matching-polarity stuck-at forces the value the wire already
    // carries
    for e in &vuln.elements {
        if e.class != crate::vuln::SiteClass::ReachableLive {
            continue;
        }
        for bit in 0..e.bits {
            let mask = 1u8 << bit;
            if e.const0_bits & mask != 0 {
                faults.push(ArchFault {
                    element: e.element,
                    bit,
                    kind: FaultKind::StuckAt0,
                });
            }
            if e.const1_bits & mask != 0 {
                faults.push(ArchFault {
                    element: e.element,
                    bit,
                    kind: FaultKind::StuckAt1,
                });
            }
        }
    }
    if faults.is_empty() {
        return;
    }
    debug_assert!(faults.iter().all(|f| vuln.is_masked_fault(f)));

    // three power-on/input contexts per fault: all-zero inputs, a
    // seeded input script, and the same script on perturbed power-on
    // memory — the masking claim quantifies over all of them
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05EE_D0FA_71A5);
    let scripted: Vec<u8> = (0..48).map(|_| rng.gen::<u8>() & 0xF).collect();
    let contexts: [(Vec<u8>, Option<u64>); 3] = [
        (vec![0u8], None),
        (scripted.clone(), None),
        (scripted, Some(seed ^ 0xBEEF)),
    ];

    for (c_idx, (inputs, perturb)) in contexts.iter().enumerate() {
        let clean = observe(
            target,
            program,
            inputs,
            budget,
            *perturb,
            &mut FaultPlane::new(),
        );
        // fan the fault matrix out through flexshard: the trial set and
        // its order are fixed before any run, so the campaign replays
        // bit-for-bit whatever the worker topology
        let observed = flexshard::map_indexed(faults.len(), 1, |i| {
            let mut plane = FaultPlane::with_faults(vec![faults[i]]);
            observe(target, program, inputs, budget, *perturb, &mut plane)
        });
        stats.trials += observed.len();
        for (fault, obs) in faults.iter().zip(&observed) {
            if *obs != clean {
                stats.violations.push(format!(
                    "{:?} seed={seed:#x} ctx={c_idx}: provably-masked {fault} changed \
                     observables (clean: halted={} insns={} out={:?} err={:?}; \
                     faulted: halted={} insns={} out={:?} err={:?})",
                    target.dialect,
                    clean.halted,
                    clean.instructions,
                    clean.outputs,
                    clean.error,
                    obs.halted,
                    obs.instructions,
                    obs.outputs,
                    obs.error,
                ));
            }
        }
    }
}

/// Differential campaign for the vulnerability analysis: random
/// programs across all four dialects, every provably-masked site
/// injected through the real engine, zero tolerance for an observable
/// difference.
#[must_use]
pub fn run_vuln_campaign(config: &CampaignConfig) -> VulnCampaignStats {
    let mut stats = VulnCampaignStats::default();
    let dialects = [
        Dialect::Fc4,
        Dialect::Fc8,
        Dialect::ExtendedAcc,
        Dialect::LoadStore,
    ];
    for (d_idx, dialect) in dialects.into_iter().enumerate() {
        for i in 0..config.programs_per_dialect {
            // one derived seed per program, in a stream distinct from
            // the lint-soundness campaign's
            let seed = flexshard::cell_seed(
                config.seed ^ 0xAE57_A11C_0DE5_17E5,
                (d_idx * 1_000_003 + i) as u64,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let target = random_target(dialect, &mut rng);
            let program = generate_program(&target, i, &mut rng);
            check_masked_sites(&target, &program, seed, config.budget, &mut stats);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_has_zero_violations() {
        let n = if cfg!(debug_assertions) { 40 } else { 150 };
        let config = CampaignConfig {
            seed: 0xF1EC5,
            programs_per_dialect: n,
            budget: 2_000,
        };
        let stats = run_campaign(&config);
        assert!(
            stats.violations.is_empty(),
            "unsound verdicts:\n{}",
            stats.violations.join("\n")
        );
        assert_eq!(stats.programs, 4 * n);
        assert!(stats.exact_programs > 0, "some programs must stay exact");
        assert!(stats.halted_trials > 0, "paged programs halt by design");
    }

    #[test]
    fn campaign_is_replayable() {
        let config = CampaignConfig {
            seed: 42,
            programs_per_dialect: 5,
            budget: 500,
        };
        let a = run_campaign(&config);
        let b = run_campaign(&config);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn vuln_smoke_campaign_has_zero_violations() {
        let n = if cfg!(debug_assertions) { 8 } else { 30 };
        let config = CampaignConfig {
            seed: 0x0A5C_11F7,
            programs_per_dialect: n,
            budget: 1_000,
        };
        let stats = run_vuln_campaign(&config);
        assert!(
            stats.violations.is_empty(),
            "unsound masking verdicts:\n{}",
            stats.violations.join("\n")
        );
        assert_eq!(stats.programs, 4 * n);
        assert!(
            stats.masked_elements > 0,
            "random programs always leave some state unread"
        );
        assert!(
            stats.trials >= 1_000,
            "exhaustive injection over masked sites must exceed 1000 trials, got {}",
            stats.trials
        );
    }

    #[test]
    fn vuln_campaign_is_replayable() {
        let config = CampaignConfig {
            seed: 7,
            programs_per_dialect: 3,
            budget: 400,
        };
        let a = run_vuln_campaign(&config);
        let b = run_vuln_campaign(&config);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn a_false_masking_claim_would_be_caught() {
        // br self taken at power-on? no: fc4 acc=0 -> branch untaken,
        // runs off a 1-byte image; the input port is genuinely dead.
        // Inject a *live* element (the pc) through the same harness and
        // demand the differential machinery notices.
        use flexicore::sim::{ArchFault, FaultKind, FaultPlane};
        let t = Target::fc4();
        // load r0 (input) ; store r1 (echo) ; nandi 0 ; br self
        let p = Program::from_bytes(vec![0b0011_0000, 0b0111_0001, 0b0101_0000, 0b1000_0011]);
        let clean = observe(&t, &p, &[5], 500, None, &mut FaultPlane::new());
        assert!(clean.halted);
        assert_eq!(clean.outputs, vec![5]);
        let mut plane = FaultPlane::with_faults(vec![ArchFault {
            element: flexicore::sim::StateElement::InputPort,
            bit: 1,
            kind: FaultKind::StuckAt1,
        }]);
        let faulted = observe(&t, &p, &[5], 500, None, &mut plane);
        assert_ne!(
            faulted, clean,
            "a live input-port fault must change observables"
        );
    }

    /// The engine's hang fast-forward against the plain step loop, on
    /// every generator flavor (raw, legal, quiet and paged images) under
    /// clean, stuck-at and transient fault planes (fetch-bus planes
    /// among them, so the engine's fetch latch is checked too): the one
    /// drain, `run_with`, must end exactly where the plain step loop
    /// ends, output cycle stamps included.
    #[test]
    fn generated_programs_fast_forward_exactly() {
        use flexicore::sim::{ArchFault, FaultKind, FaultPlane, StateElement};

        let per_dialect = if cfg!(debug_assertions) { 24 } else { 96 };
        let mut hangs = 0;
        let dialects = [
            Dialect::Fc4,
            Dialect::Fc8,
            Dialect::ExtendedAcc,
            Dialect::LoadStore,
        ];
        for (d_idx, dialect) in dialects.into_iter().enumerate() {
            for i in 0..per_dialect {
                let mut rng = StdRng::seed_from_u64(0x4A46_0000 + (d_idx * 1_000 + i) as u64);
                let target = random_target(dialect, &mut rng);
                let program = generate_program(&target, i, &mut rng);
                let budget = [0, 1, 700, 5_000, 20_000][i % 5];
                let inputs: Vec<u8> = (0..rng.gen_range(0..4usize)).map(|_| rng.gen()).collect();
                let mut planes = vec![FaultPlane::new()];
                for _ in 0..3 {
                    let element = match rng.gen_range(0..8) {
                        0 => StateElement::Pc,
                        1 => StateElement::Acc,
                        2 => StateElement::FetchBus,
                        3 => StateElement::InputPort,
                        4 => StateElement::OutputPort,
                        5 => StateElement::PageReg,
                        6 => StateElement::PagePending,
                        _ => StateElement::Mem(rng.gen_range(0..8u8)),
                    };
                    let kind = match rng.gen_range(0..3) {
                        0 => FaultKind::StuckAt0,
                        1 => FaultKind::StuckAt1,
                        _ => FaultKind::FlipAtCycle(rng.gen_range(0..3_000u64)),
                    };
                    planes.push(FaultPlane::with_faults(vec![ArchFault {
                        element,
                        bit: rng.gen_range(0..4u8),
                        kind,
                    }]));
                }
                let core =
                    || AnyCore::for_dialect(target.dialect, target.features, program.clone());
                for plane in &planes {
                    // the oracle: the loop that never fast-forwards
                    let mut plain = core();
                    let mut input = ScriptedInput::new(inputs.clone());
                    let mut output = RecordingOutput::new();
                    let mut hook = plane.clone();
                    plain.power_on_faults(&mut hook);
                    let mut want = Ok(());
                    while !plain.is_halted() && plain.budget_spent() < budget {
                        if let Err(e) = plain.step_with(&mut input, &mut output, &mut hook) {
                            want = Err(e);
                            break;
                        }
                    }
                    let want = want.map(|()| plain.run_result());
                    hangs += usize::from(matches!(want, Ok(r) if !r.halted() && budget > 2_048));

                    let mut fast = core();
                    let mut fast_out = RecordingOutput::new();
                    let got = fast.run_with(
                        &mut ScriptedInput::new(inputs.clone()),
                        &mut fast_out,
                        budget,
                        &mut plane.clone(),
                    );
                    let ctx = format!("{dialect:?} #{i} {plane:?} budget {budget}");
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(fast_out.writes(), output.writes(), "{ctx}");
                    assert_eq!(fast.snapshot(), plain.snapshot(), "{ctx}");
                }
            }
        }
        assert!(
            hangs > 0,
            "some generated programs must hang past a checkpoint"
        );
    }

    #[test]
    fn paged_generators_reach_page_one() {
        let mut rng = StdRng::seed_from_u64(7);
        let program = paged_fc4(&mut rng);
        let t = Target::fc4();
        let report = crate::analyze(&t, &program);
        assert!(report.exact, "{}", report.render());
        assert!(report.may_change_page);
        assert!(report.halt_reachable);
        assert!(
            report.reachable.iter().any(|a| *a >= 128),
            "page-1 code must be reachable"
        );

        let program = paged_fc8(&mut rng);
        let t = Target::fc8();
        let report = crate::analyze(&t, &program);
        assert!(report.halt_reachable, "{}", report.render());
        assert!(report.reachable.iter().any(|a| *a >= 128));
    }
}
