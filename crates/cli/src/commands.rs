//! The `flexi` subcommands. Each returns its output as a `String`.

use crate::args::{Args, CliError};
use flexasm::{Assembler, Target};
use flexicore::exec::AnyCore;
use flexicore::io::{InputPort, OutputPort, RecordingOutput, ScriptedInput};
use flexicore::isa::Dialect;
use flexicore::program::Program;
use flexicore::sim::RunResult;
use flexkernels::Kernel;
use std::fmt::Write as _;

/// Build the gate-level netlist for a fabricated dialect, or report that
/// `command` only supports the two taped-out cores.
fn fabricated_netlist(
    command: &str,
    dialect: Dialect,
) -> Result<flexgate::netlist::Netlist, CliError> {
    match dialect {
        Dialect::Fc4 => Ok(flexrtl::build_fc4()),
        Dialect::Fc8 => Ok(flexrtl::build_fc8()),
        other => Err(CliError::Usage(format!(
            "{command} supports the fabricated dialects fc4/fc8, not {other}"
        ))),
    }
}

/// The help text.
#[must_use]
pub fn usage() -> String {
    "\
flexi — FlexiCores toolbox (ISCA 2022 reproduction)

commands:
  asm     <file.s> [--target T] [--features F,..] [--out prog.bin] [--listing]
  check   <file.s> [--target T] [--features F,..] [--deny info|warning|error]
          [--vuln] | --kernels [--target T] [--vuln] | --campaign N [--seed S]
  disasm  <prog.bin> [--target T]
  run     <file.s> [--target T] [--features F,..] [--input 1,2,..]
                   [--max-cycles N] [--trace]
  cosim   <file.s> [--target fc4|fc8] [--input N] [--cycles N]
  kernels [--target T] [--features F,..]
  kernel  <name> --input 1,2,.. [--target T] [--features F,..]
  wave    <file.s> [--target fc4|fc8] [--input N] [--cycles N] [--out trace.vcd]
  wafer   [--design fc4|fc8|fc4plus] [--voltage V] [--seed N] [--cycles N]
          [--map errors|current|csv] [--threads N]
  inject  [--dialect fc4|fc8|xacc|xls] [--kernel K] [--faults N] [--seed N]
          [--budget N] [--mode stuck|transient|mixed] [--threads N]
  resilient [--dialect fc4|fc8|xacc|xls] [--kernel K] [--faults N] [--seed N]
          [--budget N] [--mode stuck|transient|mixed]
          [--quorum tmr|dmr|simplex] [--window N] [--interval N]
          [--retries N] [--spares N] [--threads N]
  link    [--dialect fc4|fc8|xacc|xls] [--kernel K] [--rates R1,R2,..]
          [--ber R1,R2,..] [--seed N] [--upsets N] [--interval N] [--scrub N]
          [--retries N] [--budget N] [--signed] [--threads N]
  attack  [--dialect fc4|fc8|xacc|xls] [--rates R1,R2,..] [--reps N]
          [--trials N] [--seed N] [--retries N] [--threads N]
  mission [--dialect fc4|fc8|xacc|xls] [--kernel K] [--trials N] [--ticks N]
          [--seed N] [--spares N] [--budget N] [--deny info|warning|error]
          [--threads N]
  dse
  serve   [--port N] [--host H] [--cache DIR] [--workers N] [--queue N]
          [--conns N] [--deadline-ms N]
  client  <status|drain|asm|check|admit|run|yield|batch> [<file.s>] --port N
          [--host H] [--deadline-ms N] [--target T] [--features F,..]
          [--deny S] [--input 1,2,..] [--max-cycles N] [--design D]
          [--voltage-mv N] [--seed N] [--cycles N] [--salvage]
  help

targets: fc4 (default), fc8, xacc, xls
features (xacc/xls): adc, shift, flags, mul, xch, call, 2xreg — or `revised`
campaign scaling: --threads N workers (and serve's --workers), at most 256 of
them started; any count replays the single-threaded report bit-for-bit
counts (--faults, --trials, --ticks, --spares, --reps, --upsets, --retries,
--window, --threads, --campaign, --cycles) are capped at 1048576
"
    .to_string()
}

/// `flexi asm` — assemble a source file.
///
/// # Errors
///
/// Usage, IO or assembly errors.
pub fn asm(args: &mut Args) -> Result<String, CliError> {
    let path = args.positional(0, "source file").map(str::to_string)?;
    let target = args.target()?;
    let source = std::fs::read_to_string(&path)?;
    let assembly = Assembler::new(target).assemble(&source)?;
    let mut out = format!(
        "{path}: {} instructions, {} bytes ({} bits) for {} [{}]\n",
        assembly.static_instructions(),
        assembly.code_bytes(),
        assembly.code_bits(),
        target.dialect,
        target.features,
    );
    if args.has("listing") {
        out.push_str(&assembly.listing_text());
    }
    // surface analyzer warnings at assembly time (errors don't block
    // `asm` — `flexi check` is the gate)
    let report = flexcheck::check_assembly(&assembly);
    for finding in report.at_least(flexcheck::Severity::Warning) {
        let _ = writeln!(out, "{finding}");
    }
    if let Some(dest) = args.flag("out") {
        std::fs::write(&dest, assembly.program().as_bytes())?;
        let _ = writeln!(out, "wrote {} bytes to {dest}", assembly.program().len());
    }
    Ok(out)
}

/// `flexi check` — static analysis over a source file, the kernel
/// suite, or a differential soundness campaign.
///
/// # Errors
///
/// Usage, IO or assembly errors; [`CliError::Run`] (non-zero exit) when
/// findings at or above the `--deny` severity exist, or when a campaign
/// observes an unsound verdict.
pub fn check(args: &mut Args) -> Result<String, CliError> {
    let deny = match args.flag("deny") {
        None => flexcheck::Severity::Error,
        Some(name) => flexcheck::Severity::parse(&name).ok_or_else(|| {
            CliError::Usage(format!("unknown severity `{name}` (info, warning, error)"))
        })?,
    };

    if args.has("campaign") {
        let programs = args.count("campaign", 0usize)?;
        let seed = args.num("seed", 0xF1EC5u64)?;
        let config = flexcheck::soundness::CampaignConfig {
            seed,
            programs_per_dialect: programs,
            budget: 4_096,
        };
        let stats = flexcheck::soundness::run_campaign(&config);
        let mut out = format!("soundness campaign (seed {seed:#x}): {}\n", stats.summary());
        if stats.violations.is_empty() {
            out.push_str("no unsound verdicts\n");
            return Ok(out);
        }
        for v in &stats.violations {
            let _ = writeln!(out, "UNSOUND: {v}");
        }
        return Err(CliError::Run(format!(
            "{} unsound verdict(s)",
            stats.violations.len()
        )));
    }

    let target = args.target()?;
    let vuln = args.has("vuln");
    if args.has("kernels") {
        let mut out = String::new();
        let mut worst: Option<String> = None;
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for kernel in Kernel::ALL {
            if !kernel.supports(target.dialect) {
                continue;
            }
            let assembly = Assembler::new(target).assemble(&kernel.source_for(target.dialect))?;
            if vuln {
                let report = flexcheck::vuln::analyze_assembly(&assembly);
                let _ = writeln!(
                    out,
                    "{kernel}: {}/{} site(s) provably masked ({:.1}%), {} polarity-masked bit(s)",
                    report.masked_sites(),
                    report.total_sites(),
                    report.masked_fraction() * 100.0,
                    report.polarity_masked_bits(),
                );
                digest ^= report.digest();
                digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
                continue;
            }
            let report = flexcheck::check_assembly(&assembly);
            let _ = writeln!(
                out,
                "{kernel}: {} reachable instruction(s), {} finding(s)",
                report.reachable_instructions,
                report.findings.len()
            );
            for finding in &report.findings {
                let _ = writeln!(out, "  {finding}");
            }
            if report.has_at_least(deny) && worst.is_none() {
                worst = Some(kernel.to_string());
            }
        }
        if vuln {
            let _ = writeln!(out, "suite vuln digest {digest:#018x}");
        }
        if let Some(kernel) = worst {
            return Err(CliError::Run(format!(
                "kernel `{kernel}` has findings at or above `{deny}` severity"
            )));
        }
        return Ok(out);
    }

    let path = args.positional(0, "source file").map(str::to_string)?;
    let source = std::fs::read_to_string(&path)?;
    let assembly = Assembler::new(target).assemble(&source)?;
    if vuln {
        let report = flexcheck::vuln::analyze_assembly(&assembly);
        return Ok(format!("{path}: {}", report.render()));
    }
    let report = flexcheck::check_assembly(&assembly);
    let out = format!("{path}: {}", report.render());
    if report.has_at_least(deny) {
        return Err(CliError::Run(format!(
            "`{path}` has findings at or above `{deny}` severity\n{out}"
        )));
    }
    Ok(out)
}

/// `flexi disasm` — disassemble a binary image.
///
/// # Errors
///
/// Usage or IO errors.
pub fn disasm(args: &mut Args) -> Result<String, CliError> {
    let path = args.positional(0, "binary file").map(str::to_string)?;
    let target = args.target()?;
    let bytes = std::fs::read(&path)?;
    let program = Program::from_bytes(bytes);
    Ok(flexasm::disasm::disassemble_text(target.dialect, &program))
}

/// `flexi run` — assemble and execute on the matching simulator.
///
/// # Errors
///
/// Usage, IO, assembly or simulation errors.
pub fn run(args: &mut Args) -> Result<String, CliError> {
    let path = args.positional(0, "source file").map(str::to_string)?;
    let target = args.target()?;
    let inputs = args.u8_list("input")?;
    let max_cycles = args.num("max-cycles", 1_000_000u64)?;
    let trace = args.has("trace");

    let source = std::fs::read_to_string(&path)?;
    let assembly = Assembler::new(target).assemble(&source)?;
    let program = assembly.into_program();
    let mut input = ScriptedInput::new(inputs);
    let mut output = RecordingOutput::new();
    let (result, trace_text) = execute(target, program, &mut input, &mut output, max_cycles, trace)
        .map_err(|e| CliError::Run(e.to_string()))?;

    let mut out = String::new();
    if trace {
        out.push_str(&trace_text);
    }
    let _ = writeln!(
        out,
        "{}: {} instructions, {} cycles, {} taken branches",
        if result.halted() {
            "halted"
        } else {
            "cycle limit"
        },
        result.instructions,
        result.cycles,
        result.taken_branches,
    );
    let values: Vec<String> = output.values().iter().map(|v| format!("{v:#x}")).collect();
    let _ = writeln!(out, "output port: [{}]", values.join(", "));
    Ok(out)
}

/// `flexi cosim` — run a program on both the ISA model and the gate-level
/// netlist for `--cycles` RTL clocks and report equivalence.
///
/// # Errors
///
/// Usage, IO, or assembly errors; a mismatch is reported in the output,
/// not as an error.
pub fn cosim(args: &mut Args) -> Result<String, CliError> {
    let path = args.positional(0, "source file").map(str::to_string)?;
    let target = args.target()?;
    let input = args.num("input", 0u8)?;
    let cycles = args.positive("cycles", 10_000)? as u64;
    let source = std::fs::read_to_string(&path)?;
    let assembly = Assembler::new(target).assemble(&source)?;
    let netlist = fabricated_netlist("cosim", target.dialect)?;
    let core = AnyCore::for_dialect(target.dialect, target.features, assembly.into_program());
    let mut fixed = flexicore::io::ConstInput::new(input);
    let result = flexrtl::cosim::cosim(&netlist, core, &mut fixed, cycles);
    Ok(if result.is_equivalent() {
        format!(
            "equivalent: RTL matched the ISA model on all {} cycles\n",
            result.cycles
        )
    } else {
        format!("MISMATCH: {:?}\n", result.mismatches)
    })
}

/// `flexi wave` — run a program on the gate-level netlist and dump a VCD
/// waveform of its ports.
///
/// # Errors
///
/// Usage, IO or assembly errors.
pub fn wave(args: &mut Args) -> Result<String, CliError> {
    let path = args.positional(0, "source file").map(str::to_string)?;
    let target = args.target()?;
    let input = args.num("input", 0u8)?;
    let cycles = args.positive("cycles", 500)? as u64;
    let dest = args.flag("out").unwrap_or_else(|| "trace.vcd".to_string());

    let source = std::fs::read_to_string(&path)?;
    let assembly = Assembler::new(target).assemble(&source)?;
    let netlist = fabricated_netlist("wave", target.dialect)?;
    let mut sim = flexgate::sim::BatchSim::new(&netlist)
        .map_err(|e| CliError::Run(format!("netlist rejected by the gate simulator: {e}")))?;
    sim.reset();
    let mut vcd = flexgate::vcd::VcdRecorder::new(&netlist, &["instr", "iport", "pc", "oport"]);
    let program = assembly.program();
    let mut sampled = 0u64;
    for _ in 0..cycles {
        let pc = sim.output_value("pc", 0) as u32;
        let Some(byte) = program.fetch(pc) else { break };
        sim.set_input_value("instr", u64::from(byte), !0);
        sim.set_input_value("iport", u64::from(input), !0);
        sim.clock();
        sim.settle();
        vcd.sample(&sim);
        sampled += 1;
    }
    std::fs::write(&dest, vcd.render("flexicore"))?;
    Ok(format!(
        "wrote {sampled} cycles of instr/iport/pc/oport to {dest}
"
    ))
}

/// `flexi kernels` — list the benchmark kernels for a target.
///
/// # Errors
///
/// Usage or assembly errors.
pub fn kernels(args: &mut Args) -> Result<String, CliError> {
    let target = args.target()?;
    let mut out = format!(
        "{:<15} {:>8} {:>8} {:>8}  inputs\n",
        "kernel", "insns", "bytes", "paper"
    );
    for k in Kernel::ALL {
        let assembly = k.assemble(target)?;
        let _ = writeln!(
            out,
            "{:<15} {:>8} {:>8} {:>8}  {}",
            k.name(),
            assembly.static_instructions(),
            assembly.code_bytes(),
            k.paper_static_instructions(),
            k.inputs_per_run(),
        );
    }
    Ok(out)
}

/// `flexi kernel <name>` — run one kernel with explicit inputs, verified
/// against its oracle.
///
/// # Errors
///
/// Usage errors, or [`CliError::Run`] when the kernel fails verification.
pub fn kernel(args: &mut Args) -> Result<String, CliError> {
    let name = args.positional(0, "kernel name").map(str::to_string)?;
    let target = args.target()?;
    let inputs = args.u8_list("input")?;
    let kernel = Kernel::ALL
        .into_iter()
        .find(|k| {
            k.name().eq_ignore_ascii_case(&name)
                || k.name().to_lowercase().replace([' ', '-'], "") == name.to_lowercase()
        })
        .ok_or_else(|| {
            CliError::Usage(format!(
                "unknown kernel `{name}`; see `flexi kernels` for the list"
            ))
        })?;
    if inputs.len() < kernel.inputs_per_run() {
        return Err(CliError::Usage(format!(
            "{} needs {} input values (--input), got {}",
            kernel.name(),
            kernel.inputs_per_run(),
            inputs.len()
        )));
    }
    let run = kernel
        .run(target, &inputs)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let payload: Vec<String> = run.outputs.iter().map(|v| format!("{v:#x}")).collect();
    Ok(format!(
        "{}: verified against oracle\noutputs: [{}]\n{} instructions, {} cycles\n",
        kernel.name(),
        payload.join(", "),
        run.result.instructions,
        run.result.cycles,
    ))
}

/// `flexi wafer` — fabricate and test a virtual wafer.
///
/// # Errors
///
/// Usage errors.
pub fn wafer(args: &mut Args) -> Result<String, CliError> {
    use flexfab::wafer_run::{CoreDesign, WaferExperiment};
    let design_name = args.flag("design").unwrap_or_else(|| "fc4".to_string());
    let design = CoreDesign::parse(&design_name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown design `{design_name}` (fc4, fc8, fc4plus)"
        ))
    })?;
    let voltage = args.num("voltage", 4.5f64)?;
    let seed = args.num("seed", flexfab::calibration::seeds::YIELD)?;
    let cycles = args.positive("cycles", 10_000)? as u64;
    let map = args.flag("map").unwrap_or_else(|| "errors".to_string());
    let threads = args.positive("threads", 1)?;

    let exp = WaferExperiment::new(design, seed);
    let run = exp
        .run_with(voltage, cycles, threads)
        .map_err(|e| match e {
            flexfab::FabError::Voltage { .. } => CliError::Usage(e.to_string()),
            e => CliError::Run(e.to_string()),
        })?;
    let mut out = format!(
        "{} wafer, seed {seed:#x}, {} dies, tested at {voltage} V with {} vectors/die\n",
        design.name(),
        exp.layout().die_count(),
        cycles
    );
    match map.as_str() {
        "errors" => out.push_str(&flexfab::wafermap::error_map(&run)),
        "current" => out.push_str(&flexfab::wafermap::current_map(&run)),
        "csv" => out.push_str(&flexfab::wafermap::to_csv(&run)),
        other => {
            return Err(CliError::Usage(format!(
                "unknown map `{other}` (errors, current, csv)"
            )))
        }
    }
    let stats = run.current_stats();
    let _ = writeln!(
        out,
        "yield: {:.0}% full / {:.0}% inclusion; current mean {:.2} mA, RSD {:.1}%",
        run.yield_full() * 100.0,
        run.yield_inclusion() * 100.0,
        stats.mean_ma,
        stats.rsd * 100.0,
    );
    Ok(out)
}

/// `flexi inject` — run a deterministic fault-injection campaign
/// against one kernel on one dialect and print the classification
/// table (Masked / SDC / Crash / Hang) plus the per-element
/// vulnerability ranking.
///
/// # Errors
///
/// Usage errors, or [`CliError::Run`] if the campaign itself fails
/// (the kernel does not assemble or the clean reference run fails).
pub fn inject(args: &mut Args) -> Result<String, CliError> {
    use flexinject::CampaignConfig;

    let target = dialect_flag(args)?.unwrap_or_else(Target::fc4);
    let kernel = kernel_flag(args, target.dialect)?.unwrap_or(Kernel::ParityCheck);
    let trials = args.count("faults", 32usize)?;
    let seed = args.num("seed", 0xF417u64)?;
    let budget = args.num("budget", flexkernels::harness::CYCLE_BUDGET)?;
    let model = fault_model(args)?;

    let mut config = CampaignConfig::new(target, kernel, trials, seed);
    config.budget = budget;
    config.model = model;
    config.threads = args.positive("threads", 1)?;
    let result = flexinject::run_campaign(config).map_err(|e| CliError::Run(e.to_string()))?;
    Ok(flexinject::report::render_campaign(&result))
}

/// `flexi resilient` — run a seeded fault-injection campaign through
/// the resilient executor and print the per-trial recovery table
/// (Masked / Recovered / Unrecoverable) plus the tally.
///
/// `--quorum` picks the rung of the degradation ladder: `tmr` votes
/// three lanes per output window, `dmr` re-executes checkpoint segments
/// on divergence, `simplex` only catches crashes and hangs.
///
/// # Errors
///
/// Usage errors, or [`CliError::Run`] if the campaign itself fails
/// (the kernel does not assemble or the clean reference run fails).
pub fn resilient(args: &mut Args) -> Result<String, CliError> {
    use flexresilient::{QuorumMode, RecoveryCampaignConfig};

    let target = dialect_flag(args)?.unwrap_or_else(Target::fc4);
    let kernel = kernel_flag(args, target.dialect)?.unwrap_or(Kernel::ParityCheck);
    let model = fault_model(args)?;
    let quorum_name = args.flag("quorum").unwrap_or_else(|| "tmr".to_string());
    let quorum = QuorumMode::from_name(&quorum_name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown quorum `{quorum_name}` (tmr, dmr, simplex)"
        ))
    })?;

    let mut config = RecoveryCampaignConfig::new(
        target,
        kernel,
        args.count("faults", 32usize)?,
        args.num("seed", 0xF417u64)?,
    );
    config.budget = args.num("budget", flexkernels::harness::CYCLE_BUDGET)?;
    config.model = model;
    config.mode = quorum;
    config.window = args.positive("window", config.window)?;
    config.interval = interval(args, config.interval)?;
    config.max_retries = args.count("retries", config.max_retries)?;
    config.spares = args.count("spares", config.spares)?;
    config.threads = args.positive("threads", 1)?;

    let campaign =
        flexresilient::run_recovery_campaign(config).map_err(|e| CliError::Run(e.to_string()))?;
    Ok(flexresilient::render_recovery_campaign(&campaign))
}

/// `flexi link` — soak the field-reprogramming link: program every
/// kernel through a noisy channel across a bit-error-rate sweep, upset
/// the ECC store while it executes, and print the per-trial
/// masked / recovered / unrecoverable table.
///
/// # Errors
///
/// Usage errors, or [`CliError::Run`] if a configured kernel does not
/// assemble for the dialect.
pub fn link(args: &mut Args) -> Result<String, CliError> {
    use flexlink::soak::{run_soak, SoakConfig};

    let target = dialect_flag(args)?.unwrap_or_else(Target::fc4);
    let rates = error_rates(args, &[0.0, 1e-4, 5e-4])?;
    let signed = args.has("signed");
    let seed = args.num("seed", 0x11FEu64)?;
    let mut config = SoakConfig::new(target, rates, seed);
    if let Some(kernel) = kernel_flag(args, target.dialect)? {
        config.kernels = vec![kernel];
    }
    config.upsets_per_trial = args.count("upsets", config.upsets_per_trial)?;
    config.exec.interval = interval(args, config.exec.interval)?;
    config.exec.scrub_interval = args.num("scrub", config.exec.scrub_interval)?;
    config.exec.budget = args.num("budget", config.exec.budget)?;
    config.link.max_retries = args.count("retries", config.link.max_retries)?;
    config.threads = args.positive("threads", 1)?;

    if signed {
        return link_signed(&config);
    }
    let campaign = run_soak(config).map_err(|e| CliError::Run(e.to_string()))?;
    Ok(flexlink::report::render(&campaign))
}

/// `--interval`: retired instructions per checkpointed segment. Any
/// `u64` but 0 — an empty segment commits nothing and never ends.
fn interval(args: &mut Args, default: u64) -> Result<u64, CliError> {
    let interval = args.num("interval", default)?;
    if interval == 0 {
        return Err(CliError::Usage("--interval must be at least 1".into()));
    }
    Ok(interval)
}

/// `--dialect`: a dialect by its CLI name (the extended dialects with
/// their revised feature sets), `None` when the flag is absent.
fn dialect_flag(args: &mut Args) -> Result<Option<Target>, CliError> {
    args.flag("dialect")
        .map(|dialect| {
            flexinject::target_from_name(&dialect).ok_or_else(|| {
                CliError::Usage(format!("unknown dialect `{dialect}` (fc4, fc8, xacc, xls)"))
            })
        })
        .transpose()
}

/// `--kernel`: a kernel that fits `dialect`, `None` when the flag is
/// absent.
fn kernel_flag(args: &mut Args, dialect: Dialect) -> Result<Option<Kernel>, CliError> {
    let Some(name) = args.flag("kernel") else {
        return Ok(None);
    };
    let kernel = flexinject::kernel_from_name(&name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown kernel `{name}`; run `flexi kernels` for the list"
        ))
    })?;
    if !kernel.supports(dialect) {
        return Err(CliError::Usage(format!(
            "kernel `{}` does not fit the {dialect} dialect (§3.3 capacity trade-off)",
            kernel.name(),
        )));
    }
    Ok(Some(kernel))
}

/// `--mode`: the fault model, stuck-at unless given.
fn fault_model(args: &mut Args) -> Result<flexinject::FaultModel, CliError> {
    let mode = args.flag("mode").unwrap_or_else(|| "stuck".to_string());
    flexinject::FaultModel::from_name(&mode)
        .ok_or_else(|| CliError::Usage(format!("unknown mode `{mode}` (stuck, transient, mixed)")))
}

/// `--rates` and its alias `--ber`: bit-error rates, each in [0, 1];
/// `default` when neither flag is given.
fn error_rates(args: &mut Args, default: &[f64]) -> Result<Vec<f64>, CliError> {
    let mut rates = args.f64_list("rates")?;
    rates.extend(args.f64_list("ber")?);
    if rates.is_empty() {
        rates = default.to_vec();
    }
    if let Some(bad) = rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
        return Err(CliError::Usage(format!(
            "bit-error rate {bad} outside [0, 1]"
        )));
    }
    Ok(rates)
}

/// `flexi link --signed` — drive one authenticated A/B update per
/// (kernel, error-rate) cell and report each device's verdict.
fn link_signed(config: &flexlink::SoakConfig) -> Result<String, CliError> {
    use flexicore::sim::PowerCut;
    use flexkernels::harness::PreparedKernel;
    use flexlink::attack::DEVICE_KEY;

    let mut out = format!(
        "signed update: {:?} · {} kernels × {} error rates · seed {}\n\n",
        config.target.dialect,
        config.kernels.len(),
        config.error_rates.len(),
        config.seed,
    );
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>6} {:>6}  status",
        "kernel", "ber", "from", "to"
    );
    let mut applied = 0usize;
    for (k, &kernel) in config.kernels.iter().enumerate() {
        let prepared =
            PreparedKernel::new(kernel, config.target).map_err(|e| CliError::Run(e.to_string()))?;
        let image = prepared.program().as_bytes().to_vec();
        for (r, &ber) in config.error_rates.iter().enumerate() {
            let cell = ((k as u64) << 32) | r as u64;
            let trial_seed = config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(cell);
            let mut device = flexlink::Device::new(config.target, image.len(), DEVICE_KEY)
                .with_link(config.link);
            device
                .provision(&flexlink::sign_update(
                    config.target.dialect,
                    &image,
                    1,
                    DEVICE_KEY,
                ))
                .map_err(|e| CliError::Run(format!("provisioning failed: {e}")))?;
            let from = device.active_version().unwrap_or(0);
            let next = flexlink::sign_update(config.target.dialect, &image, 2, DEVICE_KEY);
            let mut channel = flexlink::NoisyChannel::new(
                flexlink::ChannelConfig::with_bit_error_rate(ber),
                trial_seed,
            );
            let report =
                device.apply_update(&next.wire_bytes(), &mut channel, &mut PowerCut::never());
            let to = device.active_version().unwrap_or(0);
            if matches!(report.status, flexlink::UpdateStatus::Applied { .. }) {
                applied += 1;
            }
            let _ = writeln!(
                out,
                "{:<14} {:>9.1e} {:>6} {:>6}  {}",
                kernel.name(),
                ber,
                from,
                to,
                report.status
            );
        }
    }
    let _ = writeln!(
        out,
        "\napplied {applied}/{} updates",
        config.kernels.len() * config.error_rates.len()
    );
    Ok(out)
}

/// `flexi attack` — the authenticated-update attacker soak: sweep
/// forgery, replay, downgrade, truncation, bit-flip and power-cut
/// behaviours against every dialect and grade each die after reboot.
///
/// # Errors
///
/// [`CliError::Usage`] for malformed flags; [`CliError::Run`] if a
/// kernel fails to assemble **or the campaign is breached** (any
/// accepted forgery or bricked die), so scripted gates fail loudly.
pub fn attack(args: &mut Args) -> Result<String, CliError> {
    use flexlink::{run_attack_soak, AttackSoakConfig};

    let rates = error_rates(args, &[0.0, 1e-4])?;
    let seed = args.num("seed", 0xA77Cu64)?;
    let mut config = AttackSoakConfig::new(rates, 1, seed);
    if let Some(target) = dialect_flag(args)? {
        config.targets = vec![target];
    }
    config.link.max_retries = args.count("retries", config.link.max_retries)?;
    config.reps = args.count("reps", config.reps)?;
    config.threads = args.positive("threads", 1)?;
    // `--trials N` asks for at least N trials: scale the repetitions
    let trials = args.count("trials", 0usize)?;
    if trials > 0 {
        let per_rep = config.trial_count() / config.reps.max(1);
        if per_rep == 0 {
            return Err(CliError::Usage(
                "empty sweep: no (kernel, rate) cells".into(),
            ));
        }
        config.reps = trials.div_ceil(per_rep).max(config.reps);
    }

    let campaign = run_attack_soak(config).map_err(|e| CliError::Run(e.to_string()))?;
    let rendered = flexlink::report::render_attack(&campaign);
    if !campaign.defended() {
        return Err(CliError::Run(format!(
            "attack soak breached: {} accepted forgeries, {} bricked dies\n{rendered}",
            campaign.accepted_forgeries(),
            campaign.bricked_dies(),
        )));
    }
    Ok(rendered)
}

/// `flexi mission` — lifetime soak: adaptive closed-loop health
/// management versus the static always-TMR baseline under the same
/// seeded mission stress histories (wear, bend events, brownouts).
///
/// # Errors
///
/// Usage errors for unknown dialects/kernels/severities and out-of-range
/// counts; [`CliError::Run`] if any forged re-flash is
/// accepted (a security breach, never expected).
pub fn mission(args: &mut Args) -> Result<String, CliError> {
    use flexmission::{run_mission_campaign, MissionConfig, MissionTally};

    let target = dialect_flag(args)?.unwrap_or_else(Target::fc4);
    let kernel = kernel_flag(args, target.dialect)?.unwrap_or(Kernel::ParityCheck);
    let trials = args.count("trials", 64usize)?;
    let ticks = args.count("ticks", 12u32)?;
    let seed = args.num("seed", 0x0015_510Au64)?;
    let mut config = MissionConfig::new(target, kernel, trials, ticks, seed);
    config.spares = args.count("spares", config.spares)?;
    config.budget = args.num("budget", config.budget)?;
    config.threads = args.positive("threads", 1)?;
    if let Some(name) = args.flag("deny") {
        config.deny = Some(flexcheck::Severity::parse(&name).ok_or_else(|| {
            CliError::Usage(format!("unknown severity `{name}` (info, warning, error)"))
        })?);
    }

    let adaptive = run_mission_campaign(&config).map_err(|e| CliError::Run(e.to_string()))?;
    let baseline = run_mission_campaign(&MissionConfig {
        adaptive: false,
        ..config
    })
    .map_err(|e| CliError::Run(e.to_string()))?;
    let rendered = flexmission::render_mission_comparison(&adaptive, &baseline);
    let forged =
        MissionTally::of(&adaptive).forged_accepted + MissionTally::of(&baseline).forged_accepted;
    if forged > 0 {
        return Err(CliError::Run(format!(
            "mission soak breached: {forged} accepted forgeries\n{rendered}"
        )));
    }
    Ok(rendered)
}

/// `flexi dse` — print the §6 summary.
///
/// # Errors
///
/// [`CliError::Run`] if the population fails to evaluate.
pub fn dse(_args: &mut Args) -> Result<String, CliError> {
    let summary = flexdse::pareto::summarize().map_err(|e| CliError::Run(e.to_string()))?;
    let base = &summary.population[0];
    let mut out = format!(
        "{:<10} {:>10} {:>10} {:>12} {:>12}\n",
        "config", "area", "fmax kHz", "time (rel)", "energy (rel)"
    );
    for r in &summary.population {
        let _ = writeln!(
            out,
            "{:<10} {:>10.0} {:>10.1} {:>12.2} {:>12.2}",
            if r.config.features.is_base() {
                "FC4 base".to_string()
            } else {
                r.config.label()
            },
            r.cost.area_nand2,
            r.cost.fmax_hz(4.5) / 1000.0,
            r.geomean_time_ms() / base.geomean_time_ms(),
            r.geomean_energy_uj() / base.geomean_energy_uj(),
        );
    }
    Ok(out)
}

/// `flexi serve` — run the toolchain daemon until drained (by a `drain`
/// request or stdin EOF). Prints the listening line eagerly so
/// supervising scripts can scrape the bound port.
///
/// # Errors
///
/// Usage errors, or [`CliError::Io`] if the bind or cache directory
/// fails.
pub fn serve(args: &mut Args) -> Result<String, CliError> {
    let host = args.flag("host").unwrap_or_else(|| "127.0.0.1".to_string());
    let port = args.num("port", 0u16)?;
    let cache_dir = args
        .flag("cache")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("flexserve-cache"));
    let config = flexserve::ServeConfig {
        addr: format!("{host}:{port}"),
        workers: args.num("workers", 4usize)?,
        queue_depth: args.num("queue", 64usize)?,
        max_connections: args.num("conns", 32usize)?,
        cache_dir,
        default_deadline_ms: args.num("deadline-ms", 0u64)?,
    };
    // Reject unknown flags *before* blocking in the daemon (dispatch's
    // own finish() would only run after the drain).
    args.finish()?;
    let handle = flexserve::serve(config)?;
    let stats = handle.stats();
    println!(
        "flexi serve: listening on {} ({} workers, queue {})",
        handle.addr(),
        stats.workers,
        stats.queue_depth,
    );
    let _ = std::io::Write::flush(&mut std::io::stdout());
    flexserve::drain_on_stdin_eof(&handle);
    let stats = handle.wait();
    Ok(format!("drained cleanly\n{}", stats.render()))
}

fn parse_deny(args: &mut Args) -> Result<u8, CliError> {
    let name = args.flag("deny").unwrap_or_else(|| "error".to_string());
    match name.as_str() {
        "info" => Ok(0),
        "warning" => Ok(1),
        "error" => Ok(2),
        other => Err(CliError::Usage(format!(
            "unknown deny severity `{other}` (info, warning, error)"
        ))),
    }
}

fn client_source_request(op: &str, args: &mut Args) -> Result<flexserve::Request, CliError> {
    let path = args.positional(1, "source file").map(str::to_string)?;
    let dialect = args.flag("target").unwrap_or_else(|| "fc4".to_string());
    let features = args.flag("features").unwrap_or_default();
    let source = std::fs::read_to_string(&path)?;
    Ok(match op {
        "asm" => flexserve::Request::Assemble {
            dialect,
            features,
            source,
        },
        "check" => flexserve::Request::Check {
            dialect,
            features,
            source,
            deny: parse_deny(args)?,
        },
        "admit" => flexserve::Request::Admit {
            dialect,
            features,
            source,
            deny: parse_deny(args)?,
        },
        _ => flexserve::Request::Simulate {
            dialect,
            features,
            source,
            inputs: args.u8_list("input")?,
            max_cycles: args.num("max-cycles", 1_000_000u64)?,
        },
    })
}

/// The CI/soak reference workload: assemble + analyze + admit + simulate
/// every kernel the fc4 dialect supports, plus one wafer yield query.
/// Deterministic in `seed`, so repeated batches are byte-identical and
/// the second run is all cache hits.
#[must_use]
pub fn standard_batch(seed: u64) -> Vec<flexserve::Request> {
    let dialect = Dialect::Fc4;
    let mut subs = Vec::new();
    for k in Kernel::ALL {
        if !k.supports(dialect) {
            continue;
        }
        let source = k.source_for(dialect);
        subs.push(flexserve::Request::Assemble {
            dialect: "fc4".to_string(),
            features: String::new(),
            source: source.clone(),
        });
        subs.push(flexserve::Request::Check {
            dialect: "fc4".to_string(),
            features: String::new(),
            source: source.clone(),
            deny: 2,
        });
        subs.push(flexserve::Request::Admit {
            dialect: "fc4".to_string(),
            features: String::new(),
            source: source.clone(),
            deny: 2,
        });
        subs.push(flexserve::Request::Simulate {
            dialect: "fc4".to_string(),
            features: String::new(),
            source,
            inputs: flexkernels::inputs::Sampler::new(k, seed).draw(),
            max_cycles: 200_000,
        });
    }
    subs.push(flexserve::Request::Yield {
        design: "fc4".to_string(),
        voltage_mv: 4_500,
        seed,
        cycles: 300,
        salvage: false,
    });
    subs
}

fn render_reply(reply: &flexserve::Reply) -> String {
    let mut out = format!(
        "{}{}: {}",
        reply.status.name(),
        if reply.cached { " (cached)" } else { "" },
        reply.text.trim_end(),
    );
    if !reply.data.is_empty() {
        let _ = write!(out, "\n{} data bytes", reply.data.len());
    }
    out.push('\n');
    out
}

/// `flexi client` — talk to a running daemon.
///
/// Operations: `status`, `drain`, `asm|check|admit|run <file.s>`,
/// `yield`, `batch` (the standard mixed workload; prints a digest over
/// all sub-replies for warm-vs-cold byte-identity checks).
///
/// # Errors
///
/// Usage errors, or [`CliError::Run`] for connection trouble.
pub fn client(args: &mut Args) -> Result<String, CliError> {
    let op = args
        .positional(
            0,
            "operation (status|drain|asm|check|admit|run|yield|batch)",
        )?
        .to_string();
    let host = args.flag("host").unwrap_or_else(|| "127.0.0.1".to_string());
    let port = args.num("port", 0u16)?;
    if port == 0 {
        return Err(CliError::Usage("--port is required".to_string()));
    }
    let request = match op.as_str() {
        "status" => flexserve::Request::Status,
        "drain" => flexserve::Request::Drain,
        "asm" | "check" | "admit" | "run" => client_source_request(&op, args)?,
        "yield" => flexserve::Request::Yield {
            design: args.flag("design").unwrap_or_else(|| "fc4".to_string()),
            voltage_mv: args.num("voltage-mv", 4_500u64)?,
            seed: args.num("seed", flexfab::calibration::seeds::YIELD)?,
            cycles: args.num("cycles", 300u64)?,
            salvage: args.has("salvage"),
        },
        "batch" => flexserve::Request::Batch(standard_batch(args.num("seed", 0xF1E5u64)?)),
        other => {
            return Err(CliError::Usage(format!(
                "unknown client operation `{other}` (status|drain|asm|check|admit|run|yield|batch)"
            )))
        }
    };
    let mut client = flexserve::Client::connect((host.as_str(), port))
        .map_err(|e| CliError::Run(e.to_string()))?;
    client.deadline_ms = args.num("deadline-ms", 0u64)?;
    let reply = client
        .call(&request)
        .map_err(|e| CliError::Run(e.to_string()))?;

    if let flexserve::Request::Batch(subs) = &request {
        let replies = flexserve::protocol::decode_batch_data(&reply.data)
            .map_err(|e| CliError::Run(e.to_string()))?;
        let mut out = format!("{}\n", reply.text.trim_end());
        let mut cached = 0usize;
        let mut ok = 0usize;
        for (sub, sub_reply) in subs.iter().zip(&replies) {
            let _ = writeln!(
                out,
                "  {:<9} {}{}",
                sub.kind_name(),
                sub_reply.status.name(),
                if sub_reply.cached { " (cached)" } else { "" },
            );
            cached += usize::from(sub_reply.cached);
            ok += usize::from(sub_reply.status == flexserve::ReplyStatus::Ok);
        }
        let _ = writeln!(out, "summary: {ok}/{} ok, {cached} cached", replies.len());
        if cached == replies.len() && !replies.is_empty() {
            out.push_str("all cache hits\n");
        }
        let _ = writeln!(out, "batch digest {}", flexserve::reply_digest(&replies));
        return Ok(out);
    }
    Ok(render_reply(&reply))
}

fn execute<I: InputPort, O: OutputPort>(
    target: Target,
    program: Program,
    input: &mut I,
    output: &mut O,
    max_cycles: u64,
    trace: bool,
) -> Result<(RunResult, String), flexicore::SimError> {
    // One constructor for all four dialects; the per-dialect matches that
    // used to live here moved into `flexicore::exec::AnyCore`.
    let mut core = AnyCore::for_dialect(target.dialect, target.features, program);
    let mut text = String::new();
    if trace {
        // trace by stepping against the same watchdog run() keeps
        // (cycles on FC4/FC8, instructions on the extended dialects);
        // the run() below only collects the result
        while !core.is_halted() && core.budget_spent() < max_cycles {
            let ev = core.step(input, output)?;
            let _ = writeln!(
                text,
                "cycle {:>6}  addr {:#06x}  acc {:#03x}  pc -> {:#04x}{}",
                ev.cycle,
                ev.address,
                ev.acc,
                ev.next_pc,
                if ev.taken_branch { "  (taken)" } else { "" }
            );
        }
    }
    let r = core.run(input, output, max_cycles)?;
    Ok((r, text))
}

#[cfg(test)]
mod tests {
    use crate::dispatch;

    fn call(args: &[&str]) -> Result<String, crate::CliError> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn write_temp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("flexi_test_{name}_{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    const ADD3: &str = "load r0\naddi 3\nstore r1\nhalt\n";

    #[test]
    fn no_args_prints_usage() {
        let out = call(&[]).unwrap();
        assert!(out.contains("flexi"));
        assert!(out.contains("wafer"));
    }

    #[test]
    fn asm_reports_sizes_and_listing() {
        let src = write_temp("asm", ADD3);
        let out = call(&["asm", &src, "--listing"]).unwrap();
        assert!(out.contains("5 instructions"), "{out}");
        assert!(out.contains("load r0"), "{out}");
    }

    #[test]
    fn asm_roundtrips_through_disasm() {
        let src = write_temp("rt", ADD3);
        let bin = write_temp("rt_bin", "");
        call(&["asm", &src, "--out", &bin]).unwrap();
        let out = call(&["disasm", &bin]).unwrap();
        assert!(out.contains("addi 3"), "{out}");
    }

    #[test]
    fn run_executes_and_prints_output_port() {
        let src = write_temp("run", ADD3);
        let out = call(&["run", &src, "--input", "4"]).unwrap();
        assert!(out.contains("halted"), "{out}");
        assert!(out.contains("0x7"), "{out}");
    }

    #[test]
    fn run_with_trace_lists_cycles() {
        let src = write_temp("trace", ADD3);
        let out = call(&["run", &src, "--input", "1", "--trace"]).unwrap();
        assert!(out.contains("cycle"), "{out}");
        assert!(out.contains("(taken)"), "{out}");
    }

    /// The summary line a `flexi run` prints, with or without `--trace`.
    fn run_summary(src: &str, target: &str, trace: bool) -> String {
        let mut argv = vec![
            "run",
            src,
            "--target",
            target,
            "--input",
            "1,2,3",
            "--max-cycles",
            "10",
        ];
        // the fabricated dialects have fixed ISAs and take no features
        if matches!(target, "xacc" | "xls") {
            argv.extend(["--features", "revised"]);
        }
        if trace {
            argv.push("--trace");
        }
        let out = call(&argv).unwrap();
        let summary = out.lines().rev().take(2).collect::<Vec<_>>();
        summary.join("\n")
    }

    #[test]
    fn trace_never_changes_the_run_summary() {
        let acc_loop = "top: load r0\naddi 1\nstore r1\njmp top\n";
        let cases = [
            ("fc4", acc_loop),
            ("fc4", ADD3),
            // two-cycle LOAD BYTEs: the watchdog counts cycles, not
            // instructions
            ("fc8", "top: ldb 5\njmp top\n"),
            ("fc8", acc_loop),
            ("xacc", acc_loop),
            ("xls", "top: mov r2, r0\naddi r2, 1\nmov r1, r2\njmp top\n"),
        ];
        for (i, (target, source)) in cases.into_iter().enumerate() {
            let src = write_temp(&format!("trace_summary_{i}"), source);
            let plain = run_summary(&src, target, false);
            assert_eq!(plain, run_summary(&src, target, true), "{target}: {source}");
        }
        let src = write_temp("trace_summary_ldb", "top: ldb 5\njmp top\n");
        assert!(
            run_summary(&src, "fc8", false).contains("7 instructions, 10 cycles"),
            "the budget is cycles on fc8"
        );
    }

    #[test]
    fn client_round_trips_against_a_live_daemon() {
        let cache = std::env::temp_dir().join(format!("flexi-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let handle = flexserve::serve(flexserve::ServeConfig {
            workers: 2,
            queue_depth: 16,
            max_connections: 8,
            cache_dir: cache,
            ..flexserve::ServeConfig::default()
        })
        .unwrap();
        let port = handle.addr().port().to_string();

        let src = write_temp("client_asm", ADD3);
        let cold = call(&["client", "asm", &src, "--port", &port]).unwrap();
        assert!(cold.starts_with("ok"), "{cold}");
        let warm = call(&["client", "asm", &src, "--port", &port]).unwrap();
        assert!(warm.contains("(cached)"), "{warm}");

        let status = call(&["client", "status", "--port", &port]).unwrap();
        assert!(status.contains("cache-hits 1"), "{status}");
        assert!(status.contains("panics 0"), "{status}");

        let drain = call(&["client", "drain", "--port", &port]).unwrap();
        assert!(drain.contains("draining"), "{drain}");
        let stats = handle.wait();
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn client_requires_a_port_and_known_operation() {
        assert!(matches!(
            call(&["client", "status"]),
            Err(crate::CliError::Usage(_))
        ));
        assert!(matches!(
            call(&["client", "frobnicate", "--port", "1"]),
            Err(crate::CliError::Usage(_))
        ));
    }

    #[test]
    fn cosim_reports_equivalence() {
        let src = write_temp("cosim", ADD3);
        let out = call(&["cosim", &src, "--input", "2"]).unwrap();
        assert!(out.contains("equivalent"), "{out}");
    }

    #[test]
    fn cosim_bounds_and_counts_rtl_clocks() {
        use flexicore::exec::AnyCore;
        use flexicore::io::{ConstInput, NullOutput};
        use flexicore::isa::{features::FeatureSet, Dialect};
        // FlexiCore8's parity kernel runs a two-clock LOAD BYTE as its
        // 20th instruction, so clocks and instructions part ways there;
        // the model's own cycle watchdog is the reference for both the
        // bound (a straddling instruction completes) and the count
        let source =
            flexkernels::sources::source_for(flexkernels::Kernel::ParityCheck, Dialect::Fc8);
        let src = write_temp("cosim_parity_fc8", &source);
        let program = flexasm::Assembler::new(flexasm::Target::fc8())
            .assemble(&source)
            .unwrap()
            .into_program();
        for budget in [20u64, 10_000] {
            let mut model = AnyCore::for_dialect(Dialect::Fc8, FeatureSet::BASE, program.clone());
            let run = model
                .run(&mut ConstInput::new(90), &mut NullOutput, budget)
                .unwrap();
            assert!(run.cycles > run.instructions, "{run:?}");
            let cycles = budget.to_string();
            let argv = [
                "cosim", &src, "--target", "fc8", "--input", "90", "--cycles", &cycles,
            ];
            assert_eq!(
                call(&argv).unwrap(),
                format!(
                    "equivalent: RTL matched the ISA model on all {} cycles\n",
                    run.cycles
                )
            );
        }
    }

    #[test]
    fn kernels_lists_all_seven() {
        let out = call(&["kernels"]).unwrap();
        for name in ["Calculator", "XorShift8", "Thresholding"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn check_passes_a_clean_file() {
        let src = write_temp("check_ok", ADD3);
        let out = call(&["check", &src]).unwrap();
        assert!(out.contains("reachable"), "{out}");
    }

    #[test]
    fn check_rejects_a_statically_hung_file() {
        // a two-instruction loop with no exit (a self-branch would be
        // the halt idiom, so the loop body must advance the pc)
        let src = write_temp("check_hang", "load r0\nloop:\n  addi 1\n  br loop\n");
        let err = call(&["check", &src]).unwrap_err();
        assert!(err.to_string().contains("error"), "{err}");
    }

    #[test]
    fn check_deny_severity_is_configurable() {
        // dead code after halt is an info-level lint: clean at the
        // default `error` gate, rejected when denying info findings
        let dead = "load r0\nstore r1\nhalt\naddi 1\n";
        let src = write_temp("check_warn", dead);
        call(&["check", &src]).unwrap();
        let err = call(&["check", &src, "--deny", "info"]).unwrap_err();
        assert!(err.to_string().contains("info"), "{err}");
    }

    #[test]
    fn check_kernels_lint_clean() {
        for target in ["fc4", "fc8"] {
            let out = call(&["check", "--kernels", "--target", target]).unwrap();
            assert!(out.contains("reachable instruction(s)"), "{out}");
        }
    }

    #[test]
    fn check_vuln_classifies_a_file() {
        let src = write_temp("check_vuln", ADD3);
        let out = call(&["check", &src, "--vuln"]).unwrap();
        assert!(out.contains("provably masked"), "{out}");
        assert!(out.contains("exact"), "{out}");
    }

    #[test]
    fn check_vuln_kernels_prints_fractions_and_digest() {
        let out = call(&["check", "--kernels", "--vuln", "--target", "fc4"]).unwrap();
        assert!(out.contains("site(s) provably masked"), "{out}");
        assert!(out.contains("suite vuln digest 0x"), "{out}");
        // deterministic across invocations
        assert_eq!(
            out,
            call(&["check", "--kernels", "--vuln", "--target", "fc4"]).unwrap()
        );
    }

    #[test]
    fn check_campaign_smoke_is_sound() {
        let out = call(&["check", "--campaign", "3", "--seed", "9"]).unwrap();
        assert!(out.contains("no unsound verdicts"), "{out}");
        assert!(out.contains("seed 0x9"), "{out}");
    }

    #[test]
    fn asm_prints_analyzer_warnings() {
        // cell 3 is never written, so reading it is a warning
        let src = write_temp("asm_warn", "load r3\nstore r1\nhalt\n");
        let out = call(&["asm", &src]).unwrap();
        assert!(out.contains("uninit-read"), "{out}");
    }

    #[test]
    fn kernel_runs_verified() {
        let out = call(&["kernel", "paritycheck", "--input", "1,0"]).unwrap();
        assert!(out.contains("verified"), "{out}");
        assert!(out.contains("[0x1]"), "{out}");
    }

    #[test]
    fn kernel_rejects_short_input() {
        let err = call(&["kernel", "calculator", "--input", "1"]).unwrap_err();
        assert!(err.to_string().contains("needs 3"), "{err}");
    }

    #[test]
    fn wafer_rejects_voltages_no_die_can_switch_at() {
        for volts in ["0", "-1", "nan", "inf", "1.29"] {
            let err = call(&["wafer", "--cycles", "300", "--voltage", volts]).unwrap_err();
            assert!(
                matches!(err, crate::CliError::Usage(_)),
                "--voltage {volts}: {err}"
            );
            assert!(err.to_string().contains("threshold"), "{err}");
        }
    }

    #[test]
    fn wafer_prints_map_and_yield() {
        let out = call(&["wafer", "--cycles", "300"]).unwrap();
        assert!(out.contains("yield:"), "{out}");
        assert!(out.contains('.'), "{out}");
    }

    #[test]
    fn inject_prints_a_deterministic_classification_table() {
        let argv = &[
            "inject",
            "--dialect",
            "fc8",
            "--kernel",
            "parity",
            "--faults",
            "8",
            "--seed",
            "41",
        ];
        let a = call(argv).unwrap();
        let b = call(argv).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("seed 41"), "{a}");
        assert!(a.contains("masked"), "{a}");
        assert!(a.contains("most vulnerable"), "{a}");
    }

    #[test]
    fn inject_threads_replay_the_serial_report() {
        // ragged fault counts: fewer trials than threads, and counts no
        // thread count divides
        for faults in ["1", "7", "16"] {
            let base = [
                "inject",
                "--dialect",
                "fc4",
                "--kernel",
                "parity",
                "--faults",
                faults,
                "--seed",
                "41",
            ];
            let serial = call(&base).unwrap();
            for threads in ["3", "8"] {
                let mut threaded = base.to_vec();
                threaded.extend(["--threads", threads]);
                assert_eq!(serial, call(&threaded).unwrap(), "{faults} faults");
            }
        }
    }

    #[test]
    fn zero_threads_or_shards_is_a_usage_error_with_exit_code_2() {
        for (cmd, flag) in [
            ("inject", "--threads"),
            ("resilient", "--threads"),
            ("resilient", "--window"),
            ("resilient", "--interval"),
            ("link", "--threads"),
            ("link", "--interval"),
            ("attack", "--threads"),
            ("wafer", "--threads"),
        ] {
            let err = call(&[cmd, flag, "0"]).unwrap_err();
            assert!(
                matches!(err, crate::CliError::Usage(_)),
                "`{cmd} {flag} 0` must be a usage error, got {err}"
            );
            assert_eq!(err.exit_code(), 2, "{cmd} {flag}");
            assert!(err.to_string().contains("at least 1"), "{err}");
        }
        // --shards is gone: naming it is an unknown-flag usage error
        for cmd in ["inject", "resilient", "link", "attack"] {
            let err = call(&[cmd, "--shards", "0"]).unwrap_err();
            assert!(
                matches!(err, crate::CliError::Usage(_)),
                "`{cmd} --shards 0` must be a usage error, got {err}"
            );
            assert_eq!(err.exit_code(), 2, "{cmd} --shards");
            assert!(err.to_string().contains("unknown flag --shards"), "{err}");
        }
    }

    #[test]
    fn mission_zero_threads_or_shards_is_a_usage_error_with_exit_code_2() {
        for flag in ["--threads", "--shards"] {
            let err = call(&["mission", flag, "0"]).unwrap_err();
            assert!(
                matches!(err, crate::CliError::Usage(_)),
                "`{flag} 0` must be a usage error, got {err}"
            );
            assert_eq!(err.exit_code(), 2, "{err}");
        }
        let err = call(&["mission", "--threads", "0"]).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        let err = call(&["mission", "--shards", "0"]).unwrap_err();
        assert!(err.to_string().contains("unknown flag --shards"), "{err}");
    }

    /// Every count flag at 0, 1, one past the ceiling and `u64::MAX`:
    /// nothing panics, the in-range values run or fail cleanly, and the
    /// out-of-range ones are usage errors.
    #[test]
    fn count_flags_never_panic_at_hostile_values() {
        let ceiling = crate::args::MAX_COUNT;
        let over = (ceiling + 1).to_string();
        let max = u64::MAX.to_string();
        let table: [(&[&str], &[&str]); 6] = [
            (
                &[
                    "inject",
                    "--dialect",
                    "fc4",
                    "--kernel",
                    "parity",
                    "--faults",
                    "2",
                ],
                &["--faults", "--threads"],
            ),
            (
                &[
                    "resilient",
                    "--kernel",
                    "parity",
                    "--faults",
                    "2",
                    "--budget",
                    "20000",
                ],
                &["--faults", "--window", "--retries", "--spares", "--threads"],
            ),
            (
                &["link", "--kernel", "parity", "--rates", "0"],
                &["--upsets", "--retries", "--threads"],
            ),
            (
                &["attack", "--dialect", "fc4", "--rates", "0"],
                &["--trials", "--reps", "--retries", "--threads"],
            ),
            (
                &["mission", "--trials", "1", "--ticks", "1"],
                &["--trials", "--ticks", "--spares", "--threads"],
            ),
            (&["check"], &["--campaign"]),
        ];
        for (base, flags) in table {
            for &flag in flags {
                for value in ["0", "1", over.as_str(), max.as_str()] {
                    let mut argv = base.to_vec();
                    argv.extend([flag, value]);
                    let code = match call(&argv) {
                        Ok(_) => 0,
                        Err(e) => e.exit_code(),
                    };
                    assert!(matches!(code, 0..=2), "{argv:?} exited {code}");
                    if value == over || value == max {
                        assert_eq!(code, 2, "{argv:?} must be refused");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_or_oversized_cycles_is_a_usage_error_with_exit_code_2() {
        // a zero-vector screen must not call a die functional, and a
        // huge count used to wrap the test plan or never return
        let src = write_temp("cycles", ADD3);
        let over = (crate::args::MAX_COUNT + 1).to_string();
        for command in [&["wafer"][..], &["cosim", &src], &["wave", &src]] {
            for value in ["0", over.as_str()] {
                let mut argv = command.to_vec();
                argv.extend(["--cycles", value]);
                let err = call(&argv).unwrap_err();
                assert!(matches!(err, crate::CliError::Usage(_)), "{argv:?}: {err}");
                assert_eq!(err.exit_code(), 2, "{argv:?}");
            }
        }
    }

    /// A zero checkpoint interval is refused; every other `u64`,
    /// `u64::MAX` included, runs to completion.
    #[test]
    fn interval_zero_is_refused_and_u64_max_runs() {
        let max = u64::MAX.to_string();
        let commands: [&[&str]; 2] = [
            &["link", "--rates", "0", "--kernel", "parity"],
            &["resilient", "--quorum", "dmr", "--faults", "1"],
        ];
        for base in commands {
            for (value, code) in [("0", 2), ("1", 0), (max.as_str(), 0)] {
                let mut argv = base.to_vec();
                argv.extend(["--interval", value]);
                let got = match call(&argv) {
                    Ok(_) => 0,
                    Err(e) => e.exit_code(),
                };
                assert_eq!(got, code, "{argv:?}");
            }
        }
    }

    #[test]
    fn wafer_threads_replay_the_serial_map() {
        let serial = call(&["wafer", "--cycles", "300"]).unwrap();
        let threaded = call(&["wafer", "--cycles", "300", "--threads", "4"]).unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn resilient_tmr_masks_and_replays_deterministically() {
        let argv = &[
            "resilient",
            "--dialect",
            "fc4",
            "--kernel",
            "parity",
            "--faults",
            "6",
            "--seed",
            "17",
            "--budget",
            "20000",
        ];
        let a = call(argv).unwrap();
        let b = call(argv).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("under tmr"), "{a}");
        assert!(a.contains("seed 17"), "{a}");
        assert!(a.contains("unrecoverable    0"), "{a}");
    }

    #[test]
    fn resilient_dmr_recovers_transients() {
        let out = call(&[
            "resilient",
            "--quorum",
            "dmr",
            "--mode",
            "transient",
            "--faults",
            "6",
            "--seed",
            "29",
            "--budget",
            "20000",
            "--interval",
            "32",
        ])
        .unwrap();
        assert!(out.contains("under dmr"), "{out}");
        assert!(out.contains("masked"), "{out}");
    }

    #[test]
    fn link_soaks_and_replays_deterministically() {
        let argv = &[
            "link", "--kernel", "parity", "--rates", "0,2e-4", "--seed", "23",
        ];
        let a = call(argv).unwrap();
        let b = call(argv).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("seed 23"), "{a}");
        assert!(a.contains("survival"), "{a}");
        assert!(a.contains("unrecoverable"), "{a}");
    }

    #[test]
    fn link_rejects_out_of_range_rates() {
        let err = call(&["link", "--rates", "1.5"]).unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
    }

    #[test]
    fn link_malformed_ber_is_a_usage_error_with_exit_code_2() {
        for bad in ["--ber", "--rates"] {
            let err = call(&["link", bad, "0,often,1e-4"]).unwrap_err();
            assert!(
                matches!(err, crate::CliError::Usage(_)),
                "`{bad} 0,often,1e-4` must be a usage error, got {err}"
            );
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(err.to_string().contains("often"), "{err}");
        }
        // a well-formed --ber list is accepted as an alias for --rates
        let out = call(&["link", "--kernel", "parity", "--ber", "0,1e-4"]).unwrap();
        assert!(out.contains("survival"), "{out}");
    }

    #[test]
    fn link_signed_applies_updates_across_the_sweep() {
        let out = call(&[
            "link", "--signed", "--kernel", "parity", "--ber", "0,1e-4", "--seed", "7",
        ])
        .unwrap();
        assert!(out.contains("signed update"), "{out}");
        assert!(out.contains("applied 2/2 updates"), "{out}");
    }

    #[test]
    fn attack_soak_defends_and_replays() {
        let argv = &[
            "attack",
            "--dialect",
            "fc8",
            "--rates",
            "0",
            "--reps",
            "2",
            "--seed",
            "5",
        ];
        let a = call(argv).unwrap();
        let b = call(argv).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("verdict            defended"), "{a}");
        assert!(a.contains("forge-metadata"), "{a}");
    }

    #[test]
    fn attack_trials_floor_scales_reps() {
        // fc8 runs one kernel × 1 rate × 8 attacks = 8 trials per rep;
        // asking for 20 trials must round the reps up to 3
        let out = call(&[
            "attack",
            "--dialect",
            "fc8",
            "--rates",
            "0",
            "--trials",
            "20",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("24 trials"), "{out}");
    }

    #[test]
    fn mission_soaks_and_replays_across_threads() {
        // ragged trial counts: fewer trials than threads, and a count no
        // thread count divides
        for trials in ["1", "7"] {
            let base = [
                "mission", "--kernel", "parity", "--trials", trials, "--ticks", "4", "--seed", "41",
            ];
            let a = call(&base).unwrap();
            for threads in ["3", "8"] {
                let mut threaded = base.to_vec();
                threaded.extend(["--threads", threads]);
                assert_eq!(
                    a,
                    call(&threaded).unwrap(),
                    "{trials} trials / {threads} threads"
                );
            }
            assert!(a.contains("adaptive"), "{a}");
            assert!(a.contains("static TMR"), "{a}");
            assert!(a.contains("comparison"), "{a}");
            assert!(a.contains("forgeries      0 accepted"), "{a}");
        }
    }

    #[test]
    fn mission_rejects_bad_deny_and_unknown_kernels() {
        let err = call(&["mission", "--deny", "fatal"]).unwrap_err();
        assert!(matches!(err, crate::CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("fatal"), "{err}");
        let err = call(&["mission", "--kernel", "warp-drive"]).unwrap_err();
        assert!(matches!(err, crate::CliError::Usage(_)), "{err}");
    }

    #[test]
    fn resilient_rejects_unknown_quorum() {
        let err = call(&["resilient", "--quorum", "qmr"]).unwrap_err();
        assert!(err.to_string().contains("unknown quorum"), "{err}");
    }

    #[test]
    fn inject_rejects_unsupported_fc8_kernels() {
        let err = call(&["inject", "--dialect", "fc8", "--kernel", "fir"]).unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn unknown_command_and_flags_fail() {
        assert!(call(&["frobnicate"]).is_err());
        let src = write_temp("uf", ADD3);
        assert!(call(&["asm", &src, "--bogus", "1"]).is_err());
    }

    #[test]
    fn fabricated_targets_refuse_features() {
        let src = write_temp("fixed_isa", ADD3);
        for target in ["fc4", "fc8"] {
            let err =
                call(&["run", &src, "--target", target, "--features", "shift,mul"]).unwrap_err();
            assert!(err.to_string().contains("fixed ISA"), "{err}");
            assert_eq!(err.exit_code(), 2, "a usage error");
        }
    }

    #[test]
    fn run_on_extended_target() {
        let src = write_temp("ext", "load r0\nlsri 2\nstore r1\nhalt\n");
        let out = call(&[
            "run",
            &src,
            "--target",
            "xacc",
            "--features",
            "revised",
            "--input",
            "12",
        ])
        .unwrap();
        assert!(out.contains("0x3"), "{out}");
    }

    #[test]
    fn wave_writes_a_vcd() {
        let src = write_temp("wave", ADD3);
        let out_path = std::env::temp_dir().join(format!("flexi_wave_{}.vcd", std::process::id()));
        let out = call(&[
            "wave",
            &src,
            "--input",
            "3",
            "--cycles",
            "20",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let vcd = std::fs::read_to_string(&out_path).unwrap();
        assert!(vcd.contains("$var wire 7 "), "{vcd}");
        assert!(vcd.contains("oport"), "{vcd}");
    }
}
