//! The perf ledger's command line:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench manifest
//! ```
//!
//! The last line of standard output is the JSON result; `manifest`
//! prints `BENCHMARK.json`.

use std::process::ExitCode;

use perfbench::{report, Options, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench manifest";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed `{value}`"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown workload `{workload}` ({})",
            names.join(", ")
        ));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(f64::from(perfbench::RUN_SECONDS)),
        trace: trace.unwrap_or(false),
        tiny: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["manifest"] {
        print!("{}", perfbench::manifest_json());
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The override would silently replace every pool size the workloads
    // pin (threads = 1, one daemon worker).
    let force = flexshard::FORCE_THREADS_ENV;
    let cleared = std::env::var_os(force).is_some();
    if cleared {
        eprintln!("perfbench: cleared {force}; it would override every pool size");
        std::env::remove_var(force);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} rev={} nproc={} {force}={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        report::git_rev(),
        report::nproc(),
        if cleared { "cleared" } else { "unset" },
    );
    let report = match perfbench::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    match report.result_json(opts.trace) {
        Ok(line) => {
            println!("{line}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output checks failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
