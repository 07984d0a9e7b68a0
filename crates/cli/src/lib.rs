//! # flexcli
//!
//! Implementation of the `flexi` command-line tool. The binary is a thin
//! wrapper; all command logic lives here and returns strings, so every
//! command is unit-testable.
//!
//! ```text
//! flexi asm     <file.s> [--target T] [--features F,..] [--out prog.bin] [--listing]
//! flexi check   <file.s> [--target T] [--features F,..] [--deny info|warning|error]
//!               | --kernels [--target T] | --campaign N [--seed S]
//! flexi disasm  <prog.bin> [--target T]
//! flexi run     <file.s> [--target T] [--features F,..] [--input 1,2,..]
//!                        [--max-cycles N] [--trace]
//! flexi cosim   <file.s> [--target fc4|fc8] [--input N] [--cycles N]
//! flexi wave    <file.s> [--target fc4|fc8] [--input N] [--cycles N]
//!                        [--out trace.vcd]
//! flexi kernels [--target T] [--features F,..]
//! flexi kernel  <name> --input 1,2,.. [--target T]
//! flexi wafer   [--design fc4|fc8|fc4plus] [--voltage V] [--seed N]
//!               [--cycles N] [--map errors|current|csv] [--threads N]
//! flexi inject  [--dialect fc4|fc8|xacc|xls] [--kernel K] [--faults N]
//!               [--seed N] [--budget N] [--mode stuck|transient|mixed]
//!               [--threads N]
//! flexi resilient [--dialect fc4|fc8|xacc|xls] [--kernel K] [--faults N]
//!               [--seed N] [--budget N] [--mode stuck|transient|mixed]
//!               [--quorum tmr|dmr|simplex] [--window N] [--interval N]
//!               [--retries N] [--spares N] [--threads N]
//! flexi link    [--dialect fc4|fc8|xacc|xls] [--kernel K] [--rates R1,R2,..]
//!               [--ber R1,R2,..] [--seed N] [--upsets N] [--interval N]
//!               [--scrub N] [--retries N] [--budget N] [--signed]
//!               [--threads N]
//! flexi attack  [--dialect fc4|fc8|xacc|xls] [--rates R1,R2,..] [--reps N]
//!               [--trials N] [--seed N] [--retries N] [--threads N]
//! flexi mission [--dialect fc4|fc8|xacc|xls] [--kernel K] [--trials N]
//!               [--ticks N] [--seed N] [--spares N] [--budget N]
//!               [--deny info|warning|error] [--threads N]
//! flexi dse
//! flexi serve   [--port N] [--host H] [--cache DIR] [--workers N]
//!               [--queue N] [--conns N] [--deadline-ms N]
//! flexi client  <status|drain|asm|check|admit|run|yield|batch> [<file.s>]
//!               --port N [--host H] [--deadline-ms N] [--target T]
//!               [--features F,..] [--deny S] [--input 1,2,..]
//!               [--max-cycles N] [--design D] [--voltage-mv N] [--seed N]
//!               [--cycles N] [--salvage]
//! ```
//!
//! Targets: `fc4` (default), `fc8`, `xacc`, `xls`; `--features` applies to
//! the DSE dialects (`adc,shift,flags,mul,xch,call,2xreg` or `revised`).
//!
//! The campaign commands (`wafer`, `inject`, `resilient`, `link`, `attack`,
//! `mission`) accept `--threads N` worker threads; every thread count
//! replays the single-threaded report bit-for-bit (the seed, not the
//! schedule, owns every draw). Count flags (`--faults`, `--trials`,
//! `--ticks`, `--spares`, …) above [`args::MAX_COUNT`] are usage errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{Args, CliError};

/// Entry point shared by the binary and the tests: dispatch `argv`
/// (without the program name) and return the output text.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, malformed flags, file
/// problems, assembly failures, and simulator faults.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Ok(commands::usage());
    };
    let mut args = Args::parse(rest)?;
    if args.wants_help() {
        return Ok(commands::usage());
    }
    let out = match command.as_str() {
        "asm" => commands::asm(&mut args)?,
        "check" => commands::check(&mut args)?,
        "disasm" => commands::disasm(&mut args)?,
        "run" => commands::run(&mut args)?,
        "cosim" => commands::cosim(&mut args)?,
        "wave" => commands::wave(&mut args)?,
        "kernels" => commands::kernels(&mut args)?,
        "kernel" => commands::kernel(&mut args)?,
        "wafer" => commands::wafer(&mut args)?,
        "inject" => commands::inject(&mut args)?,
        "resilient" => commands::resilient(&mut args)?,
        "link" => commands::link(&mut args)?,
        "attack" => commands::attack(&mut args)?,
        "mission" => commands::mission(&mut args)?,
        "dse" => commands::dse(&mut args)?,
        "serve" => commands::serve(&mut args)?,
        "client" => commands::client(&mut args)?,
        "help" | "--help" | "-h" => commands::usage(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command `{other}`; run `flexi help`"
            )))
        }
    };
    args.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_after_a_subcommand_prints_usage() {
        for help in ["-h", "--help"] {
            for command in ["inject", "run", "mission", "client"] {
                let out = dispatch(&argv(&[command, help])).expect("help is not an error");
                assert_eq!(out, commands::usage(), "{command} {help}");
            }
        }
    }

    #[test]
    fn stray_positionals_are_usage_errors() {
        let err = dispatch(&argv(&["inject", "extra", "--faults", "1"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("`extra`")),
            "{err}"
        );
        assert_eq!(err.exit_code(), 2);
        let err = dispatch(&argv(&["kernels", "extra"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }
}
