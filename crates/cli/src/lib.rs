//! # flexcli
//!
//! Implementation of the `flexi` command-line tool. Both binaries,
//! `flexi` and its alias `flexicore`, are one call to [`main`]; all
//! command logic lives here and returns strings, so every command is
//! unit-testable.
//!
//! The command synopsis lives in one place, [`commands::usage`], which
//! is also what `flexi help` prints.
//!
//! Targets: `fc4` (default), `fc8`, `xacc`, `xls`; `--features` applies to
//! the DSE dialects (a comma list of `adc,shift,flags,mul,xch,call,2xreg`
//! and `revised`, which adds the revised set) and is a usage error on the
//! fabricated `fc4`/`fc8`, whose ISAs are fixed.
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

use std::io::Write as _;

/// The `main` of both binaries (`flexi` and its alias `flexicore`):
/// dispatch the process arguments and print the output, or print the
/// error after `program` and exit with [`CliError::exit_code`].
pub fn main(program: &str) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(text) => {
            let mut stdout = std::io::stdout().lock();
            let written = stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.flush());
            // a reader that stops early (`| head`) closes the pipe: not an error
            if let Err(e) = written {
                if e.kind() != std::io::ErrorKind::BrokenPipe {
                    eprintln!("{program}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("{program}: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

/// Entry point shared by the binaries and the tests: dispatch `argv`
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
