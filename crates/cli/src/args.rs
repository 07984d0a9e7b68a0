//! Minimal flag parsing (no external dependencies).

use core::fmt;
use std::collections::BTreeMap;

/// CLI failure modes.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Bad invocation: unknown command/flag, missing argument, bad value.
    Usage(String),
    /// Filesystem trouble.
    Io(std::io::Error),
    /// The assembler rejected the source.
    Asm(flexasm::AsmError),
    /// The simulator faulted or a kernel failed verification.
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Asm(e) => write!(f, "assembly error: {e}"),
            CliError::Run(m) => write!(f, "run error: {m}"),
        }
    }
}

impl CliError {
    /// The process exit code for this failure: `2` for bad invocations
    /// (the conventional usage-error code), `1` for everything else.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<flexasm::AsmError> for CliError {
    fn from(e: flexasm::AsmError) -> Self {
        CliError::Asm(e)
    }
}

/// Parsed `--flag value` pairs, boolean `--flag`s, and positionals.
#[derive(Debug, Default)]
pub struct Args {
    positionals: Vec<String>,
    /// How many leading positionals the command has read.
    positionals_read: usize,
    flags: BTreeMap<String, Option<String>>,
    consumed: std::collections::BTreeSet<String>,
    help: bool,
}

/// The ceiling on every count flag (see [`Args::count`]): 2^20. Above
/// it a campaign would only exhaust memory or time, so the flag is a
/// usage error instead.
pub const MAX_COUNT: u64 = 1 << 20;

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["listing", "trace", "signed", "salvage", "vuln", "kernels"];

impl Args {
    /// Parse raw arguments.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for a value-taking flag with no value.
    pub fn parse(raw: &[String]) -> Result<Self, CliError> {
        let mut args = Args::default();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if a == "--help" || a == "-h" {
                args.help = true;
            } else if let Some(name) = a.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&name) {
                    args.flags.insert(name.to_string(), None);
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| CliError::Usage(format!("flag --{name} needs a value")))?;
                    args.flags.insert(name.to_string(), Some(value.clone()));
                }
            } else {
                args.positionals.push(a.clone());
            }
        }
        Ok(args)
    }

    /// Whether `--help` or `-h` appeared where a flag or positional
    /// could stand (not as another flag's value).
    #[must_use]
    pub fn wants_help(&self) -> bool {
        self.help
    }

    /// The `n`-th positional argument.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] naming `what` when missing.
    pub fn positional(&mut self, n: usize, what: &str) -> Result<&str, CliError> {
        self.positionals_read = self.positionals_read.max(n + 1);
        self.positionals
            .get(n)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing {what}")))
    }

    /// A string flag value, if given.
    pub fn flag(&mut self, name: &str) -> Option<String> {
        self.consumed.insert(name.to_string());
        self.flags.get(name).cloned().flatten()
    }

    /// A boolean flag.
    pub fn has(&mut self, name: &str) -> bool {
        self.consumed.insert(name.to_string());
        self.flags.contains_key(name)
    }

    /// A parsed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when the value does not parse.
    pub fn num<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad value for --{name}: `{v}`"))),
        }
    }

    /// A count flag (`--faults`, `--trials`, `--ticks`, `--spares`,
    /// `--reps`, `--upsets`, `--retries`, `--window`, `--threads`,
    /// `--campaign`), with a default. Counts size allocations and loops
    /// before anything runs, so every one is capped at [`MAX_COUNT`].
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when the value does not parse or exceeds
    /// [`MAX_COUNT`].
    pub fn count<T: TryFrom<u64>>(&mut self, name: &str, default: T) -> Result<T, CliError> {
        let Some(v) = self.flag(name) else {
            return Ok(default);
        };
        let n: u64 = v
            .parse()
            .map_err(|_| CliError::Usage(format!("bad value for --{name}: `{v}`")))?;
        if n > MAX_COUNT {
            return Err(CliError::Usage(format!(
                "--{name} must be at most {MAX_COUNT}, got {n}"
            )));
        }
        T::try_from(n).map_err(|_| CliError::Usage(format!("bad value for --{name}: `{v}`")))
    }

    /// A [`count`](Args::count) that must be at least 1 (`--threads`,
    /// `--window`).
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when the value does not parse, is zero or
    /// exceeds [`MAX_COUNT`].
    pub fn positive(&mut self, name: &str, default: usize) -> Result<usize, CliError> {
        let v: usize = self.count(name, default)?;
        if v == 0 {
            return Err(CliError::Usage(format!("--{name} must be at least 1")));
        }
        Ok(v)
    }

    /// Comma-separated u8 list (`--input 1,2,3`).
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for unparsable entries.
    pub fn u8_list(&mut self, name: &str) -> Result<Vec<u8>, CliError> {
        match self.flag(name) {
            None => Ok(Vec::new()),
            Some(v) => v
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    let s = s.trim();
                    if let Some(hex) = s.strip_prefix("0x") {
                        u8::from_str_radix(hex, 16)
                    } else {
                        s.parse()
                    }
                    .map_err(|_| CliError::Usage(format!("bad value in --{name}: `{s}`")))
                })
                .collect(),
        }
    }

    /// Comma-separated f64 list (`--rates 0,1e-4,5e-4`).
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for unparsable entries.
    pub fn f64_list(&mut self, name: &str) -> Result<Vec<f64>, CliError> {
        match self.flag(name) {
            None => Ok(Vec::new()),
            Some(v) => v
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| CliError::Usage(format!("bad value in --{name}: `{s}`")))
                })
                .collect(),
        }
    }

    /// Reject unrecognised flags and positionals the command never read
    /// (call after a command consumed its own).
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] naming the stray flag or argument.
    pub fn finish(&self) -> Result<(), CliError> {
        for name in self.flags.keys() {
            if !self.consumed.contains(name) {
                return Err(CliError::Usage(format!("unknown flag --{name}")));
            }
        }
        if let Some(stray) = self.positionals.get(self.positionals_read) {
            return Err(CliError::Usage(format!("unexpected argument `{stray}`")));
        }
        Ok(())
    }

    /// Resolve `--target`/`--features` into an assembler target.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for unknown names.
    pub fn target(&mut self) -> Result<flexasm::Target, CliError> {
        let features = self.flag("features").unwrap_or_default();
        let dialect = self.flag("target").unwrap_or_else(|| "fc4".to_string());
        flexasm::Target::parse(&dialect, &features).map_err(|e| CliError::Usage(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Args {
        Args::parse(&items.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let mut a = parse(&["prog.s", "--target", "fc8", "--listing"]);
        assert_eq!(a.positional(0, "source").unwrap(), "prog.s");
        assert_eq!(a.flag("target").as_deref(), Some("fc8"));
        assert!(a.has("listing"));
        assert!(a.finish().is_ok());
    }

    #[test]
    fn missing_value_is_a_usage_error() {
        let err = Args::parse(&["--target".to_string()]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn u8_list_parses_decimal_and_hex() {
        let mut a = parse(&["--input", "1,0xA, 3"]);
        assert_eq!(a.u8_list("input").unwrap(), vec![1, 0xA, 3]);
    }

    #[test]
    fn f64_list_parses_scientific_notation() {
        let mut a = parse(&["--rates", "0, 1e-4,5e-4"]);
        assert_eq!(a.f64_list("rates").unwrap(), vec![0.0, 1e-4, 5e-4]);
        let mut b = parse(&["--rates", "often"]);
        assert!(b.f64_list("rates").is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_at_finish() {
        let mut a = parse(&["--bogus", "1"]);
        let _ = a.flag("target");
        assert!(matches!(a.finish(), Err(CliError::Usage(_))));
    }

    #[test]
    fn unread_positionals_are_rejected_at_finish() {
        let a = parse(&["stray"]);
        let err = a.finish().unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("`stray`")));
        assert_eq!(err.exit_code(), 2);

        let mut b = parse(&["prog.s", "extra"]);
        assert_eq!(b.positional(0, "source").unwrap(), "prog.s");
        assert!(b.finish().is_err(), "the second positional was never read");
        assert_eq!(b.positional(1, "second").unwrap(), "extra");
        assert!(b.finish().is_ok());
    }

    #[test]
    fn help_is_recognised_outside_flag_values() {
        assert!(parse(&["-h"]).wants_help());
        assert!(parse(&["--faults", "3", "--help"]).wants_help());
        assert!(
            !parse(&["--input", "-h"]).wants_help(),
            "a value, not a request"
        );
        assert!(!parse(&["--faults", "3"]).wants_help());
    }

    #[test]
    fn target_resolution() {
        let mut a = parse(&["--target", "xacc", "--features", "adc,shift"]);
        let t = a.target().unwrap();
        assert_eq!(t.dialect, flexicore::isa::Dialect::ExtendedAcc);
        assert!(t
            .features
            .contains(flexicore::isa::features::Feature::AddWithCarry));
        assert!(!t
            .features
            .contains(flexicore::isa::features::Feature::Multiplier));

        let mut a = parse(&["--target", "xls", "--features", "revised"]);
        assert_eq!(a.target().unwrap(), flexasm::Target::xls_revised());

        let mut a = parse(&[]);
        assert_eq!(a.target().unwrap(), flexasm::Target::fc4());

        let mut a = parse(&["--features", "warp-drive"]);
        assert!(a.target().is_err());
    }

    #[test]
    fn positive_rejects_zero() {
        let mut a = parse(&["--threads", "0"]);
        let err = a.positive("threads", 1).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert_eq!(err.exit_code(), 2);

        let mut b = parse(&["--threads", "8"]);
        assert_eq!(b.positive("threads", 1).unwrap(), 8);
        let mut c = parse(&[]);
        assert_eq!(c.positive("window", 4).unwrap(), 4);
    }

    #[test]
    fn count_caps_at_the_ceiling() {
        let ceiling = MAX_COUNT.to_string();
        let mut a = parse(&["--trials", &ceiling, "--ticks", "0"]);
        assert_eq!(a.count("trials", 1usize).unwrap() as u64, MAX_COUNT);
        assert_eq!(a.count("ticks", 12u32).unwrap(), 0);
        for hostile in [&(MAX_COUNT + 1).to_string(), "18446744073709551616", "-1"] {
            let err = parse(&["--trials", hostile])
                .count("trials", 1usize)
                .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{hostile}");
        }
    }

    #[test]
    fn num_parses_with_default() {
        let mut a = parse(&["--cycles", "500"]);
        assert_eq!(a.num("cycles", 10u64).unwrap(), 500);
        assert_eq!(a.num("seed", 7u64).unwrap(), 7);
        let mut b = parse(&["--cycles", "many"]);
        assert!(b.num("cycles", 10u64).is_err());
    }
}
