//! Both binaries, `flexi` and its alias `flexicore`, behave as one:
//! same output, same error text after their own name, same exit codes.

use std::process::{Command, Output, Stdio};

const BINARIES: [(&str, &str); 2] = [
    ("flexi", env!("CARGO_BIN_EXE_flexi")),
    ("flexicore", env!("CARGO_BIN_EXE_flexicore")),
];

fn run(path: &str, args: &[&str]) -> Output {
    Command::new(path)
        .args(args)
        .output()
        .expect("the binary starts")
}

#[test]
fn usage_errors_exit_2_under_either_name() {
    for (name, path) in BINARIES {
        let out = run(path, &["resilient", "--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("{name}: usage error")),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn run_errors_exit_1_under_either_name() {
    for (name, path) in BINARIES {
        let out = run(path, &["asm", "/nonexistent/flexi-input.s"]);
        assert_eq!(out.status.code(), Some(1), "{name}");
    }
}

#[test]
fn both_names_print_the_same_report() {
    let [(_, flexi), (_, alias)] = BINARIES;
    let args = [
        "inject", "--kernel", "parity", "--faults", "8", "--seed", "3",
    ];
    let (a, b) = (run(flexi, &args), run(alias, &args));
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout);
}

/// A reader that closes the pipe before the report is written (`flexi
/// inject | head`) ends the run quietly, not with a panic.
#[test]
fn a_closed_stdout_pipe_ends_quietly() {
    for (name, path) in BINARIES {
        let mut child = Command::new(path)
            .args([
                "inject",
                "--dialect",
                "fc4",
                "--faults",
                "64",
                "--seed",
                "3",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the binary starts");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("the binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(stderr.is_empty(), "{name}: {stderr}");
        assert!(out.status.success(), "{name}: {:?}", out.status);
    }
}
