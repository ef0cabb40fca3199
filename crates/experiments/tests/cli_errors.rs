//! The `repro` binary rejects bad command lines with a usage error
//! (exit status 2) instead of exiting 0 or panicking.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.contains(needle), "repro {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may be generated");
}

#[test]
fn unknown_artifact_is_a_usage_error() {
    assert_usage_error(&["fig99"], "unknown artifact 'fig99'");
    // Checked before any artifact runs.
    assert_usage_error(&["table1", "fig99"], "unknown artifact 'fig99'");
}

#[test]
fn non_numeric_threads_is_a_usage_error() {
    assert_usage_error(&["table1", "--threads", "abc"], "--threads takes a number");
    assert_usage_error(&["table1", "--threads"], "--threads takes a number");
}

#[test]
fn valid_command_line_still_succeeds() {
    let out = repro(&["table1", "--threads", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
