//! The `repro` binary rejects bad command lines with a usage error
//! (exit status 2) instead of exiting 0 or panicking.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn repro")
}

fn repro(args: &[&str]) -> Output {
    repro_in(Path::new("."), args)
}

/// A fresh, empty working directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_usage_error(args: &[&str], needle: &str) {
    assert_usage_error_in(Path::new("."), args, needle);
}

fn assert_usage_error_in(dir: &Path, args: &[&str], needle: &str) {
    let out = repro_in(dir, args);
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
fn non_numeric_values_are_usage_errors() {
    let cases: [(&[&str], &str); 11] = [
        (
            &["perf", "--tasks", "many"],
            "--tasks takes a number, got 'many'",
        ),
        (
            &["spans", "--stress", "--tasks", "x"],
            "--tasks takes a number",
        ),
        (&["replay", "--seed", "x"], "--seed takes an integer"),
        (&["replay", "--jobs", "x"], "--jobs takes a number"),
        (&["replay", "--tenants", "x"], "--tenants takes a number"),
        (&["replay", "--horizon", "x"], "--horizon takes seconds"),
        (&["spans", "--interval", "x"], "--interval takes seconds"),
        (
            &["gate", "--update", "--tolerance", "x"],
            "--tolerance takes a percentage",
        ),
        (&["spans", "--rate", "x"], "--rate takes ppm"),
        (
            &["spans", "--span-seed", "x"],
            "--span-seed takes an integer",
        ),
        (
            &["spans", "--stress", "--shape", "ring"],
            "--shape takes wide|stencil|tree, got 'ring'",
        ),
    ];
    let dir = scratch_dir("numeric");
    for (args, needle) in cases {
        assert_usage_error_in(&dir, args, needle);
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read scratch dir").collect();
    assert!(left.is_empty(), "nothing may be created: {left:?}");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn value_flags_without_a_value_are_usage_errors() {
    let dir = scratch_dir("dirflags");
    for flag in ["--out", "--telemetry"] {
        let needle = format!("{flag} takes a value");
        assert_usage_error_in(&dir, &["table1", flag], &needle);
        // The next flag is not taken as the directory name.
        assert_usage_error_in(&dir, &["fig6", flag, "--quick"], &needle);
        assert_usage_error_in(&dir, &["table1", flag, "--threads", "1"], &needle);
    }
    // Subcommand value flags fail the same way, before anything runs.
    assert_usage_error_in(&dir, &["replay", "--out"], "--out takes a value");
    assert_usage_error_in(
        &dir,
        &["spans", "--otlp", "--check"],
        "--otlp takes a value",
    );
    assert_usage_error_in(
        &dir,
        &["gate", "--report", "--update"],
        "--report takes a value",
    );
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read scratch dir").collect();
    assert!(left.is_empty(), "nothing may be created: {left:?}");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn out_directory_receives_the_artifact() {
    let dir = scratch_dir("out");
    let out = repro_in(&dir, &["table1", "--out", "arts"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("arts/table1.txt").is_file());
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
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
