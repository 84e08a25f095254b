//! End-to-end smoke tests for the reproduction binaries: `repro_all` (which
//! chains all 13 table/figure/ablation binaries) and one representative
//! `fig*` binary must run to completion on `Scale::Tiny` without panicking.
//!
//! Cargo builds this package's binaries before running integration tests and
//! exposes their paths via `CARGO_BIN_EXE_<name>`, so the sibling-binary
//! lookup inside `repro_all` finds every experiment binary.

use std::process::Command;

fn run_tiny(exe: &str) -> std::process::Output {
    Command::new(exe)
        .env("OASIS_SCALE", "tiny")
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"))
}

#[test]
fn fig6_selectivity_runs_on_tiny() {
    let out = run_tiny(env!("CARGO_BIN_EXE_fig6_selectivity"));
    assert!(
        out.status.success(),
        "fig6_selectivity failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("paper shape"),
        "fig6_selectivity produced no summary:\n{stdout}"
    );
}

#[test]
fn repro_all_runs_on_tiny() {
    let out = run_tiny(env!("CARGO_BIN_EXE_repro_all"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "repro_all failed ({}):\nstdout:\n{}\nstderr:\n{}",
        out.status,
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("all 13 experiments completed"),
        "repro_all did not report full completion:\n{stdout}"
    );
}
