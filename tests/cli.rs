//! Command-line boundary tests: malformed `detect` arguments must fail as
//! usage errors (exit 2, usage text on stderr), never as panics or hangs.

use std::process::{Command, Output};

fn manet_guard(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_manet-guard"))
        .args(args)
        .output()
        .expect("the manet-guard binary runs")
}

/// Runs `detect <args>` and asserts a clean usage error mentioning `needle`.
fn assert_usage_error(args: &[&str], needle: &str) {
    let mut argv = vec!["detect"];
    argv.extend_from_slice(args);
    let out = manet_guard(&argv);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{argv:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{argv:?} must print usage; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{argv:?} must not panic; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{argv:?} must mention {needle:?}; stderr:\n{stderr}"
    );
}

#[test]
fn shards_flag_is_unrecognized() {
    assert_usage_error(&["--shards", "4"], "unrecognized argument: --shards");
}

#[test]
fn rate_must_be_finite_and_positive() {
    for bad in ["nan", "0", "-1", "inf"] {
        assert_usage_error(&["--rate", bad], "invalid value for --rate");
    }
}

#[test]
fn pm_above_100_is_rejected() {
    assert_usage_error(&["--pm", "101"], "invalid value for --pm");
}

#[test]
fn secs_beyond_the_virtual_clock_is_rejected() {
    assert_usage_error(&["--secs", "18446744074"], "invalid value for --secs");
}

#[test]
fn boundary_values_are_accepted() {
    let out = manet_guard(&["detect", "--pm", "100", "--rate", "0.5", "--secs", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "boundary values must run; stderr:\n{stderr}"
    );
}
