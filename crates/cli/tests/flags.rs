//! Every `maleva` command names the flags it reads; any other flag is a
//! usage error that names it, so a misspelt or retired flag fails the
//! command instead of being silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn maleva(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maleva"))
        .args(args)
        .output()
        .expect("run maleva")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maleva-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

#[test]
fn an_unknown_flag_is_a_usage_error_that_names_it() {
    let out = scratch("rejected.log");
    let _ = std::fs::remove_file(&out);
    let run = maleva(&[
        "gen",
        "--out",
        out.to_str().unwrap(),
        "--class",
        "clean",
        "--seed",
        "3",
        "--queue-cap",
        "5",
        "--no-such-flag",
        "1",
    ]);
    assert!(!run.status.success(), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("maleva gen has no --queue-cap flag"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!out.exists(), "the command must not run");
}

#[test]
fn serve_rejects_the_retired_queue_cap_flag() {
    // Checked before the model is read: no model file is needed.
    let run = maleva(&["serve", "--model", "missing.json", "--queue-cap", "64"]);
    assert!(!run.status.success(), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("maleva serve has no --queue-cap flag"),
        "{stderr}"
    );
}

#[test]
fn known_and_global_flags_are_accepted() {
    let out = scratch("accepted.log");
    let run = maleva(&[
        "gen",
        "--out",
        out.to_str().unwrap(),
        "--class",
        "clean",
        "--seed",
        "3",
        "--threads",
        "1",
    ]);
    assert!(run.status.success(), "{run:?}");
    assert!(out.exists());
    let _ = std::fs::remove_file(&out);
}

#[test]
fn the_retired_scalar_backend_is_a_usage_error() {
    let out = scratch("scalar.log");
    let _ = std::fs::remove_file(&out);
    let run = maleva(&[
        "gen",
        "--out",
        out.to_str().unwrap(),
        "--class",
        "clean",
        "--seed",
        "3",
        "--backend",
        "scalar",
    ]);
    assert!(!run.status.success(), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown backend `scalar`"), "{stderr}");
    assert!(stderr.contains("pooled|simd"), "{stderr}");
    assert!(!out.exists(), "the command must not run");
}
