//! The experiment binaries refuse a flag left without its value with a
//! usage error (exit status 2, usage on stderr), never a panic. Every
//! command line here is refused before any simulation runs.

use std::path::Path;
use std::process::Command;

/// Run `bin` with `args` and assert a clean usage error.
fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} must exit 2, stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked:\n{stderr}"
    );
    assert!(stderr.contains("options:"), "no usage text:\n{stderr}");
}

fn corpus(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    path.join(file).to_string_lossy().into_owned()
}

#[test]
fn reproduce_refuses_a_flag_without_its_value() {
    let bin = env!("CARGO_BIN_EXE_reproduce");
    for flag in [
        "--nodes",
        "--duration",
        "--reps",
        "--seed",
        "--threads",
        "--obs-out",
        "--trace-out",
        "--scenario",
    ] {
        assert_usage_error(bin, &[flag]);
    }
    assert_usage_error(bin, &["--table2", "--nodes"]);
    assert_usage_error(bin, &["--nodes", "many"]);
    assert_usage_error(bin, &["--bogus"]);
    let scn = corpus("REGULAR_BASELINE.scn");
    assert!(Path::new(&scn).exists(), "{scn}");
    for flag in ["--reps", "--seed", "--threads"] {
        assert_usage_error(bin, &["--scenario", &scn, flag]);
    }
}

#[test]
fn sweep_refuses_a_flag_without_its_value() {
    let bin = env!("CARGO_BIN_EXE_sweep");
    for flag in [
        "--axis",
        "--corpus",
        "--nodes",
        "--duration",
        "--reps",
        "--obs-out",
        "--trace-out",
    ] {
        assert_usage_error(bin, &[flag]);
    }
    assert_usage_error(bin, &["--corpus", &corpus(""), "--cheapest"]);
    assert_usage_error(bin, &["--corpus", &corpus(""), "--cheapest", "two"]);
    assert_usage_error(bin, &["--axis", "altitude"]);
}
