//! Smoke test of the `reproduce` binary: a tiny-scale run must print the
//! expected tables and exit zero; bad flags must exit non-zero.

use std::process::Command;

#[test]
fn tiny_scale_fig8_passes_shape_checks() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig8", "--scale", "0.05"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("Fig 8"), "{stdout}");
    assert!(stdout.contains("all shape checks passed"), "{stdout}");
}

#[test]
fn unknown_experiment_fails() {
    // The serving path is measured by the repo benchmark, `navbench/`,
    // not by `reproduce`: the retired load drivers are unknown names.
    for name in ["fig99", "serve", "serve-sharded", "serve-openloop"] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args([name, "--scale", "0.05"])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{name} must exit non-zero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown experiment"), "{name}: {stderr}");
    }
}

#[test]
fn retired_driver_flags_are_rejected() {
    for flag in [["--workers", "4"], ["--out", "x"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["fig8", "--scale", "0.05"])
            .args(flag)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{flag:?} must exit non-zero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{flag:?}: {stderr}");
    }
}

#[test]
fn bad_scale_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig8", "--scale", "7"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scale"));
}

#[test]
fn help_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("--help")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}
