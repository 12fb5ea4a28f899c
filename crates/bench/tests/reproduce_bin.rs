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
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("fig99")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
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

#[test]
fn explicit_out_is_honored_by_serve_sharded() {
    // `--out BENCH_serve.json` is serve's default file name; serve-sharded
    // must still write exactly there, not its own default.
    let dir = std::env::temp_dir().join(format!("reproduce-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args([
            "serve-sharded",
            "--scale",
            "0.05",
            "--workers",
            "2",
            "--rounds",
            "1",
            "--out",
            "BENCH_serve.json",
        ])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let written = std::fs::read_to_string(dir.join("BENCH_serve.json"));
    let stray = dir.join("BENCH_sharded.json").exists();
    let _ = std::fs::remove_dir_all(&dir);
    let report = written.unwrap_or_else(|e| {
        panic!(
            "--out path not written ({e}); stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        )
    });
    assert!(report.contains("\"sweep\""), "{report}");
    assert!(!stray, "serve-sharded fell back to its default path");
}
