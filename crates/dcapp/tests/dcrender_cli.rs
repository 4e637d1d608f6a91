//! `dcrender` rejects a bad flag value with a message and exit status 2,
//! never a panic, and prints modelled host rows only where a model ran.

use std::process::Command;

#[test]
fn bad_flag_values_exit_2_without_panicking() {
    for [flag, value] in [
        ["--grid", "sixty-four"],
        ["--grid", "0"],
        ["--nodes", "0"],
        ["--iso", "half"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dcrender"))
            .args([flag, value])
            .output()
            .expect("dcrender should start");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "names the flag: {stderr}");
        assert!(stderr.contains(value), "names the value: {stderr}");
        assert!(stderr.contains("usage:"), "prints a usage line: {stderr}");
    }
}

/// `--verbose` prints the modelled host-utilization rows on the sim
/// executor only; on a wall-clock executor those fields are never filled.
#[test]
fn verbose_prints_host_utilization_only_under_sim() {
    for executor in ["sim", "native"] {
        let out_path = format!("{}/verbose-{executor}.ppm", env!("CARGO_TARGET_TMPDIR"));
        let out = Command::new(env!("CARGO_BIN_EXE_dcrender"))
            .args(["--grid", "16", "--image", "64", "--nodes", "2"])
            .args(["--executor", executor, "--verbose", "--out", &out_path])
            .output()
            .expect("dcrender should start");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{executor}: {stdout}");
        let host_rows = stdout.lines().filter(|l| l.contains(": cpu ")).count();
        if executor == "sim" {
            assert_eq!(host_rows, 2, "one row per host:\n{stdout}");
        } else {
            assert_eq!(host_rows, 0, "no model rows on native:\n{stdout}");
        }
        let _ = std::fs::remove_file(&out_path);
    }
}
