//! `dcrender` rejects a bad flag value with a message and exit status 2,
//! never a panic.

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
