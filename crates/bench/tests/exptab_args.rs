//! `exptab`'s argument handling: an argument it does not know is
//! refused before any experiment runs.

use std::process::Command;

/// Run `exptab` with `args`: its stdout, stderr and exit code.
fn exptab(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_exptab"))
        .args(args)
        .output()
        .expect("run exptab");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.code(),
    )
}

#[test]
fn unknown_arguments_print_usage_and_run_nothing() {
    for args in [
        &["--only", "E33"][..],
        &["--bogus"],
        &["quick", "--only"],
        &["fast"],
    ] {
        let (stdout, stderr, code) = exptab(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: exptab"), "{args:?}: {stderr}");
        assert_eq!(stdout, "", "{args:?} ran an experiment");
    }
    let (stdout, stderr, code) = exptab(&["--help"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("usage: exptab"), "{stderr}");
    assert_eq!(stdout, "", "--help ran an experiment");
}
