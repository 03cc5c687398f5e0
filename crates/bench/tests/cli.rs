//! Bad command-line input fails cleanly: a non-zero exit, exactly one
//! `error:` line on stderr, and never a panic or backtrace.

use std::process::Command;

#[test]
fn bad_input_is_one_error_line_not_a_panic() {
    let results = std::env::temp_dir().join(format!("gaia-bench-cli-{}", std::process::id()));
    let cases: [(&[&str], Option<i32>); 5] = [
        (&["chaos", "--seed", "x"], Some(1)),
        (&["chaos", "--ranks"], Some(1)),
        (&["profile", "H100", "abc"], Some(1)),
        (&["no-such-study"], Some(2)),
        (&[], Some(2)),
    ];
    for (args, code) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_gaia-bench"))
            .args(args)
            .env("GAIA_RESULTS_DIR", &results)
            .output()
            .expect("spawn gaia-bench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), code, "{args:?}: {stderr}");
        let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&results);
}
