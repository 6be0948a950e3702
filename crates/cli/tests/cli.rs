//! End-to-end tests of the `tnet` binary: spawn the real executable and
//! check exit codes and output shape (generate → stats → mine round
//! trip through an actual CSV file on disk), plus the exit-code
//! contract — 0 success, 1 runtime failure, 2 usage error — and the
//! supervised report under an armed failpoint.

use std::process::Command;

fn tnet() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tnet"));
    // Isolate from any failpoints armed in the invoking environment.
    cmd.env_remove("TNET_FAILPOINTS");
    cmd
}

fn run_ok(args: &[&str]) -> String {
    let out = tnet().args(args).output().expect("spawn tnet");
    assert!(
        out.status.success(),
        "tnet {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn help_lists_commands() {
    let text = run_ok(&["help"]);
    for cmd in [
        "gen", "stats", "mine", "subdue", "temporal", "lanes", "report",
    ] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn help_after_a_subcommand_prints_help() {
    for flag in ["--help", "-h"] {
        let text = run_ok(&["mine", flag]);
        assert!(text.contains("USAGE:"), "mine {flag}: {text}");
    }
}

#[test]
fn positional_argument_is_usage_error() {
    for args in [
        &["mine", "stray"][..],
        &["stats", "--scale", "0.01", "data.csv"],
    ] {
        let out = tnet().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: unexpected argument"), "{err}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

/// `tnet mine | head -1`: the reader closes the pipe before the command
/// has printed. The command ends quietly with exit 0 instead of
/// panicking on the failed write.
#[test]
fn closed_stdout_pipe_ends_quietly() {
    let mut child = tnet()
        .args(["mine", "--scale", "0.01"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn tnet");
    // Closing the only read end makes the first write fail with EPIPE.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn unknown_command_is_usage_error() {
    let out = tnet().arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.starts_with("error: "), "{err}");
}

#[test]
fn unparseable_value_is_usage_error() {
    let out = tnet()
        .args(["stats", "--scale", "notanumber"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scale"));
    // Fractions that must lie in (0, 1]: out-of-range values, NaN
    // included, are usage errors, never a panic (exit 101).
    for (flag, args) in [
        (
            "--support",
            ["temporal", "--scale", "0.005", "--support", "1.5"],
        ),
        (
            "--support",
            ["temporal", "--scale", "0.005", "--support", "0"],
        ),
        (
            "--support",
            ["temporal", "--scale", "0.005", "--support", "nan"],
        ),
        ("--scale", ["gen", "--out", "unused.csv", "--scale", "nan"]),
        ("--scale", ["report", "--threads", "1", "--scale", "nan"]),
        ("--scale", ["report", "--threads", "1", "--scale", "2"]),
    ] {
        let out = tnet().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(flag));
    }
}

#[test]
fn missing_input_file_is_runtime_error() {
    let out = tnet()
        .args(["stats", "--input", "/nonexistent/data.csv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "I/O failure is runtime");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: "), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line stderr, got:\n{err}");
}

#[test]
fn malformed_csv_is_runtime_error_with_line_number() {
    let dir = std::env::temp_dir().join(format!("tnet_cli_badcsv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.csv");
    std::fs::write(
        &path,
        format!("{}\nnot,enough,fields\n", tnet_data::csv::HEADER),
    )
    .unwrap();
    let out = tnet()
        .args(["stats", "--input", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    // File-line numbering: the header is line 1, the broken row line 2.
    assert!(err.contains("line 2"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_with_injected_panic_still_succeeds() {
    // One section panics; the supervisor isolates it, every other
    // section renders, and the command still exits 0.
    let out = tnet()
        .args([
            "report",
            "--scale",
            "0.008",
            "--extensions",
            "false",
            "--threads",
            "2",
        ])
        .env("TNET_FAILPOINTS", "em::iteration=panic")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("!! section failed:"),
        "missing failure notice:\n{stdout}"
    );
    assert!(
        stdout.contains("sections: 12 ok, 0 degraded, 1 failed"),
        "missing summary:\n{stdout}"
    );
}

#[test]
fn gen_stats_mine_roundtrip() {
    let dir = std::env::temp_dir().join(format!("tnet_cli_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    let csv_str = csv.to_str().unwrap();

    let gen_out = run_ok(&["gen", "--scale", "0.01", "--seed", "7", "--out", csv_str]);
    assert!(gen_out.contains("wrote"), "gen output: {gen_out}");
    assert!(csv.exists());

    let stats_out = run_ok(&["stats", "--input", csv_str]);
    assert!(stats_out.contains("distinct OD pairs"));
    assert!(stats_out.contains("out-degree"));

    let mine_out = run_ok(&[
        "mine",
        "--input",
        csv_str,
        "--partitions",
        "6",
        "--support",
        "3",
        "--max-edges",
        "3",
        "--reps",
        "1",
    ]);
    assert!(mine_out.contains("frequent patterns"), "mine: {mine_out}");
    assert!(mine_out.contains("support"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn subdue_runs_on_synthetic() {
    let out = run_ok(&[
        "subdue",
        "--scale",
        "0.01",
        "--vertices",
        "20",
        "--eval",
        "size",
        "--max-size",
        "6",
    ]);
    assert!(out.contains("truncated graph"));
    assert!(out.contains("#1:"), "expected a best substructure: {out}");
}

#[test]
fn lanes_runs_on_synthetic() {
    let out = run_ok(&["lanes", "--scale", "0.02"]);
    assert!(out.contains("periodic lanes"));
    assert!(out.contains("route patterns"));
}

#[test]
fn bad_option_reports_error() {
    let out = tnet().args(["stats", "--nonsense", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

/// Hostile nesting in a trace file is refused with exit 1 and one
/// stderr line. Both inputs used to overflow the stack (exit 134).
#[test]
fn deeply_nested_trace_files_are_one_line_runtime_errors() {
    let dir = std::env::temp_dir().join(format!("tnet_cli_deep_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let span = r#"{"label":"s","nanos":1,"count":1,"children":["#;
    let chain = format!(
        r#"{{"schema":"tnet-trace/v1","metrics":{{}},"root":{}{}{}}}"#,
        span.repeat(20_000),
        r#"{"label":"leaf","nanos":1,"count":1,"children":[]}"#,
        "]}".repeat(20_000)
    );
    for (name, text) in [
        ("brackets.json", "[".repeat(200_000)),
        ("chain.json", chain),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let out = tnet()
            .args(["trace", "--input", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err.lines().count(),
            1,
            "{name}: one-line stderr, got:\n{err}"
        );
        assert!(err.contains("nested too deeply"), "{name}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
