//! `tnet` — command-line interface for transportation network mining.
//!
//! ```text
//! tnet gen      --scale 0.05 --seed 42 --out data.csv
//! tnet stats    --input data.csv
//! tnet mine     --input data.csv --labeling th --strategy bf --partitions 24 --support 7
//! tnet subdue   --input data.csv --eval size --vertices 60 --passes 2
//! tnet temporal --input data.csv
//! tnet lanes    --input data.csv
//! tnet report   --scale 0.05
//! ```
//!
//! Every command also accepts `--scale`/`--seed` instead of `--input` to
//! run on a freshly generated synthetic dataset.

/// Writes formatted text to standard output; `out!`/`outln!` are the
/// only way the commands print. A reader that closes the pipe early
/// (`tnet mine | head -1`) has all it asked for, so a broken pipe ends
/// the process quietly with exit 0 instead of a panic. Any other write
/// failure is a runtime error (exit 1).
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;
mod commands;
mod error;

use args::Args;
use error::CliError;

const HELP: &str = "\
tnet — knowledge discovery from transportation network data
(Rust reproduction of Jiang et al., ICDE 2005)

USAGE:
    tnet <command> [--options ...]
    tnet <command> --help      (or -h: print this text)

COMMANDS:
    gen       generate a synthetic dataset and write CSV
              --scale F --seed N --out PATH
    stats     dataset description (Sec 3 statistics)
              --input CSV | --scale F --seed N
    mine      frequent patterns on the OD graph
              --mode partition (Algorithm 1: partition + FSG, default)
                --strategy bf|df --partitions N --reps N
              --mode neighborhood (r-hop neighborhood miner, no partitioning)
                --radius N
              --labeling gw|th|td --support N --max-edges N
              --top N --maximal true
    subdue    SUBDUE substructure discovery on a truncated OD graph
              --labeling gw|th|td --vertices N --eval mdl|size
              --beam N --best N --max-size N --passes N
    temporal  Sec 6 temporal experiments (Tables 2-3, Figure 4, OOM)
              --quiet-fraction F --budget-mb N --oom-support N
              windowed mode (sliding/tumbling windows):
                --granularity hour|day|week --window N --slide N
                --flow true|false --support N --max-edges N --top N
    lanes     periodic lanes and repeated routes (Sec 9 extensions)
              --max-sep N --max-len N --min-occurrences N
    report    the full E1..E16 report (+E17..E19 extensions)
              --scale F --seed N --extensions true|false
              --deadline-secs F --section-budget MB
    serve     long-lived pattern-mining daemon (JSON lines over TCP)
              --port N --port-file PATH --publish-interval-ms N
              --batch N --cache N --shutdown-on-stdin-eof true|false
              --data-dir PATH --fsync always|never|interval[:MS]
              --snapshot-every N --trace --trace-json PATH
    trace     summarize a tnet-trace/v1 JSON file (from --trace-json)
              --input PATH
    help      this message

mine, subdue, temporal and report also take --threads N to size the
worker pool (default: TNET_THREADS, then the hardware thread count).
Results are identical at any thread count.

mine, subdue and report take --trace to print a span tree (wall clock
per pipeline phase, xN call counts) and a named-counter table after
the run, and --trace-json PATH to also write both as a tnet-trace/v1
JSON document. Without either flag tracing is compiled to a single
untaken branch per phase.

report runs every section under supervision: a panicking or failing
section renders a notice instead of killing the run, --deadline-secs
bounds each section's wall clock, and --section-budget caps each
miner's memory estimate. Retryable failures (budget, deadline) are
retried once at reduced effort before being marked failed.

EXIT CODES:
    0   success (report: at least one section completed)
    1   runtime failure (missing file, malformed CSV, mining abort)
    2   usage error (unknown command/flag, unparseable value)
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    };
    std::process::exit(code);
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    if args.help {
        outln!("{HELP}");
        return Ok(());
    }
    match args.command.as_str() {
        "gen" => commands::gen::run(&args),
        "stats" => commands::stats::run(&args),
        "mine" => commands::mine::run(&args),
        "subdue" => commands::subdue::run(&args),
        "temporal" => commands::temporal::run(&args),
        "lanes" => commands::lanes::run(&args),
        "report" => commands::report::run(&args),
        "serve" => commands::serve::run(&args),
        "trace" => commands::trace::run(&args),
        "help" => {
            outln!("{HELP}");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'; try `tnet help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_works() {
        run(&argv("help")).unwrap();
    }

    /// The help text names every flag of the windowed temporal mode and
    /// the durable daemon, and only the report sections that run.
    #[test]
    fn help_names_every_windowed_and_durability_flag() {
        for flag in [
            "--granularity",
            "--window",
            "--slide",
            "--flow",
            "--data-dir",
            "--fsync",
            "--snapshot-every",
            "--trace",
        ] {
            assert!(HELP.contains(&format!("{flag} ")), "help lacks {flag}");
        }
        assert!(HELP.contains("E17..E19"), "report extensions");
        assert!(!HELP.contains("E21"), "E20/E21 are not report sections");
    }

    #[test]
    fn unknown_command() {
        let e = run(&argv("frobnicate")).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn missing_input_file_is_a_runtime_error() {
        let e = run(&argv("stats --input /nonexistent/data.csv")).unwrap_err();
        assert_eq!(e.exit_code(), 1, "I/O failure is runtime, not usage");
    }

    #[test]
    fn bad_flag_value_is_a_usage_error() {
        let e = run(&argv("stats --scale notanumber")).unwrap_err();
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn stats_end_to_end() {
        run(&argv("stats --scale 0.01")).unwrap();
    }

    #[test]
    fn mine_trace_json_round_trips_and_phases_nest() {
        let path = std::env::temp_dir().join("tnet_test_mine_trace.json");
        let path_s = path.to_string_lossy().into_owned();
        run(&argv(&format!(
            "mine --scale 0.01 --partitions 4 --support 3 --max-edges 3 --reps 1 \
             --trace --trace-json {path_s}"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let (root, metrics) = tnet_obs::json::decode_trace(&text).unwrap();
        assert_eq!(root.label, "mine");
        let labels: Vec<&str> = root.children.iter().map(|c| c.label.as_str()).collect();
        for phase in ["ingest", "binning", "build_od_graph", "partition", "fsg"] {
            assert!(labels.contains(&phase), "missing phase {phase}: {labels:?}");
        }
        // Per-phase wall sums to at most the root total: children nest
        // inside the root timer (slack is idle/orchestration time).
        let summed = root.children_nanos();
        assert!(
            summed <= root.nanos,
            "phases ({summed} ns) exceed total wall ({} ns)",
            root.nanos
        );
        // The registry absorbed miner and pool counters.
        assert!(metrics.contains_key("fsg.iso_tests"), "{metrics:?}");
        assert!(metrics.contains_key("exec.tasks"), "{metrics:?}");
    }

    /// Regression for the trace-summary path: a truncated or
    /// hand-edited trace file must surface as a one-line runtime error
    /// (exit 1), never a panic from unwrapping `nanos` and friends.
    #[test]
    fn malformed_trace_json_is_a_one_line_runtime_error() {
        let dir = std::env::temp_dir();
        let cases: &[(&str, &str, &str)] = &[
            // Truncated mid-document (a crashed writer).
            (
                "tnet_test_trace_truncated.json",
                r#"{"schema": "tnet-trace/v1", "root": {"label": "mine", "na"#,
                "malformed trace JSON",
            ),
            // Hand-edited: nanos replaced by a string.
            (
                "tnet_test_trace_bad_nanos.json",
                r#"{"schema": "tnet-trace/v1", "metrics": {},
                    "root": {"label": "mine", "nanos": "fast", "count": 1, "children": []}}"#,
                "'nanos' is not a non-negative integer",
            ),
            // Hand-edited: a child span lost its label.
            (
                "tnet_test_trace_bad_child.json",
                r#"{"schema": "tnet-trace/v1", "metrics": {"exec.tasks": 4},
                    "root": {"label": "mine", "nanos": 5, "count": 1,
                             "children": [{"nanos": 2, "count": 1, "children": []}]}}"#,
                "children[0]: missing 'label' string",
            ),
            // Wrong schema tag entirely.
            (
                "tnet_test_trace_bad_schema.json",
                r#"{"schema": "not-a-trace", "metrics": {}, "root": {}}"#,
                "unexpected schema",
            ),
        ];
        for (name, text, want) in cases {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let e = run(&argv(&format!("trace --input {}", path.display()))).unwrap_err();
            let _ = std::fs::remove_file(&path);
            assert_eq!(e.exit_code(), 1, "{name}: runtime, not usage: {e}");
            let msg = e.to_string();
            assert!(!msg.contains('\n'), "{name}: one stderr line: {msg:?}");
            assert!(msg.contains(want), "{name}: {msg}");
        }
        // Missing file is also a runtime error; missing --input is usage.
        let e = run(&argv("trace --input /nonexistent/trace.json")).unwrap_err();
        assert_eq!(e.exit_code(), 1);
        let e = run(&argv("trace")).unwrap_err();
        assert_eq!(e.exit_code(), 2);
    }

    /// A trace written by `--trace-json` summarizes cleanly.
    #[test]
    fn trace_summarizes_a_real_trace_json() {
        let path = std::env::temp_dir().join("tnet_test_trace_real.json");
        let path_s = path.to_string_lossy().into_owned();
        run(&argv(&format!(
            "mine --scale 0.01 --partitions 4 --support 3 --max-edges 3 --reps 1 \
             --trace-json {path_s}"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let summary = commands::trace::summarize(&text).unwrap();
        assert!(summary.contains("mine"), "{summary}");
        assert!(summary.contains("--- metrics ---"), "{summary}");
        assert!(summary.contains("fsg.iso_tests"), "{summary}");
        assert!(summary.contains("total wall"), "{summary}");
    }

    #[test]
    fn nan_csv_is_a_one_line_runtime_error_with_line_number() {
        let path = std::env::temp_dir().join("tnet_test_nan.csv");
        std::fs::write(
            &path,
            format!(
                "{}\n1,0,1,44.5,-88.0,41.9,-87.6,200,NaN,8,TL\n",
                tnet_data::csv::HEADER
            ),
        )
        .unwrap();
        let e = run(&argv(&format!("stats --input {}", path.display()))).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert_eq!(e.exit_code(), 1, "malformed data is runtime, not usage");
        let msg = e.to_string();
        assert!(!msg.contains('\n'), "one stderr line: {msg:?}");
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("non-finite"), "{msg}");
    }

    #[test]
    fn absurd_deadline_and_budget_are_usage_errors() {
        let e = run(&argv("report --scale 0.01 --deadline-secs 1e18")).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("absurd"), "{e}");
        let e = run(&argv(&format!(
            "report --scale 0.01 --section-budget {}",
            usize::MAX
        )))
        .unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("overflows"), "{e}");
    }
}
