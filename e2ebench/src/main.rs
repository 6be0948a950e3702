//! The tnet end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload mine_paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Prints every metric by name and unit,
//! a provenance record, and as its last line one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Inputs are cached under `.bench_cache/`, span dumps
//! and records written under `.bench_out/`. See README.md.

mod batch;
mod host;
mod inputs;
mod run;
mod serve;
mod spec;
mod trace;
mod util;

use run::{Ctx, Outcome};
use spec::{Workload, WorkloadSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const CACHE_DIR: &str = ".bench_cache";
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: &'static WorkloadSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// The size the benchmark's own tests run; set only by the tests.
    tiny: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                kv.insert(&a[2..], v);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = kv.get("workload").ok_or("--workload is required")?;
    let workload = spec::workload(name).ok_or_else(|| {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let num = |k: &str, d: &str| -> Result<f64, String> {
        let v = kv.get(k).copied().unwrap_or(d);
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("--{k} {v:?} is not a non-negative number"))
    };
    let seed = kv.get("seed").copied().unwrap_or("1");
    Ok(Args {
        workload,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed {seed:?} is not an integer"))?,
        seconds: num("seconds", "10")?,
        traced: match kv.get("trace").copied().unwrap_or("0") {
            "0" => false,
            "1" => true,
            v => return Err(format!("--trace {v:?} must be 0 or 1")),
        },
        tiny: false,
    })
}

/// A name part no other run, or other thread of this process, uses at
/// the same time.
pub fn unique_suffix() -> String {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    format!("{}-{n}", std::process::id())
}

/// Runs one workload in this process. `gen` decides whether input
/// synthesis happens in a child process (the benchmark) or here (tests).
fn run_workload(
    args: &Args,
    root: &Path,
    gen: inputs::Gen,
) -> Result<(Outcome, trace::Trace, Ctx), String> {
    let spec = args.workload;
    let scale = if args.tiny {
        spec.tiny_scale
    } else {
        spec.scale
    };
    let cache = root.join(CACHE_DIR);
    let csv = inputs::ensure_csv(&cache, scale, args.seed, gen)?;
    let ctx = Ctx {
        spec,
        seconds: args.seconds,
        traced: args.traced,
        scale,
        csv,
        work_dir: cache.join(format!("work-{}", unique_suffix())),
    };
    let tr = trace::Trace::new(args.traced);
    let out = match spec.workload {
        Workload::ServeMixed => serve::run(&ctx, &tr),
        _ => batch::run(&ctx, &tr),
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    Ok((out?, tr, ctx))
}

/// The metrics the result line carries: every declared name of the
/// run's kind; a layer the workload never calls reads 0.
fn result_metrics(out: &Outcome, traced: bool) -> Vec<(String, f64, &'static str)> {
    if traced {
        spec::per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = out.layers.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|s| {
                (
                    s.name.to_string(),
                    out.e2e.get(s.name).copied().unwrap_or(0.0),
                    s.unit,
                )
            })
            .collect()
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns the -0 an empty float sum yields into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

fn result_line(out: &Outcome, metrics: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0 && out.checks.attempted > 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        body.join(", ")
    )
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("gen-csv") {
        return gen_csv(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let before = host::sample();
    let (out, tr, ctx) = match run_workload(&args, &root, inputs::Gen::Child) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload.name);
            return ExitCode::from(1);
        }
    };
    let after = host::sample();
    let mut out = out;
    out.e2e.insert("peak_rss_mb", host::peak_rss_mb());
    let metrics = result_metrics(&out, args.traced);

    let mut record: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.name.into()),
        ("why".into(), args.workload.why.into()),
        ("seed".into(), args.seed.to_string()),
        ("scale".into(), ctx.scale.to_string()),
        ("input".into(), ctx.csv.display().to_string()),
        ("threads".into(), args.workload.threads.to_string()),
        ("nproc".into(), host::nproc().to_string()),
        ("git_revision".into(), host::git_revision(&root)),
        ("seconds".into(), args.seconds.to_string()),
        ("traced".into(), args.traced.to_string()),
        ("loadavg_before".into(), before.loadavg.clone()),
        ("loadavg_after".into(), after.loadavg.clone()),
        (
            "steal_ticks".into(),
            format!("{} -> {}", before.steal_ticks, after.steal_ticks),
        ),
        (
            "steal_pct".into(),
            format!("{:.3}", host::steal_pct(&before, &after)),
        ),
        (
            "failed_ratio".into(),
            format!(
                "{}",
                out.checks.failed as f64 / out.checks.attempted.max(1) as f64
            ),
        ),
    ];
    record.append(&mut out.record);
    for p in &out.checks.problems {
        record.push(("problem".into(), p.clone()));
    }
    let record_json = format!(
        "{{{}}}",
        record
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let out_dir = root.join(OUT_DIR);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.traced)
    );
    let mut written = Vec::new();
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let rec = out_dir.join(format!("{stem}.record.json"));
        if std::fs::write(&rec, format!("{record_json}\n")).is_ok() {
            written.push(rec);
        }
        if args.traced {
            let spans = out_dir.join(format!("{stem}.spans.json"));
            if std::fs::write(&spans, tr.to_json(args.workload.name, args.seed)).is_ok() {
                written.push(spans);
            }
        }
    }

    for (n, v, u) in &metrics {
        println!("metric {n} = {} {u}", json_number(*v));
    }
    for p in &written {
        println!("wrote {}", p.display());
    }
    println!("record {record_json}");
    println!("{}", result_line(&out, &metrics));
    ExitCode::SUCCESS
}

/// `gen-csv --cache DIR --scale S --seed N`: the input generator's child
/// process.
fn gen_csv(argv: &[String]) -> ExitCode {
    let get = |k: &str| {
        argv.iter()
            .position(|a| a == k)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let (Some(cache), Some(scale), Some(seed)) = (get("--cache"), get("--scale"), get("--seed"))
    else {
        eprintln!("e2ebench gen-csv: needs --cache, --scale and --seed");
        return ExitCode::from(2);
    };
    let (Ok(scale), Ok(seed)) = (scale.parse::<f64>(), seed.parse::<u64>()) else {
        eprintln!("e2ebench gen-csv: bad --scale or --seed");
        return ExitCode::from(2);
    };
    match inputs::ensure_csv(Path::new(&cache), scale, seed, inputs::Gen::InProcess) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench gen-csv: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn tiny(name: &str, traced: bool) -> Args {
        Args {
            workload: spec::workload(name).expect("declared workload"),
            seed: 3,
            seconds: 0.0,
            traced,
            tiny: true,
        }
    }

    fn test_root() -> PathBuf {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-root");
        std::fs::create_dir_all(&root).expect("test root");
        root
    }

    #[test]
    fn a_tiny_size_of_each_workload_finishes_in_seconds_and_is_correct() {
        for w in &spec::WORKLOADS {
            let t = Instant::now();
            let (out, _, _) =
                run_workload(&tiny(w.name, false), &test_root(), inputs::Gen::InProcess)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let secs = t.elapsed().as_secs_f64();
            assert!(secs < 60.0, "{} took {secs:.1}s at its tiny size", w.name);
            assert_eq!(
                out.checks.failed, 0,
                "{}: {:?}",
                w.name, out.checks.problems
            );
            assert!(out.checks.attempted >= 2, "{}", w.name);
            for s in spec::END_TO_END.iter().filter(|s| s.name != "peak_rss_mb") {
                let v = out.e2e.get(s.name).copied().unwrap_or(0.0);
                assert!(v > 0.0 && v.is_finite(), "{}: {} = {v}", w.name, s.name);
            }
        }
    }

    #[test]
    fn the_traced_run_emits_every_per_layer_metric() {
        let declared: Vec<String> = spec::per_layer().into_iter().map(|m| m.0).collect();
        let mut measured = std::collections::BTreeSet::new();
        for w in &spec::WORKLOADS {
            let (out, tr, _) =
                run_workload(&tiny(w.name, true), &test_root(), inputs::Gen::InProcess)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(
                out.checks.failed, 0,
                "{}: {:?}",
                w.name, out.checks.problems
            );
            assert!(!tr.spans().is_empty(), "{}", w.name);
            let metrics = result_metrics(&out, true);
            let names: Vec<&String> = metrics.iter().map(|m| &m.0).collect();
            assert_eq!(names, declared.iter().collect::<Vec<_>>(), "{}", w.name);
            for name in out.layers.keys() {
                assert!(
                    declared.contains(name),
                    "{} reports undeclared {name}",
                    w.name
                );
            }
            let line = result_line(&out, &metrics);
            assert!(line.starts_with("{\"correct\": true"), "{line}");
            measured.extend(out.layers.keys().cloned());
        }
        // Every declared layer metric is measured by some workload.
        for name in &declared {
            assert!(measured.contains(name), "no workload measures {name}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv(
            "--workload mine_paper --seed 4 --seconds 10 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload report --trace 2")).is_err());
        assert!(parse_args(&argv("--workload report --seed -1")).is_err());
        assert!(parse_args(&argv("--workload report --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload report --tiny")).is_err());
    }
}
