//! `tnet temporal` — the §6 temporal experiments (Table 2 summary,
//! quiet-date filtering, Figure 4 mining, the §6.1 memory failure
//! demonstration), plus the windowed mode: with `--granularity
//! {hour,day,week}` the command mines every tumbling/sliding window
//! (`--window`/`--slide`) on its own, optionally runs the flow-pattern
//! detector (`--flow true`), and feeds the union of per-window patterns
//! through the shared maximal/top-N/dot pipeline.

use crate::args::{ArgError, Args};
use crate::commands::{fraction_arg, load_transactions, obs_context, report_patterns};
use crate::error::CliError;
use tnet_core::experiments::temporal::{quiet_day_label_limit, run_fig4, run_fsg_oom, run_table2};
use tnet_fsg::{FsgConfig, Support};
use tnet_graph::canon::IsoClassMap;
use tnet_partition::single_graph::SingleGraphPattern;
use tnet_partition::{Granularity, TemporalOptions, WindowSpec};
use tnet_temporal::{attribute, detect_flows, run_windows, FlowConfig, TemporalConfig};

pub fn run(args: &Args) -> Result<(), CliError> {
    if args.get("granularity").is_some() {
        return run_windowed(args);
    }
    args.ensure_known(&[
        "input",
        "scale",
        "seed",
        "quiet-fraction",
        "budget-mb",
        "oom-support",
        "support",
        "max-edges",
        "threads",
    ])?;
    let exec = args.exec()?;
    let quiet_fraction: f64 = args.get_parsed_or("quiet-fraction", 0.1)?;
    if !(0.0..=1.0).contains(&quiet_fraction) {
        return Err(ArgError("--quiet-fraction must be in [0, 1]".into()).into());
    }
    let budget_mb: usize = args.get_parsed_or("budget-mb", 256)?;
    let oom_support: usize = args.get_parsed_or("oom-support", 8)?;
    let support = fraction_arg(args, "support", 0.05)?;
    let max_edges: usize = args.get_parsed_or("max-edges", 5)?;
    let txns = load_transactions(args)?;

    let t2 = run_table2(&txns)?;
    outln!("{t2}");
    let limit = quiet_day_label_limit(&txns, quiet_fraction)?;
    outln!("quiet-date label limit ({quiet_fraction} quantile): {limit}");
    outln!(
        "{}",
        run_fig4(
            &txns,
            limit,
            Support::Fraction(support),
            max_edges,
            Some(budget_mb << 20),
            &exec,
        )?
    );
    outln!(
        "{}",
        run_fsg_oom(
            &t2.transactions,
            Support::Count(oom_support),
            budget_mb << 20,
            &exec,
        )
    );
    Ok(())
}

/// The windowed mode: multi-granularity windows, each mined as a slice
/// of one frozen transaction set ([`run_windows`]).
fn run_windowed(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&[
        "input",
        "scale",
        "seed",
        "granularity",
        "window",
        "slide",
        "flow",
        "support",
        "max-edges",
        "top",
        "maximal",
        "dot-dir",
        "threads",
        "trace",
        "trace-json",
    ])?;
    let gran_name = args.get("granularity").unwrap();
    let granularity = Granularity::parse(gran_name)
        .ok_or_else(|| ArgError(format!("unknown granularity '{gran_name}' (hour|day|week)")))?;
    let width: usize = args.get_parsed_or("window", 7)?;
    let slide: usize = args.get_parsed_or("slide", width)?;
    let spec = WindowSpec::new(granularity, width, slide)
        .map_err(|e| ArgError(format!("bad window spec: {e}")))?;
    let flow = args.get_or("flow", "false") == "true";
    let support: usize = args.get_parsed_or("support", 5)?;
    let max_edges: usize = args.get_parsed_or("max-edges", 4)?;
    let top: usize = args.get_parsed_or("top", 15)?;
    let maximal = args.get_or("maximal", "false") == "true";

    let obs = obs_context(args);
    let mut exec = args.exec()?;
    if let Some(o) = &obs {
        exec = o.attach(&exec);
    }
    let total = exec.span().timer();
    let txns = {
        let _t = exec.span().time("ingest");
        load_transactions(args)?
    };
    let fsg = FsgConfig::default()
        .with_support(Support::Count(support))
        .with_max_edges(max_edges)
        .with_memory_budget(512 << 20);
    let cfg = TemporalConfig::new(spec).with_fsg(fsg);
    let run = {
        let _t = exec.span().time("windows");
        run_windows(
            &txns,
            &tnet_data::binning::BinScheme::paper_defaults(),
            &TemporalOptions::default(),
            &cfg,
            &exec,
        )
        .map_err(|e| match e {
            tnet_temporal::TemporalRunError::Partition(p) => {
                CliError::Runtime(format!("temporal partition: {p}"))
            }
            tnet_temporal::TemporalRunError::Mine(m) => {
                CliError::Runtime(format!("window mining: {m}"))
            }
        })?
    };
    outln!(
        "{} windows over {} {} units ({} graph transactions, width {width}, slide {slide})",
        run.windows.len(),
        run.units,
        granularity.name(),
        run.total_txns,
    );
    for (i, w) in run.windows.iter().enumerate() {
        outln!(
            "  window {i:>3}  units [{:>4}, {:>4})  {:>5} txns  {:>5} patterns",
            w.unit_lo,
            w.unit_hi,
            w.txn_hi - w.txn_lo,
            w.output.patterns.len()
        );
    }
    if let Some(o) = &obs {
        run.record_into(o.registry());
    }

    if flow {
        let fcfg = FlowConfig::default();
        let report = {
            let _t = exec.span().time("flow_detect");
            detect_flows(&txns, &spec, &fcfg)
        };
        outln!(
            "flow patterns: {} path flows, {} hub surges, {} deadhead cycles, \
             {} air-freight outliers",
            report.flows.len(),
            report.surges.len(),
            report.cycles.len(),
            report.outliers.len()
        );
        for f in report.flows.iter().take(3) {
            outln!(
                "  flow  window {:>3}  {} hops  bottleneck {:>9.0} lb",
                f.window_lo,
                f.path.len() - 1,
                f.value
            );
        }
        for c in report.cycles.iter().take(3) {
            outln!("  cycle {} stops, windows {:?}", c.locs.len(), c.windows);
        }
        // Attribution against planted structure is only meaningful for
        // the synthetic generator (CSV inputs have no ground truth).
        if args.get("input").is_none() {
            let scale = fraction_arg(args, "scale", 0.02)?;
            let seed: u64 = args.get_parsed_or("seed", 42)?;
            let ds = tnet_data::synth::generate(
                &tnet_data::synth::SynthConfig::scaled(scale).with_seed(seed),
            );
            let attr = attribute(&report, &ds, &fcfg);
            outln!(
                "planted structure surfaced at {} granularity: \
                 hubs {}/{}, cycles {}/{}, air outliers {}/{}",
                granularity.name(),
                attr.hubs_surfaced,
                attr.hubs_planted,
                attr.cycles_surfaced,
                attr.cycles_planted,
                attr.outliers_found,
                attr.outliers_planted
            );
        }
    }

    // Union of per-window patterns by iso class: support is the max
    // over windows, repetitions the number of windows it was frequent
    // in. Feeds the same maximal/top-N/dot tail as `tnet mine`.
    let mut merged: IsoClassMap<(usize, usize)> = IsoClassMap::new();
    for w in &run.windows {
        for p in &w.output.patterns {
            let e = merged.entry_or_insert_with(&p.graph, || (0, 0));
            e.0 = e.0.max(p.support);
            e.1 += 1;
        }
    }
    let patterns: Vec<SingleGraphPattern> = merged
        .iter()
        .map(|(g, &(support, windows))| SingleGraphPattern {
            pattern: g.clone(),
            support,
            repetitions_seen: windows,
        })
        .collect();
    outln!("{} distinct patterns across all windows", patterns.len());
    report_patterns(patterns, maximal, top, args.get("dot-dir"))?;
    eprintln!("[exec] {} threads: {}", exec.threads(), exec.counters());
    drop(total);
    if let Some(o) = &obs {
        o.finish(&exec)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_on_synthetic() {
        let argv: Vec<String> = ["temporal", "--scale", "0.02", "--budget-mb", "64"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&Args::parse(&argv).unwrap()).unwrap();
    }

    #[test]
    fn windowed_mode_runs_at_each_granularity() {
        for gran in ["hour", "day", "week"] {
            let argv: Vec<String> = [
                "temporal",
                "--scale",
                "0.01",
                "--granularity",
                gran,
                "--window",
                "3",
                "--slide",
                "1",
                "--support",
                "3",
                "--max-edges",
                "2",
                "--flow",
                "true",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            run(&Args::parse(&argv).unwrap()).unwrap();
        }
    }

    #[test]
    fn windowed_mode_rejects_bad_flags() {
        for bad in [
            vec!["temporal", "--scale", "0.01", "--granularity", "month"],
            vec![
                "temporal",
                "--scale",
                "0.01",
                "--granularity",
                "day",
                "--window",
                "0",
            ],
        ] {
            let argv: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let e = run(&Args::parse(&argv).unwrap()).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{e}");
        }
    }
}
