//! `tnet mine` — frequent-pattern mining on the OD graph via Algorithm 1
//! (partition + FSG), with shape classification and optional
//! maximal filtering.

use crate::args::{ArgError, Args};
use crate::commands::{load_transactions, obs_context, parse_labeling};
use crate::error::CliError;
use std::sync::atomic::{AtomicUsize, Ordering};
use tnet_data::binning::BinScheme;
use tnet_data::od_graph::{build_od_graph, VertexLabeling};
use tnet_fsg::{mine_with, FsgConfig, NbhdConfig, Support};
use tnet_graph::frozen::FrozenStats;
use tnet_partition::single_graph::{mine_single_graph, SingleGraphPattern};
use tnet_partition::split::Strategy;

pub fn run(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&[
        "input",
        "scale",
        "seed",
        "mode",
        "radius",
        "labeling",
        "strategy",
        "partitions",
        "support",
        "max-edges",
        "reps",
        "top",
        "maximal",
        "dot-dir",
        "threads",
        "verbose",
        "trace",
        "trace-json",
    ])?;
    let obs = obs_context(args);
    let mut exec = args.exec()?;
    if let Some(o) = &obs {
        exec = o.attach(&exec);
    }
    // Times the root node (total command wall); must drop before
    // `ObsContext::finish` snapshots the tree.
    let total = exec.span().timer();
    let txns = {
        let _t = exec.span().time("ingest");
        load_transactions(args)?
    };
    let labeling = parse_labeling(args.get_or("labeling", "gw"))?;
    let strategy = match args.get_or("strategy", "bf") {
        "bf" | "breadth" => Strategy::BreadthFirst,
        "df" | "depth" => Strategy::DepthFirst,
        other => return Err(ArgError(format!("unknown strategy '{other}' (bf|df)")).into()),
    };
    let mode = args.get_or("mode", "partition");
    if !matches!(mode, "partition" | "neighborhood") {
        return Err(ArgError(format!("unknown mode '{mode}' (partition|neighborhood)")).into());
    }
    let radius: usize = args.get_parsed_or("radius", 1)?;
    if radius == 0 {
        return Err(ArgError("--radius must be at least 1".into()).into());
    }
    let partitions: usize = args.get_parsed_or("partitions", 16)?;
    if partitions == 0 {
        return Err(ArgError("--partitions must be at least 1".into()).into());
    }
    let support: usize = args.get_parsed_or("support", 5)?;
    let max_edges: usize = args.get_parsed_or("max-edges", 5)?;
    let reps: usize = args.get_parsed_or("reps", 2)?;
    if reps == 0 {
        return Err(ArgError("--reps must be at least 1".into()).into());
    }
    let top: usize = args.get_parsed_or("top", 15)?;
    let maximal = args.get_or("maximal", "false") == "true";
    let verbose = args.get_or("verbose", "false") == "true";

    let scheme = {
        let _t = exec.span().time("binning");
        BinScheme::fit_width_transactions(&txns)?
    };
    let od = {
        let _t = exec.span().time("build_od_graph");
        build_od_graph(&txns, &scheme, labeling, VertexLabeling::Uniform)
    };
    let mut g = od.graph;
    g.dedup_edges();
    outln!(
        "{} graph: {} vertices, {} edges (deduplicated)",
        labeling.name(),
        g.vertex_count(),
        g.edge_count()
    );

    // Frozen-graph counters are process-global; the delta around the
    // mining call isolates this command's freezes and CSR lookups.
    let frozen_before = FrozenStats::snapshot();
    let patterns: Vec<SingleGraphPattern> = if mode == "neighborhood" {
        let cfg = NbhdConfig::default()
            .with_radius(radius)
            .with_support(Support::Count(support))
            .with_max_edges(max_edges);
        let out = tnet_fsg::mine_neighborhoods(&g, &cfg, &exec)
            .map_err(|e| CliError::Runtime(format!("neighborhood mining failed: {e}")))?;
        outln!(
            "{} frequent neighborhood patterns (radius {radius}, support {support}, \
             {} centers)",
            out.patterns.len(),
            out.stats.centers
        );
        if verbose {
            outln!(
                "pattern classes: {} iso-class checks",
                out.stats.iso_class_checks
            );
            outln!(
                "support counting: {} iso tests, {} embeddings extended, {} spilled",
                out.stats.iso_tests,
                out.stats.embeddings_extended,
                out.stats.embeddings_spilled,
            );
            outln!(
                "neighborhood index: {} centers, {} member slots, {} edge slots, \
                 {} peak SoA embedding bytes",
                out.stats.centers,
                out.stats.index_members,
                out.stats.index_edges,
                out.stats.soa_bytes,
            );
        }
        out.patterns
            .into_iter()
            .map(|p| SingleGraphPattern {
                pattern: p.graph,
                support: p.support,
                repetitions_seen: 1,
            })
            .collect()
    } else {
        let cfg = FsgConfig::default()
            .with_support(Support::Count(support))
            .with_max_edges(max_edges)
            .with_memory_budget(512 << 20);
        // Accumulated across repetitions (the miner closure runs on pool
        // workers, hence atomics).
        let iso_class_checks = AtomicUsize::new(0);
        let iso_tests = AtomicUsize::new(0);
        let embeddings_extended = AtomicUsize::new(0);
        let embeddings_spilled = AtomicUsize::new(0);
        let tid_skips = AtomicUsize::new(0);
        let bitset_intersections = AtomicUsize::new(0);
        let soa_bytes = AtomicUsize::new(0);
        let patterns =
            mine_single_graph(
                &g,
                partitions,
                reps,
                strategy,
                42,
                &exec,
                |t, e| match mine_with(t, &cfg, e) {
                    Ok(out) => {
                        iso_class_checks.fetch_add(out.stats.iso_class_checks, Ordering::Relaxed);
                        iso_tests.fetch_add(out.stats.iso_tests, Ordering::Relaxed);
                        embeddings_extended
                            .fetch_add(out.stats.embeddings_extended, Ordering::Relaxed);
                        embeddings_spilled
                            .fetch_add(out.stats.embeddings_spilled, Ordering::Relaxed);
                        tid_skips.fetch_add(out.stats.tid_intersection_skips, Ordering::Relaxed);
                        bitset_intersections
                            .fetch_add(out.stats.bitset_intersections, Ordering::Relaxed);
                        soa_bytes.fetch_max(out.stats.soa_bytes, Ordering::Relaxed);
                        out.patterns
                            .into_iter()
                            .map(|p| (p.graph, p.support))
                            .collect()
                    }
                    Err(_) => Vec::new(),
                },
            );
        outln!(
            "{} frequent patterns ({} partitioning, {} partitions, support {support})",
            patterns.len(),
            strategy.name(),
            partitions
        );
        if verbose {
            outln!(
                "pattern classes: {} iso-class checks",
                iso_class_checks.load(Ordering::Relaxed)
            );
            outln!(
                "support counting: {} iso tests, {} embeddings extended, {} spilled, \
                 {} transactions skipped by TID intersection",
                iso_tests.load(Ordering::Relaxed),
                embeddings_extended.load(Ordering::Relaxed),
                embeddings_spilled.load(Ordering::Relaxed),
                tid_skips.load(Ordering::Relaxed),
            );
            outln!(
                "data layout: {} bitset intersections, {} peak SoA embedding bytes",
                bitset_intersections.load(Ordering::Relaxed),
                soa_bytes.load(Ordering::Relaxed),
            );
        }
        patterns
    };
    let frozen_delta = FrozenStats::snapshot().since(&frozen_before);
    if let Some(o) = &obs {
        frozen_delta.publish(&mut |name, v| o.registry().add(name, v));
    }
    if verbose {
        outln!(
            "frozen graphs: {} freezes, {} CSR bytes, {} adjacency binary searches",
            frozen_delta.freeze_count,
            frozen_delta.csr_bytes,
            frozen_delta.adj_binary_searches,
        );
    }
    crate::commands::report_patterns(patterns, maximal, top, args.get("dot-dir"))?;
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
    fn mines_synthetic() {
        let argv: Vec<String> = [
            "mine",
            "--scale",
            "0.01",
            "--partitions",
            "6",
            "--support",
            "3",
            "--max-edges",
            "3",
            "--reps",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&Args::parse(&argv).unwrap()).unwrap();
    }

    #[test]
    fn rejects_bad_strategy() {
        let argv: Vec<String> = ["mine", "--scale", "0.01", "--strategy", "zz"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&Args::parse(&argv).unwrap()).is_err());
    }

    #[test]
    fn mines_neighborhood_mode() {
        let argv: Vec<String> = [
            "mine",
            "--scale",
            "0.01",
            "--mode",
            "neighborhood",
            "--radius",
            "1",
            "--support",
            "3",
            "--max-edges",
            "3",
            "--verbose",
            "true",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&Args::parse(&argv).unwrap()).unwrap();
    }

    #[test]
    fn rejects_bad_mode_and_zero_radius() {
        for bad in [
            vec!["mine", "--scale", "0.01", "--mode", "zz"],
            vec![
                "mine",
                "--scale",
                "0.01",
                "--mode",
                "neighborhood",
                "--radius",
                "0",
            ],
        ] {
            let argv: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let e = run(&Args::parse(&argv).unwrap()).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{e}");
        }
    }
}
