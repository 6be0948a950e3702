//! The tnet-exec contract: parallel output is byte-identical to
//! sequential output at every thread count, and a `MemoryBudget` abort
//! cancels the whole pool promptly.

use tnet_core::pipeline::Pipeline;
use tnet_core::to_table::transactions_to_table;
use tnet_data::od_graph::{EdgeLabeling, VertexLabeling};
use tnet_exec::Exec;
use tnet_fsg::{mine, mine_for_algorithm1_with, mine_with, FsgConfig, FsgError, Support};
use tnet_graph::graph::Graph;
use tnet_graph::rng::StdRng;
use tnet_gspan::{mine_dfs, mine_dfs_with, GspanConfig};
use tnet_partition::single_graph::mine_single_graph;
use tnet_partition::split::{split_graph, Strategy};
use tnet_tabular::em::{fit, fit_with, EmConfig};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn graph_transactions() -> Vec<Graph> {
    let p = Pipeline::synthetic(0.015, 42);
    let od = p.od_graph(EdgeLabeling::GrossWeight, VertexLabeling::Uniform);
    let mut g = od.graph;
    g.dedup_edges();
    let mut rng = StdRng::seed_from_u64(4);
    split_graph(&g, 10, Strategy::BreadthFirst, &mut rng)
}

#[test]
fn fsg_output_identical_at_any_thread_count() {
    let txns = graph_transactions();
    let cfg = FsgConfig::default()
        .with_support(Support::Count(4))
        .with_max_edges(4);
    let baseline = mine(&txns, &cfg).unwrap();
    let render = |out: &tnet_fsg::FsgOutput| -> String {
        out.patterns
            .iter()
            .map(|p| format!("{:?} support={} tids={:?}\n", p.graph, p.support, p.tids))
            .collect()
    };
    for threads in THREAD_COUNTS {
        let out = mine_with(&txns, &cfg, &Exec::new(threads)).unwrap();
        assert_eq!(
            render(&out),
            render(&baseline),
            "FSG output diverged at {threads} threads"
        );
        assert_eq!(out.stats.iso_tests, baseline.stats.iso_tests);
        assert_eq!(out.stats.iso_nodes, baseline.stats.iso_nodes);
        assert_eq!(out.stats.iso_nodes_max, baseline.stats.iso_nodes_max);
        assert_eq!(out.stats.closure_pruned, baseline.stats.closure_pruned);
    }
    assert!(
        baseline.stats.iso_nodes > 0,
        "the workload runs no scratch VF2, so the search-node counters go unchecked"
    );
}

#[test]
fn gspan_output_identical_at_any_thread_count() {
    let txns = graph_transactions();
    let cfg = GspanConfig {
        min_support: Support::Count(4),
        max_edges: 4,
        ..Default::default()
    };
    let baseline = mine_dfs(&txns, &cfg).unwrap();
    let render = |out: &tnet_gspan::GspanOutput| -> String {
        out.patterns
            .iter()
            .map(|p| format!("{:?} support={} tids={:?}\n", p.graph, p.support, p.tids))
            .collect()
    };
    for threads in THREAD_COUNTS {
        let out = mine_dfs_with(&txns, &cfg, &Exec::new(threads)).unwrap();
        assert_eq!(
            render(&out),
            render(&baseline),
            "gSpan output diverged at {threads} threads"
        );
    }
}

/// The frozen-CSR snapshot is a pure representation change: every miner
/// must produce byte-identical output whether it traverses the arena
/// builder directly (the generic cores on `&txns[..]` / `&g`) or the
/// frozen TxnSet / FrozenGraph (the `*_with` default). Patterns,
/// supports, TID lists, instance ids, and counters all have to line up.
#[test]
fn frozen_and_arena_miners_agree() {
    let txns = graph_transactions();
    let exec = Exec::sequential();

    let fsg_cfg = FsgConfig::default()
        .with_support(Support::Count(4))
        .with_max_edges(4);
    let render_fsg = |out: &tnet_fsg::FsgOutput| -> String {
        out.patterns
            .iter()
            .map(|p| format!("{:?} support={} tids={:?}\n", p.graph, p.support, p.tids))
            .collect()
    };
    let frozen = mine_with(&txns, &fsg_cfg, &exec).unwrap();
    let arena = tnet_fsg::mine_source(&txns[..], &fsg_cfg, &exec).unwrap();
    assert_eq!(
        render_fsg(&frozen),
        render_fsg(&arena),
        "FSG frozen vs arena diverged"
    );
    assert_eq!(frozen.stats.iso_tests, arena.stats.iso_tests);

    let gspan_cfg = GspanConfig {
        min_support: Support::Count(4),
        max_edges: 4,
        ..Default::default()
    };
    let render_gspan = |out: &tnet_gspan::GspanOutput| -> String {
        out.patterns
            .iter()
            .map(|p| format!("{:?} support={} tids={:?}\n", p.graph, p.support, p.tids))
            .collect()
    };
    let gf = mine_dfs_with(&txns, &gspan_cfg, &exec).unwrap();
    let ga = tnet_gspan::mine_dfs_source(&txns[..], &gspan_cfg, &exec).unwrap();
    assert_eq!(
        render_gspan(&gf),
        render_gspan(&ga),
        "gSpan frozen vs arena diverged"
    );

    // SUBDUE mines a single graph; instance ids must come back in the
    // caller's arena id space (discover_with remaps through the frozen
    // snapshot's orig maps).
    let p = Pipeline::synthetic(0.015, 42);
    let scheme = tnet_data::binning::BinScheme::fit_width_transactions(p.transactions()).unwrap();
    let g = tnet_core::experiments::structural::truncated_structural_graph(
        p.transactions(),
        &scheme,
        EdgeLabeling::GrossWeight,
        25,
    );
    let sub_cfg = tnet_subdue::SubdueConfig {
        max_size: 6,
        ..Default::default()
    };
    let render_sub = |out: &tnet_subdue::SubdueOutput| -> String {
        out.best
            .iter()
            .map(|s| {
                let inst: Vec<_> = s
                    .instances
                    .iter()
                    .map(|i| (i.vertices.clone(), i.edges.clone(), i.map.clone()))
                    .collect();
                format!("{:?} value={:.9} inst={inst:?}\n", s.pattern, s.value)
            })
            .collect()
    };
    let sf = tnet_subdue::discover_with(&g, &sub_cfg, &exec).unwrap();
    let sa = tnet_subdue::discover_core(&g, &sub_cfg, &exec).unwrap();
    assert_eq!(
        render_sub(&sf),
        render_sub(&sa),
        "SUBDUE frozen vs arena diverged"
    );
}

#[test]
fn partition_mining_identical_at_any_thread_count() {
    let p = Pipeline::synthetic(0.012, 42);
    let od = p.od_graph(EdgeLabeling::GrossWeight, VertexLabeling::Uniform);
    let mut g = od.graph;
    g.dedup_edges();
    let cfg = FsgConfig::default()
        .with_support(Support::Count(4))
        .with_max_edges(3);
    let run = |threads: usize| -> String {
        mine_single_graph(
            &g,
            8,
            3,
            Strategy::BreadthFirst,
            7,
            &Exec::new(threads),
            |t, e| mine_for_algorithm1_with(t, &cfg, e),
        )
        .iter()
        .map(|p| {
            format!(
                "{:?} support={} reps={}\n",
                p.pattern, p.support, p.repetitions_seen
            )
        })
        .collect()
    };
    let baseline = run(1);
    assert!(!baseline.is_empty());
    for threads in THREAD_COUNTS {
        assert_eq!(
            run(threads),
            baseline,
            "partition mining diverged at {threads} threads"
        );
    }
}

#[test]
fn em_bitwise_identical_at_any_thread_count() {
    let p = Pipeline::synthetic(0.01, 42);
    let table = transactions_to_table(p.transactions());
    let cfg = EmConfig {
        clusters: 4,
        seed: 3,
        ..Default::default()
    };
    let baseline = fit(&table, &cfg).unwrap();
    // Float addition is non-associative, so bit equality here proves the
    // parallel E-step folds in exactly the sequential order.
    let bits = |m: &tnet_tabular::em::EmModel| {
        (
            m.log_likelihood.to_bits(),
            m.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            m.means
                .iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            m.variances
                .iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            m.assignments.clone(),
        )
    };
    for threads in THREAD_COUNTS {
        let out = fit_with(&table, &cfg, &Exec::new(threads)).unwrap();
        assert_eq!(
            bits(&out),
            bits(&baseline),
            "EM diverged at {threads} threads"
        );
    }
}

/// The report quotes wall-clock runtimes (E2's scaling table, the E5
/// sweep), which differ between *any* two runs. Everything else — every
/// pattern count, support, shape, and probability — must be identical,
/// so scrub duration tokens and compare the rest byte-for-byte.
fn scrub_durations(report: &str) -> String {
    report
        .lines()
        .map(|line| {
            line.split_whitespace()
                .map(|tok| {
                    let t = tok.trim_matches(|c| c == '(' || c == ')');
                    let is_duration = ["ns", "\u{b5}s", "ms", "s"].iter().any(|unit| {
                        t.strip_suffix(unit)
                            .is_some_and(|num| num.parse::<f64>().is_ok())
                    });
                    if is_duration {
                        "[time]"
                    } else {
                        tok
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn full_report_identical_at_any_thread_count() {
    let p = Pipeline::synthetic(0.008, 42);
    let baseline = scrub_durations(&p.full_report_with(0.008, 42, &Exec::sequential()));
    let parallel = scrub_durations(&p.full_report_with(0.008, 42, &Exec::new(4)));
    assert_eq!(baseline, parallel, "report text must not depend on threads");
}

#[test]
fn memory_budget_abort_cancels_the_pool() {
    // Unfiltered temporal-style transactions with a tiny budget: FSG must
    // abort, and the abort must cancel the Exec handle it ran on so
    // sibling work sharing that token stops claiming items.
    let txns = graph_transactions();
    let cfg = FsgConfig::default()
        .with_support(Support::Count(2))
        .with_max_edges(6)
        .with_memory_budget(4 * 1024);
    let exec = Exec::new(2);
    let miner = exec.child();
    let err = mine_with(&txns, &cfg, &miner).unwrap_err();
    assert!(
        matches!(err, FsgError::MemoryBudgetExceeded { .. }),
        "expected a budget abort, got {err:?}"
    );
    assert!(miner.is_cancelled(), "abort must cancel the miner's handle");
    assert!(
        !exec.is_cancelled(),
        "a child abort must not wedge the parent pool"
    );

    // The cancelled handle refuses further mining work immediately.
    let retry = mine_with(&txns, &FsgConfig::default(), &miner).unwrap_err();
    assert!(matches!(retry, FsgError::Cancelled), "got {retry:?}");

    // And its try_par_map stops claiming: no item runs after cancellation.
    let items: Vec<u32> = (0..1000).collect();
    assert!(miner.try_par_map(&items, |&x| x * 2).is_err());

    // The parent pool is still fully usable.
    let doubled = exec.try_par_map(&items, |&x| x * 2).unwrap();
    assert_eq!(doubled[999], 1998);
}

/// The E5 acceptance check: the partition sweep at 4 threads must be at
/// least ~2x faster than sequential. Meaningless on boxes without the
/// hardware, so it self-skips below 4 available threads (CI machines
/// assert; a laptop running the suite under load is not a referee).
#[test]
fn partition_sweep_speedup_at_four_threads() {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    if hw < 4 {
        eprintln!("skipping speedup check: only {hw} hardware threads");
        return;
    }
    let p = Pipeline::synthetic(0.02, 42);
    let od = p.od_graph(EdgeLabeling::GrossWeight, VertexLabeling::Uniform);
    let mut g = od.graph;
    g.dedup_edges();
    let cfg = FsgConfig::default()
        .with_support(Support::Count(3))
        .with_max_edges(5);
    let sweep = |exec: &Exec| {
        for k in [6usize, 12, 18, 24] {
            mine_single_graph(&g, k, 2, Strategy::BreadthFirst, 1, exec, |t, e| {
                mine_for_algorithm1_with(t, &cfg, e)
            });
        }
    };
    let time = |exec: &Exec| {
        let start = std::time::Instant::now();
        sweep(exec);
        start.elapsed()
    };
    sweep(&Exec::sequential()); // warm-up
    let seq = time(&Exec::sequential());
    let par = time(&Exec::new(4));
    assert!(
        par.as_secs_f64() * 2.0 <= seq.as_secs_f64(),
        "expected >=2x speedup at 4 threads: sequential {seq:?}, parallel {par:?}"
    );
}
