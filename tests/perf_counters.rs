//! Perf-counter regression gates for propagated support counting.
//!
//! The bench harness (`cargo run --release -p tnet-bench --bin
//! bench_miners`) reports wall-clock, but wall-clock is too noisy to
//! gate CI on. These tests pin the *deterministic* counters on the bench
//! suite's default workload instead: if a change reintroduces scratch
//! VF2 searches where propagation should serve, `iso_tests` jumps well
//! past the gate and this fails long before anyone reads a timing chart.

use tnet_core::pipeline::Pipeline;
use tnet_data::od_graph::{EdgeLabeling, VertexLabeling};
use tnet_fsg::{mine, FsgConfig, Support};
use tnet_graph::graph::Graph;
use tnet_graph::rng::StdRng;
use tnet_partition::split::{split_graph, Strategy};

/// Matches `FSG_DEFAULT_ISO_GATE` in the bench_miners binary: the
/// scratch-VF2 count on this workload is 579, propagation measures 20,
/// and the gate sits at the 5x-drop mark the optimization promises.
const ISO_GATE: usize = 116;

/// The bench suite's default workload: synthetic OD graph, deduped,
/// split into 10 breadth-first transactions. Seeds are fixed so the
/// counters below are exact, not statistical.
fn default_workload() -> Vec<Graph> {
    let p = Pipeline::synthetic(0.015, 42);
    let od = p.od_graph(EdgeLabeling::GrossWeight, VertexLabeling::Uniform);
    let mut g = od.graph;
    g.dedup_edges();
    let mut rng = StdRng::seed_from_u64(4);
    split_graph(&g, 10, Strategy::BreadthFirst, &mut rng)
}

fn fsg_cfg(cap: usize) -> FsgConfig {
    FsgConfig::default()
        .with_support(Support::Count(4))
        .with_max_edges(4)
        .with_embedding_cap(cap)
}

#[test]
fn fsg_iso_tests_stay_under_gate() {
    let txns = default_workload();
    let out = mine(&txns, &fsg_cfg(FsgConfig::default().embedding_cap)).unwrap();
    assert_eq!(
        out.patterns.len(),
        62,
        "workload drifted — re-derive the gate"
    );
    assert!(
        out.stats.iso_tests <= ISO_GATE,
        "iso_tests regressed: {} > {} (scratch counts ~579 here)",
        out.stats.iso_tests,
        ISO_GATE
    );
    assert!(
        out.stats.embeddings_extended > 0,
        "propagation did no work — support counting fell back to scratch"
    );
}

#[test]
fn fsg_propagated_matches_scratch() {
    let txns = default_workload();
    let scratch = mine(&txns, &fsg_cfg(0)).unwrap();
    // 256 is the default cap; 2 forces the truncation/spill path on
    // nearly every pattern, exercising inexact-seed re-verification.
    for cap in [256usize, 2] {
        let prop = mine(&txns, &fsg_cfg(cap)).unwrap();
        assert_eq!(prop.patterns.len(), scratch.patterns.len(), "cap {cap}");
        for (a, b) in prop.patterns.iter().zip(&scratch.patterns) {
            assert_eq!(a.tids, b.tids, "cap {cap}");
            assert_eq!(a.support, b.support, "cap {cap}");
            assert!(
                tnet_graph::iso::are_isomorphic(&a.graph, &b.graph),
                "cap {cap}: pattern mismatch"
            );
        }
    }
    let tiny = mine(&txns, &fsg_cfg(2)).unwrap();
    assert!(
        tiny.stats.embeddings_spilled > 0,
        "cap 2 should overflow some embedding lists"
    );
}
