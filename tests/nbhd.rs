//! Differential suite for the r-hop neighborhood miner: byte-identical
//! output at every thread count, agreement with partition+FSG on
//! workloads where the two support definitions provably coincide (the
//! radius covers each component, so a center's neighborhood is exactly
//! its component), and agreement with FSG over every neighborhood copied
//! out as a plain graph.

use tnet_core::pipeline::Pipeline;
use tnet_data::od_graph::{EdgeLabeling, VertexLabeling};
use tnet_exec::Exec;
use tnet_fsg::{mine, mine_neighborhoods, FsgConfig, NbhdConfig, NbhdIndex, NbhdOutput, Support};
use tnet_graph::canon::IsoClassMap;
use tnet_graph::generate::shapes;
use tnet_graph::graph::{EdgeId, Graph};
use tnet_graph::iso::are_isomorphic;
use tnet_graph::view::{edge_subgraph, GraphView};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn od_graph() -> Graph {
    let p = Pipeline::synthetic(0.015, 42);
    let od = p.od_graph(EdgeLabeling::GrossWeight, VertexLabeling::Uniform);
    let mut g = od.graph;
    g.dedup_edges();
    g
}

fn render(out: &NbhdOutput) -> String {
    out.patterns
        .iter()
        .map(|p| {
            format!(
                "{:?} support={} centers={:?}\n",
                p.graph, p.support, p.centers
            )
        })
        .collect()
}

#[test]
fn neighborhood_output_identical_at_any_thread_count() {
    let g = od_graph();
    let cfg = NbhdConfig::default()
        .with_radius(1)
        .with_support(Support::Count(3))
        .with_max_edges(3);
    let baseline = mine_neighborhoods(&g, &cfg, &Exec::new(1)).unwrap();
    assert!(
        !baseline.patterns.is_empty(),
        "calibrated OD graph must yield neighborhood patterns"
    );
    for threads in THREAD_COUNTS {
        let out = mine_neighborhoods(&g, &cfg, &Exec::new(threads)).unwrap();
        assert_eq!(
            render(&out),
            render(&baseline),
            "neighborhood output diverged at {threads} threads"
        );
        // The counters are folded in candidate order, so they are
        // scheduling-independent too.
        assert_eq!(out.stats.iso_tests, baseline.stats.iso_tests);
        assert_eq!(
            out.stats.fingerprint_rejects,
            baseline.stats.fingerprint_rejects
        );
        assert_eq!(
            out.stats.candidates_per_level,
            baseline.stats.candidates_per_level
        );
        assert_eq!(
            out.stats.frequent_per_level,
            baseline.stats.frequent_per_level
        );
    }
}

#[test]
fn radius_two_is_deterministic_across_threads() {
    let g = od_graph();
    let cfg = NbhdConfig::default()
        .with_radius(2)
        .with_support(Support::Count(5))
        .with_max_edges(2);
    let baseline = mine_neighborhoods(&g, &cfg, &Exec::new(1)).unwrap();
    for threads in THREAD_COUNTS {
        let out = mine_neighborhoods(&g, &cfg, &Exec::new(threads)).unwrap();
        assert_eq!(
            render(&out),
            render(&baseline),
            "radius-2 output diverged at {threads} threads"
        );
    }
}

/// Disjoint union of labeled components, vertices renumbered densely.
fn union_of(components: &[Graph]) -> Graph {
    let mut g = Graph::new();
    for c in components {
        let mut map = std::collections::HashMap::new();
        for v in c.vertices() {
            map.insert(v, g.add_vertex(c.vertex_label(v)));
        }
        for e in c.edges() {
            let (s, d, l) = c.edge(e);
            g.add_edge(map[&s], map[&d], l);
        }
    }
    g
}

/// Where the support definitions provably coincide: the graph is a
/// disjoint union of components with the SAME vertex count `s`, and the
/// radius covers every component (each center's r-hop neighborhood is
/// exactly its component). Then a pattern's neighborhood support is
/// `s ×` its FSG transaction support over the components-as-transactions
/// workload, so the frequent sets agree at
/// `min_support_nbhd = s × min_support_fsg`.
#[test]
fn agreement_with_fsg_when_radius_covers_each_component() {
    // Five components, 4 vertices each: three 4-cycles, two 3-chains.
    let cycle = shapes::cycle(4, 0, 1);
    let chain = shapes::chain(3, 0, 2);
    let components = vec![
        cycle.clone(),
        cycle.clone(),
        cycle.clone(),
        chain.clone(),
        chain.clone(),
    ];
    let vertices_per_component = 4;
    let fsg_support = 2;

    let fsg_out = mine(
        &components,
        &FsgConfig::default()
            .with_support(Support::Count(fsg_support))
            .with_max_edges(4),
    )
    .unwrap();

    let g = union_of(&components);
    let nbhd_out = mine_neighborhoods(
        &g,
        &NbhdConfig::default()
            .with_radius(4) // ≥ every component's undirected diameter
            .with_support(Support::Count(vertices_per_component * fsg_support))
            .with_max_edges(4),
        &Exec::new(2),
    )
    .unwrap();

    assert!(!fsg_out.patterns.is_empty());
    assert_eq!(
        fsg_out.patterns.len(),
        nbhd_out.patterns.len(),
        "frequent sets must coincide:\nfsg: {:?}\nnbhd: {:?}",
        fsg_out
            .patterns
            .iter()
            .map(|p| (p.graph.edge_count(), p.support))
            .collect::<Vec<_>>(),
        nbhd_out
            .patterns
            .iter()
            .map(|p| (p.graph.edge_count(), p.support))
            .collect::<Vec<_>>(),
    );
    for fp in &fsg_out.patterns {
        let np = nbhd_out
            .patterns
            .iter()
            .find(|np| are_isomorphic(&np.graph, &fp.graph))
            .unwrap_or_else(|| panic!("FSG pattern missing from neighborhood set: {:?}", fp.graph));
        assert_eq!(
            np.support,
            vertices_per_component * fp.support,
            "support scaling violated for {:?}",
            fp.graph
        );
    }
}

/// The oracle: every center's neighborhood copied out as an ordinary
/// arena graph (transaction *i* = center *i*) and mined by plain FSG.
/// Supports and center lists must equal the neighborhood miner's, which
/// reads the same neighborhoods through `NbhdView` over the shared CSR.
#[test]
fn matches_fsg_over_neighborhoods_copied_out_as_graphs() {
    let g = od_graph();
    let frozen = g.freeze();
    let fg = frozen.view();
    let exec = Exec::new(2);
    for radius in [1, 2] {
        let index = NbhdIndex::build(fg, radius, &exec);
        let txns: Vec<Graph> = (0..index.centers())
            .map(|c| {
                let view = index.view(fg, c);
                let edges: Vec<EdgeId> = GraphView::edges(&view).collect();
                edge_subgraph(&view, &edges).0
            })
            .collect();
        for cap in [256, 1, 0] {
            let nbhd = mine_neighborhoods(
                &g,
                &NbhdConfig::default()
                    .with_radius(radius)
                    .with_support(Support::Count(5))
                    .with_max_edges(3)
                    .with_embedding_cap(cap),
                &exec,
            )
            .unwrap();
            let fsg = mine(
                &txns,
                &FsgConfig::default()
                    .with_support(Support::Count(5))
                    .with_max_edges(3)
                    .with_embedding_cap(cap),
            )
            .unwrap();
            assert!(!nbhd.patterns.is_empty(), "radius {radius}, cap {cap}");
            assert_eq!(
                nbhd.patterns.len(),
                fsg.patterns.len(),
                "radius {radius}, cap {cap}"
            );
            let mut oracle: IsoClassMap<(usize, Vec<u32>)> = IsoClassMap::new();
            for p in fsg.patterns {
                oracle.insert(p.graph, (p.support, p.tids));
            }
            for p in &nbhd.patterns {
                let (support, tids) = oracle.get(&p.graph).unwrap_or_else(|| {
                    panic!("radius {radius}, cap {cap}: no FSG match for {:?}", p.graph)
                });
                assert_eq!(p.support, *support, "radius {radius}, cap {cap}");
                assert_eq!(&p.centers, tids, "radius {radius}, cap {cap}");
            }
        }
    }
}
