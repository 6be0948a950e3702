//! Seeded property tests for SUBDUE: discovered substructures must be
//! real (instances actually realize the pattern), disjoint instance sets
//! must be disjoint, and compression must conserve the untouched part of
//! the graph. SUBDUE groups instance extensions by iso class, so these
//! also cover its `IsoClassMap` use on graphs of up to 8 vertices and 14
//! edges, self-loops and parallel edges included.
//!
//! Each property runs a fixed first case and then [`CASES`] random ones
//! from its own seeded [`StdRng`], so a failure reproduces identically;
//! assertion messages name the failing case.

use std::collections::HashSet;
use tnet_graph::graph::{ELabel, Graph, VLabel, VertexId};
use tnet_graph::iso::has_embedding;
use tnet_graph::rng::{Rng, StdRng};
use tnet_subdue::{compress, discover, EvalMethod, SubdueConfig};

/// Random cases per property.
const CASES: usize = 32;

/// A generated edge: (src index, dst index, edge label).
type RawEdge = (usize, usize, u32);

/// A generated graph: (vertex labels, edges).
type RawGraph = (Vec<u32>, Vec<RawEdge>);

/// A random labeled digraph: `2..=max_v` vertices over two labels and
/// `1..=max_e` edges over three. Endpoints are drawn independently, so
/// self-loops and parallel edges occur.
fn raw_graph(rng: &mut StdRng, max_v: usize, max_e: usize) -> RawGraph {
    let nv = rng.gen_range(2..=max_v);
    let vlabels = (0..nv).map(|_| rng.gen_range(0..2u32)).collect();
    let ne = rng.gen_range(1..=max_e);
    let edges = (0..ne)
        .map(|_| {
            (
                rng.gen_range(0..nv),
                rng.gen_range(0..nv),
                rng.gen_range(0..3u32),
            )
        })
        .collect();
    (vlabels, edges)
}

/// The cases of one property: two vertices carrying three self-loops,
/// which once shrank out of a failing random case, then [`CASES`] graphs
/// of up to 8 vertices and 14 edges.
fn cases(rng: &mut StdRng) -> Vec<RawGraph> {
    let mut out = vec![(vec![1, 1], vec![(1, 1, 0), (1, 1, 2), (0, 0, 2)])];
    out.extend((0..CASES).map(|_| raw_graph(rng, 8, 14)));
    out
}

fn build(vlabels: &[u32], edges: &[RawEdge]) -> Graph {
    let mut g = Graph::new();
    let vs: Vec<VertexId> = vlabels.iter().map(|&l| g.add_vertex(VLabel(l))).collect();
    for &(s, d, l) in edges {
        g.add_edge(vs[s], vs[d], ELabel(l));
    }
    g
}

/// Every reported substructure occurs in the graph; every instance
/// realizes the pattern (size match) and disjoint instances are
/// vertex-disjoint. Both evaluation methods run on every case.
#[test]
fn substructures_are_real() {
    let mut rng = StdRng::seed_from_u64(1);
    for (case, (vl, es)) in cases(&mut rng).iter().enumerate() {
        let g = build(vl, es);
        for eval in [EvalMethod::Size, EvalMethod::Mdl] {
            let cfg = SubdueConfig {
                eval,
                beam_width: 4,
                max_best: 4,
                max_size: 8,
                ..Default::default()
            };
            let out = discover(&g, &cfg).unwrap();
            for sub in &out.best {
                assert!(has_embedding(&sub.pattern, &g), "case {case}");
                assert!(sub.disjoint_count() >= 2, "case {case}");
                for inst in &sub.instances {
                    assert_eq!(
                        inst.vertices.len(),
                        sub.pattern.vertex_count(),
                        "case {case}"
                    );
                    assert_eq!(inst.edges.len(), sub.pattern.edge_count(), "case {case}");
                }
                let mut used = HashSet::new();
                for inst in &sub.disjoint_instances() {
                    for v in &inst.vertices {
                        assert!(
                            used.insert(*v),
                            "case {case}: overlapping 'disjoint' instances"
                        );
                    }
                }
                assert!(sub.value.is_finite(), "case {case}");
            }
        }
    }
}

/// Propagated instance maps are genuine embeddings: every instance
/// carries a pattern-vertex → graph-vertex map (extended incrementally
/// during expansion, never re-derived) whose images preserve vertex
/// labels and realize every pattern edge.
#[test]
fn instance_maps_are_embeddings() {
    let mut rng = StdRng::seed_from_u64(2);
    for (case, (vl, es)) in cases(&mut rng).iter().enumerate() {
        let g = build(vl, es);
        let out = discover(
            &g,
            &SubdueConfig {
                beam_width: 4,
                max_best: 4,
                max_size: 8,
                ..Default::default()
            },
        )
        .unwrap();
        for sub in &out.best {
            for inst in &sub.instances {
                assert_eq!(inst.map.len(), sub.pattern.vertex_count(), "case {case}");
                for pv in sub.pattern.vertices() {
                    assert_eq!(
                        sub.pattern.vertex_label(pv),
                        g.vertex_label(inst.map[pv.index()]),
                        "case {case}"
                    );
                }
                for pe in sub.pattern.edges() {
                    let (ps, pd, pl) = sub.pattern.edge(pe);
                    let (ts, td) = (inst.map[ps.index()], inst.map[pd.index()]);
                    assert!(
                        g.edges().any(|te| g.edge(te) == (ts, td, pl)),
                        "case {case}: map edge image missing in target"
                    );
                }
            }
        }
    }
}

/// Compression: marker count equals disjoint instance count, and the
/// compressed graph never gains size.
#[test]
fn compression_accounting() {
    let mut rng = StdRng::seed_from_u64(3);
    for (case, (vl, es)) in cases(&mut rng).iter().enumerate() {
        let g = build(vl, es);
        let out = discover(
            &g,
            &SubdueConfig {
                eval: EvalMethod::Size,
                max_size: 6,
                ..Default::default()
            },
        )
        .unwrap();
        let Some(best) = out.best.first() else {
            continue;
        };
        let n = best.disjoint_count();
        let marker = VLabel(999);
        let compressed = compress(&g, best, marker);
        let markers = compressed
            .vertices()
            .filter(|&v| compressed.vertex_label(v) == marker)
            .count();
        assert_eq!(markers, n, "case {case}");
        assert!(compressed.size() <= g.size(), "case {case}");
        // Exact arithmetic: vertices drop by n*(pv-1), edges by n*pe.
        let pv = best.pattern.vertex_count();
        let pe = best.pattern.edge_count();
        assert_eq!(
            compressed.vertex_count(),
            g.vertex_count() - n * (pv - 1),
            "case {case}"
        );
        assert_eq!(
            compressed.edge_count(),
            g.edge_count() - n * pe,
            "case {case}"
        );
    }
}
