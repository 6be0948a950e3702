//! Seeded property tests for the partitioners: Algorithm 2 must conserve
//! the labeled edge multiset for any graph, any partition count, and both
//! strategies — the foundation of the "frequent in a partition ⇒
//! frequent in the graph" argument — and Algorithm 1 must merge its
//! repetitions by isomorphism class. Each property runs a fixed number of
//! random cases from its own seeded [`StdRng`], so a failure reproduces
//! identically; assertion messages name the failing case.

use std::sync::Mutex;
use tnet_exec::Exec;
use tnet_graph::graph::{ELabel, EdgeId, Graph, VLabel, VertexId};
use tnet_graph::iso::are_isomorphic;
use tnet_graph::rng::{Rng, StdRng};
use tnet_partition::single_graph::mine_single_graph;
use tnet_partition::split::{split_graph, Strategy as SplitStrategy};

/// Random cases per property.
const CASES: usize = 48;

/// A generated edge: (src index, dst index, edge label).
type RawEdge = (usize, usize, u32);

/// A small random labeled digraph: `2..=max_v` vertices over two labels
/// and `1..=max_e` edges over four. Endpoints are drawn independently,
/// so self-loops and parallel edges occur.
fn raw_graph(rng: &mut StdRng, max_v: usize, max_e: usize) -> (Vec<u32>, Vec<RawEdge>) {
    let nv = rng.gen_range(2..=max_v);
    let vlabels = (0..nv).map(|_| rng.gen_range(0..2u32)).collect();
    let ne = rng.gen_range(1..=max_e);
    let edges = (0..ne)
        .map(|_| {
            (
                rng.gen_range(0..nv),
                rng.gen_range(0..nv),
                rng.gen_range(0..4u32),
            )
        })
        .collect();
    (vlabels, edges)
}

fn build(vlabels: &[u32], edges: &[RawEdge]) -> Graph {
    let mut g = Graph::new();
    let vs: Vec<VertexId> = vlabels.iter().map(|&l| g.add_vertex(VLabel(l))).collect();
    for &(s, d, l) in edges {
        g.add_edge(vs[s], vs[d], ELabel(l));
    }
    g
}

fn labeled_edge_multiset(g: &Graph) -> Vec<(u32, u32, u32)> {
    let mut v: Vec<(u32, u32, u32)> = g
        .edges()
        .map(|e| {
            let (s, d, l) = g.edge(e);
            (g.vertex_label(s).0, l.0, g.vertex_label(d).0)
        })
        .collect();
    v.sort_unstable();
    v
}

/// Every edge lands in exactly one transaction, with labels intact.
#[test]
fn split_conserves_edges() {
    let mut rng = StdRng::seed_from_u64(1);
    for case in 0..CASES {
        let (vl, es) = raw_graph(&mut rng, 10, 25);
        let k = rng.gen_range(1..6usize);
        let strategy = if rng.gen::<bool>() {
            SplitStrategy::BreadthFirst
        } else {
            SplitStrategy::DepthFirst
        };
        let seed = rng.gen_range(0..500u64);
        let g = build(&vl, &es);
        let parts = split_graph(&g, k, strategy, &mut StdRng::seed_from_u64(seed));
        let total: usize = parts.iter().map(|p| p.edge_count()).sum();
        assert_eq!(total, g.edge_count(), "case {case}: {vl:?} {es:?} k={k}");
        let mut got: Vec<(u32, u32, u32)> = parts.iter().flat_map(labeled_edge_multiset).collect();
        got.sort_unstable();
        assert_eq!(got, labeled_edge_multiset(&g), "case {case}: {vl:?} {es:?}");
    }
}

/// No transaction contains orphan vertices, and none is empty.
#[test]
fn split_transactions_are_clean() {
    let mut rng = StdRng::seed_from_u64(2);
    for case in 0..CASES {
        let (vl, es) = raw_graph(&mut rng, 10, 25);
        let k = rng.gen_range(1..6usize);
        let seed = rng.gen_range(0..500u64);
        let g = build(&vl, &es);
        let parts = split_graph(
            &g,
            k,
            SplitStrategy::BreadthFirst,
            &mut StdRng::seed_from_u64(seed),
        );
        for p in &parts {
            assert!(p.edge_count() > 0, "case {case}: empty transaction");
            for v in p.vertices() {
                assert!(
                    p.incident_edges(v).next().is_some(),
                    "case {case}: orphan {v:?}"
                );
            }
        }
    }
}

/// Larger k never yields fewer transactions (up to the edge supply).
#[test]
fn partition_count_tracks_k() {
    let mut rng = StdRng::seed_from_u64(3);
    for case in 0..CASES {
        let (vl, es) = raw_graph(&mut rng, 10, 30);
        let seed = rng.gen_range(0..200u64);
        let g = build(&vl, &es);
        let split = |k| {
            split_graph(
                &g,
                k,
                SplitStrategy::DepthFirst,
                &mut StdRng::seed_from_u64(seed),
            )
            .len()
        };
        let (n1, n2) = (split(2), split(8));
        assert!(
            n2 >= n1.min(g.edge_count()) || n2 == g.edge_count(),
            "case {case}: k=2 gave {n1}, k=8 gave {n2}"
        );
    }
}

/// A stand-in miner: every connected one- and two-edge subgraph of the
/// transactions with its transaction support, classes in first-seen
/// order. Classes are found with `are_isomorphic`, independently of the
/// iso-class map under test.
fn toy_miner(transactions: &[Graph]) -> Vec<(Graph, usize)> {
    // (representative, support, last transaction counted + 1)
    let mut classes: Vec<(Graph, usize, usize)> = Vec::new();
    for (tid, t) in transactions.iter().enumerate() {
        let edges: Vec<EdgeId> = t.edges().collect();
        let mut subs = Vec::new();
        for (i, &a) in edges.iter().enumerate() {
            subs.push(t.edge_subgraph(&[a]).0);
            let (sa, da, _) = t.edge(a);
            for &b in &edges[i + 1..] {
                let (sb, db, _) = t.edge(b);
                if [sb, db].iter().any(|&v| v == sa || v == da) {
                    subs.push(t.edge_subgraph(&[a, b]).0);
                }
            }
        }
        for sub in subs {
            match classes.iter_mut().find(|c| are_isomorphic(&c.0, &sub)) {
                Some(c) if c.2 != tid + 1 => (c.1, c.2) = (c.1 + 1, tid + 1),
                Some(_) => {}
                None => classes.push((sub, 1, tid + 1)),
            }
        }
    }
    classes.into_iter().map(|(g, s, _)| (g, s)).collect()
}

/// Algorithm 1 keeps one pattern per isomorphism class with its best
/// support and the number of repetitions that found it, sorted by
/// descending (support, edges) with ties in first-seen order.
#[test]
fn algorithm1_merges_repetitions_by_class() {
    let mut rng = StdRng::seed_from_u64(4);
    for case in 0..24 {
        let (vl, es) = raw_graph(&mut rng, 8, 14);
        let k = rng.gen_range(1..5usize);
        let m = rng.gen_range(1..4usize);
        let seed = rng.gen_range(0..500u64);
        let g = build(&vl, &es);
        let mined = Mutex::new(Vec::new());
        // One thread: repetitions run, and are recorded, in order.
        let out = mine_single_graph(
            &g,
            k,
            m,
            SplitStrategy::BreadthFirst,
            seed,
            &Exec::new(1),
            |txns, _| {
                let found = toy_miner(txns);
                mined.lock().unwrap().push(found.clone());
                found
            },
        );
        let mut want: Vec<(Graph, usize, usize)> = Vec::new();
        for (p, s) in mined.into_inner().unwrap().into_iter().flatten() {
            match want.iter_mut().find(|w| are_isomorphic(&w.0, &p)) {
                Some(w) => (w.1, w.2) = (w.1.max(s), w.2 + 1),
                None => want.push((p, s, 1)),
            }
        }
        want.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.edge_count().cmp(&a.0.edge_count())));
        assert_eq!(out.len(), want.len(), "case {case}: {vl:?} {es:?}");
        for (i, (got, (p, s, reps))) in out.iter().zip(&want).enumerate() {
            assert!(are_isomorphic(&got.pattern, p), "case {case}: pattern {i}");
            assert_eq!(
                (got.support, got.repetitions_seen),
                (*s, *reps),
                "case {case}: pattern {i}"
            );
        }
    }
}
