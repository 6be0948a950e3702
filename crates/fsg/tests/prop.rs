//! Seeded property tests for the FSG miner: mined supports must be exact
//! (a recount via independent isomorphism checks agrees), patterns must
//! be connected, and support must be antitone under pattern extension.
//! Each property runs a fixed number of random cases from its own seeded
//! [`StdRng`], so a failure reproduces identically; assertion messages
//! name the failing case.

use tnet_fsg::{mine, FsgConfig, Support};
use tnet_graph::graph::{ELabel, Graph, VLabel, VertexId};
use tnet_graph::iso::{are_isomorphic, has_embedding};
use tnet_graph::rng::{Rng, SliceRandom, StdRng};
use tnet_graph::traverse::is_connected;

/// Random cases per property.
const CASES: usize = 24;

/// A generated edge: (src index, dst index, edge label).
type RawEdge = (usize, usize, u32);

/// A small random transaction: `2..=max_v` vertices over two labels and
/// `1..=max_e` edges over three. Endpoints are drawn independently, so
/// self-loops occur; parallel duplicates are removed by [`build`].
fn raw_txn(rng: &mut StdRng, max_v: usize, max_e: usize) -> (Vec<u32>, Vec<RawEdge>) {
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

fn build(vlabels: &[u32], edges: &[RawEdge]) -> Graph {
    let mut g = Graph::new();
    let vs: Vec<VertexId> = vlabels.iter().map(|&l| g.add_vertex(VLabel(l))).collect();
    for &(s, d, l) in edges {
        g.add_edge(vs[s], vs[d], ELabel(l));
    }
    // FSG inputs are simple graphs.
    g.dedup_edges();
    g
}

/// A transaction set of `txns` (a half-open range) random transactions.
fn txn_set(
    rng: &mut StdRng,
    txns: std::ops::Range<usize>,
    max_v: usize,
    max_e: usize,
) -> Vec<Graph> {
    let count = rng.gen_range(txns);
    (0..count)
        .map(|_| {
            let (vl, es) = raw_txn(rng, max_v, max_e);
            build(&vl, &es)
        })
        .collect()
}

/// Supports reported by the miner equal an independent recount, and
/// every pattern is connected and meets the threshold.
#[test]
fn supports_are_exact() {
    let mut rng = StdRng::seed_from_u64(1);
    for case in 0..CASES {
        let txns = txn_set(&mut rng, 2..6, 5, 7);
        let min_support = rng.gen_range(1..3usize);
        let cfg = FsgConfig::default()
            .with_support(Support::Count(min_support))
            .with_max_edges(3);
        let out = mine(&txns, &cfg).unwrap();
        for p in &out.patterns {
            assert!(is_connected(&p.graph), "case {case}");
            assert!(p.support >= min_support, "case {case}");
            let recount = txns.iter().filter(|t| has_embedding(&p.graph, t)).count();
            assert_eq!(
                recount, p.support,
                "case {case}: support mismatch for {:?}",
                p.graph
            );
            // TID list agrees with support and is sorted unique.
            assert_eq!(p.tids.len(), p.support, "case {case}");
            assert!(p.tids.windows(2).all(|w| w[0] < w[1]), "case {case}");
            for &tid in &p.tids {
                assert!(has_embedding(&p.graph, &txns[tid as usize]), "case {case}");
            }
        }
    }
}

/// Mining is complete at level 1: every frequent single-edge class
/// appears in the output.
#[test]
fn level1_complete() {
    let mut rng = StdRng::seed_from_u64(2);
    for case in 0..CASES {
        let txns = txn_set(&mut rng, 2..5, 4, 5);
        let cfg = FsgConfig::default()
            .with_support(Support::Count(1))
            .with_max_edges(1);
        let out = mine(&txns, &cfg).unwrap();
        // Every single edge of every transaction is covered by some
        // mined 1-edge pattern.
        for t in &txns {
            for e in t.edges() {
                let (sub, _) = t.edge_subgraph(&[e]);
                assert!(
                    out.patterns.iter().any(|p| are_isomorphic(&p.graph, &sub)),
                    "case {case}: missing 1-edge pattern {sub:?}"
                );
            }
        }
    }
}

/// Propagated support counting is invisible in the output: any
/// embedding cap — including caps of 1–2 that truncate nearly every
/// list and force the inexact-seed re-verification path — mines the
/// same patterns with the same TID lists as scratch VF2 (cap 0).
#[test]
fn embedding_propagation_matches_scratch() {
    let mut rng = StdRng::seed_from_u64(3);
    for case in 0..CASES {
        let txns = txn_set(&mut rng, 2..6, 5, 8);
        let min_support = rng.gen_range(1..3usize);
        let cap = *[1usize, 2, 4, 256].choose(&mut rng).unwrap();
        let cfg = |cap: usize| {
            FsgConfig::default()
                .with_support(Support::Count(min_support))
                .with_max_edges(4)
                .with_embedding_cap(cap)
        };
        let scratch = mine(&txns, &cfg(0)).unwrap();
        let prop = mine(&txns, &cfg(cap)).unwrap();
        assert_eq!(
            prop.patterns.len(),
            scratch.patterns.len(),
            "case {case}, cap {cap}"
        );
        for (a, b) in prop.patterns.iter().zip(&scratch.patterns) {
            assert_eq!(a.tids, b.tids, "case {case}, cap {cap}");
            assert_eq!(a.support, b.support, "case {case}, cap {cap}");
            assert!(are_isomorphic(&a.graph, &b.graph), "case {case}, cap {cap}");
        }
    }
}

/// Raising the support threshold can only shrink the result set.
#[test]
fn support_threshold_monotone() {
    let mut rng = StdRng::seed_from_u64(4);
    for case in 0..CASES {
        let txns = txn_set(&mut rng, 3..6, 4, 6);
        let at = |support: usize| {
            mine(
                &txns,
                &FsgConfig::default()
                    .with_support(Support::Count(support))
                    .with_max_edges(3),
            )
            .unwrap()
        };
        let (lo, hi) = (at(1), at(2));
        assert!(hi.patterns.len() <= lo.patterns.len(), "case {case}");
        // Every high-support pattern is also found at the lower threshold.
        for p in &hi.patterns {
            assert!(
                lo.patterns
                    .iter()
                    .any(|q| are_isomorphic(&p.graph, &q.graph)),
                "case {case}: {:?} lost at support 1",
                p.graph
            );
        }
    }
}
