//! A depth-first differential oracle for FSG.
//!
//! The oracle grows one pattern at a time along a DFS of pattern space
//! (in the spirit of gSpan, Yan & Han 2002) and counts every support
//! from scratch with VF2 over the parent's TID list. Duplicate
//! exploration is cut with a visited iso-class set instead of
//! minimum-DFS-code canonicality; the search space is the same. It
//! shares only candidate extension ([`extend_pattern`]) and the exact
//! matcher with FSG. Everything FSG layers on top of them is absent
//! here: the level-wise join, downward-closure pruning, TID-list
//! intersection, embedding propagation with its spill and seed-harvest
//! paths, and the frozen CSR. So agreement checks all of those against
//! an independent search order.

use tnet_core::pipeline::Pipeline;
use tnet_data::od_graph::{EdgeLabeling, VertexLabeling};
use tnet_fsg::extend::{extend_pattern, EdgeVocab};
use tnet_fsg::{mine, FrequentPattern, FsgConfig, Support};
use tnet_graph::canon::IsoClassMap;
use tnet_graph::generate::shapes;
use tnet_graph::graph::{ELabel, Graph, VLabel};
use tnet_graph::hash::{FxHashMap, FxHashSet};
use tnet_graph::iso::{are_isomorphic, Matcher};
use tnet_graph::rng::StdRng;
use tnet_partition::split::{split_graph, Strategy};

/// Mines every frequent connected pattern of at most `max_edges` edges
/// that occurs in at least `min_support` transactions, depth-first and
/// sequentially, with a scratch VF2 test per (candidate, transaction).
fn mine_dfs(txns: &[Graph], min_support: usize, max_edges: usize) -> Vec<FrequentPattern> {
    // Frequent single edges seed the walk and make up the extension
    // vocabulary.
    let mut level1: FxHashMap<(u32, u32, u32, bool), Vec<u32>> = FxHashMap::default();
    for (tid, t) in txns.iter().enumerate() {
        let mut seen: FxHashSet<(u32, u32, u32, bool)> = FxHashSet::default();
        for e in t.edges() {
            let (s, d, l) = t.edge(e);
            let key = (t.vertex_label(s).0, l.0, t.vertex_label(d).0, s == d);
            if seen.insert(key) {
                level1.entry(key).or_default().push(tid as u32);
            }
        }
    }
    let mut seeds = Vec::new();
    let mut vocab = Vec::new();
    for ((sl, el, dl, is_loop), mut tids) in level1 {
        if tids.len() < min_support {
            continue;
        }
        tids.sort_unstable();
        let mut g = Graph::new();
        let s = g.add_vertex(VLabel(sl));
        let d = if is_loop { s } else { g.add_vertex(VLabel(dl)) };
        g.add_edge(s, d, ELabel(el));
        vocab.push(EdgeVocab {
            src: VLabel(sl),
            label: ELabel(el),
            dst: VLabel(dl),
        });
        seeds.push(FrequentPattern {
            support: tids.len(),
            graph: g,
            tids,
        });
    }
    vocab.sort_by_key(|v| (v.src, v.label, v.dst));
    vocab.dedup();

    let mut walk = Walk {
        txns,
        vocab: &vocab,
        min_support,
        max_edges,
        visited: IsoClassMap::new(),
        results: Vec::new(),
    };
    for seed in seeds {
        walk.visited.insert(seed.graph.clone(), ());
        walk.grow(&seed);
        walk.results.push(seed);
    }
    walk.results
}

struct Walk<'a> {
    txns: &'a [Graph],
    vocab: &'a [EdgeVocab],
    min_support: usize,
    max_edges: usize,
    visited: IsoClassMap<()>,
    results: Vec<FrequentPattern>,
}

impl Walk<'_> {
    fn grow(&mut self, parent: &FrequentPattern) {
        if parent.graph.edge_count() >= self.max_edges {
            return;
        }
        let mut extensions = IsoClassMap::new();
        extend_pattern(&parent.graph, self.vocab, 0, None, &mut extensions);
        for (candidate, _) in extensions.into_iter_pairs() {
            if self.visited.contains(&candidate) {
                continue;
            }
            self.visited.insert(candidate.clone(), ());
            let matcher = Matcher::new(&candidate);
            let tids: Vec<u32> = parent
                .tids
                .iter()
                .copied()
                .filter(|&tid| matcher.matches(&self.txns[tid as usize]))
                .collect();
            if tids.len() >= self.min_support {
                let child = FrequentPattern {
                    support: tids.len(),
                    graph: candidate,
                    tids,
                };
                self.grow(&child);
                self.results.push(child);
            }
        }
    }
}

/// Asserts that FSG and the oracle found the same iso classes with the
/// same supports and TID lists.
fn assert_same_patterns(fsg: &[FrequentPattern], oracle: &[FrequentPattern]) {
    assert_eq!(fsg.len(), oracle.len(), "pattern-set size mismatch");
    let mut by_class: IsoClassMap<&FrequentPattern> = IsoClassMap::new();
    for p in fsg {
        assert!(
            by_class.insert(p.graph.clone(), p).is_none(),
            "FSG reported one iso class twice: {:?}",
            p.graph
        );
    }
    for p in oracle {
        let twin = by_class
            .get(&p.graph)
            .unwrap_or_else(|| panic!("FSG missing {:?}", p.graph));
        assert_eq!(p.support, twin.support, "support of {:?}", p.graph);
        assert_eq!(p.tids, twin.tids, "TID list of {:?}", p.graph);
    }
}

fn fsg_cfg(count: usize, max_edges: usize) -> FsgConfig {
    FsgConfig::default()
        .with_support(Support::Count(count))
        .with_max_edges(max_edges)
}

#[test]
fn agrees_with_fsg_on_shapes() {
    // Both miners must produce the same pattern set (up to iso) with
    // the same supports.
    let txns: Vec<Graph> = (0..5)
        .map(|i| {
            if i % 2 == 0 {
                shapes::hub_and_spoke(3, 0, 1)
            } else {
                shapes::chain(3, 0, 1)
            }
        })
        .collect();
    let dfs = mine_dfs(&txns, 2, 4);
    let apriori = mine(&txns, &fsg_cfg(2, 4)).unwrap();
    assert_eq!(dfs.len(), apriori.patterns.len());
    for p in &dfs {
        let twin = apriori
            .patterns
            .iter()
            .find(|q| are_isomorphic(&p.graph, &q.graph))
            .unwrap_or_else(|| panic!("FSG missing {:?}", p.graph));
        assert_eq!(p.support, twin.support);
        assert_eq!(p.tids, twin.tids);
    }
}

#[test]
fn agrees_with_fsg_on_random_graphs() {
    use tnet_graph::generate::{random_transactions, RandomGraphConfig};
    let txns = random_transactions(
        8,
        &RandomGraphConfig {
            vertices: 6,
            edges: 9,
            vertex_labels: 2,
            edge_labels: 2,
            self_loops: true,
        },
        31,
    );
    let txns: Vec<Graph> = txns
        .into_iter()
        .map(|mut g| {
            g.dedup_edges();
            g
        })
        .collect();
    let dfs = mine_dfs(&txns, 2, 3);
    let apriori = mine(&txns, &fsg_cfg(2, 3)).unwrap();
    assert_eq!(
        dfs.len(),
        apriori.patterns.len(),
        "pattern-set size mismatch"
    );
    for p in &dfs {
        assert!(apriori
            .patterns
            .iter()
            .any(|q| are_isomorphic(&p.graph, &q.graph) && q.support == p.support));
    }
}

#[test]
fn agrees_with_fsg_on_spilling_hub_workload() {
    // Few, dense hub transactions from a partition split of the
    // synthetic OD graph: embedding lists overflow FSG's default cap, so
    // its spill, alternate-anchor and seed-harvest paths all decide
    // supports here.
    let p = Pipeline::synthetic(0.2, 42);
    let mut g = p
        .od_graph(EdgeLabeling::GrossWeight, VertexLabeling::Uniform)
        .graph;
    g.dedup_edges();
    let txns = split_graph(&g, 4, Strategy::BreadthFirst, &mut StdRng::seed_from_u64(4));
    let fsg = mine(&txns, &fsg_cfg(4, 4)).unwrap();
    assert!(
        fsg.stats.embeddings_spilled > 0,
        "no embedding list spilled — the workload no longer checks the spill paths"
    );
    assert_same_patterns(&fsg.patterns, &mine_dfs(&txns, 4, 4));
}
