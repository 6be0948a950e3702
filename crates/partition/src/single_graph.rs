//! Algorithm 1: mining frequent subgraphs in a single graph by repeated
//! partitioning.
//!
//! ```text
//! result = ∅
//! for i = 1..m:
//!     G1..Gk = SplitGraph(G, k)
//!     result = result ∪ Find_Frequent_Graphs(s, G1..Gk)
//! return result
//! ```
//!
//! "if a sub-graph is frequent across a particular partitioning, it is
//! frequent in the entire graph. (Running multiple times decreases the
//! number of false drops.)" The union is taken up to isomorphism, keeping
//! each pattern's best observed support.

use crate::split::{split_frozen, Strategy};
use tnet_exec::Exec;
use tnet_graph::canon::IsoClassMap;
use tnet_graph::frozen::TxnRef;
use tnet_graph::graph::Graph;
use tnet_graph::rng::{derive_seed, StdRng};

/// A frequent pattern and the (maximum, over repetitions) number of graph
/// transactions supporting it.
#[derive(Clone, Debug)]
pub struct SingleGraphPattern {
    pub pattern: Graph,
    pub support: usize,
    /// In how many of the `m` repetitions the pattern surfaced.
    pub repetitions_seen: usize,
}

/// Runs Algorithm 1. `mine(transactions, exec)` is the frequent-subgraph
/// miner applied per repetition (e.g. FSG at support `s`); it returns
/// `(pattern, support)` pairs and may use the handed [`Exec`] for its own
/// internal parallelism.
///
/// Repetitions run across `exec`'s workers, each with a decorrelated RNG
/// stream derived from `(seed, repetition index)` — so repetition `i`
/// produces the same partitioning at any thread count — and each miner
/// call receives a child handle with a proportional share of the thread
/// budget. Results merge in repetition order.
///
/// Returns patterns deduplicated by isomorphism class, each with the best
/// support seen and a count of the repetitions that produced it, sorted
/// by descending support.
///
/// Freezes `g` once and delegates to [`mine_single_graph_frozen`];
/// callers that already hold the frozen form should call that directly.
pub fn mine_single_graph(
    g: &Graph,
    k: usize,
    m: usize,
    strategy: Strategy,
    seed: u64,
    exec: &Exec,
    mine: impl Fn(&[Graph], &Exec) -> Vec<(Graph, usize)> + Sync,
) -> Vec<SingleGraphPattern> {
    mine_single_graph_frozen(g.freeze().view(), k, m, strategy, seed, exec, mine)
}

/// Algorithm 1 over a frozen snapshot: every repetition splits the
/// shared snapshot through its own deleted-edge overlay instead of
/// cloning the whole graph. Output as [`mine_single_graph`].
pub fn mine_single_graph_frozen(
    frozen: TxnRef<'_>,
    k: usize,
    m: usize,
    strategy: Strategy,
    seed: u64,
    exec: &Exec,
    mine: impl Fn(&[Graph], &Exec) -> Vec<(Graph, usize)> + Sync,
) -> Vec<SingleGraphPattern> {
    assert!(m > 0, "need at least one repetition");
    // Split the thread budget between the repetition fan-out and each
    // miner's internal regions: with enough repetitions to occupy every
    // worker, miners run sequentially inside their repetition; a lone
    // repetition hands its miner the whole budget.
    let outer = exec.threads().min(m);
    let inner = (exec.threads() / outer).max(1);
    let reps: Vec<u64> = (0..m as u64).collect();
    // Pre-register the partition span before the fan-out: repetitions
    // run concurrently, and first-touch registration inside the pool
    // would make the rendered span-tree order depend on scheduling.
    exec.span().child("partition");
    let per_rep: Vec<Vec<(Graph, usize)>> = exec.par_map(&reps, |&i| {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, i));
        let transactions = {
            let _t = exec.span().time("partition");
            split_frozen(frozen, k, strategy, &mut rng)
        };
        mine(&transactions, &exec.child_with_threads(inner))
    });
    let mut acc: IsoClassMap<(usize, usize)> = IsoClassMap::new();
    for rep_patterns in per_rep {
        for (pattern, support) in rep_patterns {
            let entry = acc.entry_or_insert_with(&pattern, || (0, 0));
            entry.0 = entry.0.max(support);
            entry.1 += 1;
        }
    }
    let mut out: Vec<SingleGraphPattern> = acc
        .into_iter_pairs()
        .map(|(pattern, (support, reps))| SingleGraphPattern {
            pattern,
            support,
            repetitions_seen: reps,
        })
        .collect();
    out.sort_by(|a, b| {
        b.support
            .cmp(&a.support)
            .then(b.pattern.edge_count().cmp(&a.pattern.edge_count()))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_graph::generate::shapes;
    use tnet_graph::iso::has_embedding;

    /// A toy "miner": reports every single-edge pattern with its
    /// transaction support.
    fn single_edge_miner(transactions: &[Graph], _exec: &Exec) -> Vec<(Graph, usize)> {
        let mut classes: IsoClassMap<usize> = IsoClassMap::new();
        for t in transactions {
            let mut seen_here: IsoClassMap<()> = IsoClassMap::new();
            for e in t.edges() {
                let (sub, _) = t.edge_subgraph(&[e]);
                if !seen_here.contains(&sub) {
                    *classes.entry_or_insert_with(&sub, || 0) += 1;
                    seen_here.insert(sub, ());
                }
            }
        }
        classes.into_iter_pairs().collect()
    }

    #[test]
    fn union_over_repetitions_dedups() {
        let g = shapes::cycle(8, 0, 1);
        let res = mine_single_graph(
            &g,
            4,
            3,
            Strategy::DepthFirst,
            1,
            &Exec::new(2),
            single_edge_miner,
        );
        // All edges share one label: exactly one single-edge pattern class.
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].repetitions_seen, 3);
        assert!(res[0].support >= 4, "each partition holds the edge");
    }

    #[test]
    fn patterns_actually_occur_in_source() {
        let mut g = shapes::hub_and_spoke(6, 0, 1);
        // Add some differently-labeled edges.
        let vs: Vec<_> = g.vertices().collect();
        g.add_edge(vs[1], vs[2], tnet_graph::graph::ELabel(9));
        let res = mine_single_graph(
            &g,
            2,
            2,
            Strategy::BreadthFirst,
            3,
            &Exec::sequential(),
            single_edge_miner,
        );
        for p in &res {
            assert!(has_embedding(&p.pattern, &g));
        }
    }

    #[test]
    fn sorted_by_support() {
        let mut g = shapes::hub_and_spoke(10, 0, 1);
        let vs: Vec<_> = g.vertices().collect();
        g.add_edge(vs[1], vs[2], tnet_graph::graph::ELabel(9));
        let res = mine_single_graph(
            &g,
            3,
            1,
            Strategy::BreadthFirst,
            5,
            &Exec::sequential(),
            single_edge_miner,
        );
        for w in res.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }
}
