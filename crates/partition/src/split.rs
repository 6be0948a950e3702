//! Algorithm 2: breadth-first / depth-first single-graph partitioning.
//!
//! "The key idea ... we obtain a sub-graph by randomly choosing a starting
//! vertex in the graph G. All edges from that node are added to the
//! sub-graph, along with the endpoint vertices. One of the endpoint
//! vertices is chosen as the next starting vertex, and the process is
//! repeated" — with a queue (breadth-first) or a stack (depth-first) as
//! the ordering structure. Selected edges are marked removed in a
//! deleted-edge overlay over a frozen snapshot so the produced
//! transactions are edge-disjoint ("we should get almost mutually
//! exclusive sub-graphs") without cloning the graph per split.
//!
//! The per-transaction edge budget follows the pseudocode
//! (`edges = |E| / (k − transactions)` with `|E|` the *remaining* edge
//! count), implemented as `remaining / (k − t + 1)` for 1-based `t` so the
//! divisor runs k, k−1, …, 1 and the final transaction absorbs the
//! remainder. Because disconnected regions can exhaust a walk early, the
//! loop keeps producing transactions past `k` until no edges remain, so
//! partition counts can slightly exceed `k` — exactly the "some smaller
//! and larger partitions" caveat in the paper.

use std::collections::VecDeque;
use tnet_graph::frozen::TxnRef;
use tnet_graph::graph::{EdgeId, Graph, VertexId};
use tnet_graph::rng::{Rng, SliceRandom};
use tnet_graph::view::{self, GraphView};

/// The ordering structure `q` of Algorithm 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Queue ordering — grows bushy transactions, preserving
    /// high-out-degree (hub-like) patterns.
    BreadthFirst,
    /// Stack ordering — grows deep transactions, preserving long chains.
    DepthFirst,
}

impl Strategy {
    pub fn name(self) -> &'static str {
        match self {
            Strategy::BreadthFirst => "breadth-first",
            Strategy::DepthFirst => "depth-first",
        }
    }
}

/// Queue-or-stack frontier.
struct Frontier {
    strategy: Strategy,
    items: VecDeque<VertexId>,
}

impl Frontier {
    fn new(strategy: Strategy) -> Self {
        Frontier {
            strategy,
            items: VecDeque::new(),
        }
    }

    fn push(&mut self, v: VertexId) {
        self.items.push_back(v);
    }

    fn pop(&mut self) -> Option<VertexId> {
        match self.strategy {
            Strategy::BreadthFirst => self.items.pop_front(),
            Strategy::DepthFirst => self.items.pop_back(),
        }
    }

    fn clear(&mut self) {
        self.items.clear();
    }
}

/// Deleted-edge overlay over an immutable frozen view: the walk
/// "removes" edges by flipping bits here instead of tombstoning a full
/// working clone of the graph — one bitset and one degree vector per
/// `split_frozen` call, shared-nothing against the snapshot itself.
struct Peel<'a> {
    fg: TxnRef<'a>,
    /// Edges already pulled into a transaction.
    removed: Vec<bool>,
    /// Live incident adjacency entries per vertex (out row + in row, so a
    /// self-loop counts twice). Zero means the vertex is exhausted —
    /// exactly the vertices the arena walk dropped via `remove_orphans`.
    live: Vec<u32>,
    /// Live edges left in the overlay.
    remaining: usize,
}

impl<'a> Peel<'a> {
    fn new(fg: TxnRef<'a>) -> Peel<'a> {
        let live = fg
            .vertices()
            .map(|v| (fg.out_degree(v) + fg.in_degree(v)) as u32)
            .collect();
        Peel {
            fg,
            removed: vec![false; fg.edge_count()],
            live,
            remaining: fg.edge_count(),
        }
    }

    /// First live incident edge of `v` in out-then-in ascending-id order —
    /// the same order the arena's `incident_edges` yields, which keeps the
    /// walk (and therefore every produced transaction) identical.
    fn first_incident(&self, v: VertexId) -> Option<EdgeId> {
        self.fg
            .out_edges(v)
            .chain(self.fg.in_edges(v))
            .find(|&e| !self.removed[e.index()])
    }

    fn remove_edge(&mut self, e: EdgeId) {
        debug_assert!(!self.removed[e.index()]);
        self.removed[e.index()] = true;
        let (s, d, _) = self.fg.edge(e);
        self.live[s.index()] -= 1;
        self.live[d.index()] -= 1;
        self.remaining -= 1;
    }
}

/// Splits `g` into approximately `k` edge-disjoint graph transactions
/// using Algorithm 2. Freezes `g` once and delegates to [`split_frozen`];
/// callers that split the same graph repeatedly (Algorithm 1's
/// repetitions) should freeze once themselves and call [`split_frozen`]
/// per repetition.
///
/// # Panics
/// Panics if `k == 0`.
pub fn split_graph(g: &Graph, k: usize, strategy: Strategy, rng: &mut impl Rng) -> Vec<Graph> {
    split_frozen(g.freeze().view(), k, strategy, rng)
}

/// Splits a frozen graph, read through its view (`g.freeze().view()`),
/// into approximately `k` edge-disjoint graph transactions using
/// Algorithm 2. The walk tracks deleted edges in a private overlay
/// (bitset + live-degree vector) instead of mutating a working clone, so
/// repeated splits of the same snapshot allocate only the overlay.
/// Transactions preserve vertex and edge labels; a vertex incident to
/// edges in several transactions appears in each (vertex overlap is
/// allowed, edge overlap is not).
///
/// For the same underlying graph, seed, and `k`, the produced transaction
/// graphs are identical to what the historical clone-and-tombstone walk
/// built: the overlay visits vertices and edges in the same order and
/// consumes the RNG identically.
///
/// # Panics
/// Panics if `k == 0`.
pub fn split_frozen(
    fg: TxnRef<'_>,
    k: usize,
    strategy: Strategy,
    rng: &mut impl Rng,
) -> Vec<Graph> {
    assert!(k > 0, "need at least one partition");
    let mut work = Peel::new(fg);
    let mut out: Vec<Graph> = Vec::with_capacity(k);
    let mut t = 0usize;
    while work.remaining > 0 {
        t += 1;
        let divisor = k.saturating_sub(t) + 1;
        let budget = (work.remaining / divisor).max(1);
        let picked = grow_transaction(&mut work, budget, strategy, rng);
        if picked.is_empty() {
            break; // defensive: cannot happen while edges remain
        }
        let (sub, _) = view::edge_subgraph(&fg, &picked);
        out.push(sub);
    }
    out
}

/// Grows one transaction: returns the edge ids pulled out of the overlay
/// (marked removed as a side effect).
fn grow_transaction(
    work: &mut Peel<'_>,
    budget: usize,
    strategy: Strategy,
    rng: &mut impl Rng,
) -> Vec<EdgeId> {
    let mut picked: Vec<EdgeId> = Vec::with_capacity(budget);
    let mut frontier = Frontier::new(strategy);
    // Random starting vertex among those with edges.
    let candidates: Vec<VertexId> = work
        .fg
        .vertices()
        .filter(|&v| work.live[v.index()] > 0)
        .collect();
    let Some(&start) = candidates.choose(rng) else {
        return picked;
    };
    frontier.push(start);
    while picked.len() < budget {
        let Some(v) = frontier.pop() else { break };
        // "while edges > 0 and v has edges remaining": drain v's incident
        // edges into the transaction, queueing the far endpoints.
        loop {
            if picked.len() >= budget {
                break;
            }
            let Some(e) = work.first_incident(v) else {
                break;
            };
            let (s, d, _) = work.fg.edge(e);
            picked.push(e);
            work.remove_edge(e);
            let other = if s == v { d } else { s };
            if other != v {
                frontier.push(other);
            }
        }
    }
    frontier.clear();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_graph::generate::{random_graph, shapes, RandomGraphConfig};
    use tnet_graph::graph::{ELabel, VLabel};
    use tnet_graph::iso::has_embedding;
    use tnet_graph::rng::StdRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn partitions_cover_all_edges_exactly_once() {
        let cfg = RandomGraphConfig {
            vertices: 40,
            edges: 120,
            vertex_labels: 1,
            edge_labels: 4,
            self_loops: false,
        };
        let g = random_graph(&cfg, 3);
        for strategy in [Strategy::BreadthFirst, Strategy::DepthFirst] {
            let parts = split_graph(&g, 6, strategy, &mut rng());
            let total: usize = parts.iter().map(|p| p.edge_count()).sum();
            assert_eq!(total, g.edge_count(), "{strategy:?} lost or duped edges");
            assert!(
                parts.len() >= 6 || total < 6,
                "{strategy:?} under-partitioned"
            );
        }
    }

    #[test]
    fn partition_edge_multiset_matches() {
        // Label multiset across partitions equals the original.
        let cfg = RandomGraphConfig {
            vertices: 25,
            edges: 60,
            vertex_labels: 2,
            edge_labels: 3,
            ..Default::default()
        };
        let g = random_graph(&cfg, 9);
        let mut orig: Vec<(u32, u32, u32)> = g
            .edges()
            .map(|e| {
                let (s, d, l) = g.edge(e);
                (g.vertex_label(s).0, l.0, g.vertex_label(d).0)
            })
            .collect();
        orig.sort_unstable();
        let parts = split_graph(&g, 5, Strategy::DepthFirst, &mut rng());
        let mut got: Vec<(u32, u32, u32)> = parts
            .iter()
            .flat_map(|p| {
                p.edges().map(move |e| {
                    let (s, d, l) = p.edge(e);
                    (p.vertex_label(s).0, l.0, p.vertex_label(d).0)
                })
            })
            .collect();
        got.sort_unstable();
        assert_eq!(orig, got);
    }

    #[test]
    fn no_orphan_vertices_in_partitions() {
        let g = random_graph(
            &RandomGraphConfig {
                vertices: 30,
                edges: 50,
                ..Default::default()
            },
            4,
        );
        for p in split_graph(&g, 4, Strategy::BreadthFirst, &mut rng()) {
            for v in p.vertices() {
                assert!(p.incident_edges(v).next().is_some(), "orphan vertex");
            }
        }
    }

    #[test]
    fn k_one_returns_whole_graph() {
        let g = shapes::cycle(6, 0, 1);
        let parts = split_graph(&g, 1, Strategy::DepthFirst, &mut rng());
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].edge_count(), 6);
        assert_eq!(parts[0].vertex_count(), 6);
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let g = Graph::new();
        assert!(split_graph(&g, 3, Strategy::BreadthFirst, &mut rng()).is_empty());
    }

    #[test]
    fn bf_keeps_hub_intact_when_budget_allows() {
        // A single hub with 8 spokes, k=1: BF from any start reaches the
        // hub and drains all spokes into one transaction.
        let g = shapes::hub_and_spoke(8, 0, 1);
        let parts = split_graph(&g, 1, Strategy::BreadthFirst, &mut rng());
        assert_eq!(parts.len(), 1);
        let hub = shapes::hub_and_spoke(8, 0, 1);
        assert!(has_embedding(&hub, &parts[0]));
    }

    #[test]
    fn df_keeps_chain_intact_when_budget_allows() {
        let g = shapes::chain(10, 0, 1);
        let parts = split_graph(&g, 1, Strategy::DepthFirst, &mut rng());
        assert_eq!(parts.len(), 1);
        assert!(has_embedding(&shapes::chain(10, 0, 1), &parts[0]));
    }

    #[test]
    fn deterministic_given_rng() {
        let g = random_graph(
            &RandomGraphConfig {
                vertices: 20,
                edges: 45,
                ..Default::default()
            },
            8,
        );
        let a = split_graph(&g, 4, Strategy::BreadthFirst, &mut StdRng::seed_from_u64(5));
        let b = split_graph(&g, 4, Strategy::BreadthFirst, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.edge_count(), y.edge_count());
        }
    }

    #[test]
    fn self_loops_are_partitioned() {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(0));
        let b = g.add_vertex(VLabel(0));
        g.add_edge(a, a, ELabel(0));
        g.add_edge(a, b, ELabel(1));
        let parts = split_graph(&g, 1, Strategy::DepthFirst, &mut rng());
        let total: usize = parts.iter().map(|p| p.edge_count()).sum();
        assert_eq!(total, 2);
    }
}
