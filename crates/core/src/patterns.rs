//! Pattern taxonomy and interestingness for transportation graphs.
//!
//! §1 of the paper names the "known good shapes": circular routes,
//! hub-and-spoke; §5 adds the hypothetical bow-tie; Figure 1 discusses
//! deadheading; Figures 2–3 show a hub fan and a pickup/delivery chain.
//! These detectors classify mined patterns into that vocabulary so
//! experiment output reads like the paper's.

use tnet_graph::graph::{Graph, VertexId};
use tnet_graph::traverse::is_connected;

/// A structural class of a mined pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatternShape {
    /// One vertex with `spokes` outgoing edges to leaves (Figure 2).
    HubAndSpoke { spokes: usize },
    /// One vertex receiving `spokes` edges from leaves (the converging
    /// fan of loads).
    ReverseHub { spokes: usize },
    /// A directed path of `edges` edges (Figure 3's repeated route).
    Chain { edges: usize },
    /// A directed cycle of `edges` edges (the circular route of §1).
    Cycle { edges: usize },
    /// Fans converging on a long-haul edge then diverging (§5's
    /// motivating example).
    BowTie { fan_in: usize, fan_out: usize },
    /// Anything else.
    Other,
}

impl PatternShape {
    pub fn name(&self) -> &'static str {
        match self {
            PatternShape::HubAndSpoke { .. } => "hub-and-spoke",
            PatternShape::ReverseHub { .. } => "reverse-hub",
            PatternShape::Chain { .. } => "chain",
            PatternShape::Cycle { .. } => "cycle",
            PatternShape::BowTie { .. } => "bow-tie",
            PatternShape::Other => "other",
        }
    }
}

/// Classifies a pattern graph.
pub fn classify(g: &Graph) -> PatternShape {
    let nv = g.vertex_count();
    let ne = g.edge_count();
    if nv == 0 || ne == 0 || !is_connected(g) {
        return PatternShape::Other;
    }
    let vs: Vec<VertexId> = g.vertices().collect();
    let out: Vec<usize> = vs.iter().map(|&v| g.out_degree(v)).collect();
    let inn: Vec<usize> = vs.iter().map(|&v| g.in_degree(v)).collect();

    // Cycle: every vertex has in = out = 1 and the graph is connected.
    if ne == nv && out.iter().all(|&d| d == 1) && inn.iter().all(|&d| d == 1) {
        return PatternShape::Cycle { edges: ne };
    }
    // Chain: a path v0 -> v1 -> ... -> vk.
    if ne == nv - 1 {
        let starts = vs
            .iter()
            .zip(&out)
            .zip(&inn)
            .filter(|((_, &o), &i)| o == 1 && i == 0)
            .count();
        let ends = vs
            .iter()
            .zip(&out)
            .zip(&inn)
            .filter(|((_, &o), &i)| o == 0 && i == 1)
            .count();
        let middles = vs
            .iter()
            .zip(&out)
            .zip(&inn)
            .filter(|((_, &o), &i)| o == 1 && i == 1)
            .count();
        if starts == 1 && ends == 1 && middles == nv - 2 {
            return PatternShape::Chain { edges: ne };
        }
        // Hub: one sender to ne leaves.
        let hub_out = vs
            .iter()
            .zip(&out)
            .zip(&inn)
            .filter(|((_, &o), &i)| o == ne && i == 0)
            .count();
        let leaves_in = vs
            .iter()
            .zip(&out)
            .zip(&inn)
            .filter(|((_, &o), &i)| o == 0 && i == 1)
            .count();
        if hub_out == 1 && leaves_in == nv - 1 {
            return PatternShape::HubAndSpoke { spokes: ne };
        }
        let hub_in = vs
            .iter()
            .zip(&out)
            .zip(&inn)
            .filter(|((_, &o), &i)| i == ne && o == 0)
            .count();
        let leaves_out = vs
            .iter()
            .zip(&out)
            .zip(&inn)
            .filter(|((_, &o), &i)| o == 1 && i == 0)
            .count();
        if hub_in == 1 && leaves_out == nv - 1 {
            return PatternShape::ReverseHub { spokes: ne };
        }
    }
    // Bow-tie: exactly one edge (L -> R) where L has fan-in >= 2 from
    // leaves and R has fan-out >= 2 to leaves, and nothing else.
    if let Some(bt) = detect_bow_tie(g, &vs) {
        return bt;
    }
    PatternShape::Other
}

fn detect_bow_tie(g: &Graph, vs: &[VertexId]) -> Option<PatternShape> {
    // The waist joins the only two internal vertices.
    let internal: Vec<VertexId> = vs.iter().copied().filter(|&v| g.degree(v) >= 3).collect();
    if internal.len() != 2 {
        return None;
    }
    let (a, b) = (internal[0], internal[1]);
    // A waist joined both ways has two candidate orientations, so try
    // both: vertex numbering must not decide the shape. At most one
    // passes — a passing orientation needs out-degree 1 on its left
    // vertex, which is the other orientation's fan-out vertex.
    bow_tie_with_waist(g, vs, a, b).or_else(|| bow_tie_with_waist(g, vs, b, a))
}

/// Bow-tie check with the waist edge oriented `l -> r`.
fn bow_tie_with_waist(
    g: &Graph,
    vs: &[VertexId],
    l: VertexId,
    r: VertexId,
) -> Option<PatternShape> {
    if !g.out_edges(l).any(|e| g.edge_dst(e) == r) {
        return None;
    }
    let fan_in = g.in_degree(l);
    let fan_out = g.out_degree(r);
    // Leaves must account for all other vertices, each degree 1.
    let leaves_ok = vs
        .iter()
        .filter(|&&v| v != l && v != r)
        .all(|&v| g.degree(v) == 1);
    let structure_ok = g.out_degree(l) == 1 && g.in_degree(r) == 1;
    (fan_in >= 2 && fan_out >= 2 && leaves_ok && structure_ok)
        .then_some(PatternShape::BowTie { fan_in, fan_out })
}

/// Detects deadheading evidence in a pattern: ordered vertex pairs with
/// traffic in one direction and none back ("significant traffic from node
/// 2 to node 4 via node 3, but not much return traffic"). Returns the
/// number of one-way pairs.
pub fn one_way_pairs(g: &Graph) -> usize {
    let mut count = 0;
    let vs: Vec<VertexId> = g.vertices().collect();
    for &a in &vs {
        for &b in &vs {
            if a >= b {
                continue;
            }
            let fwd = g.out_edges(a).any(|e| g.edge_dst(e) == b);
            let back = g.out_edges(b).any(|e| g.edge_dst(e) == a);
            if fwd != back {
                count += 1;
            }
        }
    }
    count
}

/// Interestingness of a mined pattern, per the §9 challenge ("a variety
/// of metrics have been developed ... similar metrics are needed for
/// graph mining"). Combines:
///
/// * **coverage** — support × pattern edges (how much of the network the
///   pattern explains);
/// * **structural surprise** — patterns beyond a single edge are rarer a
///   priori; scored by edges − 1;
/// * **shape bonus** — recognized transportation shapes (hubs, chains,
///   cycles, bow-ties) are actionable, `Other` is not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interestingness {
    pub coverage: f64,
    pub surprise: f64,
    pub shape_bonus: f64,
}

impl Interestingness {
    pub fn total(&self) -> f64 {
        self.coverage * (1.0 + self.surprise) * self.shape_bonus
    }
}

/// Scores a pattern with its observed support.
pub fn interestingness(g: &Graph, support: usize) -> Interestingness {
    let shape = classify(g);
    let shape_bonus = match shape {
        PatternShape::Other => 1.0,
        PatternShape::HubAndSpoke { .. } | PatternShape::ReverseHub { .. } => 1.5,
        PatternShape::Chain { .. } => 1.5,
        PatternShape::Cycle { .. } | PatternShape::BowTie { .. } => 2.0,
    };
    Interestingness {
        coverage: support as f64 * g.edge_count() as f64,
        surprise: (g.edge_count().saturating_sub(1)) as f64,
        shape_bonus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_graph::generate::shapes;
    use tnet_graph::graph::{ELabel, VLabel};

    #[test]
    fn classifies_canonical_shapes() {
        assert_eq!(
            classify(&shapes::hub_and_spoke(4, 0, 1)),
            PatternShape::HubAndSpoke { spokes: 4 }
        );
        assert_eq!(
            classify(&shapes::chain(3, 0, 1)),
            PatternShape::Chain { edges: 3 }
        );
        assert_eq!(
            classify(&shapes::cycle(5, 0, 1)),
            PatternShape::Cycle { edges: 5 }
        );
        assert_eq!(
            classify(&shapes::bow_tie(3, 0, 1, 2)),
            PatternShape::BowTie {
                fan_in: 3,
                fan_out: 3
            }
        );
    }

    /// Every vertex renumbering of `g`: vertices re-added in each
    /// permuted order, edges kept in insertion order.
    fn renumberings(g: &Graph) -> Vec<Graph> {
        let vs: Vec<VertexId> = g.vertices().collect();
        let mut perms: Vec<Vec<usize>> = vec![Vec::new()];
        for _ in 0..vs.len() {
            perms = perms
                .into_iter()
                .flat_map(|p| {
                    (0..vs.len())
                        .filter(|i| !p.contains(i))
                        .map(|i| {
                            let mut q = p.clone();
                            q.push(i);
                            q
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
        }
        perms
            .iter()
            .map(|order| {
                let mut h = Graph::new();
                let mut map = vec![VertexId(0); vs.len()];
                for &i in order {
                    map[i] = h.add_vertex(g.vertex_label(vs[i]));
                }
                for e in g.edges() {
                    let (s, d, l) = g.edge(e);
                    h.add_edge(map[s.index()], map[d.index()], l);
                }
                h
            })
            .collect()
    }

    #[test]
    fn bow_tie_is_independent_of_vertex_numbering() {
        // Two leaves into L, a waist joined both ways, two leaves out of
        // R: one orientation is a bow-tie, whichever vertex comes first.
        let mut two_way = Graph::new();
        let l = two_way.add_vertex(VLabel(0));
        let r = two_way.add_vertex(VLabel(0));
        for _ in 0..2 {
            let a = two_way.add_vertex(VLabel(0));
            two_way.add_edge(a, l, ELabel(1));
            let b = two_way.add_vertex(VLabel(0));
            two_way.add_edge(r, b, ELabel(1));
        }
        two_way.add_edge(l, r, ELabel(2));
        two_way.add_edge(r, l, ELabel(2));
        let expect = PatternShape::BowTie {
            fan_in: 3,
            fan_out: 3,
        };
        for h in renumberings(&two_way) {
            assert_eq!(classify(&h), expect, "{h:?}");
        }
        let fixture = shapes::bow_tie(3, 0, 1, 2);
        let expect = classify(&fixture);
        assert_eq!(
            expect,
            PatternShape::BowTie {
                fan_in: 3,
                fan_out: 3
            }
        );
        for h in renumberings(&fixture) {
            assert_eq!(classify(&h), expect, "{h:?}");
        }
    }

    #[test]
    fn reverse_hub() {
        let mut g = Graph::new();
        let hub = g.add_vertex(VLabel(0));
        for _ in 0..3 {
            let s = g.add_vertex(VLabel(0));
            g.add_edge(s, hub, ELabel(1));
        }
        assert_eq!(classify(&g), PatternShape::ReverseHub { spokes: 3 });
    }

    #[test]
    fn single_edge_is_chain() {
        assert_eq!(
            classify(&shapes::chain(1, 0, 1)),
            PatternShape::Chain { edges: 1 }
        );
    }

    #[test]
    fn two_cycle() {
        assert_eq!(
            classify(&shapes::cycle(2, 0, 1)),
            PatternShape::Cycle { edges: 2 }
        );
    }

    #[test]
    fn irregular_is_other() {
        let mut g = shapes::hub_and_spoke(3, 0, 1);
        let vs: Vec<_> = g.vertices().collect();
        g.add_edge(vs[1], vs[2], ELabel(1));
        assert_eq!(classify(&g), PatternShape::Other);
        assert_eq!(classify(&Graph::new()), PatternShape::Other);
    }

    #[test]
    fn one_way_detection() {
        // a -> b (one way), c <-> d (balanced).
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(0));
        let b = g.add_vertex(VLabel(0));
        let c = g.add_vertex(VLabel(0));
        let d = g.add_vertex(VLabel(0));
        g.add_edge(a, b, ELabel(0));
        g.add_edge(c, d, ELabel(0));
        g.add_edge(d, c, ELabel(0));
        assert_eq!(one_way_pairs(&g), 1);
    }

    #[test]
    fn interestingness_prefers_big_shaped_patterns() {
        let hub = shapes::hub_and_spoke(5, 0, 1);
        let edge = shapes::chain(1, 0, 1);
        // Same support: the 5-spoke hub must score far above one edge.
        let big = interestingness(&hub, 100).total();
        let small = interestingness(&edge, 100).total();
        assert!(big > small * 5.0);
        // But an extremely frequent edge can still beat a rare hub.
        let rare_hub = interestingness(&hub, 2).total();
        let common_edge = interestingness(&edge, 10_000).total();
        assert!(common_edge > rare_hub);
    }

    #[test]
    fn shape_names() {
        assert_eq!(classify(&shapes::cycle(3, 0, 1)).name(), "cycle");
        assert_eq!(PatternShape::Other.name(), "other");
    }
}
