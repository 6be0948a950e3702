//! Beam-search substructure discovery (the SUBDUE main loop).
//!
//! Keeps a value-ordered open list truncated to `beam_width`, repeatedly
//! expands the best substructure by one edge, and collects the best
//! `max_best` substructures seen anywhere in the search. Termination: the
//! open list empties, patterns reach `max_size`, or the expansion budget
//! (`limit`) runs out.

use crate::eval::{evaluate_counts, EvalMethod, GraphContext};
use crate::substructure::{
    expand_deferred, initial_substructures, DeferredChild, SubdueStats, Substructure,
};
use std::time::{Duration, Instant};
use tnet_exec::Exec;
use tnet_graph::graph::{EdgeId, Graph, VertexId};
use tnet_graph::view::GraphView;

/// Search configuration.
#[derive(Clone, Debug)]
pub struct SubdueConfig {
    /// Open-list width.
    pub beam_width: usize,
    /// How many best substructures to report.
    pub max_best: usize,
    /// Maximum pattern size in SUBDUE units (vertices + edges).
    pub max_size: usize,
    /// Maximum substructure expansions before stopping. `None` uses
    /// SUBDUE's own default of half the input graph's size
    /// (vertices + edges) — the knob that keeps beam search from
    /// exploring `beam^depth` candidates on dense graphs.
    pub limit: Option<usize>,
    pub eval: EvalMethod,
    /// Ignore substructures with fewer than this many disjoint instances
    /// (size-1 reporting noise filter; SUBDUE's minimum is 2 — a pattern
    /// seen once compresses nothing).
    pub min_instances: usize,
    /// Abort with [`SubdueError::MemoryBudgetExceeded`] when the
    /// estimated bytes held by the open list, best list, and the current
    /// expansion's children cross this budget. `None` disables the
    /// check. Same semantics as `tnet_fsg::FsgConfig::memory_budget`
    /// (Cook & Holder's beam search has no intrinsic bound on instance
    /// lists over dense graphs).
    pub memory_budget: Option<usize>,
}

impl Default for SubdueConfig {
    fn default() -> Self {
        SubdueConfig {
            beam_width: 4,
            max_best: 3,
            max_size: 15,
            limit: None,
            eval: EvalMethod::Mdl,
            min_instances: 2,
            memory_budget: None,
        }
    }
}

/// Discovery failure.
#[derive(Clone, Debug)]
pub enum SubdueError {
    /// The search working set was estimated at `estimated_bytes`, above
    /// the configured budget, after `expanded` expansions.
    MemoryBudgetExceeded {
        estimated_bytes: usize,
        budget: usize,
        expanded: usize,
    },
    /// The search's execution handle was cancelled (caller, deadline, or
    /// a sibling abort through a shared token) before termination.
    Cancelled,
    /// An armed failpoint (`subdue::beam_eval`) injected a fault.
    Fault(tnet_exec::failpoint::Fault),
}

impl std::fmt::Display for SubdueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubdueError::MemoryBudgetExceeded {
                estimated_bytes,
                budget,
                expanded,
            } => write!(
                f,
                "beam working set needs ~{estimated_bytes} bytes after {expanded} expansions, \
                 budget is {budget}"
            ),
            SubdueError::Cancelled => write!(f, "discovery run was cancelled"),
            SubdueError::Fault(fault) => write!(f, "{fault}"),
        }
    }
}

impl std::error::Error for SubdueError {}

/// Estimated heap bytes held by one substructure: its pattern graph plus
/// every instance's vertex/edge id lists. The formula mirrors
/// `tnet-fsg`'s candidate model so budgets are comparable across miners.
fn substructure_bytes(s: &Substructure) -> usize {
    let instance_ids: usize = s
        .instances
        .iter()
        .map(|i| i.vertices.len() + i.edges.len())
        .sum();
    256 + s.pattern.vertex_count() * 110
        + s.pattern.edge_count() * 48
        + s.instances.len() * 64
        + instance_ids * 8
}

/// [`substructure_bytes`] for a deferred child, as if it were
/// materialized — budget decisions must not depend on when instance
/// lists are built. Instance maps stay injective under expansion, so
/// every instance of a child has exactly the pattern's vertex and edge
/// counts and the eager formula collapses to a closed form.
fn deferred_bytes(c: &DeferredChild) -> usize {
    let (pv, pe) = (c.pattern.vertex_count(), c.pattern.edge_count());
    let n = c.instance_count();
    256 + pv * 110 + pe * 48 + n * 64 + n * (pv + pe) * 8
}

/// Discovery output.
#[derive(Clone, Debug)]
pub struct SubdueOutput {
    /// Best substructures, highest value first.
    pub best: Vec<Substructure>,
    /// Number of substructures expanded.
    pub expanded: usize,
    /// Number of candidate substructures evaluated.
    pub evaluated: usize,
    pub runtime: Duration,
    /// Instance-propagation counters from the expansions.
    pub stats: SubdueStats,
}

/// Runs SUBDUE discovery on a single graph on the current thread.
/// Equivalent to [`discover_with`] on a sequential pool.
///
/// # Errors
/// [`SubdueError::MemoryBudgetExceeded`] when the beam working set
/// outgrows the configured budget.
pub fn discover(g: &Graph, cfg: &SubdueConfig) -> Result<SubdueOutput, SubdueError> {
    discover_with(g, cfg, &Exec::sequential())
}

/// Runs SUBDUE discovery, scoring each expansion's candidate children
/// (instance filtering + MDL/size evaluation) across `exec`'s workers.
///
/// Freezes the input into a [`tnet_graph::FrozenGraph`] CSR snapshot
/// first (instance expansion walks adjacency heavily), runs the beam
/// search on its view, and translates the reported instances'
/// vertex/edge ids back into the caller's arena id space: freezing
/// numbers ids in live-id order, so dense id `i` is the `i`-th of
/// `g.vertices()` (or `g.edges()`) — for an already-compact arena the
/// translation is the identity. The
/// beam advances one expansion at a time and children are folded back in
/// expansion order, so the search trajectory — and the output — is
/// identical at any thread count and identical to [`discover_core`] on
/// the arena graph itself.
///
/// # Errors
/// - [`SubdueError::MemoryBudgetExceeded`] on a budget overrun; the
///   handle's token is cancelled first, mirroring the FSG contract.
/// - [`SubdueError::Cancelled`] when `exec` (or an ancestor handle) is
///   cancelled mid-search.
pub fn discover_with(
    g: &Graph,
    cfg: &SubdueConfig,
    exec: &Exec,
) -> Result<SubdueOutput, SubdueError> {
    let mut out = discover_core(&g.freeze().view(), cfg, exec)?;
    // Dense snapshot ids → the caller's arena ids. Live-id order is
    // ascending, so the instances' sorted id lists stay sorted.
    let live_v: Vec<VertexId> = g.vertices().collect();
    let live_e: Vec<EdgeId> = g.edges().collect();
    for sub in &mut out.best {
        for inst in &mut sub.instances {
            for v in inst.vertices.iter_mut().chain(&mut inst.map) {
                *v = live_v[v.index()];
            }
            for e in &mut inst.edges {
                *e = live_e[e.index()];
            }
        }
    }
    Ok(out)
}

/// The representation-generic beam search behind [`discover_with`]
/// (frozen snapshot). Passing the arena [`Graph`] walks the mutable
/// representation directly — the frozen-vs-arena differential and
/// benchmark use it as the oracle. Reported instance ids live in `g`'s
/// own id space.
pub fn discover_core<G: GraphView + Sync>(
    g: &G,
    cfg: &SubdueConfig,
    exec: &Exec,
) -> Result<SubdueOutput, SubdueError> {
    assert!(cfg.beam_width > 0 && cfg.max_best > 0);
    let start = Instant::now();
    // Phase timers stay on the sequential beam loop (children are scored
    // in parallel, but the timers wrap the region), so span registration
    // order — and `--trace` output — is thread-count independent.
    let span_total = exec.span().time("subdue");
    let span = span_total.span().clone();
    span.child("expand");
    span.child("beam_eval");
    let ctx = GraphContext::of(g);
    // SUBDUE's default expansion budget: half the input size.
    let limit = cfg.limit.unwrap_or_else(|| (g.size() / 2).max(8));
    let mut open: Vec<Substructure> = initial_substructures(g);
    for s in &mut open {
        s.value = 0.0; // single vertices never compress
    }
    let mut best: Vec<Substructure> = Vec::new();
    let mut expanded = 0usize;
    let mut evaluated = 0usize;
    let mut stats = SubdueStats::default();
    // Open and best lists only shrink via truncation; tracking their
    // estimate incrementally would drift, so recompute per expansion —
    // both lists are at most `beam_width + max_best` entries.
    let mut resident: usize = open.iter().map(substructure_bytes).sum();

    while let Some(parent) = open.pop() {
        if expanded >= limit {
            break;
        }
        if exec.is_cancelled() {
            return Err(SubdueError::Cancelled);
        }
        tnet_exec::failpoint::hit("subdue::beam_eval").map_err(SubdueError::Fault)?;
        if parent.size() + 1 > cfg.max_size {
            continue;
        }
        expanded += 1;
        let children = {
            let _t = span.time("expand");
            expand_deferred(g, &parent, &mut stats)
        };
        if let Some(budget) = cfg.memory_budget {
            let held: usize = children.iter().map(deferred_bytes).sum();
            let estimated_bytes = resident + held;
            if estimated_bytes > budget {
                // Stop siblings sharing this token before surfacing the
                // abort — the budget models one machine's memory.
                exec.cancel();
                return Err(SubdueError::MemoryBudgetExceeded {
                    estimated_bytes,
                    budget,
                    expanded,
                });
            }
        }
        // Score children in parallel (disjoint-instance counting and MDL
        // evaluation dominate the cost), then fold them into the beam and
        // best list sequentially in expansion order. Instance lists are
        // only materialized for children that actually enter the beam or
        // the best list — the insertion predicates below mirror
        // `consider_best` / `insert_beam` exactly, so skipped children
        // are precisely the ones those calls would have dropped anyway.
        let eval_timer = span.time("beam_eval");
        let scores = exec.par_map(&children, |child| {
            let n = child.disjoint_count(g, &parent);
            if n < cfg.min_instances {
                None
            } else {
                Some(evaluate_counts(
                    cfg.eval,
                    &ctx,
                    child.pattern.vertex_count(),
                    child.pattern.edge_count(),
                    n,
                ))
            }
        });
        drop(eval_timer);
        for (child, score) in children.into_iter().zip(scores) {
            evaluated += 1;
            let Some(value) = score else { continue };
            let wants_best = best.partition_point(|s| s.value >= value) < cfg.max_best;
            // Entering a full beam requires beating (or tying) the
            // current worst; inserting below it would evict the
            // newcomer itself immediately.
            let wants_beam = child.size() < cfg.max_size
                && (open.len() < cfg.beam_width || open.first().is_some_and(|s| s.value <= value));
            if !wants_best && !wants_beam {
                continue;
            }
            let instances = child.materialize(g, &parent);
            let sub = Substructure {
                pattern: child.pattern,
                instances,
                value,
            };
            if wants_best {
                consider_best(&mut best, &sub, cfg.max_best);
            }
            if wants_beam {
                insert_beam(&mut open, sub, cfg.beam_width);
            }
        }
        if cfg.memory_budget.is_some() {
            resident = open.iter().map(substructure_bytes).sum::<usize>()
                + best.iter().map(substructure_bytes).sum::<usize>();
        }
    }

    stats.record_into(exec.metrics());
    exec.metrics().add("subdue.expanded", expanded as u64);
    exec.metrics().add("subdue.evaluated", evaluated as u64);
    Ok(SubdueOutput {
        best,
        expanded,
        evaluated,
        runtime: start.elapsed(),
        stats,
    })
}

/// Keeps `open` ascending by value (pop takes the best) and truncated to
/// the beam width (dropping the worst from the front).
fn insert_beam(open: &mut Vec<Substructure>, sub: Substructure, beam: usize) {
    let pos = open.partition_point(|s| s.value <= sub.value);
    open.insert(pos, sub);
    if open.len() > beam {
        open.remove(0);
    }
}

/// Maintains the global best list (descending by value).
fn consider_best(best: &mut Vec<Substructure>, cand: &Substructure, max_best: usize) {
    let pos = best.partition_point(|s| s.value >= cand.value);
    if pos >= max_best {
        return;
    }
    best.insert(pos, cand.clone());
    best.truncate(max_best);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_graph::generate::{plant_patterns, shapes};
    use tnet_graph::graph::{ELabel, VLabel};
    use tnet_graph::iso::{are_isomorphic, has_embedding};

    fn repeated_edges_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            let a = g.add_vertex(VLabel(0));
            let b = g.add_vertex(VLabel(0));
            g.add_edge(a, b, ELabel(0));
        }
        g
    }

    #[test]
    fn finds_the_repeated_edge() {
        let g = repeated_edges_graph(10);
        let out = discover(&g, &SubdueConfig::default()).unwrap();
        assert!(!out.best.is_empty());
        let top = &out.best[0];
        assert_eq!(top.pattern.edge_count(), 1);
        assert_eq!(top.disjoint_count(), 10);
        assert!(top.value > 1.0, "compression ratio should exceed 1");
        assert!(out.expanded > 0 && out.evaluated > 0);
    }

    /// On an arena with tombstones, frozen ids differ from builder ids;
    /// the remap through live-id order must report exactly what the
    /// arena search itself reports.
    #[test]
    fn instances_come_back_in_builder_ids() {
        let mut g = Graph::new();
        for i in 0..12 {
            let a = g.add_vertex(VLabel(0));
            let b = g.add_vertex(VLabel(0));
            let e = g.add_edge(a, b, ELabel(0));
            match i % 3 {
                0 => g.remove_vertex(a),
                1 => g.remove_edge(e),
                _ => {}
            }
        }
        let cfg = SubdueConfig::default();
        let frozen = discover(&g, &cfg).unwrap();
        let arena = discover_core(&g, &cfg, &Exec::sequential()).unwrap();
        let ids = |out: &SubdueOutput| -> Vec<_> {
            out.best
                .iter()
                .flat_map(|s| &s.instances)
                .map(|i| (i.vertices.clone(), i.edges.clone(), i.map.clone()))
                .collect()
        };
        assert!(!frozen.best.is_empty());
        assert_eq!(ids(&frozen), ids(&arena));
    }

    #[test]
    fn finds_repeated_multi_edge_structure() {
        // 6 disjoint copies of a 3-spoke hub, no noise.
        let planted = plant_patterns(&[shapes::hub_and_spoke(3, 0, 1)], 6, 0, 1, 1);
        let cfg = SubdueConfig {
            beam_width: 6,
            max_best: 3,
            max_size: 8,
            eval: EvalMethod::Size,
            ..Default::default()
        };
        let out = discover(&planted.graph, &cfg).unwrap();
        let top = &out.best[0];
        assert!(
            are_isomorphic(&top.pattern, &shapes::hub_and_spoke(3, 0, 1)),
            "expected the full hub, got {:?}",
            top.pattern
        );
        assert_eq!(top.disjoint_count(), 6);
    }

    #[test]
    fn best_patterns_occur_in_graph() {
        let planted = plant_patterns(
            &[shapes::chain(3, 0, 2), shapes::cycle(3, 0, 1)],
            4,
            10,
            3,
            7,
        );
        let out = discover(
            &planted.graph,
            &SubdueConfig {
                eval: EvalMethod::Size,
                beam_width: 8,
                max_best: 5,
                ..Default::default()
            },
        )
        .unwrap();
        for s in &out.best {
            assert!(has_embedding(&s.pattern, &planted.graph));
            assert!(s.disjoint_count() >= 2);
        }
    }

    #[test]
    fn respects_max_size() {
        let g = repeated_edges_graph(6);
        let out = discover(
            &g,
            &SubdueConfig {
                max_size: 3, // one edge + two vertices
                ..Default::default()
            },
        )
        .unwrap();
        for s in &out.best {
            assert!(s.size() <= 3);
        }
    }

    #[test]
    fn respects_expansion_limit() {
        let planted = plant_patterns(&[shapes::hub_and_spoke(4, 0, 1)], 5, 30, 4, 3);
        let unlimited = discover(&planted.graph, &SubdueConfig::default()).unwrap();
        let limited = discover(
            &planted.graph,
            &SubdueConfig {
                limit: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(limited.expanded <= 2);
        assert!(limited.expanded <= unlimited.expanded);
    }

    #[test]
    fn empty_graph() {
        let out = discover(&Graph::new(), &SubdueConfig::default()).unwrap();
        assert!(out.best.is_empty());
        assert_eq!(out.expanded, 0);
    }

    #[test]
    fn memory_budget_aborts_and_cancels_pool() {
        let g = repeated_edges_graph(40);
        let cfg = SubdueConfig {
            memory_budget: Some(2_048),
            ..Default::default()
        };
        let exec = Exec::new(2);
        match discover_with(&g, &cfg, &exec) {
            Err(SubdueError::MemoryBudgetExceeded {
                estimated_bytes,
                budget,
                ..
            }) => {
                assert!(estimated_bytes > budget);
            }
            other => panic!("expected budget abort, got {other:?}"),
        }
        assert!(exec.is_cancelled(), "abort must cancel the handle's token");
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let g = repeated_edges_graph(10);
        let unbounded = discover(&g, &SubdueConfig::default()).unwrap();
        let bounded = discover(
            &g,
            &SubdueConfig {
                memory_budget: Some(1 << 30),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(unbounded.expanded, bounded.expanded);
        assert_eq!(unbounded.best.len(), bounded.best.len());
    }

    #[test]
    fn cancelled_handle_stops_the_search() {
        let g = repeated_edges_graph(10);
        let exec = Exec::new(2);
        exec.cancel();
        match discover_with(&g, &SubdueConfig::default(), &exec) {
            Err(SubdueError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn beam_insertion_order() {
        let mk = |v: f64| {
            let mut g = Graph::new();
            g.add_vertex(VLabel(0));
            Substructure {
                pattern: g,
                instances: vec![],
                value: v,
            }
        };
        let mut open = Vec::new();
        for v in [0.5, 2.0, 1.0, 3.0] {
            insert_beam(&mut open, mk(v), 3);
        }
        let values: Vec<f64> = open.iter().map(|s| s.value).collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0]); // 0.5 evicted, ascending
        assert_eq!(open.pop().unwrap().value, 3.0);
    }
}
