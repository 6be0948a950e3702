//! Subgraph monomorphism and graph isomorphism (VF2-style backtracking).
//!
//! Both miners reduce to the same primitive: *does pattern `P` occur in
//! graph `G`?* — where an occurrence is an injective mapping of `P`'s
//! vertices into `G`'s vertices that preserves vertex labels and maps every
//! directed labeled edge of `P` onto a distinct directed labeled edge of
//! `G` (§4 of the paper spells out this definition).
//!
//! The implementation is a VF2-flavoured backtracking search whose plan
//! follows VF2++ (Jüttner & Madarasi): match the most constrained part of
//! the pattern first, and reject candidates by counting before recursing.
//!
//! * **Core first.** The *core* is the set of pattern vertices of degree
//!   ≥ 2. It is matched first, in a connectivity-first order, so every
//!   core vertex after the first is constrained by an already-matched
//!   neighbour (unless the pattern is disconnected). The degree-1 leaves
//!   follow, smallest same-signature group first, so a rare leaf is tried
//!   before a run of interchangeable ones. A pattern without a core (a
//!   single edge) keeps the plain connectivity-first order.
//! * **Anchored candidates.** Candidates for a constrained vertex are
//!   drawn from the label-matching adjacency of an already-mapped anchor,
//!   not from all of `G`.
//! * **Label-count domination.** For every pattern vertex the plan counts
//!   the edges it needs per (edge label, direction, neighbour label); a
//!   candidate image with fewer such edges is rejected before recursion.
//!   On frozen targets each count is one binary search.
//!
//! Parallel edges are handled by multiplicity counting: if `P` has `k`
//! edges `(u, v, l)`, the image pair must carry at least `k` such edges.

use crate::graph::{ELabel, Graph, VLabel, VertexId};
use crate::hash::FxHashSet;
use crate::view::GraphView;

/// Sentinel for a pattern-vertex slot with no image (dead arena slots in
/// non-dense patterns). Never a valid target id: the arena is `u32`
/// indexed and a graph of `u32::MAX` vertices is unrepresentable.
const UNMAPPED: VertexId = VertexId(u32::MAX);

/// One occurrence of a pattern: a flat vector mapping pattern vertex `i`
/// (by arena index) to its target vertex.
///
/// Miners' pattern graphs are dense (append-only construction), so the
/// vector has no holes in practice; tombstoned pattern slots hold an
/// internal sentinel and are skipped by the accessors. The flat layout is
/// what makes embedding-list propagation cheap: no per-embedding hash
/// map, and extending by one appended pattern vertex is a `push`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Embedding {
    assignment: Vec<VertexId>,
}

impl Embedding {
    /// Image of pattern vertex `pv`.
    ///
    /// # Panics
    /// Panics if `pv` has no image (out of range or dead pattern slot).
    #[inline]
    pub fn image(&self, pv: VertexId) -> VertexId {
        let tv = self.assignment[pv.index()];
        debug_assert_ne!(tv, UNMAPPED, "image() of unmapped {pv:?}");
        tv
    }

    /// Image of pattern vertex `pv`, or `None` for unmapped slots.
    pub fn get(&self, pv: VertexId) -> Option<VertexId> {
        match self.assignment.get(pv.index()) {
            Some(&tv) if tv != UNMAPPED => Some(tv),
            _ => None,
        }
    }

    /// Number of mapped pattern vertices.
    pub fn len(&self) -> usize {
        self.target_vertices().count()
    }

    /// True if no pattern vertex is mapped.
    pub fn is_empty(&self) -> bool {
        self.target_vertices().next().is_none()
    }

    /// The set of target vertices used by this embedding.
    pub fn target_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.assignment.iter().copied().filter(|&v| v != UNMAPPED)
    }

    /// True if the two embeddings share any target vertex. Allocation-free
    /// linear scan — embeddings are pattern-sized (a handful of slots).
    pub fn overlaps(&self, other: &Embedding) -> bool {
        self.assignment
            .iter()
            .any(|&v| v != UNMAPPED && other.assignment.contains(&v))
    }

    /// The flat assignment slice (`[i]` = image of pattern vertex `i`).
    /// What the structure-of-arrays stores copy in and out.
    pub fn as_row(&self) -> &[VertexId] {
        &self.assignment
    }
}

/// Controls how many embeddings [`Matcher::find`] collects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Find {
    /// Stop after the first embedding (existence check).
    First,
    /// Collect at most this many embeddings.
    AtMost(usize),
    /// Collect all embeddings (beware combinatorial blow-up on symmetric
    /// patterns).
    All,
}

/// How many edges a pattern vertex needs of one kind: `count` edges with
/// label `elabel`, leaving the vertex (`out`) or entering it, whose far
/// endpoint has label `vlabel`. Any image must have at least as many.
#[derive(Clone, Copy, Debug)]
struct EdgeNeed {
    elabel: ELabel,
    out: bool,
    vlabel: VLabel,
    count: usize,
}

/// One edge check between the vertex placed at some depth and an
/// earlier-placed vertex: the image pair must carry `count` edges with
/// label `elabel`, from the new vertex to the earlier one when `out`.
#[derive(Clone, Copy, Debug)]
struct PairNeed {
    /// Depth (position in the match order) of the earlier vertex.
    earlier: usize,
    elabel: ELabel,
    out: bool,
    count: usize,
}

struct SearchPlan {
    /// Pattern vertices in match order.
    order: Vec<VertexId>,
    /// For `order[i]` (i > 0): edges to already-matched pattern vertices,
    /// as `(depth of the matched vertex, label, outgoing_from_new)` with
    /// multiplicity.
    back_edges: Vec<Vec<(usize, ELabel, bool)>>,
    /// Anchor for candidate generation: `Some((depth of a matched vertex,
    /// label, new_is_src))` — the new vertex must be adjacent to it.
    anchor: Vec<Option<(usize, ELabel, bool)>>,
    /// Symmetry breaking for "twin" leaves — pattern vertices of degree 1
    /// hanging off the same anchor with identical labels/direction are
    /// interchangeable, so their images are forced into ascending id
    /// order. `twin_prev[i] = Some(j)` requires
    /// `assignment[i] > assignment[j]`. Without this, a failing match of
    /// a k-spoke hub explores k! equivalent orderings.
    twin_prev: Vec<Option<usize>>,
    /// For anchor-less depths (the search root, plus each new component
    /// of a disconnected pattern): the label and direction of one pattern
    /// edge incident to `order[depth]`, or `None` for isolated vertices.
    /// Any image of that vertex must carry a same-direction edge with
    /// this label, so candidate roots are harvested from the target's
    /// matching edge endpoints instead of scanning every vertex — a pure
    /// necessary-condition filter that leaves the embedding enumeration
    /// (and its order) unchanged.
    root_edge: Vec<Option<(ELabel, bool)>>,
}

/// Orders `pool` connectivity-first: the highest-degree vertex first (it
/// constrains the search most), then repeatedly the unplaced vertex with
/// the most edges into the placed set (any unplaced vertex of a
/// disconnected pool when none has one). Ties go to the last candidate
/// in `pool` order.
fn connectivity_first(pattern: &Graph, pool: &[VertexId]) -> Vec<VertexId> {
    let slots = pattern.vertices().last().map_or(0, |v| v.index() + 1);
    let mut placed = vec![false; slots];
    let mut order = Vec::with_capacity(pool.len());
    let mut left: Vec<VertexId> = pool.to_vec();
    if let Some(i) = (0..left.len()).max_by_key(|&i| pattern.degree(left[i])) {
        let start = left.remove(i);
        order.push(start);
        placed[start.index()] = true;
    }
    while !left.is_empty() {
        let i = (0..left.len())
            .max_by_key(|&i| {
                let v = left[i];
                pattern
                    .incident_edges(v)
                    .filter(|&e| {
                        let (s, d, _) = pattern.edge(e);
                        let other = if s == v { d } else { s };
                        placed[other.index()]
                    })
                    .count()
            })
            .expect("unplaced vertex must exist");
        let next = left.remove(i);
        order.push(next);
        placed[next.index()] = true;
    }
    order
}

/// The match order: the core (degree ≥ 2) connectivity-first, then the
/// degree-1 leaves, smallest same-signature group first (ties by first
/// appearance), then isolated vertices. A leaf's signature is its
/// neighbour, edge direction, edge label and vertex label — the leaves
/// twin-leaf symmetry breaking treats as interchangeable. Without a core,
/// plain connectivity-first.
fn match_order(pattern: &Graph) -> Vec<VertexId> {
    let all: Vec<VertexId> = pattern.vertices().collect();
    let core: Vec<VertexId> = all
        .iter()
        .copied()
        .filter(|&v| pattern.degree(v) >= 2)
        .collect();
    if core.is_empty() {
        return connectivity_first(pattern, &all);
    }
    let mut order = connectivity_first(pattern, &core);
    let leaves: Vec<VertexId> = all
        .iter()
        .copied()
        .filter(|&v| pattern.degree(v) == 1)
        .collect();
    let sigs: Vec<_> = leaves
        .iter()
        .map(|&v| {
            let e = pattern
                .incident_edges(v)
                .next()
                .expect("a leaf has an edge");
            let (s, d, l) = pattern.edge(e);
            let (other, out) = if s == v { (d, true) } else { (s, false) };
            (other, out, l, pattern.vertex_label(v))
        })
        .collect();
    // (group size, first member's position, own position): group members
    // stay together and in vertex order.
    let mut keyed: Vec<(usize, usize, usize)> = (0..leaves.len())
        .map(|i| {
            let first = sigs.iter().position(|s| *s == sigs[i]).unwrap_or(i);
            let size = sigs.iter().filter(|s| **s == sigs[i]).count();
            (size, first, i)
        })
        .collect();
    keyed.sort_unstable();
    order.extend(keyed.into_iter().map(|(_, _, i)| leaves[i]));
    order.extend(all.iter().copied().filter(|&v| pattern.degree(v) == 0));
    order
}

fn build_plan(pattern: &Graph) -> SearchPlan {
    let order = match_order(pattern);
    let slots = order.iter().map(|v| v.index() + 1).max().unwrap_or(0);
    let mut pos = vec![usize::MAX; slots];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    let mut back_edges = vec![Vec::new(); order.len()];
    let mut anchor = vec![None; order.len()];
    for (i, &v) in order.iter().enumerate() {
        for e in pattern.out_edges(v) {
            let (_, d, l) = pattern.edge(e);
            if pos[d.index()] < i {
                back_edges[i].push((pos[d.index()], l, true));
            }
        }
        for e in pattern.in_edges(v) {
            let (s, _, l) = pattern.edge(e);
            if pos[s.index()] < i {
                back_edges[i].push((pos[s.index()], l, false));
            }
        }
        // Back edge (m, l, true) is the pattern edge v -> order[m]:
        // candidates for v are target vertices with an `l` edge into
        // image(order[m]).
        anchor[i] = back_edges[i].first().copied();
    }
    // Twin detection: degree-1 vertices with identical
    // (anchor, direction, edge label, vertex label) signatures.
    let mut twin_prev = vec![None; order.len()];
    let signature = |i: usize| -> Option<(usize, bool, ELabel, VLabel)> {
        let v = order[i];
        if pattern.degree(v) != 1 || back_edges[i].len() != 1 {
            return None;
        }
        let (m, l, out) = back_edges[i][0];
        Some((m, out, l, pattern.vertex_label(v)))
    };
    for (i, twin) in twin_prev.iter_mut().enumerate().skip(1) {
        let Some(sig) = signature(i) else { continue };
        for j in (1..i).rev() {
            if signature(j) == Some(sig) {
                *twin = Some(j);
                break;
            }
        }
    }
    let root_edge = order
        .iter()
        .zip(&anchor)
        .map(|(&v, a)| {
            if a.is_some() {
                return None;
            }
            pattern
                .out_edges(v)
                .next()
                .map(|e| (pattern.edge_label(e), true))
                .or_else(|| {
                    pattern
                        .in_edges(v)
                        .next()
                        .map(|e| (pattern.edge_label(e), false))
                })
        })
        .collect();
    SearchPlan {
        order,
        back_edges,
        anchor,
        twin_prev,
        root_edge,
    }
}

/// Sorts `items` and collapses equal runs into `(item, run length)`.
fn run_lengths<T: Ord + Copy>(mut items: Vec<T>) -> Vec<(T, usize)> {
    items.sort_unstable();
    let mut out: Vec<(T, usize)> = Vec::with_capacity(items.len());
    for x in items {
        match out.last_mut() {
            Some((y, n)) if *y == x => *n += 1,
            _ => out.push((x, 1)),
        }
    }
    out
}

/// True if the target carries at least `need` edges `ts -> td` labeled `l`.
fn has_pair<G: GraphView>(target: &G, ts: VertexId, td: VertexId, l: ELabel, need: usize) -> bool {
    if need == 1 {
        return target.has_edge_labeled(ts, td, l);
    }
    let mut have = 0;
    target.visit_out_matching(ts, l, target.vertex_label(td), &mut |_, d| {
        have += usize::from(d == td)
    });
    have >= need
}

/// Reusable matcher for one pattern against many targets.
///
/// Building the matcher precomputes the pattern's search plan and label
/// requirements; [`Matcher::find`] then runs against any target graph.
pub struct Matcher {
    plan: SearchPlan,
    vlabels: Vec<VLabel>,
    /// Label-count domination: `needs[need_off[i]..need_off[i + 1]]` are
    /// the edge kinds `order[i]` needs, with multiplicity.
    needs: Vec<EdgeNeed>,
    need_off: Vec<usize>,
    /// Edge checks against earlier-matched vertices at each depth (self
    /// loops included, with `earlier` = the depth itself), grouped by
    /// (vertex, label, direction) with multiplicity. The anchor edge is
    /// left out when one target edge suffices: candidates are drawn from
    /// it.
    pairs: Vec<Vec<PairNeed>>,
    /// Flat-assignment slot count: 1 + the largest pattern vertex index.
    slots: usize,
}

impl Matcher {
    /// Prepares a matcher for `pattern`. Cheap for the small patterns the
    /// miners produce; reuse it across transactions.
    pub fn new(pattern: &Graph) -> Self {
        let plan = build_plan(pattern);
        let vlabels: Vec<VLabel> = plan
            .order
            .iter()
            .map(|&v| pattern.vertex_label(v))
            .collect();
        let slots = plan.order.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        // One (depth, edge kind) entry per incident pattern edge end; a
        // self-loop is both an out- and an in-edge of its vertex, as in
        // the target's adjacency.
        let mut ends: Vec<(usize, ELabel, bool, VLabel)> =
            Vec::with_capacity(2 * pattern.edge_count());
        for (i, &v) in plan.order.iter().enumerate() {
            for e in pattern.out_edges(v) {
                let (_, d, l) = pattern.edge(e);
                ends.push((i, l, true, pattern.vertex_label(d)));
            }
            for e in pattern.in_edges(v) {
                let (s, _, l) = pattern.edge(e);
                ends.push((i, l, false, pattern.vertex_label(s)));
            }
        }
        let mut needs = Vec::new();
        let mut need_off = vec![0; plan.order.len() + 1];
        for ((depth, elabel, out, vlabel), count) in run_lengths(ends) {
            needs.push(EdgeNeed {
                elabel,
                out,
                vlabel,
                count,
            });
            need_off[depth + 1] = needs.len();
        }
        for i in 0..plan.order.len() {
            need_off[i + 1] = need_off[i + 1].max(need_off[i]);
        }
        let pairs = plan
            .order
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mut back = plan.back_edges[i].clone();
                // Self-loops connect a vertex to itself, not to an earlier
                // one, so they are never back edges; check them here.
                back.extend(
                    pattern
                        .out_edges(v)
                        .map(|e| pattern.edge(e))
                        .filter(|&(_, d, _)| d == v)
                        .map(|(_, _, l)| (i, l, true)),
                );
                run_lengths(back)
                    .into_iter()
                    .filter(|&((m, l, out), count)| {
                        count > 1 || plan.anchor[i] != Some((m, l, out))
                    })
                    .map(|((earlier, elabel, out), count)| PairNeed {
                        earlier,
                        elabel,
                        out,
                        count,
                    })
                    .collect()
            })
            .collect();
        Matcher {
            plan,
            vlabels,
            needs,
            need_off,
            pairs,
            slots,
        }
    }

    /// Searches for embeddings of the pattern in `target`.
    ///
    /// Embeddings are enumerated *up to twin-leaf permutation*:
    /// interchangeable degree-1 pattern vertices (same anchor, labels,
    /// direction) are assigned in ascending target-id order, so each
    /// unordered choice of their images appears exactly once. Existence,
    /// supports, and disjoint counts are unaffected; only the raw
    /// embedding multiplicity of symmetric patterns is reduced.
    ///
    /// The target may be any [`GraphView`]: the builder arena or a frozen
    /// [`crate::frozen::TxnRef`] (a packed transaction, or a single
    /// graph's [`crate::frozen::FrozenGraph::view`]).
    pub fn find<G: GraphView>(&self, target: &G, mode: Find) -> Vec<Embedding> {
        self.search(target, mode, true, &mut 0)
    }

    /// Searches for embeddings **without** twin-leaf symmetry breaking:
    /// every distinct vertex mapping is enumerated. This is the mode
    /// embedding-list propagation requires — a stored list must contain
    /// *all* occurrences, or restricting a child occurrence to the parent
    /// could land on an embedding the pruned search never emitted.
    pub fn find_unpruned<G: GraphView>(&self, target: &G, mode: Find) -> Vec<Embedding> {
        self.search(target, mode, false, &mut 0)
    }

    /// [`Matcher::find_unpruned`] that also adds the number of search
    /// nodes it visited to `nodes` — a deterministic measure of the
    /// search's effort, independent of timing noise.
    pub fn find_unpruned_counting<G: GraphView>(
        &self,
        target: &G,
        mode: Find,
        nodes: &mut u64,
    ) -> Vec<Embedding> {
        self.search(target, mode, false, nodes)
    }

    /// True if at least one embedding exists.
    pub fn matches<G: GraphView>(&self, target: &G) -> bool {
        self.matches_counting(target, &mut 0)
    }

    /// [`Matcher::matches`] that also adds the number of search nodes it
    /// visited to `nodes`.
    pub fn matches_counting<G: GraphView>(&self, target: &G, nodes: &mut u64) -> bool {
        !self.search(target, Find::First, true, nodes).is_empty()
    }

    fn search<G: GraphView>(
        &self,
        target: &G,
        mode: Find,
        prune_twins: bool,
        nodes: &mut u64,
    ) -> Vec<Embedding> {
        let limit = match mode {
            Find::First => 1,
            Find::AtMost(n) => n,
            Find::All => usize::MAX,
        };
        if limit == 0 || self.plan.order.is_empty() {
            return Vec::new();
        }
        let mut cx = Search {
            target,
            assignment: Vec::with_capacity(self.plan.order.len()),
            used: FxHashSet::default(),
            candidates: vec![Vec::new(); self.plan.order.len()],
            results: Vec::new(),
            limit,
            prune_twins,
            nodes: 0,
        };
        self.recurse(&mut cx);
        *nodes += cx.nodes;
        cx.results
    }

    fn feasible<G: GraphView>(
        &self,
        target: &G,
        assignment: &[VertexId],
        depth: usize,
        c: VertexId,
    ) -> bool {
        if target.vertex_label(c) != self.vlabels[depth] {
            return false;
        }
        for n in &self.needs[self.need_off[depth]..self.need_off[depth + 1]] {
            let have = if n.out {
                target.count_out_matching(c, n.elabel, n.vlabel)
            } else {
                target.count_in_matching(c, n.elabel, n.vlabel)
            };
            if have < n.count {
                return false;
            }
        }
        self.pairs[depth].iter().all(|p| {
            let tm = if p.earlier == depth {
                c
            } else {
                assignment[p.earlier]
            };
            let (ts, td) = if p.out { (c, tm) } else { (tm, c) };
            has_pair(target, ts, td, p.elabel, p.count)
        })
    }

    fn recurse<G: GraphView>(&self, cx: &mut Search<'_, G>) -> bool {
        cx.nodes += 1;
        let depth = cx.assignment.len();
        if depth == self.plan.order.len() {
            let mut flat = vec![UNMAPPED; self.slots];
            for (i, &pv) in self.plan.order.iter().enumerate() {
                flat[pv.index()] = cx.assignment[i];
            }
            cx.results.push(Embedding { assignment: flat });
            return cx.results.len() >= cx.limit;
        }
        let target = cx.target;
        // One candidate buffer per depth, reused across sibling nodes.
        let mut candidates = std::mem::take(&mut cx.candidates[depth]);
        candidates.clear();
        match self.plan.anchor[depth] {
            Some((m, l, out)) => {
                // Label-indexed adjacency (binary-searched on frozen
                // targets) with the new vertex's label folded in: the
                // same candidates `feasible` would keep, visited in
                // ascending edge-id order.
                let tm = cx.assignment[m];
                if out {
                    // pattern edge new->m: candidates are sources of
                    // in-edges of image(m) with label l.
                    target.visit_in_matching(tm, l, self.vlabels[depth], &mut |_, s| {
                        candidates.push(s)
                    });
                } else {
                    target.visit_out_matching(tm, l, self.vlabels[depth], &mut |_, d| {
                        candidates.push(d)
                    });
                }
                // Parallel target edges repeat an endpoint; keep its first
                // occurrence. A target known to be simple has none.
                if !target.is_simple() {
                    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
                    candidates.retain(|&c| seen.insert(c));
                }
            }
            None => match self.plan.root_edge[depth] {
                // Harvest roots from matching-label edge endpoints and
                // visit them in ascending id order — the same order (and
                // a subset) of the full vertex scan; vertices lacking the
                // required incident edge could never complete an
                // embedding.
                Some((l, out)) => {
                    candidates.extend(target.edges().filter(|&e| target.edge_label(e) == l).map(
                        |e| {
                            if out {
                                target.edge_src(e)
                            } else {
                                target.edge_dst(e)
                            }
                        },
                    ));
                    candidates.sort_unstable();
                    candidates.dedup();
                }
                None => candidates.extend(target.vertices()),
            },
        }
        let twin_floor = if cx.prune_twins {
            self.plan.twin_prev[depth].map(|j| cx.assignment[j])
        } else {
            None
        };
        let mut done = false;
        for &c in &candidates {
            // Interchangeable twin leaves: only ascending-id assignments
            // (each unordered choice of images is explored once).
            if cx.used.contains(&c) || twin_floor.is_some_and(|f| c <= f) {
                continue;
            }
            if !self.feasible(target, &cx.assignment, depth, c) {
                continue;
            }
            cx.assignment.push(c);
            cx.used.insert(c);
            done = self.recurse(cx);
            cx.assignment.pop();
            cx.used.remove(&c);
            if done {
                break;
            }
        }
        cx.candidates[depth] = candidates;
        done
    }
}

/// Mutable state of one [`Matcher`] search.
struct Search<'t, G> {
    target: &'t G,
    /// Images of `order[0..depth]`.
    assignment: Vec<VertexId>,
    used: FxHashSet<VertexId>,
    /// Candidate buffer per depth.
    candidates: Vec<Vec<VertexId>>,
    results: Vec<Embedding>,
    limit: usize,
    prune_twins: bool,
    /// Search nodes visited (one per `recurse` call).
    nodes: u64,
}

/// How a child pattern grows its parent by exactly one edge.
///
/// Miners build candidates as `parent.clone()` plus one appended edge
/// (and, for tree growth, one appended vertex), so the delta is always one
/// of three shapes. [`derive_extension`] recovers it from the graphs;
/// [`extend_embedding_row`] replays it against a stored parent occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Extension {
    /// New edge `src -> new_vertex`, where the new vertex (pattern slot =
    /// parent vertex count) has label `vlabel` and degree 1.
    NewDst {
        /// Parent-pattern source of the new edge.
        src: VertexId,
        /// Label of the new edge.
        elabel: ELabel,
        /// Label of the appended vertex.
        vlabel: VLabel,
    },
    /// New edge `new_vertex -> dst`; mirror of [`Extension::NewDst`].
    NewSrc {
        /// Parent-pattern destination of the new edge.
        dst: VertexId,
        /// Label of the new edge.
        elabel: ELabel,
        /// Label of the appended vertex.
        vlabel: VLabel,
    },
    /// Cycle-closing edge `src -> dst` between existing parent vertices
    /// (`src == dst` for a self-loop).
    Close {
        /// Parent-pattern source of the new edge.
        src: VertexId,
        /// Parent-pattern destination of the new edge.
        dst: VertexId,
        /// Label of the new edge.
        elabel: ELabel,
    },
}

/// Recovers the one-edge growth step from a parent with
/// `parent_vertices` vertices to `child`, or `None` if `child` is not a
/// dense append-only extension of such a parent (tombstoned slots,
/// wrong vertex count, or a new vertex with degree != 1).
///
/// Correctness relies on the miners' construction discipline: the child is
/// `parent.clone()` with one `add_edge` (and at most one preceding
/// `add_vertex`), so the new edge is the last edge id and the new vertex,
/// if any, is slot `parent_vertices`.
pub fn derive_extension(parent_vertices: usize, child: &Graph) -> Option<Extension> {
    let vc = child.vertex_count();
    let ec = child.edge_count();
    // Dense check: no tombstones, so arena indices equal counts.
    if child.vertices().last().map(|v| v.index()) != Some(vc.checked_sub(1)?) {
        return None;
    }
    let last_edge = child.edges().last()?;
    if last_edge.index() != ec - 1 {
        return None;
    }
    let (s, d, elabel) = child.edge(last_edge);
    if vc == parent_vertices {
        return Some(Extension::Close {
            src: s,
            dst: d,
            elabel,
        });
    }
    if vc != parent_vertices + 1 {
        return None;
    }
    let nv = VertexId(parent_vertices as u32);
    if child.degree(nv) != 1 {
        return None;
    }
    let vlabel = child.vertex_label(nv);
    if d == nv && s != nv {
        Some(Extension::NewDst {
            src: s,
            elabel,
            vlabel,
        })
    } else if s == nv && d != nv {
        Some(Extension::NewSrc {
            dst: d,
            elabel,
            vlabel,
        })
    } else {
        None
    }
}

/// Row width of the children `ext` produces from a parent row of width
/// `parent_stride`: one appended slot for the `New*` shapes, unchanged
/// for `Close`.
#[inline]
pub fn child_stride(parent_stride: usize, ext: &Extension) -> usize {
    match ext {
        Extension::Close { .. } => parent_stride,
        _ => parent_stride + 1,
    }
}

/// Extends one parent occurrence by `ext`. The parent is a flat
/// assignment slice (`row[i]` = image of pattern vertex `i`); every child
/// occurrence is appended to `out` as [`child_stride`] contiguous ids.
/// Streaming one contiguous buffer is what lets the miners' stores avoid
/// per-embedding heap vectors.
///
/// With an **unpruned** parent list (see [`Matcher::find_unpruned`]) this
/// enumerates each child occurrence exactly once: distinct
/// `(parent row, new endpoint)` pairs yield distinct children, and
/// parallel target edges to the same endpoint are deduplicated in place
/// (a scan skipped on targets known to be simple, see
/// [`GraphView::is_simple`], which have no parallel edges).
///
/// Candidate edges come from [`GraphView::visit_out_matching`] /
/// [`GraphView::visit_in_matching`]: a linear label scan on the arena, a
/// binary-searched `(ELabel, VLabel)` slice on frozen targets. Both visit
/// matches in ascending edge-id order, so the emitted order is
/// representation-independent.
pub fn extend_embedding_row<G: GraphView>(
    target: &G,
    row: &[VertexId],
    ext: &Extension,
    out: &mut Vec<VertexId>,
) {
    // Parallel edges reach the same endpoint; a child is emitted once by
    // scanning the children already emitted for this row. That scan is
    // quadratic in a hub's spoke count, so it runs only when the target
    // may repeat a (src, dst, label) triple.
    let dedup = !target.is_simple();
    match *ext {
        Extension::NewDst {
            src,
            elabel,
            vlabel,
        } => {
            let ts = row[src.index()];
            debug_assert_ne!(ts, UNMAPPED);
            let start = out.len();
            let stride = row.len() + 1;
            target.visit_out_matching(ts, elabel, vlabel, &mut |_, td| {
                if row.contains(&td) {
                    return;
                }
                if dedup
                    && out[start..]
                        .chunks_exact(stride)
                        .any(|c| c[stride - 1] == td)
                {
                    return;
                }
                out.extend_from_slice(row);
                out.push(td);
            });
        }
        Extension::NewSrc {
            dst,
            elabel,
            vlabel,
        } => {
            let td = row[dst.index()];
            debug_assert_ne!(td, UNMAPPED);
            let start = out.len();
            let stride = row.len() + 1;
            target.visit_in_matching(td, elabel, vlabel, &mut |_, ts| {
                if row.contains(&ts) {
                    return;
                }
                if dedup
                    && out[start..]
                        .chunks_exact(stride)
                        .any(|c| c[stride - 1] == ts)
                {
                    return;
                }
                out.extend_from_slice(row);
                out.push(ts);
            });
        }
        Extension::Close { src, dst, elabel } => {
            // Pattern graphs are simple per (src, dst, label) at the point
            // of closure (miners check before adding), so existence of one
            // matching target edge suffices — multiplicity is only needed
            // for parallel pattern edges, which closure never creates.
            let ts = row[src.index()];
            let td = row[dst.index()];
            if target.has_edge_labeled(ts, td, elabel) {
                out.extend_from_slice(row);
            }
        }
    }
}

/// Existence check: does `pattern` occur in `target` (per §4's definition)?
pub fn has_embedding<G: GraphView>(pattern: &Graph, target: &G) -> bool {
    if pattern.vertex_count() > target.vertex_count() || pattern.edge_count() > target.edge_count()
    {
        return false;
    }
    Matcher::new(pattern).matches(target)
}

/// All embeddings of `pattern` in `target` (use with care on symmetric
/// patterns in dense targets).
pub fn find_embeddings<G: GraphView>(pattern: &Graph, target: &G, mode: Find) -> Vec<Embedding> {
    Matcher::new(pattern).find(target, mode)
}

/// Exact isomorphism of two labeled directed multigraphs, decided by the
/// VF2 matcher: the oracle the canonical code is tested against. The
/// miners key classes by [`crate::canon::CanonicalCode`] instead.
pub fn are_isomorphic(a: &Graph, b: &Graph) -> bool {
    if a.vertex_count() != b.vertex_count()
        || a.edge_count() != b.edge_count()
        || a.vertex_label_histogram() != b.vertex_label_histogram()
        || a.edge_label_histogram() != b.edge_label_histogram()
    {
        return false;
    }
    // A monomorphism between same-size graphs with equal edge counts is a
    // bijection on vertices; equal per-pair multiplicities then force edge
    // bijectivity too (each pair's multiplicity in b is >= that of a, and
    // totals agree).
    has_embedding(a, b)
}

/// Greedily selects a maximal set of pairwise vertex-disjoint embeddings
/// from `embeddings`, preferring earlier entries. SUBDUE counts pattern
/// instances "without allowing overlap" — this is that filter.
pub fn disjoint_subset(embeddings: &[Embedding]) -> Vec<Embedding> {
    let mut used: FxHashSet<VertexId> = FxHashSet::default();
    let mut out = Vec::new();
    for emb in embeddings {
        if emb.target_vertices().any(|v| used.contains(&v)) {
            continue;
        }
        used.extend(emb.target_vertices());
        out.push(emb.clone());
    }
    out
}

/// Counts vertex-disjoint occurrences of `pattern` in `target` by greedy
/// selection over all embeddings.
pub fn count_disjoint<G: GraphView>(pattern: &Graph, target: &G) -> usize {
    let all = find_embeddings(pattern, target, Find::All);
    disjoint_subset(&all).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ELabel, VLabel};

    fn path(labels: &[u32], elabels: &[u32]) -> Graph {
        assert_eq!(labels.len(), elabels.len() + 1);
        let mut g = Graph::new();
        let vs: Vec<VertexId> = labels.iter().map(|&l| g.add_vertex(VLabel(l))).collect();
        for (i, &el) in elabels.iter().enumerate() {
            g.add_edge(vs[i], vs[i + 1], ELabel(el));
        }
        g
    }

    #[test]
    fn path_in_path() {
        let p = path(&[0, 0], &[5]);
        let t = path(&[0, 0, 0], &[5, 5]);
        assert!(has_embedding(&p, &t));
        let all = find_embeddings(&p, &t, Find::All);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn label_mismatch_blocks() {
        let p = path(&[0, 0], &[5]);
        let t = path(&[0, 0], &[6]);
        assert!(!has_embedding(&p, &t));
        let t2 = path(&[0, 1], &[5]);
        assert!(!has_embedding(&p, &t2));
    }

    #[test]
    fn direction_matters() {
        let mut t = Graph::new();
        let a = t.add_vertex(VLabel(0));
        let b = t.add_vertex(VLabel(0));
        t.add_edge(a, b, ELabel(0));
        let mut p = Graph::new();
        let x = p.add_vertex(VLabel(0));
        let y = p.add_vertex(VLabel(0));
        p.add_edge(y, x, ELabel(0)); // same shape, same direction class
        assert!(has_embedding(&p, &t)); // x:=b, y:=a works
                                        // but a 2-cycle pattern must not embed in a single directed edge
        let mut c = Graph::new();
        let u = c.add_vertex(VLabel(0));
        let v = c.add_vertex(VLabel(0));
        c.add_edge(u, v, ELabel(0));
        c.add_edge(v, u, ELabel(0));
        assert!(!has_embedding(&c, &t));
    }

    #[test]
    fn injective_vertices() {
        // Pattern: two distinct out-edges from a hub; target has only one.
        let mut p = Graph::new();
        let h = p.add_vertex(VLabel(0));
        let a = p.add_vertex(VLabel(0));
        let b = p.add_vertex(VLabel(0));
        p.add_edge(h, a, ELabel(0));
        p.add_edge(h, b, ELabel(0));
        let t = path(&[0, 0], &[0]);
        assert!(!has_embedding(&p, &t));
    }

    #[test]
    fn parallel_edge_multiplicity() {
        let mut p = Graph::new();
        let a = p.add_vertex(VLabel(0));
        let b = p.add_vertex(VLabel(0));
        p.add_edge(a, b, ELabel(1));
        p.add_edge(a, b, ELabel(1));
        // Target with a single such edge: no match.
        let mut t1 = Graph::new();
        let x = t1.add_vertex(VLabel(0));
        let y = t1.add_vertex(VLabel(0));
        t1.add_edge(x, y, ELabel(1));
        assert!(!has_embedding(&p, &t1));
        // Target with two parallel edges: match.
        t1.add_edge(x, y, ELabel(1));
        assert!(has_embedding(&p, &t1));
    }

    #[test]
    fn hub_and_spoke_embeds() {
        // 3-spoke hub pattern inside a 5-spoke hub target.
        let mut p = Graph::new();
        let h = p.add_vertex(VLabel(0));
        for _ in 0..3 {
            let s = p.add_vertex(VLabel(0));
            p.add_edge(h, s, ELabel(2));
        }
        let mut t = Graph::new();
        let th = t.add_vertex(VLabel(0));
        for _ in 0..5 {
            let s = t.add_vertex(VLabel(0));
            t.add_edge(th, s, ELabel(2));
        }
        assert!(has_embedding(&p, &t));
        // Twin-leaf symmetry breaking: C(5,3) = 10 unordered spoke
        // choices (not 5*4*3 = 60 ordered ones).
        assert_eq!(find_embeddings(&p, &t, Find::All).len(), 10);
        assert_eq!(find_embeddings(&p, &t, Find::AtMost(7)).len(), 7);
    }

    #[test]
    fn unpruned_enumerates_twin_permutations() {
        // 2-spoke hub in a 3-spoke hub: pruned = C(3,2) = 3 unordered
        // choices; unpruned = 3*2 = 6 ordered assignments.
        let mut p = Graph::new();
        let h = p.add_vertex(VLabel(0));
        for _ in 0..2 {
            let s = p.add_vertex(VLabel(0));
            p.add_edge(h, s, ELabel(2));
        }
        let mut t = Graph::new();
        let th = t.add_vertex(VLabel(0));
        for _ in 0..3 {
            let s = t.add_vertex(VLabel(0));
            t.add_edge(th, s, ELabel(2));
        }
        let m = Matcher::new(&p);
        assert_eq!(m.find(&t, Find::All).len(), 3);
        assert_eq!(m.find_unpruned(&t, Find::All).len(), 6);
        assert_eq!(m.find_unpruned(&t, Find::AtMost(4)).len(), 4);
    }

    #[test]
    fn derive_extension_shapes() {
        // Parent: a -> b. Child 1: append vertex c, edge b -> c (NewDst).
        let mut parent = Graph::new();
        let a = parent.add_vertex(VLabel(1));
        let b = parent.add_vertex(VLabel(2));
        parent.add_edge(a, b, ELabel(9));

        let mut child = parent.clone();
        let c = child.add_vertex(VLabel(3));
        child.add_edge(b, c, ELabel(8));
        assert_eq!(
            derive_extension(2, &child),
            Some(Extension::NewDst {
                src: b,
                elabel: ELabel(8),
                vlabel: VLabel(3)
            })
        );

        // Child 2: append vertex c, edge c -> a (NewSrc).
        let mut child = parent.clone();
        let c = child.add_vertex(VLabel(3));
        child.add_edge(c, a, ELabel(8));
        assert_eq!(
            derive_extension(2, &child),
            Some(Extension::NewSrc {
                dst: a,
                elabel: ELabel(8),
                vlabel: VLabel(3)
            })
        );

        // Child 3: closing edge b -> a (Close), no new vertex.
        let mut child = parent.clone();
        child.add_edge(b, a, ELabel(7));
        assert_eq!(
            derive_extension(2, &child),
            Some(Extension::Close {
                src: b,
                dst: a,
                elabel: ELabel(7)
            })
        );

        // Not a one-edge growth: two extra vertices.
        let mut child = parent.clone();
        let c = child.add_vertex(VLabel(3));
        let d = child.add_vertex(VLabel(3));
        child.add_edge(c, d, ELabel(8));
        assert_eq!(derive_extension(2, &child), None);

        // Tombstoned (non-dense) child is rejected.
        let mut child = parent.clone();
        let c = child.add_vertex(VLabel(3));
        child.add_edge(b, c, ELabel(8));
        let first_edge = child.edges().next().unwrap();
        child.remove_edge(first_edge);
        assert_eq!(derive_extension(2, &child), None);
    }

    #[test]
    fn extend_embedding_matches_unpruned_search() {
        // Parent: hub with 2 spokes; child grows a third spoke — the twin
        // counterexample: pruned parent lists would miss child embeddings,
        // unpruned ones must not.
        let mut parent = Graph::new();
        let h = parent.add_vertex(VLabel(0));
        for _ in 0..2 {
            let s = parent.add_vertex(VLabel(0));
            parent.add_edge(h, s, ELabel(2));
        }
        let mut child = parent.clone();
        let s3 = child.add_vertex(VLabel(0));
        child.add_edge(h, s3, ELabel(2));

        let mut t = Graph::new();
        let th = t.add_vertex(VLabel(0));
        for _ in 0..4 {
            let s = t.add_vertex(VLabel(0));
            t.add_edge(th, s, ELabel(2));
        }

        let parent_embs = Matcher::new(&parent).find_unpruned(&t, Find::All);
        assert_eq!(parent_embs.len(), 12); // 4*3 ordered spoke pairs
        let ext = derive_extension(3, &child).unwrap();
        let mut flat = Vec::new();
        for e in &parent_embs {
            extend_embedding_row(&t, e.as_row(), &ext, &mut flat);
        }
        let grown: Vec<&[VertexId]> = flat.chunks_exact(4).collect();
        let direct = Matcher::new(&child).find_unpruned(&t, Find::All);
        assert_eq!(grown.len(), direct.len()); // 4*3*2 = 24
        let key = |row: &[VertexId]| {
            let mut v = row.to_vec();
            v.sort_unstable();
            (row[0], v)
        };
        let mut a: Vec<_> = grown.iter().map(|r| key(r)).collect();
        let mut b: Vec<_> = direct.iter().map(|e| key(e.as_row())).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn extend_embedding_close_and_dedup() {
        // Parent a -> b; child closes b -> a.
        let mut parent = Graph::new();
        let a = parent.add_vertex(VLabel(0));
        let b = parent.add_vertex(VLabel(1));
        parent.add_edge(a, b, ELabel(0));
        let mut child = parent.clone();
        child.add_edge(b, a, ELabel(5));

        let mut t = Graph::new();
        let x = t.add_vertex(VLabel(0));
        let y = t.add_vertex(VLabel(1));
        let z = t.add_vertex(VLabel(1));
        t.add_edge(x, y, ELabel(0));
        t.add_edge(x, z, ELabel(0));
        t.add_edge(y, x, ELabel(5));

        let parent_embs = Matcher::new(&parent).find_unpruned(&t, Find::All);
        assert_eq!(parent_embs.len(), 2);
        let ext = derive_extension(2, &child).unwrap();
        let mut grown = Vec::new();
        for e in &parent_embs {
            extend_embedding_row(&t, e.as_row(), &ext, &mut grown);
        }
        // Only x->y closes back; a closing edge keeps the parent's width.
        assert_eq!(grown, vec![x, y]);

        // Parallel target edges to the same endpoint are emitted once.
        let mut pt = Graph::new();
        let px = pt.add_vertex(VLabel(0));
        let py = pt.add_vertex(VLabel(1));
        pt.add_edge(px, py, ELabel(0));
        pt.add_edge(px, py, ELabel(0));
        let mut grown_child = Graph::new();
        let ga = grown_child.add_vertex(VLabel(0));
        let gb = grown_child.add_vertex(VLabel(1));
        grown_child.add_edge(ga, gb, ELabel(0));
        let ext = derive_extension(1, &grown_child).unwrap();
        let mut out = Vec::new();
        extend_embedding_row(&pt, &[px], &ext, &mut out);
        assert_eq!(out, vec![px, py]);
    }

    #[test]
    fn isomorphism_positive_and_negative() {
        let a = path(&[1, 2, 3], &[7, 8]);
        let b = path(&[1, 2, 3], &[7, 8]);
        assert!(are_isomorphic(&a, &b));
        let c = path(&[1, 2, 3], &[8, 7]);
        assert!(!are_isomorphic(&a, &c));
        let d = path(&[3, 2, 1], &[8, 7]); // reversed path = same graph? No:
                                           // d's edges: 3-[8]->2, 2-[7]->1; a's: 1-[7]->2, 2-[8]->3. Relabel
                                           // mapping 1<->3 sends a's 1-[7]->2 to 3-[7]->2 which d lacks.
        assert!(!are_isomorphic(&a, &d));
    }

    #[test]
    fn isomorphism_cycle_rotation() {
        let mk = |rot: usize| {
            let mut g = Graph::new();
            let vs: Vec<_> = (0..4).map(|_| g.add_vertex(VLabel(0))).collect();
            for i in 0..4 {
                g.add_edge(
                    vs[(i + rot) % 4],
                    vs[(i + rot + 1) % 4],
                    ELabel(i as u32 % 2),
                );
            }
            g
        };
        assert!(are_isomorphic(&mk(0), &mk(2)));
    }

    #[test]
    fn disjoint_count() {
        // Target: two separate a->b edges; pattern: one a->b edge.
        let mut t = Graph::new();
        for _ in 0..2 {
            let a = t.add_vertex(VLabel(0));
            let b = t.add_vertex(VLabel(0));
            t.add_edge(a, b, ELabel(0));
        }
        let p = path(&[0, 0], &[0]);
        assert_eq!(count_disjoint(&p, &t), 2);
        // A 3-vertex chain target holds only one disjoint 2-vertex edge
        // pattern... actually chain a->b->c has 2 embeddings sharing b.
        let chain = path(&[0, 0, 0], &[0, 0]);
        assert_eq!(count_disjoint(&p, &chain), 1);
    }

    #[test]
    fn empty_pattern_no_embeddings() {
        let p = Graph::new();
        let t = path(&[0, 0], &[0]);
        assert!(find_embeddings(&p, &t, Find::All).is_empty());
    }

    #[test]
    fn disconnected_pattern() {
        // Pattern: two isolated edges; target has them.
        let mut p = Graph::new();
        let a = p.add_vertex(VLabel(1));
        let b = p.add_vertex(VLabel(2));
        p.add_edge(a, b, ELabel(0));
        let c = p.add_vertex(VLabel(3));
        let d = p.add_vertex(VLabel(4));
        p.add_edge(c, d, ELabel(0));
        let mut t = Graph::new();
        let ta = t.add_vertex(VLabel(1));
        let tb = t.add_vertex(VLabel(2));
        let tc = t.add_vertex(VLabel(3));
        let td = t.add_vertex(VLabel(4));
        t.add_edge(ta, tb, ELabel(0));
        t.add_edge(tc, td, ELabel(0));
        assert!(has_embedding(&p, &t));
    }

    /// A hub-transaction negative of the kind that dominates paper-scale
    /// mining: a path with a rare-labelled tail hanging off a hub pattern,
    /// against a 70-spoke hub whose spokes form a ring. A plan that matches
    /// the twin spokes before the rare `b` edge tries every (hub, spoke,
    /// spoke pair) combination: 326,167 search nodes. Core-first order
    /// plus label-count domination settles it at the spoke that would
    /// need a `b` out-edge, in 72.
    #[test]
    fn hub_negative_with_rare_tail_is_settled_early() {
        let (a, b) = (ELabel(0), ELabel(1));
        let mut p = Graph::new();
        let v: Vec<VertexId> = (0..6).map(|_| p.add_vertex(VLabel(0))).collect();
        p.add_edge(v[0], v[1], a);
        p.add_edge(v[2], v[0], a);
        p.add_edge(v[2], v[3], a);
        p.add_edge(v[2], v[4], a);
        p.add_edge(v[1], v[5], b);

        let mut t = Graph::new();
        let hub = t.add_vertex(VLabel(0));
        let spokes: Vec<VertexId> = (0..70).map(|_| t.add_vertex(VLabel(0))).collect();
        for (i, &s) in spokes.iter().enumerate() {
            t.add_edge(hub, s, a);
            t.add_edge(s, spokes[(i + 1) % spokes.len()], a);
        }
        let x = t.add_vertex(VLabel(0));
        let y = t.add_vertex(VLabel(0));
        t.add_edge(x, y, b);
        let t = t.freeze();
        let t = t.view();

        assert!(!has_embedding(&p, &t));
        let mut nodes = 0;
        assert!(!Matcher::new(&p).matches_counting(&t, &mut nodes));
        assert!(nodes <= 1_000, "{nodes} search nodes");
    }

    /// Every injective, label-preserving map of `p`'s vertices into `t`'s
    /// that carries each pattern edge `(u, v, l)` onto as many target
    /// edges as the pattern has — the definition, enumerated directly.
    fn brute_force_embeddings(p: &Graph, t: &Graph) -> Vec<Vec<VertexId>> {
        fn go(p: &Graph, t: &Graph, row: &mut Vec<VertexId>, out: &mut Vec<Vec<VertexId>>) {
            if row.len() == p.vertex_count() {
                let count = |g: &Graph, s: VertexId, d: VertexId, l: ELabel| {
                    g.edges().filter(|&e| g.edge(e) == (s, d, l)).count()
                };
                let ok = p.edges().all(|e| {
                    let (s, d, l) = p.edge(e);
                    count(t, row[s.index()], row[d.index()], l) >= count(p, s, d, l)
                });
                if ok {
                    out.push(row.clone());
                }
                return;
            }
            let pv = VertexId(row.len() as u32);
            for tv in t.vertices() {
                if !row.contains(&tv) && t.vertex_label(tv) == p.vertex_label(pv) {
                    row.push(tv);
                    go(p, t, row, out);
                    row.pop();
                }
            }
        }
        let mut out = Vec::new();
        go(p, t, &mut Vec::new(), &mut out);
        out.sort();
        out
    }

    /// A random target of at most 9 vertices. The mix covers uniform
    /// vertex labels, a hub, self-loops, 2-cycles and parallel edges with
    /// equal and with different labels.
    fn random_target(rng: &mut crate::rng::StdRng, case: usize) -> Graph {
        use crate::rng::Rng;
        let n = rng.gen_range(2..=9usize);
        let vlabels: u32 = if case.is_multiple_of(2) { 1 } else { 2 };
        let mut t = Graph::new();
        let vs: Vec<VertexId> = (0..n)
            .map(|_| t.add_vertex(VLabel(rng.gen_range(0..vlabels))))
            .collect();
        if case.is_multiple_of(3) {
            for &s in &vs[1..] {
                t.add_edge(vs[0], s, ELabel(0));
            }
        }
        for _ in 0..rng.gen_range(0..=2 * n) {
            let s = vs[rng.gen_range(0..n)];
            let d = vs[rng.gen_range(0..n)];
            let l = ELabel(rng.gen_range(0..2u32));
            t.add_edge(s, d, l);
            match rng.gen_range(0..6u32) {
                0 => {
                    t.add_edge(s, d, l);
                }
                1 => {
                    t.add_edge(s, d, ELabel(1 - l.0));
                }
                2 => {
                    t.add_edge(d, s, l);
                }
                3 => {
                    t.add_edge(s, s, l);
                }
                _ => {}
            }
        }
        t
    }

    /// A random pattern of at most 5 vertices: half the time a connected
    /// piece of the target (so embeddings exist), otherwise arbitrary.
    fn random_pattern(rng: &mut crate::rng::StdRng, t: &Graph) -> Graph {
        use crate::rng::Rng;
        let mut p = Graph::new();
        if rng.gen::<bool>() && t.edge_count() > 0 {
            let edges: Vec<_> = t.edges().collect();
            let start = edges[rng.gen_range(0..edges.len())];
            let mut picked = vec![start];
            for _ in 0..rng.gen_range(0..5usize) {
                let touching: Vec<_> = edges
                    .iter()
                    .copied()
                    .filter(|e| !picked.contains(e))
                    .filter(|&e| {
                        let (s, d, _) = t.edge(e);
                        picked.iter().any(|&f| {
                            let (fs, fd, _) = t.edge(f);
                            [fs, fd].contains(&s) || [fs, fd].contains(&d)
                        })
                    })
                    .collect();
                let Some(&e) = touching.get(rng.gen_range(0..touching.len().max(1))) else {
                    break;
                };
                let (sub, _) = t.edge_subgraph(&[picked.clone(), vec![e]].concat());
                if sub.vertex_count() > 5 {
                    break;
                }
                picked.push(e);
            }
            return t.edge_subgraph(&picked).0;
        }
        let n = rng.gen_range(1..=5usize);
        let vs: Vec<VertexId> = (0..n)
            .map(|_| p.add_vertex(VLabel(rng.gen_range(0..2u32))))
            .collect();
        for _ in 0..rng.gen_range(0..=n + 1) {
            let s = vs[rng.gen_range(0..n)];
            let d = vs[rng.gen_range(0..n)];
            p.add_edge(s, d, ELabel(rng.gen_range(0..2u32)));
        }
        p
    }

    fn sorted_rows(embs: &[Embedding]) -> Vec<Vec<VertexId>> {
        let mut rows: Vec<Vec<VertexId>> = embs.iter().map(|e| e.as_row().to_vec()).collect();
        rows.sort();
        rows
    }

    #[test]
    fn matcher_agrees_with_brute_force_enumeration() {
        let mut rng = crate::rng::StdRng::seed_from_u64(0x150_2018);
        let mut positives = 0;
        for case in 0..400 {
            let t = random_target(&mut rng, case);
            let p = random_pattern(&mut rng, &t);
            let want = brute_force_embeddings(&p, &t);
            let m = Matcher::new(&p);
            let fg = t.freeze();
            let frozen = fg.view();
            for (form, got) in [
                ("arena", m.find_unpruned(&t, Find::All)),
                ("frozen", m.find_unpruned(&frozen, Find::All)),
            ] {
                assert_eq!(
                    sorted_rows(&got),
                    want,
                    "case {case} ({form}): {p:?} in {t:?}"
                );
            }
            assert_eq!(m.matches(&t), !want.is_empty(), "case {case}");
            assert_eq!(m.matches(&frozen), !want.is_empty(), "case {case}");
            // Twin pruning keeps a subset that still witnesses existence.
            let pruned = sorted_rows(&m.find(&t, Find::All));
            assert!(pruned.iter().all(|r| want.binary_search(r).is_ok()));
            assert_eq!(pruned.is_empty(), want.is_empty());
            positives += usize::from(!want.is_empty());
        }
        assert!(positives > 150, "{positives} cases with an embedding");
    }

    #[test]
    fn extension_emits_each_child_once_on_both_forms() {
        use crate::rng::Rng;
        let mut rng = crate::rng::StdRng::seed_from_u64(7);
        let mut multigraph_cases = 0;
        for case in 0..300 {
            let t = random_target(&mut rng, case);
            let parent = random_pattern(&mut rng, &t);
            if parent.vertex_count() == 0 || parent.vertex_count() >= 5 {
                continue;
            }
            // Grow the parent by one edge the way the miners do: a new
            // leaf in either direction, or a closing edge.
            let mut child = parent.clone();
            let n = parent.vertex_count() as u32;
            let u = VertexId(rng.gen_range(0..n));
            let l = ELabel(rng.gen_range(0..2u32));
            match rng.gen_range(0..3u32) {
                0 => {
                    let w = child.add_vertex(VLabel(rng.gen_range(0..2u32)));
                    child.add_edge(u, w, l);
                }
                1 => {
                    let w = child.add_vertex(VLabel(rng.gen_range(0..2u32)));
                    child.add_edge(w, u, l);
                }
                _ => {
                    let w = VertexId(rng.gen_range(0..n));
                    if parent.edges().any(|e| parent.edge(e) == (u, w, l)) {
                        continue;
                    }
                    child.add_edge(u, w, l);
                }
            }
            let ext = derive_extension(parent.vertex_count(), &child).expect("one-edge growth");
            let fg = t.freeze();
            let frozen = fg.view();
            multigraph_cases += usize::from(!frozen.is_simple());
            let stride = child_stride(parent.vertex_count(), &ext);
            let (mut arena_rows, mut frozen_rows) = (Vec::new(), Vec::new());
            for emb in Matcher::new(&parent).find_unpruned(&t, Find::All) {
                extend_embedding_row(&t, emb.as_row(), &ext, &mut arena_rows);
                extend_embedding_row(&frozen, emb.as_row(), &ext, &mut frozen_rows);
            }
            assert_eq!(arena_rows, frozen_rows, "case {case}");
            let mut grown: Vec<Vec<VertexId>> = arena_rows
                .chunks_exact(stride)
                .map(<[VertexId]>::to_vec)
                .collect();
            grown.sort();
            let before = grown.len();
            grown.dedup();
            assert_eq!(grown.len(), before, "case {case}: a child emitted twice");
            assert_eq!(grown, brute_force_embeddings(&child, &t), "case {case}");
        }
        assert!(
            multigraph_cases > 50,
            "{multigraph_cases} multigraph targets"
        );
    }
}
