//! Substructures and instance-based expansion.
//!
//! SUBDUE represents a candidate as a pattern graph *plus the concrete
//! list of its instances* in the input graph. Expansion never runs a
//! global subgraph-isomorphism search: each instance is extended by one
//! adjacent edge, and the extended instances are regrouped by the
//! isomorphism class of their induced pattern. This is the core trick
//! that lets SUBDUE walk a single large graph.

use tnet_graph::canon::IsoClassMap;
use tnet_graph::graph::{ELabel, EdgeId, Graph, VLabel, VertexId};
use tnet_graph::hash::{FxHashMap, FxHashSet};
use tnet_graph::iso::{Find, Matcher};
use tnet_graph::view::{self, GraphView};

/// One concrete occurrence of a pattern: the target vertices and edges it
/// covers, plus the mapping from pattern vertices to target vertices.
/// Vertex and edge lists are kept sorted so instances can be deduplicated
/// structurally; equality and hashing ignore `map` (two automorphic
/// mappings of the same vertex/edge sets are the same occurrence).
#[derive(Clone, Debug)]
pub struct Instance {
    pub vertices: Vec<VertexId>,
    pub edges: Vec<EdgeId>,
    /// Target vertex for each pattern vertex, by pattern arena index
    /// (pattern graphs are append-only, so indices are dense). This is
    /// what lets expansion derive the child pattern per *extension key*
    /// instead of per instance.
    pub map: Vec<VertexId>,
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.vertices == other.vertices && self.edges == other.edges
    }
}

impl Eq for Instance {}

impl std::hash::Hash for Instance {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.vertices.hash(state);
        self.edges.hash(state);
    }
}

/// How a grown edge attaches to an instance, relative to the instance's
/// pattern mapping: endpoint slots are pattern-vertex indices, or
/// `ExtKey::NEW` for the one endpoint outside the instance (whose
/// label is then `new_label`). Instances of the same substructure grown
/// with the same key induce the same child pattern, so expansion derives
/// one pattern graph per distinct key instead of one per grown instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExtKey {
    src: usize,
    dst: usize,
    elabel: u32,
    new_label: u32,
}

impl ExtKey {
    const NEW: usize = usize::MAX;

    /// True if this extension appends a new endpoint vertex (one slot is
    /// outside the instance).
    fn adds_vertex(&self) -> bool {
        self.src == Self::NEW || self.dst == Self::NEW
    }

    /// The child pattern this key induces: the parent plus one edge (and
    /// possibly one appended vertex, whose slot index lines up with the
    /// appended `map` entry of every instance grown with this key).
    fn child_pattern(&self, parent: &Graph) -> Graph {
        let mut p = parent.clone();
        let s = if self.src == Self::NEW {
            p.add_vertex(VLabel(self.new_label))
        } else {
            VertexId(self.src as u32)
        };
        let d = if self.dst == Self::NEW {
            p.add_vertex(VLabel(self.new_label))
        } else {
            VertexId(self.dst as u32)
        };
        p.add_edge(s, d, ELabel(self.elabel));
        p
    }
}

impl Instance {
    /// A single-vertex instance.
    pub fn vertex(v: VertexId) -> Instance {
        Instance {
            vertices: vec![v],
            edges: Vec::new(),
            map: vec![v],
        }
    }

    /// Extends by one edge (and possibly one new endpoint), keeping the
    /// lists sorted and appending any new endpoint to `map`. Returns
    /// `None` if the edge is already present or touches neither instance
    /// vertex (callers enumerate incident edges, so a grown instance is
    /// always connected to this one).
    pub fn extended<G: GraphView>(&self, g: &G, e: EdgeId) -> Option<(Instance, ExtKey)> {
        let key = self.probe_extension(g, e)?;
        Some((self.materialize_extension(g, e, &key), key))
    }

    /// Probe stage of [`Instance::extended`]: classifies how `e` attaches
    /// (rejecting reused edges and non-incident ones) without cloning any
    /// of the instance's three vectors. [`expand_counted`] uses this to
    /// dedup and cap-check an extension *before* paying for
    /// [`Instance::materialize_extension`] — on dense expansions most
    /// attempts die here.
    pub fn probe_extension<G: GraphView>(&self, g: &G, e: EdgeId) -> Option<ExtKey> {
        if self.edges.binary_search(&e).is_ok() {
            return None;
        }
        let (s, d, l) = g.edge(e);
        let spos = self.map.iter().position(|&u| u == s);
        let dpos = if s == d {
            spos
        } else {
            self.map.iter().position(|&u| u == d)
        };
        match (spos, dpos) {
            (Some(a), Some(b)) => Some(ExtKey {
                src: a,
                dst: b,
                elabel: l.0,
                new_label: 0,
            }),
            (Some(a), None) => Some(ExtKey {
                src: a,
                dst: ExtKey::NEW,
                elabel: l.0,
                new_label: g.vertex_label(d).0,
            }),
            (None, Some(b)) => Some(ExtKey {
                src: ExtKey::NEW,
                dst: b,
                elabel: l.0,
                new_label: g.vertex_label(s).0,
            }),
            (None, None) => None,
        }
    }

    /// Materialize stage of [`Instance::extended`]: builds the grown
    /// instance for an edge that [`Instance::probe_extension`] accepted
    /// with `key`.
    pub fn materialize_extension<G: GraphView>(&self, g: &G, e: EdgeId, key: &ExtKey) -> Instance {
        let (s, d, _) = g.edge(e);
        let mut map = self.map.clone();
        if key.dst == ExtKey::NEW {
            map.push(d);
        } else if key.src == ExtKey::NEW {
            map.push(s);
        }
        let mut vertices = self.vertices.clone();
        for v in [s, d] {
            if let Err(pos) = vertices.binary_search(&v) {
                vertices.insert(pos, v);
            }
        }
        let mut edges = self.edges.clone();
        let pos = edges.binary_search(&e).unwrap_err();
        edges.insert(pos, e);
        Instance {
            vertices,
            edges,
            map,
        }
    }

    /// True if this instance shares a vertex with `other`.
    pub fn overlaps(&self, other: &Instance) -> bool {
        // Both sorted: linear merge scan.
        let (mut i, mut j) = (0, 0);
        while i < self.vertices.len() && j < other.vertices.len() {
            match self.vertices[i].cmp(&other.vertices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// The pattern graph this instance realizes in `g` (labels copied).
    pub fn pattern<G: GraphView>(&self, g: &G) -> Graph {
        if self.edges.is_empty() {
            let mut p = Graph::new();
            for &v in &self.vertices {
                p.add_vertex(g.vertex_label(v));
            }
            return p;
        }
        let (sub, vmap) = view::edge_subgraph(g, &self.edges);
        debug_assert_eq!(vmap.len(), self.vertices.len());
        sub
    }
}

/// A pattern with its instances in the input graph.
#[derive(Clone, Debug)]
pub struct Substructure {
    pub pattern: Graph,
    /// All discovered instances (may mutually overlap).
    pub instances: Vec<Instance>,
    /// Evaluation score (set by the search; higher is better).
    pub value: f64,
}

impl Substructure {
    /// Size of the pattern as SUBDUE counts it: vertices + edges.
    pub fn size(&self) -> usize {
        self.pattern.size()
    }

    /// Greedy maximal set of pairwise vertex-disjoint instances ("without
    /// allowing overlap", as the paper's experiments ran). Vertex ids are
    /// dense, so "used" is a `u64` bitset — one load + mask per probe
    /// instead of a hash lookup. This runs once per (candidate,
    /// evaluation) in the beam loop, which made the hashing version a
    /// profile hotspot on instance-heavy graphs.
    pub fn disjoint_instances(&self) -> Vec<&Instance> {
        let max_id = self
            .instances
            .iter()
            .filter_map(|i| i.vertices.last())
            .map(|v| v.0 as usize)
            .max()
            .unwrap_or(0);
        let mut used = vec![0u64; max_id / 64 + 1];
        let mut out = Vec::new();
        for inst in &self.instances {
            if inst
                .vertices
                .iter()
                .any(|v| used[v.0 as usize / 64] >> (v.0 % 64) & 1 == 1)
            {
                continue;
            }
            for v in &inst.vertices {
                used[v.0 as usize / 64] |= 1u64 << (v.0 % 64);
            }
            out.push(inst);
        }
        out
    }

    /// Number of vertex-disjoint instances.
    pub fn disjoint_count(&self) -> usize {
        self.disjoint_instances().len()
    }
}

/// The initial substructure list: one per distinct vertex label, each
/// holding every vertex with that label as an instance. Ordered by
/// descending instance count.
pub fn initial_substructures<G: GraphView>(g: &G) -> Vec<Substructure> {
    let mut by_label: FxHashMap<u32, Vec<Instance>> = FxHashMap::default();
    for v in g.vertices() {
        by_label
            .entry(g.vertex_label(v).0)
            .or_default()
            .push(Instance::vertex(v));
    }
    let mut out: Vec<Substructure> = by_label
        .into_values()
        .map(|instances| {
            let pattern = instances[0].pattern(g);
            Substructure {
                pattern,
                instances,
                value: 0.0,
            }
        })
        .collect();
    out.sort_by_key(|s| std::cmp::Reverse(s.instances.len()));
    out
}

/// Cap on instances kept per substructure. Dense uniformly-labeled
/// graphs have combinatorially many embeddings of symmetric patterns
/// (e.g. 2-edge paths through a hub); keeping them all makes expansion
/// quadratic-and-worse. Real SUBDUE applies the same kind of cap. The
/// cap only weakens instance counts (values become lower bounds), never
/// reports false instances.
pub const MAX_INSTANCES: usize = 4_000;

/// Expansion counters: how much work instance propagation did and how
/// much pattern re-derivation it avoided (the SUBDUE analogue of
/// `tnet-fsg`'s embedding counters).
#[derive(Clone, Debug, Default)]
pub struct SubdueStats {
    /// Instances grown by one adjacent edge.
    pub embeddings_extended: usize,
    /// Grown instances dropped because their group hit [`MAX_INSTANCES`].
    pub embeddings_spilled: usize,
    /// Child pattern graphs derived — one per distinct extension key, not
    /// one per grown instance, which is the point of keying.
    pub patterns_derived: usize,
    /// Set-cover VF2 existence checks skipped because a pattern vertex
    /// had no fingerprint-compatible example vertex
    /// ([`tnet_graph::fingerprint::may_embed`] said no).
    pub fingerprint_rejects: usize,
}

impl SubdueStats {
    /// Folds this run's counters into a [`tnet_obs::MetricsRegistry`]
    /// under `subdue.*` names (the unified namespace; see DESIGN.md §10).
    pub fn record_into(&self, metrics: &tnet_obs::MetricsRegistry) {
        metrics.add(
            "subdue.embeddings_extended",
            self.embeddings_extended as u64,
        );
        metrics.add("subdue.embeddings_spilled", self.embeddings_spilled as u64);
        metrics.add("subdue.patterns_derived", self.patterns_derived as u64);
        metrics.add(
            "subdue.fingerprint_rejects",
            self.fingerprint_rejects as u64,
        );
    }
}

/// Expands a substructure: every instance is grown by every adjacent
/// unused edge; the grown instances are regrouped by pattern isomorphism
/// class. Instances identical as vertex/edge sets are deduplicated;
/// groups are truncated at [`MAX_INSTANCES`].
pub fn expand<G: GraphView>(g: &G, sub: &Substructure) -> Vec<Substructure> {
    expand_counted(g, sub, &mut SubdueStats::default())
}

/// As [`expand`], accumulating counters into `stats`. Equivalent to
/// materializing every child of [`expand_deferred`].
pub fn expand_counted<G: GraphView>(
    g: &G,
    sub: &Substructure,
    stats: &mut SubdueStats,
) -> Vec<Substructure> {
    expand_deferred(g, sub, stats)
        .into_iter()
        .map(|child| {
            let instances = child.materialize(g, sub);
            Substructure {
                pattern: child.pattern,
                instances,
                value: 0.0,
            }
        })
        .collect()
}

/// One grown-but-unbuilt instance: the parent instance's index plus the
/// extension edge. Everything else about the grown instance (vertex set,
/// edge set, map) is derivable from those two values and the group's
/// [`ExtKey`].
type Ext = (u32, EdgeId);

/// A keyed group of deferred instances inside a [`DeferredChild`].
struct DeferredGroup {
    key: ExtKey,
    /// Translation onto the class representative's vertex order:
    /// representative map slot `i` reads this group's own map slot
    /// `perm[i]`. `None` for the representative group itself.
    perm: Option<Vec<u32>>,
    exts: Vec<Ext>,
}

/// An expansion child whose instance lists have not been materialized.
///
/// The beam search evaluates every child of an expansion but keeps only
/// the few that enter the beam or the best list, so building full
/// [`Instance`] vectors (three allocations each) for all of them is
/// mostly wasted work — on dense graphs hundreds of thousands per
/// search. A deferred child carries `(parent instance, edge)` pairs
/// instead; [`DeferredChild::disjoint_count`] scores it in place and
/// [`DeferredChild::materialize`] builds real instances only for
/// survivors, producing exactly what the eager path produced.
pub struct DeferredChild {
    pub pattern: Graph,
    groups: Vec<DeferredGroup>,
    /// Instance count after the [`MAX_INSTANCES`] cap.
    count: usize,
}

fn bit_test(used: &[u64], v: VertexId) -> bool {
    used[v.0 as usize / 64] >> (v.0 % 64) & 1 == 1
}

fn bit_set(used: &mut [u64], v: VertexId) {
    used[v.0 as usize / 64] |= 1u64 << (v.0 % 64);
}

impl DeferredChild {
    /// Size of the pattern as SUBDUE counts it: vertices + edges.
    pub fn size(&self) -> usize {
        self.pattern.size()
    }

    /// Number of instances a materialization would produce.
    pub fn instance_count(&self) -> usize {
        self.count
    }

    /// Greedy vertex-disjoint instance count, identical to materializing
    /// and calling [`Substructure::disjoint_count`]: a grown instance's
    /// vertex set is its parent's plus the extension edge's endpoints,
    /// and the greedy scan runs in the same materialization order.
    pub fn disjoint_count<G: GraphView>(&self, g: &G, parent: &Substructure) -> usize {
        let mut max_id = 0usize;
        for group in &self.groups {
            for &(ii, e) in &group.exts {
                let inst = &parent.instances[ii as usize];
                if let Some(v) = inst.vertices.last() {
                    max_id = max_id.max(v.0 as usize);
                }
                let (s, d, _) = g.edge(e);
                max_id = max_id.max(s.0 as usize).max(d.0 as usize);
            }
        }
        let mut used = vec![0u64; max_id / 64 + 1];
        let mut n = 0usize;
        for group in &self.groups {
            for &(ii, e) in &group.exts {
                let inst = &parent.instances[ii as usize];
                let (s, d, _) = g.edge(e);
                if inst.vertices.iter().any(|&v| bit_test(&used, v))
                    || bit_test(&used, s)
                    || bit_test(&used, d)
                {
                    continue;
                }
                for &v in &inst.vertices {
                    bit_set(&mut used, v);
                }
                bit_set(&mut used, s);
                bit_set(&mut used, d);
                n += 1;
            }
        }
        n
    }

    /// Builds the concrete instance list (in the order and under the cap
    /// the eager expansion used).
    pub fn materialize<G: GraphView>(&self, g: &G, parent: &Substructure) -> Vec<Instance> {
        let mut out = Vec::with_capacity(self.count);
        for group in &self.groups {
            for &(ii, e) in &group.exts {
                let mut inst =
                    parent.instances[ii as usize].materialize_extension(g, e, &group.key);
                if let Some(perm) = &group.perm {
                    inst.map = perm.iter().map(|&i| inst.map[i as usize]).collect();
                }
                out.push(inst);
            }
        }
        out
    }
}

/// The expansion core behind [`expand_counted`]: grown instances are
/// bucketed by [`ExtKey`] — how the new edge attaches relative to the
/// instance's pattern mapping — which determines the child pattern up to
/// the shared parent, so the pattern graph (and its canonical code) is
/// derived once per key instead of once per instance. Keys whose
/// patterns land in the same isomorphism class are then merged; the map
/// translation onto the class representative's vertex order is recorded
/// as a permutation and applied at materialization.
pub fn expand_deferred<G: GraphView>(
    g: &G,
    sub: &Substructure,
    stats: &mut SubdueStats,
) -> Vec<DeferredChild> {
    let mut key_index: FxHashMap<ExtKey, usize> = FxHashMap::default();
    let mut groups: Vec<(ExtKey, Vec<Ext>)> = Vec::new();
    let mut seen: FxHashSet<(u64, usize)> = FxHashSet::default();
    fn edge_hash(e: EdgeId) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = tnet_graph::hash::FxHasher::default();
        e.hash(&mut hasher);
        hasher.finish()
    }
    for (ii, inst) in sub.instances.iter().enumerate() {
        // Commutative set hash of the parent's edge ids: the grown edge
        // set's hash is then one XOR per attempt instead of rehashing
        // the whole list.
        let base = inst.edges.iter().fold(0u64, |a, &e| a ^ edge_hash(e));
        for &v in &inst.vertices {
            for e in g.incident_edges(v) {
                // Probe first: the key, dedup hash, and cap check all
                // come from the parent's vectors plus `e`; nothing is
                // allocated per attempt. On dense expansions most
                // attempts are duplicates and die here.
                let Some(key) = inst.probe_extension(g, e) else {
                    continue;
                };
                // Cheap structural dedup across the whole expansion:
                // hash of the grown edge set plus the grown vertex count
                // is exact (up to 64-bit collisions) because edge ids
                // are unique.
                let h =
                    base ^ edge_hash(e) ^ (inst.vertices.len() + key.adds_vertex() as usize) as u64;
                if !seen.insert((h, inst.edges.len() + 1)) {
                    continue;
                }
                stats.embeddings_extended += 1;
                let gi = *key_index.entry(key).or_insert_with(|| {
                    groups.push((key, Vec::new()));
                    groups.len() - 1
                });
                let group = &mut groups[gi].1;
                if group.len() < MAX_INSTANCES {
                    group.push((ii as u32, e));
                } else {
                    stats.embeddings_spilled += 1;
                }
            }
        }
    }
    let mut classes: IsoClassMap<usize> = IsoClassMap::new();
    let mut out: Vec<DeferredChild> = Vec::new();
    for (key, mut exts) in groups {
        let pattern = key.child_pattern(&sub.pattern);
        stats.patterns_derived += 1;
        let slot = classes.entry_or_insert_with(&pattern, || usize::MAX);
        if *slot == usize::MAX {
            *slot = out.len();
            let count = exts.len();
            out.push(DeferredChild {
                pattern,
                groups: vec![DeferredGroup {
                    key,
                    perm: None,
                    exts,
                }],
                count,
            });
        } else {
            let child = &mut out[*slot];
            // Same class, different vertex order: record the isomorphism
            // onto the representative as a map permutation. (Equal
            // vertex/edge counts make any monomorphism a bijection.)
            let iso = Matcher::new(&child.pattern)
                .find(&pattern, Find::First)
                .pop()
                .expect("patterns share an isomorphism class");
            let perm: Vec<u32> = child
                .pattern
                .vertices()
                .map(|pv| iso.image(pv).index() as u32)
                .collect();
            let kept = exts.len().min(MAX_INSTANCES.saturating_sub(child.count));
            stats.embeddings_spilled += exts.len() - kept;
            exts.truncate(kept);
            child.count += kept;
            if kept > 0 {
                child.groups.push(DeferredGroup {
                    key,
                    perm: Some(perm),
                    exts,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_graph::generate::shapes;
    use tnet_graph::graph::{ELabel, VLabel};
    use tnet_graph::iso::are_isomorphic;

    #[test]
    fn instance_extension_sorted_and_deduped() {
        let g = shapes::chain(2, 0, 1);
        let v0 = g.vertices().next().unwrap();
        let e0 = g.edges().next().unwrap();
        let inst = Instance::vertex(v0);
        let (grown, _) = inst.extended(&g, e0).unwrap();
        assert_eq!(grown.vertices.len(), 2);
        assert_eq!(grown.edges, vec![e0]);
        assert_eq!(grown.map.len(), 2, "new endpoint appended to the map");
        assert!(grown.extended(&g, e0).is_none(), "edge reuse rejected");
        assert!(grown.vertices.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn overlap_detection() {
        let a = Instance {
            vertices: vec![VertexId(0), VertexId(2)],
            edges: vec![],
            map: vec![],
        };
        let b = Instance {
            vertices: vec![VertexId(1), VertexId(2)],
            edges: vec![],
            map: vec![],
        };
        let c = Instance {
            vertices: vec![VertexId(3)],
            edges: vec![],
            map: vec![],
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn initial_substructures_by_label() {
        let mut g = Graph::new();
        for i in 0..5 {
            g.add_vertex(VLabel(i % 2));
        }
        let init = initial_substructures(&g);
        assert_eq!(init.len(), 2);
        assert_eq!(init[0].instances.len(), 3); // label 0: vertices 0,2,4
        assert_eq!(init[1].instances.len(), 2);
    }

    #[test]
    fn expansion_of_uniform_hub() {
        let g = shapes::hub_and_spoke(4, 0, 1);
        let init = initial_substructures(&g);
        assert_eq!(init.len(), 1);
        assert_eq!(init[0].instances.len(), 5);
        let expanded = expand(&g, &init[0]);
        // Only one 1-edge pattern class exists (0 -1-> 0); 4 instances.
        assert_eq!(expanded.len(), 1);
        assert_eq!(expanded[0].instances.len(), 4);
        assert_eq!(expanded[0].pattern.edge_count(), 1);
    }

    #[test]
    fn expansion_groups_by_label() {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(0));
        let b = g.add_vertex(VLabel(0));
        let c = g.add_vertex(VLabel(0));
        g.add_edge(a, b, ELabel(1));
        g.add_edge(b, c, ELabel(2));
        let init = initial_substructures(&g);
        let expanded = expand(&g, &init[0]);
        assert_eq!(expanded.len(), 2, "two distinct edge-label classes");
        for s in &expanded {
            assert_eq!(s.instances.len(), 1);
        }
    }

    #[test]
    fn two_step_expansion_reaches_two_edge_patterns() {
        let g = shapes::chain(4, 0, 1);
        let init = initial_substructures(&g);
        let one_edge = expand(&g, &init[0]);
        assert_eq!(one_edge.len(), 1);
        let two_edge: Vec<Substructure> = expand(&g, &one_edge[0]);
        // Chains only: the 2-edge path pattern.
        assert_eq!(two_edge.len(), 1);
        assert!(are_isomorphic(
            &two_edge[0].pattern,
            &shapes::chain(2, 0, 1)
        ));
        assert_eq!(two_edge[0].instances.len(), 3);
    }

    #[test]
    fn disjoint_instances_greedy() {
        let g = shapes::chain(3, 0, 1); // v0-v1-v2-v3
        let init = initial_substructures(&g);
        let one_edge = expand(&g, &init[0]);
        let sub = &one_edge[0];
        assert_eq!(sub.instances.len(), 3);
        assert_eq!(sub.disjoint_count(), 2); // e0 and e2
    }

    #[test]
    fn keyed_expansion_matches_scratch_derivation() {
        // Reference expansion: derive every grown instance's pattern from
        // scratch (`Instance::pattern`) and group with the iso-class map,
        // as the pre-keyed implementation did. The keyed path must
        // produce the same classes with the same instance sets.
        use tnet_graph::generate::{random_transactions, RandomGraphConfig};
        let graphs = random_transactions(
            6,
            &RandomGraphConfig {
                vertices: 10,
                edges: 16,
                vertex_labels: 2,
                edge_labels: 2,
                self_loops: true,
            },
            97,
        );
        for g in &graphs {
            let mut frontier = initial_substructures(g);
            for _ in 0..3 {
                let mut next = Vec::new();
                for sub in &frontier {
                    let keyed = expand(g, sub);
                    // Scratch reference over the same parent.
                    let mut reference: IsoClassMap<Vec<Instance>> = IsoClassMap::new();
                    let mut seen: FxHashSet<Vec<EdgeId>> = FxHashSet::default();
                    for inst in &sub.instances {
                        for &v in &inst.vertices {
                            for e in g.incident_edges(v) {
                                let Some((grown, _)) = inst.extended(g, e) else {
                                    continue;
                                };
                                if !seen.insert(grown.edges.clone()) {
                                    continue;
                                }
                                let pattern = grown.pattern(g);
                                reference
                                    .entry_or_insert_with(&pattern, Vec::new)
                                    .push(grown);
                            }
                        }
                    }
                    let reference: Vec<(Graph, Vec<Instance>)> =
                        reference.into_iter_pairs().collect();
                    assert_eq!(keyed.len(), reference.len(), "class count");
                    for k in &keyed {
                        let (_, ref_insts) = reference
                            .iter()
                            .find(|(p, _)| are_isomorphic(p, &k.pattern))
                            .expect("keyed class missing from reference");
                        let mut a: Vec<_> = k
                            .instances
                            .iter()
                            .map(|i| (i.vertices.clone(), i.edges.clone()))
                            .collect();
                        let mut b: Vec<_> = ref_insts
                            .iter()
                            .map(|i| (i.vertices.clone(), i.edges.clone()))
                            .collect();
                        a.sort();
                        b.sort();
                        assert_eq!(a, b, "instance sets");
                        // Every kept map must be a valid embedding of the
                        // class pattern.
                        for inst in &k.instances {
                            assert_eq!(inst.map.len(), k.pattern.vertex_count());
                            for pv in k.pattern.vertices() {
                                assert_eq!(
                                    k.pattern.vertex_label(pv),
                                    g.vertex_label(inst.map[pv.index()])
                                );
                            }
                            for pe in k.pattern.edges() {
                                let (ps, pd, pl) = k.pattern.edge(pe);
                                let (ts, td) = (inst.map[ps.index()], inst.map[pd.index()]);
                                assert!(
                                    g.edges().any(|te| {
                                        let (s, d, l) = g.edge(te);
                                        s == ts && d == td && l == pl
                                    }),
                                    "map edge image missing in target"
                                );
                            }
                        }
                    }
                    next.extend(keyed);
                }
                frontier = next;
            }
        }
    }

    #[test]
    fn pattern_of_vertex_instance() {
        let mut g = Graph::new();
        let v = g.add_vertex(VLabel(9));
        let p = Instance::vertex(v).pattern(&g);
        assert_eq!(p.vertex_count(), 1);
        assert_eq!(p.edge_count(), 0);
        assert_eq!(p.vertex_label(p.vertices().next().unwrap()), VLabel(9));
    }
}
