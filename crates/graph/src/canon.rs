//! Isomorphism classes: exact canonical codes, invariant hashing and
//! iso-keyed collections.
//!
//! The miners repeatedly need "have I seen this pattern (up to
//! isomorphism) before?" — FSG for candidate deduplication and
//! downward-closure checks, SUBDUE for grouping instance extensions.
//! FSG answers it with a canonical label (Kuramochi & Karypis), and so
//! does this module:
//!
//! * [`CanonicalCode`] is an exact canonical form of a labeled directed
//!   multigraph: two graphs get equal codes iff they are isomorphic. It
//!   is built by colour refinement, with ties broken by
//!   individualization plus re-refinement (the nauty/bliss scheme, cut
//!   down to pattern sizes; see [`CanonicalCode::of`]).
//! * [`invariant_hash`] is a Weisfeiler–Leman colour-refinement hash:
//!   isomorphic graphs always hash equal, but equal hashes prove
//!   nothing. Output digests are keyed by it, so its values never change.
//! * [`IsoClassMap`] finds a graph's class by its code alone (no lookup
//!   runs an isomorphism search) and iterates in insertion order, so a
//!   miner's output order follows its input alone.

use crate::graph::{Graph, VertexId};
use crate::hash::{FxHashMap, FxHasher};
use std::hash::Hasher;
use std::ops::{Deref, DerefMut};

fn mix(parts: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

fn mix_sorted(parts: &mut [u64]) -> u64 {
    parts.sort_unstable();
    mix(parts)
}

/// Number of WL refinement rounds behind [`invariant_hash`]. Its values
/// are pinned (see the tests), so this never changes.
const WL_ROUNDS: usize = 3;

/// An isomorphism-invariant 64-bit hash of a labeled directed multigraph:
/// isomorphic graphs always hash equal; unequal hashes prove
/// non-isomorphism. It depends only on labels and structure, never on id
/// numbering.
pub fn invariant_hash(g: &Graph) -> u64 {
    if g.vertex_count() == 0 {
        return mix(&[0x9e37_79b9]);
    }
    let verts: Vec<VertexId> = g.vertices().collect();
    // Arena-indexed color tables and reused neighbour buffers. Dead arena
    // slots keep color 0 and are never read (edge iterators only yield
    // live endpoints).
    let slots = verts.last().map(|v| v.index() + 1).unwrap_or(0);
    let mut color = vec![0u64; slots];
    for &v in &verts {
        color[v.index()] = mix(&[1, g.vertex_label(v).0 as u64]);
    }
    let mut next = vec![0u64; slots];
    let mut outs: Vec<u64> = Vec::new();
    let mut ins: Vec<u64> = Vec::new();
    for _ in 0..WL_ROUNDS {
        for &v in &verts {
            outs.clear();
            ins.clear();
            for e in g.out_edges(v) {
                let (_, d, l) = g.edge(e);
                outs.push(mix(&[2, l.0 as u64, color[d.index()]]));
            }
            for e in g.in_edges(v) {
                let (s, _, l) = g.edge(e);
                ins.push(mix(&[3, l.0 as u64, color[s.index()]]));
            }
            next[v.index()] = mix(&[
                color[v.index()],
                mix_sorted(&mut outs),
                mix_sorted(&mut ins),
            ]);
        }
        std::mem::swap(&mut color, &mut next);
    }

    let mut vparts: Vec<u64> = verts.iter().map(|&v| color[v.index()]).collect();
    let vertex_part = mix_sorted(&mut vparts);
    let mut eparts: Vec<u64> = g
        .edges()
        .map(|e| {
            let (s, d, l) = g.edge(e);
            mix(&[4, color[s.index()], l.0 as u64, color[d.index()]])
        })
        .collect();
    let edge_part = mix_sorted(&mut eparts);
    mix(&[
        g.vertex_count() as u64,
        g.edge_count() as u64,
        vertex_part,
        edge_part,
    ])
}

/// Vertices up to which the canonical code works in stack buffers.
const INLINE_V: usize = 16;
/// Edges up to which the canonical code works in stack buffers.
const INLINE_E: usize = 16;
/// Code words held inline: the header, two labels a word, one word an
/// edge.
const INLINE_CODE: usize = 1 + INLINE_V / 2 + INLINE_E;
/// Automorphisms kept for orbit pruning. More are found on very
/// symmetric graphs; dropping them costs search time, never exactness.
const MAX_GENS: usize = 8;
/// Largest vertex count a code can encode: an edge word packs both
/// endpoint positions into 16 bits each.
const MAX_CODE_VERTICES: usize = 1 << 16;

/// A fixed-length scratch slice: on the stack up to `N` elements, on the
/// heap beyond, so small patterns are coded without allocating.
enum Buf<T: Copy + Default, const N: usize> {
    Inline([T; N], usize),
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Buf<T, N> {
    /// `len` default-valued elements.
    fn new(len: usize) -> Self {
        if len <= N {
            Buf::Inline([T::default(); N], len)
        } else {
            Buf::Heap(vec![T::default(); len])
        }
    }
}

impl<T: Copy + Default, const N: usize> Deref for Buf<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            Buf::Inline(a, len) => &a[..*len],
            Buf::Heap(v) => v,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for Buf<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Buf::Inline(a, len) => &mut a[..*len],
            Buf::Heap(v) => v,
        }
    }
}

/// The exact canonical code of a labeled directed multigraph: equal for
/// two graphs iff they are isomorphic.
///
/// The code is the lexicographically least encoding of
/// `(n, m, vertex labels in position order, sorted (pos src, pos dst,
/// edge label) triples)` over the vertex orders that the search below
/// reaches, packed into `u64` words: one header word `n << 32 | m`, the
/// labels two to a word, then one word `src << 48 | dst << 32 | label`
/// per edge. Small patterns are coded in stack buffers.
pub struct CanonicalCode(Buf<u64, INLINE_CODE>);

impl CanonicalCode {
    /// Computes `g`'s canonical code.
    ///
    /// 1. Colour refinement: vertices start coloured by label and are
    ///    split by the multiset of (direction, edge label, neighbour
    ///    colour) of their edges until the partition is stable.
    /// 2. While a colour class has several vertices, each member of the
    ///    first smallest class is individualized in turn (given a colour
    ///    of its own) and the partition refined again. Every branch ends
    ///    in a vertex order; the code is the least encoding among them.
    /// 3. Vertices whose swap is an automorphism ("twins", e.g. the
    ///    spokes of a hub) give equal encodings, so only the lowest-index
    ///    twin in a class is individualized. Leaves whose encodings tie
    ///    reveal automorphisms, and a branch in the orbit of an explored
    ///    one under those automorphisms is skipped.
    ///
    /// Only order-independent data — labels, colours, class sizes —
    /// choose the classes to branch on, and the pruning skips only
    /// branches whose encodings an explored branch already has, so any
    /// numbering of a graph reaches the same least encoding. The encoding
    /// spells out the whole graph, so equal codes mean isomorphic
    /// graphs.
    ///
    /// # Panics
    /// Panics if `g` has more than 65,536 live vertices.
    pub fn of(g: &Graph) -> CanonicalCode {
        Canonizer::of_graph(g).run()
    }

    /// The code of the graph with vertex labels `labels` (vertex `i`
    /// labeled `labels[i]`) and edges `[src, dst, edge label]` over those
    /// indices — equal to [`CanonicalCode::of`] on any graph built from
    /// them, without building one.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or there are more than
    /// 65,536 vertices.
    pub fn of_parts(labels: &[u32], edges: &[[u32; 3]]) -> CanonicalCode {
        let n = labels.len();
        let mut own_labels: Buf<u32, INLINE_V> = Buf::new(n);
        own_labels.copy_from_slice(labels);
        let mut own_edges: Buf<[u32; 3], INLINE_E> = Buf::new(edges.len());
        own_edges.copy_from_slice(edges);
        for &[s, d, _] in edges {
            assert!(
                (s as usize) < n && (d as usize) < n,
                "edge {s} -> {d} outside {n} vertices"
            );
        }
        Canonizer::new(own_labels, own_edges).run()
    }

    /// The code's words.
    pub fn words(&self) -> &[u64] {
        &self.0
    }
}

impl PartialEq for CanonicalCode {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}

impl Eq for CanonicalCode {}

impl std::fmt::Debug for CanonicalCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CanonicalCode").field(&self.words()).finish()
    }
}

/// An edge's contribution to its endpoints' refinement signatures: a
/// splitmix64 finalizer over (edge label, kind, far colour), where kind
/// is 0 out, 1 in, 2 self-loop and colours are below 2^16. Signatures sum
/// these, so they are order-independent; a collision only leaves a class
/// unsplit for the search to break.
#[inline]
fn arc(kind: u64, label: u32, color: u32) -> u64 {
    let mut x = (label as u64) << 32 | kind << 16 | color as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The packed edge word of the code: endpoint positions, then label.
#[inline]
fn edge_word(src: u32, dst: u32, label: u32) -> u64 {
    (src as u64) << 48 | (dst as u64) << 32 | label as u64
}

/// Search state of one canonical-code computation over a graph
/// renumbered to dense vertex indices `0..n`.
struct Canonizer {
    n: usize,
    labels: Buf<u32, INLINE_V>,
    /// `(src, dst, label)` per edge.
    edges: Buf<[u32; 3], INLINE_E>,
    /// Twin class of each vertex, named by its lowest-index member.
    twin: Buf<u32, INLINE_V>,
    /// Sorted edge words of the least leaf so far (empty until a leaf).
    best: Buf<u64, INLINE_E>,
    have_best: bool,
    /// Vertex at each position of the least leaf.
    best_at: Buf<u32, INLINE_V>,
    /// Scratch for the current leaf's edge words.
    leaf: Buf<u64, INLINE_E>,
    /// Found automorphisms, `n` images each; set up at the first one.
    gens: Option<Buf<u32, { MAX_GENS * INLINE_V }>>,
    gen_count: usize,
}

impl Canonizer {
    /// The search state for `g`, renumbered densely in live-id order.
    fn of_graph(g: &Graph) -> Canonizer {
        let n = g.vertex_count();
        let slots = g.vertices().last().map_or(0, |v| v.index() + 1);
        let mut dense: Buf<u32, INLINE_V> = Buf::new(slots);
        let mut labels: Buf<u32, INLINE_V> = Buf::new(n);
        for (i, v) in g.vertices().enumerate() {
            dense[v.index()] = i as u32;
            labels[i] = g.vertex_label(v).0;
        }
        let mut edges: Buf<[u32; 3], INLINE_E> = Buf::new(g.edge_count());
        for (slot, e) in edges.iter_mut().zip(g.edges()) {
            let (s, d, l) = g.edge(e);
            *slot = [dense[s.index()], dense[d.index()], l.0];
        }
        Canonizer::new(labels, edges)
    }

    fn new(labels: Buf<u32, INLINE_V>, edges: Buf<[u32; 3], INLINE_E>) -> Canonizer {
        let (n, m) = (labels.len(), edges.len());
        assert!(
            n <= MAX_CODE_VERTICES,
            "canonical code of a graph with {n} vertices"
        );
        Canonizer {
            n,
            labels,
            edges,
            twin: Buf::new(n),
            best: Buf::new(m),
            have_best: false,
            best_at: Buf::new(n),
            leaf: Buf::new(m),
            gens: None,
            gen_count: 0,
        }
    }

    fn run(mut self) -> CanonicalCode {
        let (n, m) = (self.n, self.edges.len());
        // Initial colours: the rank of each vertex's label.
        let mut distinct: Buf<u32, INLINE_V> = Buf::new(n);
        distinct.copy_from_slice(&self.labels);
        distinct.sort_unstable();
        let mut cells = 0;
        for i in 0..n {
            if cells == 0 || distinct[i] != distinct[cells - 1] {
                distinct[cells] = distinct[i];
                cells += 1;
            }
        }
        let mut color: Buf<u32, INLINE_V> = Buf::new(n);
        for (c, l) in color.iter_mut().zip(self.labels.iter()) {
            *c = distinct[..cells]
                .binary_search(l)
                .expect("label is present") as u32;
        }
        let cells = self.refine(&mut color, cells);
        self.find_twins(&color);
        let mut prefix: Buf<u32, INLINE_V> = Buf::new(n);
        self.search(&color, cells, &mut prefix, 0);

        let label_words = n.div_ceil(2);
        let mut code = Buf::new(1 + label_words + m);
        code[0] = (n as u64) << 32 | m as u64;
        for (p, pair) in self.best_at.chunks(2).enumerate() {
            let hi = self.labels[pair[0] as usize] as u64;
            let lo = pair.get(1).map_or(0, |&v| self.labels[v as usize] as u64);
            code[1 + p] = hi << 32 | lo;
        }
        code[1 + label_words..].copy_from_slice(&self.best);
        CanonicalCode(code)
    }

    /// Refines `color` (ranks `0..cells`) until no class splits; returns
    /// the new class count. Each round ranks the vertices by (colour,
    /// signature), so classes keep their relative order and split in
    /// place.
    fn refine(&self, color: &mut [u32], mut cells: usize) -> usize {
        let n = self.n;
        let mut sig: Buf<u64, INLINE_V> = Buf::new(n);
        let mut order: Buf<u32, INLINE_V> = Buf::new(n);
        let mut ranks: Buf<u32, INLINE_V> = Buf::new(n);
        while cells < n {
            sig.fill(0);
            for &[s, d, l] in self.edges.iter() {
                let (s, d) = (s as usize, d as usize);
                if s == d {
                    sig[s] = sig[s].wrapping_add(arc(2, l, 0));
                } else {
                    sig[s] = sig[s].wrapping_add(arc(0, l, color[d]));
                    sig[d] = sig[d].wrapping_add(arc(1, l, color[s]));
                }
            }
            for (i, o) in order.iter_mut().enumerate() {
                *o = i as u32;
            }
            order.sort_unstable_by_key(|&v| (color[v as usize], sig[v as usize]));
            let mut next = 0u32;
            let mut prev = (color[order[0] as usize], sig[order[0] as usize]);
            for &v in order.iter() {
                let key = (color[v as usize], sig[v as usize]);
                if key != prev {
                    next += 1;
                    prev = key;
                }
                ranks[v as usize] = next;
            }
            let split = next as usize + 1;
            if split == cells {
                break;
            }
            color.copy_from_slice(&ranks);
            cells = split;
        }
        cells
    }

    /// Groups the vertices into twin classes: `u` and `v` are twins when
    /// swapping them maps the edge multiset onto itself. Such swaps
    /// compose, so the relation is an equivalence, and twins always share
    /// a refined colour.
    fn find_twins(&mut self, color: &[u32]) {
        let n = self.n;
        for v in 0..n {
            self.twin[v] = v as u32;
        }
        for u in 0..n {
            if self.twin[u] != u as u32 {
                continue;
            }
            for v in u + 1..n {
                if self.twin[v] == v as u32
                    && color[v] == color[u]
                    && self.swap_is_automorphism(u, v)
                {
                    self.twin[v] = u as u32;
                }
            }
        }
    }

    fn swap_is_automorphism(&self, u: usize, v: usize) -> bool {
        let (u, v) = (u as u32, v as u32);
        let swap = |x: u32| {
            if x == u {
                v
            } else if x == v {
                u
            } else {
                x
            }
        };
        let m = self.edges.len();
        let mut before: Buf<[u32; 3], INLINE_E> = Buf::new(m);
        let mut after: Buf<[u32; 3], INLINE_E> = Buf::new(m);
        let mut k = 0;
        for &[s, d, l] in self.edges.iter() {
            if s == u || s == v || d == u || d == v {
                before[k] = [s, d, l];
                after[k] = [swap(s), swap(d), l];
                k += 1;
            }
        }
        before[..k].sort_unstable();
        after[..k].sort_unstable();
        before[..k] == after[..k]
    }

    /// Explores the search node whose refined partition is `color`
    /// (`cells` classes), reached by individualizing `prefix[..depth]`.
    fn search(&mut self, color: &[u32], cells: usize, prefix: &mut [u32], depth: usize) {
        let n = self.n;
        if cells == n {
            self.leaf(color);
            return;
        }
        // Target: the first smallest non-singleton class.
        let mut size: Buf<u32, INLINE_V> = Buf::new(cells);
        for &c in color {
            size[c as usize] += 1;
        }
        let target = (0..cells)
            .filter(|&c| size[c] > 1)
            .min_by_key(|&c| size[c])
            .expect("a partition with fewer classes than vertices has a non-singleton class")
            as u32;
        let mut explored: Buf<u32, INLINE_V> = Buf::new(n);
        let mut explored_len = 0;
        let mut child: Buf<u32, INLINE_V> = Buf::new(n);
        for w in 0..n {
            if color[w] != target {
                continue;
            }
            let has_earlier_twin =
                (0..w).any(|u| color[u] == target && self.twin[u] == self.twin[w]);
            if has_earlier_twin
                || self.in_explored_orbit(&prefix[..depth], &explored[..explored_len], w)
            {
                continue;
            }
            // Individualize w: it takes the target colour, the rest of
            // its class and every later class shift up by one.
            for (v, (c, &pc)) in child.iter_mut().zip(color.iter()).enumerate() {
                *c = pc + u32::from(pc > target || (pc == target && v != w));
            }
            let child_cells = self.refine(&mut child, cells + 1);
            prefix[depth] = w as u32;
            self.search(&child, child_cells, prefix, depth + 1);
            explored[explored_len] = w as u32;
            explored_len += 1;
        }
    }

    /// True if `w` lies in the orbit of an explored sibling under the
    /// found automorphisms that fix every individualized vertex: its
    /// branch then holds the same encodings as that sibling's.
    fn in_explored_orbit(&self, prefix: &[u32], explored: &[u32], w: usize) -> bool {
        if self.gen_count == 0 || explored.is_empty() {
            return false;
        }
        let n = self.n;
        let mut root: Buf<u32, INLINE_V> = Buf::new(n);
        for (v, r) in root.iter_mut().enumerate() {
            *r = v as u32;
        }
        fn find(root: &mut [u32], mut v: u32) -> u32 {
            while root[v as usize] != v {
                root[v as usize] = root[root[v as usize] as usize];
                v = root[v as usize];
            }
            v
        }
        let gens = self.gens.as_ref().expect("gen_count > 0");
        for gamma in gens[..self.gen_count * n].chunks(n) {
            if prefix.iter().any(|&x| gamma[x as usize] != x) {
                continue;
            }
            for (v, &image) in gamma.iter().enumerate() {
                let (a, b) = (find(&mut root, v as u32), find(&mut root, image));
                root[a as usize] = b;
            }
        }
        let target = find(&mut root, w as u32);
        explored.iter().any(|&x| find(&mut root, x) == target)
    }

    /// Scores the leaf whose discrete partition `color` gives every
    /// vertex its position.
    fn leaf(&mut self, color: &[u32]) {
        for (word, &[s, d, l]) in self.leaf.iter_mut().zip(self.edges.iter()) {
            *word = edge_word(color[s as usize], color[d as usize], l);
        }
        self.leaf.sort_unstable();
        let order = if self.have_best {
            self.leaf[..].cmp(&self.best[..])
        } else {
            std::cmp::Ordering::Less
        };
        match order {
            std::cmp::Ordering::Less => {
                self.best.copy_from_slice(&self.leaf);
                self.have_best = true;
                for (v, &c) in color.iter().enumerate() {
                    self.best_at[c as usize] = v as u32;
                }
            }
            std::cmp::Ordering::Equal if self.gen_count < MAX_GENS => {
                // Same encoding: mapping each vertex to the best leaf's
                // vertex at its position is an automorphism.
                let n = self.n;
                let at = self.gen_count * n;
                let gens = self.gens.get_or_insert_with(|| Buf::new(MAX_GENS * n));
                for (v, &c) in color.iter().enumerate() {
                    gens[at + v] = self.best_at[c as usize];
                }
                self.gen_count += 1;
            }
            _ => {}
        }
    }
}

/// Sentinel for "no class" in the map's intrusive chains.
const NONE: u32 = u32::MAX;

/// Bookkeeping of one stored class.
struct Class {
    /// End of the class's code in the arena; it starts where the previous
    /// class's ends.
    code_end: usize,
    /// Next class whose code hashes like this one's.
    next_same_code: u32,
}

/// A map keyed by graph isomorphism class.
///
/// A lookup computes the graph's [`CanonicalCode`], probes an index from
/// the code's hash to the classes, and compares the stored code word for
/// word. Codes live packed in one arena. [`IsoClassMap::iter`] yields the
/// classes in insertion order, so the miners' output order (FSG's
/// candidate order, ties in its final sort) depends on their input alone.
pub struct IsoClassMap<V> {
    /// Code hash → a class with that code hash (the rest are chained).
    by_code: FxHashMap<u64, u32>,
    classes: Vec<Class>,
    codes: Vec<u64>,
    entries: Vec<(Graph, V)>,
}

impl<V> Default for IsoClassMap<V> {
    fn default() -> Self {
        IsoClassMap {
            by_code: FxHashMap::default(),
            classes: Vec::new(),
            codes: Vec::new(),
            entries: Vec::new(),
        }
    }
}

impl<V> IsoClassMap<V> {
    /// An empty iso-class map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct isomorphism classes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no classes are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn code(&self, class: usize) -> &[u64] {
        let start = class.checked_sub(1).map_or(0, |p| self.classes[p].code_end);
        &self.codes[start..self.classes[class].code_end]
    }

    /// The class with code `code` (whose hash is `h`), if stored.
    fn find(&self, code: &CanonicalCode, h: u64) -> Option<usize> {
        let mut class = self.by_code.get(&h).copied().unwrap_or(NONE);
        while class != NONE {
            let c = class as usize;
            if self.code(c) == code.words() {
                return Some(c);
            }
            class = self.classes[c].next_same_code;
        }
        None
    }

    /// Stores a new class for `g`, whose code is `code` (hash `h`).
    fn push(&mut self, g: Graph, value: V, code: &CanonicalCode, h: u64) -> usize {
        let id = self.entries.len();
        let id32 = u32::try_from(id).expect("fewer than 2^32 classes");
        self.codes.extend_from_slice(code.words());
        let next_same_code = self.by_code.insert(h, id32).unwrap_or(NONE);
        self.classes.push(Class {
            code_end: self.codes.len(),
            next_same_code,
        });
        self.entries.push((g, value));
        id
    }

    /// Returns a reference to the value for `g`'s iso class, if present.
    pub fn get(&self, g: &Graph) -> Option<&V> {
        self.get_by_code(&CanonicalCode::of(g))
    }

    /// Returns a reference to the value for the iso class whose code is
    /// `code`, if present.
    pub fn get_by_code(&self, code: &CanonicalCode) -> Option<&V> {
        let class = self.find(code, mix(code.words()))?;
        Some(&self.entries[class].1)
    }

    /// Returns a mutable reference to the value for `g`'s iso class.
    pub fn get_mut(&mut self, g: &Graph) -> Option<&mut V> {
        let code = CanonicalCode::of(g);
        let class = self.find(&code, mix(code.words()))?;
        Some(&mut self.entries[class].1)
    }

    /// True if `g`'s iso class is present.
    pub fn contains(&self, g: &Graph) -> bool {
        self.get(g).is_some()
    }

    /// Inserts `value` for `g`'s iso class; returns the previous value if
    /// the class was already present (the stored representative graph is
    /// kept).
    pub fn insert(&mut self, g: Graph, value: V) -> Option<V> {
        let code = CanonicalCode::of(&g);
        let h = mix(code.words());
        match self.find(&code, h) {
            Some(class) => Some(std::mem::replace(&mut self.entries[class].1, value)),
            None => {
                self.push(g, value, &code, h);
                None
            }
        }
    }

    /// Gets the value for `g`'s class, inserting `default()` (with a
    /// clone of `g` as the class representative) if absent.
    pub fn entry_or_insert_with(&mut self, g: &Graph, default: impl FnOnce() -> V) -> &mut V {
        self.entry_by_code_or_insert_with(&CanonicalCode::of(g), || g.clone(), default)
    }

    /// Gets the value for the class whose code is `code`, inserting
    /// `default()` with representative `graph()` if absent. `graph()`
    /// must have code `code`; it is built only for a new class.
    pub fn entry_by_code_or_insert_with(
        &mut self,
        code: &CanonicalCode,
        graph: impl FnOnce() -> Graph,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        let h = mix(code.words());
        let class = match self.find(code, h) {
            Some(class) => class,
            None => {
                let g = graph();
                debug_assert!(
                    CanonicalCode::of(&g) == *code,
                    "representative has another code"
                );
                self.push(g, default(), code, h)
            }
        };
        &mut self.entries[class].1
    }

    /// Iterates over `(representative graph, value)` pairs in insertion
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&Graph, &V)> {
        self.entries.iter().map(|(g, v)| (g, v))
    }

    /// Consumes the map, yielding `(representative, value)` pairs in
    /// insertion order.
    pub fn into_iter_pairs(self) -> impl Iterator<Item = (Graph, V)> {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::shapes;
    use crate::graph::{ELabel, VLabel};

    fn cycle(n: usize, rot: usize) -> Graph {
        let mut g = Graph::new();
        let vs: Vec<_> = (0..n).map(|_| g.add_vertex(VLabel(7))).collect();
        for i in 0..n {
            g.add_edge(vs[(i + rot) % n], vs[(i + rot + 1) % n], ELabel(1));
        }
        g
    }

    fn code(g: &Graph) -> CanonicalCode {
        CanonicalCode::of(g)
    }

    #[test]
    fn isomorphic_graphs_hash_equal() {
        assert_eq!(invariant_hash(&cycle(5, 0)), invariant_hash(&cycle(5, 3)));
    }

    /// The exact values the WL hash has always given: output digests and
    /// the temporal-window test renders are keyed by them.
    #[test]
    fn invariant_hash_values_are_pinned() {
        let mut one = Graph::new();
        one.add_vertex(VLabel(3));
        let mut two_cycle = Graph::new();
        let a = two_cycle.add_vertex(VLabel(0));
        let b = two_cycle.add_vertex(VLabel(1));
        two_cycle.add_edge(a, b, ELabel(2));
        two_cycle.add_edge(b, a, ELabel(2));
        let mut parallel = Graph::new();
        let x = parallel.add_vertex(VLabel(0));
        let y = parallel.add_vertex(VLabel(0));
        parallel.add_edge(x, y, ELabel(0));
        parallel.add_edge(x, y, ELabel(0));
        parallel.add_edge(x, y, ELabel(1));
        let pinned = [
            (Graph::new(), 0x8337_f9b2_9a9d_12ad_u64),
            (one, 0x3c67_2719_f4bf_5973),
            (two_cycle, 0x503a_ac7c_0be0_7cf6),
            (shapes::hub_and_spoke(3, 0, 1), 0x9199_61d3_614b_7184),
            (parallel, 0x0c1f_19de_cf19_7ea3),
        ];
        for (i, (g, want)) in pinned.iter().enumerate() {
            assert_eq!(invariant_hash(g), *want, "graph {i}");
        }
    }

    #[test]
    fn distinguishes_basic_shapes() {
        let c4 = cycle(4, 0);
        let p = shapes::chain(3, 7, 1);
        assert_ne!(invariant_hash(&c4), invariant_hash(&p));
        assert_ne!(code(&c4), code(&p));
        // Hub with 3 spokes vs chain of 4: same |V|,|E| as p.
        let h = shapes::hub_and_spoke(3, 7, 1);
        assert_ne!(invariant_hash(&h), invariant_hash(&p));
        assert_ne!(code(&h), code(&p));
    }

    #[test]
    fn direction_changes_hash() {
        let mut a = Graph::new();
        let x = a.add_vertex(VLabel(0));
        let y = a.add_vertex(VLabel(1));
        a.add_edge(x, y, ELabel(0));
        let mut b = Graph::new();
        let x2 = b.add_vertex(VLabel(0));
        let y2 = b.add_vertex(VLabel(1));
        b.add_edge(y2, x2, ELabel(0));
        assert_ne!(invariant_hash(&a), invariant_hash(&b));
        assert_ne!(code(&a), code(&b));
    }

    #[test]
    fn labels_change_hash() {
        let mut a = cycle(3, 0);
        let b = cycle(3, 0);
        let v0 = a.vertices().next().unwrap();
        a.set_vertex_label(v0, VLabel(99));
        assert_ne!(invariant_hash(&a), invariant_hash(&b));
        assert_ne!(code(&a), code(&b));
    }

    #[test]
    fn empty_and_singleton() {
        let e = Graph::new();
        let mut s = Graph::new();
        s.add_vertex(VLabel(0));
        assert_ne!(invariant_hash(&e), invariant_hash(&s));
        assert_eq!(invariant_hash(&e), invariant_hash(&Graph::new()));
        assert_ne!(code(&e), code(&s));
        assert_eq!(code(&e).words(), &[0]);
        assert_eq!(code(&s).words(), &[1 << 32, 0]);
    }

    /// The code spells out the graph in canonical positions: header,
    /// labels in position order, sorted edge words.
    #[test]
    fn code_layout() {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(5));
        let b = g.add_vertex(VLabel(2));
        let c = g.add_vertex(VLabel(9));
        g.add_edge(a, b, ELabel(4));
        g.add_edge(c, a, ELabel(1));
        // Labels order the positions: b = 0, a = 1, c = 2.
        assert_eq!(
            code(&g).words(),
            &[
                3 << 32 | 2,
                2 << 32 | 5,
                9 << 32,
                edge_word(1, 0, 4),
                edge_word(2, 1, 1),
            ]
        );
    }

    #[test]
    fn rotations_and_relabelings_share_a_code() {
        for n in 1..=12 {
            let c = code(&cycle(n, 0));
            for rot in 1..n {
                assert_eq!(code(&cycle(n, rot)), c, "C{n} rotated by {rot}");
            }
        }
        assert_ne!(
            code(&cycle(6, 0)),
            code(&{
                let mut two = cycle(3, 0);
                let vs: Vec<_> = (0..3).map(|_| two.add_vertex(VLabel(7))).collect();
                for i in 0..3 {
                    two.add_edge(vs[i], vs[(i + 1) % 3], ELabel(1));
                }
                two
            })
        );
    }

    #[test]
    fn twin_spokes_and_parallel_edges() {
        // Spokes inserted in either order, with a distinguishing label on
        // one of them.
        let mut a = Graph::new();
        let hub = a.add_vertex(VLabel(0));
        let spokes: Vec<_> = (0..4).map(|_| a.add_vertex(VLabel(0))).collect();
        for (i, &s) in spokes.iter().enumerate() {
            a.add_edge(hub, s, ELabel(u32::from(i == 0)));
        }
        let mut b = Graph::new();
        let spokes_b: Vec<_> = (0..4).map(|_| b.add_vertex(VLabel(0))).collect();
        let hub_b = b.add_vertex(VLabel(0));
        for (i, &s) in spokes_b.iter().enumerate() {
            b.add_edge(hub_b, s, ELabel(u32::from(i == 3)));
        }
        assert_eq!(code(&a), code(&b));
        // A doubled edge is a different multigraph.
        let mut c = a.clone();
        c.add_edge(hub, spokes[1], ELabel(0));
        let mut d = a.clone();
        d.add_edge(hub, spokes[0], ELabel(0));
        assert_ne!(code(&c), code(&d));
        assert_ne!(code(&c), code(&a));
    }

    #[test]
    fn dead_vertices_are_ignored() {
        let mut g = cycle(4, 0);
        let extra = g.add_vertex(VLabel(7));
        let first = g.vertices().next().unwrap();
        g.add_edge(first, extra, ELabel(3));
        g.remove_vertex(extra);
        assert_eq!(code(&g), code(&cycle(4, 1)));
    }

    #[test]
    fn larger_graphs_spill_to_the_heap() {
        let big = cycle(40, 0);
        assert_eq!(code(&big), code(&cycle(40, 17)));
        assert_ne!(code(&big), code(&cycle(39, 0)));
    }

    #[test]
    fn class_map_dedups_iso_graphs() {
        let mut m: IsoClassMap<u32> = IsoClassMap::new();
        assert!(m.insert(cycle(5, 0), 1).is_none());
        assert_eq!(m.insert(cycle(5, 2), 2), Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(*m.get(&cycle(5, 4)).unwrap(), 2);
        assert!(m.insert(cycle(4, 0), 3).is_none());
        assert_eq!(m.len(), 2);
        assert!(!m.contains(&cycle(6, 0)));
        *m.get_mut(&cycle(4, 3)).unwrap() += 10;
        assert_eq!(*m.get(&cycle(4, 0)).unwrap(), 13);
    }

    #[test]
    fn entry_api_counts() {
        let mut m: IsoClassMap<u32> = IsoClassMap::new();
        for rot in 0..5 {
            *m.entry_or_insert_with(&cycle(5, rot), || 0) += 1;
        }
        assert_eq!(m.len(), 1);
        assert_eq!(*m.get(&cycle(5, 0)).unwrap(), 5);
    }

    /// `iter` and `into_iter_pairs` yield classes in insertion order,
    /// also for classes whose WL hashes collide.
    #[test]
    fn iteration_follows_insertion_order() {
        // Two directed 6-vertex graphs WL cannot tell apart: a 6-cycle
        // and two 3-cycles.
        let c6 = cycle(6, 0);
        let mut two_c3 = cycle(3, 0);
        let vs: Vec<_> = (0..3).map(|_| two_c3.add_vertex(VLabel(7))).collect();
        for i in 0..3 {
            two_c3.add_edge(vs[i], vs[(i + 1) % 3], ELabel(1));
        }
        assert_eq!(invariant_hash(&c6), invariant_hash(&two_c3));
        let mut m: IsoClassMap<usize> = IsoClassMap::new();
        m.insert(cycle(4, 0), 0);
        m.insert(c6, 1);
        m.insert(cycle(2, 0), 2);
        m.insert(two_c3, 3);
        assert_eq!(m.len(), 4);
        let order: Vec<usize> = m.iter().map(|(_, &v)| v).collect();
        assert_eq!(order, [0, 1, 2, 3]);
        let owned: Vec<usize> = m.into_iter_pairs().map(|(_, v)| v).collect();
        assert_eq!(owned, [0, 1, 2, 3]);
    }

    #[test]
    fn parallel_edges_distinguish_from_single() {
        let mut a = Graph::new();
        let x = a.add_vertex(VLabel(0));
        let y = a.add_vertex(VLabel(0));
        a.add_edge(x, y, ELabel(0));
        let mut b = a.clone();
        let (bx, by) = {
            let mut it = b.vertices();
            (it.next().unwrap(), it.next().unwrap())
        };
        b.add_edge(bx, by, ELabel(0));
        assert_ne!(invariant_hash(&a), invariant_hash(&b));
        assert_ne!(code(&a), code(&b));
    }
}
