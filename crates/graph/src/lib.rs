//! # tnet-graph
//!
//! Labeled directed multigraph substrate for transportation-network
//! mining — the shared foundation of the `tnet-mine` workspace
//! (a Rust reproduction of *Knowledge Discovery from Transportation
//! Network Data*, ICDE 2005).
//!
//! Provides:
//!
//! * [`graph::GraphBuilder`] (alias [`graph::Graph`]) — arena-based
//!   directed labeled multigraph with tombstone deletion (what ingest
//!   builds and the partitioners peel edges from);
//! * [`frozen`] — [`frozen::TxnSet`], graphs frozen into label-sorted
//!   CSR arrays packed into shared arenas and read through
//!   [`frozen::TxnRef`] — the read side every miner traverses — and
//!   [`frozen::FrozenGraph`], one graph's `freeze()` as a
//!   one-transaction set;
//! * [`view`] — the [`view::GraphView`] read trait both representations
//!   implement (and [`view::TxnSource`] for transaction collections);
//! * [`traverse`] — BFS reachability, weakly connected components;
//! * [`iso`] — VF2-style subgraph monomorphism & graph isomorphism,
//!   implementing the paper's §4 pattern-identity definition;
//! * [`canon`] — exact canonical codes, isomorphism-invariant hashing and
//!   iso-class keyed maps
//!   (pattern dedup for the miners);
//! * [`generate`] — random graphs, planted-pattern composites (footnote 2
//!   recall experiment), and the paper's "known good shapes";
//! * [`rng`] — in-tree seeded PRNG (splitmix64 + xoshiro256\*\*), the
//!   workspace-wide replacement for the external `rand` crate;
//! * [`stats`], [`dot`] — summaries and rendering;
//! * [`hash`] — fast Fx hashing used throughout the workspace.
//!
//! ## Quick example
//!
//! ```
//! use tnet_graph::graph::{Graph, VLabel, ELabel};
//! use tnet_graph::iso::has_embedding;
//!
//! // A tiny transportation graph: factory ships to two stores.
//! let mut g = Graph::new();
//! let factory = g.add_vertex(VLabel(0));
//! let store_a = g.add_vertex(VLabel(0));
//! let store_b = g.add_vertex(VLabel(0));
//! g.add_edge(factory, store_a, ELabel(1)); // light load
//! g.add_edge(factory, store_b, ELabel(1));
//!
//! // Does the 2-spoke hub pattern occur?
//! let pattern = tnet_graph::generate::shapes::hub_and_spoke(2, 0, 1);
//! assert!(has_embedding(&pattern, &g));
//! ```

pub mod canon;
pub mod dot;
pub mod fingerprint;
pub mod frozen;
pub mod generate;
pub mod graph;
pub mod hash;
pub mod iso;
pub mod rng;
pub mod stats;
pub mod traverse;
pub mod view;

pub use frozen::{FrozenGraph, FrozenStats, TxnRef, TxnSet, TxnSlice};
pub use graph::{ELabel, EdgeId, Graph, GraphBuilder, VLabel, VertexId};
pub use view::{GraphView, TxnSource};
