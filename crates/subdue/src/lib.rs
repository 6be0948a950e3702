//! # tnet-subdue
//!
//! A from-scratch reproduction of the SUBDUE substructure-discovery
//! system (Holder, Cook & Djoko) as exercised by the ICDE 2005
//! transportation-mining paper: beam-search expansion of instance lists
//! over a single labeled graph, candidate evaluation by Minimum
//! Description Length, Size, or SetCover principles, and hierarchical
//! compression passes.
//!
//! ```
//! use tnet_subdue::{discover, SubdueConfig, EvalMethod};
//! use tnet_graph::generate::{plant_patterns, shapes};
//!
//! let planted = plant_patterns(&[shapes::hub_and_spoke(3, 0, 1)], 5, 0, 1, 1);
//! let cfg = SubdueConfig { eval: EvalMethod::Size, beam_width: 6, ..Default::default() };
//! let out = discover(&planted.graph, &cfg).unwrap();
//! assert_eq!(out.best[0].pattern.edge_count(), 3); // recovers the hub
//! ```

pub mod compress;
pub mod discover;
pub mod eval;
pub mod substructure;

pub use compress::{compress, hierarchical, HierarchyLevel};
pub use discover::{
    discover, discover_core, discover_with, SubdueConfig, SubdueError, SubdueOutput,
};
pub use eval::{evaluate, set_cover_value, set_cover_value_counted, EvalMethod, GraphContext};
pub use substructure::{
    expand, expand_counted, initial_substructures, Instance, SubdueStats, Substructure,
};
