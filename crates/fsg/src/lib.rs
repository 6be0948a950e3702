//! # tnet-fsg
//!
//! An Apriori-style frequent-subgraph miner over sets of labeled directed
//! graph transactions — a from-scratch reproduction of FSG (Kuramochi &
//! Karypis 2001) as used in the ICDE 2005 transportation-mining paper.
//!
//! Pipeline per level: single-edge extension candidate generation
//! ([`extend`]), downward-closure pruning, VF2 support counting with
//! parent TID lists, iso-class pattern identity. A configurable memory
//! budget reproduces the paper's §6.1 out-of-memory failure mode as a
//! typed error. The same loop mines one large graph without partitioning
//! when [`nbhd`] supplies its r-hop neighborhoods as the transactions.
//!
//! ```
//! use tnet_fsg::{mine, FsgConfig, Support};
//! use tnet_graph::generate::shapes;
//!
//! let txns: Vec<_> = (0..4).map(|_| shapes::hub_and_spoke(3, 0, 1)).collect();
//! let out = mine(&txns, &FsgConfig::default().with_support(Support::Count(4))).unwrap();
//! // The 3-spoke hub (and all its sub-hubs/edges) occur in all four.
//! assert!(out.patterns.iter().any(|p| p.graph.edge_count() == 3));
//! ```

mod embed;
pub mod extend;
pub mod miner;
pub mod nbhd;
pub mod tidset;
pub mod types;

pub use embed::set_seed_cap_for_tests;
pub use miner::{mine, mine_for_algorithm1, mine_for_algorithm1_with, mine_source, mine_with};
pub use nbhd::{
    mine_frozen, mine_neighborhoods, NbhdConfig, NbhdError, NbhdIndex, NbhdOutput, NbhdPattern,
    NbhdStats, NbhdView,
};
pub use types::{FrequentPattern, FsgConfig, FsgError, FsgOutput, MiningStats, Support};
