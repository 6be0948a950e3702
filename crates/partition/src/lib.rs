//! # tnet-partition
//!
//! Partitioning strategies that turn a single transportation network
//! graph into graph-transaction sets mineable by FSG-style algorithms:
//!
//! * [`split`] — Algorithm 2: breadth-first / depth-first structural
//!   partitioning (§5.2.1);
//! * [`single_graph`] — Algorithm 1: repeated split-and-mine with
//!   iso-class union (§5.2);
//! * [`temporal`] — per-day active-edge partitioning with component
//!   splitting, edge dedup, and size filtering (§6);
//! * [`summary`] — transaction-set summaries in the exact shape of the
//!   paper's Tables 2 and 3;
//! * [`window`] — multi-granularity (hour/day/week) units and
//!   tumbling/sliding windows over them (ROADMAP item 3).

pub mod single_graph;
pub mod split;
pub mod summary;
pub mod temporal;
pub mod window;

pub use single_graph::{mine_single_graph, SingleGraphPattern};
pub use split::{split_graph, Strategy};
pub use summary::{summarize_set, TransactionSetSummary};
pub use temporal::{
    daily_graphs, filter_by_vertex_labels, temporal_partition, TemporalError, TemporalOptions,
};
pub use window::{unit_partition, Granularity, UnitPartition, WindowSpec};
