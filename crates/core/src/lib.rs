//! # tnet-core
//!
//! The top-level library of the `tnet-mine` workspace — a Rust
//! reproduction of *Knowledge Discovery from Transportation Network
//! Data* (Jiang, Vaidya, Balaporia, Clifton, Banich; ICDE 2005).
//!
//! It ties the substrates together:
//!
//! * [`pipeline::Pipeline`] — dataset → OD graphs → partitioning →
//!   miners → combined report;
//! * [`patterns`] — the transportation pattern taxonomy (hubs, chains,
//!   cycles, bow-ties, deadheads) and interestingness scoring;
//! * [`to_table`] — the §7 flattened transactional form;
//! * [`experiments`] — one runner per table/figure of the paper
//!   (E1–E15, plus the E17–E19 extensions; see the module table).
//!
//! ```
//! use tnet_core::pipeline::Pipeline;
//!
//! let p = Pipeline::synthetic(0.01, 42);
//! let stats = p.dataset_stats();
//! assert!(stats.distinct_od_pairs > 100);
//! ```

pub mod error;
pub mod experiments;
pub mod patterns;
pub mod pipeline;
pub mod supervisor;
pub mod to_table;

pub use error::PipelineError;
pub use patterns::{classify, interestingness, Interestingness, PatternShape};
pub use pipeline::{Pipeline, ReportOutcome};
pub use supervisor::{Effort, SectionCtx, SectionOutcome, SectionStatus, SupervisorConfig};
pub use to_table::transactions_to_table;
