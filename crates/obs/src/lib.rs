//! `tnet-obs` — structured tracing and metrics for the tnet pipeline.
//!
//! Two pieces, both std-only and dependency-free:
//!
//! - [`Tracer`]/[`Span`]: a wall-clock span tree with RAII phase timers,
//!   answering "where did the time go" for a run (ingest → binning →
//!   partitioning → miner phases → supervisor sections).
//! - [`MetricsRegistry`]: one named-counter namespace absorbing the
//!   per-layer counter structs (`exec.*`, `fsg.*`, `subdue.*`),
//!   answering "what did the run do".
//!
//! [`json`] is the workspace's one JSON parser and writer, and holds
//! the `tnet-trace/v1` export and decoder for both.
//!
//! Both ride on the `tnet_exec::Exec` handle (see `Exec::with_obs`), so
//! every layer that already takes an execution handle is traced without
//! new plumbing. Disabled (the default), a span is an empty handle and
//! costs one branch per phase boundary; the registry is only touched at
//! run boundaries. See DESIGN.md §10 for the span model, the naming
//! scheme, and the `tnet-trace/v1` JSON schema.

mod histogram;
pub mod json;
mod metrics;
mod span;

pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use metrics::MetricsRegistry;
pub use span::{Span, SpanNode, Timed, Tracer};
