//! `tnet-serve` — the generational pattern-mining daemon.
//!
//! The paper mines one static six-month OD snapshot offline; the
//! ROADMAP's north star is the same discovery pipeline as a long-lived
//! service under continuous traffic. This crate is that serving layer,
//! std-only like the rest of the workspace:
//!
//! - [`generation`] — the snapshot: live transactions plus the frozen
//!   CSR of the deduplicated OD graph per edge labeling, built by the
//!   *same* code path as `tnet mine` / `tnet stats` so online replies
//!   are byte-identical to offline runs on the same data. The single
//!   writer publishes each one through [`generation::Current`], an
//!   `RwLock<Arc<Generation>>` held only for a pointer clone or swap;
//!   every query answers from the `Arc` it took.
//! - [`writer`] — the single mutator: batched appends and tombstone
//!   deletes into the transaction log, periodic (or forced) publishes,
//!   and graceful degradation when a publish fails (the `serve::publish`
//!   failpoint tests exactly that).
//! - [`crc`] / [`wal`] / [`snapshot`] / [`durability`] — the durable
//!   half: every accepted mutation is appended to a CRC32C-checksummed
//!   write-ahead log *before* it is acknowledged or publishable,
//!   periodic checkpoints bound replay time, and startup recovery
//!   rebuilds the live set (truncating a torn tail with a warning,
//!   refusing mid-log corruption with a typed error). DESIGN.md §13.
//! - [`cache`] — an LRU memo of serialized replies keyed on
//!   `(generation, canonical query)`, invalidated by generation
//!   turnover rather than by any explicit walk.
//! - [`proto`] — the newline-delimited JSON wire protocol and its typed
//!   [`tnet_core::error::PipelineError`] error replies.
//! - [`query`] / [`server`] — request execution against one
//!   generation, and the accept/connection/shutdown machinery, which
//!   serves at most [`server::MAX_CONNECTIONS`] clients at once.
//!
//! Architecture, wire schema, and cache policy: DESIGN.md §12. Client
//! example: README "Serving".

pub mod cache;
pub mod crc;
pub mod durability;
pub mod generation;
pub mod proto;
pub mod query;
pub mod server;
pub mod snapshot;
pub mod wal;
pub mod writer;

pub use cache::ResultCache;
pub use durability::{recover, Durability, DurabilityConfig, Recovered};
pub use generation::{Current, Generation};
pub use proto::Request;
pub use server::{start, ServeConfig, ServerHandle, MAX_CONNECTIONS};
pub use wal::FsyncPolicy;
pub use writer::{IngestOp, WriterConfig};

/// Serializes tests that arm process-global failpoints with the tests
/// that pass through those sites (`serve::wal_append`, `serve::publish`,
/// `serve::recover`), across every module of this crate's unit-test
/// binary; otherwise a test can hit a fault armed by another.
#[cfg(test)]
pub(crate) fn failpoint_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
