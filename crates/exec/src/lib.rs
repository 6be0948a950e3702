//! # tnet-exec
//!
//! A dependency-free parallel execution runtime for the `tnet-mine`
//! workspace, built entirely on `std::thread::scope`.
//!
//! The paper's central complaint is that substructure discovery does not
//! scale (SUBDUE: 3.25 h on a 100-vertex graph, §5.1; FSG: out of memory
//! on temporal transactions, §6.1). This crate is the workspace's answer
//! on the wall-clock axis: every miner hot path (FSG support counting,
//! Algorithm 1 partition mining, SUBDUE beam evaluation, EM's E-step)
//! fans out through an [`Exec`] handle.
//!
//! Design pillars:
//!
//! * **Determinism** — [`Exec::par_map`] assembles results in input
//!   order, and work is chunked by a policy that depends only on input
//!   *length* (never thread count), so parallel output is byte-identical
//!   to sequential output at any thread count. `threads = 1` runs the
//!   same chunked code path.
//! * **Self-balancing** — workers claim chunks from a shared atomic
//!   cursor; no work-stealing deques, no channels, no locks.
//! * **Cooperative cancellation** — a hierarchical [`CancelToken`] lets
//!   a memory-budget abort (or any caller) stop all workers of a region
//!   promptly via [`Exec::try_par_map`], without poisoning sibling work.
//!   Tokens can carry a deadline ([`CancelToken::with_deadline`]) so a
//!   supervisor can time-box a subtree of work.
//! * **Fault injection** — the [`failpoint`] module arms named sites in
//!   miner hot paths (`TNET_FAILPOINTS=site=panic|delay:ms|err`) so
//!   degradation paths are deterministically testable.
//! * **Observability** — per-pool [`PoolCounters`] record tasks run,
//!   chunks claimed, and busy vs idle nanoseconds across regions, and
//!   every handle carries a `tnet-obs` context ([`Exec::with_obs`]): a
//!   tracing [`Span`] that phase timers nest under and a
//!   [`MetricsRegistry`] that run stats fold into. Both are inert
//!   no-ops until a caller attaches them (e.g. the CLI's `--trace`).
//!
//! ```
//! use tnet_exec::Exec;
//!
//! let exec = Exec::new(4);
//! let squares = exec.par_map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]); // input order, always
//! ```

mod cancel;
mod counters;
pub mod failpoint;
mod pool;
mod threads;

pub use cancel::{CancelToken, Cancelled};
pub use counters::{CountersSnapshot, PoolCounters};
pub use pool::Exec;
pub use threads::Threads;
// Re-exported so downstream layers can name the observability types
// without a separate dependency edge.
pub use tnet_obs::{MetricsRegistry, Span, SpanNode, Tracer};
