//! Per-pool execution counters.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative counters for one [`crate::Exec`] pool (shared by all
/// child handles). All updates are relaxed — these are observability
/// numbers, not synchronization.
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Items submitted across all parallel regions.
    pub(crate) tasks: AtomicU64,
    /// Chunks claimed and executed by workers.
    pub(crate) chunks: AtomicU64,
    /// Parallel regions entered (one per `par_*` call).
    pub(crate) regions: AtomicU64,
    /// Regions that ended early because their token was cancelled (or a
    /// deadline passed) before every chunk completed.
    pub(crate) cancelled_regions: AtomicU64,
    /// Wall-clock nanoseconds spent inside regions, measured on the
    /// calling thread from entry to reassembly.
    pub(crate) region_nanos: AtomicU64,
    /// Nanoseconds workers spent inside user work.
    pub(crate) busy_nanos: AtomicU64,
    /// Nanoseconds workers spent claiming/waiting (region wall time minus
    /// busy time, summed per worker).
    pub(crate) idle_nanos: AtomicU64,
}

impl PoolCounters {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            tasks: self.tasks.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            regions: self.regions.load(Ordering::Relaxed),
            cancelled_regions: self.cancelled_regions.load(Ordering::Relaxed),
            region_nanos: self.region_nanos.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
            idle_nanos: self.idle_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of [`PoolCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    pub tasks: u64,
    pub chunks: u64,
    pub regions: u64,
    pub cancelled_regions: u64,
    pub region_nanos: u64,
    pub busy_nanos: u64,
    pub idle_nanos: u64,
}

impl CountersSnapshot {
    /// Folds this snapshot into a [`tnet_obs::MetricsRegistry`] under `exec.*`
    /// names — the pool's slice of the unified counter namespace.
    pub fn record_into(&self, metrics: &tnet_obs::MetricsRegistry) {
        metrics.add("exec.tasks", self.tasks);
        metrics.add("exec.chunks", self.chunks);
        metrics.add("exec.regions", self.regions);
        metrics.add("exec.cancelled_regions", self.cancelled_regions);
        metrics.add("exec.region_nanos", self.region_nanos);
        metrics.add("exec.busy_nanos", self.busy_nanos);
        metrics.add("exec.idle_nanos", self.idle_nanos);
    }

    /// Fraction of worker wall time spent in user work, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_nanos + self.idle_nanos;
        if total == 0 {
            return 0.0;
        }
        self.busy_nanos as f64 / total as f64
    }
}

impl fmt::Display for CountersSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tasks in {} chunks over {} regions ({} cancelled, {:.1}ms wall); \
             busy {:.1}ms, idle {:.1}ms ({:.0}% utilization)",
            self.tasks,
            self.chunks,
            self.regions,
            self.cancelled_regions,
            self.region_nanos as f64 / 1e6,
            self.busy_nanos as f64 / 1e6,
            self.idle_nanos as f64 / 1e6,
            self.utilization() * 100.0
        )
    }
}
