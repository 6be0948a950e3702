//! The worker pool: scoped threads over a chunked atomic-cursor queue.

use crate::cancel::{CancelToken, Cancelled};
use crate::counters::{CountersSnapshot, PoolCounters};
use crate::threads::Threads;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tnet_obs::{MetricsRegistry, Span};

/// Upper bound on chunks per region. Chunking depends only on input
/// length — never on thread count — so a region's chunk count (and the
/// `exec.chunks` counter) is identical at any thread count, including 1.
const MAX_CHUNKS: usize = 256;

/// Half-open chunk bounds for `len` items: `min(len, MAX_CHUNKS)`
/// near-equal slices in input order.
fn chunk_bounds(len: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let n = len.min(MAX_CHUNKS);
    (0..n).map(|i| (i * len / n, (i + 1) * len / n)).collect()
}

/// A handle on the execution runtime: thread budget + cancellation token
/// + shared counters.
///
/// `Exec` is cheap to clone-like via [`Exec::child`] /
/// [`Exec::child_with_threads`]; children share the pool counters and
/// observe the parent's cancellation while owning their own token.
///
/// Workers are spawned per parallel region with `std::thread::scope` —
/// the calling thread participates as a worker, so `threads = n` means
/// `n` total workers, and a region on a 1-thread pool spawns nothing.
/// At mining granularity (a chunk is many VF2 calls or many EM rows)
/// spawn cost is noise; in exchange, borrows into caller stack frames
/// are safe and worker panics propagate to the caller.
pub struct Exec {
    threads: usize,
    cancel: CancelToken,
    counters: Arc<PoolCounters>,
    /// Current tracing span; disabled unless attached via
    /// [`Exec::with_obs`]/[`Exec::with_span`]. Children inherit it, so a
    /// miner handed a child handle times its phases under the caller's
    /// node.
    span: Span,
    /// Shared named-counter registry (see [`tnet_obs::MetricsRegistry`]);
    /// miners fold their run stats into it on completion.
    metrics: MetricsRegistry,
    /// Items per chunk for [`Exec::par_map`]/[`Exec::try_par_map`]
    /// (0 = automatic [`chunk_bounds`] sizing). Still a pure function of
    /// input length, so results stay identical at any thread count.
    chunk_items: usize,
}

impl std::fmt::Debug for Exec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Exec")
            .field("threads", &self.threads)
            .field("cancel", &self.cancel)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl Exec {
    /// A pool with an explicit worker count (clamped to >= 1).
    pub fn new(threads: usize) -> Self {
        Exec {
            threads: threads.max(1),
            cancel: CancelToken::new(),
            counters: Arc::new(PoolCounters::default()),
            span: Span::disabled(),
            metrics: MetricsRegistry::new(),
            chunk_items: 0,
        }
    }

    /// The single-threaded pool: identical semantics (and identical
    /// output) to any multi-threaded pool, with zero spawns.
    pub fn sequential() -> Self {
        Exec::new(1)
    }

    /// A pool sized by the [`Threads`] resolution chain
    /// (explicit / `TNET_THREADS` / hardware).
    pub fn from_threads(cfg: Threads) -> Self {
        Exec::new(cfg.resolve())
    }

    /// Effective worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A child handle: same thread budget, shared counters, child
    /// cancellation token (see [`CancelToken::child`]).
    pub fn child(&self) -> Exec {
        self.child_with_threads(self.threads)
    }

    /// A child handle with its own thread budget — used to split a
    /// budget across nested regions (e.g. one thread per repetition
    /// inside an already-parallel sweep).
    pub fn child_with_threads(&self, threads: usize) -> Exec {
        Exec {
            threads: threads.max(1),
            cancel: self.cancel.child(),
            counters: Arc::clone(&self.counters),
            span: self.span.clone(),
            metrics: self.metrics.clone(),
            chunk_items: self.chunk_items,
        }
    }

    /// A child handle whose token expires `timeout` from now (see
    /// [`CancelToken::child_with_deadline`]): its cancellable regions
    /// return `Err(Cancelled)` once the deadline passes, while the
    /// parent and siblings keep running.
    pub fn child_with_deadline(&self, threads: usize, timeout: Duration) -> Exec {
        Exec {
            threads: threads.max(1),
            cancel: self.cancel.child_with_deadline(timeout),
            counters: Arc::clone(&self.counters),
            span: self.span.clone(),
            metrics: self.metrics.clone(),
            chunk_items: self.chunk_items,
        }
    }

    /// This handle, attached to an observability context: subsequent
    /// phase timers land under `span` and run stats fold into `metrics`.
    /// Same token, thread budget, and pool counters as `self`.
    pub fn with_obs(&self, span: Span, metrics: MetricsRegistry) -> Exec {
        Exec {
            threads: self.threads,
            cancel: self.cancel.clone(),
            counters: Arc::clone(&self.counters),
            span,
            metrics,
            chunk_items: self.chunk_items,
        }
    }

    /// This handle with its current span swapped — used by the
    /// supervisor to scope a section's work under the section's node.
    /// Same token, thread budget, pool counters, and metrics.
    pub fn with_span(&self, span: Span) -> Exec {
        Exec {
            threads: self.threads,
            cancel: self.cancel.clone(),
            counters: Arc::clone(&self.counters),
            span,
            metrics: self.metrics.clone(),
            chunk_items: self.chunk_items,
        }
    }

    /// This handle with a fixed items-per-chunk for
    /// [`Exec::par_map`]/[`Exec::try_par_map`] (`0` restores automatic
    /// sizing). Same token, thread budget, pool counters, span, and
    /// metrics. Chunking stays a pure function of input length, so
    /// results are unchanged at any thread count; only scheduling
    /// granularity (and cache residency per chunk) moves. The size in
    /// effect is recorded under the `exec.chunk_items` metric the first
    /// time a map region runs.
    pub fn with_chunk_items(&self, items: usize) -> Exec {
        Exec {
            threads: self.threads,
            cancel: self.cancel.clone(),
            counters: Arc::clone(&self.counters),
            span: self.span.clone(),
            metrics: self.metrics.clone(),
            chunk_items: items,
        }
    }

    /// Items per chunk for map regions (0 = automatic).
    pub fn chunk_items(&self) -> usize {
        self.chunk_items
    }

    /// Chunk bounds for a map region: fixed `chunk_items`-sized slices
    /// when a hint is set, [`chunk_bounds`] otherwise.
    fn map_bounds(&self, len: usize) -> Vec<(usize, usize)> {
        if self.chunk_items == 0 {
            return chunk_bounds(len);
        }
        if len == 0 {
            return Vec::new();
        }
        self.metrics
            .record_max("exec.chunk_items", self.chunk_items as u64);
        let n = len.div_ceil(self.chunk_items);
        (0..n)
            .map(|i| (i * self.chunk_items, ((i + 1) * self.chunk_items).min(len)))
            .collect()
    }

    /// The tracing span phases on this handle should time under.
    /// Disabled (no-op) unless an observability context was attached.
    pub fn span(&self) -> &Span {
        &self.span
    }

    /// The shared named-counter registry for run stats.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// This handle's cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Cancels this handle's token (and thereby all child handles).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// True once this handle or any ancestor handle was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Snapshot of the pool-wide counters (shared with all children).
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// Applies `f` to every item, returning results **in input order**.
    /// Ignores cancellation: every item is always processed.
    pub fn par_map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let bounds = self.map_bounds(items.len());
        let per_chunk = self
            .run_region(items.len(), bounds.len(), false, |ci| {
                let (lo, hi) = bounds[ci];
                items[lo..hi].iter().map(&f).collect::<Vec<R>>()
            })
            .expect("non-cancellable region cannot be cancelled");
        per_chunk.into_iter().flatten().collect()
    }

    /// As [`Exec::par_map`], but workers stop claiming chunks once this
    /// handle's token is cancelled, and the call returns
    /// `Err(Cancelled)` instead of a complete result.
    pub fn try_par_map<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Result<Vec<R>, Cancelled> {
        let bounds = self.map_bounds(items.len());
        let per_chunk = self.run_region(items.len(), bounds.len(), true, |ci| {
            let (lo, hi) = bounds[ci];
            items[lo..hi].iter().map(&f).collect::<Vec<R>>()
        })?;
        Ok(per_chunk.into_iter().flatten().collect())
    }

    /// The region engine: `n_chunks` units of work claimed off an atomic
    /// cursor by `min(threads, n_chunks)` workers (the caller included),
    /// results reassembled in chunk order.
    fn run_region<R: Send>(
        &self,
        len: usize,
        n_chunks: usize,
        cancellable: bool,
        work: impl Fn(usize) -> R + Sync,
    ) -> Result<Vec<R>, Cancelled> {
        self.counters.regions.fetch_add(1, Ordering::Relaxed);
        self.counters.tasks.fetch_add(len as u64, Ordering::Relaxed);
        if n_chunks == 0 {
            return if cancellable && self.cancel.is_cancelled() {
                self.counters
                    .cancelled_regions
                    .fetch_add(1, Ordering::Relaxed);
                Err(Cancelled)
            } else {
                Ok(Vec::new())
            };
        }
        let region_entered = Instant::now();
        let cursor = AtomicUsize::new(0);
        let workers = self.threads.min(n_chunks);

        let worker_loop = || -> Vec<(usize, R)> {
            let region_start = Instant::now();
            let mut busy = 0u64;
            let mut done: Vec<(usize, R)> = Vec::new();
            loop {
                if cancellable && self.cancel.is_cancelled() {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let t0 = Instant::now();
                let r = work(i);
                busy += t0.elapsed().as_nanos() as u64;
                done.push((i, r));
                self.counters.chunks.fetch_add(1, Ordering::Relaxed);
            }
            let wall = region_start.elapsed().as_nanos() as u64;
            self.counters.busy_nanos.fetch_add(busy, Ordering::Relaxed);
            self.counters
                .idle_nanos
                .fetch_add(wall.saturating_sub(busy), Ordering::Relaxed);
            done
        };

        let mut collected: Vec<(usize, R)> = if workers == 1 {
            worker_loop()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker_loop)).collect();
                let mut all = worker_loop();
                for h in handles {
                    match h.join() {
                        Ok(part) => all.extend(part),
                        // Re-raise worker panics on the calling thread.
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                all
            })
        };

        self.counters.region_nanos.fetch_add(
            region_entered.elapsed().as_nanos() as u64,
            Ordering::Relaxed,
        );
        if collected.len() < n_chunks {
            // Chunks can only go missing through cancellation.
            debug_assert!(cancellable && self.cancel.is_cancelled());
            self.counters
                .cancelled_regions
                .fetch_add(1, Ordering::Relaxed);
            return Err(Cancelled);
        }
        collected.sort_unstable_by_key(|&(i, _)| i);
        Ok(collected.into_iter().map(|(_, r)| r).collect())
    }
}

impl Default for Exec {
    /// Defaults to the [`Threads::auto`] resolution chain.
    fn default() -> Self {
        Exec::from_threads(Threads::auto())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn chunk_bounds_cover_exactly() {
        for len in [0usize, 1, 2, 7, 255, 256, 257, 1000, 98_431] {
            let b = chunk_bounds(len);
            assert_eq!(b.len(), len.min(MAX_CHUNKS));
            if len > 0 {
                assert_eq!(b[0].0, 0);
                assert_eq!(b[b.len() - 1].1, len);
            }
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
                assert!(w[0].0 < w[0].1, "non-empty");
            }
        }
    }

    #[test]
    fn chunk_items_hint_preserves_results_and_records_metric() {
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 3).collect();
        for threads in [1, 2, 8] {
            let exec = Exec::new(threads).with_chunk_items(32);
            assert_eq!(exec.chunk_items(), 32);
            assert_eq!(exec.par_map(&items, |&x| x * 3), expected);
            // ceil(100 / 32) fixed-size chunks, regardless of threads.
            assert_eq!(exec.counters().chunks, 4, "threads={threads}");
            assert_eq!(exec.metrics().get("exec.chunk_items"), 32);
        }
        // Children inherit the hint.
        let exec = Exec::new(2).with_chunk_items(7);
        assert_eq!(exec.child().chunk_items(), 7);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..5000).collect();
        for threads in [1, 2, 3, 8] {
            let exec = Exec::new(threads);
            let out = exec.par_map(&items, |&x| x * 2 + 1);
            let expected: Vec<usize> = items.iter().map(|&x| x * 2 + 1).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_chunks_independent_of_threads() {
        let items: Vec<u32> = (0..1234).collect();
        for threads in [1, 2, 8] {
            let exec = Exec::new(threads);
            assert_eq!(exec.par_map(&items, |&x| x), items);
            assert_eq!(
                exec.counters().chunks,
                MAX_CHUNKS as u64,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let exec = Exec::new(4);
        let out: Vec<u8> = exec.par_map(&[] as &[u8], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn try_par_map_returns_cancelled_and_stops_claiming() {
        let exec = Exec::new(4);
        let token = exec.cancel_token().clone();
        let executed = AtomicU64::new(0);
        let items: Vec<usize> = (0..10_000).collect();
        let res = exec.try_par_map(&items, |&i| {
            if i == 0 {
                token.cancel();
            }
            std::thread::sleep(Duration::from_micros(50));
            executed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(res, Err(Cancelled));
        // Workers may finish the chunks they already claimed, but must
        // not drain the whole queue after the signal.
        assert!(
            executed.load(Ordering::Relaxed) < items.len() as u64 / 2,
            "cancellation should stop the bulk of the work, ran {}",
            executed.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn cancelling_child_leaves_parent_usable() {
        let parent = Exec::new(4);
        let child = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
        let out = parent.try_par_map(&[1, 2, 3], |&x: &i32| x + 1).unwrap();
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(child.try_par_map(&[1], |&x: &i32| x), Err(Cancelled));
    }

    #[test]
    fn counters_accumulate_across_children() {
        let exec = Exec::new(2);
        let items: Vec<u64> = (0..100).collect();
        exec.par_map(&items, |&x| x + 1);
        exec.child().par_map(&items, |&x| x + 1);
        let snap = exec.counters();
        assert_eq!(snap.tasks, 200);
        assert_eq!(snap.regions, 2);
        assert!(snap.chunks >= 2);
        assert!(snap.busy_nanos > 0);
        assert!(snap.utilization() > 0.0);
    }

    #[test]
    fn deadline_cancels_region_midway() {
        let exec = Exec::new(2);
        let timed = exec.child_with_deadline(2, Duration::from_millis(20));
        let items: Vec<usize> = (0..10_000).collect();
        let res = timed.try_par_map(&items, |_| {
            std::thread::sleep(Duration::from_micros(200));
        });
        assert_eq!(res, Err(Cancelled), "deadline must stop the region");
        assert!(timed.cancel_token().deadline_expired());
        assert!(!exec.is_cancelled(), "parent outlives the child deadline");
        let snap = exec.counters();
        assert!(snap.cancelled_regions >= 1);
        // The parent still works after the child expired.
        assert_eq!(exec.par_map(&[1, 2], |&x: &i32| x * 10), vec![10, 20]);
    }

    #[test]
    fn region_wall_time_is_recorded() {
        let exec = Exec::new(2);
        let items: Vec<usize> = (0..64).collect();
        exec.par_map(&items, |_| std::thread::sleep(Duration::from_micros(100)));
        let snap = exec.counters();
        assert!(snap.region_nanos > 0, "region wall time must accumulate");
        assert_eq!(snap.cancelled_regions, 0);
    }

    #[test]
    fn worker_panics_propagate() {
        let exec = Exec::new(4);
        let items: Vec<usize> = (0..500).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.par_map(&items, |&i| {
                assert!(i != 250, "boom");
                i
            })
        }));
        assert!(result.is_err(), "panic in a worker must reach the caller");
    }
}
