//! The single writer: ingest log, tombstones, WAL, and generation
//! publishes.
//!
//! All mutation flows through one thread. Connection threads forward
//! [`IngestOp`]s over an mpsc channel; the writer first makes each
//! batch durable (WAL append + fsync policy, when a
//! [`Durability`] layer is configured), *then* applies it to its
//! in-memory log and acknowledges the waiting connection — so an
//! `"accepted"` reply is a durability promise, not a hope. On a timer,
//! on a batch threshold, or on demand it materializes the live set into
//! a new [`Generation`] and publishes it through the [`Current`] cell.
//! A failed build (injected via the `serve::publish` failpoint or a real
//! bin-fit rejection) is *not* fatal: the cell keeps the previous
//! generation, a counter records the failure, and the writer retries on
//! the next trigger — the daemon degrades to serving stale data rather
//! than crashing. A failed WAL append nacks the batch and applies
//! nothing: what cannot be made durable never becomes publishable.

use crate::durability::Durability;
use crate::generation::{Current, Generation};
use crate::wal::WalOp;
use std::collections::HashSet;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tnet_core::error::PipelineError;
use tnet_data::model::Transaction;
use tnet_exec::failpoint;
use tnet_obs::{MetricsRegistry, Span};

/// The channel a connection thread waits on for its durability
/// acknowledgment. `Ok(())` means the batch is in the WAL (to the
/// configured fsync guarantee) and applied; `Err` means it was refused
/// and must not be assumed present.
pub type Ack = Sender<Result<(), PipelineError>>;

/// A mutation forwarded from a connection thread. The optional ack is
/// signalled after the durability decision; `None` callers
/// fire-and-forget (tests, internal seeding).
#[derive(Debug)]
pub enum IngestOp {
    /// Append a batch of transactions to the log.
    Append(Vec<Transaction>, Option<Ack>),
    /// Tombstone transactions by id (idempotent; unknown ids are
    /// harmless).
    Delete(Vec<u64>, Option<Ack>),
    /// Publish now, regardless of timer and batch thresholds.
    Flush,
}

/// Writer-side knobs.
#[derive(Clone, Debug)]
pub struct WriterConfig {
    /// Wall-clock cadence of periodic publishes.
    pub publish_interval: Duration,
    /// Publish as soon as this many records (appends + deletes) are
    /// pending, without waiting for the timer.
    pub batch: usize,
}

impl Default for WriterConfig {
    fn default() -> WriterConfig {
        WriterConfig {
            publish_interval: Duration::from_millis(200),
            batch: 4096,
        }
    }
}

/// The writer's mutable state, separated from the thread loop so tests
/// can drive it synchronously.
pub struct Writer {
    log: Vec<Transaction>,
    deleted: HashSet<u64>,
    /// Records applied since the last successful publish.
    pending: usize,
    next_id: u64,
    current: Arc<Current>,
    durability: Option<Durability>,
    registry: MetricsRegistry,
    span: Span,
}

impl Writer {
    /// A writer whose next publish becomes generation `next_id`,
    /// seeded with `log` (the transactions the daemon started with —
    /// already WAL-resident when `durability` is `Some`, because the
    /// server either recovered them from disk or appended them before
    /// construction).
    pub fn new(
        current: Arc<Current>,
        log: Vec<Transaction>,
        next_id: u64,
        durability: Option<Durability>,
        registry: MetricsRegistry,
        span: Span,
    ) -> Writer {
        Writer {
            log,
            deleted: HashSet::new(),
            pending: 0,
            next_id,
            current,
            durability,
            registry,
            span,
        }
    }

    /// WAL-appends `op` when durability is on. `Ok` means the batch may
    /// be applied and acknowledged.
    fn persist(&mut self, op: &WalOp) -> Result<(), PipelineError> {
        match &mut self.durability {
            Some(d) => d.append(op).map(|_seq| ()),
            None => Ok(()),
        }
    }

    fn send_ack(ack: Option<Ack>, result: Result<(), PipelineError>) {
        if let Some(ack) = ack {
            // A vanished waiter (client hung up mid-request) is fine;
            // the durability decision stands either way.
            let _ = ack.send(result);
        }
    }

    /// Applies one op: durability first, memory second, ack last.
    /// Returns `true` if the op demands an immediate publish.
    pub fn apply(&mut self, op: IngestOp) -> bool {
        match op {
            IngestOp::Append(records, ack) => {
                let _t = self.span.time("serve.ingest");
                let wal_op = WalOp::Append(records);
                match self.persist(&wal_op) {
                    Ok(()) => {
                        let WalOp::Append(mut records) = wal_op else {
                            unreachable!("append op cannot change variant")
                        };
                        self.pending += records.len();
                        self.registry
                            .add("serve.records_ingested", records.len() as u64);
                        self.log.append(&mut records);
                        Self::send_ack(ack, Ok(()));
                        self.checkpoint_if_due();
                    }
                    Err(e) => Self::send_ack(ack, Err(e)),
                }
                false
            }
            IngestOp::Delete(ids, ack) => {
                let _t = self.span.time("serve.ingest");
                let wal_op = WalOp::Delete(ids);
                match self.persist(&wal_op) {
                    Ok(()) => {
                        let WalOp::Delete(ids) = wal_op else {
                            unreachable!("delete op cannot change variant")
                        };
                        self.pending += ids.len();
                        self.registry.add("serve.records_deleted", ids.len() as u64);
                        self.deleted.extend(ids);
                        Self::send_ack(ack, Ok(()));
                        self.checkpoint_if_due();
                    }
                    Err(e) => Self::send_ack(ack, Err(e)),
                }
                false
            }
            IngestOp::Flush => true,
        }
    }

    /// Folds the log into a snapshot checkpoint when the configured
    /// cadence is due, compacting the in-memory log to the live set at
    /// the same time (the tombstones are now in the checkpoint).
    fn checkpoint_if_due(&mut self) {
        if !self
            .durability
            .as_ref()
            .is_some_and(Durability::needs_snapshot)
        {
            return;
        }
        let live = self.live();
        let d = self.durability.as_mut().expect("checked above");
        if d.force_snapshot(&live) {
            self.log = live;
            self.deleted.clear();
        }
    }

    /// Live transactions: the log minus tombstoned ids, in ingest order.
    /// Sized up front: a filtered collect starts from a few elements and
    /// reallocates its way up to the whole log on every publish.
    fn live(&self) -> Vec<Transaction> {
        let mut live = Vec::with_capacity(self.log.len());
        live.extend(
            self.log
                .iter()
                .filter(|t| !self.deleted.contains(&t.id))
                .cloned(),
        );
        live
    }

    /// Builds and publishes a new generation. On any failure the
    /// previous generation stays current and the pending counter is
    /// kept, so the next trigger retries with the same data.
    pub fn publish(&mut self) -> bool {
        let _t = self.span.time("serve.publish");
        let built = failpoint::hit("serve::publish")
            .map_err(|f| PipelineError::Io(f.to_string()))
            .and_then(|()| {
                let _f = self.span.time("serve.freeze");
                Generation::build(self.next_id, self.live())
            });
        match built {
            Ok(gen) => {
                self.current.set(gen);
                self.next_id += 1;
                self.pending = 0;
                self.registry.add("serve.generations_published", 1);
                true
            }
            Err(_) => {
                // Counted, not fatal: the old generation stays current
                // and the pending records wait for the next trigger.
                self.registry.add("serve.publish_failures", 1);
                false
            }
        }
    }

    /// Records pending since the last successful publish.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The writer thread body: drain ops, publish on batch/timer
    /// triggers, and flush one final generation when `rx` disconnects
    /// (the server hangs up at shutdown).
    pub fn run(mut self, rx: Receiver<IngestOp>, cfg: WriterConfig) {
        let mut last_publish = Instant::now();
        loop {
            // Sleep at most to the next timer tick so an idle daemon
            // still publishes pending records on cadence.
            let elapsed = last_publish.elapsed();
            let wait = cfg.publish_interval.saturating_sub(elapsed);
            let forced = match rx.recv_timeout(wait.max(Duration::from_millis(1))) {
                Ok(op) => self.apply(op),
                Err(RecvTimeoutError::Timeout) => false,
                Err(RecvTimeoutError::Disconnected) => {
                    // Final flush: make the last generation durable for
                    // any still-draining readers, then settle the WAL
                    // (interval-mode appends may still be in the page
                    // cache) and exit.
                    if self.pending > 0 {
                        self.publish();
                    }
                    if let Some(d) = &mut self.durability {
                        let _ = d.sync();
                    }
                    return;
                }
            };
            // Interval-mode fsync deadline, even while idle.
            if let Some(d) = &mut self.durability {
                d.tick();
            }
            let timer_due = last_publish.elapsed() >= cfg.publish_interval;
            if forced || self.pending >= cfg.batch.max(1) || (timer_due && self.pending > 0) {
                self.publish();
                last_publish = Instant::now();
            } else if timer_due {
                last_publish = Instant::now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{recover, DurabilityConfig};
    use crate::wal::FsyncPolicy;
    use std::path::PathBuf;
    use tnet_exec::failpoint;
    use tnet_obs::LatencyHistogram;

    fn txn(id: u64, weight: f64) -> Transaction {
        use tnet_data::model::{Date, LatLon, TransMode};
        Transaction {
            id,
            req_pickup: Date(733000),
            req_delivery: Date(733002),
            origin: LatLon::new(33.7, -84.4),
            dest: LatLon::new(35.1 + id as f64 * 0.1, -90.0),
            total_distance: 300.0 + id as f64,
            gross_weight: weight,
            transit_hours: 8.0 + id as f64,
            mode: TransMode::Truckload,
        }
    }

    fn genesis() -> Arc<Current> {
        Arc::new(Current::new(Generation::build(0, Vec::new()).unwrap()))
    }

    fn writer() -> (Writer, Arc<Current>, MetricsRegistry) {
        let current = genesis();
        let registry = MetricsRegistry::new();
        let w = Writer::new(
            Arc::clone(&current),
            Vec::new(),
            1,
            None,
            registry.clone(),
            Span::disabled(),
        );
        (w, current, registry)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tnet_writer_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_writer(
        dir: &std::path::Path,
        snapshot_every: u64,
    ) -> (Writer, Arc<Current>, MetricsRegistry) {
        let current = genesis();
        let registry = MetricsRegistry::new();
        let d = Durability::open(
            &DurabilityConfig {
                data_dir: dir.to_path_buf(),
                fsync: FsyncPolicy::Always,
                snapshot_every,
            },
            0,
            registry.clone(),
            Arc::new(LatencyHistogram::new()),
        )
        .unwrap();
        let w = Writer::new(
            Arc::clone(&current),
            Vec::new(),
            1,
            Some(d),
            registry.clone(),
            Span::disabled(),
        );
        (w, current, registry)
    }

    #[test]
    fn appends_and_deletes_shape_the_published_set() {
        let _g = crate::failpoint_test_guard();
        let (mut w, current, _) = writer();
        w.apply(IngestOp::Append(
            (1..=10).map(|i| txn(i, 1000.0 * i as f64)).collect(),
            None,
        ));
        w.apply(IngestOp::Delete(vec![3, 7, 99], None));
        assert!(w.publish());
        let gen = current.get();
        assert_eq!(gen.id, 1);
        assert_eq!(gen.txns.len(), 8, "10 appended minus 2 live deletes");
        assert!(gen.txns.iter().all(|t| t.id != 3 && t.id != 7));
    }

    #[test]
    fn failed_publish_keeps_previous_generation_and_retries() {
        let _g = crate::failpoint_test_guard();
        let (mut w, current, registry) = writer();
        w.apply(IngestOp::Append(vec![txn(1, 1000.0), txn(2, 2000.0)], None));
        assert!(w.publish());
        assert_eq!(current.get().id, 1);

        w.apply(IngestOp::Append(vec![txn(3, 3000.0)], None));
        failpoint::arm("serve::publish=err").unwrap();
        assert!(!w.publish(), "injected fault fails the publish");
        failpoint::disarm();

        // Still serving generation 1, failure counted, data not lost.
        assert_eq!(current.get().id, 1);
        assert_eq!(current.get().txns.len(), 2);
        assert_eq!(registry.get("serve.publish_failures"), 1);
        assert_eq!(w.pending(), 1, "pending records survive the failure");

        assert!(w.publish(), "retry succeeds once the fault clears");
        let gen = current.get();
        assert_eq!(gen.id, 2);
        assert_eq!(gen.txns.len(), 3);
    }

    #[test]
    fn run_flushes_on_disconnect() {
        let _g = crate::failpoint_test_guard();
        let (w, current, registry) = writer();
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            w.run(
                rx,
                WriterConfig {
                    publish_interval: Duration::from_secs(3600),
                    batch: usize::MAX,
                },
            )
        });
        tx.send(IngestOp::Append(vec![txn(1, 1000.0), txn(2, 9000.0)], None))
            .unwrap();
        drop(tx);
        h.join().unwrap();
        assert_eq!(current.get().txns.len(), 2, "final flush published the log");
        assert_eq!(registry.get("serve.generations_published"), 1);
    }

    #[test]
    fn flush_op_forces_an_immediate_publish() {
        let _g = crate::failpoint_test_guard();
        let (w, current, _) = writer();
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            w.run(
                rx,
                WriterConfig {
                    publish_interval: Duration::from_secs(3600),
                    batch: usize::MAX,
                },
            )
        });
        tx.send(IngestOp::Append(vec![txn(5, 5000.0), txn(6, 7000.0)], None))
            .unwrap();
        tx.send(IngestOp::Flush).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while current.publish_count() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(current.get().id, 1, "flush published without timer/batch");
        drop(tx);
        h.join().unwrap();
    }

    #[test]
    fn acked_batches_survive_a_writer_drop() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("ack_survives");
        let (mut w, _current, _reg) = durable_writer(&dir, 0);
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        w.apply(IngestOp::Append(
            vec![txn(1, 1000.0), txn(2, 2000.0)],
            Some(ack_tx),
        ));
        assert!(ack_rx.recv().unwrap().is_ok(), "batch acknowledged");
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        w.apply(IngestOp::Delete(vec![1], Some(ack_tx)));
        assert!(ack_rx.recv().unwrap().is_ok());
        // Drop without publish or shutdown niceties: SIGKILL in miniature.
        drop(w);
        let r = recover(&dir, &MetricsRegistry::new()).unwrap();
        assert_eq!(
            r.live.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![2],
            "acknowledged append and delete both recovered"
        );
    }

    #[test]
    fn wal_failure_nacks_and_applies_nothing() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("nack");
        let (mut w, current, registry) = durable_writer(&dir, 0);
        failpoint::arm("serve::wal_append=err").unwrap();
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        w.apply(IngestOp::Append(vec![txn(1, 1000.0)], Some(ack_tx)));
        failpoint::disarm();
        let nack = ack_rx.recv().unwrap();
        assert!(nack.is_err(), "WAL failure must nack");
        assert_eq!(registry.get("wal.append_failures"), 1);
        assert_eq!(registry.get("serve.records_ingested"), 0);
        assert_eq!(w.pending(), 0, "refused batch is not pending");
        // Nothing publishable came out of the refused batch.
        w.apply(IngestOp::Append(vec![txn(2, 2000.0), txn(3, 3000.0)], None));
        assert!(w.publish());
        let gen = current.get();
        assert_eq!(gen.txns.len(), 2);
        assert!(gen.txns.iter().all(|t| t.id != 1), "refused batch absent");
        // And nothing durable either.
        drop(w);
        let r = recover(&dir, &MetricsRegistry::new()).unwrap();
        assert_eq!(r.live.iter().map(|t| t.id).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn checkpoint_cadence_compacts_log_and_truncates_wal() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("cadence");
        let (mut w, _current, registry) = durable_writer(&dir, 3);
        w.apply(IngestOp::Append(vec![txn(1, 1000.0), txn(2, 2000.0)], None));
        assert_eq!(registry.get("snapshot.writes"), 0, "two records: not yet");
        // The delete is the third acknowledged record (cadence counts
        // records inside each batch, not batches) — it checkpoints the
        // tombstone-compacted live set.
        w.apply(IngestOp::Delete(vec![1], None));
        assert_eq!(
            registry.get("snapshot.writes"),
            1,
            "third record checkpoints"
        );
        assert_eq!(registry.get("wal.truncations"), 1);
        w.apply(IngestOp::Append(vec![txn(3, 3000.0)], None));
        drop(w);
        let reg = MetricsRegistry::new();
        let r = recover(&dir, &reg).unwrap();
        assert_eq!(
            r.live.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![2, 3],
            "checkpoint holds the compacted set; the tail replays on top"
        );
        assert_eq!(
            reg.get("recover.snapshot_records"),
            1,
            "snapshot holds only id 2 (1 was tombstoned before checkpoint)"
        );
        assert_eq!(r.replayed, 1, "the post-checkpoint append replays");
    }
}
