//! Durability orchestration: recovery at startup, WAL + checkpoint
//! cadence at runtime.
//!
//! Recovery is a three-state machine (DESIGN.md §13):
//!
//! 1. **Load snapshot** — newest valid checkpoint becomes the base live
//!    set; a missing snapshot means an empty base; a damaged one is a
//!    typed refusal.
//! 2. **Replay WAL tail** — every record with `seq >` the snapshot's
//!    `wal_seq` is re-applied in order. A torn final record is
//!    truncated with a warning (crash mid-append); anything else wrong
//!    mid-log is a typed refusal.
//! 3. **Resume** — the writer continues appending at the recovered
//!    sequence; acknowledged-but-unpublished records are back in the
//!    log and flow into the next generation exactly as if the crash
//!    never happened.
//!
//! At runtime, [`Durability`] is owned by the writer thread and decides
//! *when* bytes reach the platter ([`FsyncPolicy`]) and when the log is
//! folded into a checkpoint (`snapshot_every` acknowledged records —
//! transactions appended plus ids deleted, not WAL batches).

use crate::snapshot::{self, Snapshot};
use crate::wal::{self, FsyncPolicy, WalOp, WalWriter};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tnet_core::error::PipelineError;
use tnet_data::model::Transaction;
use tnet_exec::failpoint;
use tnet_obs::{LatencyHistogram, MetricsRegistry};

/// File name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Path of the WAL in `dir`.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// Durable-storage knobs, all wired to `tnet serve` flags.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and `snapshot.bin` (created if
    /// absent).
    pub data_dir: PathBuf,
    /// When acknowledged records reach the platter.
    pub fsync: FsyncPolicy,
    /// Fold the log into a checkpoint every this many acknowledged
    /// records — transactions appended plus ids deleted (0 = never
    /// snapshot; the WAL grows unboundedly).
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    pub fn new(data_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 0,
        }
    }
}

/// What recovery reconstructed from a data directory.
#[derive(Debug)]
pub struct Recovered {
    /// The live transaction set (snapshot base + replayed tail, minus
    /// tombstones).
    pub live: Vec<Transaction>,
    /// Highest WAL sequence seen; the writer resumes after this.
    pub wal_seq: u64,
    /// WAL records whose effects were re-applied (seq > snapshot).
    pub replayed: u64,
    /// WAL records skipped because the snapshot already held them.
    pub skipped: u64,
    /// Transactions that came from the snapshot base.
    pub snapshot_records: u64,
    /// Bytes of torn tail truncated (0 = the log ended cleanly).
    pub torn_bytes: u64,
}

impl Recovered {
    /// True when the directory held any durable state at all — used to
    /// decide whether `--input` seed data applies or is superseded.
    pub fn has_state(&self) -> bool {
        self.wal_seq > 0 || self.snapshot_records > 0 || !self.live.is_empty()
    }
}

/// Recovers daemon state from `dir`, truncating a torn WAL tail in
/// place. Counters land under `recover.*`; the torn-tail warning goes
/// to stderr (the daemon's operational channel).
pub fn recover(dir: &Path, registry: &MetricsRegistry) -> Result<Recovered, PipelineError> {
    failpoint::hit("serve::recover").map_err(|f| PipelineError::Io(f.to_string()))?;
    std::fs::create_dir_all(dir)
        .map_err(|e| PipelineError::Io(format!("cannot create data dir {}: {e}", dir.display())))?;

    // State 1: the snapshot is the base.
    let snap = snapshot::read(dir)?;
    let (mut log, snap_seq) = match snap {
        Some(Snapshot { wal_seq, txns }) => {
            registry.add("recover.snapshot_records", txns.len() as u64);
            (txns, wal_seq)
        }
        None => (Vec::new(), 0),
    };

    // State 2: replay the WAL tail.
    let path = wal_path(dir);
    let replay = wal::replay(&path)?;
    if replay.torn_bytes > 0 {
        eprintln!(
            "tnet serve: warning: truncating {} torn byte(s) at the tail of {} \
             (crash interrupted the final append; all checksummed records were kept)",
            replay.torn_bytes,
            path.display()
        );
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| PipelineError::Io(format!("cannot open WAL for truncation: {e}")))?;
        f.set_len(replay.valid_len)
            .and_then(|()| f.sync_data())
            .map_err(|e| PipelineError::Io(format!("cannot truncate torn WAL tail: {e}")))?;
        registry.add("recover.torn_bytes", replay.torn_bytes);
        registry.add("recover.torn_truncations", 1);
    }

    let mut deleted: HashSet<u64> = HashSet::new();
    let mut replayed = 0u64;
    let mut skipped = 0u64;
    let mut wal_seq = snap_seq;
    for record in replay.records {
        wal_seq = wal_seq.max(record.seq);
        if record.seq <= snap_seq {
            // The snapshot already incorporates this record — the crash
            // landed between checkpoint rename and WAL truncation.
            skipped += 1;
            continue;
        }
        replayed += 1;
        match record.op {
            WalOp::Append(mut txns) => log.append(&mut txns),
            WalOp::Delete(ids) => deleted.extend(ids),
        }
    }
    let snapshot_records = registry.get("recover.snapshot_records");
    let live: Vec<Transaction> = if deleted.is_empty() {
        log
    } else {
        log.into_iter()
            .filter(|t| !deleted.contains(&t.id))
            .collect()
    };
    registry.add("recover.wal_records", replayed);
    registry.add("recover.wal_skipped", skipped);
    registry.add("recover.live_records", live.len() as u64);
    Ok(Recovered {
        live,
        wal_seq,
        replayed,
        skipped,
        snapshot_records,
        torn_bytes: replay.torn_bytes,
    })
}

/// The writer thread's durable half: owns the WAL appender and decides
/// fsync and checkpoint timing.
pub struct Durability {
    wal: WalWriter,
    dir: PathBuf,
    fsync: FsyncPolicy,
    snapshot_every: u64,
    /// WAL records appended since the last successful checkpoint.
    since_snapshot: u64,
    last_sync: Instant,
    registry: MetricsRegistry,
    fsync_latency: Arc<LatencyHistogram>,
}

impl Durability {
    /// Opens the WAL for appending after [`recover`] established
    /// `wal_seq`.
    pub fn open(
        cfg: &DurabilityConfig,
        wal_seq: u64,
        registry: MetricsRegistry,
        fsync_latency: Arc<LatencyHistogram>,
    ) -> Result<Durability, PipelineError> {
        let wal = WalWriter::open(&wal_path(&cfg.data_dir), wal_seq)?;
        Ok(Durability {
            wal,
            dir: cfg.data_dir.clone(),
            fsync: cfg.fsync,
            snapshot_every: cfg.snapshot_every,
            since_snapshot: 0,
            last_sync: Instant::now(),
            registry,
            fsync_latency,
        })
    }

    /// Appends one op to the WAL and applies the fsync policy. On
    /// `Ok`, an acknowledgment honoring the policy may be sent.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, PipelineError> {
        let seq = self.wal.append(op).inspect_err(|_| {
            self.registry.add("wal.append_failures", 1);
        })?;
        self.registry.add("wal.records", 1);
        // Cadence counts individual records, not batches: a single
        // 10k-record batch should trip a `--snapshot-every 1000` daemon.
        self.since_snapshot += match op {
            WalOp::Append(txns) => txns.len() as u64,
            WalOp::Delete(ids) => ids.len() as u64,
        };
        match self.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Interval(d) => {
                if self.last_sync.elapsed() >= d {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// fsyncs outstanding appends now, timing the call into the
    /// `wal.fsync` histogram.
    pub fn sync(&mut self) -> Result<(), PipelineError> {
        let started = Instant::now();
        self.wal.sync().inspect_err(|_| {
            self.registry.add("wal.fsync_failures", 1);
        })?;
        self.fsync_latency.record_duration(started.elapsed());
        self.registry.add("wal.fsyncs", 1);
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Timer hook from the writer loop: under `interval` fsync, flush
    /// when the window has elapsed. Errors are counted inside
    /// [`Durability::sync`]; the loop keeps running.
    pub fn tick(&mut self) {
        if let FsyncPolicy::Interval(d) = self.fsync {
            if self.last_sync.elapsed() >= d {
                let _ = self.sync();
            }
        }
    }

    /// True when the checkpoint cadence is due — split from
    /// [`Durability::maybe_snapshot`] so the writer only materializes
    /// the live set when a checkpoint will actually happen.
    pub fn needs_snapshot(&self) -> bool {
        self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every
    }

    /// Checkpoints `live` and truncates the WAL when `snapshot_every`
    /// records have accumulated. Failures are counted, not fatal: the
    /// WAL keeps every record the missing checkpoint would have held,
    /// so durability is unaffected — only replay time grows.
    pub fn maybe_snapshot(&mut self, live: &[Transaction]) -> bool {
        if !self.needs_snapshot() {
            return false;
        }
        self.force_snapshot(live)
    }

    /// Unconditionally checkpoints `live` (used by `maybe_snapshot` and
    /// the shutdown path).
    pub fn force_snapshot(&mut self, live: &[Transaction]) -> bool {
        // The checkpoint must not claim records the page cache still
        // owns: fsync the WAL first so `wal_seq` is durable-or-better
        // everywhere the snapshot asserts it.
        if self.sync().is_err() {
            self.registry.add("snapshot.write_failures", 1);
            return false;
        }
        let snap = Snapshot {
            wal_seq: self.wal.seq,
            txns: live.to_vec(),
        };
        match snapshot::write(&self.dir, &snap) {
            Ok(()) => {
                self.registry.add("snapshot.writes", 1);
                self.registry.add("snapshot.records", live.len() as u64);
                self.since_snapshot = 0;
                match self.wal.truncate() {
                    Ok(()) => {
                        self.registry.add("wal.truncations", 1);
                    }
                    Err(_) => {
                        // Harmless: replay will skip by seq. Counted so
                        // operators can see the log isn't shrinking.
                        self.registry.add("wal.truncation_failures", 1);
                    }
                }
                true
            }
            Err(_) => {
                self.registry.add("snapshot.write_failures", 1);
                false
            }
        }
    }

    /// Current WAL length in bytes (for tests and the `trace` op).
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Sequence of the last appended WAL record.
    pub fn wal_seq(&self) -> u64 {
        self.wal.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_data::model::{Date, LatLon, TransMode};

    fn txn(id: u64) -> Transaction {
        Transaction {
            id,
            req_pickup: Date(733000),
            req_delivery: Date(733001),
            origin: LatLon::new(29.7, -95.3),
            dest: LatLon::new(32.7, -96.8),
            total_distance: 240.0,
            gross_weight: 30000.0,
            transit_hours: 5.0 + id as f64,
            mode: TransMode::Truckload,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tnet_dur_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dur(dir: &Path, fsync: FsyncPolicy, every: u64, reg: &MetricsRegistry) -> Durability {
        Durability::open(
            &DurabilityConfig {
                data_dir: dir.to_path_buf(),
                fsync,
                snapshot_every: every,
            },
            0,
            reg.clone(),
            Arc::new(LatencyHistogram::new()),
        )
        .unwrap()
    }

    #[test]
    fn fresh_dir_recovers_empty() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("fresh");
        let reg = MetricsRegistry::new();
        let r = recover(&dir, &reg).unwrap();
        assert!(!r.has_state());
        assert!(r.live.is_empty());
        assert_eq!(r.wal_seq, 0);
    }

    #[test]
    fn wal_only_recovery_reapplies_everything() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("wal_only");
        let reg = MetricsRegistry::new();
        {
            let mut d = dur(&dir, FsyncPolicy::Always, 0, &reg);
            d.append(&WalOp::Append(vec![txn(1), txn(2), txn(3)]))
                .unwrap();
            d.append(&WalOp::Delete(vec![2])).unwrap();
            d.append(&WalOp::Append(vec![txn(4)])).unwrap();
        }
        let r = recover(&dir, &reg).unwrap();
        assert!(r.has_state());
        assert_eq!(r.wal_seq, 3);
        assert_eq!(r.replayed, 3);
        assert_eq!(
            r.live.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![1, 3, 4],
            "delete tombstone applied during replay"
        );
        assert_eq!(reg.get("recover.wal_records"), 3);
        assert_eq!(reg.get("recover.live_records"), 3);
    }

    #[test]
    fn snapshot_plus_tail_recovery() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("snap_tail");
        let reg = MetricsRegistry::new();
        {
            let mut d = dur(&dir, FsyncPolicy::Never, 0, &reg);
            d.append(&WalOp::Append(vec![txn(1), txn(2)])).unwrap();
            assert!(d.force_snapshot(&[txn(1), txn(2)]));
            assert!(d.wal_len() == 0, "checkpoint truncated the log");
            d.append(&WalOp::Append(vec![txn(3)])).unwrap();
            d.sync().unwrap();
        }
        let r = recover(&dir, &reg).unwrap();
        assert_eq!(r.snapshot_records, 2);
        assert_eq!(r.replayed, 1, "only the post-checkpoint tail replays");
        // One WAL record per batch: the pre-checkpoint batch was seq 1,
        // the tail batch seq 2.
        assert_eq!(r.wal_seq, 2);
        assert_eq!(r.live.len(), 3);
    }

    #[test]
    fn crash_between_snapshot_and_truncate_skips_by_seq() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("skip");
        let reg = MetricsRegistry::new();
        {
            let mut d = dur(&dir, FsyncPolicy::Always, 0, &reg);
            d.append(&WalOp::Append(vec![txn(1)])).unwrap();
            d.append(&WalOp::Append(vec![txn(2)])).unwrap();
            // Simulate the crash window: checkpoint written, WAL NOT
            // truncated.
            snapshot::write(
                &dir,
                &Snapshot {
                    wal_seq: d.wal_seq(),
                    txns: vec![txn(1), txn(2)],
                },
            )
            .unwrap();
        }
        let r = recover(&dir, &reg).unwrap();
        assert_eq!(r.skipped, 2, "both records predate the checkpoint");
        assert_eq!(r.replayed, 0);
        assert_eq!(r.live.len(), 2, "no double-apply");
    }

    #[test]
    fn snapshot_cadence_fires_every_n_records() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("cadence");
        let reg = MetricsRegistry::new();
        let mut d = dur(&dir, FsyncPolicy::Never, 2, &reg);
        d.append(&WalOp::Append(vec![txn(1)])).unwrap();
        assert!(!d.maybe_snapshot(&[txn(1)]), "below threshold");
        d.append(&WalOp::Append(vec![txn(2)])).unwrap();
        assert!(d.maybe_snapshot(&[txn(1), txn(2)]), "threshold reached");
        assert_eq!(reg.get("snapshot.writes"), 1);
        assert_eq!(reg.get("wal.truncations"), 1);
        d.append(&WalOp::Append(vec![txn(3)])).unwrap();
        assert!(!d.maybe_snapshot(&[txn(3)]), "counter reset by checkpoint");
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("torn");
        let reg = MetricsRegistry::new();
        {
            let mut d = dur(&dir, FsyncPolicy::Always, 0, &reg);
            d.append(&WalOp::Append(vec![txn(1)])).unwrap();
        }
        // Append garbage that looks like a half-written record.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(wal_path(&dir))
            .unwrap();
        f.write_all(&[0x10, 0, 0, 0, 0xAA]).unwrap();
        drop(f);
        let r = recover(&dir, &reg).unwrap();
        assert_eq!(r.torn_bytes, 5);
        assert_eq!(r.live.len(), 1);
        assert_eq!(reg.get("recover.torn_truncations"), 1);
        // The file was actually truncated: a second recovery is clean.
        let reg2 = MetricsRegistry::new();
        let r2 = recover(&dir, &reg2).unwrap();
        assert_eq!(r2.torn_bytes, 0);
        assert_eq!(r2.live.len(), 1);
    }

    #[test]
    fn midlog_corruption_refuses_recovery() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("corrupt");
        let reg = MetricsRegistry::new();
        {
            let mut d = dur(&dir, FsyncPolicy::Always, 0, &reg);
            d.append(&WalOp::Append(vec![txn(1), txn(2)])).unwrap();
            d.append(&WalOp::Append(vec![txn(3)])).unwrap();
        }
        let path = wal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x08; // inside the first record's payload
        std::fs::write(&path, &bytes).unwrap();
        let err = recover(&dir, &reg).unwrap_err();
        assert_eq!(err.kind(), "corruption");
    }

    #[test]
    fn recover_failpoint_injects() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("failpoint");
        let reg = MetricsRegistry::new();
        failpoint::arm("serve::recover=err").unwrap();
        let err = recover(&dir, &reg).unwrap_err();
        failpoint::disarm();
        assert_eq!(err.kind(), "io");
        assert!(err.to_string().contains("serve::recover"));
    }

    #[test]
    fn append_failpoint_counts_and_errors() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("append_fp");
        let reg = MetricsRegistry::new();
        let mut d = dur(&dir, FsyncPolicy::Always, 0, &reg);
        failpoint::arm("serve::wal_append=err").unwrap();
        let err = d.append(&WalOp::Append(vec![txn(1)])).unwrap_err();
        failpoint::disarm();
        assert_eq!(err.kind(), "io");
        assert_eq!(reg.get("wal.append_failures"), 1);
        // The failed record never reached the log.
        let r = recover(&dir, &MetricsRegistry::new()).unwrap();
        assert!(r.live.is_empty());
    }

    #[test]
    fn always_policy_fsyncs_per_append() {
        let _g = crate::failpoint_test_guard();
        let dir = tmp_dir("always");
        let reg = MetricsRegistry::new();
        let mut d = dur(&dir, FsyncPolicy::Always, 0, &reg);
        d.append(&WalOp::Append(vec![txn(1)])).unwrap();
        d.append(&WalOp::Delete(vec![1])).unwrap();
        assert_eq!(reg.get("wal.fsyncs"), 2);
        let mut never = dur(&tmp_dir("never"), FsyncPolicy::Never, 0, &reg);
        let before = reg.get("wal.fsyncs");
        never.append(&WalOp::Append(vec![txn(1)])).unwrap();
        assert_eq!(reg.get("wal.fsyncs"), before, "never policy skips fsync");
    }
}
