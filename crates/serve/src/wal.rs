//! The write-ahead log: length-prefixed, CRC32C-checksummed records.
//!
//! Every accepted ingest/delete batch is appended here by the writer
//! thread *before* it can appear in a published generation, so a
//! SIGKILL at any instant loses at most batches that were never
//! acknowledged. On-disk framing, all little-endian:
//!
//! ```text
//! record  := len:u32  masked_crc:u32  payload[len]
//! payload := seq:u64  op:u8  body
//! body    := append → count:u32 (txn)×count
//!          | delete → count:u32 (id:u64)×count
//! ```
//!
//! `seq` is a monotone record number that survives WAL truncation: a
//! snapshot checkpoint records the highest seq it incorporates, and
//! replay skips records at or below it, which is what makes the
//! "snapshot, then truncate" pair crash-safe in either order.
//!
//! Replay classifies damage two ways (DESIGN.md §13):
//!
//! - **Torn tail** — the file ends before a record completes (partial
//!   header, or a declared length that runs past EOF). This is the
//!   signature of a crash mid-append; the tail is truncated with a
//!   warning and recovery proceeds. Everything acknowledged under
//!   `fsync always` precedes the torn record by construction.
//! - **Mid-log corruption** — a complete record whose checksum or
//!   structure is wrong, or an absurd declared length. A bit rotted or
//!   something rewrote history; replay refuses with a typed
//!   [`PipelineError::Corruption`] rather than silently dropping
//!   records that later, valid records may depend on.

use crate::crc;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use tnet_core::error::PipelineError;
use tnet_data::model::{Date, LatLon, TransMode, Transaction};
use tnet_exec::failpoint;

/// Hard cap on one record's payload. A real batch is bounded by the
/// 64 KiB request-line cap upstream; anything claiming more than this
/// is a corrupt length prefix, not a big batch.
pub const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes of one encoded [`Transaction`].
const TXN_BYTES: usize = 8 + 4 + 4 + 2 + 2 + 2 + 2 + 8 + 8 + 8 + 1;

/// A durable mutation, mirroring the writer's ingest ops.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    Append(Vec<Transaction>),
    Delete(Vec<u64>),
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    pub seq: u64,
    pub op: WalOp,
}

// ------------------------------------------------------------- encoding

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn encode_txn(out: &mut Vec<u8>, t: &Transaction) {
    put_u64(out, t.id);
    put_u32(out, t.req_pickup.0);
    put_u32(out, t.req_delivery.0);
    out.extend_from_slice(&t.origin.lat_deci.to_le_bytes());
    out.extend_from_slice(&t.origin.lon_deci.to_le_bytes());
    out.extend_from_slice(&t.dest.lat_deci.to_le_bytes());
    out.extend_from_slice(&t.dest.lon_deci.to_le_bytes());
    out.extend_from_slice(&t.total_distance.to_le_bytes());
    out.extend_from_slice(&t.gross_weight.to_le_bytes());
    out.extend_from_slice(&t.transit_hours.to_le_bytes());
    out.push(match t.mode {
        TransMode::Truckload => 0,
        TransMode::LessThanTruckload => 1,
    });
}

/// Encodes one full on-disk record in a single buffer: the frame
/// header (payload length, masked CRC of the payload) followed by the
/// payload (seq + op + body).
pub fn encode_record(seq: u64, op: &WalOp) -> Vec<u8> {
    let body = match op {
        WalOp::Append(txns) => txns.len() * TXN_BYTES,
        WalOp::Delete(ids) => ids.len() * 8,
    };
    // Header, seq, tag, count, body: one allocation of the exact size.
    let mut out = Vec::with_capacity(8 + 8 + 1 + 4 + body);
    out.extend_from_slice(&[0; 8]);
    put_u64(&mut out, seq);
    match op {
        WalOp::Append(txns) => {
            out.push(1);
            put_u32(&mut out, txns.len() as u32);
            for t in txns {
                encode_txn(&mut out, t);
            }
        }
        WalOp::Delete(ids) => {
            out.push(2);
            put_u32(&mut out, ids.len() as u32);
            for &id in ids {
                put_u64(&mut out, id);
            }
        }
    }
    debug_assert_eq!(out.len(), out.capacity(), "TXN_BYTES matches encode_txn");
    let payload = &out[8..];
    let (len, crc) = (payload.len() as u32, crc::mask(crc::crc32c(payload)));
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

// ------------------------------------------------------------- decoding

/// A byte cursor with typed little-endian reads, shared with the
/// snapshot codec.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn i16(&mut self) -> Option<i16> {
        self.take(2)
            .map(|b| i16::from_le_bytes(b.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        self.take(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
    }
}

pub(crate) fn decode_txn(c: &mut Cursor) -> Option<Transaction> {
    Some(Transaction {
        id: c.u64()?,
        req_pickup: Date(c.u32()?),
        req_delivery: Date(c.u32()?),
        origin: LatLon {
            lat_deci: c.i16()?,
            lon_deci: c.i16()?,
        },
        dest: LatLon {
            lat_deci: c.i16()?,
            lon_deci: c.i16()?,
        },
        total_distance: c.f64()?,
        gross_weight: c.f64()?,
        transit_hours: c.f64()?,
        mode: match c.u8()? {
            0 => TransMode::Truckload,
            1 => TransMode::LessThanTruckload,
            _ => return None,
        },
    })
}

/// Decodes a CRC-verified payload. `None` means the structure is wrong
/// even though the checksum passed — the caller reports corruption.
pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let seq = c.u64()?;
    let op = match c.u8()? {
        1 => {
            let count = c.u32()? as usize;
            let mut txns = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                txns.push(decode_txn(&mut c)?);
            }
            WalOp::Append(txns)
        }
        2 => {
            let count = c.u32()? as usize;
            let mut ids = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                ids.push(c.u64()?);
            }
            WalOp::Delete(ids)
        }
        _ => return None,
    };
    if c.pos != payload.len() {
        return None; // trailing bytes: a length lie the CRC happened to bless
    }
    Some(WalRecord { seq, op })
}

// -------------------------------------------------------------- replay

/// The outcome of replaying a WAL file.
#[derive(Debug)]
pub struct Replay {
    /// Every valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset just past the last valid record — where a torn tail
    /// (if any) starts, and the length to truncate the file back to.
    pub valid_len: u64,
    /// Bytes of torn tail dropped (0 = the file ended cleanly).
    pub torn_bytes: u64,
}

fn corrupt(path: &Path, offset: u64, message: impl Into<String>) -> PipelineError {
    PipelineError::Corruption {
        path: path.display().to_string(),
        offset,
        message: message.into(),
    }
}

/// Reads and verifies every record in `path`. A missing file replays
/// as empty. Torn tails are reported, not fatal; mid-log corruption is
/// a typed refusal (see module docs for the distinction).
pub fn replay(path: &Path) -> Result<Replay, PipelineError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            return Err(PipelineError::Io(format!(
                "cannot read {}: {e}",
                path.display()
            )))
        }
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos == bytes.len() {
            return Ok(Replay {
                records,
                valid_len: pos as u64,
                torn_bytes: 0,
            });
        }
        // Partial header at EOF: torn.
        if bytes.len() - pos < 8 {
            return Ok(Replay {
                records,
                valid_len: pos as u64,
                torn_bytes: (bytes.len() - pos) as u64,
            });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let stored_crc = crc::unmask(u32::from_le_bytes(
            bytes[pos + 4..pos + 8].try_into().unwrap(),
        ));
        if len > MAX_RECORD_BYTES {
            return Err(corrupt(
                path,
                pos as u64,
                format!(
                    "record claims {len} bytes (cap {MAX_RECORD_BYTES}); length prefix is rotten"
                ),
            ));
        }
        let body_start = pos + 8;
        // Declared length runs past EOF: torn (the crash interrupted
        // this very append).
        if bytes.len() - body_start < len as usize {
            return Ok(Replay {
                records,
                valid_len: pos as u64,
                torn_bytes: (bytes.len() - pos) as u64,
            });
        }
        let payload = &bytes[body_start..body_start + len as usize];
        if crc::crc32c(payload) != stored_crc {
            return Err(corrupt(
                path,
                pos as u64,
                "record checksum mismatch (CRC32C)",
            ));
        }
        let Some(record) = decode_payload(payload) else {
            return Err(corrupt(
                path,
                pos as u64,
                "record checksum passed but the payload structure is invalid",
            ));
        };
        if let Some(prev) = records.last() {
            if record.seq <= prev.seq {
                return Err(corrupt(
                    path,
                    pos as u64,
                    format!(
                        "sequence went backwards ({} after {})",
                        record.seq, prev.seq
                    ),
                ));
            }
        }
        records.push(record);
        pos = body_start + len as usize;
    }
}

// -------------------------------------------------------------- writer

/// When appended records reach the platter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record — an acknowledgment implies
    /// the record survives power loss.
    Always,
    /// fsync on a timer (milliseconds); an acknowledgment implies the
    /// record survives a process SIGKILL, and survives power loss after
    /// at most this window.
    Interval(std::time::Duration),
    /// Never fsync explicitly; the OS page cache decides.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, `interval` (default 100 ms), or
    /// `interval:MS`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            "interval" => Some(FsyncPolicy::Interval(std::time::Duration::from_millis(100))),
            _ => {
                let ms: u64 = s.strip_prefix("interval:")?.parse().ok()?;
                Some(FsyncPolicy::Interval(std::time::Duration::from_millis(
                    ms.max(1),
                )))
            }
        }
    }

    pub fn name(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::Interval(d) => format!("interval:{}", d.as_millis()),
            FsyncPolicy::Never => "never".into(),
        }
    }
}

/// The append half of the WAL, owned by the writer thread.
pub struct WalWriter {
    path: PathBuf,
    file: BufWriter<File>,
    /// Sequence of the last appended (or recovered) record.
    pub seq: u64,
    /// True when bytes were written since the last fsync.
    dirty: bool,
}

impl WalWriter {
    /// Opens (creating if absent) the WAL for appending, continuing
    /// after sequence `seq`.
    pub fn open(path: &Path, seq: u64) -> Result<WalWriter, PipelineError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| PipelineError::Io(format!("cannot open WAL {}: {e}", path.display())))?;
        Ok(WalWriter {
            path: path.to_path_buf(),
            file: BufWriter::new(file),
            seq,
            dirty: false,
        })
    }

    /// Appends one op as the next record and flushes it to the OS.
    /// Durability beyond the page cache is [`WalWriter::sync`]'s job.
    /// Returns the record's sequence number.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, PipelineError> {
        failpoint::hit("serve::wal_append").map_err(|f| PipelineError::Io(f.to_string()))?;
        let seq = self.seq + 1;
        let record = encode_record(seq, op);
        self.file
            .write_all(&record)
            .and_then(|()| self.file.flush())
            .map_err(|e| PipelineError::Io(format!("WAL append failed: {e}")))?;
        self.seq = seq;
        self.dirty = true;
        Ok(seq)
    }

    /// fsyncs outstanding appends. A no-op when nothing was written
    /// since the last sync.
    pub fn sync(&mut self) -> Result<(), PipelineError> {
        if !self.dirty {
            return Ok(());
        }
        failpoint::hit("serve::wal_fsync").map_err(|f| PipelineError::Io(f.to_string()))?;
        self.file
            .get_ref()
            .sync_data()
            .map_err(|e| PipelineError::Io(format!("WAL fsync failed: {e}")))?;
        self.dirty = false;
        Ok(())
    }

    /// Truncates the log to empty after a snapshot made its records
    /// redundant. Sequence numbering continues — replay skips by seq,
    /// so a crash between snapshot and truncation double-applies
    /// nothing.
    pub fn truncate(&mut self) -> Result<(), PipelineError> {
        self.file
            .flush()
            .and_then(|()| self.file.get_ref().set_len(0))
            .and_then(|()| self.file.get_ref().sync_data())
            .map_err(|e| {
                PipelineError::Io(format!("cannot truncate WAL {}: {e}", self.path.display()))
            })?;
        self.dirty = false;
        Ok(())
    }

    /// Bytes currently in the log file.
    pub fn len(&self) -> u64 {
        self.file.get_ref().metadata().map(|m| m.len()).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(id: u64) -> Transaction {
        Transaction {
            id,
            req_pickup: Date(733000),
            req_delivery: Date(733002 + id as u32 % 3),
            origin: LatLon::new(33.7, -84.4),
            dest: LatLon::new(35.1 + id as f64 * 0.1, -90.0),
            total_distance: 300.0 + id as f64,
            gross_weight: 1000.0 * (id + 1) as f64,
            transit_hours: 8.0 + id as f64,
            mode: if id.is_multiple_of(2) {
                TransMode::Truckload
            } else {
                TransMode::LessThanTruckload
            },
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tnet_wal_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn write_ops(path: &Path, ops: &[WalOp]) -> WalWriter {
        let mut w = WalWriter::open(path, 0).unwrap();
        for op in ops {
            w.append(op).unwrap();
        }
        w.sync().unwrap();
        w
    }

    #[test]
    fn round_trips_appends_and_deletes() {
        let path = tmp("roundtrip");
        let ops = vec![
            WalOp::Append(vec![txn(1), txn(2), txn(3)]),
            WalOp::Delete(vec![2, 99]),
            WalOp::Append(vec![txn(4)]),
        ];
        write_ops(&path, &ops);
        let replay = replay(&path).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(
            replay.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        for (r, op) in replay.records.iter().zip(&ops) {
            assert_eq!(&r.op, op, "decoded op diverged");
        }
        assert_eq!(replay.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn missing_file_replays_empty() {
        let path = tmp("missing").with_extension("nope");
        let r = replay(&path).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.valid_len, 0);
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let path = tmp("torn");
        write_ops(
            &path,
            &[
                WalOp::Append(vec![txn(1), txn(2)]),
                WalOp::Append(vec![txn(3)]),
            ],
        );
        let full = std::fs::metadata(&path).unwrap().len();
        // Cut into the middle of the second record's payload.
        let cut = full - 10;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 1, "only the intact record survives");
        assert_eq!(r.torn_bytes, cut - r.valid_len);
        assert!(r.valid_len < cut);

        // Truncating at the reported valid_len yields a clean log again.
        f.set_len(r.valid_len).unwrap();
        let clean = replay(&path).unwrap();
        assert_eq!(clean.records.len(), 1);
        assert_eq!(clean.torn_bytes, 0);
    }

    #[test]
    fn partial_header_at_eof_is_torn() {
        let _g = crate::failpoint_test_guard();
        let path = tmp("torn_header");
        write_ops(&path, &[WalOp::Delete(vec![7])]);
        let valid = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap(); // 3 of 8 header bytes
        drop(f);
        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.valid_len, valid);
        assert_eq!(r.torn_bytes, 3);
    }

    #[test]
    fn midlog_bitflip_is_typed_corruption() {
        let path = tmp("flip");
        write_ops(
            &path,
            &[
                WalOp::Append(vec![txn(1), txn(2)]),
                WalOp::Append(vec![txn(3)]),
            ],
        );
        // Flip one byte inside the FIRST record's payload: mid-log, a
        // later valid record follows, so this must refuse.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = replay(&path).unwrap_err();
        assert_eq!(err.kind(), "corruption");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn absurd_length_prefix_is_corruption() {
        let path = tmp("len");
        write_ops(&path, &[WalOp::Delete(vec![1])]);
        let mut bytes = std::fs::read(&path).unwrap();
        // Blow the length prefix past the cap.
        bytes[3] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = replay(&path).unwrap_err();
        assert_eq!(err.kind(), "corruption");
        assert!(err.to_string().contains("length prefix"), "{err}");
    }

    #[test]
    fn truncate_resets_bytes_but_not_seq() {
        let _g = crate::failpoint_test_guard();
        let path = tmp("rotate");
        let mut w = write_ops(&path, &[WalOp::Delete(vec![1]), WalOp::Delete(vec![2])]);
        assert_eq!(w.seq, 2);
        w.truncate().unwrap();
        assert!(w.is_empty());
        w.append(&WalOp::Delete(vec![3])).unwrap();
        w.sync().unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].seq, 3, "seq continues across truncation");
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval"),
            Some(FsyncPolicy::Interval(std::time::Duration::from_millis(100)))
        );
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Some(FsyncPolicy::Interval(std::time::Duration::from_millis(250)))
        );
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::parse("interval:x"), None);
        assert_eq!(
            FsyncPolicy::parse("interval:250").unwrap().name(),
            "interval:250"
        );
    }
}
