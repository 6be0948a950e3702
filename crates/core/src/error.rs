//! The unified pipeline error taxonomy.
//!
//! Every failure a report section or CLI path can hit — CSV parse
//! errors, degenerate binning input, miner memory-budget aborts,
//! injected faults, deadlines, and panics — converges on
//! [`PipelineError`], so callers map outcomes to stable exit codes and
//! one-line messages instead of pattern-matching five per-crate enums.

use std::fmt;
use std::time::Duration;
use tnet_data::binning::BinFitError;
use tnet_data::csv::CsvError;
use tnet_fsg::FsgError;
use tnet_partition::TemporalError;
use tnet_subdue::SubdueError;
use tnet_tabular::EmError;

/// Any failure surfaced by the knowledge-discovery pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// CSV ingest rejected a line.
    Csv(CsvError),
    /// Bin fitting rejected the transaction set.
    BinFit(BinFitError),
    /// The levelwise (FSG) miner aborted.
    Fsg(FsgError),
    /// The SUBDUE beam search aborted.
    Subdue(SubdueError),
    /// The EM clustering fit aborted.
    Em(EmError),
    /// A supervised section overran its wall-clock deadline.
    DeadlineExceeded { section: String, limit: Duration },
    /// A supervised section panicked; `message` is the panic payload.
    Panic { section: String, message: String },
    /// Work was cancelled without a deadline being the cause (an
    /// explicit caller cancel or a sibling abort on a shared token).
    Cancelled,
    /// An I/O failure outside CSV parsing (opening files, writing
    /// output).
    Io(String),
    /// A malformed request on the serving wire protocol (bad JSON, an
    /// unknown op, an oversized line). Always a client error: the
    /// daemon replies with it and keeps the connection alive.
    Protocol { message: String },
    /// Durable state (a WAL record away from the tail, a snapshot
    /// checkpoint) failed its checksum or structural validation.
    /// Recovery refuses to proceed on this — silently dropping
    /// mid-log records would serve wrong answers as if they were right.
    Corruption {
        path: String,
        offset: u64,
        message: String,
    },
    /// The daemon is at a capacity limit (too many concurrent
    /// connections). Transient by construction: the
    /// client should back off and retry, so this is the one serving
    /// error marked retryable.
    Overloaded { message: String },
    /// Temporal partitioning rejected the transaction set at ingest
    /// (inverted pickup/delivery dates, a date span over the bucketing
    /// cap, or a degenerate window spec).
    Temporal(TemporalError),
}

impl PipelineError {
    /// True for failures the supervisor retries once at reduced effort:
    /// resource exhaustion (a miner's memory-budget abort) and
    /// deadline overrun — the paper's §6.1 move of raising support and
    /// shrinking the input after FSG ran out of memory. Panics and
    /// malformed input are not retryable: the same input fails the same
    /// way at any effort.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            PipelineError::Fsg(FsgError::MemoryBudgetExceeded { .. })
                | PipelineError::Subdue(SubdueError::MemoryBudgetExceeded { .. })
                | PipelineError::DeadlineExceeded { .. }
                | PipelineError::Overloaded { .. }
        )
    }

    /// A stable machine-readable tag for the error's taxonomy branch,
    /// used as the `kind` field of wire-protocol error replies so
    /// clients can dispatch without parsing the human message.
    pub fn kind(&self) -> &'static str {
        match self {
            PipelineError::Csv(_) => "csv",
            PipelineError::BinFit(_) => "bin_fit",
            PipelineError::Fsg(_) => "fsg",
            PipelineError::Subdue(_) => "subdue",
            PipelineError::Em(_) => "em",
            PipelineError::DeadlineExceeded { .. } => "deadline",
            PipelineError::Panic { .. } => "panic",
            PipelineError::Cancelled => "cancelled",
            PipelineError::Io(_) => "io",
            PipelineError::Protocol { .. } => "protocol",
            PipelineError::Corruption { .. } => "corruption",
            PipelineError::Overloaded { .. } => "overloaded",
            PipelineError::Temporal(_) => "temporal",
        }
    }

    /// True when the underlying failure is a bare cancellation (any
    /// layer's `Cancelled` variant). The supervisor reclassifies these
    /// as [`PipelineError::DeadlineExceeded`] when the section's
    /// deadline token has expired.
    pub fn is_cancellation(&self) -> bool {
        matches!(
            self,
            PipelineError::Cancelled
                | PipelineError::Fsg(FsgError::Cancelled)
                | PipelineError::Subdue(SubdueError::Cancelled)
                | PipelineError::Em(EmError::Cancelled)
        )
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Csv(e) => write!(f, "{e}"),
            PipelineError::BinFit(e) => write!(f, "{e}"),
            PipelineError::Fsg(e) => write!(f, "fsg: {e}"),
            PipelineError::Subdue(e) => write!(f, "subdue: {e}"),
            PipelineError::Em(e) => write!(f, "em: {e}"),
            PipelineError::DeadlineExceeded { section, limit } => {
                write!(f, "section `{section}` exceeded its {limit:?} deadline")
            }
            PipelineError::Panic { section, message } => {
                write!(f, "section `{section}` panicked: {message}")
            }
            PipelineError::Cancelled => write!(f, "cancelled"),
            PipelineError::Io(msg) => write!(f, "io error: {msg}"),
            PipelineError::Protocol { message } => write!(f, "protocol error: {message}"),
            PipelineError::Corruption {
                path,
                offset,
                message,
            } => write!(
                f,
                "corrupt durable state in {path} at byte {offset}: {message}"
            ),
            PipelineError::Overloaded { message } => write!(f, "overloaded: {message}"),
            PipelineError::Temporal(e) => write!(f, "temporal partition: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CsvError> for PipelineError {
    fn from(e: CsvError) -> Self {
        PipelineError::Csv(e)
    }
}

impl From<BinFitError> for PipelineError {
    fn from(e: BinFitError) -> Self {
        PipelineError::BinFit(e)
    }
}

impl From<TemporalError> for PipelineError {
    fn from(e: TemporalError) -> Self {
        PipelineError::Temporal(e)
    }
}

impl From<FsgError> for PipelineError {
    fn from(e: FsgError) -> Self {
        PipelineError::Fsg(e)
    }
}

impl From<SubdueError> for PipelineError {
    fn from(e: SubdueError) -> Self {
        PipelineError::Subdue(e)
    }
}

impl From<EmError> for PipelineError {
    fn from(e: EmError) -> Self {
        PipelineError::Em(e)
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        let budget = PipelineError::Subdue(SubdueError::MemoryBudgetExceeded {
            estimated_bytes: 10,
            budget: 1,
            expanded: 0,
        });
        assert!(budget.is_retryable());
        let deadline = PipelineError::DeadlineExceeded {
            section: "E2".into(),
            limit: Duration::from_secs(1),
        };
        assert!(deadline.is_retryable());
        let panic = PipelineError::Panic {
            section: "E2".into(),
            message: "boom".into(),
        };
        assert!(!panic.is_retryable());
        assert!(!PipelineError::Cancelled.is_retryable());
    }

    #[test]
    fn cancellation_classification() {
        assert!(PipelineError::Cancelled.is_cancellation());
        assert!(PipelineError::Fsg(FsgError::Cancelled).is_cancellation());
        assert!(PipelineError::Em(EmError::Cancelled).is_cancellation());
        assert!(!PipelineError::Io("x".into()).is_cancellation());
    }

    #[test]
    fn corruption_and_overload_kinds() {
        let c = PipelineError::Corruption {
            path: "wal.log".into(),
            offset: 4096,
            message: "crc mismatch".into(),
        };
        assert_eq!(c.kind(), "corruption");
        assert!(!c.is_retryable(), "corruption never heals on retry");
        assert!(c.to_string().contains("wal.log"));
        assert!(c.to_string().contains("4096"));
        let o = PipelineError::Overloaded {
            message: "all 128 connections are in use".into(),
        };
        assert_eq!(o.kind(), "overloaded");
        assert!(o.is_retryable(), "overload is transient by construction");
        assert!(!o.is_cancellation());
    }

    #[test]
    fn kinds_are_stable_tags() {
        assert_eq!(PipelineError::Cancelled.kind(), "cancelled");
        assert_eq!(PipelineError::Io("x".into()).kind(), "io");
        let p = PipelineError::Protocol {
            message: "unknown op `frobnicate`".into(),
        };
        assert_eq!(p.kind(), "protocol");
        assert!(p.to_string().contains("unknown op"));
        assert!(!p.is_retryable());
        assert!(!p.is_cancellation());
        let d = PipelineError::DeadlineExceeded {
            section: "s".into(),
            limit: Duration::from_secs(1),
        };
        assert_eq!(d.kind(), "deadline");
    }

    #[test]
    fn display_includes_layer() {
        let e = PipelineError::Fsg(FsgError::Cancelled);
        assert!(e.to_string().starts_with("fsg: "));
        let e = PipelineError::DeadlineExceeded {
            section: "E5: sweep".into(),
            limit: Duration::from_millis(250),
        };
        assert!(e.to_string().contains("E5: sweep"));
        assert!(e.to_string().contains("deadline"));
    }
}
