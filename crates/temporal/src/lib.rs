//! # tnet-temporal
//!
//! The temporal mining layer: drives a persistent [`MineSession`] across
//! tumbling or sliding windows of hour/day/week units (ROADMAP item 3),
//! and detects *flow patterns* — binned weight moving along short paths
//! across consecutive windows, after Kosyfaki et al.'s spatio-temporal
//! flow model — together with hub surges, deadhead cycles, and
//! air-freight outliers.
//!
//! The driver materializes all units once ([`tnet_partition::unit_partition`]),
//! freezes them into a single CSR [`TxnSet`], and mines each window as a
//! contiguous slice. With `incremental` set, consecutive overlapping
//! windows are served by delta re-counting; results are byte-identical
//! to full per-window mining at any thread count (the session's core
//! invariant).
//!
//! ```
//! use tnet_data::{binning::BinScheme, generate, SynthConfig};
//! use tnet_fsg::{FsgConfig, Support};
//! use tnet_partition::{Granularity, TemporalOptions, WindowSpec};
//! use tnet_temporal::{run_windows, TemporalConfig};
//!
//! let ds = generate(&SynthConfig::scaled(0.01));
//! let fsg = FsgConfig::default()
//!     .with_support(Support::Count(5))
//!     .with_max_edges(2);
//! let cfg = TemporalConfig::new(WindowSpec::tumbling(Granularity::Week, 1).unwrap())
//!     .with_fsg(fsg);
//! let run = run_windows(
//!     &ds.transactions,
//!     &BinScheme::paper_defaults(),
//!     &TemporalOptions::default(),
//!     &cfg,
//!     &tnet_exec::Exec::sequential(),
//! )
//! .unwrap();
//! assert!(!run.windows.is_empty());
//! ```

pub mod flow;

pub use flow::{
    attribute, detect_flows, CycleEvent, FlowAttribution, FlowConfig, FlowPath, FlowReport,
    HubSurge,
};

use tnet_data::binning::BinScheme;
use tnet_data::model::Transaction;
use tnet_exec::Exec;
use tnet_fsg::{mine_source, FsgConfig, FsgError, FsgOutput, MineSession, SessionStats};
use tnet_graph::delta::GraphDelta;
use tnet_graph::frozen::TxnSet;
use tnet_partition::{unit_partition, Granularity, TemporalError, TemporalOptions, WindowSpec};

/// Errors from the window driver: partitioning (bad dates, degenerate
/// window specs) or mining (memory budget exhaustion).
#[derive(Debug)]
pub enum TemporalRunError {
    Partition(TemporalError),
    Mine(FsgError),
}

impl std::fmt::Display for TemporalRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TemporalRunError::Partition(e) => write!(f, "{e}"),
            TemporalRunError::Mine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TemporalRunError {}

impl From<TemporalError> for TemporalRunError {
    fn from(e: TemporalError) -> Self {
        TemporalRunError::Partition(e)
    }
}

impl From<FsgError> for TemporalRunError {
    fn from(e: FsgError) -> Self {
        TemporalRunError::Mine(e)
    }
}

/// Window-driver configuration.
#[derive(Clone, Debug)]
pub struct TemporalConfig {
    /// Granularity, width, and slide of the windows.
    pub spec: WindowSpec,
    /// Serve overlapping windows by delta re-counting instead of full
    /// per-window mining. Results are identical either way.
    pub incremental: bool,
    /// The per-window miner configuration.
    pub fsg: FsgConfig,
}

impl TemporalConfig {
    /// Incremental mining with default FSG settings.
    pub fn new(spec: WindowSpec) -> TemporalConfig {
        TemporalConfig {
            spec,
            incremental: true,
            fsg: FsgConfig::default(),
        }
    }

    pub fn with_fsg(mut self, fsg: FsgConfig) -> TemporalConfig {
        self.fsg = fsg;
        self
    }

    pub fn with_incremental(mut self, on: bool) -> TemporalConfig {
        self.incremental = on;
        self
    }
}

/// One mined window.
#[derive(Debug)]
pub struct WindowResult {
    /// Unit range `[unit_lo, unit_hi)` relative to the partition's
    /// `first_unit`.
    pub unit_lo: usize,
    pub unit_hi: usize,
    /// Backing transaction range in the frozen universe.
    pub txn_lo: usize,
    pub txn_hi: usize,
    /// Full miner output for this window (window-local TIDs).
    pub output: FsgOutput,
}

/// Everything a windowed run produced.
#[derive(Debug)]
pub struct TemporalRun {
    pub granularity: Granularity,
    /// Absolute unit index of unit 0 (days/hours/weeks since epoch).
    pub first_unit: u64,
    /// Units covered (including empty ones).
    pub units: usize,
    /// Graph transactions across all units.
    pub total_txns: usize,
    pub windows: Vec<WindowResult>,
    /// Session counters: windows, incremental vs full, delta volumes,
    /// re-count work (`session.*` / `window.*` metrics).
    pub session: SessionStats,
}

impl TemporalRun {
    /// Folds the run's counters into a metrics registry.
    pub fn record_into(&self, metrics: &tnet_obs::MetricsRegistry) {
        self.session.record_into(metrics);
        metrics.add("window.units", self.units as u64);
        metrics.add("window.txns", self.total_txns as u64);
    }
}

/// Partitions `txns` into units, freezes them once, and mines every
/// window of `cfg.spec` through one [`MineSession`]. With
/// `cfg.incremental` unset every window is mined statelessly
/// ([`mine_source`] on its slice) and counted as a full re-count —
/// output is identical either way; only the wall clock and session
/// counters differ.
///
/// # Errors
/// [`TemporalRunError::Partition`] on invalid dates or window specs,
/// [`TemporalRunError::Mine`] if a window's mining exceeds the memory
/// budget.
pub fn run_windows(
    txns: &[Transaction],
    scheme: &BinScheme,
    opts: &TemporalOptions,
    cfg: &TemporalConfig,
    exec: &Exec,
) -> Result<TemporalRun, TemporalRunError> {
    let up = unit_partition(txns, scheme, cfg.spec.granularity, opts)?;
    let set = TxnSet::freeze(&up.graphs);
    let mut session = MineSession::new(&set, cfg.fsg.clone());
    let mut prev: Option<(usize, usize)> = None;
    let mut windows = Vec::new();
    for (ulo, uhi) in cfg.spec.windows(up.units()) {
        let (lo, hi) = up.txn_range(ulo, uhi);
        let output = if cfg.incremental {
            session.advance(lo, hi, exec)?
        } else {
            // Stateless windows still report the same delta volumes a
            // session would have seen.
            let s = &mut session.stats;
            s.windows += 1;
            s.full_recounts += 1;
            if let Some(p) = prev {
                let d = GraphDelta::between(&set, p, (lo, hi));
                s.delta_txns += d.retired_txns + d.added_txns;
                s.delta_edges += d.retired_edges + d.added_edges;
            }
            prev = Some((lo, hi));
            mine_source(&set.slice(lo, hi), &cfg.fsg, exec)?
        };
        windows.push(WindowResult {
            unit_lo: ulo,
            unit_hi: uhi,
            txn_lo: lo,
            txn_hi: hi,
            output,
        });
    }
    Ok(TemporalRun {
        granularity: cfg.spec.granularity,
        first_unit: up.first_unit,
        units: up.units(),
        total_txns: up.graphs.len(),
        windows,
        session: session.stats.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_data::{generate, SynthConfig};
    use tnet_fsg::{mine_with, Support};

    fn small_dataset() -> Vec<Transaction> {
        generate(&SynthConfig::scaled(0.01)).transactions
    }

    fn fsg_cfg() -> FsgConfig {
        FsgConfig::default()
            .with_support(Support::Count(3))
            .with_max_edges(3)
    }

    #[test]
    fn sliding_day_run_is_incremental_and_exact() {
        let txns = small_dataset();
        let scheme = BinScheme::paper_defaults();
        let opts = TemporalOptions::default();
        let exec = Exec::sequential();
        let spec = WindowSpec::new(Granularity::Day, 7, 1).unwrap();
        let cfg = TemporalConfig::new(spec).with_fsg(fsg_cfg());
        let run = run_windows(&txns, &scheme, &opts, &cfg, &exec).unwrap();
        assert!(
            run.session.incremental_windows > 0,
            "sliding windows should hit the delta path"
        );
        // Ground truth: independent full mining of each window's graphs.
        let up = unit_partition(&txns, &scheme, Granularity::Day, &opts).unwrap();
        for w in &run.windows {
            let graphs = up.window_graphs(w.unit_lo, w.unit_hi);
            let full = mine_with(graphs, &fsg_cfg(), &exec).unwrap();
            assert_eq!(w.output.patterns.len(), full.patterns.len());
            for (a, b) in w.output.patterns.iter().zip(&full.patterns) {
                assert_eq!(a.support, b.support);
                assert_eq!(a.tids, b.tids);
            }
        }
    }

    #[test]
    fn non_incremental_mode_forces_full_recounts() {
        let txns = small_dataset();
        let spec = WindowSpec::new(Granularity::Week, 2, 1).unwrap();
        let cfg = TemporalConfig::new(spec)
            .with_fsg(fsg_cfg())
            .with_incremental(false);
        let run = run_windows(
            &txns,
            &BinScheme::paper_defaults(),
            &TemporalOptions::default(),
            &cfg,
            &Exec::sequential(),
        )
        .unwrap();
        assert_eq!(run.session.incremental_windows, 0);
        assert_eq!(run.session.full_recounts, run.windows.len());
    }

    #[test]
    fn inverted_dates_surface_as_partition_error() {
        let mut txns = small_dataset();
        txns[0].req_pickup = tnet_data::Date(40);
        txns[0].req_delivery = tnet_data::Date(2);
        let cfg = TemporalConfig::new(WindowSpec::tumbling(Granularity::Day, 7).unwrap());
        let err = run_windows(
            &txns,
            &BinScheme::paper_defaults(),
            &TemporalOptions::default(),
            &cfg,
            &Exec::sequential(),
        )
        .unwrap_err();
        assert!(matches!(err, TemporalRunError::Partition(_)));
    }
}
