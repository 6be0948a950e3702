//! # tnet-temporal
//!
//! The temporal mining layer: mines tumbling or sliding windows of
//! hour/day/week units, and detects *flow patterns* — binned weight
//! moving along short paths across consecutive windows, after Kosyfaki
//! et al.'s spatio-temporal flow model — together with hub surges,
//! deadhead cycles, and air-freight outliers.
//!
//! The driver materializes all units once ([`tnet_partition::unit_partition`]),
//! freezes them into a single CSR [`TxnSet`], and mines each window
//! independently as a contiguous slice of it ([`mine_source`]), as the
//! paper mines each temporal partition. Output is byte-identical to
//! freezing and mining each window's graphs on their own, at any thread
//! count.
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
use tnet_fsg::{mine_source, FsgConfig, FsgError, FsgOutput};
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
    /// The per-window miner configuration.
    pub fsg: FsgConfig,
}

impl TemporalConfig {
    /// Windows of `spec` mined with default FSG settings.
    pub fn new(spec: WindowSpec) -> TemporalConfig {
        TemporalConfig {
            spec,
            fsg: FsgConfig::default(),
        }
    }

    pub fn with_fsg(mut self, fsg: FsgConfig) -> TemporalConfig {
        self.fsg = fsg;
        self
    }

    /// Does nothing: every window is mined on its own. Kept only until
    /// the next benchmark change drops the `temporal_day` workload's
    /// call, which the benchmark harness compiles against.
    pub fn with_incremental(self, _on: bool) -> TemporalConfig {
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

/// Window counts in the shape the benchmark harness reads. Kept only
/// until the next benchmark change drops the read: every window is a
/// full mine, so `windows == full_recounts` and the other three fields
/// are always 0.
#[derive(Clone, Debug, Default)]
pub struct SessionStats {
    /// Windows mined.
    pub windows: usize,
    /// Always 0.
    pub incremental_windows: usize,
    /// Equal to `windows`.
    pub full_recounts: usize,
    /// Always 0.
    pub patterns_recounted: usize,
    /// Always 0.
    pub recount_skips: usize,
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
    /// See [`SessionStats`]: kept only until the next benchmark change
    /// drops the read.
    pub session: SessionStats,
}

impl TemporalRun {
    /// Folds the run's counters into a metrics registry.
    pub fn record_into(&self, metrics: &tnet_obs::MetricsRegistry) {
        metrics.add("window.units", self.units as u64);
        metrics.add("window.txns", self.total_txns as u64);
    }
}

/// Partitions `txns` into units, freezes them once, and mines every
/// window of `cfg.spec` with [`mine_source`] on its slice of the frozen
/// set.
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
    let mut windows = Vec::new();
    for (ulo, uhi) in cfg.spec.windows(up.units()) {
        let (lo, hi) = up.txn_range(ulo, uhi);
        windows.push(WindowResult {
            unit_lo: ulo,
            unit_hi: uhi,
            txn_lo: lo,
            txn_hi: hi,
            output: mine_source(&set.slice(lo, hi), &cfg.fsg, exec)?,
        });
    }
    Ok(TemporalRun {
        granularity: cfg.spec.granularity,
        first_unit: up.first_unit,
        units: up.units(),
        total_txns: up.graphs.len(),
        session: SessionStats {
            windows: windows.len(),
            full_recounts: windows.len(),
            ..SessionStats::default()
        },
        windows,
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
    fn sliding_day_run_matches_independent_mining() {
        let txns = small_dataset();
        let scheme = BinScheme::paper_defaults();
        let opts = TemporalOptions::default();
        let exec = Exec::sequential();
        let spec = WindowSpec::new(Granularity::Day, 7, 1).unwrap();
        let cfg = TemporalConfig::new(spec).with_fsg(fsg_cfg());
        let run = run_windows(&txns, &scheme, &opts, &cfg, &exec).unwrap();
        assert!(run.windows.len() > 1);
        assert_eq!(run.session.windows, run.windows.len());
        assert_eq!(run.session.full_recounts, run.windows.len());
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
