//! Shared helpers for the benchmark harness.
//!
//! Every bench regenerates one of the paper's tables or figures (see
//! DESIGN.md's per-experiment index). Datasets are generated once per
//! process and shared.

pub mod harness;

use std::sync::OnceLock;
use tnet_data::model::Transaction;
use tnet_data::synth::{generate, SynthConfig};

/// The default benchmark scale: 2% of the paper's dataset, which keeps
/// every bench in seconds while preserving distribution shape.
pub const BENCH_SCALE: f64 = 0.02;

/// Transactions at [`BENCH_SCALE`], generated once.
pub fn bench_transactions() -> &'static [Transaction] {
    static DATA: OnceLock<Vec<Transaction>> = OnceLock::new();
    DATA.get_or_init(|| generate(&SynthConfig::scaled(BENCH_SCALE)).transactions)
}

/// Transactions at an arbitrary scale (not cached).
pub fn transactions_at(scale: f64, seed: u64) -> Vec<Transaction> {
    generate(&SynthConfig::scaled(scale).with_seed(seed)).transactions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_dataset_is_stable() {
        let a = bench_transactions();
        let b = bench_transactions();
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
    }
}
