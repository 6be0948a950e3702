//! An immutable generation: the unit readers pin and the writer swaps.
//!
//! A generation is the live transaction set at one publish instant plus
//! everything a query needs precomputed from it: the fitted
//! [`BinScheme`] and, per edge labeling, the [`FrozenGraph`] CSR
//! snapshot of the deduplicated OD graph. Construction runs
//! the *same* code path as the offline commands (`fit_width_transactions`
//! → `build_od_graph` → `dedup_edges` → `freeze`), which is what makes
//! query replies byte-identical to `tnet mine` / `tnet stats` on a dump
//! of the same snapshot — the differential tests rely on it.
//!
//! Everything here is built by the writer thread *before* the epoch
//! swap; readers touch only `&self`.

use tnet_core::error::PipelineError;
use tnet_data::binning::BinScheme;
use tnet_data::model::Transaction;
use tnet_data::od_graph::{build_od_graph, EdgeLabeling, VertexLabeling};
use tnet_graph::frozen::FrozenGraph;

/// Snapshot data that only exists when the dataset is non-empty.
pub struct GenData {
    pub scheme: BinScheme,
    /// The CSR freeze of each deduplicated OD graph — what support
    /// queries walk and what Algorithm 1 splits for pattern queries.
    /// Indexed by [`labeling_index`]: OD_GW, OD_TH, OD_TD.
    pub graphs: [FrozenGraph; 3],
}

/// A published snapshot: id, live transactions, and derived graphs.
pub struct Generation {
    /// Monotone publish ordinal (0 = the pre-ingest genesis).
    pub id: u64,
    /// Live transactions (appends minus tombstoned deletes), in ingest
    /// order — the exact set an offline run would read from a CSV dump.
    pub txns: Vec<Transaction>,
    /// `None` only for an empty dataset, which has nothing to fit or
    /// mine; stats still answers, graph queries explain themselves.
    pub data: Option<GenData>,
}

/// The `graphs` slot for a labeling.
pub fn labeling_index(l: EdgeLabeling) -> usize {
    match l {
        EdgeLabeling::GrossWeight => 0,
        EdgeLabeling::TransitHours => 1,
        EdgeLabeling::TotalDistance => 2,
    }
}

impl Generation {
    /// Builds a generation from the live transaction set. Fails only
    /// when bin fitting rejects a non-empty set (degenerate ranges) —
    /// the caller keeps serving the previous generation in that case.
    pub fn build(id: u64, txns: Vec<Transaction>) -> Result<Generation, PipelineError> {
        if txns.is_empty() {
            return Ok(Generation {
                id,
                txns,
                data: None,
            });
        }
        let scheme = BinScheme::fit_width_transactions(&txns)?;
        let build = |labeling| {
            let mut g = build_od_graph(&txns, &scheme, labeling, VertexLabeling::Uniform).graph;
            g.dedup_edges();
            g.freeze()
        };
        let graphs = [
            build(EdgeLabeling::GrossWeight),
            build(EdgeLabeling::TransitHours),
            build(EdgeLabeling::TotalDistance),
        ];
        Ok(Generation {
            id,
            txns,
            data: Some(GenData { scheme, graphs }),
        })
    }

    /// The labeling's frozen OD graph, or a uniform protocol-level
    /// explanation for the empty dataset.
    pub fn labeled(&self, labeling: EdgeLabeling) -> Result<&FrozenGraph, PipelineError> {
        match &self.data {
            Some(d) => Ok(&d.graphs[labeling_index(labeling)]),
            None => Err(PipelineError::Protocol {
                message: format!(
                    "generation {} holds no transactions yet; ingest before querying graphs",
                    self.id
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_graph::view::GraphView;

    fn sample_txns(n: usize) -> Vec<Transaction> {
        let cfg = tnet_data::synth::SynthConfig::scaled(0.01).with_seed(7);
        let mut txns = tnet_data::synth::generate(&cfg).transactions;
        txns.truncate(n);
        txns
    }

    #[test]
    fn empty_generation_has_no_graphs() {
        let g = Generation::build(0, Vec::new()).unwrap();
        assert!(g.data.is_none());
        let Err(err) = g.labeled(EdgeLabeling::GrossWeight) else {
            panic!("empty generation must not expose a graph");
        };
        assert_eq!(err.kind(), "protocol");
    }

    #[test]
    fn build_matches_offline_pipeline() {
        let txns = sample_txns(200);
        let g = Generation::build(3, txns.clone()).unwrap();
        assert_eq!(g.id, 3);
        // Rebuild offline exactly as `tnet mine` does and compare shape.
        let scheme = BinScheme::fit_width_transactions(&txns).unwrap();
        for labeling in [
            EdgeLabeling::GrossWeight,
            EdgeLabeling::TransitHours,
            EdgeLabeling::TotalDistance,
        ] {
            let mut offline =
                build_od_graph(&txns, &scheme, labeling, VertexLabeling::Uniform).graph;
            offline.dedup_edges();
            let fg = g.labeled(labeling).unwrap();
            assert_eq!(fg.vertex_count(), offline.vertex_count());
            assert_eq!(fg.edge_count(), offline.edge_count());
        }
    }
}
