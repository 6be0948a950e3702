//! An immutable generation, and [`Current`]: the cell the writer
//! publishes it through and every query reads it from.
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
//! Everything here is built by the writer thread *before* the swap;
//! readers touch only `&self`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
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

/// The generation queries read now. The writer replaces it with
/// [`Current::set`]; a query takes its own `Arc` with [`Current::get`]
/// and keeps answering from that snapshot however many publishes land
/// meanwhile. The lock is held only for one `Arc` clone or one pointer
/// swap, never while a generation is built, queried or dropped.
pub struct Current {
    gen: RwLock<Arc<Generation>>,
    /// Successful publishes so far, readable without the lock. A
    /// statistic that publishes no data, so `Relaxed`; it is bumped
    /// under the write lock, so whoever `get`s generation k then reads
    /// a count of at least k.
    publishes: AtomicU64,
}

impl Current {
    /// A cell whose first generation is `initial`.
    pub fn new(initial: Generation) -> Current {
        Current {
            gen: RwLock::new(Arc::new(initial)),
            publishes: AtomicU64::new(0),
        }
    }

    /// The current generation. Poison is recovered: the guarded value
    /// is one pointer, whole after any panic.
    pub fn get(&self) -> Arc<Generation> {
        Arc::clone(&self.gen.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `next`. The old generation is released after the write
    /// lock, so a large drop never holds up readers.
    pub fn set(&self, next: Generation) {
        let next = Arc::new(next);
        let old = {
            let mut gen = self.gen.write().unwrap_or_else(PoisonError::into_inner);
            self.publishes.fetch_add(1, Ordering::Relaxed);
            std::mem::replace(&mut *gen, next)
        };
        drop(old);
    }

    /// Number of publishes so far (0 = still on the initial value).
    pub fn publish_count(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
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

    #[test]
    fn get_sees_published_value() {
        let current = Current::new(Generation::build(0, Vec::new()).unwrap());
        assert_eq!(current.publish_count(), 0);
        current.set(Generation::build(1, sample_txns(50)).unwrap());
        assert_eq!(current.get().id, 1);
        assert_eq!(current.get().txns.len(), 50);
        assert_eq!(current.publish_count(), 1);
    }

    #[test]
    fn old_generation_survives_while_held() {
        let current = Current::new(Generation::build(0, Vec::new()).unwrap());
        let held = current.get();
        current.set(Generation::build(1, sample_txns(50)).unwrap());
        current.set(Generation::build(2, sample_txns(60)).unwrap());
        assert_eq!(current.get().id, 2);
        assert_eq!(current.get().txns.len(), 60);
        assert_eq!(current.publish_count(), 2);
        // The caller's Arc keeps generation 0 alive after two swaps.
        assert_eq!(held.id, 0);
        assert!(held.txns.is_empty());
    }

    #[test]
    fn concurrent_gets_observe_publishes_in_order() {
        const PUBLISHES: u64 = 2_000;
        let current = Current::new(Generation::build(0, Vec::new()).unwrap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut last = 0;
                    loop {
                        let id = current.get().id;
                        assert!(id >= last, "went backwards: {id} < {last}");
                        // The count is bumped with the swap, under the
                        // lock, so it never trails a visible generation.
                        assert!(current.publish_count() >= id);
                        last = id;
                        if id == PUBLISHES {
                            return;
                        }
                    }
                });
            }
            s.spawn(|| {
                for id in 1..=PUBLISHES {
                    current.set(Generation::build(id, Vec::new()).unwrap());
                }
            });
        });
        assert_eq!(current.publish_count(), PUBLISHES);
    }
}
