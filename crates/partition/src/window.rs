//! Multi-granularity temporal windows (ROADMAP item 3).
//!
//! Generalizes the §6 "one graph transaction per day" partitioning to
//! hour/day/week **units** and tumbling/sliding **windows** over those
//! units, after Kosyfaki et al.'s multi-granularity spatio-temporal flow
//! patterns. A window is a contiguous run of units; because every unit's
//! FSG-ready transactions are materialized once in unit order, a window
//! is just a contiguous transaction range — which is what lets every
//! window mine a slice of one frozen CSR.

use crate::temporal::{refine_graphs, validate_dates, TemporalError, TemporalOptions};
use std::collections::HashMap;
use tnet_data::binning::BinScheme;
use tnet_data::model::{LatLon, Transaction};
use tnet_graph::graph::{ELabel, Graph, VLabel, VertexId};

/// Temporal resolution of one unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// In-transit hours: a shipment is active from the start of its
    /// pickup day for `ceil(transit_hours)` hours (at least one), capped
    /// at the end of its delivery day.
    Hour,
    /// The §6 semantics: active on every day `pickup <= d <= delivery`.
    Day,
    /// Calendar weeks of the day axis (`day / 7`).
    Week,
}

impl Granularity {
    /// Display name (also the `--granularity` CLI spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Granularity::Hour => "hour",
            Granularity::Day => "day",
            Granularity::Week => "week",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<Granularity> {
        match s {
            "hour" => Some(Granularity::Hour),
            "day" => Some(Granularity::Day),
            "week" => Some(Granularity::Week),
            _ => None,
        }
    }

    /// Inclusive active unit range of one (validated) transaction.
    pub fn active_units(&self, t: &Transaction) -> (u64, u64) {
        let (p, d) = (t.req_pickup.day() as u64, t.req_delivery.day() as u64);
        match self {
            Granularity::Day => (p, d),
            Granularity::Week => (p / 7, d / 7),
            Granularity::Hour => {
                let start = p * 24;
                let transit = (t.transit_hours.ceil().max(1.0)) as u64;
                (start, (start + transit - 1).min(d * 24 + 23))
            }
        }
    }
}

/// A tumbling or sliding window specification, in units of the chosen
/// granularity. `slide == width` tumbles; `slide < width` overlaps.
#[derive(Clone, Copy, Debug)]
pub struct WindowSpec {
    pub granularity: Granularity,
    /// Window width in units (>= 1).
    pub width: usize,
    /// Distance between consecutive window starts in units (>= 1).
    pub slide: usize,
}

impl WindowSpec {
    /// Builds a spec, rejecting degenerate widths/slides.
    pub fn new(
        granularity: Granularity,
        width: usize,
        slide: usize,
    ) -> Result<WindowSpec, TemporalError> {
        if width == 0 || slide == 0 {
            return Err(TemporalError::BadWindow { width, slide });
        }
        Ok(WindowSpec {
            granularity,
            width,
            slide,
        })
    }

    /// Tumbling spec (`slide == width`).
    pub fn tumbling(granularity: Granularity, width: usize) -> Result<WindowSpec, TemporalError> {
        WindowSpec::new(granularity, width, width)
    }

    /// The `[lo, hi)` unit ranges covering `units` units. The final
    /// window may be partial; every unit is covered by at least one
    /// window.
    pub fn windows(&self, units: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut lo = 0usize;
        while lo < units {
            out.push((lo, (lo + self.width).min(units)));
            lo += self.slide;
        }
        if units > 0 && out.is_empty() {
            out.push((0, units));
        }
        out
    }
}

/// All units' FSG-ready graph transactions, materialized once in unit
/// order. `unit_off[u]..unit_off[u + 1]` indexes unit `u`'s transactions
/// inside `graphs`; empty units hold an empty range, so windows stay
/// aligned with the time axis.
pub struct UnitPartition {
    pub granularity: Granularity,
    /// FSG-ready transactions, concatenated in unit order.
    pub graphs: Vec<Graph>,
    /// Unit boundaries into `graphs` (`len = units + 1`).
    pub unit_off: Vec<usize>,
    /// Absolute unit index of unit 0 (e.g. days since the epoch for
    /// `Granularity::Day`).
    pub first_unit: u64,
}

impl UnitPartition {
    /// Number of units (including empty ones).
    pub fn units(&self) -> usize {
        self.unit_off.len().saturating_sub(1)
    }

    /// The transaction (graph) index range backing units `[lo, hi)`.
    pub fn txn_range(&self, lo: usize, hi: usize) -> (usize, usize) {
        (self.unit_off[lo], self.unit_off[hi])
    }

    /// The transactions of units `[lo, hi)`.
    pub fn window_graphs(&self, lo: usize, hi: usize) -> &[Graph] {
        &self.graphs[self.unit_off[lo]..self.unit_off[hi]]
    }
}

/// Buckets transactions into per-unit graphs at `granularity` and runs
/// the §6 refinement pipeline (component split → dedup → min-edge
/// filter) on every unit. Location labels are assigned globally, so the
/// same lane keeps one label across all units — exactly like
/// [`crate::temporal::daily_graphs`], which this generalizes (at
/// `Granularity::Day` the flattened output equals
/// [`crate::temporal::temporal_partition`]'s).
///
/// # Errors
/// As [`crate::temporal::daily_graphs`], plus the hour axis counts
/// toward the same [`crate::temporal::MAX_SPAN_DAYS`] day cap.
pub fn unit_partition(
    txns: &[Transaction],
    scheme: &BinScheme,
    granularity: Granularity,
    opts: &TemporalOptions,
) -> Result<UnitPartition, TemporalError> {
    validate_dates(txns)?;
    if txns.is_empty() {
        return Ok(UnitPartition {
            granularity,
            graphs: Vec::new(),
            unit_off: vec![0],
            first_unit: 0,
        });
    }
    let ranges: Vec<(u64, u64)> = txns.iter().map(|t| granularity.active_units(t)).collect();
    let first_unit = ranges.iter().map(|r| r.0).min().unwrap();
    let last_unit = ranges.iter().map(|r| r.1).max().unwrap();
    let span = (last_unit - first_unit + 1) as usize;
    let mut by_unit: Vec<Vec<&Transaction>> = vec![Vec::new(); span];
    for (t, &(a, b)) in txns.iter().zip(&ranges) {
        for u in a..=b {
            by_unit[(u - first_unit) as usize].push(t);
        }
    }
    // Global location -> label closure, mirroring `daily_graphs`.
    let mut loc_label: HashMap<LatLon, u32> = HashMap::new();
    let mut next = 0u32;
    let mut label_of = |loc: LatLon| -> u32 {
        *loc_label.entry(loc).or_insert_with(|| {
            let l = next;
            next += 1;
            l
        })
    };
    let mut graphs = Vec::new();
    let mut unit_off = Vec::with_capacity(span + 1);
    unit_off.push(0);
    for unit_txns in &by_unit {
        let mut g = Graph::new();
        let mut vertex_of: HashMap<LatLon, VertexId> = HashMap::new();
        for t in unit_txns {
            for loc in [t.origin, t.dest] {
                vertex_of
                    .entry(loc)
                    .or_insert_with(|| g.add_vertex(VLabel(label_of(loc))));
            }
            g.add_edge(
                vertex_of[&t.origin],
                vertex_of[&t.dest],
                ELabel(scheme.weight.bin(t.gross_weight)),
            );
        }
        let unit_graphs = if g.edge_count() > 0 {
            refine_graphs(vec![g], opts)
        } else {
            Vec::new()
        };
        graphs.extend(unit_graphs);
        unit_off.push(graphs.len());
    }
    Ok(UnitPartition {
        granularity,
        graphs,
        unit_off,
        first_unit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_data::model::{Date, TransMode};

    fn txn(id: u64, o: (f64, f64), d: (f64, f64), pickup: u32, delivery: u32) -> Transaction {
        Transaction {
            id,
            req_pickup: Date(pickup),
            req_delivery: Date(delivery),
            origin: LatLon::new(o.0, o.1),
            dest: LatLon::new(d.0, d.1),
            total_distance: 150.0,
            gross_weight: 30_000.0,
            transit_hours: 12.0,
            mode: TransMode::Truckload,
        }
    }

    const A: (f64, f64) = (44.5, -88.0);
    const B: (f64, f64) = (41.9, -87.6);
    const C: (f64, f64) = (39.1, -84.5);

    #[test]
    fn window_ranges_tumble_and_slide() {
        let spec = WindowSpec::tumbling(Granularity::Day, 3).unwrap();
        assert_eq!(spec.windows(7), vec![(0, 3), (3, 6), (6, 7)]);
        let spec = WindowSpec::new(Granularity::Day, 3, 1).unwrap();
        assert_eq!(
            spec.windows(5),
            vec![(0, 3), (1, 4), (2, 5), (3, 5), (4, 5)]
        );
        assert!(WindowSpec::new(Granularity::Day, 0, 1).is_err());
        assert!(WindowSpec::new(Granularity::Day, 1, 0).is_err());
        assert!(spec.windows(0).is_empty());
    }

    #[test]
    fn day_units_match_daily_partition() {
        let txns = vec![
            txn(1, A, B, 0, 1),
            txn(2, B, C, 0, 0),
            txn(3, A, C, 2, 3),
            txn(4, C, B, 3, 3),
        ];
        let scheme = BinScheme::paper_defaults();
        let opts = TemporalOptions::default();
        let up = unit_partition(&txns, &scheme, Granularity::Day, &opts).unwrap();
        let daily = crate::temporal::temporal_partition(&txns, &scheme, &opts).unwrap();
        assert_eq!(up.units(), 4);
        assert_eq!(up.graphs.len(), daily.len());
        for (a, b) in up.graphs.iter().zip(&daily) {
            assert!(tnet_graph::iso::are_isomorphic(a, b));
        }
    }

    #[test]
    fn week_units_bucket_by_seven_days() {
        let txns = vec![txn(1, A, B, 0, 2), txn(2, B, C, 1, 1), txn(3, A, C, 8, 9)];
        let up = unit_partition(
            &txns,
            &BinScheme::paper_defaults(),
            Granularity::Week,
            &TemporalOptions::default(),
        )
        .unwrap();
        // Days 0-2 land in week 0, days 8-9 in week 1.
        assert_eq!(up.units(), 2);
        assert_eq!(up.first_unit, 0);
    }

    #[test]
    fn hour_units_follow_transit_and_cap() {
        let mut t = txn(1, A, B, 0, 0);
        t.transit_hours = 30.0; // capped at end of delivery day (hour 23)
        let (a, b) = Granularity::Hour.active_units(&t);
        assert_eq!((a, b), (0, 23));
        let mut t = txn(2, A, B, 1, 2);
        t.transit_hours = 5.4;
        let (a, b) = Granularity::Hour.active_units(&t);
        assert_eq!((a, b), (24, 29));
    }

    #[test]
    fn empty_units_keep_axis_alignment() {
        let txns = vec![txn(1, A, B, 0, 0), txn(2, B, C, 0, 0), txn(3, A, C, 3, 3)];
        let up = unit_partition(
            &txns,
            &BinScheme::paper_defaults(),
            Granularity::Day,
            &TemporalOptions::default(),
        )
        .unwrap();
        assert_eq!(up.units(), 4);
        let (lo, hi) = up.txn_range(1, 3);
        assert_eq!(lo, hi, "days 1-2 are empty");
    }

    #[test]
    fn inverted_dates_rejected_at_ingest() {
        let txns = vec![txn(1, A, B, 5, 1)];
        assert!(unit_partition(
            &txns,
            &BinScheme::paper_defaults(),
            Granularity::Hour,
            &TemporalOptions::default(),
        )
        .is_err());
    }
}
