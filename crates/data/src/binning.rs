//! Binning continuous attributes into interval labels (§3).
//!
//! "Labeling edges with the exact values would lead to few frequent
//! patterns being detected ... Instead, we use a binning strategy." The
//! paper used 7 bins for gross weight and 10 for transit hours; distance
//! is binned analogously.

/// A binning of a continuous attribute into contiguous intervals.
///
/// Bin `i` covers `[edges[i], edges[i+1])`, except the last bin which is
/// closed above. Values below the first edge clamp to bin 0; values at or
/// above the last edge clamp to the last bin. Bin indices double as edge
/// labels in the OD graphs.
#[derive(Clone, Debug, PartialEq)]
pub struct Binner {
    /// `bins + 1` ascending boundaries.
    edges: Vec<f64>,
}

impl Binner {
    /// Equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo` or bounds are non-finite.
    pub fn equal_width(lo: f64, hi: f64, bins: usize) -> Binner {
        assert!(bins > 0, "need at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && hi > lo, "bad range");
        let w = (hi - lo) / bins as f64;
        let edges = (0..=bins).map(|i| lo + w * i as f64).collect();
        Binner { edges }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.edges.len() - 1
    }

    /// Bin index for `v` (clamped at both ends).
    pub fn bin(&self, v: f64) -> u32 {
        if v < self.edges[0] {
            return 0;
        }
        // partition_point: first boundary > v; bin = that index - 1.
        let idx = self.edges.partition_point(|&e| e <= v);
        (idx.saturating_sub(1)).min(self.bins() - 1) as u32
    }

    /// The `[lo, hi)` interval of bin `i`.
    pub fn interval(&self, i: u32) -> (f64, f64) {
        let i = i as usize;
        assert!(i < self.bins(), "bin out of range");
        (self.edges[i], self.edges[i + 1])
    }

    /// Human-readable interval label, e.g. `"[0, 6500)"`.
    pub fn interval_label(&self, i: u32) -> String {
        let (lo, hi) = self.interval(i);
        let closing = if (i as usize) == self.bins() - 1 {
            ']'
        } else {
            ')'
        };
        format!("[{lo:.0}, {hi:.0}{closing}")
    }
}

/// Why a [`BinScheme`] could not be fitted to a dataset. Degenerate
/// inputs used to produce zero-width bins silently; now every fitting
/// failure is typed and names the offending attribute.
#[derive(Clone, Debug, PartialEq)]
pub enum BinFitError {
    /// No transactions to fit against.
    Empty,
    /// An attribute contains a NaN or infinite value.
    NonFinite { attribute: &'static str },
    /// An attribute is constant — an equal-width split of a zero-width
    /// range is meaningless.
    Degenerate { attribute: &'static str, value: f64 },
}

impl std::fmt::Display for BinFitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinFitError::Empty => write!(f, "cannot fit bins to an empty transaction set"),
            BinFitError::NonFinite { attribute } => {
                write!(f, "cannot fit bins: non-finite {attribute} value")
            }
            BinFitError::Degenerate { attribute, value } => write!(
                f,
                "cannot fit bins: every {attribute} equals {value} (zero-width range)"
            ),
        }
    }
}

impl std::error::Error for BinFitError {}

/// The paper's edge-label binning scheme: 7 gross-weight bins, 10
/// transit-hour bins, and (by analogy) 8 distance bins.
#[derive(Clone, Debug)]
pub struct BinScheme {
    pub weight: Binner,
    pub hours: Binner,
    pub distance: Binner,
}

impl BinScheme {
    /// The configuration reported in the paper: "seven for gross weight
    /// and ten for transit hours", equal-width over the observed ranges.
    pub fn paper_defaults() -> BinScheme {
        BinScheme {
            // "the range for weight is about 500 tons" = ~1,000,000 lb.
            weight: Binner::equal_width(0.0, 1_000_000.0, 7),
            hours: Binner::equal_width(0.0, 200.0, 10),
            distance: Binner::equal_width(0.0, 3_200.0, 8),
        }
    }

    /// Fits the paper's bin counts (7 weight / 10 hours / 8 distance) to
    /// a transaction set with **equal-width** boundaries over the
    /// observed ranges — the paper's §3 scheme. Freight attributes are
    /// heavily skewed (most loads sit far below the ~500-ton maximum),
    /// so one or two bins dominate; this low effective label diversity
    /// is integral to the paper's results: it is why hub patterns with
    /// many same-label spokes are frequent, and why FSG's candidate sets
    /// stay in the hundreds instead of exploding combinatorially.
    ///
    /// # Errors
    /// [`BinFitError`] on an empty transaction set, a non-finite
    /// attribute value, or an all-equal attribute (zero-width range).
    pub fn fit_width_transactions(
        txns: &[crate::model::Transaction],
    ) -> Result<BinScheme, BinFitError> {
        if txns.is_empty() {
            return Err(BinFitError::Empty);
        }
        let range = |f: fn(&crate::model::Transaction) -> f64,
                     attribute: &'static str|
         -> Result<(f64, f64), BinFitError> {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for t in txns {
                let v = f(t);
                if !v.is_finite() {
                    return Err(BinFitError::NonFinite { attribute });
                }
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi <= lo {
                return Err(BinFitError::Degenerate {
                    attribute,
                    value: lo,
                });
            }
            Ok((lo, hi))
        };
        let (wlo, whi) = range(|t| t.gross_weight, "gross weight")?;
        let (hlo, hhi) = range(|t| t.transit_hours, "transit hours")?;
        let (dlo, dhi) = range(|t| t.total_distance, "distance")?;
        Ok(BinScheme {
            weight: Binner::equal_width(wlo, whi, 7),
            hours: Binner::equal_width(hlo, hhi, 10),
            distance: Binner::equal_width(dlo, dhi, 8),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_width_basics() {
        let b = Binner::equal_width(0.0, 100.0, 4);
        assert_eq!(b.bins(), 4);
        assert_eq!(b.bin(0.0), 0);
        assert_eq!(b.bin(24.9), 0);
        assert_eq!(b.bin(25.0), 1);
        assert_eq!(b.bin(99.9), 3);
        assert_eq!(b.bin(100.0), 3); // top edge clamps into last bin
        assert_eq!(b.bin(-5.0), 0); // below clamps
        assert_eq!(b.bin(1e9), 3); // above clamps
        assert_eq!(b.interval(1), (25.0, 50.0));
    }

    #[test]
    fn binning_is_monotone() {
        let b = Binner::equal_width(0.0, 500.0, 7);
        let mut prev = 0;
        for i in 0..=1000 {
            let v = i as f64 * 0.5;
            let bin = b.bin(v);
            assert!(bin >= prev, "monotonicity violated at {v}");
            prev = bin;
        }
    }

    #[test]
    fn similar_values_share_bin() {
        // The paper's example: 49 tons and 52 tons should land together
        // when the full range is ~500 tons across 7 bins (bin width ~71).
        let b = Binner::equal_width(0.0, 500.0, 7);
        assert_eq!(b.bin(49.0), b.bin(52.0));
    }

    #[test]
    fn boundaries_and_interval_labels() {
        // Equal-width bins over [0, 19500] put the boundaries at exact
        // multiples of 6500.
        let b = Binner::equal_width(0.0, 19_500.0, 3);
        assert_eq!(b.bins(), 3);
        assert_eq!(b.bin(6_499.0), 0);
        assert_eq!(b.bin(6_500.0), 1);
        assert_eq!(b.interval_label(0), "[0, 6500)");
        assert_eq!(b.interval_label(2), "[13000, 19500]");
    }

    #[test]
    fn paper_defaults_shape() {
        let s = BinScheme::paper_defaults();
        assert_eq!(s.weight.bins(), 7);
        assert_eq!(s.hours.bins(), 10);
        assert_eq!(s.distance.bins(), 8);
    }

    #[test]
    fn fit_width_rejects_bad_inputs() {
        use crate::model::{Date, LatLon, TransMode, Transaction};
        let mk = |weight: f64, hours: f64, dist: f64| Transaction {
            id: 0,
            req_pickup: Date(0),
            req_delivery: Date(1),
            origin: LatLon::new(44.5, -88.0),
            dest: LatLon::new(41.9, -87.6),
            total_distance: dist,
            gross_weight: weight,
            transit_hours: hours,
            mode: TransMode::Truckload,
        };
        assert!(matches!(
            BinScheme::fit_width_transactions(&[]).unwrap_err(),
            BinFitError::Empty
        ));
        let nan = BinScheme::fit_width_transactions(&[mk(f64::NAN, 1.0, 2.0), mk(2.0, 3.0, 4.0)]);
        assert!(matches!(
            nan.unwrap_err(),
            BinFitError::NonFinite {
                attribute: "gross weight"
            }
        ));
        let flat = BinScheme::fit_width_transactions(&[mk(5.0, 1.0, 2.0), mk(5.0, 3.0, 4.0)]);
        assert!(matches!(
            flat.unwrap_err(),
            BinFitError::Degenerate {
                attribute: "gross weight",
                ..
            }
        ));
        let ok = BinScheme::fit_width_transactions(&[mk(1.0, 1.0, 2.0), mk(9.0, 3.0, 4.0)]);
        assert_eq!(ok.unwrap().weight.bins(), 7);
    }
}
