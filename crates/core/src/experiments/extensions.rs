//! Extension experiments (E17–E19): the paper's §9 research-challenge
//! list, built and measured.
//!
//! | id  | §9 challenge | runner |
//! |-----|--------------|--------|
//! | E17 | "periodicity in routes" | [`run_periodic`] |
//! | E18 | "frequently repeated connection paths ... separated by a minimum or maximum time" | [`run_paths`] |
//! | E19 | "events ... analysis of the fallout" | [`run_events`] |

use std::fmt;
use tnet_data::binning::BinScheme;
use tnet_data::model::{Date, LatLon, Transaction};
use tnet_dynamic::events::{inject_event, pattern_fallout, Event, EventKind, FalloutReport};
use tnet_dynamic::paths::{frequent_paths, PathConfig, PathPattern};
use tnet_dynamic::periodic::{periodic_lanes, PeriodicConfig, PeriodicLane};

// ---------------------------------------------------------------------------
// E17 — periodic lanes
// ---------------------------------------------------------------------------

/// E17 output.
pub struct PeriodicResult {
    pub lanes: Vec<PeriodicLane>,
    /// Lanes with a ~weekly period (the generator plants weekly
    /// schedules on hub/chain lanes).
    pub weekly_lanes: usize,
}

/// Runs E17: periodic-lane detection over the full transaction set.
pub fn run_periodic(txns: &[Transaction]) -> PeriodicResult {
    let lanes = periodic_lanes(txns, &PeriodicConfig::default());
    let weekly_lanes = lanes
        .iter()
        .filter(|l| (6..=8).contains(&l.period_days))
        .count();
    PeriodicResult {
        lanes,
        weekly_lanes,
    }
}

impl fmt::Display for PeriodicResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== E17: periodic lanes (Sec 9 challenge) ===")?;
        writeln!(
            f,
            "periodic lanes: {} total, {} weekly",
            self.lanes.len(),
            self.weekly_lanes
        )?;
        for l in self.lanes.iter().take(5) {
            writeln!(
                f,
                "  {} -> {}  every {} days  ({} shipments, regularity {:.0}%)",
                tnet_data::geo::describe(l.origin),
                tnet_data::geo::describe(l.dest),
                l.period_days,
                l.occurrences,
                l.regularity * 100.0
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// E18 — time-respecting repeated routes
// ---------------------------------------------------------------------------

/// E18 output.
pub struct PathsResult {
    pub patterns: Vec<PathPattern>,
    pub multi_leg: usize,
    pub cycles: usize,
    pub truncated: bool,
}

/// Runs E18: frequent time-respecting connection paths over the dataset.
pub fn run_paths(txns: &[Transaction], cfg: &PathConfig) -> PathsResult {
    let out = frequent_paths(txns, cfg);
    let multi_leg = out.patterns.iter().filter(|p| p.legs() >= 2).count();
    let cycles = out.patterns.iter().filter(|p| p.is_cycle).count();
    PathsResult {
        patterns: out.patterns,
        multi_leg,
        cycles,
        truncated: out.truncated,
    }
}

impl fmt::Display for PathsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== E18: time-respecting repeated routes (Sec 9) ===")?;
        writeln!(
            f,
            "frequent route patterns: {} ({} multi-leg, {} cycles{})",
            self.patterns.len(),
            self.multi_leg,
            self.cycles,
            if self.truncated { ", truncated" } else { "" }
        )?;
        for p in self.patterns.iter().filter(|p| p.legs() >= 2).take(5) {
            let stops: Vec<String> = p
                .locations
                .iter()
                .map(|l| tnet_data::geo::describe(*l))
                .collect();
            writeln!(
                f,
                "  {}  x{} starts{}",
                stops.join(" -> "),
                p.support(),
                if p.is_cycle { " (cycle)" } else { "" }
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// E19 — event fallout
// ---------------------------------------------------------------------------

/// E19 output.
pub struct EventsResult {
    pub event: Event,
    pub affected: usize,
    pub fallout: FalloutReport,
}

/// Runs E19: a Great Lakes blizzard mid-window, then before/after
/// pattern-shift analysis.
pub fn run_events(txns: &[Transaction]) -> EventsResult {
    let event = Event {
        kind: EventKind::WeatherDelay { slow_factor: 1.9 },
        center: LatLon::new(43.5, -87.5),
        radius_miles: 320.0,
        from: Date(80),
        to: Date(95),
    };
    let (after, affected) = inject_event(txns, &event);
    let fallout = pattern_fallout(txns, &after, &BinScheme::paper_defaults());
    EventsResult {
        event,
        affected,
        fallout,
    }
}

impl fmt::Display for EventsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== E19: event fallout (Sec 9) ===")?;
        writeln!(
            f,
            "blizzard at {} (radius {:.0} mi, days {}..{}): {} shipments slowed, +{:.1}h mean",
            self.event.center,
            self.event.radius_miles,
            self.event.from.day(),
            self.event.to.day(),
            self.affected,
            self.fallout.mean_added_hours
        )?;
        writeln!(
            f,
            "transit-hour bins shifted: {} emergent, {} suppressed",
            self.fallout.emergent().count(),
            self.fallout.suppressed().count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_data::synth::{generate, SynthConfig};

    fn data(scale: f64) -> Vec<Transaction> {
        generate(&SynthConfig::scaled(scale)).transactions
    }

    #[test]
    fn periodic_lanes_recovered() {
        let res = run_periodic(&data(0.04));
        assert!(
            res.weekly_lanes >= 3,
            "planted weekly lanes should surface, got {}",
            res.weekly_lanes
        );
        // Detected lanes are sorted by regularity.
        for w in res.lanes.windows(2) {
            assert!(w[0].regularity >= w[1].regularity);
        }
    }

    #[test]
    fn repeated_routes_found() {
        let res = run_paths(
            &data(0.04),
            &PathConfig {
                min_sep: 0,
                max_sep: 4,
                max_len: 2,
                min_occurrences: 3,
                max_instances: 500_000,
            },
        );
        assert!(
            res.multi_leg > 0,
            "expected repeated 2-leg routes in a network with planted chains"
        );
    }

    #[test]
    fn event_fallout_measured() {
        let res = run_events(&data(0.04));
        assert!(
            res.affected > 0,
            "blizzard over the corridor must hit lanes"
        );
        assert!(res.fallout.mean_added_hours > 0.0);
        assert!(
            res.fallout.emergent().count() > 0,
            "slowdowns shift bins up"
        );
    }
}
