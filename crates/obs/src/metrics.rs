//! A single named-counter namespace for the whole pipeline.
//!
//! Every layer used to expose its own counter struct — `tnet-exec`'s
//! `PoolCounters`, the miners' `MiningStats`/`GspanStats`/`SubdueStats` —
//! each with its own field names and printing. The registry absorbs all
//! of them under dotted names (`exec.tasks`, `fsg.iso_tests`,
//! `subdue.patterns_derived`, …) so one snapshot answers "what did this
//! run spend" regardless of which miners ran.
//!
//! Naming scheme: `<component>.<counter>`, lowercase snake case, where
//! `<component>` is the crate-level subsystem (`exec`, `fsg`,
//! `subdue`). Components fold their counters in at the end of a run
//! (e.g. `MiningStats::record_into`), so the hot paths keep their plain
//! `usize` arithmetic and the registry's mutex is off every inner loop.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Shared named-counter registry. Cheap to clone; all clones observe the
/// same counters.
///
/// Poisoning: the report supervisor runs sections under `catch_unwind`,
/// so a section that panics while folding counters (e.g. via a panic
/// failpoint) poisons this mutex but leaves the map itself consistent —
/// every mutation is a single `BTreeMap` call with no invariant spanning
/// the unlock. All lock sites therefore recover the guard from a
/// poisoned mutex instead of propagating the panic into every later
/// section's counter flush.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, u64>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Locks the counter map, recovering from poisoning (see type docs).
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, u64>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `delta` to the counter `name` (registering it at zero first).
    pub fn add(&self, name: &str, delta: u64) {
        let mut m = self.lock();
        match m.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                m.insert(name.to_string(), delta);
            }
        }
    }

    /// Records a high-water mark: keeps the max of the stored value and
    /// `value`. For peaks (`fsg.peak_candidate_bytes`, `fsg.soa_bytes`)
    /// where summing runs would be meaningless.
    pub fn record_max(&self, name: &str, value: u64) {
        let mut m = self.lock();
        match m.get_mut(name) {
            Some(v) => *v = (*v).max(value),
            None => {
                m.insert(name.to_string(), value);
            }
        }
    }

    /// Current value of one counter (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.lock().get(name).copied().unwrap_or(0)
    }

    /// Copies out all counters, sorted by name (BTreeMap order) — the
    /// deterministic export surface for JSON and text reports.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.lock().clone()
    }

    /// Renders `name  value` lines, aligned, sorted by name.
    pub fn render(&self) -> String {
        let snap = self.snapshot();
        let width = snap.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &snap {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_and_get_defaults_to_zero() {
        let m = MetricsRegistry::new();
        assert_eq!(m.get("fsg.iso_tests"), 0);
        m.add("fsg.iso_tests", 3);
        m.add("fsg.iso_tests", 4);
        assert_eq!(m.get("fsg.iso_tests"), 7);
    }

    #[test]
    fn record_max_keeps_high_water_mark() {
        let m = MetricsRegistry::new();
        m.record_max("fsg.peak_candidate_bytes", 10);
        m.record_max("fsg.peak_candidate_bytes", 5);
        m.record_max("fsg.peak_candidate_bytes", 12);
        assert_eq!(m.get("fsg.peak_candidate_bytes"), 12);
    }

    #[test]
    fn clones_share_state_and_snapshot_is_sorted() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m2.add("b.z", 1);
        m.add("a.y", 2);
        let snap = m.snapshot();
        let names: Vec<&str> = snap.keys().map(|s| s.as_str()).collect();
        assert_eq!(names, ["a.y", "b.z"]);
    }

    #[test]
    fn add_saturates_instead_of_wrapping() {
        let m = MetricsRegistry::new();
        m.add("x", u64::MAX - 1);
        m.add("x", 5);
        assert_eq!(m.get("x"), u64::MAX);
    }

    /// Regression: a supervised section that panics while holding the
    /// metrics mutex (the `catch_unwind` report path) used to poison it
    /// and crash every later section's counter flush with
    /// `PoisonError`. All operations must keep working afterwards.
    #[test]
    fn survives_mutex_poisoned_by_panicking_holder() {
        let m = MetricsRegistry::new();
        m.add("exec.tasks", 1);
        let m2 = m.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = m2.inner.lock().unwrap();
            panic!("section panic while holding the metrics lock");
        })
        .join();
        assert!(panicked.is_err(), "holder thread must have panicked");
        assert!(m.inner.is_poisoned());
        // Every later "section" still flushes and reads counters.
        m.add("exec.tasks", 2);
        m.record_max("fsg.peak_candidate_bytes", 7);
        assert_eq!(m.get("exec.tasks"), 3);
        assert_eq!(m.snapshot().get("fsg.peak_candidate_bytes"), Some(&7));
        assert!(m.render().contains("exec.tasks"));
    }

    #[test]
    fn render_lists_one_line_per_counter() {
        let m = MetricsRegistry::new();
        m.add("exec.tasks", 4);
        m.add("fsg.iso_tests", 9);
        let text = m.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("exec.tasks"));
        assert!(text.contains("  9"));
    }
}
