//! The measurement frame shared by the workloads: repeated set-up,
//! repeats until the run's time is spent, output checks and failure
//! accounting, and the end-to-end figures a batch job yields.

use crate::spec::WorkloadSpec;
use crate::trace::{SpanId, Trace};
use crate::util::{median, quantile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// At least this many measured repeats per run, so every run compares a
/// repeat's digest against the first.
pub const MIN_REPS: usize = 2;
/// Set-up is sampled in windows spread across the run: one before the
/// first repeat and one after every repeat (`serve_mixed`: before and
/// after the traffic). The first window takes at least [`MIN_SETUPS`]
/// samples, each later one [`SETUPS_BETWEEN_REPS`], and every window at
/// least [`SETUP_WINDOW_SECS`]; at most [`MAX_SETUPS`] per window. The
/// median over all windows is reported. One set-up of a small input
/// lasts milliseconds, and a shared host changes speed for stretches of
/// seconds: windows at several points of the run keep one stretch from
/// setting the figure.
pub const MIN_SETUPS: usize = 5;
pub const SETUPS_BETWEEN_REPS: usize = 3;
pub const SETUP_WINDOW_SECS: f64 = 0.5;
pub const MAX_SETUPS: usize = 200;

pub struct Ctx {
    pub spec: &'static WorkloadSpec,
    pub seconds: f64,
    /// `--trace 1`: alternate untraced and traced repeats and report the
    /// per-layer metrics of the traced ones.
    pub traced: bool,
    pub scale: f64,
    pub csv: PathBuf,
    /// Scratch space inside the checkout (the daemon's data directory).
    pub work_dir: PathBuf,
}

/// Operations attempted and failed; every check that does not hold
/// counts as one failed operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    first_digest: Option<u64>,
}

impl Checks {
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(e);
            }
        }
    }

    /// One repeat's outcome: its digest must equal the first repeat's.
    pub fn repeat(&mut self, result: Result<u64, String>) {
        let checked = result.and_then(|d| match self.first_digest {
            None => {
                self.first_digest = Some(d);
                Ok(())
            }
            Some(first) if first == d => Ok(()),
            Some(first) => Err(format!(
                "result digest {d:016x} differs from the first repeat's {first:016x}"
            )),
        });
        self.op(checked);
    }
}

/// What a workload hands back to the frame.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<String, f64>,
    /// Workload-specific provenance for the record line.
    pub record: Vec<(String, String)>,
}

/// The first set-up window: runs `f` until at least [`MIN_SETUPS`] runs
/// and [`SETUP_WINDOW_SECS`] have passed; returns each run's seconds and
/// the last run's product.
pub fn repeat_setup<T>(
    tr: &Trace,
    mut f: impl FnMut(&Trace, Option<SpanId>) -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let begun = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let product = tr.span("setup", None, |p| f(tr, p))?;
        secs.push(t.elapsed().as_secs_f64());
        let enough = secs.len() >= MIN_SETUPS && begun.elapsed().as_secs_f64() >= SETUP_WINDOW_SECS;
        if enough || secs.len() >= MAX_SETUPS {
            return Ok((secs, product));
        }
    }
}

/// A later set-up window: at least [`SETUPS_BETWEEN_REPS`] more samples
/// and [`SETUP_WINDOW_SECS`], untraced, discarding their products.
pub fn more_setups<T>(
    secs: &mut Vec<f64>,
    mut f: impl FnMut(&Trace, Option<SpanId>) -> Result<T, String>,
) {
    let off = Trace::new(false);
    let begun = Instant::now();
    for i in 0..MAX_SETUPS {
        let t = Instant::now();
        if f(&off, None).is_err() {
            return;
        }
        secs.push(t.elapsed().as_secs_f64());
        if i + 1 >= SETUPS_BETWEEN_REPS && begun.elapsed().as_secs_f64() >= SETUP_WINDOW_SECS {
            return;
        }
    }
}

/// Measured repeats of a batch job.
pub struct Reps {
    /// Wall seconds of each untraced repeat.
    pub walls: Vec<f64>,
    /// `(wall seconds, "rep" span)` of each traced repeat.
    pub traced: Vec<(f64, SpanId)>,
}

/// Runs the job until `ctx.seconds` have passed and at least
/// [`MIN_REPS`] repeats are done; with tracing on, untraced and traced
/// repeats alternate and each kind gets [`MIN_REPS`]. Each repeat
/// returns its result digest, checked against the first. The checks the
/// job makes after its result exists run inside the timed repeat: the
/// wall time is "loaded input to complete, checked result". `after_each`
/// runs after every repeat, outside its timing.
pub fn repeat_job(
    ctx: &Ctx,
    tr: &Trace,
    checks: &mut Checks,
    mut job: impl FnMut(&Trace, Option<SpanId>) -> Result<u64, String>,
    mut after_each: impl FnMut(),
) -> Reps {
    let off = Trace::new(false);
    let begun = Instant::now();
    let mut reps = Reps {
        walls: Vec::new(),
        traced: Vec::new(),
    };
    loop {
        let traced = ctx.traced && reps.walls.len() > reps.traced.len();
        let t = Instant::now();
        let (result, span) = if traced {
            let id = tr.begin("rep", None);
            let r = job(tr, id);
            tr.end(id);
            (r, id)
        } else {
            (job(&off, None), None)
        };
        let wall = t.elapsed().as_secs_f64();
        checks.repeat(result);
        match span {
            Some(id) => reps.traced.push((wall, id)),
            None => reps.walls.push(wall),
        }
        after_each();
        let done = begun.elapsed().as_secs_f64() >= ctx.seconds
            && reps.walls.len() >= MIN_REPS
            && (!ctx.traced || reps.traced.len() >= MIN_REPS);
        if done {
            return reps;
        }
    }
}

/// The end-to-end figures of a batch job. A batch job is one request:
/// its result is visible once set-up and the job are done, and its
/// latency is the job's wall time.
pub fn batch_e2e(setups: &[f64], walls: &[f64]) -> BTreeMap<&'static str, f64> {
    let setup = median(setups);
    let wall = median(walls);
    let mut m = BTreeMap::new();
    m.insert("setup_s", setup);
    m.insert("wall_s", wall);
    m.insert("read_p50_ms", wall * 1e3);
    m.insert("read_p99_ms", quantile(walls, 0.99) * 1e3);
    m.insert("read_qps", walls.len() as f64 / walls.iter().sum::<f64>());
    m.insert("visible_p50_ms", (setup + wall) * 1e3);
    m
}

/// Per-layer figures of the traced repeats: the median over repeats of
/// each figure `per_rep` derives from one repeat's span.
pub fn layer_medians(
    reps: &Reps,
    mut per_rep: impl FnMut(SpanId) -> Vec<(String, f64)>,
) -> BTreeMap<String, f64> {
    let mut all: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for &(_, id) in &reps.traced {
        for (name, v) in per_rep(id) {
            all.entry(name).or_default().push(v);
        }
    }
    all.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Share of a repeat's wall time that its layer spans (every child
/// except the benchmark's own `bench.*` work) cover, in percent, and the
/// uncovered remainder by name.
pub fn coverage(tr: &Trace, rep: SpanId) -> (f64, Vec<(String, f64)>) {
    let total = tr.duration_ms(rep);
    if total == 0.0 {
        return (0.0, Vec::new());
    }
    let children = tr.children(rep);
    let mut layers = 0.0;
    let mut rest: BTreeMap<String, f64> = BTreeMap::new();
    for (_, s) in &children {
        let ms = s.dur_ns as f64 / 1e6;
        if s.name.starts_with("bench.") {
            *rest.entry(s.name.clone()).or_default() += ms;
        } else {
            layers += ms;
        }
    }
    let named: f64 = rest.values().sum();
    let unspanned = (total - layers - named).max(0.0);
    rest.insert("unspanned".into(), unspanned);
    let uncovered = rest
        .into_iter()
        .map(|(k, v)| (k, 100.0 * v / total))
        .collect();
    (100.0 * layers / total, uncovered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_digest_counts_as_a_failed_operation() {
        let mut c = Checks::default();
        c.repeat(Ok(0xfeed));
        c.repeat(Ok(0xfeed));
        assert_eq!((c.attempted, c.failed), (2, 0));
        c.repeat(Ok(0xfeed ^ 1));
        assert_eq!((c.attempted, c.failed), (3, 1));
        c.repeat(Err("report had 1 degraded section".into()));
        assert_eq!((c.attempted, c.failed), (4, 2));
        assert_eq!(c.problems.len(), 2);
    }

    #[test]
    fn batch_figures_are_never_zero() {
        let m = batch_e2e(&[0.012, 0.010, 0.011], &[1.0, 1.2]);
        for s in crate::spec::END_TO_END {
            if s.name != "peak_rss_mb" {
                assert!(m[s.name] > 0.0, "{}", s.name);
            }
        }
        assert_eq!(m["setup_s"], 0.011);
        assert_eq!(m["wall_s"], 1.1);
        assert_eq!(m["read_p99_ms"], 1200.0);
    }
}
