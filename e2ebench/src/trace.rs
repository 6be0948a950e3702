//! The benchmark's own span recorder. Spans are taken from outside the
//! program, around calls into each layer's public functions, and kept
//! in memory (name, start, end, parent) until the run writes them out.
//!
//! A disabled recorder does nothing but hand back `None`, so untraced
//! runs pay one branch per boundary.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: String,
    /// Nanoseconds since the recorder was created; `None` for a span
    /// whose duration came from the program's own aggregate span tree
    /// (no start instant is known).
    pub start_ns: Option<u64>,
    pub dur_ns: u64,
    pub parent: Option<SpanId>,
}

pub struct Trace {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span; `None` when tracing is off.
    pub fn begin(&self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = self.t0.elapsed().as_nanos() as u64;
        let mut spans = self.lock();
        spans.push(SpanRec {
            name: name.to_string(),
            start_ns: Some(start),
            dur_ns: 0,
            parent,
        });
        Some(spans.len() - 1)
    }

    pub fn end(&self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.t0.elapsed().as_nanos() as u64;
        let mut spans = self.lock();
        let s = &mut spans[id];
        s.dur_ns = now - s.start_ns.expect("begin() always sets a start");
    }

    /// Runs `f` inside a span; `f` receives the span's id as the parent
    /// for nested spans.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let r = f(id);
        self.end(id);
        r
    }

    /// Records a duration measured by the program itself.
    pub fn aggregate(&self, name: &str, parent: Option<SpanId>, dur_ns: u64) {
        if self.enabled {
            self.lock().push(SpanRec {
                name: name.to_string(),
                start_ns: None,
                dur_ns,
                parent,
            });
        }
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().clone()
    }

    /// Direct children of `parent`, with their ids.
    pub fn children(&self, parent: SpanId) -> Vec<(SpanId, SpanRec)> {
        self.lock()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(parent))
            .map(|(i, s)| (i, s.clone()))
            .collect()
    }

    pub fn duration_ms(&self, id: SpanId) -> f64 {
        self.lock()[id].dur_ns as f64 / 1e6
    }

    /// Sum of the durations of `parent`'s children named `name`.
    pub fn sum_ms(&self, parent: SpanId, name: &str) -> f64 {
        self.children(parent)
            .iter()
            .filter(|(_, s)| s.name == name)
            .map(|(_, s)| s.dur_ns as f64 / 1e6)
            .sum()
    }

    /// Wall time during which at least one child of `parent` named
    /// `name` was open (children on pool workers overlap).
    pub fn union_ms(&self, parent: SpanId, name: &str) -> f64 {
        let mut iv: Vec<(u64, u64)> = self
            .children(parent)
            .iter()
            .filter(|(_, s)| s.name == name)
            .filter_map(|(_, s)| s.start_ns.map(|a| (a, a + s.dur_ns)))
            .collect();
        iv.sort_unstable();
        let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    total += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            total += cb - ca;
        }
        total as f64 / 1e6
    }

    /// The spans as a JSON document: one object per span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (i, s) in self.lock().iter().enumerate() {
            let start = s.start_ns.map_or("null".to_string(), |v| v.to_string());
            let end = s
                .start_ns
                .map_or("null".to_string(), |v| (v + s.dur_ns).to_string());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{start},\"end_ns\":{end},\
                 \"dur_ns\":{},\"parent\":{parent}}}",
                if i == 0 { "" } else { "," },
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.dur_ns,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Trace::new(false);
        let v = t.span("a", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        t.aggregate("b", None, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn union_merges_overlapping_children() {
        let t = Trace::new(true);
        let root = t.begin("root", None).unwrap();
        {
            let mut spans = t.lock();
            for (a, b) in [(10u64, 20u64), (15, 30), (40, 50)] {
                spans.push(SpanRec {
                    name: "c".into(),
                    start_ns: Some(a * 1_000_000),
                    dur_ns: (b - a) * 1_000_000,
                    parent: Some(root),
                });
            }
        }
        assert_eq!(t.union_ms(root, "c"), 30.0);
        assert_eq!(t.sum_ms(root, "c"), 35.0);
    }
}
