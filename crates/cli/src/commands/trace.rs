//! `tnet trace` — summarize a `tnet-trace/v1` JSON document: one
//! written by `--trace-json`, or a saved reply to the daemon's `trace`
//! op.
//!
//! The document may have been hand-edited, truncated by a crashed run,
//! or produced by a different tool version, so nothing here is trusted.
//! The shared decoder (`tnet_obs::json::decode_trace`) caps nesting and
//! turns parse failures, schema violations, and missing or mistyped
//! fields (`nanos`, `count`, `label`, `children`, `metrics`) into
//! one-line runtime errors under the one-line-stderr / exit-1 contract:
//! never a panic or a stack overflow.

use crate::args::Args;
use crate::error::CliError;
use tnet_exec::{MetricsRegistry, SpanNode};

pub fn run(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&["input"])?;
    let path = args.get("input").ok_or_else(|| {
        CliError::Usage("tnet trace requires --input PATH (a --trace-json document)".into())
    })?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
    let summary = summarize(&text).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    out!("{summary}");
    Ok(())
}

/// Renders the trace summary, or a one-line description of what is
/// malformed. Split from [`run`] so tests can exercise it directly.
pub fn summarize(text: &str) -> Result<String, String> {
    let (root, metrics) = tnet_obs::json::decode_trace(text)?;
    let registry = MetricsRegistry::new();
    for (name, value) in &metrics {
        registry.add(name, *value);
    }
    Ok(format!(
        "{}{} spans, {} counters, total wall {:.3} ms\n",
        super::render_trace(&root, &registry),
        count_spans(&root),
        metrics.len(),
        root.nanos as f64 / 1e6
    ))
}

fn count_spans(n: &SpanNode) -> usize {
    1 + n.children.iter().map(count_spans).sum::<usize>()
}
