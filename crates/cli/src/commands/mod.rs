//! CLI subcommand implementations. Each takes parsed [`crate::args::Args`]
//! and writes its report to stdout, returning an error string on bad
//! input.

pub mod gen;
pub mod lanes;
pub mod mine;
pub mod report;
pub mod serve;
pub mod stats;
pub mod subdue;
pub mod temporal;
pub mod trace;

use crate::args::ArgError;
use crate::error::CliError;
use std::fs::File;
use std::io::BufReader;
use tnet_data::model::Transaction;
use tnet_exec::{Exec, MetricsRegistry, SpanNode, Tracer};

/// Observability context requested by `--trace` / `--trace-json PATH`:
/// owns the tracer and metrics registry for one command invocation and
/// knows how to render / export them at the end. `None` (no flag) keeps
/// every span disabled — one predictable branch per phase boundary.
pub struct ObsContext {
    tracer: Tracer,
    registry: MetricsRegistry,
    json_path: Option<String>,
}

/// Builds the context when either trace flag is present. The root span
/// carries the subcommand name.
pub fn obs_context(args: &crate::args::Args) -> Option<ObsContext> {
    let trace = args.get("trace") == Some("true");
    let json_path = args.get("trace-json").map(str::to_string);
    if !trace && json_path.is_none() {
        return None;
    }
    Some(ObsContext {
        tracer: Tracer::new(&args.command),
        registry: MetricsRegistry::new(),
        json_path,
    })
}

impl ObsContext {
    /// Returns `exec` with the root span and registry attached (children
    /// inherit both).
    pub fn attach(&self, exec: &Exec) -> Exec {
        exec.with_obs(self.tracer.root(), self.registry.clone())
    }

    /// The command's metrics registry, for publishing counters that live
    /// outside the exec pool (e.g. `graph.*` frozen-snapshot stats).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Folds the pool counters into the registry, then prints and
    /// exports the trace (see [`emit_trace`]). Call after the command's
    /// work (and its root timer) has finished.
    pub fn finish(&self, exec: &Exec) -> Result<(), CliError> {
        exec.counters().record_into(&self.registry);
        emit_trace(
            &self.tracer.snapshot(),
            &self.registry,
            self.json_path.as_deref(),
        )
    }
}

/// The span tree and the counter table as printed by `--trace` and
/// `tnet trace`.
pub fn render_trace(root: &SpanNode, registry: &MetricsRegistry) -> String {
    format!(
        "--- trace (wall clock per phase) ---\n{}--- metrics ---\n{}",
        root.render(),
        registry.render()
    )
}

/// Prints the span tree and counter table to stdout, and writes the
/// `tnet-trace/v1` document to `json_path` when one is given.
pub fn emit_trace(
    root: &SpanNode,
    registry: &MetricsRegistry,
    json_path: Option<&str>,
) -> Result<(), CliError> {
    out!("{}", render_trace(root, registry));
    if let Some(path) = json_path {
        let doc = tnet_obs::json::trace_to_json(root, &registry.snapshot());
        std::fs::write(path, doc.pretty())
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
        outln!("trace json written to {path}");
    }
    Ok(())
}

/// Loads transactions: from `--input <csv>` when present, otherwise
/// generates synthetically with `--scale` / `--seed`. A missing or
/// malformed file is a runtime failure (exit 1); a bad `--scale` is a
/// usage error (exit 2).
pub fn load_transactions(args: &crate::args::Args) -> Result<Vec<Transaction>, CliError> {
    if let Some(path) = args.get("input") {
        let file =
            File::open(path).map_err(|e| CliError::Runtime(format!("cannot open {path}: {e}")))?;
        return Ok(tnet_data::csv::read_csv(BufReader::new(file))?);
    }
    let scale = fraction_arg(args, "scale", 0.02)?;
    let seed: u64 = args.get_parsed_or("seed", 42)?;
    let cfg = tnet_data::synth::SynthConfig::scaled(scale).with_seed(seed);
    Ok(tnet_data::synth::generate(&cfg).transactions)
}

/// A fraction option such as `--scale` or `--support`, checked to lie in
/// (0, 1] as `SynthConfig::scaled` and `Support::Fraction` require (both
/// panic otherwise); written so that NaN fails too.
pub fn fraction_arg(args: &crate::args::Args, key: &str, default: f64) -> Result<f64, CliError> {
    let value: f64 = args.get_parsed_or(key, default)?;
    if !(value > 0.0 && value <= 1.0) {
        return Err(ArgError(format!("--{key} must be in (0, 1]")).into());
    }
    Ok(value)
}

/// Shared tail of the mining commands (`mine`, windowed `temporal`):
/// optional maximal filtering, interestingness ranking, the top-N
/// table, and optional Graphviz export of the top patterns.
pub fn report_patterns(
    mut patterns: Vec<tnet_partition::single_graph::SingleGraphPattern>,
    maximal: bool,
    top: usize,
    dot_dir: Option<&str>,
) -> Result<(), CliError> {
    use tnet_core::patterns::{classify, interestingness};
    if maximal {
        // Keep only patterns not embedded in another reported pattern.
        let graphs: Vec<_> = patterns.iter().map(|p| p.pattern.clone()).collect();
        patterns = patterns
            .into_iter()
            .enumerate()
            .filter(|(i, p)| {
                !graphs.iter().enumerate().any(|(j, q)| {
                    j != *i
                        && q.edge_count() > p.pattern.edge_count()
                        && tnet_graph::iso::has_embedding(&p.pattern, q)
                })
            })
            .map(|(_, p)| p)
            .collect();
        outln!("{} after maximal filtering", patterns.len());
    }
    patterns.sort_by(|a, b| {
        interestingness(&b.pattern, b.support)
            .total()
            .total_cmp(&interestingness(&a.pattern, a.support).total())
    });
    outln!("top {top} by interestingness:");
    for p in patterns.iter().take(top) {
        outln!(
            "  support {:>5}  {} edges  {:<14} score {:.0}",
            p.support,
            p.pattern.edge_count(),
            classify(&p.pattern).name(),
            interestingness(&p.pattern, p.support).total()
        );
    }
    if let Some(dir) = dot_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Runtime(format!("cannot create {dir}: {e}")))?;
        for (i, p) in patterns.iter().take(top).enumerate() {
            let name = format!("pattern_{i:03}");
            let path = std::path::Path::new(dir).join(format!("{name}.dot"));
            std::fs::write(&path, tnet_graph::dot::to_dot(&p.pattern, &name))
                .map_err(|e| CliError::Runtime(format!("cannot write {}: {e}", path.display())))?;
        }
        outln!("wrote {} .dot files to {dir}", patterns.len().min(top));
    }
    Ok(())
}

/// Parses an edge-labeling name (`gw` / `th` / `td`).
pub fn parse_labeling(name: &str) -> Result<tnet_data::od_graph::EdgeLabeling, ArgError> {
    use tnet_data::od_graph::EdgeLabeling::*;
    match name {
        "gw" | "weight" => Ok(GrossWeight),
        "th" | "hours" => Ok(TransitHours),
        "td" | "distance" => Ok(TotalDistance),
        other => Err(ArgError(format!(
            "unknown labeling '{other}' (use gw, th, or td)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn synthetic_load() {
        let a = Args::parse(&argv("stats --scale 0.01 --seed 7")).unwrap();
        let txns = load_transactions(&a).unwrap();
        assert!(!txns.is_empty());
    }

    #[test]
    fn bad_scale_rejected() {
        let a = Args::parse(&argv("stats --scale 2.0")).unwrap();
        assert!(load_transactions(&a).is_err());
    }

    #[test]
    fn missing_file_rejected() {
        let a = Args::parse(&argv("stats --input /nonexistent.csv")).unwrap();
        assert!(load_transactions(&a).is_err());
    }

    #[test]
    fn labeling_names() {
        assert!(parse_labeling("gw").is_ok());
        assert!(parse_labeling("hours").is_ok());
        assert!(parse_labeling("xx").is_err());
    }
}
