//! `tnet subdue` — SUBDUE substructure discovery on a truncated OD
//! graph, with optional hierarchical compression passes.

use crate::args::{ArgError, Args};
use crate::commands::{load_transactions, obs_context, parse_labeling};
use crate::error::CliError;
use tnet_core::experiments::structural::truncated_structural_graph;
use tnet_core::patterns::classify;
use tnet_data::binning::BinScheme;
use tnet_subdue::{discover_with, hierarchical, EvalMethod, SubdueConfig};

pub fn run(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&[
        "input",
        "scale",
        "seed",
        "labeling",
        "vertices",
        "eval",
        "beam",
        "best",
        "max-size",
        "passes",
        "threads",
        "trace",
        "trace-json",
    ])?;
    let obs = obs_context(args);
    let mut exec = args.exec()?;
    if let Some(o) = &obs {
        exec = o.attach(&exec);
    }
    let total = exec.span().timer();
    let txns = {
        let _t = exec.span().time("ingest");
        load_transactions(args)?
    };
    let labeling = parse_labeling(args.get_or("labeling", "gw"))?;
    let vertices: usize = args.get_parsed_or("vertices", 60)?;
    let eval = match args.get_or("eval", "mdl") {
        "mdl" => EvalMethod::Mdl,
        "size" => EvalMethod::Size,
        other => return Err(ArgError(format!("unknown eval '{other}' (mdl|size)")).into()),
    };
    let cfg = SubdueConfig {
        beam_width: args.get_parsed_or("beam", 4)?,
        max_best: args.get_parsed_or("best", 3)?,
        max_size: args.get_parsed_or("max-size", 14)?,
        eval,
        ..Default::default()
    };
    let passes: usize = args.get_parsed_or("passes", 1)?;

    let scheme = {
        let _t = exec.span().time("binning");
        BinScheme::fit_width_transactions(&txns)?
    };
    let g = {
        let _t = exec.span().time("build_od_graph");
        truncated_structural_graph(&txns, &scheme, labeling, vertices)
    };
    outln!(
        "{} truncated graph: {} vertices, {} edges; {} evaluation",
        labeling.name(),
        g.vertex_count(),
        g.edge_count(),
        eval.name()
    );

    if passes <= 1 {
        let out = discover_with(&g, &cfg, &exec)?;
        outln!(
            "expanded {} substructures, evaluated {}, runtime {:?}",
            out.expanded,
            out.evaluated,
            out.runtime
        );
        outln!(
            "instances extended {}, spilled {}, patterns derived {}, fingerprint rejects {}",
            out.stats.embeddings_extended,
            out.stats.embeddings_spilled,
            out.stats.patterns_derived,
            out.stats.fingerprint_rejects
        );
        for (i, sub) in out.best.iter().enumerate() {
            outln!(
                "#{}: {} edges / {} vertices, {} disjoint instances, value {:.3}, shape {}",
                i + 1,
                sub.pattern.edge_count(),
                sub.pattern.vertex_count(),
                sub.disjoint_count(),
                sub.value,
                classify(&sub.pattern).name()
            );
            out!("{}", tnet_graph::dot::to_ascii(&sub.pattern));
        }
    } else {
        let levels = hierarchical(&g, &cfg, passes)?;
        outln!("hierarchical description: {} levels", levels.len());
        for (i, level) in levels.iter().enumerate() {
            outln!(
                "level {}: pattern {} edges x{} instances, compressed size {} (value {:.3})",
                i + 1,
                level.substructure.pattern.edge_count(),
                level.substructure.disjoint_count(),
                level.compressed_size,
                level.substructure.value
            );
        }
    }
    drop(total);
    if let Some(o) = &obs {
        o.finish(&exec)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_on_synthetic() {
        let argv: Vec<String> = [
            "subdue",
            "--scale",
            "0.01",
            "--vertices",
            "25",
            "--eval",
            "size",
            "--max-size",
            "6",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&Args::parse(&argv).unwrap()).unwrap();
    }

    #[test]
    fn hierarchical_passes() {
        let argv: Vec<String> = [
            "subdue",
            "--scale",
            "0.01",
            "--vertices",
            "20",
            "--eval",
            "size",
            "--max-size",
            "5",
            "--passes",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&Args::parse(&argv).unwrap()).unwrap();
    }
}
