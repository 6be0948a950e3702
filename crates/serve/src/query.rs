//! Query execution against a pinned generation.
//!
//! Each function here is a thin shim over the exact library calls the
//! offline CLI commands make, rendering the same text those commands
//! print. That is deliberate: the acceptance bar for the daemon is that
//! a reply computed against pinned generation G is *byte-identical* to
//! running `tnet stats` / `tnet mine` on a CSV dump of G's
//! transactions, so the shims must not "improve" on the offline
//! formatting — they embed it.

use crate::generation::Generation;
use crate::proto::{json_string, Request};
use tnet_core::error::PipelineError;
use tnet_core::patterns::{classify, interestingness};
use tnet_data::stats::dataset_stats;
use tnet_exec::Exec;
use tnet_fsg::{mine_with, FsgConfig, Support};
use tnet_graph::traverse::count_label_walks;
use tnet_graph::view::GraphView;
use tnet_partition::single_graph::mine_single_graph_frozen;

/// Executes a cacheable query (`stats` / `support` / `pattern`) and
/// returns the serialized one-line reply. Non-query ops (ping, trace,
/// mutations, shutdown) are the server loop's business, not ours.
pub fn execute(gen: &Generation, req: &Request, exec: &Exec) -> Result<String, PipelineError> {
    match req {
        Request::Stats => stats_reply(gen),
        Request::Support { labeling, labels } => {
            let fg = gen.labeled(*labeling)?;
            let count = count_label_walks(&fg, labels);
            Ok(format!(
                "{{\"ok\":true,\"op\":\"support\",\"generation\":{},\"labeling\":{},\
                 \"count\":{count},\"vertices\":{},\"edges\":{}}}",
                gen.id,
                json_string(labeling.name()),
                fg.vertex_count(),
                fg.edge_count(),
            ))
        }
        Request::Pattern {
            labeling,
            strategy,
            partitions,
            support,
            max_edges,
            reps,
            top,
        } => {
            let fg = gen.labeled(*labeling)?;
            // Mirrors `tnet mine` exactly: same FsgConfig, same seed,
            // same sort, same line format. Changing anything here
            // breaks the serve-vs-offline differential test.
            let cfg = FsgConfig::default()
                .with_support(Support::Count(*support))
                .with_max_edges(*max_edges)
                .with_memory_budget(512 << 20);
            let mut patterns =
                mine_single_graph_frozen(fg, *partitions, *reps, *strategy, 42, exec, |t, e| {
                    match mine_with(t, &cfg, e) {
                        Ok(out) => out
                            .patterns
                            .into_iter()
                            .map(|p| (p.graph, p.support))
                            .collect(),
                        Err(_) => Vec::new(),
                    }
                });
            patterns.sort_by(|a, b| {
                interestingness(&b.pattern, b.support)
                    .total()
                    .total_cmp(&interestingness(&a.pattern, a.support).total())
            });
            let lines: Vec<String> = patterns
                .iter()
                .take(*top)
                .map(|p| {
                    json_string(&format!(
                        "  support {:>5}  {} edges  {:<14} score {:.0}",
                        p.support,
                        p.pattern.edge_count(),
                        classify(&p.pattern).name(),
                        interestingness(&p.pattern, p.support).total()
                    ))
                })
                .collect();
            Ok(format!(
                "{{\"ok\":true,\"op\":\"pattern\",\"generation\":{},\"labeling\":{},\
                 \"patterns\":{},\"lines\":[{}]}}",
                gen.id,
                json_string(labeling.name()),
                patterns.len(),
                lines.join(","),
            ))
        }
        other => Err(PipelineError::Protocol {
            message: format!("op {other:?} is not a generation query"),
        }),
    }
}

fn stats_reply(gen: &Generation) -> Result<String, PipelineError> {
    if gen.txns.is_empty() {
        return Err(PipelineError::Protocol {
            message: format!(
                "generation {} holds no transactions yet; ingest before querying stats",
                gen.id
            ),
        });
    }
    // The exact text `tnet stats` prints for this transaction set.
    let report = dataset_stats(&gen.txns).to_string();
    Ok(format!(
        "{{\"ok\":true,\"op\":\"stats\",\"generation\":{},\"transactions\":{},\"report\":{}}}",
        gen.id,
        gen.txns.len(),
        json_string(&report),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;

    fn generation(n: usize) -> Generation {
        let cfg = tnet_data::synth::SynthConfig::scaled(0.01).with_seed(7);
        let mut txns = tnet_data::synth::generate(&cfg).transactions;
        txns.truncate(n);
        Generation::build(1, txns).unwrap()
    }

    #[test]
    fn stats_embeds_offline_render() {
        let g = generation(150);
        let reply = execute(&g, &Request::Stats, &Exec::sequential()).unwrap();
        let offline = dataset_stats(&g.txns).to_string();
        assert!(reply.contains(&json_string(&offline)));
        assert!(reply.starts_with("{\"ok\":true,\"op\":\"stats\",\"generation\":1,"));
    }

    #[test]
    fn support_counts_walks_on_the_frozen_graph() {
        let g = generation(150);
        let req = parse_request(r#"{"op":"support","labeling":"gw","labels":[0]}"#).unwrap();
        let reply = execute(&g, &req, &Exec::sequential()).unwrap();
        let fg = g
            .labeled(tnet_data::od_graph::EdgeLabeling::GrossWeight)
            .unwrap();
        let want = count_label_walks(&fg, &[tnet_graph::graph::ELabel(0)]);
        assert!(reply.contains(&format!("\"count\":{want}")), "{reply}");
    }

    #[test]
    fn pattern_reply_is_deterministic_across_thread_counts() {
        let g = generation(150);
        let req =
            parse_request(r#"{"op":"pattern","partitions":4,"support":2,"max_edges":3,"reps":1}"#)
                .unwrap();
        let seq = execute(&g, &req, &Exec::sequential()).unwrap();
        let par = execute(&g, &req, &Exec::new(4)).unwrap();
        assert_eq!(
            seq, par,
            "chunking must keep replies thread-count independent"
        );
        assert!(seq.contains("\"lines\":["));
    }

    #[test]
    fn queries_on_the_genesis_generation_explain_themselves() {
        let g = Generation::build(0, Vec::new()).unwrap();
        for line in [
            r#"{"op":"stats"}"#,
            r#"{"op":"support","labels":[1]}"#,
            r#"{"op":"pattern"}"#,
        ] {
            let req = parse_request(line).unwrap();
            let err = execute(&g, &req, &Exec::sequential()).unwrap_err();
            assert_eq!(err.kind(), "protocol", "{line}");
        }
    }
}
