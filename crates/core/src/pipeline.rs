//! The high-level knowledge-discovery pipeline: dataset → graphs →
//! partitioning → miners → report.

use crate::error::PipelineError;
use crate::experiments::{conventional, structural, temporal};
use crate::supervisor::{self, Effort, SectionCtx, SectionStatus, SupervisorConfig};
use tnet_data::binning::BinScheme;
use tnet_data::model::Transaction;
use tnet_data::od_graph::{build_od_graph, EdgeLabeling, OdGraph, VertexLabeling};
use tnet_data::stats::{dataset_stats, DatasetStats};
use tnet_data::synth::{generate, Dataset, SynthConfig};
use tnet_exec::Exec;
use tnet_fsg::Support;
use tnet_partition::split::Strategy;

/// One pipeline over a transaction dataset. Construction is cheap; each
/// accessor builds what it needs.
pub struct Pipeline {
    transactions: Vec<Transaction>,
    scheme: BinScheme,
    /// Ground truth when the data came from the synthetic generator.
    pub dataset: Option<Dataset>,
}

/// A supervised report: the rendered text plus how each section fared.
/// The text always ends with a `sections: N ok, M degraded, K failed`
/// summary line.
pub struct ReportOutcome {
    pub text: String,
    pub ok: usize,
    pub degraded: usize,
    pub failed: usize,
}

impl ReportOutcome {
    pub fn sections(&self) -> usize {
        self.ok + self.degraded + self.failed
    }
}

impl Pipeline {
    /// Builds the pipeline over a synthetic dataset at `scale` of the
    /// paper's published size (1.0 = 98,292 transactions).
    pub fn synthetic(scale: f64, seed: u64) -> Pipeline {
        let cfg = SynthConfig::scaled(scale).with_seed(seed);
        let dataset = generate(&cfg);
        let scheme = BinScheme::fit_width_transactions(&dataset.transactions)
            .expect("synthetic data is non-empty with finite, varying attributes");
        Pipeline {
            transactions: dataset.transactions.clone(),
            scheme,
            dataset: Some(dataset),
        }
    }

    /// Builds the pipeline over externally supplied transactions (e.g.
    /// parsed from CSV).
    ///
    /// # Errors
    /// Returns [`PipelineError::BinFit`] when the set is empty, carries
    /// non-finite attribute values, or an attribute is constant — all
    /// states where the downstream equal-width binning is meaningless.
    pub fn from_transactions(transactions: Vec<Transaction>) -> Result<Pipeline, PipelineError> {
        let scheme = BinScheme::fit_width_transactions(&transactions)?;
        Ok(Pipeline {
            transactions,
            scheme,
            dataset: None,
        })
    }

    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    pub fn scheme(&self) -> &BinScheme {
        &self.scheme
    }

    /// E1: the §3 dataset description statistics.
    pub fn dataset_stats(&self) -> DatasetStats {
        dataset_stats(&self.transactions)
    }

    /// A labeled OD graph (`OD_GW` / `OD_TH` / `OD_TD`).
    pub fn od_graph(&self, labeling: EdgeLabeling, vertices: VertexLabeling) -> OdGraph {
        build_od_graph(&self.transactions, &self.scheme, labeling, vertices)
    }

    /// Runs every experiment at sizes proportionate to the dataset and
    /// renders one combined text report. `scale` should match the value
    /// given to [`Pipeline::synthetic`] so thresholds stay calibrated.
    /// Equivalent to [`Pipeline::full_report_with`] on the default
    /// (`--threads` / `TNET_THREADS` / hardware) pool.
    pub fn full_report(&self, scale: f64, seed: u64) -> String {
        self.full_report_with(scale, seed, &Exec::default())
    }

    /// As [`Pipeline::full_report`], running the experiment sections
    /// across `exec`'s workers. Shorthand for
    /// [`Pipeline::full_report_supervised`] with the default (no
    /// deadline, no budget) policy, keeping only the text.
    pub fn full_report_with(&self, scale: f64, seed: u64, exec: &Exec) -> String {
        self.full_report_supervised(scale, seed, exec, &SupervisorConfig::default())
            .text
    }

    /// Runs the full report under supervision: every section executes
    /// under [`supervisor::run_section`] — panic-isolated, bounded by
    /// the config's per-section deadline and memory budget, and retried
    /// once at reduced effort (raised support, smaller inputs, fewer
    /// iterations) after a retryable failure. The report always
    /// completes: sections that fail render a notice block, and the
    /// text ends with a `sections: N ok, M degraded, K failed` line.
    ///
    /// Each section is an independent experiment block and receives a
    /// child handle with a proportional slice of the thread budget for
    /// its own inner parallelism; blocks are assembled in section
    /// order, so the report text is identical at any thread count.
    pub fn full_report_supervised(
        &self,
        scale: f64,
        seed: u64,
        exec: &Exec,
        cfg: &SupervisorConfig,
    ) -> ReportOutcome {
        let txns = &self.transactions;
        let s = |full: usize, min: usize| ((full as f64 * scale).round() as usize).max(min);

        type Body<'a> = Box<dyn Fn(&SectionCtx) -> Result<String, PipelineError> + Sync + 'a>;
        let scaling_sizes = [s(25, 10), s(50, 20), s(100, 40)];
        let sections: Vec<(&'static str, Body)> = vec![
            (
                "E1: dataset description",
                Box::new(|_: &SectionCtx| {
                    Ok(format!(
                        "=== E1: dataset description (Sec 3) ===\n{}\n",
                        self.dataset_stats()
                    ))
                }),
            ),
            (
                "E2: SUBDUE/MDL on OD_GW (Figure 1)",
                Box::new(move |c: &SectionCtx| {
                    // Degraded: halve the truncated graph, as one would
                    // after a budget abort on the full one.
                    let vertices = match c.effort {
                        Effort::Normal => s(100, 40),
                        Effort::Degraded => s(50, 20),
                    };
                    Ok(format!(
                        "{}\n",
                        structural::run_fig1(txns, vertices, c.budget, c.exec)?
                    ))
                }),
            ),
            (
                "E3: SUBDUE runtime scaling",
                Box::new(move |c: &SectionCtx| {
                    // Degraded: drop the largest graph from the sweep.
                    let sizes: &[usize] = match c.effort {
                        Effort::Normal => &scaling_sizes,
                        Effort::Degraded => &scaling_sizes[..2],
                    };
                    let rows = structural::run_subdue_scaling(txns, sizes, c.budget, c.exec)?;
                    Ok(format!("{}\n", structural::render_scaling(&rows)))
                }),
            ),
            (
                "E4: Size principle on planted structure",
                Box::new(move |c: &SectionCtx| {
                    let (vertices, noise) = match c.effort {
                        Effort::Normal => (14, 60),
                        Effort::Degraded => (10, 30),
                    };
                    Ok(format!(
                        "{}\n",
                        structural::run_size_principle(vertices, 3, noise, seed, c.budget, c.exec)?
                    ))
                }),
            ),
            (
                "E5: BF/DF partition sweep",
                Box::new(move |c: &SectionCtx| {
                    // Degraded: double both support thresholds — the
                    // paper's own response to FSG blowing memory on
                    // low-support breadth-first partitions.
                    let m = match c.effort {
                        Effort::Normal => 1,
                        Effort::Degraded => 2,
                    };
                    let rows = structural::run_partition_sweep(
                        txns,
                        EdgeLabeling::GrossWeight,
                        &[s(400, 6), s(800, 12), s(1200, 18), s(1600, 24)],
                        s(240, 4) * m,
                        s(120, 3) * m,
                        2,
                        5,
                        seed,
                        c.budget,
                        c.exec,
                    )?;
                    Ok(format!("{}\n", structural::render_sweep(&rows)))
                }),
            ),
            (
                "Figure 2: BF shape mining on OD_TH",
                Box::new(move |c: &SectionCtx| {
                    let m = match c.effort {
                        Effort::Normal => 1,
                        Effort::Degraded => 2,
                    };
                    Ok(format!(
                        "{}\n",
                        structural::run_shape_mining(
                            txns,
                            EdgeLabeling::TransitHours,
                            Strategy::BreadthFirst,
                            s(800, 10),
                            s(240, 4) * m,
                            2,
                            5,
                            seed,
                            c.budget,
                            c.exec,
                        )?
                    ))
                }),
            ),
            (
                "Figure 3: DF shape mining on OD_TD",
                Box::new(move |c: &SectionCtx| {
                    let m = match c.effort {
                        Effort::Normal => 1,
                        Effort::Degraded => 2,
                    };
                    Ok(format!(
                        "{}\n",
                        structural::run_shape_mining(
                            txns,
                            EdgeLabeling::TotalDistance,
                            Strategy::DepthFirst,
                            s(800, 10),
                            s(120, 3) * m,
                            2,
                            5,
                            seed,
                            c.budget,
                            c.exec,
                        )?
                    ))
                }),
            ),
            (
                "E8: recall of planted patterns",
                Box::new(move |c: &SectionCtx| {
                    let copies = match c.effort {
                        Effort::Normal => 24,
                        Effort::Degraded => 12,
                    };
                    let mut out = String::new();
                    for strategy in [Strategy::BreadthFirst, Strategy::DepthFirst] {
                        out.push_str(
                            &structural::run_recall(copies, 60, 6, strategy, seed, c.exec)
                                .to_string(),
                        );
                    }
                    out.push('\n');
                    Ok(out)
                }),
            ),
            // The §6 temporal chain shares data (Table 2's transactions
            // feed E11), so it stays one section.
            (
                "E9-E11: temporal partitioning and filtered mining",
                Box::new(move |c: &SectionCtx| {
                    let t2 = temporal::run_table2(txns)?;
                    let label_limit = temporal::quiet_day_label_limit(txns, 0.1)?;
                    // Degraded: §6.1's own recovery — raise support,
                    // shrink the pattern-size cap.
                    let (support, max_edges) = match c.effort {
                        Effort::Normal => (Support::Fraction(0.05), 5),
                        Effort::Degraded => (Support::Fraction(0.25), 3),
                    };
                    let fig4 = temporal::run_fig4(
                        txns,
                        label_limit,
                        support,
                        max_edges,
                        c.budget,
                        c.exec,
                    )?;
                    let oom = temporal::run_fsg_oom(
                        &t2.transactions,
                        Support::Count(8),
                        256 * 1024,
                        c.exec,
                    );
                    Ok(format!("{t2}\n{fig4}\n{oom}\n"))
                }),
            ),
            (
                "E12: association rules",
                Box::new(|_: &SectionCtx| Ok(format!("{}\n", conventional::run_assoc(txns, 12)))),
            ),
            (
                "E13: classification",
                Box::new(|_: &SectionCtx| Ok(format!("{}\n", conventional::run_classify(txns)))),
            ),
            (
                "E14/15: EM clustering",
                Box::new(move |c: &SectionCtx| {
                    let iterations = match c.effort {
                        Effort::Normal => 60,
                        Effort::Degraded => 30,
                    };
                    Ok(conventional::run_cluster(txns, 9, iterations, seed, c.exec)?.to_string())
                }),
            ),
            (
                "E16: temporal windows and flow patterns",
                Box::new(move |c: &SectionCtx| {
                    // Degraded: §6.1's recovery again — raise support,
                    // shrink the pattern cap.
                    let (support, max_edges) = match c.effort {
                        Effort::Normal => (Support::Count(5), 3),
                        Effort::Degraded => (Support::Count(10), 2),
                    };
                    Ok(format!(
                        "{}\n",
                        temporal::run_windowed_flows(
                            txns,
                            self.dataset.as_ref(),
                            support,
                            max_edges,
                            c.budget,
                            c.exec,
                        )?
                    ))
                }),
            ),
        ];
        let outer = exec.threads().min(sections.len()).max(1);
        let inner = (exec.threads() / outer).max(1);
        // Pre-register section spans in report order: sections run
        // concurrently, and first-touch registration inside the pool
        // would make the rendered span tree order depend on scheduling.
        for (name, _) in &sections {
            exec.span().child(name);
        }
        let outcomes = exec.par_map(&sections, |(name, body)| {
            supervisor::run_section(name, cfg, exec, inner, body.as_ref())
        });
        let (mut ok, mut degraded, mut failed) = (0usize, 0usize, 0usize);
        let mut text = String::new();
        for outcome in &outcomes {
            match outcome.status {
                SectionStatus::Ok => ok += 1,
                SectionStatus::Degraded => degraded += 1,
                SectionStatus::Failed => failed += 1,
            }
            text.push_str(&outcome.text);
        }
        text.push_str(&format!(
            "sections: {ok} ok, {degraded} degraded, {failed} failed\n"
        ));
        ReportOutcome {
            text,
            ok,
            degraded,
            failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_pipeline_basics() {
        let p = Pipeline::synthetic(0.01, 42);
        let st = p.dataset_stats();
        assert_eq!(st.transactions, p.transactions().len());
        let g = p.od_graph(EdgeLabeling::GrossWeight, VertexLabeling::Uniform);
        assert_eq!(g.graph.edge_count(), st.transactions);
        assert!(p.dataset.is_some());
    }

    #[test]
    fn from_transactions_roundtrip() {
        let source = Pipeline::synthetic(0.01, 1);
        let p = Pipeline::from_transactions(source.transactions().to_vec()).unwrap();
        assert!(p.dataset.is_none());
        assert_eq!(
            p.dataset_stats().distinct_od_pairs,
            source.dataset_stats().distinct_od_pairs
        );
    }

    #[test]
    fn from_transactions_rejects_empty() {
        let Err(e) = Pipeline::from_transactions(Vec::new()) else {
            panic!("empty transaction set must be rejected");
        };
        assert!(matches!(e, PipelineError::BinFit(_)), "{e}");
    }
}
