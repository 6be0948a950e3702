//! The four batch workloads: each loads its CSV (the set-up), then
//! repeats one job, timing every layer call from outside.

use crate::inputs;
use crate::run::{
    batch_e2e, coverage, layer_medians, more_setups, repeat_job, repeat_setup, Ctx, Outcome,
};
use crate::spec::{section_metric, Workload, REPORT_SECTIONS};
use crate::trace::{SpanId, Trace};
use crate::util::{median, Digest};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use tnet_core::patterns::{classify, interestingness};
use tnet_data::binning::BinScheme;
use tnet_data::od_graph::{build_od_graph, EdgeLabeling, VertexLabeling};
use tnet_exec::{CountersSnapshot, Exec};
use tnet_fsg::{mine_neighborhoods, mine_with, FsgConfig, MiningStats, NbhdConfig, Support};
use tnet_graph::frozen::FrozenStats;
use tnet_graph::graph::Graph;
use tnet_partition::single_graph::{mine_single_graph, SingleGraphPattern};
use tnet_partition::split::Strategy;

/// `tnet mine` defaults.
const PARTITIONS: usize = 16;
const REPS: usize = 2;
const SUPPORT: usize = 5;
const MAX_EDGES: usize = 5;
const TOP: usize = 15;
const PARTITION_SEED: u64 = 42;
/// The report's experiment seed when `--seed` is not given to it.
const REPORT_SEED: u64 = 42;

pub fn run(ctx: &Ctx, tr: &Trace) -> Result<Outcome, String> {
    match ctx.spec.workload {
        Workload::MinePaper => mine_paper(ctx, tr),
        Workload::MineNbhd => mine_nbhd(ctx, tr),
        Workload::TemporalDay => temporal_day(ctx, tr),
        Workload::Report => report(ctx, tr),
        Workload::ServeMixed => unreachable!("serve_mixed is not a batch workload"),
    }
}

/// CSV read, bin fit and the deduplicated `OD_GW` graph: the set-up of
/// both mining workloads.
fn load_od_graph(ctx: &Ctx, tr: &Trace, p: Option<SpanId>) -> Result<Graph, String> {
    let txns = tr.span("data.read_csv", p, |_| inputs::read(&ctx.csv))?;
    let scheme = tr
        .span("data.bin_fit", p, |_| {
            BinScheme::fit_width_transactions(&txns)
        })
        .map_err(|e| format!("bin fit: {e}"))?;
    Ok(tr.span("data.od_graph", p, |_| {
        let mut g = build_od_graph(
            &txns,
            &scheme,
            EdgeLabeling::GrossWeight,
            VertexLabeling::Uniform,
        )
        .graph;
        g.dedup_edges();
        g
    }))
}

/// Medians of the set-up's layer spans.
fn setup_layers(tr: &Trace) -> Vec<(String, f64)> {
    let setups: Vec<SpanId> = tr
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "setup" && s.parent.is_none())
        .map(|(i, _)| i)
        .collect();
    ["data.read_csv", "data.bin_fit", "data.od_graph"]
        .iter()
        .map(|name| {
            let v: Vec<f64> = setups.iter().map(|&id| tr.sum_ms(id, name)).collect();
            (format!("{name}_ms"), median(&v))
        })
        .collect()
}

/// Ranks like `tnet mine`'s report tail and returns the top-N lines.
fn rank(mut patterns: Vec<SingleGraphPattern>) -> (Vec<SingleGraphPattern>, Vec<String>) {
    patterns.sort_by(|a, b| {
        interestingness(&b.pattern, b.support)
            .total()
            .total_cmp(&interestingness(&a.pattern, a.support).total())
    });
    let lines = patterns
        .iter()
        .take(TOP)
        .map(|p| {
            format!(
                "support {:>5}  {} edges  {:<14} score {:.0}",
                p.support,
                p.pattern.edge_count(),
                classify(&p.pattern).name(),
                interestingness(&p.pattern, p.support).total()
            )
        })
        .collect();
    (patterns, lines)
}

/// Order-free digest of a pattern set plus the ranked lines.
fn pattern_digest(patterns: &[SingleGraphPattern], lines: &[String]) -> u64 {
    let mut keys: Vec<(u64, usize, usize, usize)> = patterns
        .iter()
        .map(|p| {
            (
                tnet_graph::canon::invariant_hash(&p.pattern),
                p.support,
                p.pattern.edge_count(),
                p.pattern.vertex_count(),
            )
        })
        .collect();
    keys.sort_unstable();
    let mut d = Digest::new().u64(keys.len() as u64);
    for (h, s, e, v) in keys {
        d = d.u64(h).u64(s as u64).u64(e as u64).u64(v as u64);
    }
    for l in lines {
        d = d.bytes(l.as_bytes());
    }
    d.finish()
}

/// `graph.*` and `exec.*` figures over one repeat.
fn graph_exec_layers(frozen: &FrozenStats, ex: &CountersSnapshot) -> Vec<(String, f64)> {
    vec![
        ("graph.freeze_count".into(), frozen.freeze_count as f64),
        ("graph.csr_bytes".into(), frozen.csr_bytes as f64),
        (
            "graph.adj_binary_searches".into(),
            frozen.adj_binary_searches as f64,
        ),
        ("exec.busy_ms".into(), ex.busy_nanos as f64 / 1e6),
        ("exec.idle_ms".into(), ex.idle_nanos as f64 / 1e6),
        ("exec.utilization".into(), ex.utilization()),
    ]
}

fn counters_since(now: CountersSnapshot, before: CountersSnapshot) -> CountersSnapshot {
    CountersSnapshot {
        tasks: now.tasks - before.tasks,
        chunks: now.chunks - before.chunks,
        regions: now.regions - before.regions,
        cancelled_regions: now.cancelled_regions - before.cancelled_regions,
        region_nanos: now.region_nanos - before.region_nanos,
        busy_nanos: now.busy_nanos - before.busy_nanos,
        idle_nanos: now.idle_nanos - before.idle_nanos,
    }
}

/// Finishes a batch workload: end-to-end figures from the untraced
/// repeats, layer medians and coverage from the traced ones.
fn finish(
    ctx: &Ctx,
    tr: &Trace,
    setups: &[f64],
    reps: crate::run::Reps,
    checks: crate::run::Checks,
    mut per_rep: impl FnMut(SpanId) -> Vec<(String, f64)>,
) -> Outcome {
    let mut out = Outcome {
        checks,
        e2e: batch_e2e(setups, &reps.walls),
        ..Outcome::default()
    };
    let walls = &reps.walls;
    out.record.push(("setups".into(), setups.len().to_string()));
    out.record.push(("reps".into(), walls.len().to_string()));
    out.record
        .push(("rep_wall_s".into(), crate::util::summary(walls, 4)));
    out.record
        .push(("setup_s".into(), crate::util::summary(setups, 5)));
    if ctx.traced {
        out.layers = layer_medians(&reps, &mut per_rep);
        out.layers.extend(setup_layers(tr));
        let traced: Vec<f64> = reps.traced.iter().map(|r| r.0).collect();
        let base = median(walls);
        out.layers.insert(
            "obs.trace_overhead_pct".into(),
            100.0 * (median(&traced) - base) / base,
        );
        let covs: Vec<(f64, Vec<(String, f64)>)> = reps
            .traced
            .iter()
            .map(|&(_, id)| coverage(tr, id))
            .collect();
        let pct: Vec<f64> = covs.iter().map(|c| c.0).collect();
        out.layers
            .insert("obs.span_coverage_pct".into(), median(&pct));
        // The coverage target is stated against the untraced wall time.
        let layer_ms: Vec<f64> = covs
            .iter()
            .zip(&reps.traced)
            .map(|(c, (wall, _))| c.0 / 100.0 * wall * 1e3)
            .collect();
        out.record.push((
            "span_coverage_of_untraced_wall_pct".into(),
            format!("{:.2}", 100.0 * median(&layer_ms) / (base * 1e3)),
        ));
        if let Some((_, rest)) = covs.last() {
            let named: Vec<String> = rest.iter().map(|(k, v)| format!("{k} {v:.2}%")).collect();
            out.record.push(("uncovered".into(), named.join(", ")));
        }
    }
    out
}

/// Per-call FSG counters, summed over one repeat's miner calls (the
/// closure runs on pool workers).
#[derive(Default)]
struct FsgTally {
    calls: AtomicUsize,
    errors: AtomicUsize,
    candidates: AtomicUsize,
    frequent: AtomicUsize,
    iso_tests: AtomicUsize,
    embeddings_extended: AtomicUsize,
    peak_candidate_bytes: AtomicUsize,
}

impl FsgTally {
    fn add(&self, s: &MiningStats) {
        self.calls.fetch_add(1, Relaxed);
        self.candidates.fetch_add(s.total_candidates(), Relaxed);
        self.frequent.fetch_add(s.total_frequent(), Relaxed);
        self.iso_tests.fetch_add(s.iso_tests, Relaxed);
        self.embeddings_extended
            .fetch_add(s.embeddings_extended, Relaxed);
        self.peak_candidate_bytes
            .fetch_max(s.peak_candidate_bytes, Relaxed);
    }

    fn take(&self) -> Vec<(String, f64)> {
        let get = |a: &AtomicUsize| a.swap(0, Relaxed) as f64;
        let candidates = get(&self.candidates);
        let frequent = get(&self.frequent);
        vec![
            ("fsg.mine_calls".into(), get(&self.calls)),
            ("fsg.candidates".into(), candidates),
            ("fsg.frequent".into(), frequent),
            (
                "fsg.frequent_per_candidate".into(),
                if candidates > 0.0 {
                    frequent / candidates
                } else {
                    0.0
                },
            ),
            ("fsg.iso_tests".into(), get(&self.iso_tests)),
            (
                "fsg.embeddings_extended".into(),
                get(&self.embeddings_extended),
            ),
            (
                "fsg.peak_candidate_bytes".into(),
                get(&self.peak_candidate_bytes),
            ),
        ]
    }
}

fn mine_paper(ctx: &Ctx, tr: &Trace) -> Result<Outcome, String> {
    let exec = Exec::new(ctx.spec.threads);
    let load = |tr: &Trace, p| load_od_graph(ctx, tr, p);
    let (mut setups, g) = repeat_setup(tr, load)?;
    let cfg = FsgConfig::default()
        .with_support(Support::Count(SUPPORT))
        .with_max_edges(MAX_EDGES)
        .with_memory_budget(512 << 20);
    let tally = FsgTally::default();
    let mut checks = crate::run::Checks::default();
    let mut samples: Vec<(SpanId, Vec<(String, f64)>)> = Vec::new();
    let reps = repeat_job(
        ctx,
        tr,
        &mut checks,
        |tr, rep| {
            let frozen0 = FrozenStats::snapshot();
            let exec0 = exec.counters();
            let patterns = tr.span("partition.mine_single_graph", rep, |msg| {
                mine_single_graph(
                    &g,
                    PARTITIONS,
                    REPS,
                    Strategy::BreadthFirst,
                    PARTITION_SEED,
                    &exec,
                    |t, e| {
                        let id = tr.begin("fsg.mine", msg);
                        let r = mine_with(t, &cfg, e);
                        tr.end(id);
                        match r {
                            Ok(out) => {
                                tally.add(&out.stats);
                                out.patterns
                                    .into_iter()
                                    .map(|p| (p.graph, p.support))
                                    .collect()
                            }
                            Err(_) => {
                                tally.errors.fetch_add(1, Relaxed);
                                Vec::new()
                            }
                        }
                    },
                )
            });
            let (patterns, lines) = tr.span("core.rank", rep, |_| rank(patterns));
            let mut layers = graph_exec_layers(
                &FrozenStats::snapshot().since(&frozen0),
                &counters_since(exec.counters(), exec0),
            );
            layers.extend(tally.take());
            let errors = tally.errors.swap(0, Relaxed);
            let digest = tr.span("bench.check", rep, |_| pattern_digest(&patterns, &lines));
            if let Some(id) = rep {
                samples.push((id, layers));
            }
            let found = patterns.len();
            tr.span("bench.release", rep, |_| drop(patterns));
            if found == 0 || errors > 0 {
                return Err(format!("{found} patterns, {errors} miner calls failed"));
            }
            Ok(digest)
        },
        || more_setups(&mut setups, load),
    );
    Ok(finish(ctx, tr, &setups, reps, checks, |rep| {
        let msg = tr
            .children(rep)
            .into_iter()
            .find(|(_, s)| s.name == "partition.mine_single_graph")
            .map(|(id, _)| id)
            .expect("every traced repeat opens the partition span");
        let mut v = samples
            .iter()
            .find(|(id, _)| *id == rep)
            .map(|(_, l)| l.clone())
            .unwrap_or_default();
        v.push(("fsg.mine_ms".into(), tr.sum_ms(msg, "fsg.mine")));
        v.push((
            "partition.split_ms".into(),
            tr.duration_ms(msg) - tr.union_ms(msg, "fsg.mine"),
        ));
        v
    }))
}

fn mine_nbhd(ctx: &Ctx, tr: &Trace) -> Result<Outcome, String> {
    let exec = Exec::new(ctx.spec.threads);
    let load = |tr: &Trace, p| load_od_graph(ctx, tr, p);
    let (mut setups, g) = repeat_setup(tr, load)?;
    let cfg = NbhdConfig::default()
        .with_radius(1)
        .with_support(Support::Count(SUPPORT))
        .with_max_edges(MAX_EDGES);
    let mut checks = crate::run::Checks::default();
    let mut samples: Vec<(SpanId, Vec<(String, f64)>)> = Vec::new();
    let reps = repeat_job(
        ctx,
        tr,
        &mut checks,
        |tr, rep| {
            let frozen0 = FrozenStats::snapshot();
            let exec0 = exec.counters();
            let out = tr
                .span("fsg.nbhd", rep, |_| mine_neighborhoods(&g, &cfg, &exec))
                .map_err(|e| format!("neighborhood mining failed: {e}"))?;
            let mut layers = graph_exec_layers(
                &FrozenStats::snapshot().since(&frozen0),
                &counters_since(exec.counters(), exec0),
            );
            layers.extend([
                ("fsg.nbhd_iso_tests".to_string(), out.stats.iso_tests as f64),
                (
                    "fsg.nbhd_fingerprint_rejects".to_string(),
                    out.stats.fingerprint_rejects as f64,
                ),
                ("fsg.nbhd_soa_bytes".to_string(), out.stats.soa_bytes as f64),
            ]);
            let patterns = out
                .patterns
                .into_iter()
                .map(|p| SingleGraphPattern {
                    pattern: p.graph,
                    support: p.support,
                    repetitions_seen: 1,
                })
                .collect();
            let (patterns, lines) = tr.span("core.rank", rep, |_| rank(patterns));
            let digest = tr.span("bench.check", rep, |_| pattern_digest(&patterns, &lines));
            if let Some(id) = rep {
                samples.push((id, layers));
            }
            let found = patterns.len();
            tr.span("bench.release", rep, |_| drop(patterns));
            if found == 0 {
                return Err("no neighborhood patterns".into());
            }
            Ok(digest)
        },
        || more_setups(&mut setups, load),
    );
    Ok(finish(ctx, tr, &setups, reps, checks, |rep| {
        let mut v = samples
            .iter()
            .find(|(id, _)| *id == rep)
            .map(|(_, l)| l.clone())
            .unwrap_or_default();
        v.push(("fsg.nbhd_ms".into(), tr.sum_ms(rep, "fsg.nbhd")));
        v
    }))
}

fn temporal_day(ctx: &Ctx, tr: &Trace) -> Result<Outcome, String> {
    use tnet_graph::canon::IsoClassMap;
    use tnet_partition::{Granularity, TemporalOptions, WindowSpec};
    use tnet_temporal::{detect_flows, run_windows, FlowConfig, TemporalConfig};

    let exec = Exec::new(ctx.spec.threads);
    // `tnet temporal --granularity day` bins with the paper's fixed
    // scheme, so reading the CSV is the whole set-up.
    let load = |tr: &Trace, p| tr.span("data.read_csv", p, |_| inputs::read(&ctx.csv));
    let (mut setups, txns) = repeat_setup(tr, load)?;
    let spec = WindowSpec::new(Granularity::Day, 7, 1).map_err(|e| format!("window spec: {e}"))?;
    let fsg = FsgConfig::default()
        .with_support(Support::Count(SUPPORT))
        .with_max_edges(4)
        .with_memory_budget(512 << 20);
    let cfg = TemporalConfig::new(spec)
        .with_fsg(fsg)
        .with_incremental(true);
    let scheme = BinScheme::paper_defaults();
    let mut checks = crate::run::Checks::default();
    let mut samples: Vec<(SpanId, Vec<(String, f64)>)> = Vec::new();
    let mut windows = 0;
    let reps = repeat_job(
        ctx,
        tr,
        &mut checks,
        |tr, rep| {
            let run = tr
                .span("temporal.run_windows", rep, |_| {
                    run_windows(&txns, &scheme, &TemporalOptions::default(), &cfg, &exec)
                })
                .map_err(|e| format!("windowed mining failed: {e:?}"))?;
            let flows = tr.span("temporal.detect_flows", rep, |_| {
                detect_flows(&txns, &spec, &FlowConfig::default())
            });
            let (patterns, lines) = tr.span("core.rank", rep, |_| {
                let mut merged: IsoClassMap<(usize, usize)> = IsoClassMap::new();
                for w in &run.windows {
                    for p in &w.output.patterns {
                        let e = merged.entry_or_insert_with(&p.graph, || (0, 0));
                        e.0 = e.0.max(p.support);
                        e.1 += 1;
                    }
                }
                let patterns = merged
                    .iter()
                    .map(|(g, &(support, seen))| SingleGraphPattern {
                        pattern: g.clone(),
                        support,
                        repetitions_seen: seen,
                    })
                    .collect();
                rank(patterns)
            });
            let digest = tr.span("bench.check", rep, |_| {
                let mut d = Digest::new()
                    .u64(pattern_digest(&patterns, &lines))
                    .u64(run.windows.len() as u64);
                for w in &run.windows {
                    d = d
                        .u64(w.txn_lo as u64)
                        .u64(w.txn_hi as u64)
                        .u64(w.output.patterns.len() as u64);
                }
                d = d
                    .u64(flows.flows.len() as u64)
                    .u64(flows.surges.len() as u64)
                    .u64(flows.cycles.len() as u64)
                    .u64(flows.outliers.len() as u64);
                for f in &flows.flows {
                    d = d
                        .u64(f.window_lo as u64)
                        .u64(f.value.to_bits())
                        .u64(f.path.len() as u64);
                }
                d.finish()
            });
            let s = &run.session;
            let recounted = s.patterns_recounted + s.recount_skips;
            windows = s.windows;
            if let Some(id) = rep {
                samples.push((
                    id,
                    vec![
                        (
                            "fsg.session_delta_windows".into(),
                            s.incremental_windows as f64,
                        ),
                        ("fsg.session_full_recounts".into(), s.full_recounts as f64),
                        (
                            "fsg.session_skip_ratio".into(),
                            if recounted > 0 {
                                s.recount_skips as f64 / recounted as f64
                            } else {
                                0.0
                            },
                        ),
                    ],
                ));
            }
            let windows_mined = run.windows.len();
            // Freeing 187 windows' outputs is a visible share of a repeat.
            tr.span("bench.release", rep, |_| drop((run, flows, patterns)));
            if windows_mined == 0 {
                return Err("no windows".into());
            }
            Ok(digest)
        },
        || more_setups(&mut setups, load),
    );
    let mut out = finish(ctx, tr, &setups, reps, checks, |rep| {
        let mut v = samples
            .iter()
            .find(|(id, _)| *id == rep)
            .map(|(_, l)| l.clone())
            .unwrap_or_default();
        v.push((
            "temporal.run_windows_ms".into(),
            tr.sum_ms(rep, "temporal.run_windows"),
        ));
        v.push((
            "temporal.detect_flows_ms".into(),
            tr.sum_ms(rep, "temporal.detect_flows"),
        ));
        v
    });
    out.record.push(("windows".into(), windows.to_string()));
    Ok(out)
}

fn report(ctx: &Ctx, tr: &Trace) -> Result<Outcome, String> {
    use tnet_core::experiments::extensions::{run_events, run_paths, run_periodic};
    use tnet_core::pipeline::Pipeline;
    use tnet_core::SupervisorConfig;
    use tnet_dynamic::paths::PathConfig;

    let exec = Exec::new(ctx.spec.threads);
    let load = |tr: &Trace, p| {
        let txns = tr.span("data.read_csv", p, |_| inputs::read(&ctx.csv))?;
        tr.span("data.bin_fit", p, |_| Pipeline::from_transactions(txns))
            .map_err(|e| format!("pipeline: {e}"))
    };
    let (mut setups, pipeline) = repeat_setup(tr, load)?;
    let mut checks = crate::run::Checks::default();
    let mut sections = 0;
    let reps = repeat_job(
        ctx,
        tr,
        &mut checks,
        |tr, rep| {
            // Traced repeats attach the program's own span tree, from which
            // the supervisor's per-section spans are read.
            let obs = tr.enabled().then(|| tnet_obs::Tracer::new("report"));
            let attached;
            let run_exec = match &obs {
                Some(t) => {
                    attached = exec.with_obs(t.root(), tnet_obs::MetricsRegistry::new());
                    &attached
                }
                None => &exec,
            };
            let outcome = tr.span("core.full_report", rep, |fr| {
                let o = pipeline.full_report_supervised(
                    ctx.scale,
                    REPORT_SEED,
                    run_exec,
                    &SupervisorConfig::default(),
                );
                if let Some(t) = &obs {
                    for node in t.snapshot().children {
                        let key = REPORT_SECTIONS
                            .iter()
                            .find(|(_, prefix)| node.label.split(':').next() == Some(prefix))
                            .map_or_else(|| node.label.clone(), |(k, _)| k.to_string());
                        tr.aggregate(&format!("core.section.{key}"), fr, node.nanos);
                    }
                }
                o
            });
            let extensions = tr.span("dynamic.extensions", rep, |_| {
                let txns = pipeline.transactions();
                let paths = PathConfig {
                    min_sep: 0,
                    max_sep: 3,
                    max_len: 2,
                    min_occurrences: 3,
                    max_instances: 1_000_000,
                };
                format!(
                    "{}\n{}\n{}\n",
                    run_periodic(txns),
                    run_paths(txns, &paths),
                    run_events(txns)
                )
            });
            sections = outcome.sections();
            let digest = tr.span("bench.check", rep, |_| {
                Digest::new()
                    .bytes(crate::util::scrub_durations(&outcome.text).as_bytes())
                    .bytes(crate::util::scrub_durations(&extensions).as_bytes())
                    .finish()
            });
            if outcome.degraded > 0 || outcome.failed > 0 {
                return Err(format!(
                    "report: {} ok, {} degraded, {} failed sections",
                    outcome.ok, outcome.degraded, outcome.failed
                ));
            }
            Ok(digest)
        },
        || more_setups(&mut setups, load),
    );
    let mut out = finish(ctx, tr, &setups, reps, checks, |rep| {
        let fr = tr
            .children(rep)
            .into_iter()
            .find(|(_, s)| s.name == "core.full_report")
            .map(|(id, _)| id)
            .expect("every traced repeat opens the report span");
        let mut v: Vec<(String, f64)> = REPORT_SECTIONS
            .iter()
            .map(|(key, _)| {
                (
                    section_metric(key),
                    tr.sum_ms(fr, &format!("core.section.{key}")),
                )
            })
            .collect();
        v.push((
            "dynamic.extensions_ms".into(),
            tr.sum_ms(rep, "dynamic.extensions"),
        ));
        v
    });
    out.record.push(("sections".into(), sections.to_string()));
    Ok(out)
}
