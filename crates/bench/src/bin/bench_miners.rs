//! Offline miner micro-bench: times FSG and SUBDUE on seeded
//! synthetic workloads and writes `BENCH_miners.json` — the start of the
//! repo's perf trajectory. No network, no criterion; run with
//!
//! ```text
//! cargo run --release -p tnet-bench --bin bench_miners -- --out BENCH_miners.json
//! ```
//!
//! Flags:
//! - `--smoke`        tiny single-sample run for CI (skips the large
//!   workload, keeps the deterministic `iso_tests` gate)
//! - `--out PATH`     output path (default `BENCH_miners.json`)
//! - `--seed N`       synthetic-dataset seed (default 42)
//! - `--validate PATH` parse an existing report, check both miners and
//!   the embedded trace block are present, and exit — no benching
//!
//! Every FSG workload is run twice: with embedding propagation (the
//! default cap) and with `embedding_cap = 0` (scratch VF2, the
//! pre-optimization behavior), so each report carries its own
//! speedup-vs-scratch number. The process exits non-zero if the
//! propagated FSG run's `iso_tests` on the default workload regresses
//! past [`FSG_DEFAULT_ISO_GATE`] — wall-clock is recorded but never
//! gated, because shared-host timing noise (~40% observed) would make a
//! time gate flaky.

use std::process::ExitCode;
use std::time::Instant;
use tnet_bench::harness::{bench, Timing};
use tnet_core::experiments::structural::truncated_structural_graph;
use tnet_core::pipeline::Pipeline;
use tnet_data::binning::BinScheme;
use tnet_data::od_graph::{EdgeLabeling, VertexLabeling};
use tnet_exec::{Exec, MetricsRegistry, Span, Tracer};
use tnet_fsg::{mine, mine_neighborhoods, mine_source, mine_with, FsgConfig, NbhdConfig, Support};
use tnet_graph::frozen::{FrozenStats, TxnSet};
use tnet_graph::graph::Graph;
use tnet_graph::rng::StdRng;
use tnet_obs::json::{self, JVal};
use tnet_partition::single_graph::mine_single_graph;
use tnet_partition::split::{split_graph, Strategy};
use tnet_subdue::{discover, discover_with, SubdueConfig};

/// Regression gate for `stats.iso_tests` on the propagated default FSG
/// workload. The recorded scratch-VF2 count on this workload is 582;
/// propagation measures 20. The gate sits at a 5x drop so genuine
/// regressions trip it while leaving headroom for benign drift.
const FSG_DEFAULT_ISO_GATE: usize = 116;

/// `--validate` gate on the support-count microbench: frozen-CSR
/// traversal must stay within this factor of the arena path (best of N
/// in the same process, so the ratio is far less noisy than absolute
/// wall clock; the headroom absorbs shared-host jitter while still
/// catching a representation-level slowdown).
const SUPPORT_COUNT_RATIO_GATE: f64 = 1.5;

/// `--validate` gate on the seed-sensitivity row (full reports): the
/// slower synthesis seed's support counting may take at most this
/// multiple of the faster seed's, as a ratio within one process. Cost
/// that hinges on a handful of expensive negative VF2 decisions shows as
/// a ratio far above it.
const SEED_SENSITIVITY_GATE: f64 = 3.0;

/// Historical baselines recorded on the development host (best of
/// three), kept in the report so the perf trajectory is visible without
/// digging through git history. The `scratch` generation predates
/// embedding propagation (PR 3); the `pre_layout` generation is the
/// propagated + frozen-CSR state just before the data-layout pass
/// (bitset TIDs, SoA stores, fingerprints, L2 chunking) landed.
const BASELINE_FSG_DEFAULT_WALL_MS: f64 = 3.82;
const BASELINE_FSG_DEFAULT_ISO_TESTS: usize = 582;
const BASELINE_FSG_LARGE_TXN_WALL_MS: f64 = 1050.6;
const BASELINE_FSG_LARGE_TXN_PRE_LAYOUT_WALL_MS: f64 = 185.5;
const BASELINE_SUBDUE_50V_PRE_LAYOUT_WALL_MS: f64 = 343.0;

struct Opts {
    smoke: bool,
    out: String,
    seed: u64,
    validate: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        smoke: false,
        out: "BENCH_miners.json".to_string(),
        seed: 42,
        validate: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = args.next().ok_or("--out needs a path")?,
            "--seed" => {
                opts.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--validate" => opts.validate = Some(args.next().ok_or("--validate needs a path")?),
            // Cargo's bench runner appends `--bench`; tolerate it.
            "--bench" => {}
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

/// The shared FSG workload: a synthetic OD graph split into
/// transaction subgraphs, exactly as `tnet mine` and the report pipeline
/// do it.
fn split_workload(scale: f64, seed: u64, k: usize) -> Vec<Graph> {
    let p = Pipeline::synthetic(scale, seed);
    let od = p.od_graph(EdgeLabeling::GrossWeight, VertexLabeling::Uniform);
    let mut g = od.graph;
    g.dedup_edges();
    let mut rng = StdRng::seed_from_u64(4);
    split_graph(&g, k, Strategy::BreadthFirst, &mut rng)
}

fn fsg_row(
    name: &str,
    txns: &[Graph],
    support: usize,
    max_edges: usize,
    samples: usize,
) -> (JVal, usize) {
    let cfg = |cap: usize| {
        FsgConfig::default()
            .with_support(Support::Count(support))
            .with_max_edges(max_edges)
            .with_embedding_cap(cap)
    };
    let prop_cfg = cfg(FsgConfig::default().embedding_cap);
    let scratch_cfg = cfg(0);
    let t: Timing = bench(&format!("fsg/{name}"), samples, || {
        mine(txns, &prop_cfg).unwrap()
    });
    let out = mine(txns, &prop_cfg).unwrap();
    let ts = bench(&format!("fsg/{name}/scratch"), samples, || {
        mine(txns, &scratch_cfg).unwrap()
    });
    let out_s = mine(txns, &scratch_cfg).unwrap();
    assert_eq!(
        out.patterns.len(),
        out_s.patterns.len(),
        "propagated and scratch runs must mine the same pattern set"
    );
    let row = JVal::obj([
        ("workload", JVal::Str(name.into())),
        ("wall_ms", JVal::Num(t.best_ms())),
        ("wall_ms_scratch", JVal::Num(ts.best_ms())),
        (
            "speedup_vs_scratch",
            JVal::Num(ts.best_ms() / t.best_ms().max(1e-9)),
        ),
        ("iso_tests", JVal::Num(out.stats.iso_tests as f64)),
        ("iso_tests_scratch", JVal::Num(out_s.stats.iso_tests as f64)),
        (
            "embeddings_extended",
            JVal::Num(out.stats.embeddings_extended as f64),
        ),
        (
            "embeddings_spilled",
            JVal::Num(out.stats.embeddings_spilled as f64),
        ),
        (
            "peak_candidate_bytes",
            JVal::Num(out.stats.peak_candidate_bytes as f64),
        ),
        (
            "bitset_intersections",
            JVal::Num(out.stats.bitset_intersections as f64),
        ),
        ("soa_bytes", JVal::Num(out.stats.soa_bytes as f64)),
        ("patterns", JVal::Num(out.patterns.len() as f64)),
    ]);
    (row, out.stats.iso_tests)
}

fn subdue_row(scale: f64, seed: u64, vertices: usize, samples: usize) -> JVal {
    let p = Pipeline::synthetic(scale, seed);
    let txns = p.transactions();
    let scheme = BinScheme::fit_width_transactions(txns).expect("binning fits");
    let g = truncated_structural_graph(txns, &scheme, EdgeLabeling::GrossWeight, vertices);
    let cfg = SubdueConfig {
        max_size: 10,
        ..Default::default()
    };
    let name = format!("truncated_{vertices}v");
    let t = bench(&format!("subdue/{name}"), samples, || {
        discover(&g, &cfg).unwrap()
    });
    let out = discover(&g, &cfg).unwrap();
    JVal::obj([
        ("workload", JVal::Str(name)),
        ("wall_ms", JVal::Num(t.best_ms())),
        ("expanded", JVal::Num(out.expanded as f64)),
        (
            "embeddings_extended",
            JVal::Num(out.stats.embeddings_extended as f64),
        ),
        (
            "embeddings_spilled",
            JVal::Num(out.stats.embeddings_spilled as f64),
        ),
        (
            "patterns_derived",
            JVal::Num(out.stats.patterns_derived as f64),
        ),
        ("best", JVal::Num(out.best.len() as f64)),
    ])
}

/// Sum of the nanoseconds of every span labeled `label` in the tree.
fn span_nanos(node: &tnet_obs::SpanNode, label: &str) -> u64 {
    let own = if node.label == label { node.nanos } else { 0 };
    own + node
        .children
        .iter()
        .map(|c| span_nanos(c, label))
        .sum::<u64>()
}

/// Seed sensitivity of Algorithm 1 (`tnet mine` defaults — OD_GW,
/// breadth-first, 16 partitions, 2 repetitions, support 5, max 5 edges —
/// at scale 0.2 on one thread): the same job on two synthesis seeds.
/// Records best-of-N `support_count` span time and the deterministic
/// `fsg.iso_nodes_max` (search nodes of the most expensive scratch VF2
/// call) per seed, and the slower seed's time over the faster's.
fn seed_sensitivity_row(samples: usize) -> JVal {
    let cfg = FsgConfig::default()
        .with_support(Support::Count(5))
        .with_max_edges(5)
        .with_memory_budget(512 << 20);
    let mut rows = Vec::new();
    let mut times = Vec::new();
    for seed in [42u64, 2] {
        let p = Pipeline::synthetic(0.2, seed);
        let mut g = p
            .od_graph(EdgeLabeling::GrossWeight, VertexLabeling::Uniform)
            .graph;
        g.dedup_edges();
        let mut best_ms = f64::INFINITY;
        let mut counters = (0, 0, 0);
        let mut patterns = 0;
        for _ in 0..samples {
            let tracer = Tracer::new("seed_sensitivity");
            let registry = MetricsRegistry::new();
            let exec = Exec::new(1).with_obs(tracer.root(), registry.clone());
            patterns = mine_single_graph(&g, 16, 2, Strategy::BreadthFirst, 42, &exec, |t, e| {
                mine_with(t, &cfg, e)
                    .map(|out| {
                        out.patterns
                            .into_iter()
                            .map(|p| (p.graph, p.support))
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .len();
            best_ms = best_ms.min(span_nanos(&tracer.snapshot(), "support_count") as f64 / 1e6);
            counters = (
                registry.get("fsg.iso_tests"),
                registry.get("fsg.iso_nodes"),
                registry.get("fsg.iso_nodes_max"),
            );
        }
        println!(
            "seed_sensitivity/seed{seed}: support_count best {best_ms:.3} ms, \
             iso_nodes_max {} ({samples} samples)",
            counters.2
        );
        times.push(best_ms);
        rows.push(JVal::obj([
            ("seed", JVal::Num(seed as f64)),
            ("support_count_ms", JVal::Num(best_ms)),
            ("iso_tests", JVal::Num(counters.0 as f64)),
            ("iso_nodes", JVal::Num(counters.1 as f64)),
            ("iso_nodes_max", JVal::Num(counters.2 as f64)),
            ("patterns", JVal::Num(patterns as f64)),
        ]));
    }
    let (fast, slow) = (times[0].min(times[1]), times[0].max(times[1]));
    JVal::obj([
        ("scale", JVal::Num(0.2)),
        ("max_edges", JVal::Num(5.0)),
        ("threads", JVal::Num(1.0)),
        ("seeds", JVal::Arr(rows)),
        ("slow_over_fast", JVal::Num(slow / fast.max(1e-9))),
    ])
}

/// Renders a pattern set to a canonical string so two runs can be
/// compared byte-for-byte, not just by count. The frozen-vs-arena
/// differential goes through this — a byte mismatch means a
/// representation path changed results.
fn pattern_bytes(out: &tnet_fsg::FsgOutput) -> String {
    let mut s = String::new();
    for p in &out.patterns {
        s.push_str(&format!("{} {:?} {:?}\n", p.support, p.tids, p.graph));
    }
    s
}

/// Support-count microbench: the same FSG workload mined through the
/// frozen-CSR [`TxnSet`] and directly over the arena graphs. The TxnSet
/// is packed once outside the timed region, so the row isolates
/// traversal cost (candidate lookup + embedding extension); `freeze_ms`
/// reports the one-off packing cost separately. The two paths must mine
/// byte-identical pattern sets — support counting is
/// representation-blind.
fn support_count_row(
    name: &str,
    txns: &[Graph],
    support: usize,
    max_edges: usize,
    samples: usize,
) -> JVal {
    let cfg = FsgConfig::default()
        .with_support(Support::Count(support))
        .with_max_edges(max_edges);
    let exec = Exec::new(1);
    let freeze_before = FrozenStats::snapshot();
    let freeze_start = Instant::now();
    let frozen = TxnSet::freeze(txns);
    let freeze_ms = freeze_start.elapsed().as_secs_f64() * 1e3;
    let freeze_stats = FrozenStats::snapshot().since(&freeze_before);
    let tf = bench(&format!("support_count/{name}/frozen"), samples, || {
        mine_source(&frozen, &cfg, &exec).unwrap()
    });
    let mine_before = FrozenStats::snapshot();
    let out_f = mine_source(&frozen, &cfg, &exec).unwrap();
    let searches = FrozenStats::snapshot()
        .since(&mine_before)
        .adj_binary_searches;
    let ta = bench(&format!("support_count/{name}/arena"), samples, || {
        mine_source(txns, &cfg, &exec).unwrap()
    });
    let out_a = mine_source(txns, &cfg, &exec).unwrap();
    assert_eq!(
        pattern_bytes(&out_f),
        pattern_bytes(&out_a),
        "frozen and arena support counting must mine byte-identical patterns"
    );
    JVal::obj([
        ("workload", JVal::Str(name.into())),
        ("wall_ms_frozen", JVal::Num(tf.best_ms())),
        ("wall_ms_arena", JVal::Num(ta.best_ms())),
        (
            "frozen_over_arena",
            JVal::Num(tf.best_ms() / ta.best_ms().max(1e-9)),
        ),
        (
            "bitset_intersections",
            JVal::Num(out_f.stats.bitset_intersections as f64),
        ),
        ("soa_bytes", JVal::Num(out_f.stats.soa_bytes as f64)),
        ("freeze_ms", JVal::Num(freeze_ms)),
        ("freeze_count", JVal::Num(freeze_stats.freeze_count as f64)),
        ("csr_bytes", JVal::Num(freeze_stats.csr_bytes as f64)),
        ("adj_binary_searches", JVal::Num(searches as f64)),
        ("patterns", JVal::Num(out_f.patterns.len() as f64)),
    ])
}

/// Head-to-head on the same OD graph: Algorithm 1 (partition + FSG,
/// support = transactions containing the pattern) against the r-hop
/// neighborhood miner (support = centers whose induced neighborhood
/// embeds the pattern). The support definitions differ, so pattern
/// counts are reported side by side rather than asserted equal; the
/// row's point is the wall-clock story — partitioning replicates work
/// per repetition and per transaction, the neighborhood miner walks one
/// shared CSR. The scaled row (`scale_factor` ≥ 10, full runs only) is
/// the regime where per-transaction replication stops being viable.
fn partition_vs_neighborhood_row(name: &str, scale: f64, seed: u64, samples: usize) -> JVal {
    let p = Pipeline::synthetic(scale, seed);
    let od = p.od_graph(EdgeLabeling::GrossWeight, VertexLabeling::Uniform);
    let mut g = od.graph;
    g.dedup_edges();
    let exec = Exec::new(1);
    let fsg_cfg = FsgConfig::default()
        .with_support(Support::Count(4))
        .with_max_edges(3)
        .with_memory_budget(512 << 20);
    // Two repetitions, as the CLI defaults: Algorithm 1 re-splits and
    // re-mines per repetition to recover patterns lost at partition
    // boundaries, so its wall scales with the repetition count.
    let mine_partition = || {
        mine_single_graph(
            &g,
            10,
            2,
            Strategy::BreadthFirst,
            42,
            &exec,
            |t, e| match mine_with(t, &fsg_cfg, e) {
                Ok(out) => out
                    .patterns
                    .into_iter()
                    .map(|p| (p.graph, p.support))
                    .collect(),
                Err(_) => Vec::new(),
            },
        )
    };
    let tp = bench(&format!("pvn/{name}/partition"), samples, mine_partition);
    let part = mine_partition();
    let nbhd_cfg = NbhdConfig::default()
        .with_radius(1)
        .with_support(Support::Count(4))
        .with_max_edges(3);
    let tn = bench(&format!("pvn/{name}/neighborhood"), samples, || {
        mine_neighborhoods(&g, &nbhd_cfg, &exec).unwrap()
    });
    let nb = mine_neighborhoods(&g, &nbhd_cfg, &exec).unwrap();
    // Patterns only the neighborhood miner surfaces. The two support
    // definitions differ, so this mixes genuine partition-boundary
    // losses with definitional gaps — reported as one recall-flavored
    // number, not gated.
    let neighborhood_only = nb
        .patterns
        .iter()
        .filter(|np| {
            !part
                .iter()
                .any(|pp| tnet_graph::iso::are_isomorphic(&pp.pattern, &np.graph))
        })
        .count();
    JVal::obj([
        ("workload", JVal::Str(name.into())),
        ("scale_factor", JVal::Num(scale / 0.015)),
        ("vertices", JVal::Num(g.vertex_count() as f64)),
        ("edges", JVal::Num(g.edge_count() as f64)),
        ("wall_ms_partition", JVal::Num(tp.best_ms())),
        ("wall_ms_neighborhood", JVal::Num(tn.best_ms())),
        (
            "partition_over_neighborhood",
            JVal::Num(tp.best_ms() / tn.best_ms().max(1e-9)),
        ),
        ("patterns_partition", JVal::Num(part.len() as f64)),
        ("patterns_neighborhood", JVal::Num(nb.patterns.len() as f64)),
        (
            "patterns_neighborhood_only",
            JVal::Num(neighborhood_only as f64),
        ),
        ("nbhd_centers", JVal::Num(nb.stats.centers as f64)),
        ("nbhd_iso_tests", JVal::Num(nb.stats.iso_tests as f64)),
        ("nbhd_soa_bytes", JVal::Num(nb.stats.soa_bytes as f64)),
    ])
}

/// One extra, untimed pass over every miner with a live tracer and
/// registry attached: the per-phase wall breakdown and the unified
/// counter namespace embedded in the report as a `tnet-trace/v1` block.
fn traced_block(default_txns: &[Graph], subdue_graph: &Graph) -> JVal {
    let tracer = Tracer::new("bench_miners");
    let registry = MetricsRegistry::new();
    let exec = Exec::new(1).with_obs(tracer.root(), registry.clone());
    let fsg_cfg = FsgConfig::default()
        .with_support(Support::Count(4))
        .with_max_edges(4);
    let subdue_cfg = SubdueConfig {
        max_size: 10,
        ..Default::default()
    };
    let frozen_before = FrozenStats::snapshot();
    {
        let _total = exec.span().timer();
        mine_with(default_txns, &fsg_cfg, &exec).expect("traced fsg run");
        discover_with(subdue_graph, &subdue_cfg, &exec).expect("traced subdue run");
    }
    exec.counters().record_into(&registry);
    FrozenStats::snapshot()
        .since(&frozen_before)
        .publish(&mut |name, v| registry.add(name, v));
    json::trace_to_json(&tracer.snapshot(), &registry.snapshot())
}

/// Tracing off must cost nothing measurable: a million disabled-span
/// visits are one predictable branch each. A real regression — an
/// accidental clock read, allocation, or lock — blows past the returned
/// per-op cost by orders of magnitude (the gate sits at 250 ns/op).
fn disabled_span_ns_per_op() -> f64 {
    let span = Span::disabled();
    let iters = 1_000_000u32;
    let start = Instant::now();
    for _ in 0..iters {
        let _g = span.time("x");
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

const DISABLED_SPAN_GATE_NS: f64 = 250.0;

fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text, json::TRACE_MAX_DEPTH, "report")?;
    let miners = doc.get("miners").ok_or("report has no 'miners' object")?;
    for miner in ["fsg", "subdue"] {
        match miners.get(miner) {
            Some(JVal::Arr(rows)) if !rows.is_empty() => {}
            _ => return Err(format!("report is missing miner '{miner}'")),
        }
    }
    let trace = doc.get("trace").ok_or("report has no 'trace' block")?;
    let (_, metrics) =
        json::decode_trace(&trace.compact()).map_err(|e| format!("trace block: {e}"))?;
    // Frozen-graph and data-layout counters must flow through the
    // unified namespace.
    for key in [
        "graph.freeze_count",
        "graph.csr_bytes",
        "graph.adj_binary_searches",
        "graph.fingerprint_bytes",
        "exec.chunk_items",
        "fsg.bitset_intersections",
        "fsg.soa_bytes",
        "subdue.fingerprint_rejects",
    ] {
        if !metrics.contains_key(key) {
            return Err(format!("trace metrics missing '{key}'"));
        }
    }
    let sc = doc
        .get("support_count")
        .ok_or("report has no 'support_count' block")?;
    let num = |obj: &JVal, key: &str| -> Result<f64, String> {
        match obj.get(key) {
            Some(JVal::Num(r)) => Ok(*r),
            _ => Err(format!("support_count has no '{key}' number")),
        }
    };
    let ratio = num(sc, "frozen_over_arena")?;
    if ratio > SUPPORT_COUNT_RATIO_GATE {
        return Err(format!(
            "REGRESSION — frozen support counting is {ratio:.2}x arena, \
             gate is {SUPPORT_COUNT_RATIO_GATE}"
        ));
    }
    // The hardwired data-layout techniques must still be exercised:
    // their counters are live on the bench workload.
    if num(sc, "bitset_intersections")? <= 0.0 {
        return Err("support_count.bitset_intersections is 0 — the bitset TID \
                    path is never taken on the bench workload"
            .into());
    }
    if num(sc, "soa_bytes")? <= 0.0 {
        return Err("support_count.soa_bytes is 0 — the SoA embedding stores \
                    are never populated on the bench workload"
            .into());
    }
    // Partition-vs-neighborhood head-to-head: the block must be
    // present, every row's neighborhood run must have completed (live
    // centers, recorded wall), and a full (non-smoke) report must carry
    // the ≥10× scaled row.
    let pvn = match doc.get("partition_vs_neighborhood") {
        Some(JVal::Arr(rows)) if !rows.is_empty() => rows,
        Some(JVal::Arr(_)) => return Err("partition_vs_neighborhood block is empty".into()),
        _ => return Err("report has no 'partition_vs_neighborhood' block".into()),
    };
    let mut max_scale = 0.0f64;
    for row in pvn {
        let centers = num(row, "nbhd_centers")
            .map_err(|_| "partition_vs_neighborhood row missing 'nbhd_centers'".to_string())?;
        if centers <= 0.0 {
            return Err("partition_vs_neighborhood row has nbhd_centers = 0 — the \
                        neighborhood miner never enumerated a center"
                .into());
        }
        let wall = num(row, "wall_ms_neighborhood").map_err(|_| {
            "partition_vs_neighborhood row missing 'wall_ms_neighborhood'".to_string()
        })?;
        if wall <= 0.0 {
            return Err(
                "partition_vs_neighborhood row has wall_ms_neighborhood = 0 — \
                        the neighborhood run did not complete"
                    .into(),
            );
        }
        max_scale = max_scale.max(num(row, "scale_factor").unwrap_or(0.0));
    }
    let is_smoke = matches!(doc.get("smoke"), Some(JVal::Bool(true)));
    if !is_smoke {
        let row = doc
            .get("seed_sensitivity")
            .ok_or("full report has no 'seed_sensitivity' row")?;
        match row.get("seeds") {
            Some(JVal::Arr(seeds)) if seeds.len() == 2 => {}
            _ => return Err("seed_sensitivity row does not carry two seeds".into()),
        }
        let ratio = num(row, "slow_over_fast")?;
        if ratio > SEED_SENSITIVITY_GATE {
            return Err(format!(
                "REGRESSION — seed_sensitivity slow_over_fast = {ratio:.2}, gate is \
                 {SEED_SENSITIVITY_GATE}: support counting cost depends on the synthesis seed"
            ));
        }
    }
    if !is_smoke && max_scale < 10.0 {
        return Err(format!(
            "full report's partition_vs_neighborhood block has no ≥10× scaled row \
             (max scale_factor {max_scale:.1})"
        ));
    }
    println!(
        "{path}: valid, both miners, trace block with graph.*/layout counters, \
         and support_count block present (frozen/arena = {ratio:.2})"
    );
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_miners: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &opts.validate {
        return match validate(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench_miners: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let samples = if opts.smoke { 1 } else { 3 };
    let default_txns = split_workload(0.015, opts.seed, 10);

    let (fsg_default, default_iso) = fsg_row("default", &default_txns, 4, 4, samples);
    let mut fsg_rows = vec![fsg_default];
    if !opts.smoke {
        // Large-transaction split: few, dense transactions — the shape
        // where scratch VF2 hurts most and propagation pays off hardest.
        let large_txns = split_workload(0.2, opts.seed, 4);
        fsg_rows.push(fsg_row("large_txn", &large_txns, 4, 4, samples).0);
    }
    let support_count = support_count_row("default", &default_txns, 4, 4, samples);
    let mut pvn_rows = vec![partition_vs_neighborhood_row(
        "base", 0.015, opts.seed, samples,
    )];
    if !opts.smoke {
        // The ≥10× scaled OD graph: the regime where partitioning's
        // per-transaction replication stops being viable.
        pvn_rows.push(partition_vs_neighborhood_row(
            "scaled_10x",
            0.15,
            opts.seed,
            samples,
        ));
    }
    let seed_sensitivity = (!opts.smoke).then(|| seed_sensitivity_row(samples));
    let subdue_vertices = if opts.smoke { 25 } else { 50 };
    let subdue_rows = vec![subdue_row(0.015, opts.seed, subdue_vertices, samples)];

    // The per-phase trace block reuses the subdue workload's graph.
    let subdue_graph = {
        let p = Pipeline::synthetic(0.015, opts.seed);
        let scheme = BinScheme::fit_width_transactions(p.transactions()).expect("binning fits");
        truncated_structural_graph(
            p.transactions(),
            &scheme,
            EdgeLabeling::GrossWeight,
            subdue_vertices,
        )
    };
    let trace = traced_block(&default_txns, &subdue_graph);
    let disabled_ns = disabled_span_ns_per_op();

    let mut doc = JVal::obj([
        ("schema", JVal::Str("tnet-bench-miners/v1".into())),
        ("seed", JVal::Num(opts.seed as f64)),
        ("smoke", JVal::Bool(opts.smoke)),
        ("trace", trace),
        ("support_count", support_count),
        ("partition_vs_neighborhood", JVal::Arr(pvn_rows)),
        ("disabled_span_ns_per_op", JVal::Num(disabled_ns)),
        (
            "miners",
            JVal::obj([
                ("fsg", JVal::Arr(fsg_rows)),
                ("subdue", JVal::Arr(subdue_rows)),
            ]),
        ),
        (
            "baseline",
            JVal::obj([
                (
                    "note",
                    JVal::Str(
                        "development-host baselines, best of 3: '*_wall_ms' are scratch-VF2 \
                         numbers predating embedding propagation; '*_pre_layout_wall_ms' are \
                         propagated + frozen-CSR numbers predating the data-layout pass \
                         (bitset TIDs, SoA stores, fingerprint filters, L2 chunking)"
                            .into(),
                    ),
                ),
                (
                    "fsg_default_wall_ms",
                    JVal::Num(BASELINE_FSG_DEFAULT_WALL_MS),
                ),
                (
                    "fsg_default_iso_tests",
                    JVal::Num(BASELINE_FSG_DEFAULT_ISO_TESTS as f64),
                ),
                (
                    "fsg_large_txn_wall_ms",
                    JVal::Num(BASELINE_FSG_LARGE_TXN_WALL_MS),
                ),
                (
                    "fsg_large_txn_pre_layout_wall_ms",
                    JVal::Num(BASELINE_FSG_LARGE_TXN_PRE_LAYOUT_WALL_MS),
                ),
                (
                    "subdue_truncated_50v_pre_layout_wall_ms",
                    JVal::Num(BASELINE_SUBDUE_50V_PRE_LAYOUT_WALL_MS),
                ),
            ]),
        ),
    ]);
    if let (Some(row), JVal::Obj(fields)) = (seed_sensitivity, &mut doc) {
        fields.push(("seed_sensitivity".into(), row));
    }
    if let Err(e) = std::fs::write(&opts.out, doc.pretty()) {
        eprintln!("bench_miners: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", opts.out);

    if disabled_ns > DISABLED_SPAN_GATE_NS {
        eprintln!(
            "bench_miners: REGRESSION — disabled span costs {disabled_ns:.1} ns/op, \
             gate is {DISABLED_SPAN_GATE_NS} (tracing off must be free)"
        );
        return ExitCode::FAILURE;
    }
    println!("disabled span: {disabled_ns:.2} ns/op (gate {DISABLED_SPAN_GATE_NS})");

    if default_iso > FSG_DEFAULT_ISO_GATE {
        eprintln!(
            "bench_miners: REGRESSION — fsg/default iso_tests = {default_iso}, \
             gate is {FSG_DEFAULT_ISO_GATE} (scratch baseline {BASELINE_FSG_DEFAULT_ISO_TESTS})"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "fsg/default iso_tests = {default_iso} (gate {FSG_DEFAULT_ISO_GATE}, \
         scratch baseline {BASELINE_FSG_DEFAULT_ISO_TESTS})"
    );
    ExitCode::SUCCESS
}
