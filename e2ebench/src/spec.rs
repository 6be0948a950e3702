//! What the benchmark measures: its workloads and the metrics each run
//! reports. `BENCHMARK.json` at the repository root declares the same
//! names; a unit test keeps the two in step.

/// One workload: a fixed job over a generated input, run in its own
/// process so that its peak RSS is its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MinePaper,
    MineNbhd,
    TemporalDay,
    Report,
    ServeMixed,
}

pub struct WorkloadSpec {
    pub workload: Workload,
    pub name: &'static str,
    /// One-line reason the workload exists (printed in every record).
    pub why: &'static str,
    /// Input size as a share of the paper's 98,292 transactions.
    pub scale: f64,
    /// The size the benchmark's own tests run.
    pub tiny_scale: f64,
    /// Exec pool threads (serve: query threads per connection).
    pub threads: usize,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        workload: Workload::MinePaper,
        name: "mine_paper",
        why: "the paper's headline job, Algorithm 1 with `tnet mine` defaults at paper scale; \
              FSG support counting and candidate generation dominate it",
        scale: 1.0,
        tiny_scale: 0.01,
        threads: 2,
    },
    WorkloadSpec {
        workload: Workload::MineNbhd,
        name: "mine_nbhd",
        why: "the only workload that reaches the r-hop neighborhood miner (fsg::nbhd)",
        scale: 0.01,
        tiny_scale: 0.004,
        threads: 1,
    },
    WorkloadSpec {
        workload: Workload::TemporalDay,
        name: "temporal_day",
        why: "sliding day windows through MineSession's delta path plus flow detection, \
              which no other workload touches",
        scale: 0.2,
        tiny_scale: 0.01,
        threads: 1,
    },
    WorkloadSpec {
        workload: Workload::Report,
        name: "report",
        why: "the whole E-series report with extensions: the only run of SUBDUE, tabular, \
              dynamic and the supervisor",
        scale: 0.1,
        tiny_scale: 0.01,
        threads: 1,
    },
    WorkloadSpec {
        workload: Workload::ServeMixed,
        name: "serve_mixed",
        why: "the durable daemon on fsync-always with reads beside scheduled writes, \
              so a gain on one path that costs the other shows",
        scale: 1.0,
        tiny_scale: 0.01,
        threads: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A declared metric.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("read_p50_ms", "ms", "lower"),
    m("read_p99_ms", "ms", "lower"),
    m("read_qps", "1/s", "higher"),
    m("visible_p50_ms", "ms", "lower"),
];

/// The report sections the supervisor records spans for, as
/// `(metric key, the section title's prefix before the colon)`.
pub const REPORT_SECTIONS: &[(&str, &str)] = &[
    ("E1", "E1"),
    ("E2", "E2"),
    ("E3", "E3"),
    ("E4", "E4"),
    ("E5", "E5"),
    ("Figure2", "Figure 2"),
    ("Figure3", "Figure 3"),
    ("E8", "E8"),
    ("E9-E11", "E9-E11"),
    ("E12", "E12"),
    ("E13", "E13"),
    ("E14-15", "E14/15"),
    ("E16", "E16"),
];

const PER_LAYER_FIXED: &[MetricSpec] = &[
    m("data.read_csv_ms", "ms", "lower"),
    m("data.bin_fit_ms", "ms", "lower"),
    m("data.od_graph_ms", "ms", "lower"),
    m("partition.split_ms", "ms", "lower"),
    m("fsg.mine_ms", "ms", "lower"),
    m("fsg.mine_calls", "count", "lower"),
    m("fsg.candidates", "count", "lower"),
    m("fsg.frequent", "count", "higher"),
    m("fsg.frequent_per_candidate", "ratio", "higher"),
    m("fsg.iso_tests", "count", "lower"),
    m("fsg.embeddings_extended", "count", "lower"),
    m("fsg.peak_candidate_bytes", "bytes", "lower"),
    m("fsg.nbhd_ms", "ms", "lower"),
    m("fsg.nbhd_iso_tests", "count", "lower"),
    m("fsg.nbhd_fingerprint_rejects", "count", "higher"),
    m("fsg.nbhd_soa_bytes", "bytes", "lower"),
    m("fsg.session_delta_windows", "count", "higher"),
    m("fsg.session_full_recounts", "count", "lower"),
    m("fsg.session_skip_ratio", "ratio", "higher"),
    m("graph.freeze_count", "count", "lower"),
    m("graph.csr_bytes", "bytes", "lower"),
    m("graph.adj_binary_searches", "count", "lower"),
    m("temporal.run_windows_ms", "ms", "lower"),
    m("temporal.detect_flows_ms", "ms", "lower"),
    m("dynamic.extensions_ms", "ms", "lower"),
    m("exec.busy_ms", "ms", "lower"),
    m("exec.idle_ms", "ms", "lower"),
    m("exec.utilization", "ratio", "higher"),
    m("serve.start_ms", "ms", "lower"),
    m("serve.generation_build_ms", "ms", "lower"),
    m("serve.execute_ms.stats", "ms", "lower"),
    m("serve.execute_ms.support", "ms", "lower"),
    m("serve.execute_ms.pattern", "ms", "lower"),
    m("serve.parse_us", "us", "lower"),
    m("serve.cache_hit_ratio", "ratio", "higher"),
    m("serve.server_p50_us", "us", "lower"),
    m("serve.server_p99_us", "us", "lower"),
    m("serve.ack_p50_ms", "ms", "lower"),
    m("serve.publishes", "count", "lower"),
    m("serve.wal_fsync_p50_ms", "ms", "lower"),
    m("obs.trace_overhead_pct", "%", "lower"),
    m("obs.span_coverage_pct", "%", "higher"),
];

/// Printed by every traced run (`--trace 1`), in this order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = PER_LAYER_FIXED
        .iter()
        .map(|s| (s.name.to_string(), s.unit, s.better))
        .collect();
    // The section block sits after the fsg/graph/temporal layers.
    let at = out
        .iter()
        .position(|(n, _, _)| n == "dynamic.extensions_ms")
        .expect("declared above");
    for (i, (key, _)) in REPORT_SECTIONS.iter().enumerate() {
        out.insert(at + i, (section_metric(key), "ms", "lower"));
    }
    out
}

pub fn section_metric(key: &str) -> String {
    format!("core.section_ms.{key}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[A-Za-z0-9_.-]+`, at most 64 characters, starting with a letter or
    /// digit: the names the result line may carry.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique_with_a_unit() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|s| (s.name.to_string(), s.unit, s.better))
            .chain(per_layer());
        for (name, unit, better) in names {
            assert!(valid_name(&name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "metric {name} has bad unit {unit:?}");
            assert!(better == "lower" || better == "higher", "{name}: {better}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s"));
    }

    #[test]
    fn workload_names_are_valid() {
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |name: &str| doc.contains(&format!("\"name\": \"{name}\""));
        for s in END_TO_END {
            assert!(declared(s.name), "{} missing from BENCHMARK.json", s.name);
        }
        for (name, _, _) in per_layer() {
            assert!(declared(&name), "{name} missing from BENCHMARK.json");
        }
        for w in &WORKLOADS {
            assert!(declared(w.name), "workload {} missing", w.name);
        }
        let entries = doc.matches("\"name\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + per_layer().len() + WORKLOADS.len(),
            "BENCHMARK.json declares names the benchmark does not print"
        );
    }
}
