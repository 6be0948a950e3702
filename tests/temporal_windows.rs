//! Differential suite for windowed temporal mining (DESIGN.md §16).
//!
//! `run_windows` freezes every unit's graphs once into one `TxnSet` and
//! mines each window as a slice of it. The bar: every window's output is
//! byte-identical to an independent freeze-and-mine of that window's
//! graphs (`mine_with` on `UnitPartition::window_graphs`) — same
//! patterns, same supports, same TID lists, same order — and the whole
//! run is byte-identical at any thread count.

use tnet_data::binning::BinScheme;
use tnet_data::{generate, SynthConfig};
use tnet_exec::Exec;
use tnet_fsg::{mine_with, FsgConfig, FsgOutput, Support};
use tnet_graph::canon::invariant_hash;
use tnet_partition::{unit_partition, Granularity, TemporalOptions, WindowSpec};
use tnet_temporal::{run_windows, TemporalConfig, TemporalRun};

fn dataset() -> Vec<tnet_data::Transaction> {
    generate(&SynthConfig::scaled(0.01)).transactions
}

/// Week windows hold only two or three (large) transactions at this
/// scale, so they mine at support 2 to have patterns to compare.
fn fsg_cfg(spec: WindowSpec) -> FsgConfig {
    let support = if spec.granularity == Granularity::Week {
        2
    } else {
        3
    };
    FsgConfig::default()
        .with_support(Support::Count(support))
        .with_max_edges(3)
}

/// Deterministic render of one miner output: iso invariant hash,
/// vertex/edge counts, support, and the exact TID list, in mined order.
/// Two outputs are byte-identical iff these strings match.
fn render_output(out: &FsgOutput) -> String {
    let mut s = String::new();
    for p in &out.patterns {
        s.push_str(&format!(
            "  {:016x} v{} e{} support {} tids {:?}\n",
            invariant_hash(&p.graph),
            p.graph.vertex_count(),
            p.graph.edge_count(),
            p.support,
            p.tids
        ));
    }
    s
}

/// Every window's range and full pattern output, in window order.
fn render(run: &TemporalRun) -> String {
    let mut s = String::new();
    for w in &run.windows {
        s.push_str(&format!(
            "window [{}, {}) txns [{}, {})\n",
            w.unit_lo, w.unit_hi, w.txn_lo, w.txn_hi
        ));
        s.push_str(&render_output(&w.output));
    }
    s
}

fn run(txns: &[tnet_data::Transaction], spec: WindowSpec, exec: &Exec) -> TemporalRun {
    let cfg = TemporalConfig::new(spec).with_fsg(fsg_cfg(spec));
    run_windows(
        txns,
        &BinScheme::paper_defaults(),
        &TemporalOptions::default(),
        &cfg,
        exec,
    )
    .unwrap()
}

fn specs() -> Vec<(&'static str, WindowSpec)> {
    vec![
        (
            "tumbling hour",
            WindowSpec::tumbling(Granularity::Hour, 24).unwrap(),
        ),
        (
            "sliding hour",
            WindowSpec::new(Granularity::Hour, 48, 24).unwrap(),
        ),
        (
            "tumbling day",
            WindowSpec::tumbling(Granularity::Day, 7).unwrap(),
        ),
        (
            "sliding day",
            WindowSpec::new(Granularity::Day, 7, 1).unwrap(),
        ),
        (
            "tumbling week",
            WindowSpec::tumbling(Granularity::Week, 2).unwrap(),
        ),
        (
            "sliding week",
            WindowSpec::new(Granularity::Week, 2, 1).unwrap(),
        ),
    ]
}

#[test]
fn windows_equal_independent_mining_at_every_granularity() {
    let txns = dataset();
    let exec = Exec::new(2);
    let scheme = BinScheme::paper_defaults();
    let opts = TemporalOptions::default();
    for (name, spec) in specs() {
        let r = run(&txns, spec, &exec);
        assert!(r.windows.len() > 1, "{name}: too few windows to compare");
        assert!(
            r.windows.iter().any(|w| !w.output.patterns.is_empty()),
            "{name}: no window mined any pattern"
        );
        assert_eq!(r.session.windows, r.windows.len(), "{name}");
        assert_eq!(r.session.full_recounts, r.windows.len(), "{name}");
        let up = unit_partition(&txns, &scheme, spec.granularity, &opts).unwrap();
        for (i, w) in r.windows.iter().enumerate() {
            assert_eq!(
                (w.txn_lo, w.txn_hi),
                up.txn_range(w.unit_lo, w.unit_hi),
                "{name}: window {i}"
            );
            let graphs = up.window_graphs(w.unit_lo, w.unit_hi);
            let alone = mine_with(graphs, &fsg_cfg(spec), &exec).unwrap();
            assert_eq!(
                render_output(&w.output),
                render_output(&alone),
                "{name}: window {i} diverged from mining its graphs on their own"
            );
        }
    }
}

#[test]
fn windowed_output_is_thread_invariant() {
    let txns = dataset();
    for (name, spec) in specs() {
        let baseline = render(&run(&txns, spec, &Exec::new(1)));
        for threads in [2usize, 8] {
            assert_eq!(
                render(&run(&txns, spec, &Exec::new(threads))),
                baseline,
                "{name}: output diverged at {threads} threads"
            );
        }
    }
}
