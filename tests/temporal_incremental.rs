//! Differential suite for incremental mining sessions (DESIGN.md §16).
//!
//! The byte-identity bar: a `MineSession` driven over tumbling and
//! sliding windows at every granularity must produce exactly what full
//! per-window re-mining produces — same patterns, same supports, same
//! TID lists, same order — at any thread count. The incremental path
//! shares the stateless miner's candidate generation and only changes
//! how support sets are computed, so any divergence here is a counting
//! bug, not a tolerance question.

use tnet_data::binning::BinScheme;
use tnet_data::{generate, SynthConfig};
use tnet_exec::Exec;
use tnet_fsg::{FsgConfig, Support};
use tnet_graph::canon::invariant_hash;
use tnet_graph::delta::GraphDelta;
use tnet_graph::frozen::TxnSet;
use tnet_partition::{unit_partition, Granularity, TemporalOptions, WindowSpec};
use tnet_temporal::{run_windows, TemporalConfig, TemporalRun};

fn dataset() -> Vec<tnet_data::Transaction> {
    generate(&SynthConfig::scaled(0.01)).transactions
}

fn fsg_cfg() -> FsgConfig {
    FsgConfig::default()
        .with_support(Support::Count(3))
        .with_max_edges(2)
}

/// Deterministic render of every window's full pattern output: iso
/// invariant hash, vertex/edge counts, support, and the exact TID list,
/// in mined order. Two runs are byte-identical iff these strings match.
fn render(run: &TemporalRun) -> String {
    let mut out = String::new();
    for w in &run.windows {
        out.push_str(&format!(
            "window [{}, {}) txns [{}, {})\n",
            w.unit_lo, w.unit_hi, w.txn_lo, w.txn_hi
        ));
        for p in &w.output.patterns {
            out.push_str(&format!(
                "  {:016x} v{} e{} support {} tids {:?}\n",
                invariant_hash(&p.graph),
                p.graph.vertex_count(),
                p.graph.edge_count(),
                p.support,
                p.tids
            ));
        }
    }
    out
}

fn run(
    txns: &[tnet_data::Transaction],
    spec: WindowSpec,
    incremental: bool,
    exec: &Exec,
) -> TemporalRun {
    let cfg = TemporalConfig::new(spec)
        .with_fsg(fsg_cfg())
        .with_incremental(incremental);
    run_windows(
        txns,
        &BinScheme::paper_defaults(),
        &TemporalOptions::default(),
        &cfg,
        exec,
    )
    .unwrap()
}

fn specs() -> Vec<(&'static str, WindowSpec, bool)> {
    // (name, spec, sliding): sliding specs must actually exercise the
    // delta path; tumbling specs must all fall back to full re-counts.
    vec![
        (
            "tumbling hour",
            WindowSpec::tumbling(Granularity::Hour, 24).unwrap(),
            false,
        ),
        (
            "sliding hour",
            WindowSpec::new(Granularity::Hour, 48, 24).unwrap(),
            true,
        ),
        (
            "tumbling day",
            WindowSpec::tumbling(Granularity::Day, 7).unwrap(),
            false,
        ),
        (
            "sliding day",
            WindowSpec::new(Granularity::Day, 7, 2).unwrap(),
            true,
        ),
        (
            "tumbling week",
            WindowSpec::tumbling(Granularity::Week, 2).unwrap(),
            false,
        ),
        (
            "sliding week",
            WindowSpec::new(Granularity::Week, 2, 1).unwrap(),
            true,
        ),
    ]
}

#[test]
fn incremental_equals_full_at_every_granularity() {
    let txns = dataset();
    let exec = Exec::new(2);
    for (name, spec, sliding) in specs() {
        let inc = run(&txns, spec, true, &exec);
        let full = run(&txns, spec, false, &exec);
        assert_eq!(
            render(&inc),
            render(&full),
            "{name}: incremental output diverged from full re-mining"
        );
        // The full run never takes the delta path...
        assert_eq!(full.session.incremental_windows, 0, "{name}");
        assert_eq!(full.session.full_recounts, full.windows.len(), "{name}");
        // ...and the sliding specs genuinely exercise it.
        if sliding {
            assert!(
                inc.session.incremental_windows > 0,
                "{name}: sliding windows never hit the delta path"
            );
        } else {
            assert_eq!(
                inc.session.incremental_windows, 0,
                "{name}: tumbling windows share no transactions"
            );
        }
    }
}

#[test]
fn incremental_output_is_thread_invariant() {
    let txns = dataset();
    let spec = WindowSpec::new(Granularity::Day, 7, 2).unwrap();
    let baseline = render(&run(&txns, spec, true, &Exec::new(1)));
    for threads in [2usize, 8] {
        let r = run(&txns, spec, true, &Exec::new(threads));
        assert_eq!(
            render(&r),
            baseline,
            "incremental output diverged at {threads} threads"
        );
    }
    // Full re-mining at 8 threads lands on the same bytes too.
    assert_eq!(render(&run(&txns, spec, false, &Exec::new(8))), baseline);
}

/// The session's fixed churn rule, recomputed from window deltas alone:
/// a window after the first takes the delta path exactly when it shares
/// transactions with its predecessor and `churn() <= 0.5`. Tumbling
/// windows share nothing, so they never do.
#[test]
fn incremental_windows_follow_the_churn_rule() {
    let txns = dataset();
    let exec = Exec::sequential();
    let scheme = BinScheme::paper_defaults();
    let opts = TemporalOptions::default();
    for (spec, tumbling) in [
        (WindowSpec::new(Granularity::Day, 7, 1).unwrap(), false),
        (WindowSpec::new(Granularity::Hour, 48, 24).unwrap(), false),
        (WindowSpec::new(Granularity::Week, 2, 1).unwrap(), false),
        (WindowSpec::tumbling(Granularity::Day, 7).unwrap(), true),
        (WindowSpec::tumbling(Granularity::Hour, 24).unwrap(), true),
        (WindowSpec::tumbling(Granularity::Week, 2).unwrap(), true),
    ] {
        let up = unit_partition(&txns, &scheme, spec.granularity, &opts).unwrap();
        let set = TxnSet::freeze(&up.graphs);
        let ranges: Vec<(usize, usize)> = spec
            .windows(up.units())
            .into_iter()
            .map(|(lo, hi)| up.txn_range(lo, hi))
            .collect();
        let expected = ranges
            .windows(2)
            .filter(|w| {
                let d = GraphDelta::between(&set, w[0], w[1]);
                let (olo, ohi) = d.overlap();
                ohi > olo && d.churn() <= 0.5
            })
            .count();
        let got = run(&txns, spec, true, &exec).session.incremental_windows;
        assert_eq!(got, expected, "{spec:?}");
        if tumbling {
            assert_eq!(got, 0, "{spec:?}: tumbling windows share no transactions");
        } else {
            assert!(
                got > 0,
                "{spec:?}: sliding windows never hit the delta path"
            );
        }
    }
}
