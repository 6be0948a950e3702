//! The supervised-pipeline contract: under any armed failpoint the full
//! report still completes — failed sections render a notice, retryable
//! aborts trigger one degraded retry, and the end-of-report summary
//! always appears. Unarmed, the report stays byte-deterministic across
//! thread counts.

use std::sync::Mutex;
use std::time::Duration;
use tnet_core::pipeline::Pipeline;
use tnet_core::supervisor::{run_section, SectionCtx, SectionStatus, SupervisorConfig};
use tnet_core::Effort;
use tnet_exec::failpoint;
use tnet_exec::Exec;
use tnet_fsg::{mine_neighborhoods, NbhdConfig, NbhdError, Support};
use tnet_graph::generate::shapes;
use tnet_graph::graph::{ELabel, Graph, VLabel};
use tnet_subdue::{discover_with, SubdueConfig};

/// Failpoint state is process-global: every test that arms (or must
/// observe an unarmed registry) serializes on this lock and disarms via
/// the guard, even when an assertion fails mid-test.
static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

struct ArmGuard<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl<'a> ArmGuard<'a> {
    fn arm(spec: &str) -> ArmGuard<'a> {
        let guard = FAILPOINT_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        failpoint::disarm();
        failpoint::arm(spec).expect("valid failpoint spec");
        ArmGuard(guard)
    }

    fn unarmed() -> ArmGuard<'a> {
        let guard = FAILPOINT_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        failpoint::disarm();
        ArmGuard(guard)
    }
}

impl Drop for ArmGuard<'_> {
    fn drop(&mut self) {
        failpoint::disarm();
    }
}

const SCALE: f64 = 0.008;
const SECTIONS: usize = 13;

fn report_pipeline() -> Pipeline {
    Pipeline::synthetic(SCALE, 42)
}

/// Durations in the report (E2/E3 runtimes, sweep times) differ between
/// any two runs; scrub them before comparing text.
fn scrub_durations(report: &str) -> String {
    report
        .lines()
        .map(|line| {
            line.split_whitespace()
                .map(|tok| {
                    let t = tok.trim_matches(|c| c == '(' || c == ')');
                    let is_duration = ["ns", "\u{b5}s", "ms", "s"].iter().any(|unit| {
                        t.strip_suffix(unit)
                            .is_some_and(|num| num.parse::<f64>().is_ok())
                    });
                    if is_duration {
                        "[time]"
                    } else {
                        tok
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn injected_error_fails_one_section_and_the_rest_complete() {
    let _g = ArmGuard::arm("em::iteration=err");
    let p = report_pipeline();
    let out = p.full_report_supervised(SCALE, 42, &Exec::new(4), &SupervisorConfig::default());
    assert_eq!(out.failed, 1, "only the EM section hits em::iteration");
    assert_eq!(out.degraded, 0, "an injected fault is not retryable");
    assert_eq!(out.ok, SECTIONS - 1);
    assert!(
        out.text
            .contains("!! section failed: em: injected fault at failpoint `em::iteration`"),
        "missing failure notice:\n{}",
        out.text
    );
    assert!(out.text.contains("=== E14/15: EM clustering ==="));
    assert!(out.text.contains("=== E12: association rules"));
    assert!(
        out.text
            .ends_with("sections: 12 ok, 0 degraded, 1 failed\n"),
        "missing summary line:\n{}",
        out.text
    );
}

#[test]
fn injected_panic_is_isolated_to_the_subdue_sections() {
    let _g = ArmGuard::arm("subdue::beam_eval=panic");
    let p = report_pipeline();
    let out = p.full_report_supervised(SCALE, 42, &Exec::new(4), &SupervisorConfig::default());
    // E2, E3, and E4 run the beam search; nothing else does.
    assert_eq!(out.failed, 3, "summary: {}", out.text);
    assert_eq!(out.ok, SECTIONS - 3);
    assert!(
        out.text
            .contains("panicked: injected panic at failpoint `subdue::beam_eval`"),
        "missing panic notice:\n{}",
        out.text
    );
    // The panic did not take the report down: later sections rendered.
    assert!(out.text.contains("=== E13: classification"));
    assert!(out.text.contains("sections: 10 ok, 0 degraded, 3 failed\n"));
}

/// Regression for the metrics registry after a caught panic: later
/// sections' counter flushes (`record_into` → `MetricsRegistry::add`)
/// must keep working, and the registry must stay readable, even though
/// a supervised section panicked mid-run. With a poison-propagating
/// registry this test dies in the first post-panic flush.
#[test]
fn counter_flushes_survive_a_panicked_section() {
    let _g = ArmGuard::arm("subdue::beam_eval=panic");
    let p = report_pipeline();
    let exec = Exec::new(4);
    let out = p.full_report_supervised(SCALE, 42, &exec, &SupervisorConfig::default());
    assert_eq!(out.failed, 3, "summary: {}", out.text);
    // Sections after the panicking ones flushed their counters: the
    // miners that ran post-panic recorded work into the shared registry.
    let snap = exec.metrics().snapshot();
    assert!(
        snap.keys().any(|k| k.starts_with("fsg.")),
        "post-panic FSG sections flushed no counters: {snap:?}"
    );
    // And the registry still accepts writes and reads.
    exec.metrics().add("test.after_panic", 1);
    assert_eq!(exec.metrics().get("test.after_panic"), 1);
}

#[test]
fn injected_fsg_error_fails_the_temporal_section() {
    let _g = ArmGuard::arm("fsg::candidate_gen=err");
    let p = report_pipeline();
    let out = p.full_report_supervised(SCALE, 42, &Exec::new(4), &SupervisorConfig::default());
    // Only the sections that propagate FSG errors fail: the §6 temporal
    // chain and the E16 windowed sessions (Algorithm 1's partition
    // runners treat a failed partition as yielding nothing).
    assert_eq!(out.failed, 2, "summary: {}", out.text);
    assert!(
        out.text
            .contains("injected fault at failpoint `fsg::candidate_gen`"),
        "missing fault notice:\n{}",
        out.text
    );
    assert!(out
        .text
        .contains("=== E9-E11: temporal partitioning and filtered mining ==="));
    assert!(out
        .text
        .contains("=== E16: temporal windows and flow patterns ==="));
}

/// The neighborhood miner runs FSG's level loop, so an armed
/// `fsg::candidate_gen` fires there too. It must surface as a typed
/// fault, not as a cancellation or a panic.
#[test]
fn injected_fsg_error_is_a_typed_neighborhood_fault() {
    let _g = ArmGuard::arm("fsg::candidate_gen=err");
    let g = shapes::hub_and_spoke(4, 0, 1);
    let cfg = NbhdConfig::default()
        .with_support(Support::Count(1))
        .with_max_edges(3);
    match mine_neighborhoods(&g, &cfg, &Exec::new(2)) {
        Err(NbhdError::Fault(fault)) => assert_eq!(fault.site, "fsg::candidate_gen"),
        other => panic!("expected an injected fault, got {other:?}"),
    }
}

#[test]
fn delay_fault_past_deadline_fails_with_deadline_error() {
    let _g = ArmGuard::arm("em::iteration=delay:700");
    let p = report_pipeline();
    let cfg = SupervisorConfig {
        section_deadline: Some(Duration::from_millis(300)),
        section_budget: None,
    };
    let out = p.full_report_supervised(SCALE, 42, &Exec::new(4), &cfg);
    // The injected delay guarantees the EM section blows its deadline
    // (other slow sections may too; that is the deadline working).
    assert!(out.failed >= 1, "summary: {}", out.text);
    assert!(
        out.text
            .contains("section `E14/15: EM clustering` exceeded its 300ms deadline"),
        "missing deadline notice:\n{}",
        out.text
    );
    assert!(out.ok >= 1, "fast sections still complete: {}", out.text);
    assert!(out.text.contains("\nsections: "), "summary line missing");
}

#[test]
fn budget_abort_triggers_degraded_retry() {
    let _g = ArmGuard::unarmed();
    // A graph the 2 KiB budget cannot hold...
    let mut big = Graph::new();
    for _ in 0..40 {
        let a = big.add_vertex(VLabel(0));
        let b = big.add_vertex(VLabel(0));
        big.add_edge(a, b, ELabel(0));
    }
    // ...and one it trivially can.
    let mut small = Graph::new();
    let a = small.add_vertex(VLabel(0));
    let b = small.add_vertex(VLabel(1));
    small.add_edge(a, b, ELabel(0));

    let exec = Exec::new(2);
    let cfg = SupervisorConfig {
        section_deadline: None,
        section_budget: Some(2_048),
    };
    let out = run_section("subdue budgeted", &cfg, &exec, 1, &|ctx: &SectionCtx| {
        let g = match ctx.effort {
            Effort::Normal => &big,
            Effort::Degraded => &small,
        };
        let sub_cfg = SubdueConfig {
            memory_budget: ctx.budget,
            ..Default::default()
        };
        let found = discover_with(g, &sub_cfg, ctx.exec)?;
        Ok(format!("best substructures: {}\n", found.best.len()))
    });
    assert_eq!(out.status, SectionStatus::Degraded, "text: {}", out.text);
    assert!(
        out.text
            .contains("!! degraded: `subdue budgeted` retried at reduced effort after:"),
        "missing degraded notice:\n{}",
        out.text
    );
    assert!(out.text.contains("budget is 2048"), "{}", out.text);
    assert!(out.text.contains("best substructures:"), "{}", out.text);
}

#[test]
fn nan_csv_fails_one_section_and_the_report_completes() {
    let _g = ArmGuard::unarmed();
    // A section whose input is a NaN-bearing CSV: ingest rejects it with
    // a typed error carrying the 1-based line number — never a panic —
    // and supervision turns that into one failed section while the rest
    // of the report keeps running.
    let csv = format!(
        "{}\n1,0,1,44.5,-88.0,41.9,-87.6,200,NaN,8,TL\n",
        tnet_data::csv::HEADER
    );
    let exec = Exec::new(2);
    let cfg = SupervisorConfig::default();
    let bad = run_section("nan ingest", &cfg, &exec, 1, &|_: &SectionCtx| {
        let txns = tnet_data::csv::read_csv(csv.as_bytes())?;
        Ok(format!("{} transactions\n", txns.len()))
    });
    assert_eq!(bad.status, SectionStatus::Failed, "text: {}", bad.text);
    assert!(bad.text.contains("!! section failed"), "{}", bad.text);
    assert!(
        bad.text.contains("line 2"),
        "line number lost: {}",
        bad.text
    );
    assert!(bad.text.contains("non-finite"), "{}", bad.text);
    // A malformed-data failure is not retryable: no degraded retry ran.
    assert!(!bad.text.contains("degraded"), "{}", bad.text);
    // The report around it is unaffected.
    let ok = run_section("healthy", &cfg, &exec, 1, &|_: &SectionCtx| {
        Ok("fine\n".to_string())
    });
    assert_eq!(ok.status, SectionStatus::Ok);
}

#[test]
fn csv_ingest_failpoint_rejects_with_line_number() {
    let _g = ArmGuard::arm("csv::ingest=err");
    let mut buf = Vec::new();
    buf.extend_from_slice(tnet_data::csv::HEADER.as_bytes());
    buf.extend_from_slice(b"\n1,0,1,44.5,-88.0,41.9,-87.6,200,30000,8,TL\n");
    let err = tnet_data::csv::read_csv(buf.as_slice()).unwrap_err();
    assert_eq!(err.line, 1, "fault fires on the first read line");
    assert!(
        err.message
            .contains("injected fault at failpoint `csv::ingest`"),
        "{}",
        err.message
    );
    failpoint::disarm();
    assert_eq!(tnet_data::csv::read_csv(buf.as_slice()).unwrap().len(), 1);
}

#[test]
fn unarmed_report_is_byte_identical_at_1_2_8_threads() {
    let _g = ArmGuard::unarmed();
    let p = report_pipeline();
    let outcome = p.full_report_supervised(SCALE, 42, &Exec::new(1), &SupervisorConfig::default());
    assert_eq!(
        (outcome.ok, outcome.degraded, outcome.failed),
        (SECTIONS, 0, 0)
    );
    assert!(outcome
        .text
        .ends_with("sections: 13 ok, 0 degraded, 0 failed\n"));
    let baseline = scrub_durations(&outcome.text);
    for threads in [2usize, 8] {
        let run =
            p.full_report_supervised(SCALE, 42, &Exec::new(threads), &SupervisorConfig::default());
        assert_eq!(
            scrub_durations(&run.text),
            baseline,
            "report diverged at {threads} threads"
        );
    }
}
