//! Section supervision: deadlines, panic isolation, and degraded retry.
//!
//! The full report runs each experiment section under a supervisor that
//! (1) gives the section a child execution handle carrying an optional
//! wall-clock deadline, (2) catches panics so one section's crash cannot
//! take down the report, and (3) on a *retryable* failure — a miner's
//! memory-budget abort or a deadline overrun — retries the section once
//! at reduced effort, mirroring the paper's §6.1 response to FSG
//! exhausting memory (raise the support threshold, shrink the input).
//! Whatever happens, the report completes: failed sections render a
//! notice block instead of their results.

use crate::error::PipelineError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use tnet_exec::Exec;

/// Supervision policy for a report run. The default (no deadline, no
/// budget) never aborts a section, so unsupervised output is preserved.
#[derive(Clone, Debug, Default)]
pub struct SupervisorConfig {
    /// Wall-clock limit per section attempt. The section's execution
    /// handle carries the deadline; cancellation-aware loops (SUBDUE
    /// beam, FSG levels, EM iterations, chunked pool
    /// regions) observe it between units of work.
    pub section_deadline: Option<Duration>,
    /// Memory budget in bytes per section, passed to every miner the
    /// section runs.
    pub section_budget: Option<usize>,
}

/// How hard a section attempt should try. The first attempt runs at
/// [`Effort::Normal`]; a retry after a retryable failure runs at
/// [`Effort::Degraded`] — sections respond by raising support, halving
/// input sizes, or narrowing beams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    Normal,
    Degraded,
}

/// Everything a section body receives from the supervisor.
pub struct SectionCtx<'a> {
    /// Execution handle for the attempt. Carries the deadline: when it
    /// expires, `exec.is_cancelled()` turns true and cancellation-aware
    /// work aborts with a `Cancelled` error the supervisor reclassifies
    /// as [`PipelineError::DeadlineExceeded`].
    pub exec: &'a Exec,
    /// Effort level for the attempt.
    pub effort: Effort,
    /// Memory budget (bytes) to hand to miners, if any.
    pub budget: Option<usize>,
}

/// Terminal status of a supervised section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionStatus {
    /// Succeeded at normal effort.
    Ok,
    /// First attempt hit a retryable failure; the degraded retry
    /// succeeded.
    Degraded,
    /// No attempt produced output.
    Failed,
}

/// A supervised section's result: its rendered block (results or a
/// failure notice) plus how it got there.
pub struct SectionOutcome {
    pub name: &'static str,
    pub status: SectionStatus,
    /// The block to splice into the report.
    pub text: String,
    /// The failure that ended the run (Failed) or triggered the retry
    /// (Degraded).
    pub error: Option<PipelineError>,
}

/// A supervised section body.
pub type Section<'a> = dyn Fn(&SectionCtx) -> Result<String, PipelineError> + Sync + 'a;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one attempt of `body` under a fresh child handle. A fresh token
/// per attempt matters: if the first attempt tripped its deadline or a
/// budget abort cancelled the token, a reused handle would leave the
/// retry born-cancelled.
fn attempt(
    name: &'static str,
    cfg: &SupervisorConfig,
    exec: &Exec,
    threads: usize,
    effort: Effort,
    body: &Section<'_>,
) -> Result<String, PipelineError> {
    let child = match cfg.section_deadline {
        Some(limit) => exec.child_with_deadline(threads, limit),
        None => exec.child_with_threads(threads),
    };
    // Scope the attempt's work under the section's span node (both
    // attempts of a retried section aggregate there — the node's call
    // count reads 2). Sections run concurrently, so the caller
    // pre-registers section nodes in report order to keep the rendered
    // tree deterministic.
    let section_span = exec.span().child(name);
    let child = child.with_span(section_span.clone());
    let ctx = SectionCtx {
        exec: &child,
        effort,
        budget: cfg.section_budget,
    };
    let timer = section_span.timer();
    let result = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
    drop(timer);
    match result {
        Ok(Ok(text)) => Ok(text),
        Ok(Err(e)) => {
            // A bare Cancelled out of a section whose deadline token has
            // expired *is* the deadline firing — name it.
            if e.is_cancellation() && child.cancel_token().deadline_expired() {
                Err(PipelineError::DeadlineExceeded {
                    section: name.to_string(),
                    limit: cfg
                        .section_deadline
                        .expect("expired deadline implies one was set"),
                })
            } else {
                Err(e)
            }
        }
        Err(payload) => Err(PipelineError::Panic {
            section: name.to_string(),
            message: panic_message(payload),
        }),
    }
}

/// Renders the notice block for a section that produced no output.
fn failure_block(name: &str, error: &PipelineError, retried: Option<&PipelineError>) -> String {
    let mut s = format!("=== {name} ===\n!! section failed: {error}\n");
    if let Some(first) = retried {
        s.push_str(&format!(
            "!! (degraded retry after: {first} — retry also failed)\n"
        ));
    }
    s.push('\n');
    s
}

/// Runs `body` under the full supervision policy: deadline + panic
/// isolation + one degraded retry on a retryable failure. Always returns
/// an outcome with renderable text.
pub fn run_section(
    name: &'static str,
    cfg: &SupervisorConfig,
    exec: &Exec,
    threads: usize,
    body: &Section<'_>,
) -> SectionOutcome {
    match attempt(name, cfg, exec, threads, Effort::Normal, body) {
        Ok(text) => SectionOutcome {
            name,
            status: SectionStatus::Ok,
            text,
            error: None,
        },
        Err(first) if first.is_retryable() => {
            match attempt(name, cfg, exec, threads, Effort::Degraded, body) {
                Ok(text) => SectionOutcome {
                    name,
                    status: SectionStatus::Degraded,
                    text: format!(
                        "!! degraded: `{name}` retried at reduced effort after: {first}\n{text}"
                    ),
                    error: Some(first),
                },
                Err(second) => SectionOutcome {
                    name,
                    status: SectionStatus::Failed,
                    text: failure_block(name, &second, Some(&first)),
                    error: Some(second),
                },
            }
        }
        Err(first) => SectionOutcome {
            name,
            status: SectionStatus::Failed,
            text: failure_block(name, &first, None),
            error: Some(first),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_with_deadline(ms: u64) -> SupervisorConfig {
        SupervisorConfig {
            section_deadline: Some(Duration::from_millis(ms)),
            section_budget: None,
        }
    }

    #[test]
    fn ok_section_passes_through() {
        let exec = Exec::new(2);
        let out = run_section(
            "t",
            &SupervisorConfig::default(),
            &exec,
            1,
            &|_ctx: &SectionCtx| Ok("hello\n".to_string()),
        );
        assert_eq!(out.status, SectionStatus::Ok);
        assert_eq!(out.text, "hello\n");
        assert!(out.error.is_none());
    }

    #[test]
    fn panic_is_isolated_and_not_retried() {
        let exec = Exec::new(2);
        let attempts = std::sync::atomic::AtomicUsize::new(0);
        let out = run_section("boom", &SupervisorConfig::default(), &exec, 1, &|_ctx| {
            attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            panic!("kaboom {}", 7);
        });
        assert_eq!(out.status, SectionStatus::Failed);
        assert_eq!(attempts.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(out.text.contains("section failed"), "{}", out.text);
        assert!(out.text.contains("kaboom 7"), "{}", out.text);
        match out.error {
            Some(PipelineError::Panic { ref message, .. }) => assert_eq!(message, "kaboom 7"),
            other => panic!("expected Panic, got {other:?}"),
        }
    }

    #[test]
    fn worker_panic_inside_pool_is_isolated() {
        let exec = Exec::new(4);
        let out = run_section("w", &SupervisorConfig::default(), &exec, 2, &|ctx| {
            let items: Vec<usize> = (0..64).collect();
            let _ = ctx.exec.par_map(&items, |&i| {
                if i == 13 {
                    panic!("worker died");
                }
                i * 2
            });
            Ok("unreachable".into())
        });
        assert_eq!(out.status, SectionStatus::Failed);
        assert!(out.text.contains("worker died"), "{}", out.text);
    }

    #[test]
    fn deadline_cancellation_is_reclassified() {
        let exec = Exec::new(2);
        let cfg = cfg_with_deadline(15);
        let out = run_section("slow", &cfg, &exec, 1, &|ctx| {
            // Spin until the deadline shows up through the handle, then
            // report the bare cancellation a miner would.
            while !ctx.exec.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(PipelineError::Cancelled)
        });
        // DeadlineExceeded is retryable; the retry times out the same
        // way, so the section fails with a deadline error, not Cancelled.
        assert_eq!(out.status, SectionStatus::Failed);
        match out.error {
            Some(PipelineError::DeadlineExceeded { ref section, .. }) => {
                assert_eq!(section, "slow");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(out.text.contains("deadline"), "{}", out.text);
    }

    #[test]
    fn degraded_retry_recovers_from_budget_abort() {
        let exec = Exec::new(2);
        let out = run_section(
            "mem",
            &SupervisorConfig::default(),
            &exec,
            1,
            &|ctx| match ctx.effort {
                Effort::Normal => Err(PipelineError::Subdue(
                    tnet_subdue::SubdueError::MemoryBudgetExceeded {
                        estimated_bytes: 1024,
                        budget: 512,
                        expanded: 3,
                    },
                )),
                Effort::Degraded => Ok("smaller result\n".into()),
            },
        );
        assert_eq!(out.status, SectionStatus::Degraded);
        assert!(out.text.contains("degraded"), "{}", out.text);
        assert!(out.text.contains("smaller result"), "{}", out.text);
        assert!(matches!(
            out.error,
            Some(PipelineError::Subdue(
                tnet_subdue::SubdueError::MemoryBudgetExceeded { .. }
            ))
        ));
    }

    #[test]
    fn retry_gets_a_fresh_uncancelled_handle() {
        let exec = Exec::new(2);
        let cfg = cfg_with_deadline(40);
        let saw_fresh = std::sync::atomic::AtomicBool::new(false);
        let out = run_section("fresh", &cfg, &exec, 1, &|ctx| match ctx.effort {
            Effort::Normal => {
                while !ctx.exec.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(PipelineError::Cancelled)
            }
            Effort::Degraded => {
                saw_fresh.store(
                    !ctx.exec.is_cancelled(),
                    std::sync::atomic::Ordering::SeqCst,
                );
                Ok("quick\n".into())
            }
        });
        assert_eq!(out.status, SectionStatus::Degraded);
        assert!(
            saw_fresh.load(std::sync::atomic::Ordering::SeqCst),
            "degraded attempt must start on an uncancelled handle"
        );
    }

    #[test]
    fn non_retryable_error_fails_without_retry() {
        let exec = Exec::new(2);
        let attempts = std::sync::atomic::AtomicUsize::new(0);
        let out = run_section("io", &SupervisorConfig::default(), &exec, 1, &|_ctx| {
            attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Err(PipelineError::Io("disk gone".into()))
        });
        assert_eq!(out.status, SectionStatus::Failed);
        assert_eq!(attempts.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(out.text.contains("disk gone"));
    }
}
