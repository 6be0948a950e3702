//! Provenance: what the host looked like around a run, so that a
//! contention period shows in the record instead of as a regression.

use std::path::Path;

/// `/proc/stat` aggregate CPU ticks and the load average at one instant.
#[derive(Clone, Debug, Default)]
pub struct HostSample {
    pub steal_ticks: u64,
    pub total_ticks: u64,
    pub loadavg: String,
}

pub fn sample() -> HostSample {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .unwrap_or_default()
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ");
    HostSample {
        // user nice system idle iowait irq softirq steal ...
        steal_ticks: ticks.get(7).copied().unwrap_or(0),
        total_ticks: ticks.iter().sum(),
        loadavg,
    }
}

/// Share of all CPU ticks between two samples that the hypervisor
/// stole, in percent.
pub fn steal_pct(before: &HostSample, after: &HostSample) -> f64 {
    let total = after.total_ticks.saturating_sub(before.total_ticks);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.steal_ticks.saturating_sub(before.steal_ticks) as f64 / total as f64
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, with `-dirty` when tracked files differ
/// from it; `unknown` outside a git checkout or without git. Git is
/// pointed at the checkout's own `.git`, so it never searches the
/// directories above it.
pub fn git_revision(root: &Path) -> String {
    let git_dir = root.join(".git");
    if !git_dir.exists() {
        return "unknown".into();
    }
    let git = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git")
            .arg("--no-optional-locks")
            .arg("--git-dir")
            .arg(&git_dir)
            .arg("--work-tree")
            .arg(root)
            .args(args)
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match (
        git(&["rev-parse", "HEAD"]),
        git(&["status", "--porcelain", "-uno"]),
    ) {
        (Some(rev), Some(status)) if status.is_empty() => rev,
        (Some(rev), Some(_)) => format!("{rev}-dirty"),
        _ => "unknown".into(),
    }
}
