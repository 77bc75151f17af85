//! The run's environment: paths, scratch space and the host fingerprint.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Files the benchmark reads from the repository root.
pub const COMMITTED_STORE: &str = "results/store.jsonl";
pub const EXPERIMENTS: &str = "EXPERIMENTS.md";
pub const EXPERIMENTS_EVAL: &str = "EXPERIMENTS_EVAL.md";

/// Scratch space under the checkout, removed when dropped.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    pub fn new(root: &Path) -> Result<Scratch, String> {
        let dir = root
            .join(".perfbench")
            .join(format!("run-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.dir.join(name);
        let _ = fs::remove_dir_all(&p);
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Succeeds only when no other run is using it.
            let _ = fs::remove_dir(parent);
        }
    }
}

/// Copy the committed store into `dir` (never opened in place: opening
/// a store may truncate a torn trailing line).
pub fn copy_committed_store(root: &Path, dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    fs::copy(root.join(COMMITTED_STORE), dir.join("store.jsonl"))
        .map(|_| ())
        .map_err(|e| format!("copying {COMMITTED_STORE}: {e}"))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads a cold workload uses: at most two, never more than
/// the host has.
pub fn workers() -> usize {
    nproc().min(2)
}

/// The process's high-water resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU seconds (user + system) the process has used so far.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, after the parenthesised name.
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, or "none" when the root is not a git
/// checkout (the benchmark may run from an export).
fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".into();
    }
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// One line describing the host and build, printed with every result.
pub fn fingerprint(
    root: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    workers: usize,
) -> String {
    let nproc = nproc();
    format!(
        "fingerprint: workload={workload} seed={seed} seconds={seconds} trace={} cpu=\"{}\" \
         nproc={nproc} workers={workers} rustc=\"{}\" obs={} git_rev={}",
        u8::from(trace),
        cpu_model(),
        env!("PERFBENCH_RUSTC_VERSION"),
        if cfg!(feature = "obs") { "on" } else { "off" },
        git_rev(root),
    )
}
