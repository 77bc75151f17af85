//! Driving `run_unit_jobs` with host-time spans taken from its progress
//! events.

use crate::report::Outcome;
use crate::stats::median;
use snug_harness::{run_unit_jobs, ResultStore, SweepEvent, UnitJob, UnitSpan};
use std::collections::BTreeMap;
use std::time::Instant;

/// One executed unit: host time between its `JobStarted` and
/// `JobFinished` events, and the span the harness reported for it.
pub struct UnitTiming {
    pub label: String,
    pub ns: u64,
    pub span: UnitSpan,
}

/// Host-time spans of one `run_unit_jobs` call.
pub struct Exec {
    pub units: Vec<UnitTiming>,
    /// Last `JobFinished` to `run_unit_jobs` return: the merge of the
    /// worker shards into the main store.
    pub merge_ms: f64,
    /// Worker time idle between the first dispatch and the last finish.
    pub idle_frac: f64,
    /// Units that failed, were skipped, or never reported.
    pub failures: Vec<String>,
}

#[derive(Default)]
struct Log {
    started: BTreeMap<String, Instant>,
    units: Vec<UnitTiming>,
    first_start: Option<Instant>,
    last_finish: Option<Instant>,
    failures: Vec<String>,
}

impl Log {
    fn on(&mut self, event: SweepEvent) {
        let now = Instant::now();
        match event {
            SweepEvent::JobStarted { label } => {
                self.first_start.get_or_insert(now);
                self.started.insert(label, now);
            }
            SweepEvent::JobFinished { label, span, .. } => {
                self.last_finish = Some(now);
                match self.started.remove(&label) {
                    Some(start) => self.units.push(UnitTiming {
                        label,
                        ns: now.duration_since(start).as_nanos() as u64,
                        span,
                    }),
                    None => self
                        .failures
                        .push(format!("{label}: finished without starting")),
                }
            }
            SweepEvent::JobFailed { label, error } => {
                self.failures.push(format!("{label}: panicked: {error}"))
            }
            SweepEvent::JobSkipped { label, failed_dep } => self
                .failures
                .push(format!("{label}: skipped after {failed_dep} failed")),
            SweepEvent::Planned { .. } => {}
        }
    }
}

/// Run `jobs` into `store` on `workers` threads. Every job is expected
/// to execute (the store starts empty); a sweep error, a panic, a skip
/// or a unit that never finished is listed in `failures`.
pub fn run(jobs: &[UnitJob], store: &mut ResultStore, workers: usize) -> Exec {
    let mut log = Log::default();
    let result = run_unit_jobs(jobs, store, workers, &mut |e| log.on(e));
    let end = Instant::now();
    // A unit failure already reported its own units; a store error did not.
    if let (Err(e), true) = (&result, log.failures.is_empty()) {
        log.failures.push(format!("sweep error: {e}"));
    }
    let missing = jobs
        .len()
        .saturating_sub(log.units.len() + log.failures.len());
    if missing > 0 {
        log.failures
            .push(format!("{missing} unit(s) never reported finishing"));
    }
    let busy: u64 = log.units.iter().map(|u| u.ns).sum();
    let idle_frac = match (log.first_start, log.last_finish) {
        (Some(first), Some(last)) if last > first => {
            let window = last.duration_since(first).as_nanos() as f64 * workers as f64;
            (1.0 - busy as f64 / window).max(0.0)
        }
        _ => 0.0,
    };
    Exec {
        merge_ms: log
            .last_finish
            .map_or(0.0, |l| end.duration_since(l).as_secs_f64() * 1e3),
        idle_frac,
        units: log.units,
        failures: log.failures,
    }
}

/// Note how far the benchmark's unit timings are from the harness's own
/// `UnitSpan.wall_nanos` and set `xcheck.unit_wall.diff_frac` (median
/// relative difference).
pub fn cross_check_walls(out: &mut Outcome, units: &[UnitTiming]) {
    let diffs: Vec<f64> = units
        .iter()
        .filter(|u| u.span.wall_nanos > 0)
        .map(|u| u.ns.abs_diff(u.span.wall_nanos) as f64 / u.span.wall_nanos as f64)
        .collect();
    let max = diffs.iter().copied().fold(0.0, f64::max);
    out.note(format!(
        "xcheck: bench-timed unit wall vs UnitSpan.wall_nanos over {} units: median |diff| {:.5}, max {:.5}",
        diffs.len(),
        median(&diffs),
        max
    ));
    out.set("xcheck.unit_wall.diff_frac", median(&diffs));
}

#[cfg(test)]
mod tests {
    use super::*;
    use snug_experiments::{CompareConfig, RunPlan};
    use snug_harness::unit_jobs_phased;
    use snug_workloads::all_combos;

    /// A unit that panics is one failed operation; the rest still run.
    #[test]
    fn a_panicking_unit_counts_once() {
        let mut cfg = CompareConfig::quick();
        cfg.plan = RunPlan::fixed(2_000, 2_000);
        let mut jobs = unit_jobs_phased(&all_combos()[0], &cfg, false, None);
        jobs.truncate(2);
        // Four streams for two cores: the session builder rejects it.
        jobs[1].config.system.num_cores = 2;
        let dir = std::env::temp_dir().join(format!("perfbench-exec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir).unwrap();
        let ex = run(&jobs, &mut store, 2);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(ex.units.len(), 1);
        assert_eq!(ex.failures.len(), 1, "{:?}", ex.failures);
        assert!(ex.failures[0].contains("panicked"), "{:?}", ex.failures);
    }
}
