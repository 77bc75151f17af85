//! The cold workloads: seeded `--mid` sweeps into fresh stores.
//!
//! Closed loop: the generator is the sweep itself, and each worker takes
//! its next unit when the previous one finishes. A run repeats whole
//! rounds — plan, open an empty store, `run_unit_jobs`, look the results
//! up and render the sweep report — a fixed number of times set by
//! `--seconds`, so every run of one seed does the same work.

use crate::env::{self, Scratch};
use crate::exec;
use crate::gen::combos_for;
use crate::ladder::{Ladder, LadderUnit};
use crate::report::Outcome;
use crate::stats::median;
use snug_experiments::{assemble_combo, CompareConfig, SchemePoint, SchemeRun};
use snug_harness::{
    render_markdown, unit_jobs_phased, BudgetPreset, ResultStore, StopPreset, SweepSpec, UnitJob,
};
use snug_workloads::{Combo, ComboClass};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Cold {
    pub name: &'static str,
    pub classes: &'static [ComboClass],
    /// Host seconds one seed-0 round takes with two workers on a 2-vCPU
    /// Xeon container; `--seconds` divided by it gives the rounds.
    pub nominal_round_s: f64,
}

pub const MEMBOUND: Cold = Cold {
    name: "mid-membound",
    classes: &[
        ComboClass::C1,
        ComboClass::C2,
        ComboClass::C3,
        ComboClass::C4,
    ],
    nominal_round_s: 5.0,
};

pub const COMPUTEBOUND: Cold = Cold {
    name: "mid-computebound",
    classes: &[ComboClass::C5, ComboClass::C6],
    nominal_round_s: 10.0,
};

/// Set-ups timed before the first round; `setup_s` is the median of
/// these and each round's own.
const SETUP_REPS: usize = 31;

/// Deterministic work of one round; equal for every round of a seed.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    units: u64,
    sim_cycles: u64,
    instructions: u64,
    lines_written: u64,
}

struct Setup {
    jobs: Vec<UnitJob>,
    store: ResultStore,
    plan_ms: f64,
    open_ms: f64,
}

/// Plan the round's unit jobs and open an empty store under `dir`.
fn setup(combos: &[Combo], cfg: &CompareConfig, dir: &Path) -> Result<Setup, String> {
    let t0 = Instant::now();
    let jobs: Vec<UnitJob> = combos
        .iter()
        .flat_map(|c| unit_jobs_phased(c, cfg, false, None))
        .collect();
    let t1 = Instant::now();
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    Ok(Setup {
        jobs,
        store,
        plan_ms: t1.duration_since(t0).as_secs_f64() * 1e3,
        open_ms: t2.duration_since(t1).as_secs_f64() * 1e3,
    })
}

fn bits(ipcs: &[f64]) -> Vec<u64> {
    ipcs.iter().map(|x| x.to_bits()).collect()
}

/// Compare a unit's IPCs bit for bit with the committed store's entry
/// under the same key; `Ok(false)` when there is none to compare with.
/// At seed 0 every unit is a Table 8 unit the committed store holds, so
/// a missing key is a failure: a changed key would otherwise leave the
/// check comparing nothing.
fn check_committed(seed: u64, ipcs: &[f64], committed: Option<&SchemeRun>) -> Result<bool, String> {
    match committed {
        Some(c) if bits(&c.ipcs) == bits(ipcs) => Ok(true),
        Some(c) => Err(format!(
            "IPCs {ipcs:?} differ from the committed {:?}",
            c.ipcs
        )),
        None if seed == 0 => Err("has no entry in the committed store".into()),
        None => Ok(false),
    }
}

pub fn run(
    w: &Cold,
    root: &Path,
    scratch: &Scratch,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let workers = env::workers();
    let spec = SweepSpec {
        name: format!("{} seed {seed}", w.name),
        classes: w.classes.to_vec(),
        combos: Vec::new(),
        budget: BudgetPreset::Mid,
        stop: StopPreset::Fixed,
        phase_shift: None,
        shared_warmup: false,
    };
    let cfg = spec.compare_config();
    let combos = combos_for(w.classes, seed);
    let reference_dir = scratch.fresh("reference");
    env::copy_committed_store(root, &reference_dir)?;
    let reference = ResultStore::open(&reference_dir).map_err(|e| e.to_string())?;
    let rounds = ((seconds as f64 / w.nominal_round_s).ceil() as usize).max(1);

    let mut out = Outcome::default();
    out.workers = workers;
    out.note(format!(
        "{}: {} combos x {} points = {} units per round, {rounds} rounds, {workers} workers, closed loop",
        w.name,
        combos.len(),
        SchemePoint::COUNT,
        combos.len() * SchemePoint::COUNT
    ));
    out.note(format!(
        "combos: {}",
        combos
            .iter()
            .map(Combo::label)
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let mut setup_s = Vec::new();
    let mut plan_ms = Vec::new();
    let mut open_ms = Vec::new();
    let mut timed_setup = |dir: PathBuf| -> Result<Setup, String> {
        let t = Instant::now();
        let s = setup(&combos, &cfg, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        plan_ms.push(s.plan_ms);
        open_ms.push(s.open_ms);
        Ok(s)
    };
    for k in 0..SETUP_REPS {
        drop(timed_setup(scratch.fresh(&format!("setup-{k}")))?);
    }

    let mut units = Vec::new();
    let mut pass_ms = Vec::new();
    let mut merge_ms = Vec::new();
    let mut idle = Vec::new();
    let mut lookup_ms = Vec::new();
    let mut render_ms = Vec::new();
    let mut first: Option<(Counts, BTreeMap<String, Vec<u64>>, String)> = None;
    let mut ladder_inputs: BTreeMap<String, (Vec<f64>, Option<u64>)> = BTreeMap::new();
    let measure = Instant::now();
    for round in 0..rounds {
        let mut s = timed_setup(scratch.fresh(&format!("round-{round}")))?;
        let t = Instant::now();
        let ex = exec::run(&s.jobs, &mut s.store, workers);
        let t_lookup = Instant::now();
        let mut results = Vec::with_capacity(combos.len());
        for (combo, jobs) in combos.iter().zip(s.jobs.chunks(SchemePoint::COUNT)) {
            let runs: Option<Vec<(SchemePoint, SchemeRun)>> = jobs
                .iter()
                .map(|j| s.store.get_unit(&j.key).map(|r| (j.point, r.clone())))
                .collect();
            if let Some(runs) = runs {
                results.push(assemble_combo(combo, &runs));
            }
        }
        let t_render = Instant::now();
        let report = render_markdown(&spec, &results);
        let t_end = Instant::now();
        pass_ms.push(t_end.duration_since(t).as_secs_f64() * 1e3);
        merge_ms.push(ex.merge_ms);
        idle.push(ex.idle_frac);
        lookup_ms.push(t_render.duration_since(t_lookup).as_secs_f64() * 1e3);
        render_ms.push(t_end.duration_since(t_render).as_secs_f64() * 1e3);

        // Checks: every unit ran, matches the committed store where the
        // store has its key, and repeats the first round bit for bit.
        out.attempted += s.jobs.len() as u64;
        for f in &ex.failures {
            out.fail(format!("round {round}: {f}"));
        }
        let mut ipcs = BTreeMap::new();
        let mut vs_reference = 0;
        for job in &s.jobs {
            let Some(run) = s.store.get_unit(&job.key) else {
                continue;
            };
            match check_committed(seed, &run.ipcs, reference.get_unit(&job.key)) {
                Ok(compared) => vs_reference += u64::from(compared),
                Err(why) => out.fail(format!("round {round}: {} {why}", job.label())),
            }
            ipcs.insert(job.key.clone(), bits(&run.ipcs));
            if round == 0 {
                let span = ex
                    .units
                    .iter()
                    .find(|u| u.label == job.label())
                    .map(|u| u.span.instructions);
                ladder_inputs.insert(job.key.clone(), (run.ipcs.clone(), span));
            }
        }
        let counts = Counts {
            units: ex.units.len() as u64,
            sim_cycles: ex.units.iter().map(|u| u.span.sim_cycles).sum(),
            instructions: ex.units.iter().map(|u| u.span.instructions).sum(),
            lines_written: s.store.file_lines() as u64,
        };
        out.note(format!(
            "counts round {round}: units={} sim_cycles={} instructions={} store.lines_written={} \
             store.lines_read=0 checked_vs_committed={vs_reference}",
            counts.units, counts.sim_cycles, counts.instructions, counts.lines_written
        ));
        match &first {
            None => first = Some((counts, ipcs, report)),
            Some((c0, ipcs0, report0)) => {
                if *c0 != counts {
                    out.fail(format!(
                        "round {round}: work counts {counts:?} != round 0 {c0:?}"
                    ));
                }
                if *ipcs0 != ipcs {
                    out.fail(format!("round {round}: IPCs differ from round 0"));
                }
                if *report0 != report {
                    out.fail(format!(
                        "round {round}: rendered report differs from round 0"
                    ));
                }
            }
        }
        units.extend(ex.units);
    }
    let wall = measure.elapsed();

    let unit_ms: Vec<f64> = units.iter().map(|u| u.ns as f64 / 1e6).collect();
    let unit_s: f64 = units.iter().map(|u| u.ns as f64 / 1e9).sum();
    let instructions: u64 = units.iter().map(|u| u.span.instructions).sum();
    out.setup(&setup_s);
    out.set("wall_s", wall.as_secs_f64());
    out.ratio("sim_minstr_per_s", instructions as f64 / 1e6, unit_s, 1.0);
    out.note(format!(
        "cpu: {:.2} s process CPU, {unit_s:.2} s unit wall",
        env::cpu_seconds()
    ));
    out.latency("unit_ms", &unit_ms);
    out.latency("pass_ms", &pass_ms);
    out.set("peak_rss_mb", env::peak_rss_mb());

    out.set("harness.plan.ms", median(&plan_ms));
    out.set("harness.store_open.ms", median(&open_ms));
    out.set("harness.exec.idle_frac", median(&idle));
    out.set("harness.merge.ms", median(&merge_ms));
    out.set("harness.lookup.ms", median(&lookup_ms));
    out.set("harness.render.ms", median(&render_ms));
    let lines = first.as_ref().map_or(0, |f| f.0.lines_written);
    out.set("harness.store.lines_written", lines as f64);
    out.set("harness.store.lines_read", 0.0);
    exec::cross_check_walls(&mut out, &units);

    if trace {
        // Representative units: every point of the first combo of each
        // class, replayed through the ladder.
        let mut ladder_units = Vec::new();
        for &class in w.classes {
            let Some(combo) = combos.iter().find(|c| c.class == class) else {
                continue;
            };
            for job in unit_jobs_phased(combo, &cfg, false, None) {
                let Some((ipcs, span)) = ladder_inputs.get(&job.key) else {
                    continue;
                };
                ladder_units.push(LadderUnit {
                    combo: job.combo,
                    point: job.point,
                    config: job.config,
                    expected_ipcs: ipcs.clone(),
                    span_instructions: *span,
                });
            }
        }
        let ladder = Ladder::run(&ladder_units);
        out.attempted += ladder_units.len() as u64;
        for f in &ladder.failures {
            out.fail(format!("ladder: {f}"));
        }
        out.ladder(&ladder);
        out.ratio(
            "trace.overhead_frac",
            ladder.wall_ns as f64 / 1e9,
            wall.as_secs_f64(),
            1.0,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(ipcs: &[f64]) -> SchemeRun {
        SchemeRun {
            scheme: "L2P".into(),
            ipcs: ipcs.to_vec(),
            measured_cycles: None,
            stop_reason: None,
            plateaus: Vec::new(),
        }
    }

    #[test]
    fn a_missing_committed_key_fails_only_at_seed_0() {
        let ipcs = [0.5, 1.25];
        assert!(check_committed(0, &ipcs, None).is_err());
        assert_eq!(check_committed(7, &ipcs, None), Ok(false));
    }

    #[test]
    fn committed_ipcs_must_match_bit_for_bit() {
        let ipcs = [0.5, 1.25];
        let same = run_with(&ipcs);
        assert_eq!(check_committed(0, &ipcs, Some(&same)), Ok(true));
        let off = run_with(&[0.5, 1.25 + f64::EPSILON]);
        assert!(check_committed(0, &ipcs, Some(&off)).is_err());
        assert!(check_committed(7, &ipcs, Some(&off)).is_err());
    }
}
