//! `store-warm`: the read side of the result store.
//!
//! Set-up copies the committed `results/store.jsonl` (756 keys) into
//! scratch space, its line order shuffled by the seed (seed 0 keeps it).
//! Each pass opens the copy and serves three reports, one per committed
//! keyset — the *units* of this workload:
//!
//! * canonical `--mid`: `cached_results` + `render_experiments_md`,
//!   byte-compared with the committed `EXPERIMENTS.md`;
//! * `--mid` shifted re-converged: `cached_results` + `render_markdown`
//!   and its stop summary, byte-compared with the first pass;
//! * `--eval` converged: `cached_results` + `stop_summary_table` +
//!   `render_experiments_eval_md`, byte-compared with the committed
//!   `EXPERIMENTS_EVAL.md`.
//!
//! The kernel does no work, so the traced run reports only the
//! harness's store-side metrics; the other per-layer metrics read 0 and
//! are noted as not applicable.

use crate::env::{self, Scratch, COMMITTED_STORE, EXPERIMENTS, EXPERIMENTS_EVAL};
use crate::gen::SplitMix64;
use crate::report::Outcome;
use crate::stats::median;
use snug_harness::{
    cached_results, eval_converged_spec, render_experiments_eval_md, render_experiments_md,
    render_markdown, stop_summary_table, BudgetPreset, ResultStore, StopPreset, SweepSpec,
};
use snug_workloads::PhaseSchedule;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Host seconds one pass takes on a 2-vCPU Xeon container; `--seconds`
/// divided by it gives the passes.
const NOMINAL_PASS_S: f64 = 0.07;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// The committed shifted keyset: `snug sweep --mid --phase-shift
/// "1800000:demand=300" --until-reconverged --window 150000`.
fn shifted_spec() -> SweepSpec {
    let mut spec = SweepSpec::full(BudgetPreset::Mid);
    spec.name = "mid shifted".into();
    spec.phase_shift = Some(
        PhaseSchedule::parse("1800000:demand=300")
            .expect("a valid schedule literal")
            .fingerprint(),
    );
    spec.stop = StopPreset::Reconverged {
        window_cycles: Some(150_000),
        rel_epsilon: None,
    };
    spec
}

/// Write the committed store's lines, shuffled by `seed`, to `dir`.
fn copy_shuffled(root: &Path, dir: &Path, seed: u64) -> Result<(), String> {
    let text = fs::read_to_string(root.join(COMMITTED_STORE))
        .map_err(|e| format!("reading {COMMITTED_STORE}: {e}"))?;
    let mut lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if seed != 0 {
        SplitMix64::new(seed).shuffle(&mut lines);
    }
    let mut body = lines.join("\n");
    body.push('\n');
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    fs::write(dir.join("store.jsonl"), body).map_err(|e| format!("writing store copy: {e}"))
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

pub fn run(
    root: &Path,
    scratch: &Scratch,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let read = |name: &str| {
        fs::read_to_string(root.join(name)).map_err(|e| format!("reading {name}: {e}"))
    };
    let committed_md = read(EXPERIMENTS)?;
    let committed_eval_md = read(EXPERIMENTS_EVAL)?;
    let mid = SweepSpec::full(BudgetPreset::Mid);
    let shifted = shifted_spec();
    let eval = eval_converged_spec();
    let passes = ((seconds as f64 / NOMINAL_PASS_S).ceil() as usize).max(1);
    // One thread: a pass is a sequence of calls with nothing to spread.
    let mut out = Outcome::default();
    out.workers = 1;

    // Each set-up writes a new file: rewriting one in place costs a
    // page-cache truncation whose time varies far more than the copy's.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut dir = PathBuf::new();
    for k in 0..SETUP_REPS {
        dir = scratch.fresh(&format!("warm-{k}"));
        let t = Instant::now();
        copy_shuffled(root, &dir, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Simulated instructions behind every served unit (untimed).
    let probe = ResultStore::open(&dir).map_err(|e| e.to_string())?;
    let lines_read = probe.file_lines();
    let mut served_instructions = 0u64;
    let mut served_units = 0u64;
    for spec in [&mid, &shifted, &eval] {
        for job in spec.unit_jobs() {
            let Some(run) = probe.get_unit(&job.key) else {
                return Err(format!(
                    "the committed store lacks {} unit {}",
                    spec.budget_label(),
                    job.label()
                ));
            };
            let measured = run
                .measured_cycles
                .unwrap_or(job.config.plan.measure_cycles());
            served_instructions += (run.ipcs.iter().sum::<f64>() * measured as f64).round() as u64;
            served_units += 1;
        }
    }
    drop(probe);
    out.note(format!(
        "store-warm: {lines_read} store lines, {served_units} units served per pass over 3 keysets, \
         {passes} passes, 3 report units per pass"
    ));

    let mut unit_ms = Vec::with_capacity(3 * passes);
    let mut kind_ms: [Vec<f64>; 3] = Default::default();
    let mut unit_s = 0.0;
    let mut pass_ms = Vec::with_capacity(passes);
    let mut open_ms = Vec::with_capacity(passes);
    let mut lookup_ms = Vec::with_capacity(passes);
    let mut render_ms = Vec::with_capacity(passes);
    let mut first_shifted: Option<String> = None;
    let measure = Instant::now();
    for pass in 0..passes {
        let t_pass = Instant::now();
        let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
        open_ms.push(ms(t_pass));
        let (mut lookup, mut render) = (0.0, 0.0);

        let t = Instant::now();
        let results = cached_results(&mid, &store);
        let (l1, t) = (ms(t), Instant::now());
        let md = results.map(|r| render_experiments_md(&mid, &r));
        let r1 = ms(t);

        let t = Instant::now();
        let results = cached_results(&shifted, &store);
        let (l2, t) = (ms(t), Instant::now());
        let shifted_md = results.map(|r| {
            let mut s = render_markdown(&shifted, &r);
            if let Some(summary) = stop_summary_table(&shifted, &store) {
                s.push_str(&summary.to_markdown());
            }
            s
        });
        let r2 = ms(t);

        let t = Instant::now();
        let results = cached_results(&eval, &store);
        let (l3, t) = (ms(t), Instant::now());
        let eval_md = results.map(|r| {
            let summary = stop_summary_table(&eval, &store);
            render_experiments_eval_md(&eval, &r, summary.as_ref())
        });
        let r3 = ms(t);
        pass_ms.push(ms(t_pass));

        for (kind, (l, r)) in [(l1, r1), (l2, r2), (l3, r3)].into_iter().enumerate() {
            kind_ms[kind].push(l + r);
            unit_ms.push(l + r);
            unit_s += (l + r) / 1e3;
            lookup += l;
            render += r;
        }
        lookup_ms.push(lookup);
        render_ms.push(render);

        out.attempted += 3;
        match md {
            Some(md) if md == committed_md => {}
            Some(_) => out.fail(format!("pass {pass}: rendered {EXPERIMENTS} differs")),
            None => out.fail(format!("pass {pass}: canonical --mid keyset incomplete")),
        }
        match (shifted_md, &first_shifted) {
            (Some(s), None) => first_shifted = Some(s),
            (Some(s), Some(f)) if s == *f => {}
            (Some(_), Some(_)) => out.fail(format!("pass {pass}: shifted report differs")),
            (None, _) => out.fail(format!("pass {pass}: shifted keyset incomplete")),
        }
        match eval_md {
            Some(md) if md == committed_eval_md => {}
            Some(_) => out.fail(format!("pass {pass}: rendered {EXPERIMENTS_EVAL} differs")),
            None => out.fail(format!("pass {pass}: eval keyset incomplete")),
        }
    }
    let wall = measure.elapsed();
    out.note(format!(
        "counts: passes={passes} report_units={} units_served={} store.lines_read={} \
         store.lines_written=0 served_instructions={}",
        3 * passes,
        served_units * passes as u64,
        lines_read * passes,
        served_instructions * passes as u64
    ));

    out.setup(&setup_s);
    out.set("wall_s", wall.as_secs_f64());
    out.ratio(
        "sim_minstr_per_s",
        (served_instructions * passes as u64) as f64 / 1e6,
        unit_s,
        1.0,
    );
    out.note(format!(
        "report units p50: mid {} ms, mid shifted {} ms, eval {} ms",
        median(&kind_ms[0]),
        median(&kind_ms[1]),
        median(&kind_ms[2])
    ));
    out.latency("unit_ms", &unit_ms);
    out.latency("pass_ms", &pass_ms);
    out.set("peak_rss_mb", env::peak_rss_mb());

    // Planning happens inside each lookup; time it on its own.
    let mut plan_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for spec in [&mid, &shifted, &eval] {
            std::hint::black_box(spec.combo_jobs());
        }
        plan_ms.push(ms(t));
    }
    out.set("harness.plan.ms", median(&plan_ms));
    out.set("harness.store_open.ms", median(&open_ms));
    out.set("harness.lookup.ms", median(&lookup_ms));
    out.set("harness.render.ms", median(&render_ms));
    out.set("harness.store.lines_read", lines_read as f64);

    if trace {
        // The traced run adds no work here: the kernel does none and
        // nothing is executed or written.
        out.set("harness.store.lines_written", 0.0);
        out.set("trace.overhead_frac", 0.0);
        out.not_applicable();
    }
    Ok(out)
}
