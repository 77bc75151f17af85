//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mid-membound|mid-computebound|store-warm \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints notes (host fingerprint, work
//! counts, every ratio with its base, tail percentiles) and, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `perfbench/README.md`.

mod cold;
mod env;
mod exec;
mod gen;
mod ladder;
mod report;
mod stats;
mod warm;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let root: PathBuf = std::env::current_dir().map_err(|e| e.to_string())?;
    for needed in [
        env::COMMITTED_STORE,
        env::EXPERIMENTS,
        env::EXPERIMENTS_EVAL,
    ] {
        if !root.join(needed).is_file() {
            return Err(format!(
                "`{needed}` not found: run from the repository root"
            ));
        }
    }
    let scratch = env::Scratch::new(&root)?;
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut out = match args.workload.as_str() {
        "mid-membound" => cold::run(&cold::MEMBOUND, &root, &scratch, seed, seconds, trace)?,
        "mid-computebound" => {
            cold::run(&cold::COMPUTEBOUND, &root, &scratch, seed, seconds, trace)?
        }
        "store-warm" => warm::run(&root, &scratch, seed, seconds, trace)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (mid-membound, mid-computebound, store-warm)"
            ))
        }
    };
    out.notes.insert(
        0,
        env::fingerprint(&root, &args.workload, seed, seconds, trace, out.workers),
    );
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            out.print(args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
