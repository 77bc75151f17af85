//! Every `snug` subcommand parses only its own flags: a flag it would
//! otherwise ignore exits 1 with the flag named on stderr, before any
//! work starts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snug-cli-flags-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn snug(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snug"))
        .args(args)
        .output()
        .expect("snug runs")
}

#[test]
fn foreign_flags_are_rejected_by_name() {
    let dir = tmp_dir("foreign");
    // Each command line ends in the flag it must reject; `DIR` stands
    // for a scratch results directory.
    let cases = [
        "store gc --results DIR --combo x",
        "store gc --results DIR --jobs 3",
        "store gc --results DIR --bench mcf",
        "store gc --results DIR --intervals 7",
        "store gc --results DIR --out DIR",
        "store gc --results DIR --format csv",
        "store gc --results DIR --quick",
        "store merge x.jsonl --results DIR --mid",
        "sweep --results DIR --stride 5",
        "sweep --results DIR --check",
        "trace ammp+parser+swim+mesa snug --results DIR --until-converged",
        "trace ammp+parser+swim+mesa snug --results DIR --shared-warmup",
        "profile ammp+parser+swim+mesa snug --results DIR",
        "compare --combo ammp+parser+swim+mesa --results DIR --name n",
        "report --results DIR --jobs 2",
        "report --results DIR --md-path x.md",
        "report --experiments-md --results DIR --window 9",
        "report --experiments-md --experiments-eval-md",
        "report --experiments-eval-md --results DIR --eval",
        "characterize --results DIR",
    ];
    for line in cases {
        let args: Vec<&str> = line
            .split_whitespace()
            .map(|w| if w == "DIR" { dir.to_str().unwrap() } else { w })
            .collect();
        let flag = args.iter().rev().find(|w| w.starts_with("--")).unwrap();
        let out = snug(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
        assert!(
            stderr.contains(&format!("`{flag}`")),
            "{line} must name `{flag}`: {stderr}"
        );
    }
    assert!(!dir.exists(), "no rejected command may touch the store");
}

#[test]
fn store_gc_accepts_its_own_flag() {
    let dir = tmp_dir("accepted");
    let out = snug(&["store", "gc", "--results", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
