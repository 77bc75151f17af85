//! `snug profile` end to end: the profiled scheme must be the one
//! sweeps and traces simulate, built from the budget's configuration.
//! The relatch counter is an `obs` tally, so the file needs the feature.

#![cfg(feature = "obs")]

use std::process::Command;

/// The count in the `scheme relatches` row of the dispatch table.
fn relatches(stdout: &str) -> u64 {
    let row = stdout
        .lines()
        .find(|l| l.starts_with("| scheme relatches |"))
        .unwrap_or_else(|| panic!("no relatches row in:\n{stdout}"));
    row.split('|').nth(2).unwrap().trim().parse().unwrap()
}

/// At `--quick` the paper's SNUG stages (5 M + 100 M cycles) never end
/// inside the window; the budget's scaled stages relatch several times.
#[test]
fn quick_snug_profile_relatches() {
    let out = Command::new(env!("CARGO_BIN_EXE_snug"))
        .args(["profile", "ammp+parser+bzip2+mcf", "snug", "--quick"])
        .output()
        .expect("snug runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(relatches(&stdout) > 0, "{stdout}");
}
