//! Acceptance tests for the semantic rules against the *real*
//! workspace sources: delete a load-bearing line from an in-memory
//! copy of `codec.rs` and prove the matching rule fires. This is the
//! contract the rules exist for — a dropped codec line can never land
//! silently again.

use std::fs;
use std::path::{Path, PathBuf};

use snug_lint::manifest::Manifest;
use snug_lint::rules::{run, Finding};
use snug_lint::workspace::{CrateInfo, FileKind, SourceFile, Workspace};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the repo root")
        .to_path_buf()
}

fn read(rel: &str) -> String {
    fs::read_to_string(repo_root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Drop every line containing `needle`; panics if nothing matched so
/// a future rename of the anchor line fails loudly here.
fn without_lines(text: &str, needle: &str) -> String {
    let before = text.lines().count();
    let kept: Vec<&str> = text.lines().filter(|l| !l.contains(needle)).collect();
    assert!(
        kept.len() < before,
        "mutation anchor `{needle}` no longer appears — update the test"
    );
    let mut out = kept.join("\n");
    out.push('\n');
    out
}

/// An in-memory workspace over the real session, counter and codec
/// sources.
/// `mutate` sees each file's repo-relative path and text and returns
/// the (possibly edited) text. Crate names are chosen so each file
/// keeps its real role: `sim-cmp` stays a kernel crate, while the
/// codec host must NOT be key-bearing (the registry rule would see
/// only a sliver of the real fragment sites).
fn workspace(mutate: impl Fn(&str, String) -> String) -> Workspace {
    let spec = [
        ("sim-cmp", "crates/sim-cmp", "crates/sim-cmp/src/session.rs"),
        (
            "snug-metrics",
            "crates/metrics",
            "crates/metrics/src/counters.rs",
        ),
        (
            "codec-host",
            "crates/harness",
            "crates/harness/src/codec.rs",
        ),
    ];
    Workspace {
        root: repo_root(),
        crates: spec
            .iter()
            .map(|(name, dir, file)| CrateInfo {
                name: (*name).into(),
                rel_dir: (*dir).into(),
                dir: repo_root().join(dir),
                manifest: Manifest::parse(&read(&format!("{dir}/Cargo.toml"))),
                files: vec![SourceFile {
                    rel: (*file).into(),
                    kind: FileKind::Lib,
                    text: mutate(file, read(file)),
                }],
            })
            .collect(),
        root_manifest: None,
    }
}

fn findings_after(target: &str, needle: &str) -> Vec<Finding> {
    run(&workspace(|rel, text| {
        if rel == target {
            without_lines(&text, needle)
        } else {
            text
        }
    }))
}

#[test]
fn unmutated_real_sources_are_clean() {
    let findings = run(&workspace(|_, text| text));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn deleting_a_counters_to_json_line_fires_codec_bijection() {
    let findings = findings_after(
        "crates/harness/src/codec.rs",
        "(\"retired_ops\", n(self.retired_ops)),",
    );
    assert!(
        findings.iter().any(|f| f.rule == "codec-field-bijection"
            && f.msg.contains("`retired_ops`")
            && f.msg.contains("to_json")),
        "{findings:#?}"
    );
}

#[test]
fn deleting_a_counters_from_json_line_fires_codec_bijection() {
    let findings = findings_after(
        "crates/harness/src/codec.rs",
        "retired_ops: field(\"retired_ops\")?,",
    );
    assert!(
        findings.iter().any(|f| f.rule == "codec-field-bijection"
            && f.msg.contains("`retired_ops`")
            && f.msg.contains("from_json")),
        "{findings:#?}"
    );
}
