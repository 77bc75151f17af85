//! End-to-end rule-engine tests over the seeded-violation fixture
//! crates in `fixtures/`: every rule must fire where seeded, pragmas
//! must suppress (and rot must be flagged), and the lexer traps —
//! HashMap in raw strings, nested block comments, idents in line
//! comments — must stay silent.

use std::path::Path;

use snug_lint::rules::{run, Finding};
use snug_lint::workspace::discover;

fn fixture_findings() -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let ws = discover(&root).expect("fixture workspace discovers");
    run(&ws)
}

fn of_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn every_rule_fires_on_the_fixtures() {
    let findings = fixture_findings();
    for rule in [
        "no-unordered-iteration",
        "no-wallclock-in-kernel",
        "key-fragment-registry",
        "feature-cfg-audit",
        "panic-audit",
        "forbid-unsafe",
        "pragma",
        "codec-field-bijection",
        "obs-cfg-consistency",
        "no-lossy-cast-in-kernel",
    ] {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "rule {rule} did not fire on the fixtures:\n{findings:#?}"
        );
    }
}

#[test]
fn unordered_iteration_fires_on_usage_not_import() {
    let findings = fixture_findings();
    let hits = of_rule(&findings, "no-unordered-iteration");
    assert!(!hits.is_empty());
    assert!(hits
        .iter()
        .all(|f| f.file.ends_with("kernelviol/src/lib.rs")));
    // The `use std::collections::HashMap;` import line (7) is skipped;
    // only usage sites fire.
    assert!(hits.iter().all(|f| f.line != 7), "{hits:#?}");
}

#[test]
fn wallclock_fires_in_kernel_crate_only() {
    let findings = fixture_findings();
    let hits = of_rule(&findings, "no-wallclock-in-kernel");
    assert!(!hits.is_empty());
    assert!(hits.iter().all(|f| f.file.contains("kernelviol")));
}

#[test]
fn panic_audit_fires_once_pragmas_suppress_the_rest() {
    let findings = fixture_findings();
    let hits = of_rule(&findings, "panic-audit");
    // Exactly the one unjustified unwrap: the pragma'd expect, the
    // pragma'd unwrap inside macro_rules!, and all test-mod unwraps
    // are exempt or suppressed.
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(hits[0].msg.contains("unwrap()"));
}

#[test]
fn feature_cfg_audit_fires_on_undeclared_cfg_and_bad_default() {
    let findings = fixture_findings();
    let hits = of_rule(&findings, "feature-cfg-audit");
    assert!(
        hits.iter()
            .any(|f| f.file.ends_with("kernelviol/src/lib.rs") && f.msg.contains("nonexistent")),
        "{hits:#?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.file.ends_with("keyviol/Cargo.toml") && f.msg.contains("ghost")),
        "{hits:#?}"
    );
}

#[test]
fn forbid_unsafe_fires_only_where_missing() {
    let findings = fixture_findings();
    let hits = of_rule(&findings, "forbid-unsafe");
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(hits[0].file.ends_with("kernelviol/src/lib.rs"));
}

#[test]
fn key_fragment_registry_catches_drift_both_ways() {
    let findings = fixture_findings();
    let hits = of_rule(&findings, "key-fragment-registry");
    // Unregistered fragment in source.
    assert!(
        hits.iter()
            .any(|f| f.file.ends_with("src/spec.rs") && f.msg.contains("badfrag=")),
        "{hits:#?}"
    );
    // Stale registry entry.
    assert!(
        hits.iter()
            .any(|f| f.file.ends_with("key_fragments.registry") && f.msg.contains("stale=")),
        "{hits:#?}"
    );
    // Note-less entry.
    assert!(hits.iter().any(|f| f.msg.contains("noteless")), "{hits:#?}");
    // Schema header lags SCHEMA_VERSION.
    assert!(
        hits.iter()
            .any(|f| f.msg.contains("fixture/v8") && f.msg.contains("fixture/v9")),
        "{hits:#?}"
    );
    // The registered fragments stay silent.
    assert!(!hits.iter().any(|f| f.msg.contains("okfrag")), "{hits:#?}");
}

#[test]
fn pragma_abuse_is_flagged() {
    let findings = fixture_findings();
    let hits = of_rule(&findings, "pragma");
    assert!(
        hits.iter()
            .any(|f| f.msg.contains("unknown rule `no-such-rule`")),
        "{hits:#?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.msg.contains("omits the reason string")),
        "{hits:#?}"
    );
    assert!(
        hits.iter().any(|f| f.msg.contains("suppresses nothing")),
        "{hits:#?}"
    );
}

#[test]
fn codec_bijection_fires_per_direction_and_skips_enums() {
    let findings = fixture_findings();
    let hits = of_rule(&findings, "codec-field-bijection");
    assert!(hits
        .iter()
        .all(|f| f.file.ends_with("codecviol/src/lib.rs")));
    assert!(
        hits.iter()
            .any(|f| f.msg.contains("`z`") && f.msg.contains("to_json")),
        "{hits:#?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.msg.contains("`y`") && f.msg.contains("from_json")),
        "{hits:#?}"
    );
    assert_eq!(hits.len(), 2, "{hits:#?}");
    // The pragma'd runtime-only field and the enum codec stay silent.
    assert!(!hits.iter().any(|f| f.msg.contains("secret")), "{hits:#?}");
    assert!(!hits.iter().any(|f| f.msg.contains("Mode")), "{hits:#?}");
}

#[test]
fn obs_cfg_consistency_fires_only_on_the_ungated_tally() {
    let findings = fixture_findings();
    let hits = of_rule(&findings, "obs-cfg-consistency");
    // Exactly the ungated `tally.hits` in `step`: the cfg! block, the
    // !cfg! early-return guard, the #[cfg]-gated fn, and the pragma'd
    // site all stay silent.
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(hits[0].file.ends_with("obsviol/src/lib.rs"));
    assert!(hits[0].msg.contains("tally.hits"), "{hits:#?}");
    assert_eq!(hits[0].line, 35, "{hits:#?}");
}

#[test]
fn lossy_cast_fires_on_narrowing_only() {
    let findings = fixture_findings();
    let hits = of_rule(&findings, "no-lossy-cast-in-kernel");
    // Exactly the naked `x as u32` in castviol: widening casts are
    // exempt, the masked u16 cast is pragma'd, and non-kernel crates
    // (codecviol's `as u64`) are out of scope.
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(hits[0].file.ends_with("castviol/src/lib.rs"));
    assert!(hits[0].msg.contains("as u32"), "{hits:#?}");
    assert_eq!(hits[0].line, 8, "{hits:#?}");
}

#[test]
fn registry_liveness_is_workspace_wide_with_reserved_escape() {
    let findings = fixture_findings();
    let hits = of_rule(&findings, "key-fragment-registry");
    // `elsewhere` has its only code site in a non-key module
    // (report.rs) — the workspace-wide live set keeps it alive.
    assert!(
        !hits.iter().any(|f| f.msg.contains("elsewhere")),
        "{hits:#?}"
    );
    // `parked=` has no code site at all, but its `reserved:` note
    // parks it deliberately.
    assert!(!hits.iter().any(|f| f.msg.contains("parked")), "{hits:#?}");
}

#[test]
fn lexer_traps_stay_silent() {
    let findings = fixture_findings();
    // The raw-string HashMap, the nested block comment, and the line
    // comment trap live between the RAW_TRAP const and the macro in
    // kernelviol/src/lib.rs. None of the idents inside them may fire:
    // every no-unordered-iteration / no-wallclock finding must carry a
    // message naming a real code construct, and none may point at the
    // comment-only lines 40-41.
    for f in &findings {
        if f.file.ends_with("kernelviol/src/lib.rs") {
            assert!(
                !(40..=41).contains(&f.line),
                "finding on a comment-only trap line: {f:#?}"
            );
        }
    }
}
