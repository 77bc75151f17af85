//! The rule engine: per-file token rules, per-crate manifest rules,
//! the key-fragment registry check, and the `snug-lint: allow`
//! pragma escape hatch.
//!
//! Every rule exists because a runtime property of this repo was once
//! (or could silently become) violated by an innocent-looking edit;
//! the rationale strings below are part of the tool's contract and
//! surface in `--list-rules` and ARCHITECTURE.md.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Tok, TokKind};
use crate::symbols::{Graph, SymbolTable};
use crate::workspace::{CrateInfo, FileKind, SourceFile, Workspace};

/// One lint finding, pointing at a file/line with a rule id.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of [`RULES`], or `pragma` for escape-hatch abuse).
    pub rule: String,
    /// Human-readable description of the violation.
    pub msg: String,
}

/// Static description of a rule, for `--list-rules` and docs.
pub struct RuleInfo {
    /// Rule id as used in pragmas.
    pub name: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// The rule catalogue. `pragma` is engine-level and deliberately not
/// listed: it polices the escape hatch itself and cannot be allowed
/// away.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-unordered-iteration",
        summary: "HashMap/HashSet in library code: iteration order feeds stores, reports, \
                  and content keys — use BTreeMap/BTreeSet or pragma-justify keyed-only access",
    },
    RuleInfo {
        name: "no-wallclock-in-kernel",
        summary: "Instant/SystemTime banned in sim-* crates: simulated time is the only clock \
                  the kernel may read; wall time belongs to harness spans",
    },
    RuleInfo {
        name: "key-fragment-registry",
        summary: "every |frag content-key fragment in key-construction modules must appear in \
                  the committed key_fragments.registry with a schema-version note",
    },
    RuleInfo {
        name: "feature-cfg-audit",
        summary: "cfg(feature = ...) must name a declared feature; obs-bearing workspace deps \
                  keep default-features = false in [workspace.dependencies]",
    },
    RuleInfo {
        name: "panic-audit",
        summary: "unwrap/expect/panic!/unreachable!/todo! in library code require a \
                  justification pragma; bins, tests, benches, examples exempt",
    },
    RuleInfo {
        name: "forbid-unsafe",
        summary: "every first-party library crate keeps #![forbid(unsafe_code)] in lib.rs",
    },
    RuleInfo {
        name: "codec-field-bijection",
        summary: "every field of a struct with a to_json/from_json pair must appear in both \
                  bodies — one-sided codecs drop data on the round trip",
    },
    RuleInfo {
        name: "obs-cfg-consistency",
        summary: "counter-tally sites in sim-* library code must be reachable only under the \
                  obs feature (cfg! block, !cfg! early return, or #[cfg]-gated fn)",
    },
    RuleInfo {
        name: "no-lossy-cast-in-kernel",
        summary: "truncating `as` casts (u8/u16/u32/i8/i16/i32) in sim-* library code need a \
                  pragma proving the value range",
    },
];

fn rule_exists(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// A parsed `// snug-lint: allow(RULE, "reason")` pragma.
#[derive(Debug)]
struct Pragma {
    file: String,
    rule: String,
    decl_line: u32,
    target_line: u32,
    used: bool,
}

/// Run every rule over the workspace. Findings come back sorted by
/// (file, line, rule) and already pragma-filtered.
///
/// The engine is two-phase: phase one lexes and item-parses every
/// file into the symbol [`Graph`], collects pragmas, and runs the
/// token rules; phase two runs the semantic rules over the graph.
/// Pragma suppression is applied globally at the end so a semantic
/// finding that crosses files (say, a codec impl in `snug-harness`
/// anchored at a field declared in `snug-metrics`) can still be
/// suppressed at the line it points to.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let graph = Graph::build(ws);
    let symtab = SymbolTable::build(&graph);

    // Non-suppressible findings (manifest/registry/pragma-engine).
    let mut findings = Vec::new();
    // Pragma-suppressible findings, filtered below.
    let mut raw: Vec<Finding> = Vec::new();
    let mut pragmas: Vec<Pragma> = Vec::new();
    // (fragment, file, line) occurrences inside key modules.
    let mut fragments: Vec<(String, String, u32)> = Vec::new();
    // Fragments with any non-test code site, workspace-wide: the
    // live-site set for dead-entry detection.
    let mut live: BTreeSet<String> = BTreeSet::new();
    let mut schema_version: Option<String> = None;

    for krate in &ws.crates {
        forbid_unsafe(krate, &mut findings);
        feature_declarations(krate, &mut findings);
    }

    for ctx in &graph.files {
        pragmas.extend(collect_pragmas(ctx.file, &ctx.toks, &mut findings));
        unordered_iteration(ctx.krate, ctx.file, &ctx.toks, &ctx.mask, &mut raw);
        wallclock_in_kernel(ctx.krate, ctx.file, &ctx.toks, &mut raw);
        panic_audit(ctx.file, &ctx.toks, &ctx.mask, &mut raw);
        cfg_feature_names(ctx.krate, ctx.file, &ctx.toks, &mut raw);
        if ctx.krate.is_key_bearing() && is_key_module(ctx.file) {
            collect_fragments(ctx.file, &ctx.toks, &ctx.mask, &mut fragments);
            if ctx.file.rel.ends_with("spec.rs") && schema_version.is_none() {
                schema_version = extract_schema_version(&ctx.toks);
            }
        }
        if matches!(ctx.file.kind, FileKind::Lib | FileKind::Bin) {
            let mut sites = Vec::new();
            collect_fragments(ctx.file, &ctx.toks, &ctx.mask, &mut sites);
            live.extend(sites.into_iter().map(|(frag, _, _)| frag));
        }
    }

    workspace_default_features(ws, &mut findings);
    for krate in &ws.crates {
        if krate.is_key_bearing() {
            key_fragment_registry(
                krate,
                &fragments,
                &live,
                schema_version.as_deref(),
                &mut findings,
            );
        }
    }

    crate::semantic::codec_field_bijection(&graph, &symtab, &mut raw);
    crate::semantic::obs_cfg_consistency(&graph, &mut raw);
    crate::semantic::lossy_cast_in_kernel(&graph, &mut raw);

    // Suppression: a finding is dropped when a pragma in the same
    // file, for the same rule, targets its line.
    raw.retain(|f| {
        let suppressed = pragmas
            .iter_mut()
            .find(|p| p.rule == f.rule && p.file == f.file && p.target_line == f.line);
        match suppressed {
            Some(p) => {
                p.used = true;
                false
            }
            None => true,
        }
    });
    findings.append(&mut raw);

    for p in &pragmas {
        if !p.used {
            findings.push(Finding {
                file: p.file.clone(),
                line: p.decl_line,
                rule: "pragma".into(),
                msg: format!(
                    "allow({}) suppresses nothing on line {} — remove the stale pragma",
                    p.rule, p.target_line
                ),
            });
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

/// Parse pragmas out of line comments. Malformed pragmas (wrong
/// shape, unknown rule, missing/empty reason) are findings under the
/// non-suppressible `pragma` rule.
fn collect_pragmas(file: &SourceFile, toks: &[Tok], findings: &mut Vec<Finding>) -> Vec<Pragma> {
    // Lines that carry at least one non-comment token, for resolving
    // what a standalone pragma line targets.
    let code_lines: BTreeSet<u32> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|t| t.line)
        .collect();
    let mut pragmas = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("snug-lint:") else {
            continue;
        };
        let mut bad = |msg: String| {
            findings.push(Finding {
                file: file.rel.clone(),
                line: t.line,
                rule: "pragma".into(),
                msg,
            });
        };
        let rest = rest.trim();
        let inner = rest
            .strip_prefix("allow(")
            .and_then(|s| s.strip_suffix(')'));
        let Some(inner) = inner else {
            bad(format!(
                "malformed pragma `{rest}` — expected `allow(RULE, \"reason\")`"
            ));
            continue;
        };
        let Some((rule, reason)) = inner.split_once(',') else {
            bad(format!(
                "pragma `allow({inner})` omits the reason string — every allow must say why"
            ));
            continue;
        };
        let rule = rule.trim();
        let reason = reason.trim();
        if !rule_exists(rule) {
            bad(format!(
                "pragma names unknown rule `{rule}` — known rules: {}",
                RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
            ));
            continue;
        }
        let quoted = reason.len() >= 2 && reason.starts_with('"') && reason.ends_with('"');
        if !quoted || reason.len() == 2 {
            bad(format!(
                "pragma for `{rule}` has an empty or unquoted reason — write a real justification"
            ));
            continue;
        }
        // Trailing pragma annotates its own line; a standalone comment
        // line annotates the next line that carries code.
        let target_line = if code_lines.contains(&t.line) {
            t.line
        } else {
            code_lines
                .range(t.line + 1..)
                .next()
                .copied()
                .unwrap_or(t.line + 1)
        };
        pragmas.push(Pragma {
            file: file.rel.clone(),
            rule: rule.to_string(),
            decl_line: t.line,
            target_line,
            used: false,
        });
    }
    pragmas
}

/// `no-unordered-iteration`: HashMap/HashSet identifiers in library
/// (non-test) code. `use` items are skipped — the usage site, not the
/// import, is what carries iteration-order risk.
fn unordered_iteration(
    _krate: &CrateInfo,
    file: &SourceFile,
    toks: &[Tok],
    mask: &[bool],
    out: &mut Vec<Finding>,
) {
    if file.kind != FileKind::Lib {
        return;
    }
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        if t.is_ident("use") {
            in_use = true;
        } else if t.is_punct(';') {
            in_use = false;
        }
        if mask[i] || in_use {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(Finding {
                file: file.rel.clone(),
                line: t.line,
                rule: "no-unordered-iteration".into(),
                msg: format!(
                    "`{}` in library code: iteration order is nondeterministic and this \
                     repo's stores/reports/keys must be byte-stable — use BTreeMap/BTreeSet, \
                     sort explicitly, or pragma-justify keyed-only access",
                    t.text
                ),
            });
        }
    }
}

/// `no-wallclock-in-kernel`: Instant/SystemTime anywhere in a
/// `sim-*` crate, tests included — the kernel's only clock is
/// simulated cycles.
fn wallclock_in_kernel(krate: &CrateInfo, file: &SourceFile, toks: &[Tok], out: &mut Vec<Finding>) {
    if !krate.is_kernel() {
        return;
    }
    for t in toks {
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            out.push(Finding {
                file: file.rel.clone(),
                line: t.line,
                rule: "no-wallclock-in-kernel".into(),
                msg: format!(
                    "`{}` in kernel crate `{}`: wall-clock reads make simulation results \
                     timing-dependent — kernels count simulated cycles only; spans/timing \
                     belong to the harness",
                    t.text, krate.name
                ),
            });
        }
    }
}

/// `panic-audit`: panicking constructs in library (non-bin, non-test)
/// code need a justification pragma. `assert!`-family macros are
/// deliberately exempt: they state invariants, and clippy already
/// polices their use.
fn panic_audit(file: &SourceFile, toks: &[Tok], mask: &[bool], out: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib {
        return;
    }
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    for (ci, &i) in code.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        let next = code.get(ci + 1).map(|&j| &toks[j]);
        let method_call = (t.is_ident("unwrap") || t.is_ident("expect"))
            && next.map(|n| n.is_punct('(')).unwrap_or(false);
        let macro_call = (t.is_ident("panic")
            || t.is_ident("unreachable")
            || t.is_ident("todo")
            || t.is_ident("unimplemented"))
            && next.map(|n| n.is_punct('!')).unwrap_or(false);
        if method_call || macro_call {
            out.push(Finding {
                file: file.rel.clone(),
                line: t.line,
                rule: "panic-audit".into(),
                msg: format!(
                    "`{}{}` in library code: panics tear down sweep workers and corrupt \
                     partial stores — return an error, or pragma-justify why this cannot fire",
                    t.text,
                    if macro_call { "!" } else { "()" }
                ),
            });
        }
    }
}

/// `feature-cfg-audit` (source half): every `feature = "X"` token
/// triple must name a feature declared in the crate's manifest.
fn cfg_feature_names(krate: &CrateInfo, file: &SourceFile, toks: &[Tok], out: &mut Vec<Finding>) {
    let declared: BTreeSet<&str> = krate.manifest.keys("features").into_iter().collect();
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    for w in code.windows(3) {
        if w[0].is_ident("feature") && w[1].is_punct('=') && w[2].kind == TokKind::Str {
            let name = w[2].str_content();
            if !declared.contains(name) {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: w[0].line,
                    rule: "feature-cfg-audit".into(),
                    msg: format!(
                        "cfg names feature `{name}` which `{}` does not declare in [features] \
                         — the cfg'd code would silently never (or always) compile",
                        krate.name
                    ),
                });
            }
        }
    }
}

/// `feature-cfg-audit` (manifest half, per crate): catch a `default`
/// feature list referencing undeclared features.
fn feature_declarations(krate: &CrateInfo, out: &mut Vec<Finding>) {
    let declared: BTreeSet<&str> = krate.manifest.keys("features").into_iter().collect();
    for dep in krate.manifest.string_array("features", "default") {
        if !declared.contains(dep.as_str()) && !dep.contains('/') {
            out.push(Finding {
                file: manifest_rel(krate),
                line: 1,
                rule: "feature-cfg-audit".into(),
                msg: format!(
                    "`{}` lists default feature `{dep}` which is not declared in [features]",
                    krate.name
                ),
            });
        }
    }
}

/// `feature-cfg-audit` (workspace half): any first-party crate with a
/// non-empty `default` feature set must be pinned with
/// `default-features = false` in `[workspace.dependencies]` — cargo
/// silently ignores the member-table override otherwise (the PR 6
/// obs-weld bug class).
fn workspace_default_features(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(root) = &ws.root_manifest else {
        return;
    };
    for krate in &ws.crates {
        if krate
            .manifest
            .string_array("features", "default")
            .is_empty()
        {
            continue;
        }
        let Some(value) = root.get("workspace.dependencies", &krate.name) else {
            continue; // leaf crate, nobody depends on it via the workspace table
        };
        let pinned = value.contains("default-features") && value.contains("false");
        if !pinned {
            out.push(Finding {
                file: "Cargo.toml".into(),
                line: root
                    .line_of_key("workspace.dependencies", &krate.name)
                    .unwrap_or(1),
                rule: "feature-cfg-audit".into(),
                msg: format!(
                    "[workspace.dependencies] entry for `{}` leaves default features on; \
                     consumers' `default-features = false` is silently ignored, welding \
                     `{}`'s defaults (obs) into every build",
                    krate.name, krate.name
                ),
            });
        }
    }
}

/// `forbid-unsafe`: every first-party crate with a `src/lib.rs` must
/// carry the inner attribute `#![forbid(unsafe_code)]`.
fn forbid_unsafe(krate: &CrateInfo, out: &mut Vec<Finding>) {
    let Some(lib) = krate
        .files
        .iter()
        .find(|f| f.kind == FileKind::Lib && f.rel.ends_with("src/lib.rs"))
    else {
        return;
    };
    let toks = lex(&lib.text);
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let found = code.windows(6).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
    });
    if !found {
        out.push(Finding {
            file: lib.rel.clone(),
            line: 1,
            rule: "forbid-unsafe".into(),
            msg: format!(
                "`{}` is missing `#![forbid(unsafe_code)]` — every library crate in this \
                 workspace forbids unsafe so determinism arguments stay local",
                krate.name
            ),
        });
    }
}

/// True for the modules where content keys are constructed; the
/// fragment registry rule scans only these. A new key-building module
/// must be added here (and documented in ARCHITECTURE.md) to come
/// under the rule.
fn is_key_module(file: &SourceFile) -> bool {
    file.kind == FileKind::Lib
        && (file.rel.ends_with("src/spec.rs")
            || file.rel.ends_with("src/codec.rs")
            || file.rel.ends_with("src/sweep.rs"))
}

/// Extract `|frag=` / `|frag` fragments from string literals in
/// non-test code: a `|` immediately followed by an identifier-like
/// name (letters first, then letters/digits/`_`/`-`), capturing a
/// trailing `=` when present.
fn collect_fragments(
    file: &SourceFile,
    toks: &[Tok],
    mask: &[bool],
    out: &mut Vec<(String, String, u32)>,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || !matches!(t.kind, TokKind::Str | TokKind::RawStr) {
            continue;
        }
        let content = t.str_content();
        let bytes: Vec<char> = content.chars().collect();
        let mut k = 0;
        while k < bytes.len() {
            if bytes[k] == '|' && k + 1 < bytes.len() && bytes[k + 1].is_ascii_alphabetic() {
                let start = k + 1;
                let mut end = start;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric()
                        || bytes[end] == '_'
                        || bytes[end] == '-')
                {
                    end += 1;
                }
                let mut frag: String = bytes[start..end].iter().collect();
                if bytes.get(end) == Some(&'=') {
                    frag.push('=');
                    end += 1;
                }
                out.push((frag, file.rel.clone(), t.line));
                k = end;
            } else {
                k += 1;
            }
        }
    }
}

/// Find the `SCHEMA_VERSION` const's string value: the identifier
/// followed (through `: &str =` shaped tokens only) by a string.
fn extract_schema_version(toks: &[Tok]) -> Option<String> {
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("SCHEMA_VERSION") {
            continue;
        }
        let mut j = i + 1;
        while let Some(n) = code.get(j) {
            match n.kind {
                TokKind::Str => return Some(n.str_content().to_string()),
                TokKind::Punct if n.is_punct(':') || n.is_punct('&') || n.is_punct('=') => {}
                TokKind::Ident if n.is_ident("str") || n.is_ident("static") => {}
                TokKind::Lifetime => {}
                _ => break,
            }
            j += 1;
        }
    }
    None
}

/// `key-fragment-registry`: reconcile fragments found in key modules
/// against the committed `key_fragments.registry` in the crate root.
///
/// Registration flows one way (every key-module fragment must be in
/// the registry); liveness flows the other (every registry entry must
/// have a code site *somewhere in the workspace* — `live` is the
/// union over all first-party Lib/Bin files, not just key modules, so
/// an entry referenced from a report renderer still counts). An entry
/// whose note starts with `reserved:` is exempt from the dead-entry
/// check: that is the committed way to park a fragment (pragmas
/// cannot annotate `.registry` files).
fn key_fragment_registry(
    krate: &CrateInfo,
    fragments: &[(String, String, u32)],
    live: &BTreeSet<String>,
    schema_version: Option<&str>,
    out: &mut Vec<Finding>,
) {
    let reg_rel = if krate.rel_dir == "." {
        "key_fragments.registry".to_string()
    } else {
        format!("{}/key_fragments.registry", krate.rel_dir)
    };
    let reg_path = krate.dir.join("key_fragments.registry");
    let text = match std::fs::read_to_string(&reg_path) {
        Ok(t) => t,
        Err(_) => {
            out.push(Finding {
                file: reg_rel,
                line: 1,
                rule: "key-fragment-registry".into(),
                msg: format!(
                    "`{}` builds content keys but has no committed key_fragments.registry — \
                     every key fragment must be registered with a schema-version note",
                    krate.name
                ),
            });
            return;
        }
    };
    // Registry format: `# schema: <version>` header, then
    // `<fragment><whitespace><note>` entry lines; `#` lines are comments.
    let mut registered: BTreeMap<String, (u32, String)> = BTreeMap::new();
    let mut header_schema: Option<String> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(v) = rest.trim().strip_prefix("schema:") {
                header_schema = Some(v.trim().to_string());
            }
            continue;
        }
        let mut parts = line.splitn(2, char::is_whitespace);
        let frag = parts.next().unwrap_or_default().to_string();
        let note = parts.next().unwrap_or("").trim();
        if note.is_empty() {
            out.push(Finding {
                file: reg_rel.clone(),
                line: lineno,
                rule: "key-fragment-registry".into(),
                msg: format!("registry entry `{frag}` is missing its schema-version note"),
            });
        }
        registered.insert(frag, (lineno, note.to_string()));
    }
    match (&header_schema, schema_version) {
        (Some(h), Some(s)) if h != s => out.push(Finding {
            file: reg_rel.clone(),
            line: 1,
            rule: "key-fragment-registry".into(),
            msg: format!(
                "registry header says `schema: {h}` but SCHEMA_VERSION in spec.rs is `{s}` — \
                 bump the registry alongside the schema"
            ),
        }),
        (None, _) => out.push(Finding {
            file: reg_rel.clone(),
            line: 1,
            rule: "key-fragment-registry".into(),
            msg: "registry is missing its `# schema: <version>` header line".into(),
        }),
        _ => {}
    }
    for (frag, file, line) in fragments {
        if !registered.contains_key(frag) {
            out.push(Finding {
                file: file.clone(),
                line: *line,
                rule: "key-fragment-registry".into(),
                msg: format!(
                    "content-key fragment `|{frag}` is not in {reg_rel} — register it with a \
                     schema-version note (unregistered fragments are how key drift ships silently)"
                ),
            });
        }
    }
    for (frag, (lineno, note)) in &registered {
        if note.starts_with("reserved:") {
            continue;
        }
        if !live.contains(frag) {
            out.push(Finding {
                file: reg_rel.clone(),
                line: *lineno,
                rule: "key-fragment-registry".into(),
                msg: format!(
                    "registry entry `{frag}` has no remaining code site anywhere in the \
                     workspace — delete the dead entry, or change its note to \
                     `reserved: <why>` to park the fragment deliberately"
                ),
            });
        }
    }
}

fn manifest_rel(krate: &CrateInfo) -> String {
    if krate.rel_dir == "." {
        "Cargo.toml".to_string()
    } else {
        format!("{}/Cargo.toml", krate.rel_dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use crate::workspace::Workspace;
    use std::path::PathBuf;

    fn file(rel: &str, kind: FileKind, text: &str) -> SourceFile {
        SourceFile {
            rel: rel.into(),
            kind,
            text: text.into(),
        }
    }

    fn krate(name: &str, rel_dir: &str, manifest: &str, files: Vec<SourceFile>) -> CrateInfo {
        CrateInfo {
            name: name.into(),
            rel_dir: rel_dir.into(),
            dir: PathBuf::from(rel_dir),
            manifest: Manifest::parse(manifest),
            files,
        }
    }

    fn ws(root_manifest: Option<&str>, crates: Vec<CrateInfo>) -> Workspace {
        Workspace {
            root: PathBuf::from("."),
            crates,
            root_manifest: root_manifest.map(Manifest::parse),
        }
    }

    #[test]
    fn workspace_dep_without_default_features_false_is_the_pr6_bug() {
        let member = "[package]\nname = \"obsful\"\n[features]\ndefault = [\"obs\"]\nobs = []\n";
        let lib = file(
            "crates/obsful/src/lib.rs",
            FileKind::Lib,
            "#![forbid(unsafe_code)]\n",
        );
        let bad_root =
            "[workspace]\n[workspace.dependencies]\nobsful = { path = \"crates/obsful\" }\n";
        let w = ws(
            Some(bad_root),
            vec![krate("obsful", "crates/obsful", member, vec![lib])],
        );
        let findings = run(&w);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "feature-cfg-audit" && f.msg.contains("default features on")),
            "{findings:#?}"
        );

        let good_root = "[workspace]\n[workspace.dependencies]\nobsful = { path = \"crates/obsful\", default-features = false }\n";
        let lib = file(
            "crates/obsful/src/lib.rs",
            FileKind::Lib,
            "#![forbid(unsafe_code)]\n",
        );
        let w = ws(
            Some(good_root),
            vec![krate("obsful", "crates/obsful", member, vec![lib])],
        );
        assert!(run(&w).is_empty(), "{:#?}", run(&w));
    }

    #[test]
    fn trailing_pragma_targets_its_own_line() {
        let src = "#![forbid(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // snug-lint: allow(panic-audit, \"test: trailing\")\n}\n";
        let lib = file("crates/t/src/lib.rs", FileKind::Lib, src);
        let w = ws(
            None,
            vec![krate(
                "t",
                "crates/t",
                "[package]\nname = \"t\"\n",
                vec![lib],
            )],
        );
        assert!(run(&w).is_empty(), "{:#?}", run(&w));
    }

    #[test]
    fn standalone_pragma_targets_next_code_line_across_blank_and_comment() {
        let src = "#![forbid(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 {\n    // snug-lint: allow(panic-audit, \"test: standalone\")\n    // an interleaved ordinary comment\n\n    x.unwrap()\n}\n";
        let lib = file("crates/t/src/lib.rs", FileKind::Lib, src);
        let w = ws(
            None,
            vec![krate(
                "t",
                "crates/t",
                "[package]\nname = \"t\"\n",
                vec![lib],
            )],
        );
        assert!(run(&w).is_empty(), "{:#?}", run(&w));
    }

    #[test]
    fn pragma_for_wrong_rule_does_not_suppress() {
        let src = "#![forbid(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // snug-lint: allow(forbid-unsafe, \"wrong rule\")\n}\n";
        let lib = file("crates/t/src/lib.rs", FileKind::Lib, src);
        let w = ws(
            None,
            vec![krate(
                "t",
                "crates/t",
                "[package]\nname = \"t\"\n",
                vec![lib],
            )],
        );
        let findings = run(&w);
        // The unwrap still fires AND the mismatched pragma is stale.
        assert!(findings.iter().any(|f| f.rule == "panic-audit"));
        assert!(findings
            .iter()
            .any(|f| f.rule == "pragma" && f.msg.contains("suppresses nothing")));
    }

    #[test]
    fn bins_tests_benches_are_panic_exempt() {
        for kind in [
            FileKind::Bin,
            FileKind::Test,
            FileKind::Bench,
            FileKind::Example,
        ] {
            let f = file("crates/t/x.rs", kind, "fn main() { None::<u32>.unwrap(); }");
            let w = ws(
                None,
                vec![krate("t", "crates/t", "[package]\nname = \"t\"\n", vec![f])],
            );
            assert!(
                run(&w).iter().all(|f| f.rule != "panic-audit"),
                "{kind:?} should be exempt"
            );
        }
    }

    #[test]
    fn schema_version_extraction_reads_the_const() {
        let toks = lex("pub const SCHEMA_VERSION: &str = \"snug-harness/v2\";");
        assert_eq!(
            extract_schema_version(&toks).as_deref(),
            Some("snug-harness/v2")
        );
    }
}
