//! Semantic rules over the workspace symbol graph: checks that need
//! item structure and cross-file type resolution, not just a token
//! stream.
//!
//! Each rule here guards a historical bug class of this repo: codec
//! fields silently dropped from JSON round-trips (the `SimCounters`
//! bijection bug), counter tallies escaping the `obs` feature gate
//! (the silent feature weld), and truncating casts in kernel hot
//! paths. Findings are pragma-suppressible like
//! any token rule — the engine applies suppression globally after
//! all rules have run.

use crate::lexer::TokKind;
use crate::rules::Finding;
use crate::symbols::{FileCtx, Graph, SymbolTable};
use crate::workspace::FileKind;

/// True when the token span `[lo, hi]` of `ctx` mentions `name` as a
/// field: a string literal with exactly that content (codec keys), an
/// identifier preceded by `.` (field access), or an identifier
/// followed by `:`/`,`/`}`/`;` (struct-literal init or shorthand).
/// Deliberately syntactic: deleting the line that reads or writes the
/// field removes every qualifying mention.
fn mentions_field(ctx: &FileCtx<'_>, span: (usize, usize), name: &str) -> bool {
    let hi = span.1.min(ctx.toks.len().saturating_sub(1));
    let idx: Vec<usize> = (span.0..=hi)
        .filter(|&i| {
            !matches!(
                ctx.toks[i].kind,
                TokKind::LineComment | TokKind::BlockComment
            )
        })
        .collect();
    for (k, &i) in idx.iter().enumerate() {
        let t = &ctx.toks[i];
        match t.kind {
            TokKind::Str | TokKind::RawStr if t.str_content() == name => {
                return true;
            }
            TokKind::Ident if t.text == name => {
                let prev_dot = k > 0 && ctx.toks[idx[k - 1]].is_punct('.');
                let next_ok = idx
                    .get(k + 1)
                    .map(|&j| {
                        let n = &ctx.toks[j];
                        n.is_punct(':') || n.is_punct(',') || n.is_punct('}') || n.is_punct(';')
                    })
                    .unwrap_or(false);
                if prev_dot || next_ok {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// `codec-field-bijection`: an impl carrying both `to_json` and
/// `from_json` for a first-party struct with named fields must
/// mention every field in both bodies. Enums and unresolvable types
/// are out of scope (a rule must not guess).
pub fn codec_field_bijection(graph: &Graph<'_>, symtab: &SymbolTable, out: &mut Vec<Finding>) {
    for (fi, ctx) in graph.files.iter().enumerate() {
        if ctx.file.kind != FileKind::Lib {
            continue;
        }
        for imp in &ctx.items.impls {
            let bodied = |name: &str| {
                imp.methods
                    .iter()
                    .find(|m| m.name == name)
                    .and_then(|m| m.body.map(|b| (m, b)))
            };
            let (Some(to), Some(from)) = (bodied("to_json"), bodied("from_json")) else {
                continue;
            };
            if symtab.is_enum(&imp.self_ty) {
                continue;
            }
            let Some((_, s)) = symtab.resolve_struct(graph, fi, &imp.self_ty) else {
                continue;
            };
            if !s.has_named_fields {
                continue;
            }
            for ((m, body), dir) in [(to, "to_json"), (from, "from_json")] {
                for f in &s.fields {
                    if !mentions_field(ctx, body, &f.name) {
                        out.push(Finding {
                            file: ctx.file.rel.clone(),
                            line: m.line,
                            rule: "codec-field-bijection".into(),
                            msg: format!(
                                "field `{}` of `{}` does not appear in `{dir}` — a one-sided \
                                 codec drops data on the round trip (the PR 6 SimCounters bug \
                                 class); encode it or pragma-justify the omission",
                                f.name, s.name
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// One `self.tally.<field> += …` (or `tally.<field>[i] += …`) site.
struct TallySite {
    raw: usize,
    line: u32,
    field: String,
}

/// `obs-cfg-consistency`: every counter-tally site in kernel library
/// code must be reachable only under the `obs` feature — inside an
/// `if cfg!(feature = "obs")` block, after a `!cfg!(…obs…)` early
/// return, or in a `#[cfg(feature = "obs")]`-gated fn/impl.
pub fn obs_cfg_consistency(graph: &Graph<'_>, out: &mut Vec<Finding>) {
    for ctx in &graph.files {
        if !ctx.krate.is_kernel() || ctx.file.kind != FileKind::Lib {
            continue;
        }
        let sites = tally_sites(ctx);
        if sites.is_empty() {
            continue;
        }
        // All bodied fns of the file with their effective cfg gate.
        let mut bodies: Vec<((usize, usize), bool)> = Vec::new();
        for f in &ctx.items.fns {
            if let Some(b) = f.body {
                bodies.push((b, f.cfg_feature.as_deref() == Some("obs")));
            }
        }
        for imp in &ctx.items.impls {
            let imp_gated = imp.cfg_feature.as_deref() == Some("obs");
            for m in &imp.methods {
                if let Some(b) = m.body {
                    bodies.push((b, imp_gated || m.cfg_feature.as_deref() == Some("obs")));
                }
            }
        }
        for site in sites {
            // Innermost containing body (nested fns are not parsed,
            // so smallest span wins trivially).
            let hit = bodies
                .iter()
                .filter(|((lo, hi), _)| *lo <= site.raw && site.raw <= *hi)
                .min_by_key(|((lo, hi), _)| hi - lo);
            let gated = match hit {
                Some(&(body, whole_fn_gated)) => {
                    whole_fn_gated
                        || gated_ranges(ctx, body)
                            .iter()
                            .any(|(lo, hi)| *lo <= site.raw && site.raw <= *hi)
                }
                None => false,
            };
            if !gated {
                out.push(Finding {
                    file: ctx.file.rel.clone(),
                    line: site.line,
                    rule: "obs-cfg-consistency".into(),
                    msg: format!(
                        "counter tally `tally.{} += …` is reachable with the `obs` feature \
                         compiled out — gate it under `if cfg!(feature = \"obs\")` (or a \
                         `!cfg!` early return) so the zero-cost build stays zero-cost",
                        site.field
                    ),
                });
            }
        }
    }
}

/// Collect `tally.<field> … += …` sites in non-test code.
fn tally_sites(ctx: &FileCtx<'_>) -> Vec<TallySite> {
    let code: Vec<usize> = ctx
        .toks
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) && !ctx.mask[*i]
        })
        .map(|(i, _)| i)
        .collect();
    let tok = |k: usize| &ctx.toks[code[k]];
    let mut sites = Vec::new();
    let mut k = 0;
    while k + 3 < code.len() {
        if tok(k).is_ident("tally") && tok(k + 1).is_punct('.') && tok(k + 2).kind == TokKind::Ident
        {
            let field = tok(k + 2).text.clone();
            let mut j = k + 3;
            // Optional index expression: `tally.buckets[d] += 1`.
            if j < code.len() && tok(j).is_punct('[') {
                let mut depth = 0i64;
                while j < code.len() {
                    if tok(j).is_punct('[') {
                        depth += 1;
                    } else if tok(j).is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if j + 1 < code.len() && tok(j).is_punct('+') && tok(j + 1).is_punct('=') {
                sites.push(TallySite {
                    raw: code[k],
                    line: tok(k).line,
                    field,
                });
            }
        }
        k += 1;
    }
    sites
}

/// Token ranges (raw indices) within `body` that are only reachable
/// under the `obs` feature: `if cfg!(feature = "obs") { … }` blocks,
/// and everything after an `if !cfg!(feature = "obs") { … return … }`
/// guard.
fn gated_ranges(ctx: &FileCtx<'_>, body: (usize, usize)) -> Vec<(usize, usize)> {
    let code: Vec<usize> = (body.0..=body.1.min(ctx.toks.len().saturating_sub(1)))
        .filter(|&i| {
            !matches!(
                ctx.toks[i].kind,
                TokKind::LineComment | TokKind::BlockComment
            )
        })
        .collect();
    let tok = |k: usize| &ctx.toks[code[k]];
    let mut ranges = Vec::new();
    let mut k = 0;
    while k + 2 < code.len() {
        if !(tok(k).is_ident("cfg") && tok(k + 1).is_punct('!') && tok(k + 2).is_punct('(')) {
            k += 1;
            continue;
        }
        let negated = k > 0 && tok(k - 1).is_punct('!');
        // The cfg condition group; it must actually name "obs".
        let mut j = k + 2;
        let mut depth = 0i64;
        let mut names_obs = false;
        while j < code.len() {
            if tok(j).is_punct('(') {
                depth += 1;
            } else if tok(j).is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tok(j).kind == TokKind::Str && tok(j).str_content() == "obs" {
                names_obs = true;
            }
            j += 1;
        }
        if !names_obs {
            k = j + 1;
            continue;
        }
        // The branch block: the next `{` at this statement (further
        // `&&`-joined conditions may sit in between).
        let mut b = j + 1;
        while b < code.len() && !tok(b).is_punct('{') && !tok(b).is_punct(';') {
            b += 1;
        }
        if b >= code.len() || !tok(b).is_punct('{') {
            k = j + 1;
            continue;
        }
        let open = b;
        let mut bd = 0i64;
        while b < code.len() {
            if tok(b).is_punct('{') {
                bd += 1;
            } else if tok(b).is_punct('}') {
                bd -= 1;
                if bd == 0 {
                    break;
                }
            }
            b += 1;
        }
        let close = b.min(code.len() - 1);
        if !negated {
            ranges.push((code[open], code[close]));
        } else {
            // Guard form: the block must bail out for the rest of the
            // body to count as gated.
            let bails = (open..=close).any(|x| tok(x).is_ident("return"));
            if bails && close + 1 < code.len() {
                ranges.push((code[close + 1], body.1));
            }
        }
        k = close + 1;
    }
    ranges
}

/// `no-lossy-cast-in-kernel`: `as u8/u16/u32/i8/i16/i32` in kernel
/// library code truncates silently on out-of-range values — each site
/// needs a pragma arguing the range. `as usize`/`as u64`/`as f64`
/// stay exempt: they are widening or address arithmetic in this
/// workspace's kernels.
pub fn lossy_cast_in_kernel(graph: &Graph<'_>, out: &mut Vec<Finding>) {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    for ctx in &graph.files {
        if !ctx.krate.is_kernel() || ctx.file.kind != FileKind::Lib {
            continue;
        }
        let code: Vec<usize> = ctx
            .toks
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) && !ctx.mask[*i]
            })
            .map(|(i, _)| i)
            .collect();
        for w in code.windows(2) {
            let (a, b) = (&ctx.toks[w[0]], &ctx.toks[w[1]]);
            if a.is_ident("as") && NARROW.iter().any(|n| b.is_ident(n)) {
                out.push(Finding {
                    file: ctx.file.rel.clone(),
                    line: a.line,
                    rule: "no-lossy-cast-in-kernel".into(),
                    msg: format!(
                        "`as {}` in kernel code truncates silently when the value outgrows \
                         the target — prove the range in a pragma or widen the type",
                        b.text
                    ),
                });
            }
        }
    }
}
