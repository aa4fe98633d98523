//! Pass 1 of the two-pass analyzer: a lightweight per-file symbol table
//! built over the token stream.
//!
//! The table records just enough structure for the dataflow-aware rules
//! in pass 2 without a real parser:
//!
//! * **Zone classification** — which determinism zone the file lives in,
//!   derived from its workspace path: *hot-path* (solver, DTM loop,
//!   adaptive controller, response cache — anywhere bit-identical results
//!   are a published claim), *instrumented* (the `xylem-obs` no-println
//!   set), or *free* (everything else).
//! * **`use` imports** — flattened to `(leaf name, full path)` pairs so
//!   rules can tell `std::collections::HashMap` from a local `HashMap`.
//! * **Function spans** — name, signature range, and brace-matched body
//!   range for every `fn`, nested ones included, so findings can be
//!   attributed to the innermost enclosing function.
//! * **Unit-newtype bindings** — locals and parameters bound to one of
//!   the `xylem_thermal::units` newtypes (`Celsius`, `Kelvin`, `Watts`,
//!   ...), from `let x: Celsius`, `let x = Celsius::new(...)`, and
//!   `fn f(x: Celsius)` shapes. Rule `no-unit-escape` uses these to
//!   catch `.0` field projections that bypass the dimensional layer.
//! * **Float accumulators** — `let mut acc = 0.0;`-shaped locals (a
//!   float-literal initializer is the signature of a from-scratch
//!   reduction, as opposed to row-local stencil accumulators that start
//!   from an existing element). Rule `no-raw-accumulation` flags `+=`
//!   folds into these in hot-path files.
//!
//! The pass is total: any token stream (including fuzzer byte soup)
//! yields a table, never a panic.

use crate::lexer::{Tok, TokKind};

/// The physical-quantity newtypes of `xylem_thermal::units`. A `.0`
/// projection on a binding of one of these types bypasses the
/// dimensional layer (rule `no-unit-escape`).
pub const UNIT_TYPES: &[&str] = &[
    "Celsius",
    "Kelvin",
    "Watts",
    "WattsPerMeterKelvin",
    "VolumetricHeatCapacity",
];

/// Hot-path files: the modules whose results are claimed bit-identical
/// across thread counts (solver core, DTM loop, adaptive controller,
/// response cache). Nondeterministic collections and raw accumulation
/// folds are banned here.
pub const HOT_PATH_SUFFIXES: &[&str] = &[
    "crates/thermal/src/solve.rs",
    "crates/thermal/src/gmg.rs",
    "crates/thermal/src/csr.rs",
    "crates/thermal/src/stencil.rs",
    "crates/thermal/src/adaptive.rs",
    "crates/thermal/src/model.rs",
    "crates/thermal/src/reduce.rs",
    "crates/core/src/dtm.rs",
    "crates/core/src/response.rs",
    "crates/core/src/headroom.rs",
    "crates/sweep/src/engine.rs",
    "crates/sweep/src/journal.rs",
    "crates/sweep/src/spec.rs",
    "crates/sweep/src/backoff.rs",
    // Scenario lowering: identical .stk sources must lower to
    // bit-identical stacks (the golden-equivalence and determinism
    // suites assert it), so patch order and material resolution may
    // not depend on hash iteration or raw float folds.
    "crates/scenario/src/lower.rs",
    // Serve slice execution: resumed runs are claimed bit-identical to
    // uninterrupted ones, which holds only if slice composition is
    // deterministic — no hash-ordered iteration, no raw float folds.
    "crates/serve/src/session.rs",
];

/// Instrumented files: the `xylem-obs` no-println set (rule `no-println`
/// and rule `obs-coverage`).
pub const INSTRUMENTED_SUFFIXES: &[&str] = &[
    "crates/core/src/dtm.rs",
    "crates/core/src/sensor.rs",
    "crates/core/src/checkpoint.rs",
    "crates/thermal/src/solve.rs",
    "crates/thermal/src/model.rs",
    "crates/thermal/src/adaptive.rs",
    "crates/thermal/src/gmg.rs",
    "crates/thermal/src/stencil.rs",
    "crates/bench/src/harness.rs",
    "crates/sweep/src/engine.rs",
    "crates/sweep/src/journal.rs",
    // The serve scheduler's degradation ladder (retry, economy
    // stepping, suspend, quarantine) must never fire darkly: every
    // absorbed fault bumps a serve counter, and streamed output is
    // protocol JSON, never print-macro noise.
    "crates/serve/src/scheduler.rs",
];

/// Whole instrumented sub-trees (the obs crate owns the sink).
pub const INSTRUMENTED_PREFIXES: &[&str] = &["crates/obs/src/"];

/// Determinism-zone classification of one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Zone {
    /// Solver / DTM / adaptive / response-cache module: bit-identical
    /// results are a published claim here.
    pub hot_path: bool,
    /// Member of the `xylem-obs` instrumented set.
    pub instrumented: bool,
}

impl Zone {
    /// Classifies a workspace-relative path.
    #[must_use]
    pub fn of(relpath: &str) -> Zone {
        Zone {
            hot_path: HOT_PATH_SUFFIXES.iter().any(|s| relpath.ends_with(s)),
            instrumented: INSTRUMENTED_SUFFIXES.iter().any(|s| relpath.ends_with(s))
                || INSTRUMENTED_PREFIXES.iter().any(|p| relpath.starts_with(p)),
        }
    }

    /// Short label for diagnostics and the JSONL output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match (self.hot_path, self.instrumented) {
            (true, true) => "hot-path+instrumented",
            (true, false) => "hot-path",
            (false, true) => "instrumented",
            (false, false) => "free",
        }
    }
}

/// One function's entry in the symbol table.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function name (identifier after `fn`).
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the signature: from the `fn` keyword up to
    /// (not including) the body's opening brace.
    pub sig: std::ops::Range<usize>,
    /// Token-index range of the body, braces included. Empty for
    /// body-less declarations (trait methods).
    pub body: std::ops::Range<usize>,
    /// Names of locals/params bound to a unit newtype.
    pub unit_bindings: Vec<String>,
    /// Names of `let mut x = <float literal>` accumulator locals.
    pub float_accums: Vec<String>,
}

/// One flattened `use` import.
#[derive(Debug, Clone)]
pub struct Import {
    /// The name the import introduces into scope (last path segment, or
    /// the `as` alias).
    pub leaf: String,
    /// The full `::`-joined path.
    pub path: String,
}

/// The per-file symbol table.
#[derive(Debug, Clone, Default)]
pub struct FileSymbols {
    /// Determinism-zone classification of the file.
    pub zone: Zone,
    /// Flattened `use` imports.
    pub imports: Vec<Import>,
    /// Every function in the file (nested functions included).
    pub fns: Vec<FnInfo>,
}

impl FileSymbols {
    /// Builds the symbol table for one file.
    #[must_use]
    pub fn build(relpath: &str, toks: &[Tok]) -> FileSymbols {
        let mut syms = FileSymbols {
            zone: Zone::of(relpath),
            imports: Vec::new(),
            fns: Vec::new(),
        };
        collect_imports(toks, &mut syms.imports);
        collect_fns(toks, &mut syms.fns);
        for f in &mut syms.fns {
            collect_bindings(toks, f);
        }
        syms
    }

    /// The innermost function whose body contains token `idx`.
    #[must_use]
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body.contains(&idx))
            .min_by_key(|f| f.body.len())
    }

    /// Whether the file imports `leaf` from a path containing `segment`
    /// (e.g. leaf `HashMap` from a path containing `collections`).
    #[must_use]
    pub fn imports_leaf(&self, leaf: &str) -> bool {
        self.imports.iter().any(|i| i.leaf == leaf)
    }
}

/// Collects `use` statements, flattening one level of `{...}` groups.
fn collect_imports(toks: &[Tok], out: &mut Vec<Import>) {
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("use") {
            i += 1;
            continue;
        }
        // A `use` is a statement only at item position; a preceding `.`
        // or `:` would mean something else entirely (there is no such
        // Rust, but fuzzed soup can produce it).
        let stmt_pos = i == 0 || !(toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'));
        if !stmt_pos {
            i += 1;
            continue;
        }
        // Collect until `;`, splitting on a single `{ ... }` group.
        let mut prefix: Vec<String> = Vec::new();
        let mut j = i + 1;
        let mut grouped = false;
        while j < toks.len() && !toks[j].is_punct(';') {
            let t = &toks[j];
            if t.kind == TokKind::Ident {
                prefix.push(t.text.clone());
            } else if t.is_punct('{') {
                grouped = true;
                // Flatten the group: each comma-separated run of idents
                // is one leaf path under the prefix so far.
                let base = prefix.clone();
                let mut leafseg: Vec<String> = Vec::new();
                j += 1;
                let mut depth = 1i32;
                while j < toks.len() && depth > 0 {
                    let g = &toks[j];
                    if g.is_punct('{') {
                        depth += 1;
                    } else if g.is_punct('}') {
                        depth -= 1;
                    } else if g.is_punct(',') && depth == 1 {
                        push_import(&base, &leafseg, out);
                        leafseg.clear();
                    } else if g.kind == TokKind::Ident {
                        leafseg.push(g.text.clone());
                    }
                    j += 1;
                }
                push_import(&base, &leafseg, out);
                continue;
            }
            j += 1;
        }
        if !grouped {
            push_import(&[], &prefix, out);
        }
        i = j + 1;
    }
}

fn push_import(base: &[String], rest: &[String], out: &mut Vec<Import>) {
    let mut segs: Vec<&str> = base.iter().map(String::as_str).collect();
    segs.extend(rest.iter().map(String::as_str));
    // `as` aliasing: `use a::B as C` — the leaf is the alias; drop the
    // `as` keyword itself from the path.
    if let Some(pos) = segs.iter().position(|s| *s == "as") {
        let alias = segs.get(pos + 1).copied();
        segs.truncate(pos);
        if let (Some(alias), false) = (alias, segs.is_empty()) {
            out.push(Import {
                leaf: alias.to_string(),
                path: segs.join("::"),
            });
        }
        return;
    }
    let Some(leaf) = segs.last() else { return };
    out.push(Import {
        leaf: (*leaf).to_string(),
        path: segs.join("::"),
    });
}

/// Collects every `fn` with its signature and brace-matched body span.
fn collect_fns(toks: &[Tok], out: &mut Vec<FnInfo>) {
    let mut i = 0;
    while i + 1 < toks.len() {
        if !toks[i].is_ident("fn") || toks[i + 1].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;
        // Scan for the body `{` at paren/bracket depth 0; a `;` first
        // means a body-less declaration.
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut body_open = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(';') {
                break;
            } else if depth == 0 && t.is_punct('{') {
                body_open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = body_open else {
            out.push(FnInfo {
                name,
                line,
                sig: i..j.min(toks.len()),
                body: 0..0,
                unit_bindings: Vec::new(),
                float_accums: Vec::new(),
            });
            i = j.saturating_add(1).min(toks.len());
            continue;
        };
        // Brace-match the body.
        let mut k = open + 1;
        let mut braces = 1i32;
        while k < toks.len() && braces > 0 {
            if toks[k].is_punct('{') {
                braces += 1;
            } else if toks[k].is_punct('}') {
                braces -= 1;
            }
            k += 1;
        }
        out.push(FnInfo {
            name,
            line,
            sig: i..open,
            body: open..k,
            unit_bindings: Vec::new(),
            float_accums: Vec::new(),
        });
        // Continue scanning *inside* the body too: nested fns get their
        // own entries.
        i += 2;
    }
}

/// Fills `unit_bindings` and `float_accums` for one function from its
/// signature and body tokens.
fn collect_bindings(toks: &[Tok], f: &mut FnInfo) {
    // Parameters: `ident : [&] [mut] UnitType` inside the signature.
    let sig = &toks[f.sig.start.min(toks.len())..f.sig.end.min(toks.len())];
    for w in 0..sig.len() {
        if sig[w].kind != TokKind::Ident || !sig.get(w + 1).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        // Skip the `::` path separator: `Celsius :: new`.
        if sig.get(w + 2).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        let mut k = w + 2;
        while sig
            .get(k)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.kind == TokKind::Lifetime)
        {
            k += 1;
        }
        if sig
            .get(k)
            .is_some_and(|t| UNIT_TYPES.iter().any(|u| t.is_ident(u)))
        {
            f.unit_bindings.push(sig[w].text.clone());
        }
    }
    // Locals: `let [mut] ident ...` inside the body.
    let body = f.body.start.min(toks.len())..f.body.end.min(toks.len());
    let mut i = body.start;
    while i < body.end {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let is_mut = toks.get(j).is_some_and(|t| t.is_ident("mut"));
        if is_mut {
            j += 1;
        }
        let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
            i = j;
            continue;
        };
        let name = name_tok.text.clone();
        j += 1;
        // Optional `: Type` annotation.
        let mut annotated: Option<String> = None;
        if toks.get(j).is_some_and(|t| t.is_punct(':'))
            && !toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        {
            let mut k = j + 1;
            while toks.get(k).is_some_and(|t| {
                t.is_punct('&') || t.is_ident("mut") || t.kind == TokKind::Lifetime
            }) {
                k += 1;
            }
            if let Some(t) = toks.get(k).filter(|t| t.kind == TokKind::Ident) {
                annotated = Some(t.text.clone());
            }
            // Advance to the `=` (or statement end) after the annotation.
            while k < body.end
                && !toks[k].is_punct('=')
                && !toks[k].is_punct(';')
                && !toks[k].is_punct('{')
            {
                k += 1;
            }
            j = k;
        }
        if let Some(ty) = &annotated {
            if UNIT_TYPES.iter().any(|u| u == ty) {
                f.unit_bindings.push(name.clone());
            }
        }
        // Initializer shapes.
        if toks.get(j).is_some_and(|t| t.is_punct('=')) {
            let init = toks.get(j + 1);
            // `= UnitType :: ...` — a unit-newtype constructor.
            if init.is_some_and(|t| UNIT_TYPES.iter().any(|u| t.is_ident(u)))
                && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 3).is_some_and(|t| t.is_punct(':'))
            {
                f.unit_bindings.push(name.clone());
            }
            // `let mut x = <float literal> ;` — a from-scratch float
            // accumulator (annotation, if any, must be f64).
            let ann_ok = annotated.as_deref().is_none_or(|a| a == "f64");
            if is_mut
                && ann_ok
                && init.is_some_and(|t| t.kind == TokKind::Number && is_float_literal(&t.text))
                && toks.get(j + 2).is_some_and(|t| t.is_punct(';'))
            {
                f.float_accums.push(name.clone());
            }
        }
        i = j.max(i + 1);
    }
    f.unit_bindings.dedup();
    f.float_accums.dedup();
}

/// Whether a numeric-literal token spells a float (`0.0`, `1e-3`,
/// `2.5f64`, `0f64`) rather than an integer.
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    if text.ends_with("f64") || text.ends_with("f32") {
        return true;
    }
    // An integer suffix wins over the exponent check: the `e` in
    // `0usize` is not an exponent.
    const INT_SUFFIXES: &[&str] = &[
        "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
    ];
    if INT_SUFFIXES.iter().any(|s| text.ends_with(s)) {
        return false;
    }
    text.contains('.') || text.contains(['e', 'E'])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn build(relpath: &str, src: &str) -> FileSymbols {
        FileSymbols::build(relpath, &lex(src).expect("fixture lexes"))
    }

    #[test]
    fn zones_classify_by_path() {
        assert_eq!(
            Zone::of("crates/thermal/src/solve.rs"),
            Zone {
                hot_path: true,
                instrumented: true
            }
        );
        assert_eq!(
            Zone::of("crates/core/src/response.rs"),
            Zone {
                hot_path: true,
                instrumented: false
            }
        );
        assert_eq!(
            Zone::of("crates/obs/src/sink.rs"),
            Zone {
                hot_path: false,
                instrumented: true
            }
        );
        // The matrix-free kernels and the geometric hierarchy joined
        // both zones together: hot-path (bit-identity claim) and
        // instrumented (setup/fallback telemetry).
        for pr7 in ["crates/thermal/src/stencil.rs", "crates/thermal/src/gmg.rs"] {
            assert_eq!(
                Zone::of(pr7),
                Zone {
                    hot_path: true,
                    instrumented: true
                },
                "{pr7}"
            );
        }
        // The sweep engine and its journal carry both the determinism
        // claim (bit-identical digests across shard counts) and failure
        // telemetry; the spec/backoff modules only the former.
        for sweep in ["crates/sweep/src/engine.rs", "crates/sweep/src/journal.rs"] {
            assert_eq!(
                Zone::of(sweep),
                Zone {
                    hot_path: true,
                    instrumented: true
                },
                "{sweep}"
            );
        }
        for sweep in ["crates/sweep/src/spec.rs", "crates/sweep/src/backoff.rs"] {
            assert_eq!(
                Zone::of(sweep),
                Zone {
                    hot_path: true,
                    instrumented: false
                },
                "{sweep}"
            );
        }
        // Scenario lowering carries the bit-identity claim (identical
        // sources -> identical stacks) but emits no telemetry of its
        // own; the crate root owns the counters.
        assert_eq!(
            Zone::of("crates/scenario/src/lower.rs"),
            Zone {
                hot_path: true,
                instrumented: false
            }
        );
        assert_eq!(Zone::of("crates/scenario/src/parser.rs"), Zone::default());
        assert_eq!(Zone::of("crates/stack/src/tsv.rs"), Zone::default());
        assert_eq!(Zone::of("crates/stack/src/tsv.rs").label(), "free");
    }

    #[test]
    fn imports_flatten_groups_and_aliases() {
        let s = build(
            "crates/core/src/x.rs",
            "use std::collections::{HashMap, BTreeMap};\n\
             use std::collections::HashSet as FastSet;\n\
             use crate::units::Celsius;\n",
        );
        assert!(s.imports_leaf("HashMap"));
        assert!(s.imports_leaf("BTreeMap"));
        assert!(s.imports_leaf("FastSet"));
        assert!(s.imports_leaf("Celsius"));
        let hm = s
            .imports
            .iter()
            .find(|i| i.leaf == "HashMap")
            .expect("HashMap import");
        assert_eq!(hm.path, "std::collections::HashMap");
        let alias = s
            .imports
            .iter()
            .find(|i| i.leaf == "FastSet")
            .expect("alias import");
        assert_eq!(alias.path, "std::collections::HashSet");
    }

    #[test]
    fn fn_spans_nest_and_enclose() {
        let s = build(
            "crates/core/src/x.rs",
            "fn outer() {\n let a = 1;\n fn inner() { let b = 2; }\n let c = 3;\n}\nfn after() {}",
        );
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "after"]);
        let toks = lex(
            "fn outer() {\n let a = 1;\n fn inner() { let b = 2; }\n let c = 3;\n}\nfn after() {}",
        )
        .expect("lexes");
        let b_idx = toks
            .iter()
            .position(|t| t.is_ident("b"))
            .expect("b present");
        assert_eq!(s.enclosing_fn(b_idx).expect("enclosed").name, "inner");
        let c_idx = toks
            .iter()
            .position(|t| t.is_ident("c"))
            .expect("c present");
        assert_eq!(s.enclosing_fn(c_idx).expect("enclosed").name, "outer");
    }

    #[test]
    fn unit_bindings_from_params_annotations_and_constructors() {
        let s = build(
            "crates/thermal/src/x.rs",
            "fn f(limit: Celsius, raw: f64) {\n\
               let t: Kelvin = limit.to_kelvin();\n\
               let w = Watts::new(raw);\n\
               let n = 3;\n\
             }",
        );
        let f = &s.fns[0];
        assert_eq!(f.unit_bindings, vec!["limit", "t", "w"]);
    }

    #[test]
    fn float_accums_require_mut_and_float_literal() {
        let s = build(
            "crates/thermal/src/x.rs",
            "fn f(xs: &[f64]) {\n\
               let mut acc = 0.0;\n\
               let mut n = 0;\n\
               let start = 1.5;\n\
               let mut t: f64 = 0.0;\n\
               let mut seeded = xs[0];\n\
             }",
        );
        let f = &s.fns[0];
        assert_eq!(f.float_accums, vec!["acc", "t"]);
    }

    #[test]
    fn bodyless_trait_methods_have_empty_bodies() {
        let s = build(
            "crates/core/src/x.rs",
            "trait T { fn m(&self) -> f64; }\nfn real() { let x = 1; }",
        );
        assert_eq!(s.fns.len(), 2);
        assert!(s.fns[0].body.is_empty());
        assert!(!s.fns[1].body.is_empty());
    }
}
