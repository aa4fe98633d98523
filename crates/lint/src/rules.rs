//! The ten lint rules, operating on the lexer's token stream (pass 2 of
//! the two-pass analyzer; pass 1 is [`crate::symbols`]).
//!
//! Token-stream rules (no symbol table needed):
//!
//! * `f64-param` — public API functions of the physics crates must not take
//!   a raw `f64` where the parameter name says it is a physical quantity.
//! * `unwrap` — library code must not contain `.unwrap()` or message-free
//!   `panic!()`-family macros.
//! * `magic-float` — float literals matching known physical-constant
//!   magnitudes must live in the material/blocks tables, not inline.
//! * `no-panic-path` — the fault-tolerance-critical modules (the DTM
//!   loop, the solver ladder, sensors, checkpointing) must not contain
//!   `.expect()` or `.unwrap()` at all: these are exactly the places
//!   that run when something else already went wrong, so every failure
//!   must propagate as a `Result`.
//! * `no-println` — the modules instrumented with `xylem-obs` (and the
//!   obs crate itself) must not write to stdout/stderr directly: ad-hoc
//!   prints bypass the structured sink, corrupt piped JSONL output, and
//!   dodge the overhead accounting. Emit an event or record a metric
//!   instead; CLI binaries and examples keep their prints.
//!
//! Dataflow-aware rules (consume the [`crate::symbols::FileSymbols`]
//! table):
//!
//! * `no-nondet-collections` — `HashMap`/`HashSet` anywhere in a
//!   hot-path module (import, type, construction, or iteration). Hash
//!   iteration order is unspecified; one stray iteration in a solver
//!   path silently breaks the bit-identical-across-thread-counts claim.
//!   Use `BTreeMap`/`BTreeSet` or indexed vectors.
//! * `no-raw-accumulation` — from-scratch `+=` folds into a
//!   float-literal-initialized accumulator, and f64 `.sum()` calls, in
//!   hot-path modules. Reductions must go through the deterministic
//!   pairwise helpers in `xylem_thermal::reduce` so the fold order never
//!   depends on chunking or thread count. Row-local stencil accumulators
//!   (seeded from an existing element, not a literal) stay legal.
//! * `no-unit-escape` — `.0` field projection on a binding of a
//!   `xylem_thermal::units` newtype outside `units.rs` and the material
//!   tables. The projection bypasses the dimensional layer the
//!   `f64-param` rule exists to protect; use `.get()`.
//! * `obs-coverage` — in the instrumented modules, a function containing
//!   a fallback/degradation branch (an `Err(..)` handler arm, a
//!   `*fallback*`/`*rollback*`/`*exhausted*`-family call) must also
//!   reference the `xylem-obs` sink, so failure paths can never go dark.
//!
//! Workspace-wide rule (sees every file at once):
//!
//! * `no-uncalled-pub` — a `pub` item defined in a crate's `src/` that no
//!   program code names. Names in tests, comments and `use`/`pub use`
//!   declarations are not calls.

use crate::lexer::{Tok, TokKind};
use crate::symbols::{FileSymbols, UNIT_TYPES};
use crate::Diagnostic;

/// Crate sub-trees whose public API surface is units-checked (rule 1).
const UNITS_CHECKED_PREFIXES: &[&str] = &[
    "crates/thermal/src/",
    "crates/power/src/",
    "crates/core/src/",
];

/// Parameter-name fragments that indicate a physical quantity.
const QUANTITY_FRAGMENTS: &[&str] = &[
    "temp",
    "celsius",
    "kelvin",
    "watt",
    "power",
    "conductivity",
    "heat_capacity",
    "ambient",
    "hotspot",
];

/// Parameter-name suffixes that indicate a physical quantity with an
/// encoded unit (`..._c`, `..._k`, `..._w`).
const QUANTITY_SUFFIXES: &[&str] = &["_c", "_k", "_w"];

/// Known physical-constant magnitudes that must not appear as inline
/// literals outside the material tables (rule 3): the Celsius offset,
/// copper and silicon bulk conductivities, and the volumetric heat
/// capacities used by the stack materials.
const MAGIC_MAGNITUDES: &[f64] = &[273.15, 120.0, 400.0, 1.75e6, 3.4e6, 2.0e6, 3.0e6, 4.0e6];

/// Files exempt from rule 3: the canonical homes of physical constants.
const MAGIC_EXEMPT_SUFFIXES: &[&str] = &[
    "thermal/src/material.rs",
    "power/src/blocks.rs",
    "thermal/src/units.rs",
];

/// Files where panicking escape hatches are banned outright (rule 4):
/// the recovery paths themselves. A panic here turns a survivable fault
/// into a crash, defeating the point of the module.
const NO_PANIC_SUFFIXES: &[&str] = &[
    "crates/core/src/dtm.rs",
    "crates/core/src/sensor.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/durable.rs",
    "crates/core/src/migration.rs",
    "crates/core/src/supervise.rs",
    "crates/thermal/src/solve.rs",
    "crates/thermal/src/model.rs",
    "crates/thermal/src/adaptive.rs",
    "crates/sweep/src/engine.rs",
    "crates/sweep/src/journal.rs",
    // The serve scheduler and its durability layer absorb panics,
    // deadline misses, and SIGKILL; an unwrap here is a crash vector
    // in the component whose whole contract is "crash-only, never
    // crash-prone".
    "crates/serve/src/scheduler.rs",
    "crates/serve/src/session.rs",
    "crates/serve/src/spool.rs",
];

/// Print-family macros banned by rule 5.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// The canonical home of the deterministic reduction helpers, exempt
/// from `no-raw-accumulation`: the chunk-serial `+=` loops *inside* the
/// pairwise machinery are the deterministic pattern itself.
const REDUCE_HOME_SUFFIXES: &[&str] = &["crates/thermal/src/reduce.rs"];

/// Files exempt from `no-unit-escape`: the newtype definitions and the
/// constant tables that construct them wholesale.
const UNIT_ESCAPE_EXEMPT_SUFFIXES: &[&str] = &[
    "thermal/src/units.rs",
    "thermal/src/material.rs",
    "power/src/blocks.rs",
];

/// Name fragments that mark a call as part of a fallback/degradation
/// path (rule `obs-coverage`).
const DEGRADATION_FRAGMENTS: &[&str] = &[
    "fallback", "rollback", "degrad", "exhaust", "retry", "failsafe",
];

/// Integer-type names whose presence in a statement marks a `.sum()` as
/// an integer fold (out of scope for `no-raw-accumulation`).
const INT_TYPE_IDENTS: &[&str] = &[
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
];

/// Whether `relpath` (normalized with `/`) is library source: under a
/// crate's `src/`, not a binary target, not the lint crate itself.
fn is_library_source(relpath: &str) -> bool {
    relpath.starts_with("crates/")
        && relpath.contains("/src/")
        && !relpath.contains("/bin/")
        && !relpath.starts_with("crates/lint/")
}

/// Marks every token inside a `#[cfg(test)]`-gated item so the rules can
/// skip test code. Returns a per-token mask (`true` = skip).
fn cfg_test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_attr = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']');
        if !is_attr {
            i += 1;
            continue;
        }
        // Skip from the attribute to the end of the item it gates: either
        // a `;` (e.g. a gated `use`) or the matching close of the first
        // top-level `{`.
        let start = i;
        let mut j = i + 7;
        let mut depth = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(';') {
                break;
            } else if depth == 0 && t.is_punct('{') {
                let mut braces = 1i32;
                j += 1;
                while j < toks.len() && braces > 0 {
                    if toks[j].is_punct('{') {
                        braces += 1;
                    } else if toks[j].is_punct('}') {
                        braces -= 1;
                    }
                    j += 1;
                }
                j -= 1;
                break;
            }
            j += 1;
        }
        let end = j.min(toks.len() - 1);
        for m in &mut mask[start..=end] {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Rule 1: raw `f64` parameters named like physical quantities in public
/// function signatures of the units-checked crates.
pub fn check_f64_params(relpath: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Diagnostic>) {
    if !UNITS_CHECKED_PREFIXES
        .iter()
        .any(|p| relpath.starts_with(p))
        || relpath.contains("/bin/")
    {
        return;
    }
    let mut i = 0;
    while i < toks.len() {
        if mask[i] || !toks[i].is_ident("pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // `pub(crate)` / `pub(super)` are not public API.
        if j < toks.len() && toks[j].is_punct('(') {
            i += 1;
            continue;
        }
        // Skip fn qualifiers: `const`, `unsafe`, `async`, `extern "C"`.
        while j < toks.len()
            && (toks[j].is_ident("const")
                || toks[j].is_ident("unsafe")
                || toks[j].is_ident("async")
                || toks[j].is_ident("extern")
                || toks[j].kind == TokKind::Str)
        {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_ident("fn") {
            i += 1;
            continue;
        }
        j += 1;
        let Some(name_tok) = toks.get(j) else { break };
        if name_tok.kind != TokKind::Ident {
            i = j;
            continue;
        }
        let fn_name = name_tok.text.clone();
        j += 1;
        // Skip generic parameters `<...>`, minding `->` arrows inside
        // closure-trait bounds.
        if j < toks.len() && toks[j].is_punct('<') {
            let mut angle = 0i32;
            while j < toks.len() {
                if toks[j].is_punct('<') {
                    angle += 1;
                } else if toks[j].is_punct('>') && !(j > 0 && toks[j - 1].is_punct('-')) {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if j >= toks.len() || !toks[j].is_punct('(') {
            i = j;
            continue;
        }
        // Collect the parameter list up to the matching `)`.
        let open = j;
        let mut paren = 0i32;
        while j < toks.len() {
            if toks[j].is_punct('(') {
                paren += 1;
            } else if toks[j].is_punct(')') {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            }
            j += 1;
        }
        let params = &toks[open + 1..j.min(toks.len())];
        for param in split_params(params) {
            check_one_param(relpath, &fn_name, param, out);
        }
        i = j + 1;
    }
}

/// Splits a parameter token slice on top-level commas (tracking paren,
/// bracket, and angle depth; `->` arrows do not close angles).
fn split_params(params: &[Tok]) -> Vec<&[Tok]> {
    let mut groups = Vec::new();
    let (mut paren, mut bracket, mut angle) = (0i32, 0i32, 0i32);
    let mut start = 0;
    for (k, t) in params.iter().enumerate() {
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(k > 0 && params[k - 1].is_punct('-')) {
            angle = (angle - 1).max(0);
        } else if t.is_punct(',') && paren == 0 && bracket == 0 && angle == 0 {
            groups.push(&params[start..k]);
            start = k + 1;
        }
    }
    if start < params.len() {
        groups.push(&params[start..]);
    }
    groups
}

fn check_one_param(relpath: &str, fn_name: &str, param: &[Tok], out: &mut Vec<Diagnostic>) {
    if param.is_empty() || param.iter().any(|t| t.is_ident("self")) {
        return;
    }
    let Some(colon) = param.iter().position(|t| t.is_punct(':')) else {
        return;
    };
    let Some(name_tok) = param[..colon]
        .iter()
        .rev()
        .find(|t| t.kind == TokKind::Ident)
    else {
        return;
    };
    let ty = &param[colon + 1..];
    let is_bare_f64 = ty.len() == 1 && ty[0].is_ident("f64");
    if !is_bare_f64 {
        return;
    }
    let name = name_tok.text.to_ascii_lowercase();
    let is_quantity = QUANTITY_FRAGMENTS.iter().any(|f| name.contains(f))
        || QUANTITY_SUFFIXES.iter().any(|s| name.ends_with(s));
    if !is_quantity {
        return;
    }
    let symbol = format!("{fn_name}.{}", name_tok.text);
    out.push(Diagnostic {
        rule: "f64-param",
        path: relpath.to_string(),
        line: name_tok.line,
        symbol,
        message: format!(
            "public fn `{fn_name}` takes physical quantity `{}` as raw f64; use a units newtype (Celsius, Kelvin, Watts, ...)",
            name_tok.text
        ),
    });
}

/// Rule 2: `.unwrap()` calls and message-free panic-family macros in
/// library code.
pub fn check_panics(relpath: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Diagnostic>) {
    if !is_library_source(relpath) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        // `.unwrap()`
        if t.is_ident("unwrap")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
        {
            out.push(Diagnostic {
                rule: "unwrap",
                path: relpath.to_string(),
                line: t.line,
                symbol: "unwrap".to_string(),
                message: "`.unwrap()` in library code; propagate the error or use `expect(\"<invariant>\")`".to_string(),
            });
        }
        // `panic!()` / `unreachable!()` / `todo!()` / `unimplemented!()`
        // with no message.
        let is_panic_macro = ["panic", "unreachable", "todo", "unimplemented"]
            .iter()
            .any(|m| t.is_ident(m));
        if is_panic_macro
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            out.push(Diagnostic {
                rule: "unwrap",
                path: relpath.to_string(),
                line: t.line,
                symbol: t.text.clone(),
                message: format!(
                    "message-free `{}!()` in library code; state the violated invariant",
                    t.text
                ),
            });
        }
    }
}

/// Rule 4: `.expect()` and `.unwrap()` in the fault-tolerance-critical
/// modules. Rule 2 already bans `.unwrap()` across library code but
/// tolerates `expect("<invariant>")`; in the recovery paths even a
/// documented invariant panic is unacceptable — the module exists to
/// absorb violated assumptions, not to die on them.
pub fn check_no_panic_paths(relpath: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Diagnostic>) {
    if !NO_PANIC_SUFFIXES.iter().any(|s| relpath.ends_with(s)) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let is_call = (t.is_ident("expect") || t.is_ident("unwrap"))
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !is_call {
            continue;
        }
        out.push(Diagnostic {
            rule: "no-panic-path",
            path: relpath.to_string(),
            line: t.line,
            symbol: t.text.clone(),
            message: format!(
                "`.{}()` in a fault-tolerance-critical module; recovery paths must propagate every failure as a Result",
                t.text
            ),
        });
    }
}

/// Rule 5: print-family macros in the obs-instrumented library modules.
/// Structured output must go through the `xylem-obs` sink (an event or a
/// metric), never straight to stdout/stderr.
pub fn check_no_println(
    relpath: &str,
    toks: &[Tok],
    mask: &[bool],
    syms: &FileSymbols,
    out: &mut Vec<Diagnostic>,
) {
    if !syms.zone.instrumented {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let is_print = PRINT_MACROS.iter().any(|m| t.is_ident(m))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            // Not a method/field access like `writer.print!...` cannot
            // occur, but `.println` as an identifier path segment can:
            // require the macro position (no leading `.` or `::`).
            && !(i > 0 && toks[i - 1].is_punct('.'));
        if !is_print {
            continue;
        }
        out.push(Diagnostic {
            rule: "no-println",
            path: relpath.to_string(),
            line: t.line,
            symbol: t.text.clone(),
            message: format!(
                "`{}!` in an obs-instrumented module; emit a structured event or metric through the xylem-obs sink instead",
                t.text
            ),
        });
    }
}

/// Rule 3: float literals matching known physical-constant magnitudes
/// outside the material tables.
pub fn check_magic_floats(relpath: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Diagnostic>) {
    if !is_library_source(relpath) || MAGIC_EXEMPT_SUFFIXES.iter().any(|s| relpath.ends_with(s)) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Number {
            continue;
        }
        let Some(v) = parse_float_literal(&t.text) else {
            continue;
        };
        let Some(hit) = MAGIC_MAGNITUDES
            .iter()
            .find(|&&m| (v - m).abs() <= m.abs() * 1e-12)
        else {
            continue;
        };
        out.push(Diagnostic {
            rule: "magic-float",
            path: relpath.to_string(),
            line: t.line,
            symbol: t.text.clone(),
            message: format!(
                "literal `{}` matches physical-constant magnitude {hit}; reference the named constant in material.rs/blocks.rs instead",
                t.text
            ),
        });
    }
}

/// Rule 6: `HashMap`/`HashSet` anywhere in a hot-path module. Hash
/// iteration order is unspecified and seeded per-process; any use in a
/// solver/DTM/adaptive/response-cache path risks the bit-identical
/// determinism claim. Every mention counts — an import alone invites
/// construction.
pub fn check_nondet_collections(
    relpath: &str,
    toks: &[Tok],
    mask: &[bool],
    syms: &FileSymbols,
    out: &mut Vec<Diagnostic>,
) {
    if !syms.zone.hot_path {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if !(t.text == "HashMap" || t.text == "HashSet") {
            continue;
        }
        out.push(Diagnostic {
            rule: "no-nondet-collections",
            path: relpath.to_string(),
            line: t.line,
            symbol: t.text.clone(),
            message: format!(
                "`{}` in a hot-path module: hash iteration order is nondeterministic; use BTreeMap/BTreeSet or indexed vectors",
                t.text
            ),
        });
    }
}

/// Rule 7: raw accumulation folds in hot-path modules. Two shapes:
///
/// * `acc += ...` where `acc` is a `let mut acc = 0.0;`-style
///   float-literal-initialized local (the symbol table's
///   `float_accums`), and
/// * `.sum()` / `.sum::<f64>()` over a float iterator.
///
/// Both must go through the deterministic pairwise helpers in
/// `xylem_thermal::reduce` (whose own chunk-serial loops are the one
/// exempt home). Row-local stencil accumulators seeded from an existing
/// element (`let mut acc = r[i];`) are deliberately out of scope: their
/// fold order is fixed by the row, not by chunking.
pub fn check_raw_accumulation(
    relpath: &str,
    toks: &[Tok],
    mask: &[bool],
    syms: &FileSymbols,
    out: &mut Vec<Diagnostic>,
) {
    if !syms.zone.hot_path || REDUCE_HOME_SUFFIXES.iter().any(|s| relpath.ends_with(s)) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        // `acc += ...` on a tracked float accumulator.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('+'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            if let Some(f) = syms.enclosing_fn(i) {
                if f.float_accums.contains(&t.text) {
                    out.push(Diagnostic {
                        rule: "no-raw-accumulation",
                        path: relpath.to_string(),
                        line: t.line,
                        symbol: format!("{}.{}", f.name, t.text),
                        message: format!(
                            "raw `+=` fold into float accumulator `{}` in hot-path fn `{}`; use the deterministic pairwise helpers in xylem_thermal::reduce",
                            t.text, f.name
                        ),
                    });
                }
            }
            continue;
        }
        // `.sum()` / `.sum::<f64>()` over floats.
        if t.text == "sum" && i > 0 && toks[i - 1].is_punct('.') {
            let fn_name = syms
                .enclosing_fn(i)
                .map_or_else(|| "<top>".to_string(), |f| f.name.clone());
            // Turbofish type, if spelled, decides outright.
            let turbofish = (toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_punct('<')))
            .then(|| toks.get(i + 4))
            .flatten();
            let flagged = match turbofish {
                Some(ty) => ty.is_ident("f64") || ty.is_ident("f32"),
                None => {
                    if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                        false
                    } else {
                        // Back-scan the statement: an integer type name
                        // marks an integer fold, out of scope.
                        let stmt_start = toks[..i]
                            .iter()
                            .rposition(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
                            .map_or(0, |p| p + 1);
                        !toks[stmt_start..i]
                            .iter()
                            .any(|t| INT_TYPE_IDENTS.iter().any(|n| t.is_ident(n)))
                    }
                }
            };
            if flagged {
                out.push(Diagnostic {
                    rule: "no-raw-accumulation",
                    path: relpath.to_string(),
                    line: t.line,
                    symbol: format!("{fn_name}.sum"),
                    message: format!(
                        "float `.sum()` fold in hot-path fn `{fn_name}`; use xylem_thermal::reduce::pairwise_sum (or pairwise_dot) so the fold order is fixed"
                    ),
                });
            }
        }
    }
}

/// Rule 8: `.0` field projection on unit-newtype bindings outside the
/// dimensional layer. `units.rs` owns the representation; everywhere
/// else must go through `.get()` so the `f64-param` rule cannot be
/// laundered away one tuple-index at a time.
pub fn check_unit_escape(
    relpath: &str,
    toks: &[Tok],
    mask: &[bool],
    syms: &FileSymbols,
    out: &mut Vec<Diagnostic>,
) {
    if !is_library_source(relpath)
        || UNIT_ESCAPE_EXEMPT_SUFFIXES
            .iter()
            .any(|s| relpath.ends_with(s))
    {
        return;
    }
    for i in 2..toks.len() {
        if mask[i] {
            continue;
        }
        let is_proj =
            toks[i].kind == TokKind::Number && toks[i].text == "0" && toks[i - 1].is_punct('.');
        if !is_proj {
            continue;
        }
        let prev = &toks[i - 2];
        // `binding.0` where the binding is unit-typed per pass 1.
        if prev.kind == TokKind::Ident {
            let Some(f) = syms.enclosing_fn(i - 2) else {
                continue;
            };
            if f.unit_bindings.contains(&prev.text) {
                out.push(Diagnostic {
                    rule: "no-unit-escape",
                    path: relpath.to_string(),
                    line: toks[i].line,
                    symbol: format!("{}.{}", f.name, prev.text),
                    message: format!(
                        "`.0` projection on unit-typed binding `{}` in fn `{}` bypasses the dimensional layer; use `.get()`",
                        prev.text, f.name
                    ),
                });
            }
        }
        // `UnitType::new(...).0` — direct constructor escape. The unit
        // type named in the same statement is the tell.
        if prev.is_punct(')') {
            let stmt_start = toks[..i - 2]
                .iter()
                .rposition(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
                .map_or(0, |p| p + 1);
            if let Some(ty) = toks[stmt_start..i]
                .iter()
                .find(|t| UNIT_TYPES.iter().any(|u| t.is_ident(u)))
            {
                out.push(Diagnostic {
                    rule: "no-unit-escape",
                    path: relpath.to_string(),
                    line: toks[i].line,
                    symbol: format!("{}.0", ty.text),
                    message: format!(
                        "`.0` projection on a `{}` expression bypasses the dimensional layer; use `.get()`",
                        ty.text
                    ),
                });
            }
        }
    }
}

/// Rule 9: functions in the instrumented modules that contain a
/// fallback/degradation branch but never touch the `xylem-obs` sink.
/// Failure paths are exactly the ones operators need to see; a silent
/// degradation is indistinguishable from a healthy run in the JSONL
/// stream.
pub fn check_obs_coverage(
    relpath: &str,
    toks: &[Tok],
    mask: &[bool],
    syms: &FileSymbols,
    out: &mut Vec<Diagnostic>,
) {
    // Scoped to the instrumented *consumer* files, not the obs crate
    // itself (the sink's internals are its own failure domain).
    if !syms.zone.instrumented || relpath.starts_with("crates/obs/") {
        return;
    }
    for f in &syms.fns {
        if f.body.is_empty() {
            continue;
        }
        let start = f.sig.start.min(toks.len());
        if mask.get(start).copied().unwrap_or(true) {
            continue; // cfg(test)-gated fn
        }
        let body = &toks[f.body.start.min(toks.len())..f.body.end.min(toks.len())];
        if body.iter().any(|t| t.is_ident("xylem_obs")) {
            continue;
        }
        if let Some(marker) = find_degradation_marker(body) {
            out.push(Diagnostic {
                rule: "obs-coverage",
                path: relpath.to_string(),
                line: f.line,
                symbol: f.name.clone(),
                message: format!(
                    "fn `{}` has a degradation branch (`{marker}`) but never references xylem-obs; emit an event or bump a counter so the failure path is visible",
                    f.name
                ),
            });
        }
    }
}

/// Finds the first fallback/degradation marker in a function body:
/// a call whose name contains a [`DEGRADATION_FRAGMENTS`] fragment, an
/// `if let Err` / `while let Err` recovery, or a non-propagating
/// `Err(..) => ...` match arm.
fn find_degradation_marker(body: &[Tok]) -> Option<String> {
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // Call-shaped degradation name (not a `fn` definition).
        let lower = t.text.to_ascii_lowercase();
        if DEGRADATION_FRAGMENTS.iter().any(|m| lower.contains(m))
            && body.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !(i > 0 && body[i - 1].is_ident("fn"))
        {
            return Some(format!("{}(", t.text));
        }
        // `if let Err` / `while let Err` — unless the consequent block
        // just propagates (`{ return ... }` / `{ Err(...) }`).
        if t.is_ident("let")
            && i > 0
            && (body[i - 1].is_ident("if") || body[i - 1].is_ident("while"))
            && body.get(i + 1).is_some_and(|n| n.is_ident("Err"))
        {
            let mut j = i + 2;
            let mut depth = 0i32;
            while j < body.len() {
                if body[j].is_punct('(') {
                    depth += 1;
                } else if body[j].is_punct(')') {
                    depth -= 1;
                } else if depth == 0 && body[j].is_punct('{') {
                    break;
                }
                j += 1;
            }
            let propagates = body
                .get(j + 1)
                .is_some_and(|n| n.is_ident("return") || n.is_ident("Err"));
            if !propagates {
                return Some("if let Err".to_string());
            }
        }
        // `Err(..) => <handler>` match arm, unless the handler just
        // propagates (`Err(...)` / `return ...`).
        if t.is_ident("Err") && body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < body.len() {
                if body[j].is_punct('(') {
                    depth += 1;
                } else if body[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let is_arm = body.get(j + 1).is_some_and(|n| n.is_punct('='))
                && body.get(j + 2).is_some_and(|n| n.is_punct('>'));
            if is_arm {
                let mut k = j + 3;
                if body.get(k).is_some_and(|n| n.is_punct('{')) {
                    k += 1;
                }
                let propagates = body
                    .get(k)
                    .is_some_and(|n| n.is_ident("Err") || n.is_ident("return"));
                if !propagates {
                    return Some("Err(..) =>".to_string());
                }
            }
        }
    }
    None
}

/// Parses a *float* literal: requires a decimal point or exponent, so
/// integers (grid sizes, indices) never match. Returns `None` for
/// integers and non-decimal bases.
fn parse_float_literal(text: &str) -> Option<f64> {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return None;
    }
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let cleaned = cleaned
        .strip_suffix("f64")
        .or_else(|| cleaned.strip_suffix("f32"))
        .unwrap_or(&cleaned);
    if !cleaned.contains('.') && !cleaned.contains('e') && !cleaned.contains('E') {
        return None;
    }
    cleaned.parse::<f64>().ok()
}

/// Computes the cfg(test) mask for a token stream (exposed for `lib.rs`).
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    cfg_test_mask(toks)
}

/// Keywords that introduce a named item; the identifier right after one
/// is a definition site, never a reference.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// Whether `relpath` holds program code whose names count as callers for
/// `no-uncalled-pub`: a crate's `src/` (binaries included), `benches/`
/// or `examples/`, the workspace `examples/`, or `perfbench/src/`. Code
/// under any `tests/` directory is not a caller.
fn is_caller_source(relpath: &str) -> bool {
    if relpath.starts_with("tests/") || relpath.contains("/tests/") {
        return false;
    }
    let in_crate = relpath.starts_with("crates/")
        && ["/src/", "/benches/", "/examples/"]
            .iter()
            .any(|d| relpath.contains(d));
    in_crate || relpath.starts_with("examples/") || relpath.starts_with("perfbench/src/")
}

/// Whether token `i` is the name of an item being defined (`fn name`,
/// `struct Name`, ...).
fn is_definition_name(toks: &[Tok], i: usize) -> bool {
    i > 0 && ITEM_KEYWORDS.iter().any(|k| toks[i - 1].is_ident(k))
}

/// Marks every token of a `use` declaration (`use`, `pub use`, grouped or
/// not) up to its `;`: importing or re-exporting a name is not a call.
fn use_decl_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let stmt_pos = i == 0 || !(toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'));
        if !(toks[i].is_ident("use") && stmt_pos) {
            i += 1;
            continue;
        }
        while i < toks.len() && !toks[i].is_punct(';') {
            mask[i] = true;
            i += 1;
        }
    }
    mask
}

/// For each token, the self type of the innermost `impl` block around it
/// (`Foo` for `impl Foo {..}` and for `impl<T> Trait for a::Foo<T> {..}`),
/// header included: a type's own impl blocks naming it do not call it.
fn impl_self_types(toks: &[Tok]) -> Vec<Option<&str>> {
    let mut owner = vec![None; toks.len()];
    for i in 0..toks.len() {
        // An `impl` block starts an item; `impl Trait` in a type does not.
        let item_pos = i == 0
            || ['}', ';', ']', '{']
                .iter()
                .any(|&c| toks[i - 1].is_punct(c));
        if !(toks[i].is_ident("impl") && item_pos) {
            continue;
        }
        let (mut j, mut angle, mut self_ty, mut in_where) = (i + 1, 0i32, None, false);
        while j < toks.len() && !(angle == 0 && (toks[j].is_punct('{') || toks[j].is_punct(';'))) {
            let t = &toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !toks[j - 1].is_punct('-') {
                angle -= 1;
            } else if angle == 0 && t.is_ident("for") {
                self_ty = None;
            } else if angle == 0 && t.is_ident("where") {
                in_where = true;
            } else if angle == 0 && !in_where && t.kind == TokKind::Ident && !t.is_ident("dyn") {
                self_ty = Some(t.text.as_str());
            }
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('{')) {
            continue;
        }
        let mut depth = 0i32;
        let mut end = j;
        while end < toks.len() {
            if toks[end].is_punct('{') {
                depth += 1;
            } else if toks[end].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            end += 1;
        }
        for o in &mut owner[i..end.min(toks.len() - 1) + 1] {
            *o = self_ty;
        }
    }
    owner
}

/// The `pub` items a file defines outside its test code: `(name, line)`
/// of each `pub` `fn` (`pub const fn` included), `struct`, `enum`,
/// `trait`, `const`, `static` or `type`. Restricted visibility
/// (`pub(crate)`) is rustc's `dead_code` lint's business, not this rule's.
fn pub_items<'t>(toks: &'t [Tok], mask: &[bool]) -> Vec<(&'t str, u32)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_ident("pub") {
            continue;
        }
        let const_fn = toks.get(i + 1).is_some_and(|t| t.is_ident("const"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("fn"));
        let kw = i + 1 + usize::from(const_fn);
        let is_item = toks
            .get(kw)
            .is_some_and(|t| ITEM_KEYWORDS.iter().any(|k| t.is_ident(k)));
        if let Some(name) = toks
            .get(kw + 1)
            .filter(|t| is_item && t.kind == TokKind::Ident)
        {
            out.push((name.text.as_str(), name.line));
        }
    }
    out
}

/// Rule `no-uncalled-pub` (workspace-wide): a `pub` item defined in a
/// crate's `src/` that no identifier in caller code names. A name counts
/// only outside test code, outside `use`/`pub use` declarations (a
/// re-export is not a call), off definition sites and outside the named
/// type's own `impl` blocks; comments never reach the token stream.
/// `files` holds each file's path and tokens.
pub fn check_uncalled_pub(files: &[(&str, Vec<Tok>)], out: &mut Vec<Diagnostic>) {
    let masks: Vec<Vec<bool>> = files.iter().map(|(_, toks)| cfg_test_mask(toks)).collect();
    let mut called = std::collections::BTreeSet::new();
    for ((relpath, toks), mask) in files.iter().zip(&masks) {
        if !is_caller_source(relpath) {
            continue;
        }
        let (uses, owner) = (use_decl_mask(toks), impl_self_types(toks));
        for (i, t) in toks.iter().enumerate() {
            let reference = t.kind == TokKind::Ident
                && !mask[i]
                && !uses[i]
                && owner[i] != Some(t.text.as_str())
                && !is_definition_name(toks, i);
            if reference {
                called.insert(t.text.as_str());
            }
        }
    }
    for ((relpath, toks), mask) in files.iter().zip(&masks) {
        let in_crate_src =
            relpath.starts_with("crates/") && relpath.split('/').nth(2) == Some("src");
        if !in_crate_src {
            continue;
        }
        for (name, line) in pub_items(toks, mask) {
            if !called.contains(name) {
                out.push(Diagnostic {
                    rule: "no-uncalled-pub",
                    path: (*relpath).to_string(),
                    line,
                    symbol: name.to_string(),
                    message: format!(
                        "`pub` item `{name}` has no caller outside tests, comments and `use` \
                         declarations; delete it, move it into `#[cfg(test)]`, or allow it \
                         with a reason"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_all(relpath: &str, src: &str) -> Vec<Diagnostic> {
        crate::analyze_source(relpath, src)
    }

    #[test]
    fn flags_raw_f64_quantity_param() {
        let d = run_all(
            "crates/thermal/src/foo.rs",
            "pub fn set_ambient(ambient_c: f64) {}",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "f64-param");
        assert_eq!(d[0].line, 1);
        assert!(d[0].symbol.contains("ambient_c"));
    }

    #[test]
    fn typed_params_and_bulk_slices_pass() {
        let d = run_all(
            "crates/thermal/src/foo.rs",
            "pub fn set_ambient(ambient: Celsius) {}\n\
             pub fn temperatures(&self, temps_c: &[f64]) {}\n\
             pub fn scale(factor: f64) {}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn pub_crate_and_private_fns_pass() {
        let d = run_all(
            "crates/power/src/foo.rs",
            "pub(crate) fn t(temp_c: f64) {}\nfn u(watts_w: f64) {}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn generic_fns_are_parsed_past_their_generics() {
        let d = run_all(
            "crates/core/src/foo.rs",
            "pub fn apply<F: Fn(f64) -> f64>(f: F, temp_c: f64) {}",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].symbol.contains("temp_c"));
    }

    #[test]
    fn flags_unwrap_and_bare_panics() {
        let d = run_all(
            "crates/stack/src/foo.rs",
            "fn f() { x.unwrap(); panic!(); unreachable!(); }",
        );
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "unwrap"));
    }

    #[test]
    fn expect_and_panic_with_message_pass() {
        let d = run_all(
            "crates/stack/src/foo.rs",
            "fn f() { x.expect(\"invariant\"); panic!(\"bad: {y}\"); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let d = run_all(
            "crates/stack/src/foo.rs",
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); let t = 273.15; }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_magic_floats_outside_material_tables() {
        let d = run_all(
            "crates/thermal/src/package.rs",
            "fn k() -> f64 { 400.0 }\nfn off() -> f64 { 273.15 }",
        );
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "magic-float"));
    }

    #[test]
    fn material_tables_and_integers_are_exempt() {
        let d = run_all(
            "crates/thermal/src/material.rs",
            "pub const CU: f64 = 400.0;",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = run_all("crates/thermal/src/grid.rs", "fn n() -> usize { 400 }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn expect_is_banned_in_recovery_modules() {
        // `expect("msg")` passes rule 2 everywhere else...
        let src = "fn f() { x.expect(\"invariant\"); }";
        assert!(run_all("crates/stack/src/foo.rs", src).is_empty());
        // ...but not in the fault-tolerance-critical files.
        for path in [
            "crates/core/src/dtm.rs",
            "crates/core/src/sensor.rs",
            "crates/core/src/checkpoint.rs",
            "crates/thermal/src/solve.rs",
            "crates/thermal/src/model.rs",
            "crates/thermal/src/adaptive.rs",
            "crates/sweep/src/engine.rs",
            "crates/sweep/src/journal.rs",
        ] {
            let d = run_all(path, src);
            assert_eq!(d.len(), 1, "{path}: {d:?}");
            assert_eq!(d[0].rule, "no-panic-path");
            assert_eq!(d[0].symbol, "expect");
        }
    }

    #[test]
    fn unwrap_in_recovery_modules_trips_both_rules() {
        let d = run_all("crates/core/src/dtm.rs", "fn f() { x.unwrap(); }");
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.rule == "unwrap"));
        assert!(d.iter().any(|d| d.rule == "no-panic-path"));
    }

    #[test]
    fn recovery_module_tests_may_still_expect() {
        let d = run_all(
            "crates/core/src/checkpoint.rs",
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n fn f() { x.expect(\"msg\"); y.unwrap(); }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn prints_are_banned_in_instrumented_modules() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y = {y}\"); dbg!(z); }";
        for path in [
            "crates/core/src/dtm.rs",
            "crates/thermal/src/solve.rs",
            "crates/obs/src/sink.rs",
            "crates/bench/src/harness.rs",
        ] {
            let d = run_all(path, src);
            assert_eq!(d.len(), 3, "{path}: {d:?}");
            assert!(d.iter().all(|d| d.rule == "no-println"), "{d:?}");
        }
        // Uninstrumented library code, CLI binaries, and tests keep
        // their prints.
        assert!(run_all("crates/stack/src/builder.rs", src).is_empty());
        assert!(run_all("crates/core/src/bin/xylem.rs", src).is_empty());
        let gated = "fn ok() {}\n#[cfg(test)]\nmod tests {\n fn f() { println!(\"t\"); }\n}";
        assert!(run_all("crates/core/src/dtm.rs", gated).is_empty());
    }

    #[test]
    fn tests_dirs_and_bins_are_out_of_scope() {
        let src = "pub fn f(temp_c: f64) { x.unwrap(); let t = 273.15; }";
        assert!(run_all("crates/thermal/tests/t.rs", src).is_empty());
        assert!(run_all("crates/core/src/bin/xylem.rs", src).is_empty());
        assert!(run_all("examples/quickstart.rs", src).is_empty());
    }

    // ---- dataflow-aware rules -------------------------------------

    #[test]
    fn hashmap_banned_in_hot_path_modules() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, f64> = HashMap::new(); for (k, v) in &m {} }";
        let d = run_all("crates/thermal/src/solve.rs", src);
        assert!(d.len() >= 3, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "no-nondet-collections"));
        // Free-zone files may use hash collections.
        assert!(run_all("crates/workloads/src/trace.rs", src).is_empty());
    }

    #[test]
    fn btree_and_vectors_pass_in_hot_path() {
        let src = "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, f64> = BTreeMap::new(); }";
        assert!(run_all("crates/thermal/src/solve.rs", src).is_empty());
    }

    #[test]
    fn raw_accumulation_flagged_in_hot_path() {
        let src = "fn total(xs: &[f64]) -> f64 {\n let mut acc = 0.0;\n for x in xs { acc += x; }\n acc\n}";
        let d = run_all("crates/thermal/src/adaptive.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "no-raw-accumulation");
        assert_eq!(d[0].symbol, "total.acc");
        assert_eq!(d[0].line, 3);
        // The same fold is fine outside the hot path...
        assert!(run_all("crates/stack/src/area.rs", src).is_empty());
        // ...and inside the reduction helpers' home.
        assert!(run_all("crates/thermal/src/reduce.rs", src).is_empty());
    }

    #[test]
    fn row_seeded_accumulators_pass() {
        // `let mut acc = r[i];` is a stencil accumulator, not a
        // from-scratch fold: its order is fixed by the row.
        let src =
            "fn row(r: &[f64], v: &[f64]) -> f64 {\n let mut acc = r[0];\n for x in v { acc += x; }\n acc\n}";
        assert!(run_all("crates/thermal/src/csr.rs", src).is_empty());
    }

    #[test]
    fn float_sum_flagged_integer_sum_passes() {
        let hot = "crates/core/src/response.rs";
        let d = run_all(hot, "fn f(xs: &[f64]) -> f64 { xs.iter().sum() }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "no-raw-accumulation");
        assert_eq!(d[0].symbol, "f.sum");
        let d = run_all(hot, "fn g(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }");
        assert_eq!(d.len(), 1, "{d:?}");
        // Integer folds are out of scope (order-independent).
        let src = "fn n(rows: &[Vec<u32>]) -> usize { let c: usize = rows.iter().map(|r| r.len()).sum(); c }";
        assert!(run_all(hot, src).is_empty());
        let src = "fn n(rows: &[u64]) -> u64 { rows.iter().sum::<u64>() }";
        assert!(run_all(hot, src).is_empty());
    }

    #[test]
    fn unit_escape_flagged_via_binding_dataflow() {
        let src = "fn f(limit: Celsius) -> f64 {\n let t = Kelvin::new(1.0);\n limit.0 + t.0\n}";
        let d = run_all("crates/thermal/src/grid.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "no-unit-escape"));
        assert_eq!(d[0].symbol, "f.limit");
        assert_eq!(d[1].symbol, "f.t");
        // `.get()` is the sanctioned accessor.
        let ok = "fn f(limit: Celsius) -> f64 { limit.get() }";
        assert!(run_all("crates/thermal/src/grid.rs", ok).is_empty());
        // units.rs owns the representation.
        assert!(run_all("crates/thermal/src/units.rs", src).is_empty());
    }

    #[test]
    fn unit_escape_on_constructor_expression() {
        let src = "fn f() -> f64 { Watts::new(1.5).0 }";
        let d = run_all("crates/core/src/system.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].symbol, "Watts.0");
    }

    #[test]
    fn tuple_projections_on_plain_tuples_pass() {
        let src = "fn f(pair: (usize, f64)) -> f64 { pair.1 + (pair.0 as f64) }";
        assert!(run_all("crates/thermal/src/grid.rs", src).is_empty());
        let src = "fn f() { let best = (1usize, 2.0); let _ = best.0; }";
        assert!(run_all("crates/core/src/evaluation.rs", src).is_empty());
    }

    #[test]
    fn obs_coverage_flags_dark_degradation_paths() {
        // A fallback branch with no obs reference anywhere in the fn.
        let dark = "fn recover(x: Result<u32, E>) -> u32 {\n match x { Ok(v) => v, Err(_) => { apply_fallback() } }\n}";
        let d = run_all("crates/core/src/dtm.rs", dark);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "obs-coverage");
        assert_eq!(d[0].symbol, "recover");
        // Same branch plus an obs counter: covered.
        let lit = "fn recover(x: Result<u32, E>) -> u32 {\n match x { Ok(v) => v, Err(_) => { xylem_obs::incr(xylem_obs::Counter::FailsafeEvents); apply_fallback() } }\n}";
        assert!(run_all("crates/core/src/dtm.rs", lit).is_empty());
        // Pure propagation is not a degradation branch.
        let prop = "fn load(x: Result<u32, E>) -> Result<u32, E> {\n match x { Ok(v) => Ok(v), Err(e) => Err(e) }\n}";
        assert!(run_all("crates/core/src/dtm.rs", prop).is_empty());
        // Uninstrumented modules are out of scope.
        assert!(run_all("crates/stack/src/builder.rs", dark).is_empty());
        // The obs crate itself is its own failure domain.
        assert!(run_all("crates/obs/src/sink.rs", dark).is_empty());
    }

    #[test]
    fn obs_coverage_ignores_marker_fn_definitions() {
        // Defining `budget_exhausted()` is not the same as degrading.
        let src = "fn budget_exhausted(&self) -> bool { self.used > self.cap }";
        assert!(run_all("crates/thermal/src/adaptive.rs", src).is_empty());
        // Calling it from a live branch is.
        let call = "fn step(&mut self) { if ctrl.budget_exhausted() { self.hold(); } }";
        let d = run_all("crates/thermal/src/adaptive.rs", call);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "obs-coverage");
    }
}
