//! Fixture-corpus tests for the four dataflow-aware rules and the
//! workspace-wide `no-uncalled-pub`: each rule has a positive, a
//! negative, and an allowlisted fixture file under `tests/fixtures/<rule>/`.
//! The fixtures live inside `crates/lint/` (where every path-scoped rule
//! is inert), and the tests mount their content at an in-zone workspace
//! path via the pure `analyze_source` / `check_source` /
//! `analyze_workspace` API.

use std::path::Path;

use xylem_lint::{analyze_source, analyze_workspace, check_source, Allowlist, Diagnostic};

/// Reads `tests/fixtures/<rule_dir>/<name>.rs`.
fn fixture(rule_dir: &str, name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule_dir)
        .join(format!("{name}.rs"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} must exist: {e}", path.display()))
}

/// Raw findings of one rule for a fixture mounted at `mount`.
fn findings_of(rule: &str, mount: &str, src: &str) -> Vec<Diagnostic> {
    let all = analyze_source(mount, src);
    assert!(
        !all.iter().any(|d| d.rule == "lex"),
        "fixture must lex: {all:?}"
    );
    all.into_iter().filter(|d| d.rule == rule).collect()
}

// ---- no-nondet-collections ---------------------------------------

const NONDET: &str = "no-nondet-collections";
const HOT_MOUNT: &str = "crates/thermal/src/solve.rs";

#[test]
fn nondet_collections_positive_fixture_fires() {
    let d = findings_of(NONDET, HOT_MOUNT, &fixture("no_nondet_collections", "pos"));
    // Import, two type positions, two constructors, for each of
    // HashMap/HashSet: every mention counts.
    assert_eq!(d.len(), 6, "{d:?}");
    assert!(d.iter().any(|d| d.symbol == "HashMap"), "{d:?}");
    assert!(d.iter().any(|d| d.symbol == "HashSet"), "{d:?}");
}

#[test]
fn nondet_collections_negative_fixture_is_clean() {
    let src = fixture("no_nondet_collections", "neg");
    assert!(
        analyze_source(HOT_MOUNT, &src).is_empty(),
        "whole file must be clean"
    );
}

#[test]
fn nondet_collections_allowed_fixture_suppressed_by_entry() {
    let src = fixture("no_nondet_collections", "allowed");
    assert!(
        !findings_of(NONDET, HOT_MOUNT, &src).is_empty(),
        "fires raw"
    );
    let allow = Allowlist::parse("no-nondet-collections thermal/src/solve.rs HashSet\n")
        .expect("entry parses");
    assert!(check_source(HOT_MOUNT, &src, &allow).is_empty());
}

// ---- no-raw-accumulation -----------------------------------------

const RAW_ACC: &str = "no-raw-accumulation";

#[test]
fn raw_accumulation_positive_fixture_fires() {
    let d = findings_of(RAW_ACC, HOT_MOUNT, &fixture("no_raw_accumulation", "pos"));
    let symbols: Vec<&str> = d.iter().map(|d| d.symbol.as_str()).collect();
    assert_eq!(
        symbols,
        vec!["residual_norm.acc", "total_power.sum", "scaled_total.sum"],
        "{d:?}"
    );
}

#[test]
fn raw_accumulation_negative_fixture_is_clean() {
    let src = fixture("no_raw_accumulation", "neg");
    assert!(
        analyze_source(HOT_MOUNT, &src).is_empty(),
        "whole file must be clean"
    );
}

#[test]
fn raw_accumulation_allowed_fixture_suppressed_by_entry() {
    let src = fixture("no_raw_accumulation", "allowed");
    let raw = findings_of(RAW_ACC, HOT_MOUNT, &src);
    assert_eq!(raw.len(), 1, "{raw:?}");
    assert_eq!(raw[0].symbol, "phase_boundaries.acc");
    let allow = Allowlist::parse("no-raw-accumulation thermal/src/solve.rs phase_boundaries.acc\n")
        .expect("entry parses");
    assert!(check_source(HOT_MOUNT, &src, &allow).is_empty());
}

#[test]
fn raw_accumulation_exempt_in_reduce_home() {
    // The same positive fixture is legal inside the reduction helpers'
    // own module — the chunk-serial loops there are the pattern itself.
    let src = fixture("no_raw_accumulation", "pos");
    let d = findings_of(RAW_ACC, "crates/thermal/src/reduce.rs", &src);
    assert!(d.is_empty(), "{d:?}");
}

// ---- no-unit-escape ----------------------------------------------

const UNIT_ESC: &str = "no-unit-escape";
const LIB_MOUNT: &str = "crates/core/src/system.rs";

#[test]
fn unit_escape_positive_fixture_fires() {
    let d = findings_of(UNIT_ESC, LIB_MOUNT, &fixture("no_unit_escape", "pos"));
    let symbols: Vec<&str> = d.iter().map(|d| d.symbol.as_str()).collect();
    assert_eq!(
        symbols,
        vec![
            "margin.limit",
            "margin.ambient",
            "as_kelvin_raw.k",
            "budget_raw.w",
            "Watts.0"
        ],
        "{d:?}"
    );
}

#[test]
fn unit_escape_negative_fixture_is_clean() {
    let src = fixture("no_unit_escape", "neg");
    assert!(
        analyze_source(LIB_MOUNT, &src).is_empty(),
        "whole file must be clean"
    );
}

#[test]
fn unit_escape_allowed_fixture_suppressed_by_entry() {
    let src = fixture("no_unit_escape", "allowed");
    let raw = findings_of(UNIT_ESC, LIB_MOUNT, &src);
    assert_eq!(raw.len(), 1, "{raw:?}");
    assert_eq!(raw[0].symbol, "encode_raw.t");
    let allow =
        Allowlist::parse("no-unit-escape core/src/system.rs encode_raw.t\n").expect("entry parses");
    assert!(check_source(LIB_MOUNT, &src, &allow).is_empty());
}

#[test]
fn unit_escape_exempt_in_units_and_material_tables() {
    let src = fixture("no_unit_escape", "pos");
    for exempt in [
        "crates/thermal/src/units.rs",
        "crates/thermal/src/material.rs",
        "crates/power/src/blocks.rs",
    ] {
        let d = findings_of(UNIT_ESC, exempt, &src);
        assert!(d.is_empty(), "{exempt}: {d:?}");
    }
}

// ---- obs-coverage ------------------------------------------------

const OBS_COV: &str = "obs-coverage";
const INSTR_MOUNT: &str = "crates/core/src/dtm.rs";

#[test]
fn obs_coverage_positive_fixture_fires_per_dark_fn() {
    let d = findings_of(OBS_COV, INSTR_MOUNT, &fixture("obs_coverage", "pos"));
    let symbols: Vec<&str> = d.iter().map(|d| d.symbol.as_str()).collect();
    assert_eq!(symbols, vec!["recover", "step", "reload"], "{d:?}");
}

#[test]
fn obs_coverage_negative_fixture_is_clean() {
    let src = fixture("obs_coverage", "neg");
    assert!(
        analyze_source(INSTR_MOUNT, &src).is_empty(),
        "whole file must be clean"
    );
}

#[test]
fn obs_coverage_allowed_fixture_suppressed_by_entry() {
    let src = fixture("obs_coverage", "allowed");
    let raw = findings_of(OBS_COV, INSTR_MOUNT, &src);
    assert_eq!(raw.len(), 1, "{raw:?}");
    assert_eq!(raw[0].symbol, "accounted_retry");
    let allow =
        Allowlist::parse("obs-coverage core/src/dtm.rs accounted_retry\n").expect("entry parses");
    assert!(check_source(INSTR_MOUNT, &src, &allow).is_empty());
}

#[test]
fn obs_coverage_out_of_scope_in_free_and_obs_modules() {
    let src = fixture("obs_coverage", "pos");
    // Free-zone library code is not required to emit telemetry...
    assert!(findings_of(OBS_COV, "crates/stack/src/builder.rs", &src).is_empty());
    // ...and the obs crate is its own failure domain.
    assert!(findings_of(OBS_COV, "crates/obs/src/sink.rs", &src).is_empty());
}

// ---- determinism-zone mounts (stencil + gmg) ---------------------

const ZONE_MOUNTS: [&str; 2] = ["crates/thermal/src/stencil.rs", "crates/thermal/src/gmg.rs"];

#[test]
fn stencil_and_gmg_mounts_are_inside_the_determinism_zone() {
    // The matrix-free kernels and the geometric-multigrid hierarchy
    // carry the same bit-identity claim as the CSR solver core; both
    // path-scoped rules must fire when a dirty file mounts there.
    let pos = fixture("zone_mount", "pos");
    for mount in ZONE_MOUNTS {
        let acc = findings_of(RAW_ACC, mount, &pos);
        assert_eq!(acc.len(), 1, "{mount}: {acc:?}");
        assert_eq!(acc[0].symbol, "plane_sum.acc", "{mount}");
        let nondet = findings_of(NONDET, mount, &pos);
        assert!(
            nondet.iter().any(|d| d.symbol == "HashMap"),
            "{mount}: {nondet:?}"
        );
    }
}

#[test]
fn zone_mount_negative_fixture_is_clean_in_zone() {
    let neg = fixture("zone_mount", "neg");
    for mount in ZONE_MOUNTS {
        let d = analyze_source(mount, &neg);
        assert!(d.is_empty(), "{mount}: {d:?}");
    }
}

#[test]
fn zone_mount_positive_fixture_is_inert_outside_the_zone() {
    let pos = fixture("zone_mount", "pos");
    let free = analyze_source("crates/stack/src/builder.rs", &pos);
    assert!(free.is_empty(), "free zone: {free:?}");
    for name in ["pos", "neg"] {
        let src = fixture("zone_mount", name);
        let relpath = format!("crates/lint/tests/fixtures/zone_mount/{name}.rs");
        let d = analyze_source(&relpath, &src);
        assert!(d.is_empty(), "{relpath} must be inert in place: {d:?}");
    }
}

// ---- determinism-zone mounts (sweep engine + journal) ------------

const SWEEP_MOUNTS: [&str; 2] = ["crates/sweep/src/engine.rs", "crates/sweep/src/journal.rs"];
const NO_PANIC: &str = "no-panic-path";

#[test]
fn sweep_engine_and_journal_mounts_are_inside_the_determinism_zone() {
    // The sweep orchestrator carries the full robustness contract: it
    // may never panic (it absorbs panics), never iterate nondet
    // collections (resume digests must be bit-stable), never float-fold
    // off the reduction helpers, and never swallow a degraded task
    // without a counter. All four rules must fire on a dirty mount.
    let pos = fixture("sweep_zone", "pos");
    for mount in SWEEP_MOUNTS {
        let panics = findings_of(NO_PANIC, mount, &pos);
        assert_eq!(panics.len(), 1, "{mount}: {panics:?}");
        assert_eq!(panics[0].symbol, "expect", "{mount}");
        let acc = findings_of(RAW_ACC, mount, &pos);
        assert_eq!(acc.len(), 1, "{mount}: {acc:?}");
        assert_eq!(acc[0].symbol, "mean_latency.acc", "{mount}");
        let nondet = findings_of(NONDET, mount, &pos);
        assert!(
            nondet.iter().any(|d| d.symbol == "HashMap"),
            "{mount}: {nondet:?}"
        );
        let dark = findings_of(OBS_COV, mount, &pos);
        assert_eq!(dark.len(), 1, "{mount}: {dark:?}");
        assert_eq!(dark[0].symbol, "drain", "{mount}");
    }
}

#[test]
fn sweep_zone_negative_fixture_is_clean_in_zone() {
    let neg = fixture("sweep_zone", "neg");
    for mount in SWEEP_MOUNTS {
        let d = analyze_source(mount, &neg);
        assert!(d.is_empty(), "{mount}: {d:?}");
    }
}

#[test]
fn sweep_zone_positive_fixture_is_inert_outside_the_zone() {
    let pos = fixture("sweep_zone", "pos");
    let free = analyze_source("crates/stack/src/builder.rs", &pos);
    assert!(free.is_empty(), "free zone: {free:?}");
    for name in ["pos", "neg"] {
        let src = fixture("sweep_zone", name);
        let relpath = format!("crates/lint/tests/fixtures/sweep_zone/{name}.rs");
        let d = analyze_source(&relpath, &src);
        assert!(d.is_empty(), "{relpath} must be inert in place: {d:?}");
    }
}

// ---- robustness-zone mounts (serve scheduler + session) ----------

const SERVE_SCHED_MOUNT: &str = "crates/serve/src/scheduler.rs";
const SERVE_SESSION_MOUNT: &str = "crates/serve/src/session.rs";

#[test]
fn serve_scheduler_mount_is_crash_only_and_instrumented() {
    // The scheduler absorbs panics and deadline misses, so it may
    // never panic itself (rule 4) and may never degrade a session
    // darkly (obs-coverage). It is not a float hot path, so the
    // accumulation rules stay out of scope here.
    let pos = fixture("serve_zone", "pos");
    let panics = findings_of(NO_PANIC, SERVE_SCHED_MOUNT, &pos);
    assert_eq!(panics.len(), 1, "{panics:?}");
    assert_eq!(panics[0].symbol, "expect");
    let dark = findings_of(OBS_COV, SERVE_SCHED_MOUNT, &pos);
    assert_eq!(dark.len(), 1, "{dark:?}");
    assert_eq!(dark[0].symbol, "settle");
}

#[test]
fn serve_session_mount_is_inside_the_determinism_zone() {
    // Slice execution carries the bit-identical-resume claim: no
    // panicking escape hatches, no hash-ordered iteration, no raw
    // float folds.
    let pos = fixture("serve_zone", "pos");
    let panics = findings_of(NO_PANIC, SERVE_SESSION_MOUNT, &pos);
    assert_eq!(panics.len(), 1, "{panics:?}");
    let acc = findings_of(RAW_ACC, SERVE_SESSION_MOUNT, &pos);
    assert_eq!(acc.len(), 1, "{acc:?}");
    assert_eq!(acc[0].symbol, "mean_hotspot.acc");
    let nondet = findings_of(NONDET, SERVE_SESSION_MOUNT, &pos);
    assert!(nondet.iter().any(|d| d.symbol == "HashMap"), "{nondet:?}");
}

#[test]
fn serve_zone_negative_fixture_is_clean_in_zone() {
    let neg = fixture("serve_zone", "neg");
    for mount in [SERVE_SCHED_MOUNT, SERVE_SESSION_MOUNT] {
        let d = analyze_source(mount, &neg);
        assert!(d.is_empty(), "{mount}: {d:?}");
    }
}

#[test]
fn serve_zone_positive_fixture_is_inert_outside_the_zone() {
    let pos = fixture("serve_zone", "pos");
    // chaos.rs is deliberately outside the no-panic zone: its injected
    // panics are the chaos harness's signal, not a crash vector.
    let chaos = findings_of(NO_PANIC, "crates/serve/src/chaos.rs", &pos);
    assert!(chaos.is_empty(), "chaos.rs exempt: {chaos:?}");
    let free = analyze_source("crates/stack/src/builder.rs", &pos);
    assert!(free.is_empty(), "free zone: {free:?}");
    for name in ["pos", "neg"] {
        let src = fixture("serve_zone", name);
        let relpath = format!("crates/lint/tests/fixtures/serve_zone/{name}.rs");
        let d = analyze_source(&relpath, &src);
        assert!(d.is_empty(), "{relpath} must be inert in place: {d:?}");
    }
}

#[test]
fn durable_layer_mount_is_panic_free() {
    // The shared journal and atomic writer sit under every recovery
    // path (sweep resume, spool restart, checkpoint save): a panic there
    // turns a survivable torn tail into a crash.
    let pos = fixture("serve_zone", "pos");
    let panics = findings_of(NO_PANIC, "crates/core/src/durable.rs", &pos);
    assert_eq!(panics.len(), 1, "{panics:?}");
    assert_eq!(panics[0].symbol, "expect");
}

#[test]
fn migration_mount_is_panic_free() {
    // The migration experiments answer a malformed ring or schedule with
    // a config error; an unwrap there would turn bad input into a crash.
    let pos = fixture("serve_zone", "pos");
    let panics = findings_of(NO_PANIC, "crates/core/src/migration.rs", &pos);
    assert_eq!(panics.len(), 1, "{panics:?}");
    assert_eq!(panics[0].symbol, "expect");
}

// ---- determinism-zone mount (scenario lowering) ------------------

const SCENARIO_MOUNT: &str = "crates/scenario/src/lower.rs";

#[test]
fn scenario_lowering_mount_is_inside_the_determinism_zone() {
    // Identical .stk sources must lower to bit-identical stacks, so the
    // lowering module carries the hot-path contract: no hash-ordered
    // collections (material/floorplan resolution order) and no raw
    // float folds.
    let pos = fixture("scenario_zone", "pos");
    let acc = findings_of(RAW_ACC, SCENARIO_MOUNT, &pos);
    assert_eq!(acc.len(), 1, "{acc:?}");
    assert_eq!(acc[0].symbol, "painted_area.area");
    let nondet = findings_of(NONDET, SCENARIO_MOUNT, &pos);
    assert!(nondet.iter().any(|d| d.symbol == "HashMap"), "{nondet:?}");
}

#[test]
fn scenario_zone_negative_fixture_is_clean_in_zone() {
    let neg = fixture("scenario_zone", "neg");
    let d = analyze_source(SCENARIO_MOUNT, &neg);
    assert!(d.is_empty(), "{SCENARIO_MOUNT}: {d:?}");
}

#[test]
fn scenario_zone_positive_fixture_is_inert_outside_the_zone() {
    let pos = fixture("scenario_zone", "pos");
    // The parser is NOT in the zone: its output is position-stamped
    // text, not physics, and its own tests lock totality instead.
    let free = analyze_source("crates/scenario/src/parser.rs", &pos);
    assert!(free.is_empty(), "free zone: {free:?}");
    for name in ["pos", "neg"] {
        let src = fixture("scenario_zone", name);
        let relpath = format!("crates/lint/tests/fixtures/scenario_zone/{name}.rs");
        let d = analyze_source(&relpath, &src);
        assert!(d.is_empty(), "{relpath} must be inert in place: {d:?}");
    }
}

// ---- no-uncalled-pub (workspace-wide) ----------------------------

const UNCALLED: &str = "no-uncalled-pub";
const CRATE_ROOT: &str = "crates/demo/src/lib.rs";

fn uncalled_symbols(files: &[(&str, &str)]) -> Vec<String> {
    analyze_workspace(files)
        .into_iter()
        .map(|d| {
            assert_eq!(d.rule, UNCALLED, "{d:?}");
            d.symbol
        })
        .collect()
}

#[test]
fn uncalled_pub_positive_fixture_fires() {
    // Own `#[cfg(test)]` module, a file under `tests/`, a comment, a
    // `pub use` and the type's own impl block: none of them is a call.
    let pos = fixture("no_uncalled_pub", "pos");
    let integration =
        "#[test]\nfn it() {\n    assert_eq!(demo::engine::only_integration_tested(), 2);\n}\n";
    let symbols = uncalled_symbols(&[(CRATE_ROOT, &pos), ("crates/demo/tests/it.rs", integration)]);
    assert_eq!(
        symbols,
        [
            "only_unit_tested",
            "only_integration_tested",
            "only_commented",
            "only_reexported",
            "OnlySelfNamed",
        ]
    );
}

#[test]
fn uncalled_pub_negative_fixture_is_clean() {
    let neg = fixture("no_uncalled_pub", "neg");
    let files = [
        (CRATE_ROOT, neg.as_str()),
        (
            "crates/other/src/lib.rs",
            "fn run() -> u32 {\n    demo::called_from_another_crate()\n}\n",
        ),
        (
            "examples/demo.rs",
            "fn main() {\n    let _ = demo::called_from_an_example();\n}\n",
        ),
        (
            "perfbench/src/main.rs",
            "fn main() {\n    let _ = demo::called_from_perfbench();\n}\n",
        ),
        (
            "crates/demo/benches/b.rs",
            "fn main() {\n    let _ = demo::NamedInABench;\n}\n",
        ),
    ];
    assert_eq!(uncalled_symbols(&files), Vec::<String>::new());
    // Without its callers, every item but the one called in its own file
    // is uncalled.
    assert_eq!(
        uncalled_symbols(&files[..1]),
        [
            "called_from_another_crate",
            "called_from_an_example",
            "called_from_perfbench",
            "NamedInABench",
        ]
    );
}

#[test]
fn uncalled_pub_allowed_fixture_suppressed_by_entry() {
    let src = fixture("no_uncalled_pub", "allowed");
    let raw = analyze_workspace(&[(CRATE_ROOT, &src)]);
    assert_eq!(raw.len(), 1, "fires raw: {raw:?}");
    let allow = Allowlist::parse("no-uncalled-pub demo/src/lib.rs kept_for_integration_tests\n")
        .expect("entry parses");
    assert!(raw
        .iter()
        .all(|d| allow.permits(d.rule, &d.path, &d.symbol)));
}

#[test]
fn uncalled_pub_fixtures_are_inert_at_their_real_path() {
    // Under `crates/lint/tests/` the fixtures neither define items the
    // rule audits nor call anything.
    let files: Vec<(String, String)> = ["pos", "neg", "allowed"]
        .iter()
        .map(|name| {
            (
                format!("crates/lint/tests/fixtures/no_uncalled_pub/{name}.rs"),
                fixture("no_uncalled_pub", name),
            )
        })
        .collect();
    let pairs: Vec<(&str, &str)> = files
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    assert!(analyze_workspace(&pairs).is_empty());
}

// ---- corpus hygiene ----------------------------------------------

#[test]
fn fixture_corpus_is_inert_at_its_real_path() {
    // The fixture files are walked by the workspace lint run at their
    // actual `crates/lint/tests/fixtures/...` paths; every rule must be
    // inert there, or the corpus itself would fail CI.
    for dir in [
        "no_nondet_collections",
        "no_raw_accumulation",
        "no_unit_escape",
        "obs_coverage",
        "no_uncalled_pub",
    ] {
        for name in ["pos", "neg", "allowed"] {
            let src = fixture(dir, name);
            let relpath = format!("crates/lint/tests/fixtures/{dir}/{name}.rs");
            let d = analyze_source(&relpath, &src);
            assert!(d.is_empty(), "{relpath} must be inert in place: {d:?}");
        }
    }
}
