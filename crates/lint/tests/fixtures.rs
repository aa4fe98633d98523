//! End-to-end tests of the `xylem-lint` binary: it must fail (with
//! `file:line` diagnostics) on a fixture workspace that reintroduces the
//! violations, enforce the baseline ratchet and stale-entry checks, emit
//! schema-locked JSONL under `--json`, and pass on the real workspace.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn run_lint_args(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xylem-lint"))
        .args(extra)
        .arg(root)
        .output()
        .expect("lint binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exit code present"), text)
}

fn run_lint(root: &Path) -> (i32, String) {
    run_lint_args(root, &[])
}

/// Writes a minimal fixture workspace containing one library file. A
/// fixture whose `pub` item must not trip `no-uncalled-pub` calls it
/// from a private function in the same file.
fn write_fixture(dir: &Path, relfile: &str, src: &str) {
    std::fs::create_dir_all(dir.join(relfile).parent().expect("file has parent"))
        .expect("fixture dirs create");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("fixture manifest writes");
    std::fs::write(dir.join(relfile), src).expect("fixture source writes");
}

fn fixture_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xylem-lint-fixture-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("fixture dir creates");
    dir
}

#[test]
fn real_workspace_is_clean() {
    let (code, text) = run_lint(&workspace_root());
    assert_eq!(code, 0, "expected clean workspace, got:\n{text}");
    assert!(text.contains("0 finding(s)"), "{text}");
    assert!(text.contains("0 stale"), "{text}");
    assert!(text.contains("— clean"), "{text}");
}

#[test]
fn reintroduced_raw_f64_param_fails_with_location() {
    let dir = fixture_dir("f64");
    write_fixture(
        &dir,
        "crates/thermal/src/regress.rs",
        "//! Regression fixture.\n\npub fn set_hotspot(hotspot_c: f64) -> f64 {\n    hotspot_c\n}\n",
    );
    let (code, text) = run_lint(&dir);
    assert_ne!(code, 0, "lint must fail on raw f64 quantity param:\n{text}");
    assert!(
        text.contains("crates/thermal/src/regress.rs:3"),
        "diagnostic must carry file:line, got:\n{text}"
    );
    assert!(text.contains("[f64-param]"), "{text}");
    assert!(text.contains("hotspot_c"), "{text}");
}

#[test]
fn reintroduced_library_unwrap_fails_with_location() {
    let dir = fixture_dir("unwrap");
    write_fixture(
        &dir,
        "crates/stack/src/regress.rs",
        "fn build() -> usize {\n    let v: Option<usize> = None;\n    v.unwrap()\n}\n",
    );
    let (code, text) = run_lint(&dir);
    assert_ne!(code, 0, "lint must fail on library unwrap:\n{text}");
    assert!(
        text.contains("crates/stack/src/regress.rs:3"),
        "diagnostic must carry file:line, got:\n{text}"
    );
    assert!(text.contains("[unwrap]"), "{text}");
}

#[test]
fn magic_constant_outside_tables_fails() {
    let dir = fixture_dir("magic");
    write_fixture(
        &dir,
        "crates/thermal/src/regress.rs",
        "pub fn to_kelvin_inline(c: f64) -> f64 {\n    c + 273.15\n}\n",
    );
    let (code, text) = run_lint(&dir);
    assert_ne!(code, 0, "lint must fail on inline 273.15:\n{text}");
    assert!(text.contains("crates/thermal/src/regress.rs:2"), "{text}");
    assert!(text.contains("[magic-float]"), "{text}");
}

#[test]
fn allowlist_suppresses_fixture_finding() {
    let dir = fixture_dir("allow");
    write_fixture(
        &dir,
        "crates/thermal/src/regress.rs",
        "pub fn set_hotspot(hotspot_c: f64) -> f64 {\n    hotspot_c\n}\n\n\
         fn caller() -> f64 {\n    set_hotspot(1.0)\n}\n",
    );
    std::fs::write(
        dir.join("xylem-lint.allow"),
        "f64-param thermal/src/regress.rs set_hotspot.hotspot_c\n",
    )
    .expect("allowlist writes");
    let (code, text) = run_lint(&dir);
    assert_eq!(code, 0, "allowlisted finding must pass:\n{text}");
    assert!(text.contains("1 suppressed"), "{text}");
}

#[test]
fn missing_root_is_a_usage_error() {
    let dir = std::env::temp_dir().join("xylem-lint-no-such-root");
    let _ = std::fs::remove_dir_all(&dir);
    let (code, _) = run_lint(&dir);
    assert_eq!(code, 2);
}

/// Acceptance demo: a HashMap iteration deliberately introduced into the
/// thermal solver is caught by the determinism auditor.
#[test]
fn demo_hashmap_iteration_in_solver_is_caught() {
    let dir = fixture_dir("demo-hashmap");
    write_fixture(
        &dir,
        "crates/thermal/src/solve.rs",
        concat!(
            "use std::collections::HashMap;\n",
            "\n",
            "pub fn hottest_layer(readings: &[(u32, f64)]) -> f64 {\n",
            "    let mut by_layer: HashMap<u32, f64> = HashMap::new();\n",
            "    for (layer, t) in readings {\n",
            "        by_layer.insert(*layer, t.max(0.0));\n",
            "    }\n",
            "    by_layer.values().copied().fold(0.0, f64::max)\n",
            "}\n",
        ),
    );
    let (code, text) = run_lint(&dir);
    assert_ne!(code, 0, "HashMap in the solver must fail lint:\n{text}");
    assert!(text.contains("[no-nondet-collections]"), "{text}");
    assert!(text.contains("crates/thermal/src/solve.rs"), "{text}");
    assert!(
        text.contains("hash iteration order is nondeterministic"),
        "{text}"
    );
}

#[test]
fn stale_allow_entry_fails_unless_escaped() {
    let dir = fixture_dir("stale-allow");
    write_fixture(
        &dir,
        "crates/stack/src/clean.rs",
        "pub fn layers() -> usize {\n    4\n}\n\nfn caller() -> usize {\n    layers()\n}\n",
    );
    std::fs::write(
        dir.join("xylem-lint.allow"),
        "# the exempted finding was fixed long ago\nf64-param stack/src/clean.rs gone.param\n",
    )
    .expect("allowlist writes");

    let (code, text) = run_lint(&dir);
    assert_ne!(code, 0, "stale allow entry must fail:\n{text}");
    assert!(text.contains("[stale-allow]"), "{text}");
    assert!(
        text.contains("xylem-lint.allow:2"),
        "stale report carries file:line: {text}"
    );
    assert!(text.contains("matches zero findings"), "{text}");

    let (code, text) = run_lint_args(&dir, &["--allow-stale"]);
    assert_eq!(
        code, 0,
        "--allow-stale must downgrade to a warning:\n{text}"
    );
    assert!(text.contains("warning (stale, allowed):"), "{text}");
}

#[test]
fn stale_baseline_entry_fails() {
    let dir = fixture_dir("stale-baseline");
    write_fixture(
        &dir,
        "crates/stack/src/clean.rs",
        "pub fn layers() -> usize {\n    4\n}\n\nfn caller() -> usize {\n    layers()\n}\n",
    );
    std::fs::write(
        dir.join("xylem-lint.baseline"),
        "no-raw-accumulation thermal/src/solve.rs gone.acc\n",
    )
    .expect("baseline writes");
    let (code, text) = run_lint(&dir);
    assert_ne!(code, 0, "stale baseline entry must fail:\n{text}");
    assert!(text.contains("[stale-baseline]"), "{text}");
    assert!(text.contains("xylem-lint.baseline:1"), "{text}");
}

/// The ratchet: baselined findings stay suppressed, but a *new* finding
/// in the same file still fails CI.
#[test]
fn baseline_pins_old_finding_but_new_finding_fails() {
    let dir = fixture_dir("ratchet");
    let src = concat!(
        "pub fn residual(r: &[f64]) -> f64 {\n",
        "    let mut acc = 0.0;\n",
        "    for v in r {\n",
        "        acc += v * v;\n",
        "    }\n",
        "    acc\n",
        "}\n",
        "\n",
        "fn caller(r: &[f64]) -> f64 {\n",
        "    residual(r) + total(r)\n",
        "}\n",
    );
    write_fixture(&dir, "crates/thermal/src/solve.rs", src);
    std::fs::write(
        dir.join("xylem-lint.baseline"),
        "no-raw-accumulation thermal/src/solve.rs residual.acc\n",
    )
    .expect("baseline writes");

    let (code, text) = run_lint(&dir);
    assert_eq!(code, 0, "baselined finding must be pinned:\n{text}");
    assert!(text.contains("1 suppressed"), "{text}");

    // Grow the file: the old finding stays pinned, the new one fails.
    let grown = format!("{src}\npub fn total(w: &[f64]) -> f64 {{\n    w.iter().sum()\n}}\n");
    std::fs::write(dir.join("crates/thermal/src/solve.rs"), grown).expect("fixture grows");
    let (code, text) = run_lint(&dir);
    assert_ne!(code, 0, "new finding must not ride the baseline:\n{text}");
    assert!(text.contains("[no-raw-accumulation]"), "{text}");
    assert!(text.contains("`total`"), "new finding reported: {text}");
    assert!(
        !text.contains("`residual`"),
        "old finding stays pinned: {text}"
    );
    assert!(text.contains("1 finding(s), 1 suppressed"), "{text}");
}

/// `--json` emits one JSON object per line with the locked key order
/// `rule, path, line, symbol, zone, message` — parsed back with the same
/// hand-rolled JSON layer that writes it.
#[test]
fn json_mode_emits_schema_locked_jsonl() {
    let dir = fixture_dir("jsonl");
    write_fixture(
        &dir,
        "crates/thermal/src/solve.rs",
        "use std::collections::HashMap;\n\npub fn cache() -> usize {\n    0\n}\n\n\
         fn caller() -> usize {\n    cache()\n}\n",
    );
    std::fs::write(
        dir.join("xylem-lint.baseline"),
        "no-raw-accumulation thermal/src/solve.rs gone.acc\n",
    )
    .expect("baseline writes");

    let (code, text) = run_lint_args(&dir, &["--json"]);
    assert_ne!(code, 0, "{text}");
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    // One finding (the HashMap import) plus one stale-baseline record.
    assert_eq!(lines.len(), 2, "{text}");
    for line in &lines {
        let v = xylem_obs::json::parse(line).expect("each line is valid JSON");
        let xylem_obs::json::Value::Object(fields) = v else {
            panic!("each line is a JSON object: {line}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec!["rule", "path", "line", "symbol", "zone", "message"],
            "locked JSONL schema violated on: {line}"
        );
    }
    let first = xylem_obs::json::parse(lines[0]).expect("parses");
    assert_eq!(
        first.get("rule").and_then(|v| v.as_str()),
        Some("no-nondet-collections")
    );
    assert_eq!(
        first.get("zone").and_then(|v| v.as_str()),
        Some("hot-path+instrumented")
    );
    let second = xylem_obs::json::parse(lines[1]).expect("parses");
    assert_eq!(
        second.get("rule").and_then(|v| v.as_str()),
        Some("stale-baseline")
    );
    assert_eq!(
        second.get("path").and_then(|v| v.as_str()),
        Some("xylem-lint.baseline")
    );
}
