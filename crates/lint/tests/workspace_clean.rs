//! The repository itself passes its own lint: `cargo test` fails on a new
//! finding (an uncalled `pub` item included) or a stale allow/baseline
//! entry, listing each one, without going through the binary.

#[test]
fn repository_audit_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = xylem_lint::audit_workspace(&root).expect("workspace audits");
    let problems: Vec<String> = report
        .findings
        .iter()
        .cloned()
        .chain(report.stale.iter().map(|s| s.to_diagnostic()))
        .map(|d| d.to_string())
        .collect();
    assert!(report.is_clean(false), "{}", problems.join("\n"));
}
