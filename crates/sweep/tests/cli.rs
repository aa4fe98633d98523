//! The `xylem` binary end to end: `report` and `dtm` solve on the grid
//! `--grid` names, and `dtm --sensors` closes the loop through the
//! sensor array. Each test runs against its own empty response cache.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xylem-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn xylem(cache: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xylem"))
        .args(args)
        .env("XYLEM_CACHE_DIR", cache)
        .output()
        .expect("xylem binary runs")
}

#[test]
fn report_solves_on_the_grid_it_is_given() {
    let cache = cache_dir("report");
    let out = xylem(&cache, &["report", "--grid", "16"]);
    let _ = std::fs::remove_dir_all(&cache);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("(16x16 grid)"), "{stdout}");
}

#[test]
fn dtm_runs_on_a_small_grid_through_the_sensor_array() {
    let cache = cache_dir("dtm");
    let out = xylem(
        &cache,
        &["dtm", "--grid", "12", "--sensors", "--duration", "0.02"],
    );
    let _ = std::fs::remove_dir_all(&cache);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The sensor array's fused reading lands in the run report's gauges.
    assert!(stdout.contains("sensor_fused_c"), "{stdout}");
}
