//! `xylem` — command-line driver for the Xylem reproduction.
//!
//! ```text
//! xylem evaluate --scheme banke --app Cholesky --freq 2.4
//! xylem boost    --scheme banke --app FFT
//! xylem apps     --scheme base --freq 2.4
//! xylem run      scenarios/valid/xylem-paper.stk
//! xylem sweep    --schemes base,banke --thickness-um 50,100,200 --journal s.jsonl
//! xylem sweep    --scenario my.stk --grids 16,32 --power-scale 0.5,1,2
//! xylem report   --scheme base --app Barnes --freq 2.4
//! xylem dtm      --scheme base --app "LU(NAS)" --freq 3.5 --duration 2.0
//! xylem serve    --selftest --sessions 1000 --kill-drill
//! xylem schemes
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use xylem::dtm::{
    dtm_transient_configured, frequency_strip, CheckpointConfig, DtmPolicy, DtmRunConfig,
};
use xylem::headroom::max_frequency_at_iso_temperature;
use xylem::placement::ThreadPlacement;
use xylem::system::{default_cache_dir, SystemConfig, XylemSystem};
use xylem_stack::area::{AreaOverhead, SAMSUNG_WIDE_IO_DIE_AREA};
use xylem_stack::dram_die::DramDieGeometry;
use xylem_stack::XylemScheme;
use xylem_sweep::{
    run_scenario_sweep, run_sweep, ChaosConfig, ScenarioSweepSpec, SweepOptions, SweepSpec,
    TaskStatus,
};
use xylem_thermal::grid::GridSpec;
use xylem_thermal::report::StackThermalReport;
use xylem_thermal::units::Celsius;
use xylem_thermal::{AdaptiveOptions, DeadlineGuard};
use xylem_workloads::Benchmark;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let opts = parse_flags(&args[1..]);
    let metrics = match install_metrics(cmd, &opts) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "evaluate" => evaluate(&opts),
        "boost" => boost(&opts),
        "apps" => apps(&opts),
        "run" => run_scenario(&args[1..], &opts),
        "sweep" => sweep(&opts),
        "serve" => serve(&opts),
        "report" => report(&opts),
        "dtm" => dtm(&opts),
        "schemes" => {
            schemes();
            Ok(())
        }
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    // End-of-run summary: always for the closed-loop dtm and batched
    // sweep commands, and for any command that wrote a metrics file.
    if result.is_ok() && (metrics || cmd == "dtm" || cmd == "sweep") {
        let report = xylem_obs::RunReport::capture();
        report.emit();
        print!("{report}");
    }
    if metrics {
        xylem_obs::shutdown();
        if let Some(path) = opts.get("metrics-out") {
            println!("[metrics written to {path}]");
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Rendered scenario diagnostics arrive already prefixed with
        // `error:` and carry a source caret — print them verbatim and
        // skip the usage dump (the flags were fine; the file wasn't).
        Err(e) if e.starts_with("error:") => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}

/// Installs the JSONL metrics sink when `--metrics-out PATH` is given
/// and opens the file with a run manifest (tool, command, flags, and
/// their FNV-1a config hash). Returns whether a sink is live.
fn install_metrics(cmd: &str, opts: &HashMap<String, String>) -> Result<bool, String> {
    let Some(path) = opts.get("metrics-out") else {
        return Ok(false);
    };
    xylem_obs::install_file(std::path::Path::new(path))
        .map_err(|e| format!("cannot open metrics file '{path}': {e}"))?;
    let mut manifest = xylem_obs::RunManifest::new("xylem", cmd);
    let mut keys: Vec<&String> = opts.keys().collect();
    keys.sort();
    for key in keys {
        if key != "metrics-out" {
            manifest = manifest.with(key, &opts[key]);
        }
    }
    manifest.emit();
    Ok(true)
}

fn usage() {
    eprintln!(
        "xylem — vertical thermal conduction in 3D processor-memory stacks\n\
         \n\
         commands:\n\
           evaluate --scheme S --app A --freq F     temperatures/power for one run\n\
           boost    --scheme S --app A              iso-temperature frequency boost vs base\n\
           apps     --scheme S --freq F             all 17 applications\n\
           run      FILE.stk                        compile and solve one .stk scenario\n\
           sweep    [axes...]                       crash-safe batched design-space sweep\n\
           report   --scheme S --app A --freq F     layer-by-layer thermal breakdown\n\
           dtm      --scheme S --app A --freq F --duration D   closed-loop DTM transient\n\
           serve    --selftest | --stdio            multi-tenant simulation service\n\
           schemes                                  list TTSV schemes and overheads\n\
         \n\
         schemes: base bank banke isoCount prior;  apps: FFT Cholesky ... (paper names)\n\
         optional: --grid N (default 64)\n\
                   --metrics-out PATH   write JSONL metrics (manifest, per-step/per-solve\n\
                                        events, run report) and print the run summary\n\
         sweep axes (comma-separated lists): --schemes --apps --freqs --thickness-um\n\
                   --pillar-um --dies --d2d-um --trips; --sample K --seed N subsample\n\
         sweep robustness: --journal PATH [--resume]   append-only result journal; a\n\
                                        killed sweep resumes, skipping finished tasks\n\
                   --shards N --attempts N --deadline-ms M --pace-ms M\n\
         scenario sweep: sweep --scenario FILE.stk [--grids 16,32] [--power-scale 0.5,1,2]\n\
                   [--ambients 30,45]   vary a .stk scenario instead of the paper axes\n\
         run/dtm:  --deadline-ms M   wall-clock budget; an expired deadline aborts the\n\
                                        in-flight solve with DeadlineExceeded, never a hang\n\
         serve:    --selftest [--sessions N] [--tenants N] [--workers N] [--seed N]\n\
                   [--no-chaos] [--kill-drill] [--bench-out PATH]   seeded chaos/load\n\
                   campaign: overload + fault injection, then verifies every service\n\
                   contract (terminal states, bit-identical replays, crash resume)\n\
                   --stdio [--spool DIR]   serve the line-delimited JSON protocol on\n\
                                        stdin/stdout; a reused spool resumes its sessions\n\
         dtm only: --checkpoint PATH [--every N] [--resume]   save/restore the run state\n\
                   --adaptive [--rtol R]   error-controlled adaptive sub-stepping\n\
                   --budget-cg N / --budget-wall-s S / --budget-rejects N   run budgets\n\
                                        (exhaustion degrades to economy stepping, never aborts)"
    );
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            // `--key=value` form (used by the serve drill re-exec,
            // where values may start with `-` or contain spaces).
            if let Some((k, v)) = key.split_once('=') {
                out.insert(k.to_string(), v.to_string());
                i += 1;
                continue;
            }
            // A flag followed by another flag (or nothing) is boolean.
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                out.insert(key.to_string(), args[i + 1].clone());
                i += 2;
                continue;
            }
            out.insert(key.to_string(), "true".to_string());
        }
        i += 1;
    }
    out
}

/// Parses `--deadline-ms` into an installed [`DeadlineGuard`] (held by
/// the caller for the duration of the command), or `None` when absent.
fn deadline_guard_of(opts: &HashMap<String, String>) -> Result<Option<DeadlineGuard>, String> {
    opts.get("deadline-ms")
        .map(|s| {
            let ms: u64 = s.parse().map_err(|_| format!("bad --deadline-ms '{s}'"))?;
            Ok(DeadlineGuard::install(
                std::time::Instant::now() + std::time::Duration::from_millis(ms),
            ))
        })
        .transpose()
}

fn scheme_of(opts: &HashMap<String, String>) -> Result<XylemScheme, String> {
    let name = opts.get("scheme").map(String::as_str).unwrap_or("banke");
    XylemScheme::ALL
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown scheme '{name}'"))
}

fn app_of(opts: &HashMap<String, String>) -> Result<Benchmark, String> {
    let name = opts.get("app").map(String::as_str).unwrap_or("Cholesky");
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown application '{name}' (use paper names, e.g. LU(NAS))"))
}

fn freq_of(opts: &HashMap<String, String>) -> Result<f64, String> {
    match opts.get("freq") {
        None => Ok(2.4),
        Some(s) => s.parse().map_err(|_| format!("bad --freq '{s}'")),
    }
}

fn system_of(opts: &HashMap<String, String>) -> Result<XylemSystem, String> {
    let scheme = scheme_of(opts)?;
    let mut cfg = SystemConfig::paper_default(scheme);
    if let Some(g) = opts.get("grid") {
        let n: usize = g.parse().map_err(|_| format!("bad --grid '{g}'"))?;
        cfg.grid = GridSpec::new(n, n);
    }
    XylemSystem::new(cfg).map_err(|e| e.to_string())
}

fn evaluate(opts: &HashMap<String, String>) -> Result<(), String> {
    let mut sys = system_of(opts)?;
    let app = app_of(opts)?;
    let f = freq_of(opts)?;
    let e = sys.evaluate_uniform(app, f).map_err(|e| e.to_string())?;
    println!("{} on {} @ {f:.1} GHz", app, sys.scheme());
    println!(
        "  processor hotspot : {:8.2} C (core {})",
        e.proc_hotspot_c,
        e.hottest_core()
    );
    println!("  bottom DRAM die   : {:8.2} C", e.dram_hotspot_c);
    println!("  processor power   : {:8.2} W", e.proc_power_w);
    println!("  DRAM stack power  : {:8.2} W", e.dram_power_w);
    println!("  execution time    : {:8.2} ms", e.exec_time_s() * 1e3);
    println!("  stack energy      : {:8.3} J", e.stack_energy_j());
    Ok(())
}

fn boost(opts: &HashMap<String, String>) -> Result<(), String> {
    let app = app_of(opts)?;
    let mut base = {
        let mut o = opts.clone();
        o.insert("scheme".into(), "base".into());
        system_of(&o)?
    };
    let reference = base.evaluate_uniform(app, 2.4).map_err(|e| e.to_string())?;
    let mut sys = system_of(opts)?;
    let out =
        max_frequency_at_iso_temperature(&mut sys, app, Celsius::new(reference.proc_hotspot_c))
            .map_err(|e| e.to_string())?;
    match out {
        None => println!(
            "{} cannot hold the base reference of {:.2} C even at 2.4 GHz",
            sys.scheme(),
            reference.proc_hotspot_c
        ),
        Some(b) => {
            let gain = reference.exec_time_s() / b.evaluation.exec_time_s() - 1.0;
            println!(
                "{} on {}: base reference {:.2} C @2.4 GHz -> boosted to {:.1} GHz \
                 ({:+.0} MHz, {:.1}% faster, hotspot {:.2} C)",
                app,
                sys.scheme(),
                reference.proc_hotspot_c,
                b.f_ghz,
                (b.f_ghz - 2.4) * 1000.0,
                gain * 100.0,
                b.evaluation.proc_hotspot_c
            );
        }
    }
    Ok(())
}

fn apps(opts: &HashMap<String, String>) -> Result<(), String> {
    let mut sys = system_of(opts)?;
    let f = freq_of(opts)?;
    println!(
        "{:12} {:>9} {:>9} {:>8} {:>9}",
        "app", "proc C", "dram C", "power W", "time ms"
    );
    for app in Benchmark::ALL {
        let e = sys.evaluate_uniform(app, f).map_err(|e| e.to_string())?;
        println!(
            "{:12} {:>9.2} {:>9.2} {:>8.1} {:>9.2}",
            app.name(),
            e.proc_hotspot_c,
            e.dram_hotspot_c,
            e.total_power_w,
            e.exec_time_s() * 1e3
        );
    }
    Ok(())
}

/// The positional (non-flag) argument, skipping `--flag value` pairs.
fn positional_of(args: &[String]) -> Option<&str> {
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            // Boolean flag if followed by another flag; else skip value.
            i += if args.get(i + 1).is_some_and(|a| !a.starts_with("--")) {
                2
            } else {
                1
            };
            continue;
        }
        return Some(&args[i]);
    }
    None
}

fn run_scenario(args: &[String], opts: &HashMap<String, String>) -> Result<(), String> {
    let Some(path) = positional_of(args) else {
        return Err("run needs a scenario file: xylem run FILE.stk".to_string());
    };
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let lowered = xylem_scenario::compile(&src).map_err(|e| e.render(path, &src))?;
    // Same timeout semantics as the sweep engine: the guard aborts the
    // in-flight CG solve with DeadlineExceeded, never a hang.
    let _deadline = deadline_guard_of(opts)?;
    let report = xylem_scenario::run(&lowered).map_err(|e| e.to_string())?;
    println!(
        "{path}: {} nodes ({}x{} grid)",
        report.nodes, lowered.nx, lowered.ny
    );
    println!(
        "  conductance digest : {:016x}\n  temperature digest : {:016x}",
        report.conductance_digest, report.temperature_digest
    );
    println!("  global hotspot     : {:8.2} C", report.global_hotspot_c);
    for p in &report.probes {
        println!("  probe {:12} : {:8.2} C  ({})", p.name, p.celsius, p.layer);
    }
    Ok(())
}

fn list_of<T>(
    opts: &HashMap<String, String>,
    key: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match opts.get(key) {
        None => Ok(Vec::new()),
        Some(s) => s
            .split(',')
            .filter(|p| !p.is_empty())
            .map(|p| parse(p.trim()))
            .collect(),
    }
}

fn sweep_spec_of(opts: &HashMap<String, String>) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::default();
    let schemes = list_of(opts, "schemes", |name| {
        XylemScheme::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown scheme '{name}'"))
    })?;
    if !schemes.is_empty() {
        spec.schemes = schemes;
    }
    let apps = list_of(opts, "apps", |name| {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown application '{name}'"))
    })?;
    if !apps.is_empty() {
        spec.benchmarks = apps;
    }
    let f64_of = |key: &'static str| {
        list_of(opts, key, |s| {
            s.parse::<f64>().map_err(|_| format!("bad --{key} '{s}'"))
        })
    };
    let freqs = f64_of("freqs")?;
    if !freqs.is_empty() {
        spec.f_ghz = freqs;
    }
    spec.die_thickness_um = f64_of("thickness-um")?;
    spec.pillar_footprint_um = f64_of("pillar-um")?;
    spec.d2d_thickness_um = f64_of("d2d-um")?;
    spec.trips_c = f64_of("trips")?;
    spec.n_dram_dies = list_of(opts, "dies", |s| {
        s.parse::<usize>().map_err(|_| format!("bad --dies '{s}'"))
    })?;
    if let Some(g) = opts.get("grid") {
        spec.grid = g.parse().map_err(|_| format!("bad --grid '{g}'"))?;
    }
    if let Some(s) = opts.get("sample") {
        spec.sample = Some(s.parse().map_err(|_| format!("bad --sample '{s}'"))?);
    }
    if let Some(s) = opts.get("seed") {
        spec.seed = s.parse().map_err(|_| format!("bad --seed '{s}'"))?;
    }
    Ok(spec)
}

fn sweep_options_of(opts: &HashMap<String, String>, seed: u64) -> Result<SweepOptions, String> {
    let mut o = SweepOptions {
        seed,
        cache_dir: Some(default_cache_dir()),
        ..SweepOptions::default()
    };
    let num = |key: &'static str| -> Result<Option<u64>, String> {
        opts.get(key)
            .map(|s| s.parse::<u64>().map_err(|_| format!("bad --{key} '{s}'")))
            .transpose()
    };
    if let Some(n) = num("shards")? {
        o.shards = n as usize;
    }
    if let Some(n) = num("attempts")? {
        o.max_attempts = n.max(1) as u32;
    }
    o.deadline_ms = num("deadline-ms")?;
    if let Some(n) = num("pace-ms")? {
        o.pace_ms = n;
    }
    if let Some(path) = opts.get("journal") {
        o.journal_path = Some(std::path::PathBuf::from(path));
        o.resume = opts.contains_key("resume");
    }
    // Fault injection for supervised chaos runs (per-mille rates).
    let chaos_rates = (
        num("chaos-panic")?,
        num("chaos-error")?,
        num("chaos-deadline")?,
    );
    if chaos_rates.0.is_some() || chaos_rates.1.is_some() || chaos_rates.2.is_some() {
        o.chaos = Some(ChaosConfig {
            seed: num("chaos-seed")?.unwrap_or(seed),
            panic_per_mille: chaos_rates.0.unwrap_or(0) as u16,
            error_per_mille: chaos_rates.1.unwrap_or(0) as u16,
            deadline_per_mille: chaos_rates.2.unwrap_or(0) as u16,
        });
    }
    Ok(o)
}

/// Every flag the `sweep` subcommand reads. A typo here means a batch
/// silently sweeping its defaults for an hour, so — unlike the short
/// interactive commands — unknown flags are a hard error.
const SWEEP_FLAGS: &[&str] = &[
    "schemes",
    "apps",
    "freqs",
    "thickness-um",
    "pillar-um",
    "d2d-um",
    "trips",
    "dies",
    "grid",
    "sample",
    "seed",
    "shards",
    "attempts",
    "deadline-ms",
    "pace-ms",
    "journal",
    "resume",
    "chaos-panic",
    "chaos-error",
    "chaos-deadline",
    "chaos-seed",
    "metrics-out",
];

/// Flags of the scenario-driven sweep mode. Disjoint from the paper
/// axes: combining `--scenario` with `--schemes` has no meaning, so it
/// errors instead of silently ignoring half the command line.
const SCENARIO_SWEEP_FLAGS: &[&str] = &[
    "scenario",
    "grids",
    "power-scale",
    "ambients",
    "metrics-out",
];

fn scenario_sweep(opts: &HashMap<String, String>) -> Result<(), String> {
    let mut unknown: Vec<&str> = opts
        .keys()
        .map(String::as_str)
        .filter(|k| !SCENARIO_SWEEP_FLAGS.contains(k))
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        return Err(format!(
            "flag(s) not valid with --scenario: --{}",
            unknown.join(", --")
        ));
    }
    let path = opts.get("scenario").expect("caller checked --scenario");
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
    let spec = ScenarioSweepSpec {
        name,
        source,
        grids: list_of(opts, "grids", |s| {
            s.parse::<usize>().map_err(|_| format!("bad --grids '{s}'"))
        })?,
        power_scales: list_of(opts, "power-scale", |s| {
            s.parse::<f64>()
                .map_err(|_| format!("bad --power-scale '{s}'"))
        })?,
        ambients_c: list_of(opts, "ambients", |s| {
            s.parse::<f64>()
                .map_err(|_| format!("bad --ambients '{s}'"))
        })?,
    };
    let report = run_scenario_sweep(&spec)?;
    println!(
        "scenario sweep {}: {} points, {} ok, {} quarantined",
        report.scenario,
        report.records.len(),
        report.ok,
        report.quarantined
    );
    println!(
        "{:44} {:>9} {:>10} {:>18}",
        "point", "hotspot C", "nodes", "temp digest"
    );
    for r in &report.records {
        match &r.outcome {
            Ok(res) => println!(
                "{:44} {:>9.2} {:>10} {:>18}",
                r.key,
                res.global_hotspot_c,
                res.nodes,
                format!("{:016x}", res.temperature_digest)
            ),
            Err(e) => println!(
                "{:44} QUARANTINED: {}",
                r.key,
                e.lines().next().unwrap_or("no error recorded")
            ),
        }
    }
    Ok(())
}

fn sweep(opts: &HashMap<String, String>) -> Result<(), String> {
    if opts.contains_key("scenario") {
        return scenario_sweep(opts);
    }
    let mut unknown: Vec<&str> = opts
        .keys()
        .map(String::as_str)
        .filter(|k| !SWEEP_FLAGS.contains(k))
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        return Err(format!("unknown sweep flag(s): --{}", unknown.join(", --")));
    }
    let spec = sweep_spec_of(opts)?;
    let sweep_opts = sweep_options_of(opts, spec.seed)?;
    if sweep_opts.chaos.is_some() {
        xylem::supervise::silence_expected_panics();
    }
    let report = run_sweep(&spec, &sweep_opts).map_err(|e| e.to_string())?;
    println!(
        "sweep {}: {} tasks ({} grid), {} ok, {} quarantined, {} replayed from journal",
        report.spec_hash, report.total, spec.grid, report.ok, report.quarantined, report.replayed
    );
    if report.duplicate_journal_records > 0 || report.torn_tail_bytes > 0 {
        println!(
            "  journal repair: {} duplicate records ignored, {} torn-tail bytes dropped",
            report.duplicate_journal_records, report.torn_tail_bytes
        );
    }
    println!(
        "{:44} {:>4} {:>9} {:>9} {:>8} {:>9} {:>8}",
        "task", "try", "proc C", "dram C", "power W", "time ms", "dtm GHz"
    );
    for r in &report.records {
        match (&r.status, &r.result) {
            (TaskStatus::Ok, Some(res)) => {
                let dtm = res
                    .dtm_f_ghz
                    .map_or_else(|| "-".to_string(), |f| format!("{f:.1}"));
                println!(
                    "{:44} {:>4} {:>9.2} {:>9.2} {:>8.1} {:>9.2} {:>8}",
                    r.key,
                    r.attempts,
                    res.proc_hotspot_c,
                    res.dram_hotspot_c,
                    res.total_power_w,
                    res.exec_time_s * 1e3,
                    dtm
                );
            }
            _ => {
                println!(
                    "{:44} {:>4} QUARANTINED: {}",
                    r.key,
                    r.attempts,
                    r.error.as_deref().unwrap_or("no error recorded")
                );
            }
        }
    }
    println!(
        "completed in {:.2} s ({:.1} tasks/s fresh, {} retried attempts)",
        report.elapsed_s, report.tasks_per_sec, report.retried_attempts
    );
    Ok(())
}

/// Every flag the `serve` subcommand reads. The drill child is
/// re-spawned from a test harness with these exact flags, so — like
/// `sweep` — a typo is a hard error, never a silently-defaulted knob.
const SERVE_FLAGS: &[&str] = &[
    "selftest",
    "stdio",
    "drill-child",
    "spool",
    "sessions",
    "tenants",
    "workers",
    "seed",
    "no-chaos",
    "kill-drill",
    "bench-out",
    "pace-ms",
    "metrics-out",
];

fn serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let mut unknown: Vec<&str> = opts
        .keys()
        .map(String::as_str)
        .filter(|k| !SERVE_FLAGS.contains(k))
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        return Err(format!("unknown serve flag(s): --{}", unknown.join(", --")));
    }
    let num = |key: &'static str| -> Result<Option<u64>, String> {
        opts.get(key)
            .map(|s| s.parse::<u64>().map_err(|_| format!("bad --{key} '{s}'")))
            .transpose()
    };
    let spool = opts.get("spool").map_or_else(
        || std::env::temp_dir().join(format!("xylem-serve-{}", std::process::id())),
        std::path::PathBuf::from,
    );

    // Drill child: the SIGKILL target the selftest spawns and kills.
    if opts.contains_key("drill-child") {
        let seed = num("seed")?.unwrap_or(0xCAFE);
        let pace = num("pace-ms")?.unwrap_or(0);
        return xylem_serve::selftest::run_drill_child(&spool, seed, pace)
            .map_err(|e| e.to_string());
    }

    // Interactive line protocol over stdin/stdout.
    if opts.contains_key("stdio") {
        let mut cfg = xylem_serve::ServerConfig::new(&spool);
        if let Some(w) = num("workers")? {
            cfg.workers = w as usize;
        }
        let (mut server, resume) = xylem_serve::Server::open(cfg).map_err(|e| e.to_string())?;
        if resume.resumed > 0 {
            eprintln!(
                "[resumed {} mid-flight session(s) from {}]",
                resume.resumed,
                spool.display()
            );
        }
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let served = xylem_serve::protocol::serve_lines(&mut server, stdin.lock(), stdout.lock());
        server.shutdown();
        return served.map_err(|e| e.to_string());
    }

    if !opts.contains_key("selftest") {
        return Err(
            "serve needs a mode: --selftest (chaos/load drill), --stdio (line \
             protocol), or --drill-child (internal)"
                .to_string(),
        );
    }

    // The chaos/load campaign.
    let mut cfg = xylem_serve::SelftestConfig::new(&spool);
    if let Some(n) = num("sessions")? {
        cfg.sessions = n as usize;
    }
    if let Some(n) = num("tenants")? {
        cfg.tenants = (n as usize).max(1);
    }
    if let Some(n) = num("workers")? {
        cfg.workers = n as usize;
    }
    if let Some(n) = num("seed")? {
        cfg.seed = n;
    }
    cfg.chaos = !opts.contains_key("no-chaos");
    cfg.kill_drill = opts.contains_key("kill-drill");
    cfg.bench_out = opts.get("bench-out").map(std::path::PathBuf::from);
    cfg.exe = std::env::current_exe().ok();
    if cfg.kill_drill && cfg.exe.is_none() {
        return Err("--kill-drill needs a resolvable current exe".to_string());
    }
    let report = xylem_serve::run_selftest(&cfg).map_err(|e| e.to_string())?;
    println!(
        "serve selftest: {} sessions over {} tenants (seed {:#x}, chaos {})",
        cfg.sessions,
        cfg.tenants,
        cfg.seed,
        if cfg.chaos { "on" } else { "off" }
    );
    println!(
        "  admitted {} (after {} transient rejections over {} attempts)",
        report.admitted, report.rejected, report.submitted
    );
    println!(
        "  completed {}, quarantined {}, verified bit-identical {}",
        report.completed, report.quarantined, report.verified
    );
    println!(
        "  contained: {} panics, {} deadline degradations, {} suspends, {} line sheds",
        report.panics_caught, report.degradations, report.suspends, report.sheds
    );
    println!(
        "  submit-to-first-frame p50 {:.2} ms, p99 {:.2} ms; session p50 {:.2} ms, \
         p99 {:.2} ms",
        report.p50_first_frame_ms,
        report.p99_first_frame_ms,
        report.p50_session_ms,
        report.p99_session_ms
    );
    let encode = xylem_obs::summarize(xylem_obs::Hist::CheckpointEncodeMs);
    let write = xylem_obs::summarize(xylem_obs::Hist::CheckpointWriteMs);
    println!(
        "  state checkpoints {}: encode mean {:.3} ms, write+fsync mean {:.3} ms",
        encode.count, encode.mean_ms, write.mean_ms
    );
    if cfg.kill_drill {
        println!(
            "  SIGKILL drill: {}",
            if report.kill_drill_passed {
                "resumed bit-identically, zero duplicate frames"
            } else {
                "FAILED"
            }
        );
    }
    if let Some(bench) = &cfg.bench_out {
        println!("  [serve row merged into {}]", bench.display());
    }
    Ok(())
}

fn report(opts: &HashMap<String, String>) -> Result<(), String> {
    let sys = system_of(opts)?;
    let app = app_of(opts)?;
    let f = freq_of(opts)?;
    // Direct solve (not the response cache) so every layer is sensed.
    let built = sys.built();
    let grid = GridSpec::new(32, 32);
    let model = built.stack().discretize(grid).map_err(|e| e.to_string())?;
    let metrics = sys.machine().run(app, f, 8);
    let map = sys
        .metrics_power_map(
            &model,
            &metrics,
            ThreadPlacement::all_eight().cores(),
            1.0,
            Celsius::new(90.0),
        )
        .map_err(|e| e.to_string())?;
    let temps = model.steady_state(&map).map_err(|e| e.to_string())?;
    let r = StackThermalReport::new(&model, &temps);
    println!("{} on {} @ {f:.1} GHz (32x32 grid)", app, sys.scheme());
    print!("{}", r.render());
    println!(
        "D2D share of the internal rise: {:.0}%",
        r.rise_share(|n| n.starts_with("d2d")) * 100.0
    );
    Ok(())
}

fn dtm(opts: &HashMap<String, String>) -> Result<(), String> {
    let sys = system_of(opts)?;
    let app = app_of(opts)?;
    let f = freq_of(opts)?;
    let duration: f64 = opts
        .get("duration")
        .map(|s| s.parse().map_err(|_| format!("bad --duration '{s}'")))
        .transpose()?
        .unwrap_or(2.0);
    let every: usize = opts
        .get("every")
        .map(|s| s.parse().map_err(|_| format!("bad --every '{s}'")))
        .transpose()?
        .unwrap_or(200);
    let resume = opts.contains_key("resume");
    let checkpoint = opts.get("checkpoint").map(std::path::PathBuf::from);
    if resume && checkpoint.is_none() {
        return Err("--resume needs --checkpoint PATH".to_string());
    }
    let mut policy = DtmPolicy::paper_default();
    if opts.contains_key("adaptive") {
        let mut a = AdaptiveOptions::default();
        if let Some(s) = opts.get("rtol") {
            a.rtol = s.parse().map_err(|_| format!("bad --rtol '{s}'"))?;
        }
        if let Some(s) = opts.get("budget-cg") {
            a.max_cg_iterations = Some(s.parse().map_err(|_| format!("bad --budget-cg '{s}'"))?);
        }
        if let Some(s) = opts.get("budget-wall-s") {
            a.max_wall_s = Some(
                s.parse()
                    .map_err(|_| format!("bad --budget-wall-s '{s}'"))?,
            );
        }
        if let Some(s) = opts.get("budget-rejects") {
            a.max_reject_streak = s
                .parse()
                .map_err(|_| format!("bad --budget-rejects '{s}'"))?;
        }
        policy = policy.with_adaptive(a);
    }
    let run = DtmRunConfig {
        checkpoint: checkpoint.map(|path| CheckpointConfig {
            path,
            every_steps: every,
            resume,
        }),
        deadline_ms: opts
            .get("deadline-ms")
            .map(|s| s.parse().map_err(|_| format!("bad --deadline-ms '{s}'")))
            .transpose()?,
        ..DtmRunConfig::new(policy)
    };
    let r = dtm_transient_configured(&sys, app, f, duration, &run, GridSpec::new(24, 24))
        .map_err(|e| e.to_string())?;
    println!(
        "{} on {}: requested {f:.1} GHz for {duration:.1} s",
        app,
        sys.scheme()
    );
    println!(
        "  effective frequency {:.2} GHz, final {:.1} GHz, {} throttle steps, \
         peak {:.1} C, {:.1}% of time above trip",
        r.mean_f_ghz(),
        r.final_f_ghz,
        r.throttle_events,
        r.peak_hotspot().get(),
        r.time_above_trip * 100.0
    );
    if r.failsafe_events > 0 || !r.recovery.is_empty() {
        println!(
            "  {} fail-safe periods; solver ladder: {} escalations, {} recovered",
            r.failsafe_events, r.recovery.attempts, r.recovery.recoveries
        );
    }
    if let Some(a) = &r.adaptive {
        println!(
            "  adaptive stepping: {} BE solves, {} accepted ({} forced), {} rejected, \
             {} held, final dt {:.2e} s{}",
            a.be_solves,
            a.accepted,
            a.forced,
            a.rejected,
            a.holds,
            a.final_dt_s,
            if a.economy {
                " [budget exhausted: economy mode]"
            } else {
                ""
            }
        );
    }
    // A coarse frequency-over-time strip.
    println!(
        "  f(t) [0=2.4GHz..9=3.5GHz]: {}",
        frequency_strip(&r.samples, 60)
    );
    Ok(())
}

fn schemes() {
    let g = DramDieGeometry::paper_default();
    println!(
        "{:10} {:>6} {:>10} {:>9}  description",
        "scheme", "TTSVs", "area mm2", "% die"
    );
    for s in XylemScheme::ALL {
        let a = AreaOverhead::for_scheme(s, &g, SAMSUNG_WIDE_IO_DIE_AREA);
        let desc = match s {
            XylemScheme::Base => "plain Wide I/O stack",
            XylemScheme::BankSurround => "TTSVs at bank vertices, aligned+shorted",
            XylemScheme::BankEnhanced => "bank + 8 co-designed TTSVs at the cores",
            XylemScheme::IsoCount => "banke minus the generic central row",
            XylemScheme::Prior => "banke placement, no alignment/shorting",
        };
        println!(
            "{:10} {:>6} {:>10.4} {:>8.2}%  {desc}",
            s.name(),
            a.ttsv_count,
            a.total_area * 1e6,
            a.percent()
        );
    }
}
