//! The Xylem benchmark: three closed-loop workloads driven from one
//! load-generator thread through the public functions of the workspace
//! crates.
//!
//! ```text
//! perfbench --workload <paper_sweep|dtm_closed_loop|serve_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics of [`trace::PER_LAYER`]. Lines before it print the
//! thread caps and every metric with its sample count. Run it from the
//! repository root: the serve workload reads `scenarios/valid/`.

mod dtm_loop;
mod harness;
mod paper_sweep;
mod serve_mixed;
mod trace;

use std::process::ExitCode;

use harness::{result_json, Args, BenchError, Outcome, Threads};
use trace::Ledger;

fn run(args: &Args, threads: Threads) -> Result<Outcome, BenchError> {
    let ledger = args.trace.then(Ledger::default);
    match args.workload.as_str() {
        "paper_sweep" => paper_sweep::run(args.seed, args.seconds, threads, ledger),
        "dtm_closed_loop" => dtm_loop::run(args.seed, args.seconds, ledger),
        "serve_mixed" => serve_mixed::run(args.seed, args.seconds, threads, ledger),
        other => Err(format!("unknown workload {other}").into()),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = Threads::configure();
    let result = run(&args, threads).and_then(|out| result_json(&out).map(|line| (out, line)));
    match result {
        Ok((out, line)) => {
            println!(
                "threads: nproc={} rayon={} serve_workers={} sweep_shards={} load_generator=1",
                threads.nproc, threads.rayon, threads.serve_workers, threads.sweep_shards
            );
            for note in &out.notes {
                println!("{note}");
            }
            for m in &out.metrics {
                match m.samples {
                    Some(n) => println!("{} = {} {} (n={n})", m.name, m.value, m.unit),
                    None => println!("{} = {} {}", m.name, m.value, m.unit),
                }
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
