//! Fault-injection drill: run the DTM loop through sensor faults and a
//! crippled solver, and watch the runtime absorb all of it.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```
//!
//! Three runs of the same hot workload (LU(NAS) at 3.5 GHz on the plain
//! Wide I/O stack, where throttling genuinely engages):
//!
//! 1. a healthy 4x4 sensor array — the baseline;
//! 2. the same array with a stuck-high sensor, a transient dropout of
//!    the whole array, and a spiking sensor — the plausibility filter
//!    and the fail-safe handle each in turn;
//! 3. a healthy array with the CG iteration cap starved to 2, so every
//!    control step climbs the preconditioner fallback ladder.

use xylem::dtm::{dtm_transient_configured, DtmPolicy, DtmResult, DtmRunConfig};
use xylem::sensor::{FaultKind, SensorFault, SensorModel, SensorSite};
use xylem::system::{SystemConfig, XylemSystem};
use xylem_stack::XylemScheme;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::SolverOptions;
use xylem_workloads::Benchmark;

fn describe(tag: &str, r: &DtmResult) {
    println!(
        "{tag:20} effective {:.2} GHz, peak {:.1} C, {:4.1}% above trip, \
         {} throttles, {} fail-safes, ladder {}/{}",
        r.mean_f_ghz(),
        r.peak_hotspot().get(),
        r.time_above_trip * 100.0,
        r.throttle_events,
        r.failsafe_events,
        r.recovery.recoveries,
        r.recovery.attempts,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = XylemSystem::new(SystemConfig::fast(XylemScheme::Base))?;
    let app = Benchmark::LuNas;
    let (freq, duration) = (3.5, 2.0);
    let grid = GridSpec::new(12, 12);
    let policy = DtmPolicy {
        control_period_s: 20e-3,
        ..DtmPolicy::paper_default()
    };
    let steps = (duration / policy.control_period_s).round() as usize;
    // A 4x4 array: denser than the realistic 2x2 default so the sensed
    // maximum tracks the true hotspot within a degree or two.
    let sensors = SensorModel {
        sites: (0..4)
            .flat_map(|qx| {
                (0..4).map(move |qy| SensorSite {
                    ix: qx * 3 + 1,
                    iy: qy * 3 + 1,
                })
            })
            .collect(),
        ..SensorModel::default_array(12, 12, 7)
    };

    // 1. Healthy sensors.
    let healthy = DtmRunConfig {
        sensors: Some(sensors.clone()),
        ..DtmRunConfig::new(policy)
    };
    let baseline = dtm_transient_configured(&sys, app, freq, duration, &healthy, grid)?;
    describe("healthy sensors:", &baseline);

    // 2. Faulted sensors: one stuck high (discarded as implausible), a
    //    mid-run blackout of the whole array (fail-safe throttle to the
    //    DVFS floor), and one spiking sensor (over-reports, which only
    //    over-throttles — the safe direction).
    let blackout_from = steps / 2;
    let mut faults = vec![SensorFault {
        sensor: 0,
        kind: FaultKind::StuckAt,
        from_step: 0,
        to_step: steps,
        value_c: 400.0,
    }];
    faults.extend((0..sensors.sites.len()).map(|sensor| SensorFault {
        sensor,
        kind: FaultKind::Dropout,
        from_step: blackout_from,
        to_step: blackout_from + 5,
        value_c: 0.0,
    }));
    faults.push(SensorFault {
        sensor: 3,
        kind: FaultKind::Spike,
        from_step: 3 * steps / 4,
        to_step: steps,
        value_c: 8.0,
    });
    let faulted = DtmRunConfig {
        sensors: Some(sensors.clone()),
        faults,
        ..DtmRunConfig::new(policy)
    };
    let under_faults = dtm_transient_configured(&sys, app, freq, duration, &faulted, grid)?;
    describe("faulted sensors:", &under_faults);

    // 3. Crippled solver: cap CG at 2 iterations so the configured GMG
    //    attempt fails every step and the Jacobi retry recovers it.
    let starved = DtmRunConfig {
        sensors: Some(sensors),
        solver: Some(SolverOptions {
            max_iterations: 2,
            ..SolverOptions::default()
        }),
        ..DtmRunConfig::new(policy)
    };
    let recovered = dtm_transient_configured(&sys, app, freq, duration, &starved, grid)?;
    describe("starved solver:", &recovered);

    assert!(under_faults.failsafe_events >= 5, "blackout must fail-safe");
    assert!(
        recovered.recovery.recoveries >= steps,
        "every step must recover through the ladder"
    );
    println!("\nall three runs completed; the controller never saw a non-finite temperature.");
    Ok(())
}
