//! The simulated machine: profiles + DRAM, end to end.
//!
//! [`Machine::run`] is the one performance path the experiments use: it
//! combines the interval model with a DRAM-latency-under-load fixed point
//! driven through the real `xylem-dram` channel model, and derives the
//! activity factors the power model consumes.
//!
//! A run depends only on its inputs: the benchmark's profile, the
//! frequency, the thread count and the fixed Table 3 machine (the channel
//! simulation is seeded). It does not depend on the stack, the scheme or
//! the temperature. So each distinct `(benchmark, f_ghz.to_bits(),
//! threads)` is simulated once per process and kept in a process-wide
//! memo that every [`Machine`] shares: a sweep over schemes, a headroom
//! search and a DTM's DVFS power maps ask for the same inputs again and
//! again, and get back the bits the first call computed.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use xylem_dram::channel::{MemoryRequest, RequestKind, WideIoStack};
use xylem_dram::timing::WideIoTiming;
use xylem_workloads::{Benchmark, WorkloadProfile};

use crate::config::ArchConfig;
use crate::interval::{cpi_breakdown, CpiBreakdown};

/// Everything the power/thermal chain needs to know about one application
/// run at one frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppMetrics {
    /// Core frequency, GHz.
    pub f_ghz: f64,
    /// Threads in the run.
    pub threads: usize,
    /// CPI decomposition.
    pub cpi: CpiBreakdown,
    /// Execution time of the run, s.
    pub exec_time_s: f64,
    /// Average loaded DRAM round trip (incl. on-die overhead), ns.
    pub dram_latency_ns: f64,
    /// Per-core dynamic activity factor, 0..=1.
    pub activity: f64,
    /// Memory intensity (for the power-fraction blend), 0..=1.
    pub memory_intensity: f64,
    /// LLC/L2-traffic activity factor, 0..=1.
    pub llc_activity: f64,
    /// Per-channel memory-controller utilization, 0..=1.
    pub mc_utilization: [f64; 4],
    /// Coherence-bus activity factor, 0..=1.
    pub noc_activity: f64,
    /// DRAM reads/s across the stack.
    pub dram_read_rate: f64,
    /// DRAM writes/s across the stack.
    pub dram_write_rate: f64,
    /// DRAM activates/s across the stack.
    pub dram_activate_rate: f64,
    /// Sustained DRAM bandwidth, GB/s.
    pub dram_bandwidth_gbps: f64,
}

/// A [`Machine::run`] input: benchmark, `f_ghz.to_bits()` and thread
/// count.
type RunKey = (Benchmark, u64, usize);

/// Every [`Machine::run`] result of this process, by input. It holds at
/// most one entry per distinct input: 17 benchmarks x 12 DVFS points x 8
/// thread counts for the paper's experiments. It counts no hits: whether a
/// call hits depends on what ran before it and on races between threads,
/// and every obs counter must be deterministic.
static RUNS: OnceLock<Mutex<HashMap<RunKey, AppMetrics>>> = OnceLock::new();

/// The simulated 8-core machine.
///
/// [`Machine::paper_default`] is the only constructor, so every machine in
/// a process has the same configuration and the run memo is keyed by the
/// run's inputs alone. A second constructor must add its configuration to
/// the memo's `RunKey`.
#[derive(Debug, Clone)]
pub struct Machine {
    arch: ArchConfig,
    timing: WideIoTiming,
}

impl Machine {
    /// The paper's machine (Table 3).
    pub fn paper_default() -> Self {
        Machine {
            arch: ArchConfig::paper_default(),
            timing: WideIoTiming::paper_default(),
        }
    }

    /// The architecture parameters.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Runs `benchmark` with `threads` threads at `f_ghz`; returns the
    /// full metrics bundle.
    ///
    /// The first call for an input simulates it; later calls in the same
    /// process return the stored result, bit for bit the same.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds the core count.
    pub fn run(&self, benchmark: Benchmark, f_ghz: f64, threads: usize) -> AppMetrics {
        assert!(
            threads >= 1 && threads <= self.arch.cores,
            "threads {threads} out of range"
        );
        let key = (benchmark, f_ghz.to_bits(), threads);
        let memo = RUNS.get_or_init(Mutex::default);
        // The map only ever holds complete entries, so a lock poisoned by
        // a panicking holder is still sound to read.
        let cached = memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied();
        if let Some(metrics) = cached {
            return metrics;
        }
        // Simulate outside the lock. Two threads may both miss one key;
        // they compute the same bits, so whichever inserts first wins
        // without changing any output.
        let profile = benchmark.profile();
        let lat = self.dram_latency_under_load(&profile, f_ghz, threads);
        let metrics = self.metrics_for_latency(&profile, f_ghz, threads, lat);
        *memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(metrics)
    }

    fn metrics_for_latency(
        &self,
        profile: &WorkloadProfile,
        f_ghz: f64,
        threads: usize,
        dram_latency_ns: f64,
    ) -> AppMetrics {
        let cpi = cpi_breakdown(&self.arch, profile, f_ghz, dram_latency_ns);
        let total_cpi = cpi.total();
        let exec_time_s = profile.instructions as f64 * total_cpi / (f_ghz * 1e9);

        let instr_rate_per_core = f_ghz * 1e9 / total_cpi;
        let dram_access_rate = threads as f64 * instr_rate_per_core * profile.dram_apki() / 1000.0;
        let read_rate = dram_access_rate * profile.read_fraction;
        let write_rate = dram_access_rate * (1.0 - profile.read_fraction);
        let activate_rate = dram_access_rate * (1.0 - profile.row_hit_fraction);
        let bandwidth_gbps = dram_access_rate * 64.0 / 1e9;

        // Activity: issue utilization shrinks as memory stalls grow.
        let activity = profile.activity_peak * (cpi.core() / total_cpi);

        // LLC activity from L2 accesses per cycle; MCs from channel
        // bandwidth; NoC from bus transactions.
        let l2_apc = profile.l1d_mpki / 1000.0 / total_cpi;
        let llc_activity = (l2_apc / 0.04).min(1.0);
        let per_channel_gbps = bandwidth_gbps / 4.0;
        let mc_util = (per_channel_gbps / 12.8).min(1.0);
        let bus_rate = threads as f64 * instr_rate_per_core * profile.l2_mpki / 1000.0;
        let noc_activity = (bus_rate / 400e6).min(1.0);

        AppMetrics {
            f_ghz,
            threads,
            cpi,
            exec_time_s,
            dram_latency_ns,
            activity,
            memory_intensity: profile.memory_intensity,
            llc_activity,
            mc_utilization: [mc_util; 4],
            noc_activity,
            dram_read_rate: read_rate,
            dram_write_rate: write_rate,
            dram_activate_rate: activate_rate,
            dram_bandwidth_gbps: bandwidth_gbps,
        }
    }

    /// Average DRAM round trip under the application's own load, ns
    /// (including on-die overhead): a fixed point between the interval
    /// model's access rate and the channel model's loaded latency.
    pub fn dram_latency_under_load(
        &self,
        profile: &WorkloadProfile,
        f_ghz: f64,
        threads: usize,
    ) -> f64 {
        let idle = self.timing.closed_latency() + self.arch.dram_overhead_ns;
        let mut lat = idle;
        for round in 0..3 {
            let cpi = cpi_breakdown(&self.arch, profile, f_ghz, lat);
            let rate = threads as f64 * (f_ghz * 1e9 / cpi.total()) * profile.dram_apki() / 1000.0;
            if rate <= 0.0 {
                return idle;
            }
            lat = self.simulate_channel_latency(profile, rate, 64 + round)
                + self.arch.dram_overhead_ns;
        }
        lat
    }

    /// Drives the Wide I/O channel model with a synthetic arrival process
    /// at `rate` accesses/s and returns the mean device latency, ns.
    fn simulate_channel_latency(&self, profile: &WorkloadProfile, rate: f64, seed: u64) -> f64 {
        const REQUESTS: usize = 4000;
        let mut stack = WideIoStack::new(self.timing);
        let mut rng = StdRng::seed_from_u64(seed);
        let mean_gap_ns = 1e9 / rate;
        let mut now = 0.0_f64;
        // Track a current row per bank to honor the row-hit fraction.
        let mut rows = [[0u64; 16]; 4];
        for _ in 0..REQUESTS {
            // Exponential interarrival.
            let u: f64 = rng.gen_range(1e-9..1.0);
            now += -mean_gap_ns * u.ln();
            let ch = rng.gen_range(0..4usize);
            let bank16 = rng.gen_range(0..16usize);
            if !rng.gen_bool(profile.row_hit_fraction) {
                rows[ch][bank16] = rng.gen_range(0..4096);
            }
            let row = rows[ch][bank16];
            let addr = (row << 12)
                | ((bank16 as u64 & 0x3) << 10)
                | (((bank16 as u64) >> 2) << 8)
                | ((ch as u64) << 6);
            let kind = if rng.gen_bool(profile.read_fraction) {
                RequestKind::Read
            } else {
                RequestKind::Write
            };
            stack.access(MemoryRequest {
                addr,
                kind,
                issue_ns: now,
            });
        }
        stack.total_stats().mean_latency_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_consistent_metrics() {
        let m = Machine::paper_default();
        let a = m.run(Benchmark::Fft, 2.4, 8);
        assert!(a.exec_time_s > 0.0);
        assert!(a.activity > 0.0 && a.activity <= 1.0);
        assert!(a.dram_latency_ns >= 40.0, "{}", a.dram_latency_ns);
        assert!(a.dram_bandwidth_gbps < 51.2, "{}", a.dram_bandwidth_gbps);
    }

    #[test]
    fn memory_bound_apps_have_higher_latency_and_lower_activity() {
        let m = Machine::paper_default();
        let is = m.run(Benchmark::Is, 2.4, 8);
        let lu = m.run(Benchmark::LuNas, 2.4, 8);
        assert!(is.activity < lu.activity);
        assert!(is.dram_bandwidth_gbps > lu.dram_bandwidth_gbps);
        assert!(is.dram_latency_ns >= lu.dram_latency_ns - 2.0);
    }

    #[test]
    fn frequency_boost_shrinks_time_sublinearly_for_memory_bound() {
        let m = Machine::paper_default();
        let t24 = m.run(Benchmark::Ft, 2.4, 8).exec_time_s;
        let t35 = m.run(Benchmark::Ft, 3.5, 8).exec_time_s;
        let speedup = t24 / t35;
        assert!(speedup > 1.0 && speedup < 1.25, "{speedup}");
        let c24 = m.run(Benchmark::LuNas, 2.4, 8).exec_time_s;
        let c35 = m.run(Benchmark::LuNas, 3.5, 8).exec_time_s;
        assert!(c24 / c35 > 1.35, "{}", c24 / c35);
    }

    #[test]
    fn loaded_latency_reasonable_for_all_benchmarks() {
        let m = Machine::paper_default();
        for b in Benchmark::ALL {
            // Row hits pull the mean below the idle closed-row latency;
            // queuing pushes it above. Both are bounded.
            let lat = m.dram_latency_under_load(&b.profile(), 2.4, 8);
            assert!((20.0..200.0).contains(&lat), "{b}: {lat} ns");
        }
    }

    /// Every `f64` of `m`, the CPI breakdown included, as bits. The
    /// destructuring is exhaustive, so a new field fails to compile here.
    fn metric_bits(m: &AppMetrics) -> Vec<u64> {
        let AppMetrics {
            f_ghz,
            threads,
            cpi,
            exec_time_s,
            dram_latency_ns,
            activity,
            memory_intensity,
            llc_activity,
            mc_utilization,
            noc_activity,
            dram_read_rate,
            dram_write_rate,
            dram_activate_rate,
            dram_bandwidth_gbps,
        } = *m;
        let CpiBreakdown {
            base,
            l1i_stall,
            l2_access,
            coherence,
            dram,
        } = cpi;
        let mut bits = vec![threads as u64];
        bits.extend(
            [
                f_ghz,
                base,
                l1i_stall,
                l2_access,
                coherence,
                dram,
                exec_time_s,
                dram_latency_ns,
                activity,
                memory_intensity,
                llc_activity,
                noc_activity,
                dram_read_rate,
                dram_write_rate,
                dram_activate_rate,
                dram_bandwidth_gbps,
            ]
            .into_iter()
            .chain(mc_utilization)
            .map(f64::to_bits),
        );
        bits
    }

    #[test]
    fn memo_hits_are_bit_identical_to_uncached_runs() {
        let m = Machine::paper_default();
        let keys: Vec<(Benchmark, f64, usize)> = Benchmark::ALL
            .into_iter()
            .flat_map(|b| [2.4, 3.5].map(|f| (b, f)))
            .flat_map(|(b, f)| [1, 2, 8].map(|t| (b, f, t)))
            .collect();
        let uncached: Vec<Vec<u64>> = keys
            .iter()
            .map(|&(b, f, t)| {
                let profile = b.profile();
                let lat = m.dram_latency_under_load(&profile, f, t);
                metric_bits(&m.metrics_for_latency(&profile, f, t, lat))
            })
            .collect();
        // The second call per key reads the memo whatever the first did.
        for _ in 0..2 {
            for (&(b, f, t), want) in keys.iter().zip(&uncached) {
                assert_eq!(&metric_bits(&m.run(b, f, t)), want, "{b} {f} GHz {t}T");
            }
        }
        // Concurrent callers, each walking the keys in its own order.
        let n = keys.len();
        std::thread::scope(|s| {
            for worker in 0..4 {
                let (m, keys, uncached) = (&m, &keys, &uncached);
                s.spawn(move || {
                    for k in 0..n {
                        let i = match worker {
                            0 => k,
                            1 => n - 1 - k,
                            2 => (k + n / 2) % n,
                            _ => (k * 5) % n,
                        };
                        let (b, f, t) = keys[i];
                        assert_eq!(
                            metric_bits(&m.run(b, f, t)),
                            uncached[i],
                            "{b} {f} GHz {t}T"
                        );
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "threads")]
    fn too_many_threads_panics() {
        let m = Machine::paper_default();
        let _ = m.run(Benchmark::Fft, 2.4, 9);
    }
}
