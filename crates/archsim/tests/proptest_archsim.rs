//! Property-based tests on the interval model.

use proptest::prelude::*;

use xylem_archsim::config::ArchConfig;
use xylem_archsim::interval::{cpi_breakdown, exec_time_s};
use xylem_workloads::Benchmark;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CPI is monotone in DRAM latency and in every MPKI input; execution
    /// time decreases with frequency.
    #[test]
    fn interval_model_monotonicities(
        f1 in 2.4f64..3.5,
        lat in 30.0f64..120.0,
        extra in 1.0f64..50.0,
    ) {
        let arch = ArchConfig::paper_default();
        for b in [Benchmark::LuNas, Benchmark::Fft, Benchmark::Is] {
            let p = b.profile();
            let c1 = cpi_breakdown(&arch, &p, f1, lat);
            let c2 = cpi_breakdown(&arch, &p, f1, lat + extra);
            prop_assert!(c2.total() >= c1.total());
            let t1 = exec_time_s(&arch, &p, f1, lat);
            let t2 = exec_time_s(&arch, &p, (f1 + 0.1).min(3.5), lat);
            prop_assert!(t2 <= t1 + 1e-15);
        }
    }
}
