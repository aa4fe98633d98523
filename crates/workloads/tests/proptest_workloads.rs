//! Property-based tests for profiles and trace generation.

use proptest::prelude::*;

use xylem_workloads::{Benchmark, TraceGenerator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Traces are deterministic in (benchmark, thread, seed) and differ
    /// across seeds.
    #[test]
    fn determinism(seed in any::<u64>(), thread in 0usize..8) {
        let p = Benchmark::Fft.profile();
        let (mut ga, mut gb) = (TraceGenerator::new(p, thread, seed), TraceGenerator::new(p, thread, seed));
        let a: Vec<_> = (0..500).map(|_| ga.next_event()).collect();
        let b: Vec<_> = (0..500).map(|_| gb.next_event()).collect();
        prop_assert_eq!(a, b);
    }

    /// Every generated data address is 64-byte aligned and PCs are
    /// 4-byte aligned within the code footprint.
    #[test]
    fn alignment_and_bounds(seed in any::<u64>()) {
        for b in [Benchmark::LuNas, Benchmark::Is, Benchmark::Barnes] {
            let mut g = TraceGenerator::new(b.profile(), 0, seed);
            for _ in 0..2000 {
                let e = g.next_event();
                prop_assert_eq!(e.pc % 4, 0);
                if let Some((addr, _)) = e.access {
                    prop_assert_eq!(addr % 64, 0, "{}", addr);
                }
            }
        }
    }

    /// Profiles imply a consistent cache hierarchy for every benchmark:
    /// dram accesses never exceed L2 misses, which never exceed L1D
    /// misses.
    #[test]
    fn profile_hierarchy_consistency(_x in 0..1) {
        for b in Benchmark::ALL {
            let p = b.profile();
            prop_assert!(p.dram_apki() <= p.l2_mpki + 1e-12);
            prop_assert!(p.l2_mpki <= p.l1d_mpki);
            p.validate().unwrap();
        }
    }
}
