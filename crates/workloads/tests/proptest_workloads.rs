//! Property-based tests for profiles.

use proptest::prelude::*;

use xylem_workloads::Benchmark;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
