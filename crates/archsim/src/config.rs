//! The paper's architecture parameters (Table 3).

use serde::{Deserialize, Serialize};

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Capacity, bytes.
    pub size: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size, bytes.
    pub line: usize,
    /// Round-trip latency, core cycles.
    pub round_trip_cycles: u32,
}

/// The Table 3 machine: eight 4-issue out-of-order cores at 2.4-3.5 GHz,
/// private L1s and L2s, bus-based snoopy MESI, 4 Wide I/O DRAM channels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchConfig {
    /// Number of cores.
    pub cores: usize,
    /// Issue width.
    pub issue_width: usize,
    /// L1 instruction cache.
    pub l1i: CacheGeometry,
    /// L1 data cache (write-through per Table 3).
    pub l1d: CacheGeometry,
    /// Private unified L2 (write-back).
    pub l2: CacheGeometry,
    /// Coherence-bus width, bits.
    pub bus_width_bits: usize,
    /// Cache-to-cache transfer round trip, core cycles.
    pub c2c_cycles: u32,
    /// On-die interconnect + controller overhead added to a DRAM access,
    /// ns (brings the idle round trip to Table 3's ~100 cycles at
    /// 2.4 GHz).
    pub dram_overhead_ns: f64,
    /// Maximum processor junction temperature, deg C.
    pub t_j_max: f64,
    /// Maximum DRAM temperature, deg C (JEDEC extended range).
    pub t_dram_max: f64,
}

impl ArchConfig {
    /// The paper's configuration.
    pub fn paper_default() -> Self {
        ArchConfig {
            cores: 8,
            issue_width: 4,
            l1i: CacheGeometry {
                size: 32 * 1024,
                ways: 2,
                line: 64,
                round_trip_cycles: 2,
            },
            l1d: CacheGeometry {
                size: 32 * 1024,
                ways: 2,
                line: 64,
                round_trip_cycles: 2,
            },
            l2: CacheGeometry {
                size: 256 * 1024,
                ways: 8,
                line: 64,
                round_trip_cycles: 10,
            },
            bus_width_bits: 512,
            c2c_cycles: 40,
            dram_overhead_ns: 4.0,
            t_j_max: 100.0,
            t_dram_max: 95.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xylem_dram::WideIoTiming;

    #[test]
    fn table3_values() {
        let c = ArchConfig::paper_default();
        assert_eq!(c.cores, 8);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.l1d.size, 32 * 1024);
        assert_eq!(c.l1d.ways, 2);
        assert_eq!(c.l1d.round_trip_cycles, 2);
        assert_eq!(c.l2.size, 256 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l2.round_trip_cycles, 10);
        assert_eq!(c.bus_width_bits, 512);
        assert_eq!(c.t_j_max, 100.0);
        assert_eq!(c.t_dram_max, 95.0);
    }

    #[test]
    fn idle_dram_round_trip_near_100_cycles() {
        let c = ArchConfig::paper_default();
        let t = WideIoTiming::paper_default();
        let rt_ns = t.closed_latency() + c.dram_overhead_ns;
        let cycles = rt_ns * 2.4;
        assert!((95.0..110.0).contains(&cycles), "{cycles}");
    }
}
