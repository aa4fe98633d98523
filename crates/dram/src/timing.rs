//! Wide I/O device timing and temperature-dependent refresh.
//!
//! Timing values follow the Wide I/O SDR standard (JESD229) scaled to the
//! paper's 800 MHz I/O clock with DDR signaling (51.2 GB/s across 4
//! channels, Sec. 6.2). All times are kept in nanoseconds; convert to core
//! cycles at the consumer.

use serde::{Deserialize, Serialize};

/// Device timing parameters, ns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WideIoTiming {
    /// I/O clock period, ns (800 MHz -> 1.25 ns).
    pub t_ck: f64,
    /// ACT to internal read/write delay (tRCD), ns.
    pub t_rcd: f64,
    /// Precharge time (tRP), ns.
    pub t_rp: f64,
    /// CAS latency (tCL), ns.
    pub t_cl: f64,
    /// ACT to PRE minimum (tRAS), ns.
    pub t_ras: f64,
    /// Write recovery (tWR), ns.
    pub t_wr: f64,
    /// Burst duration on the data bus, ns (BL4 DDR at 800 MHz: 2.5 ns for
    /// a 64-byte line over a 128-bit channel).
    pub t_burst: f64,
    /// Refresh cycle time (tRFC), ns.
    pub t_rfc: f64,
    /// ACT-to-ACT same rank different bank (tRRD), ns.
    pub t_rrd: f64,
}

impl WideIoTiming {
    /// The paper's configuration: Wide I/O organization at a Wide I/O 2
    /// data rate (51.2 GB/s).
    pub fn paper_default() -> Self {
        WideIoTiming {
            t_ck: 1.25,
            t_rcd: 18.0,
            t_rp: 18.0,
            t_cl: 18.0,
            t_ras: 42.0,
            t_wr: 15.0,
            t_burst: 2.5,
            t_rfc: 210.0,
            t_rrd: 10.0,
        }
    }

    /// Row-buffer-hit read latency (CAS + burst), ns.
    pub fn hit_latency(&self) -> f64 {
        self.t_cl + self.t_burst
    }

    /// Row-buffer-miss (closed row) latency: ACT + CAS + burst, ns.
    pub fn closed_latency(&self) -> f64 {
        self.t_rcd + self.hit_latency()
    }
}

/// Refresh interval (whole-device, ms) at the given DRAM temperature:
/// 64 ms at or below 85 deg C, halved for every 10 deg C above (JEDEC
/// extended temperature range, paper Sec. 7.5). Clamped below at 1 ms.
pub fn refresh_interval_ms(temp_c: f64) -> f64 {
    let base = 64.0;
    if temp_c <= 85.0 {
        return base;
    }
    let halvings = ((temp_c - 85.0) / 10.0).ceil();
    (base / 2f64.powf(halvings)).max(1.0)
}

/// Fraction of time a device is unavailable due to refresh at `temp_c`:
/// `n_rows_refresh_commands * tRFC / tREFW`. With 8K refresh commands per
/// window (JEDEC), this is the refresh overhead the controller sees.
pub fn refresh_overhead(timing: &WideIoTiming, temp_c: f64) -> f64 {
    const REFRESH_COMMANDS_PER_WINDOW: f64 = 8192.0;
    let t_refw_ns = refresh_interval_ms(temp_c) * 1e6;
    (REFRESH_COMMANDS_PER_WINDOW * timing.t_rfc / t_refw_ns).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering() {
        let t = WideIoTiming::paper_default();
        assert!(t.hit_latency() < t.closed_latency());
        assert!(
            t.t_rp > 0.0,
            "a conflict costs a precharge on top of a closed-row access"
        );
        // Idle closed-row access ~ 100 core cycles at 2.4 GHz (paper
        // Table 3: ~100 cycles round trip): 38.5 ns -> 92 cycles + on-die
        // interconnect.
        let cycles = t.closed_latency() * 2.4;
        assert!((80.0..110.0).contains(&cycles), "{cycles}");
    }

    #[test]
    fn refresh_halves_every_10c() {
        assert_eq!(refresh_interval_ms(25.0), 64.0);
        assert_eq!(refresh_interval_ms(85.0), 64.0);
        assert_eq!(refresh_interval_ms(86.0), 32.0);
        assert_eq!(refresh_interval_ms(95.0), 32.0);
        assert_eq!(refresh_interval_ms(96.0), 16.0);
        assert_eq!(refresh_interval_ms(105.0), 16.0);
    }

    #[test]
    fn refresh_overhead_grows_with_temperature() {
        let t = WideIoTiming::paper_default();
        let cool = refresh_overhead(&t, 80.0);
        let warm = refresh_overhead(&t, 90.0);
        let hot = refresh_overhead(&t, 100.0);
        assert!(cool < warm && warm < hot);
        // At 85 C: 8192 * 210 ns / 64 ms = 2.7%.
        assert!((cool - 0.0269).abs() < 0.001, "{cool}");
        assert!(hot < 0.2);
    }
}
