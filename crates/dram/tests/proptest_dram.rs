//! Property-based tests for the Wide I/O channel model.

use proptest::prelude::*;

use xylem_dram::channel::{MemoryRequest, RequestKind, WideIoStack};
use xylem_dram::timing::{refresh_interval_ms, refresh_overhead, WideIoTiming};

fn request(addr: u64, write: bool, issue_ns: f64) -> MemoryRequest {
    MemoryRequest {
        addr,
        kind: if write {
            RequestKind::Write
        } else {
            RequestKind::Read
        },
        issue_ns,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every access completes no earlier than issue + the row-hit service
    /// time, and no access completes before its issue time.
    #[test]
    fn completion_bounds(
        ops in proptest::collection::vec((any::<u32>(), any::<bool>(), 0.0f64..1000.0), 1..60)
    ) {
        let t = WideIoTiming::paper_default();
        let mut stack = WideIoStack::new(t);
        for (addr, write, dt) in ops {
            let issue = dt;
            let (done, _) = stack.access(request(u64::from(addr) * 64, write, issue));
            prop_assert!(done >= issue + t.hit_latency() - 1e-9,
                "done {done} < issue {issue} + hit {}", t.hit_latency());
        }
    }

    /// Statistics add up: hits + closed misses + conflicts == total
    /// requests, and every non-hit issued an ACT.
    #[test]
    fn stats_are_consistent(
        ops in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..100)
    ) {
        let mut stack = WideIoStack::paper_default();
        let mut now = 0.0;
        for (addr, write) in ops {
            let (done, _) = stack.access(request(u64::from(addr) * 64, write, now));
            now = done;
        }
        let s = stack.total_stats();
        let total = s.reads + s.writes;
        prop_assert_eq!(s.row_hits + s.closed_misses + s.conflicts, total);
        prop_assert_eq!(s.activates, s.closed_misses + s.conflicts);
        prop_assert!(s.mean_latency_ns() > 0.0);
    }

    /// The data bus never overlaps bursts: total bus-busy time fits in
    /// the span of the simulation.
    #[test]
    fn bus_time_bounded_by_makespan(
        n in 1usize..200
    ) {
        let t = WideIoTiming::paper_default();
        let mut stack = WideIoStack::new(t);
        let mut last = 0.0f64;
        for i in 0..n {
            // Same channel (bits 6-7 zero), alternating banks.
            let addr = ((i as u64 % 4) << 10) | ((i as u64 / 4) << 12);
            let (done, _) = stack.access(request(addr, false, 0.0));
            last = last.max(done);
        }
        // Every request went to channel 0, so the stack total is its busy time.
        let busy = stack.total_stats().bus_busy_ns;
        prop_assert!(busy <= last + 1e-9, "busy {busy} > makespan {last}");
    }

    /// Refresh interval is monotone non-increasing in temperature and
    /// refresh overhead monotone non-decreasing.
    #[test]
    fn refresh_monotone(t1 in 20.0f64..120.0, t2 in 20.0f64..120.0) {
        let (lo, hi) = if t1 < t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(refresh_interval_ms(lo) >= refresh_interval_ms(hi));
        let timing = WideIoTiming::paper_default();
        prop_assert!(refresh_overhead(&timing, lo) <= refresh_overhead(&timing, hi));
    }

    /// Serving the same request sequence twice gives identical timing
    /// (the model is deterministic).
    #[test]
    fn deterministic(
        ops in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..50)
    ) {
        let run = || {
            let mut stack = WideIoStack::paper_default();
            let mut out = Vec::new();
            let mut now = 0.0;
            for &(addr, write) in &ops {
                let (done, _) = stack.access(request(u64::from(addr) * 64, write, now));
                out.push(done);
                now = done;
            }
            out
        };
        prop_assert_eq!(run(), run());
    }
}
