//! Channel model: bank state machines and an open-page FCFS controller.
//!
//! A Wide I/O channel owns 4 ranks (one per stacked slice) of 4 banks. The
//! controller keeps rows open (open-page policy), schedules requests FCFS,
//! and respects tRCD/tRP/tRAS/tWR plus data-bus occupancy. The model is
//! event-based on a nanosecond timeline: each [`Channel::access`] returns
//! the request's completion time.

use serde::{Deserialize, Serialize};

use crate::timing::WideIoTiming;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestKind {
    /// A 64-byte read.
    Read,
    /// A 64-byte write.
    Write,
}

/// One memory request on the stack's physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryRequest {
    /// Physical address (64-byte aligned access assumed).
    pub addr: u64,
    /// Read or write.
    pub kind: RequestKind,
    /// Arrival time at the controller, ns.
    pub issue_ns: f64,
}

/// Physical address decomposition for the Wide I/O stack:
/// `| row | bank(2) | rank(2) | channel(2) | offset(6) |`
/// — cache-line interleaving across channels, then ranks, then banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodedAddress {
    /// Channel, 0..4.
    pub channel: usize,
    /// Rank (slice), 0..4.
    pub rank: usize,
    /// Bank within the rank, 0..4.
    pub bank: usize,
    /// Row.
    pub row: u64,
}

impl DecodedAddress {
    /// Decodes a physical address.
    pub fn decode(addr: u64) -> Self {
        DecodedAddress {
            channel: ((addr >> 6) & 0x3) as usize,
            rank: ((addr >> 8) & 0x3) as usize,
            bank: ((addr >> 10) & 0x3) as usize,
            row: addr >> 12,
        }
    }
}

/// Row-buffer outcome of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowBufferOutcome {
    /// The requested row was already open.
    Hit,
    /// The bank was idle (no open row).
    ClosedMiss,
    /// Another row was open and had to be precharged.
    Conflict,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Bank unavailable until (command-wise), ns.
    ready_at: f64,
    /// Time of the last ACT (for tRAS), ns.
    last_activate: f64,
}

/// Aggregate channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Closed-bank misses.
    pub closed_misses: u64,
    /// Row conflicts.
    pub conflicts: u64,
    /// ACT commands issued.
    pub activates: u64,
    /// Total data-bus busy time, ns.
    pub bus_busy_ns: f64,
    /// Sum of request latencies, ns.
    pub total_latency_ns: f64,
}

impl ChannelStats {
    /// Mean request latency, ns (0 if no requests).
    pub fn mean_latency_ns(&self) -> f64 {
        let n = self.reads + self.writes;
        if n == 0 {
            0.0
        } else {
            self.total_latency_ns / n as f64
        }
    }
}

/// One Wide I/O channel: 4 ranks x 4 banks behind a shared data bus.
#[derive(Debug, Clone)]
pub struct Channel {
    timing: WideIoTiming,
    banks: Vec<Bank>, // 16 = rank * 4 + bank
    bus_free_at: f64,
    stats: ChannelStats,
}

impl Channel {
    /// Creates an idle channel.
    pub fn new(timing: WideIoTiming) -> Self {
        Channel {
            timing,
            banks: vec![Bank::default(); 16],
            bus_free_at: 0.0,
            stats: ChannelStats::default(),
        }
    }

    /// Serves one request (FCFS, open-page); returns
    /// `(completion time ns, row-buffer outcome)`.
    pub fn access(
        &mut self,
        rank: usize,
        bank: usize,
        row: u64,
        req: &MemoryRequest,
    ) -> (f64, RowBufferOutcome) {
        assert!(
            rank < 4 && bank < 4,
            "rank {rank} / bank {bank} out of range"
        );
        let t = self.timing;
        let b = &mut self.banks[rank * 4 + bank];
        let start = req.issue_ns.max(b.ready_at);

        let (outcome, cas_start) = match b.open_row {
            Some(r) if r == row => (RowBufferOutcome::Hit, start),
            Some(_) => {
                // Precharge (respecting tRAS since the last ACT), then ACT.
                let pre_at = start.max(b.last_activate + t.t_ras);
                let act_at = pre_at + t.t_rp;
                b.last_activate = act_at;
                self.stats.activates += 1;
                (RowBufferOutcome::Conflict, act_at + t.t_rcd)
            }
            None => {
                b.last_activate = start;
                self.stats.activates += 1;
                (RowBufferOutcome::ClosedMiss, start + t.t_rcd)
            }
        };
        b.open_row = Some(row);

        // CAS, then the burst occupies the shared data bus.
        let data_ready = cas_start + t.t_cl;
        let burst_start = data_ready.max(self.bus_free_at);
        let completion = burst_start + t.t_burst;
        self.bus_free_at = completion;
        self.stats.bus_busy_ns += t.t_burst;

        // Bank can accept the next CAS one burst slot later (tCCD);
        // writes additionally pay the write-recovery time before the bank
        // may be precharged or re-CASed.
        b.ready_at = match req.kind {
            RequestKind::Read => cas_start + t.t_burst,
            RequestKind::Write => completion + t.t_wr,
        };

        match req.kind {
            RequestKind::Read => self.stats.reads += 1,
            RequestKind::Write => self.stats.writes += 1,
        }
        match outcome {
            RowBufferOutcome::Hit => self.stats.row_hits += 1,
            RowBufferOutcome::ClosedMiss => self.stats.closed_misses += 1,
            RowBufferOutcome::Conflict => self.stats.conflicts += 1,
        }
        self.stats.total_latency_ns += completion - req.issue_ns;
        (completion, outcome)
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }
}

/// The full 4-channel Wide I/O stack.
#[derive(Debug, Clone)]
pub struct WideIoStack {
    channels: Vec<Channel>,
}

impl WideIoStack {
    /// Creates an idle stack with the given per-channel timing.
    pub fn new(timing: WideIoTiming) -> Self {
        WideIoStack {
            channels: (0..4).map(|_| Channel::new(timing)).collect(),
        }
    }

    /// A stack with the paper's timing.
    pub fn paper_default() -> Self {
        WideIoStack::new(WideIoTiming::paper_default())
    }

    /// Serves one request; returns `(completion time ns, outcome)`.
    pub fn access(&mut self, req: MemoryRequest) -> (f64, RowBufferOutcome) {
        let d = DecodedAddress::decode(req.addr);
        self.channels[d.channel].access(d.rank, d.bank, d.row, &req)
    }

    /// Summed statistics across channels.
    pub fn total_stats(&self) -> ChannelStats {
        let mut out = ChannelStats::default();
        for c in &self.channels {
            let s = c.stats();
            out.reads += s.reads;
            out.writes += s.writes;
            out.row_hits += s.row_hits;
            out.closed_misses += s.closed_misses;
            out.conflicts += s.conflicts;
            out.activates += s.activates;
            out.bus_busy_ns += s.bus_busy_ns;
            out.total_latency_ns += s.total_latency_ns;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_at(addr: u64, ns: f64) -> MemoryRequest {
        MemoryRequest {
            addr,
            kind: RequestKind::Read,
            issue_ns: ns,
        }
    }

    #[test]
    fn address_decode_roundtrip_fields() {
        let d = DecodedAddress::decode(0b1011_01_10_11_000000);
        assert_eq!(d.channel, 0b11);
        assert_eq!(d.rank, 0b10);
        assert_eq!(d.bank, 0b01);
        assert_eq!(d.row, 0b1011);
    }

    #[test]
    fn idle_closed_access_latency() {
        let mut s = WideIoStack::paper_default();
        let (done, outcome) = s.access(read_at(0, 0.0));
        assert_eq!(outcome, RowBufferOutcome::ClosedMiss);
        let t = WideIoTiming::paper_default();
        assert!((done - t.closed_latency()).abs() < 1e-9, "{done}");
    }

    #[test]
    fn row_hit_is_faster_conflict_is_slower() {
        let mut s = WideIoStack::paper_default();
        let (d1, _) = s.access(read_at(0, 0.0));
        // Same row (same everything above bit 12).
        let (d2, o2) = s.access(read_at(0, d1));
        assert_eq!(o2, RowBufferOutcome::Hit);
        let t = WideIoTiming::paper_default();
        assert!((d2 - d1 - t.hit_latency()).abs() < 1e-9);
        // Different row, same bank -> conflict.
        let (d3, o3) = s.access(read_at(1 << 12, d2));
        assert_eq!(o3, RowBufferOutcome::Conflict);
        assert!(d3 - d2 >= t.t_rp + t.closed_latency() - 1e-9);
    }

    #[test]
    fn t_ras_delays_early_conflict() {
        let mut s = WideIoStack::paper_default();
        let t = WideIoTiming::paper_default();
        let (_d1, _) = s.access(read_at(0, 0.0));
        // Immediately conflict: precharge must wait until tRAS after ACT@0.
        let (d2, o2) = s.access(read_at(1 << 12, 0.0));
        assert_eq!(o2, RowBufferOutcome::Conflict);
        assert!(
            d2 >= t.t_ras + t.t_rp + t.t_rcd + t.hit_latency() - 1e-9,
            "{d2}"
        );
    }

    #[test]
    fn bank_parallelism_beats_single_bank() {
        let t = WideIoTiming::paper_default();
        // 8 back-to-back reads to one bank+row vs spread over 4 banks.
        let mut single = WideIoStack::new(t);
        let mut last = 0.0;
        for i in 0..8u64 {
            let (d, _) = single.access(read_at(i << 13, 0.0));
            last = d;
        }
        let mut spread = WideIoStack::new(t);
        let mut last_spread = 0.0;
        for i in 0..8u64 {
            let bank = i % 4;
            let row = i / 4;
            let (d, _) = spread.access(read_at((row << 13) | (bank << 10), 0.0));
            last_spread = d;
        }
        assert!(last_spread < last, "{last_spread} vs {last}");
    }

    #[test]
    fn channel_interleaving_spreads_load() {
        let mut s = WideIoStack::paper_default();
        for i in 0..16u64 {
            s.access(read_at(i * 64, 0.0));
        }
        for c in &s.channels {
            assert_eq!(c.stats().reads, 4);
        }
    }

    #[test]
    fn write_recovery_blocks_bank() {
        let mut s = WideIoStack::paper_default();
        let t = WideIoTiming::paper_default();
        let (d1, _) = s.access(MemoryRequest {
            addr: 0,
            kind: RequestKind::Write,
            issue_ns: 0.0,
        });
        // A conflicting read right after the write waits out tWR too.
        let (d2, _) = s.access(read_at(1 << 12, d1));
        assert!(d2 - d1 >= t.t_wr - 1e-9, "{}", d2 - d1);
    }

    #[test]
    fn peak_bandwidth_is_paper_rate() {
        let t = WideIoTiming::paper_default();
        // 4 channels x 64 B / 2.5 ns = 102.4 GB/s burst peak; the sustained
        // paper rate (51.2 GB/s) is half of burst peak.
        let bw = 4.0 * 64.0 / t.t_burst;
        assert!((bw - 102.4).abs() < 0.1, "{bw}");
    }

    #[test]
    fn saturation_respects_bus_bandwidth() {
        let mut s = WideIoStack::paper_default();
        // Flood one channel (channel 0: addr bit 6-7 = 0) with row hits.
        let mut done = 0.0;
        let n = 1000;
        for _ in 0..n {
            let (d, _) = s.access(read_at(0, 0.0));
            done = d;
        }
        let bytes = n as f64 * 64.0;
        let gbps = bytes / done;
        let t = WideIoTiming::paper_default();
        let single_channel_peak = 64.0 / t.t_burst;
        assert!(gbps <= single_channel_peak + 1e-6, "{gbps}");
        assert!(gbps > 0.9 * single_channel_peak, "{gbps}");
    }
}
