//! Synthetic instruction/address trace generation.
//!
//! [`TraceGenerator`] turns a [`WorkloadProfile`] into a deterministic,
//! seeded stream of [`TraceEvent`]s whose locality structure approximates
//! the profile: a small hot region (L1-resident), a medium reuse region
//! (L2-resident), and random accesses over the full working set (DRAM).
//! `xylem-archsim` runs these streams through its cache hierarchy to
//! measure miss rates; the tests check that measured behaviour tracks the
//! profile's intent (monotonicity, not exact equality).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::profile::WorkloadProfile;

/// One instruction slot of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Instruction address.
    pub pc: u64,
    /// Data access, if this instruction is a load/store:
    /// `(address, is_write)`.
    pub access: Option<(u64, bool)>,
}

/// Deterministic trace generator for one thread.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: StdRng,
    pc: u64,
    code_footprint: u64,
    /// Per-thread base so different threads touch disjoint (mostly)
    /// regions, with a shared region for coherence traffic.
    data_base: u64,
    shared_base: u64,
    stream_cursor: u64,
}

/// Fraction of instructions that access memory.
const MEM_FRACTION: f64 = 0.30;
/// Cache-line size, bytes.
const LINE: u64 = 64;

impl TraceGenerator {
    /// Creates a generator for `thread` of an app with the given profile.
    /// The same `(profile, thread, seed)` always produces the same trace.
    pub fn new(profile: WorkloadProfile, thread: usize, seed: u64) -> Self {
        let code_footprint = 8 * 1024 + (profile.l1i_mpki * 24.0 * 1024.0) as u64;
        TraceGenerator {
            profile,
            rng: StdRng::seed_from_u64(seed ^ ((thread as u64) << 32)),
            pc: 0x1000,
            code_footprint,
            data_base: 0x1_0000_0000 + (thread as u64) * (profile.working_set + (1 << 26)),
            shared_base: 0x8_0000_0000,
            stream_cursor: 0,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Generates the next instruction slot.
    pub fn next_event(&mut self) -> TraceEvent {
        // Instruction stream: sequential walk over the code footprint with
        // occasional jumps (function calls / branches).
        self.pc += 4;
        if self.rng.gen_bool(0.05) {
            self.pc = 0x1000 + self.rng.gen_range(0..self.code_footprint / 4) * 4;
        }
        if self.pc >= 0x1000 + self.code_footprint {
            self.pc = 0x1000;
        }

        let access = if self.rng.gen_bool(MEM_FRACTION) {
            let p = &self.profile;
            // Probabilities within memory accesses, derived from MPKIs.
            let per_access = 1.0 / (MEM_FRACTION * 1000.0);
            let p_dram = (p.l2_mpki * per_access).min(0.9);
            let p_l2 = ((p.l1d_mpki - p.l2_mpki).max(0.0) * per_access).min(0.9 - p_dram);
            let r: f64 = self.rng.gen();
            let addr = if r < p_dram {
                // Full-working-set access: streaming (row-buffer friendly)
                // or random, per the profile's row-hit fraction; a slice
                // goes to the shared region to exercise coherence.
                if self.rng.gen_bool(p.sharing_fraction) {
                    self.shared_base + self.rng.gen_range(0..(1u64 << 20) / LINE) * LINE
                } else if self.rng.gen_bool(p.row_hit_fraction) {
                    self.stream_cursor += LINE;
                    if self.stream_cursor >= p.working_set {
                        self.stream_cursor = 0;
                    }
                    self.data_base + self.stream_cursor
                } else {
                    self.data_base + self.rng.gen_range(0..p.working_set / LINE) * LINE
                }
            } else if r < p_dram + p_l2 {
                // L2-resident region (bigger than L1, smaller than L2).
                let region = 160 * 1024;
                self.data_base + self.rng.gen_range(0..region / LINE) * LINE
            } else {
                // Hot, L1-resident region.
                let region = 16 * 1024;
                self.data_base + self.rng.gen_range(0..region / LINE) * LINE
            };
            let is_write = !self.rng.gen_bool(self.profile.read_fraction);
            Some((addr, is_write))
        } else {
            None
        };

        TraceEvent {
            pc: self.pc,
            access,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;

    /// The first `n` instruction slots of `g`.
    fn take_events(mut g: TraceGenerator, n: usize) -> Vec<TraceEvent> {
        (0..n).map(|_| g.next_event()).collect()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = Benchmark::Fft.profile();
        let a = take_events(TraceGenerator::new(p, 0, 42), 1000);
        let b = take_events(TraceGenerator::new(p, 0, 42), 1000);
        assert_eq!(a, b);
        let c = take_events(TraceGenerator::new(p, 0, 43), 1000);
        assert_ne!(a, c);
    }

    #[test]
    fn threads_use_disjoint_private_regions() {
        let p = Benchmark::Blackscholes.profile();
        let a = take_events(TraceGenerator::new(p, 0, 1), 5000);
        let b = take_events(TraceGenerator::new(p, 1, 1), 5000);
        let max_a = a
            .iter()
            .filter_map(|e| e.access)
            .map(|(x, _)| x)
            .max()
            .unwrap();
        let min_b = b
            .iter()
            .filter_map(|e| e.access)
            .map(|(x, _)| x)
            .filter(|&x| x < 0x8_0000_0000)
            .min()
            .unwrap();
        assert!(max_a < min_b || max_a >= 0x8_0000_0000);
    }

    #[test]
    fn memory_fraction_near_target() {
        let p = Benchmark::Lu.profile();
        let events = take_events(TraceGenerator::new(p, 0, 7), 50_000);
        let mem = events.iter().filter(|e| e.access.is_some()).count() as f64;
        let frac = mem / events.len() as f64;
        assert!((frac - MEM_FRACTION).abs() < 0.02, "{frac}");
    }

    #[test]
    fn write_fraction_tracks_profile() {
        let p = Benchmark::Is.profile(); // read_fraction 0.60
        let events = take_events(TraceGenerator::new(p, 0, 9), 100_000);
        let (mut reads, mut writes) = (0.0_f64, 0.0_f64);
        for e in events.iter().filter_map(|e| e.access) {
            if e.1 {
                writes += 1.0;
            } else {
                reads += 1.0;
            }
        }
        let rf = reads / (reads + writes);
        assert!((rf - 0.60).abs() < 0.03, "{rf}");
    }

    #[test]
    fn memory_bound_app_touches_more_unique_lines() {
        let count_unique = |b: Benchmark| {
            let mut g = TraceGenerator::new(b.profile(), 0, 3);
            let mut set = std::collections::HashSet::new();
            for _ in 0..100_000 {
                if let Some((a, _)) = g.next_event().access {
                    set.insert(a / LINE);
                }
            }
            set.len()
        };
        assert!(count_unique(Benchmark::Is) > 2 * count_unique(Benchmark::LuNas));
    }
}
