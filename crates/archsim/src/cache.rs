//! Set-associative LRU cache with MESI line states.
//!
//! One implementation serves the private L1s (which only use the
//! `Exclusive`/`Modified` states) and the coherent L2s (full MESI driven
//! by [`crate::coherence`]).

use serde::{Deserialize, Serialize};

use crate::config::CacheGeometry;

/// MESI line state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineState {
    /// Not present.
    Invalid,
    /// Clean, possibly in other caches.
    Shared,
    /// Clean, only copy.
    Exclusive,
    /// Dirty, only copy.
    Modified,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: LineState,
    /// Higher = more recently used.
    lru: u64,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line present in a compatible state.
    Hit,
    /// Line absent (or present in an incompatible state for a write —
    /// reported as a miss to let the coherence layer upgrade it).
    Miss {
        /// Dirty line address evicted to make room, if any.
        writeback: Option<u64>,
    },
}

/// Aggregate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (including coherence upgrades).
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

/// A set-associative LRU cache.
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    sets: Vec<Vec<Line>>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count of
    /// at least 1.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        assert!(sets >= 1 && sets.is_power_of_two(), "bad set count {sets}");
        Cache {
            geometry,
            sets: vec![Vec::with_capacity(geometry.ways); sets],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.geometry.line as u64) % self.sets.len() as u64) as usize
    }

    fn tag(&self, addr: u64) -> u64 {
        addr / (self.geometry.line as u64 * self.sets.len() as u64)
    }

    /// Line-aligned base address of a (set, tag) pair.
    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets.len() as u64 + set as u64) * self.geometry.line as u64
    }

    /// Current state of the line containing `addr`.
    pub fn state_of(&self, addr: u64) -> LineState {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        self.sets[set]
            .iter()
            .find(|l| l.tag == tag && l.state != LineState::Invalid)
            .map_or(LineState::Invalid, |l| l.state)
    }

    /// Accesses `addr`; on a miss the line is filled in `fill_state`.
    /// A write to a `Shared` line is reported as a miss (upgrade) and the
    /// line moves to `fill_state`.
    pub fn access(&mut self, addr: u64, write: bool, fill_state: LineState) -> AccessOutcome {
        self.clock += 1;
        self.stats.accesses += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let clock = self.clock;

        if let Some(line) = self.sets[set]
            .iter_mut()
            .find(|l| l.tag == tag && l.state != LineState::Invalid)
        {
            line.lru = clock;
            if write {
                if line.state == LineState::Shared {
                    // Upgrade miss: the coherence layer must invalidate the
                    // other sharers; we count it as a miss.
                    line.state = fill_state;
                    self.stats.misses += 1;
                    return AccessOutcome::Miss { writeback: None };
                }
                line.state = LineState::Modified;
            }
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        let state = if write {
            LineState::Modified
        } else {
            fill_state
        };
        let new_line = Line {
            tag,
            state,
            lru: clock,
        };

        let ways = self.geometry.ways;
        let set_vec = &mut self.sets[set];
        if set_vec.len() < ways {
            set_vec.push(new_line);
            return AccessOutcome::Miss { writeback: None };
        }
        // Evict LRU.
        let victim_idx = set_vec
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.lru)
            .map(|(i, _)| i)
            .expect("non-empty set");
        let victim = set_vec[victim_idx];
        set_vec[victim_idx] = new_line;
        let writeback = if victim.state == LineState::Modified {
            self.stats.writebacks += 1;
            Some(self.line_addr(set, victim.tag))
        } else {
            None
        };
        AccessOutcome::Miss { writeback }
    }

    /// Invalidates the line containing `addr` (snoop); returns `true` if
    /// the line was dirty (needs a writeback / cache-to-cache supply).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        if let Some(line) = self.sets[set]
            .iter_mut()
            .find(|l| l.tag == tag && l.state != LineState::Invalid)
        {
            let dirty = line.state == LineState::Modified;
            line.state = LineState::Invalid;
            dirty
        } else {
            false
        }
    }

    /// Downgrades the line containing `addr` to `Shared` (remote read
    /// snoop); returns `true` if it was dirty.
    pub fn downgrade(&mut self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        if let Some(line) = self.sets[set]
            .iter_mut()
            .find(|l| l.tag == tag && l.state != LineState::Invalid)
        {
            let dirty = line.state == LineState::Modified;
            line.state = LineState::Shared;
            dirty
        } else {
            false
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheGeometry {
            size: 4 * 64 * 2, // 2 sets, 4 ways
            ways: 4,
            line: 64,
            round_trip_cycles: 2,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(matches!(
            c.access(0x1000, false, LineState::Exclusive),
            AccessOutcome::Miss { writeback: None }
        ));
        assert_eq!(
            c.access(0x1000, false, LineState::Exclusive),
            AccessOutcome::Hit
        );
        assert_eq!(c.state_of(0x1000), LineState::Exclusive);
    }

    #[test]
    fn same_line_different_word_hits() {
        let mut c = small();
        c.access(0x1000, false, LineState::Exclusive);
        assert_eq!(
            c.access(0x103F, false, LineState::Exclusive),
            AccessOutcome::Hit
        );
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Fill 4 ways of set 0 (stride = 2 sets * 64 = 128).
        for i in 0..4u64 {
            c.access(i * 128, false, LineState::Exclusive);
        }
        // Touch line 0 so line 1 becomes LRU.
        c.access(0, false, LineState::Exclusive);
        // New line evicts line 1 (clean, no writeback).
        assert!(matches!(
            c.access(4 * 128, false, LineState::Exclusive),
            AccessOutcome::Miss { writeback: None }
        ));
        assert_eq!(c.state_of(0), LineState::Exclusive);
        assert_eq!(c.state_of(128), LineState::Invalid);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0, true, LineState::Modified);
        for i in 1..4u64 {
            c.access(i * 128, false, LineState::Exclusive);
        }
        match c.access(4 * 128, false, LineState::Exclusive) {
            AccessOutcome::Miss { writeback: Some(a) } => assert_eq!(a, 0),
            other => panic!("expected writeback, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = small();
        c.access(0, false, LineState::Exclusive);
        assert_eq!(c.access(0, true, LineState::Modified), AccessOutcome::Hit);
        assert_eq!(c.state_of(0), LineState::Modified);
    }

    #[test]
    fn write_to_shared_is_upgrade_miss() {
        let mut c = small();
        c.access(0, false, LineState::Shared);
        assert!(matches!(
            c.access(0, true, LineState::Modified),
            AccessOutcome::Miss { writeback: None }
        ));
        assert_eq!(c.state_of(0), LineState::Modified);
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = small();
        c.access(0, true, LineState::Modified);
        assert!(c.downgrade(0));
        assert_eq!(c.state_of(0), LineState::Shared);
        assert!(!c.invalidate(0)); // now clean
        assert_eq!(c.state_of(0), LineState::Invalid);
        assert!(!c.invalidate(0x9999_0000)); // absent
    }

    #[test]
    fn miss_rate_accounting() {
        let mut c = small();
        for _ in 0..9 {
            c.access(0, false, LineState::Exclusive);
        }
        c.access(64, false, LineState::Exclusive); // different set/line -> miss
        assert_eq!(c.stats().accesses, 10);
        assert_eq!(c.stats().misses, 2);
    }
}
