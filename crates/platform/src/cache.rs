//! Set-associative LRU cache simulation.
//!
//! Each set keeps its tags in recency order: slot 0 holds the line used
//! last and the tail slot the least recently used one, so a hit in slot 0
//! costs one compare and the victim of a miss is always the tail. Invalid
//! ways (`u64::MAX`) enter only at the tail and leave only by a miss, so
//! they always sit behind every valid line and are filled first.

use serde::{Deserialize, Serialize};

use crate::Addr;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheConfig {
    /// Human-readable level name ("L1D", "L2", ...).
    pub name: &'static str,
    /// Total capacity in bytes. Must be a multiple of `ways * line_bytes`.
    pub size_bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub const fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (allocations).
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 when no accesses happened.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One level of set-associative cache with true-LRU replacement.
///
/// Tag state only — we model hit/miss behaviour and replacement, not data.
/// Stores allocate on miss (write-allocate) and are charged identically to
/// loads; write-back traffic is folded into the modeled miss penalty.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u32,
    line_shift: u32,
    /// `sets * ways` tags, each set most recent first; `u64::MAX` marks an
    /// invalid way.
    tags: Vec<u64>,
    stats: CacheStats,
}

impl Cache {
    /// Build an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `ways * line_bytes`, or non-power-of-two sets/lines).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert_eq!(
            cfg.size_bytes % (cfg.ways * cfg.line_bytes),
            0,
            "capacity must divide evenly into ways x lines"
        );
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let n = (sets * cfg.ways) as usize;
        Self {
            cfg,
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; n],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Access the line containing `addr`, updating LRU state; returns `true`
    /// on hit. On miss the line is allocated, evicting the LRU way.
    ///
    /// A hit on the set's most recent line returns at once; every other
    /// case goes out of line, to keep this inlined path small.
    #[inline]
    pub fn access(&mut self, addr: Addr) -> bool {
        self.stats.accesses += 1;
        let (base, line) = self.locate(addr);
        if self.tags[base] == line {
            return true;
        }
        self.access_rest(base, line)
    }

    /// Whether `addr` is in its set's most recent line: the one access
    /// that changes nothing in the cache but its access count.
    #[inline]
    pub fn is_mru(&self, addr: Addr) -> bool {
        let (base, line) = self.locate(addr);
        self.tags[base] == line
    }

    /// Count `n` accesses that [`Cache::is_mru`] found in their set's most
    /// recent line, without repeating them.
    pub(crate) fn count_mru_hits(&mut self, n: u64) {
        self.stats.accesses += n;
    }

    /// The first tag slot of `addr`'s set, and `addr`'s line.
    #[inline]
    fn locate(&self, addr: Addr) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = ((line as u32) & (self.sets - 1)) as usize;
        (set * self.cfg.ways as usize, line)
    }

    /// The part of `access` past the slot-0 check. A hit in slot `k`
    /// rotates slots `0..=k` right by one, which moves the line to the
    /// front. A miss rotates the whole set, so the tail (the LRU line, or
    /// an invalid way if the set has one) falls off and the new line takes
    /// slot 0.
    #[inline(never)]
    fn access_rest(&mut self, base: usize, line: u64) -> bool {
        let set = &mut self.tags[base..base + self.cfg.ways as usize];
        match set.iter().position(|&t| t == line) {
            Some(k) => {
                set[..=k].rotate_right(1);
                true
            }
            None => {
                self.stats.misses += 1;
                set.rotate_right(1);
                set[0] = line;
                false
            }
        }
    }

    /// Probe whether `addr` is resident without touching LRU state or stats.
    pub fn contains(&self, addr: Addr) -> bool {
        let (base, line) = self.locate(addr);
        self.tags[base..base + self.cfg.ways as usize].contains(&line)
    }

    /// Invalidate every line (e.g. on simulated context loss).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }

    /// Accumulated hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.cfg.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig {
            name: "T",
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004)); // same line
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = sets*line = 256B).
        let a = 0x0u64;
        let b = 0x100;
        let d = 0x200;
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        assert!(!c.access(d)); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0x40);
        c.flush();
        assert!(!c.contains(0x40));
        assert!(!c.access(0x40));
    }

    #[test]
    fn miss_rate_math() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.access(i * 64);
        }
        // 512B cache holds exactly 8 lines; first pass all miss.
        assert_eq!(c.stats().miss_rate(), 1.0);
        for i in 0..8u64 {
            c.access(i * 64);
        }
        assert_eq!(c.stats().miss_rate(), 0.5);
    }

    #[test]
    fn only_the_most_recent_line_of_a_set_is_mru() {
        let mut c = tiny();
        let (a, b) = (0x0u64, 0x100); // same set
        assert!(!c.is_mru(a)); // invalid ways never match
        c.access(a);
        assert!(c.is_mru(a) && c.is_mru(a + 63));
        c.access(b);
        assert!(c.is_mru(b) && !c.is_mru(a) && c.contains(a));
        let before = c.stats();
        assert!(c.is_mru(b));
        assert_eq!(c.stats(), before, "the check is pure");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            name: "X",
            size_bytes: 512,
            ways: 2,
            line_bytes: 48,
        });
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny();
        // Cycle over 16 distinct lines in a 8-line cache repeatedly: with
        // LRU and a cyclic pattern every access misses after warmup.
        for _ in 0..4 {
            for i in 0..16u64 {
                c.access(i * 64);
            }
        }
        let s = c.stats();
        assert!(
            s.miss_rate() > 0.9,
            "cyclic over-capacity scan should thrash, got {}",
            s.miss_rate()
        );
    }
}
