//! Hardware performance monitor (HPM) counter file.
//!
//! The paper's methodology samples HPM counters from the OS timer (1 ms on
//! the P6, 10 ms on the PXA255) and matches them offline with the power
//! trace. This module provides the counter file, cheap snapshots, and
//! between-snapshot deltas with the derived rates (IPC, L2 miss rate) the
//! paper uses to explain component power.

use serde::{Deserialize, Serialize};

/// The counter file as [`Machine::hpm`](crate::Machine::hpm) reports it.
///
/// The machine counts each simulated event once. It stores the op counts
/// (`int_ops`, `fp_ops`, `branches`, `loads`, `stores`), `mem_accesses`
/// and `stall_cycles`; `instructions` and the cache counters are derived
/// when the file is read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hpm {
    /// Retired instructions (all µops charged by the runtime). Derived:
    /// the sum of the five op counts below.
    pub instructions: u64,
    /// Integer ALU operations.
    pub int_ops: u64,
    /// Floating point operations (including math intrinsics).
    pub fp_ops: u64,
    /// Branches.
    pub branches: u64,
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// L1I accesses. Derived: the L1I cache's own access count.
    pub l1i_accesses: u64,
    /// L1I misses. Derived: the L1I cache's own miss count.
    pub l1i_misses: u64,
    /// L1D accesses. Derived: the L1D cache's own access count.
    pub l1d_accesses: u64,
    /// L1D misses. Derived: the L1D cache's own miss count.
    pub l1d_misses: u64,
    /// L2 accesses (zero on platforms without L2). Derived: the L2
    /// cache's own access count.
    pub l2_accesses: u64,
    /// L2 misses. Derived: the L2 cache's own miss count.
    pub l2_misses: u64,
    /// Accesses that reached DRAM.
    pub mem_accesses: u64,
    /// Cycles spent stalled on the memory hierarchy.
    pub stall_cycles: u64,
}

/// A point-in-time copy of the counter file plus the cycle counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HpmSnapshot {
    /// Cycle count at snapshot time.
    pub cycles: u64,
    /// Counter values.
    pub counters: Hpm,
}

impl HpmSnapshot {
    /// Counter movement between `earlier` and `self`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `earlier` does not postdate `self`.
    pub fn delta_since(&self, earlier: &HpmSnapshot) -> HpmDelta {
        debug_assert!(earlier.cycles <= self.cycles, "snapshots out of order");
        let a = &earlier.counters;
        let b = &self.counters;
        HpmDelta {
            cycles: self.cycles - earlier.cycles,
            instructions: b.instructions - a.instructions,
            fp_ops: b.fp_ops - a.fp_ops,
            l1d_misses: b.l1d_misses - a.l1d_misses,
            l2_accesses: b.l2_accesses - a.l2_accesses,
            l2_misses: b.l2_misses - a.l2_misses,
            mem_accesses: b.mem_accesses - a.mem_accesses,
            stall_cycles: b.stall_cycles - a.stall_cycles,
        }
    }
}

/// Width mask of the physical counters on both measured platforms: the P6
/// family and the PXA255 expose 32-bit performance counters, so a sampler
/// that reads them slowly enough sees wraparound.
pub const COUNTER_MASK_32: u64 = 0xFFFF_FFFF;

/// Number of distinct counters in the [`Hpm`] counter file — the number of
/// individual register reads a full OS-timer HPM sample performs (and, in
/// non-transparent measurement mode, pays for).
pub const HPM_COUNTER_COUNT: usize = 14;

macro_rules! for_each_counter {
    ($m:ident) => {
        $m!(
            instructions,
            int_ops,
            fp_ops,
            branches,
            loads,
            stores,
            l1i_accesses,
            l1i_misses,
            l1d_accesses,
            l1d_misses,
            l2_accesses,
            l2_misses,
            mem_accesses,
            stall_cycles
        );
    };
}

impl HpmSnapshot {
    /// The snapshot as a 32-bit counter file would report it: every counter
    /// truncated to 32 bits. The cycle counter is left intact — it is the
    /// simulator's timebase, not part of the wrapping counter file.
    pub fn wrapped32(&self) -> HpmSnapshot {
        let mut c = self.counters;
        macro_rules! mask {
            ($($f:ident),*) => { $(c.$f &= COUNTER_MASK_32;)* };
        }
        for_each_counter!(mask);
        HpmSnapshot {
            cycles: self.cycles,
            counters: c,
        }
    }
}

/// Reconstructs monotone 64-bit counters from a stream of 32-bit (wrapped)
/// snapshots, the way the paper's offline analysis accumulates HPM samples.
///
/// Reconstruction is **exact** for all deltas as long as each counter
/// advances by fewer than 2^32 between consecutive snapshots — guaranteed
/// here because the DAQ samples every 40 µs and the perf monitor every
/// 1–10 ms. (The absolute base of a counter that exceeded 32 bits before
/// the *first* snapshot is unrecoverable, but deltas never see it.)
#[derive(Debug, Clone, Default)]
pub struct HpmUnwrapper {
    last_raw: Option<Hpm>,
    acc: Hpm,
    wraps: u64,
}

impl HpmUnwrapper {
    /// A fresh unwrapper with no history.
    pub fn new() -> Self {
        HpmUnwrapper::default()
    }

    /// Number of individual counter wraps detected so far.
    pub fn wraps_detected(&self) -> u64 {
        self.wraps
    }

    /// Feed one raw (possibly wrapped) snapshot; returns the reconstructed
    /// monotone snapshot.
    pub fn unwrap_snapshot(&mut self, raw: &HpmSnapshot) -> HpmSnapshot {
        match self.last_raw {
            None => {
                self.acc = raw.counters;
            }
            Some(prev) => {
                macro_rules! advance {
                    ($($f:ident),*) => {
                        $(
                            if raw.counters.$f < prev.$f {
                                self.wraps += 1;
                            }
                            let delta =
                                raw.counters.$f.wrapping_sub(prev.$f) & COUNTER_MASK_32;
                            self.acc.$f += delta;
                        )*
                    };
                }
                for_each_counter!(advance);
            }
        }
        self.last_raw = Some(raw.counters);
        HpmSnapshot {
            cycles: raw.cycles,
            counters: self.acc,
        }
    }
}

/// Counter movement over a sampling window; input to the power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HpmDelta {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Floating point operations.
    pub fp_ops: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM accesses.
    pub mem_accesses: u64,
    /// Memory stall cycles.
    pub stall_cycles: u64,
}

impl HpmDelta {
    /// Instructions per cycle over the window (0 for an empty window).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L2 miss rate over the window (misses / accesses), the statistic the
    /// paper quotes per component (e.g. 54% for the GenCopy collector).
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l2_accesses as f64
        }
    }

    /// Merge two deltas (used when aggregating windows per component).
    pub fn merged(&self, other: &HpmDelta) -> HpmDelta {
        HpmDelta {
            cycles: self.cycles + other.cycles,
            instructions: self.instructions + other.instructions,
            fp_ops: self.fp_ops + other.fp_ops,
            l1d_misses: self.l1d_misses + other.l1d_misses,
            l2_accesses: self.l2_accesses + other.l2_accesses,
            l2_misses: self.l2_misses + other.l2_misses,
            mem_accesses: self.mem_accesses + other.mem_accesses,
            stall_cycles: self.stall_cycles + other.stall_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_rates() {
        let a = HpmSnapshot {
            cycles: 100,
            counters: Hpm {
                instructions: 50,
                l2_accesses: 10,
                l2_misses: 2,
                ..Hpm::default()
            },
        };
        let b = HpmSnapshot {
            cycles: 300,
            counters: Hpm {
                instructions: 210,
                l2_accesses: 30,
                l2_misses: 12,
                ..Hpm::default()
            },
        };
        let d = b.delta_since(&a);
        assert_eq!(d.cycles, 200);
        assert_eq!(d.instructions, 160);
        assert!((d.ipc() - 0.8).abs() < 1e-12);
        assert!((d.l2_miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_window_rates_are_zero() {
        let d = HpmDelta::default();
        assert_eq!(d.ipc(), 0.0);
        assert_eq!(d.l2_miss_rate(), 0.0);
    }

    #[test]
    fn unwrapper_reconstructs_across_a_wrap() {
        let mk = |instructions: u64, cycles: u64| HpmSnapshot {
            cycles,
            counters: Hpm {
                instructions,
                ..Hpm::default()
            },
        };
        let mut unwrap = HpmUnwrapper::new();
        let near = COUNTER_MASK_32 - 10;
        let a = unwrap.unwrap_snapshot(&mk(near, 100).wrapped32());
        let b = unwrap.unwrap_snapshot(&mk(near + 50, 200).wrapped32());
        assert_eq!(b.delta_since(&a).instructions, 50);
        assert_eq!(unwrap.wraps_detected(), 1);
    }

    #[test]
    fn counter_count_matches_the_counter_file() {
        let mut n = 0;
        macro_rules! count {
            ($($f:ident),*) => { $(let _ = stringify!($f); n += 1;)* };
        }
        for_each_counter!(count);
        assert_eq!(n, HPM_COUNTER_COUNT);
    }

    #[test]
    fn merged_sums_fields() {
        let a = HpmDelta {
            cycles: 10,
            instructions: 5,
            ..HpmDelta::default()
        };
        let b = HpmDelta {
            cycles: 20,
            instructions: 15,
            ..HpmDelta::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.cycles, 30);
        assert_eq!(m.instructions, 20);
    }
}
