//! The machine: a CPU model plus cache hierarchy with cycle accounting.

use crate::{Addr, Cache, CpuSpec, Hpm, HpmSnapshot, PlatformKind};

/// A simulated processor + memory hierarchy.
///
/// Every instruction and memory access the runtime performs is *charged*
/// into the machine through the methods below; the machine advances its
/// cycle counter, walks the cache hierarchy and updates the HPM counter
/// file. Simulated wall-clock time is `cycles / freq`.
///
/// Cycle accounting uses an `f64` accumulator (effective per-op costs are
/// sub-cycle on the superscalar Pentium M); the public [`Machine::cycles`]
/// view truncates it. Deadlines can compare the raw accumulator
/// ([`Machine::cycles_f64`]) instead: for any accumulator `x >= 0` and
/// integer `n < 2⁵³`, `trunc(x) >= n` holds exactly when `x >= n as f64`,
/// because `n` is then representable and `trunc` is `floor` on
/// non-negative values. 2⁵³ cycles are about 65 days of simulated time at
/// 1.6 GHz, far beyond any run.
#[derive(Debug, Clone)]
pub struct Machine {
    spec: CpuSpec,
    l1i: Cache,
    l1d: Cache,
    l2: Option<Cache>,
    hpm: Hpm,
    cycles: f64,
    /// Last DRAM row touched (open-row tracking).
    dram_row: u64,
}

/// DRAM row size in bytes (open-page SDRAM row buffer).
const DRAM_ROW_BYTES: u64 = 2048;
/// Fraction of the full miss penalty paid when the access hits the open
/// row (burst/row-buffer hit). Sequential access streams — GC sweeps and
/// copies, class-file parsing — pay far less per miss than pointer chases,
/// which is the mechanism behind the XScale component-power ordering the
/// paper reports in Section VI-E.
const ROW_HIT_FACTOR: f64 = 0.3;

impl Machine {
    /// Build a cold machine for `kind` at its nominal operating point.
    pub fn new(kind: PlatformKind) -> Self {
        Self::from_spec(CpuSpec::of(kind))
    }

    /// Build a cold machine from an explicit (possibly DVFS-scaled)
    /// specification.
    pub fn from_spec(spec: CpuSpec) -> Self {
        Self {
            l1i: Cache::new(spec.l1i),
            l1d: Cache::new(spec.l1d),
            l2: spec.l2.map(Cache::new),
            hpm: Hpm::default(),
            cycles: 0.0,
            dram_row: u64::MAX,
            spec,
        }
    }

    /// Effective DRAM penalty for an access to `addr`, modeling the open
    /// row buffer.
    fn dram_penalty(&mut self, addr: Addr) -> f64 {
        let row = addr / DRAM_ROW_BYTES;
        let factor = if row == self.dram_row {
            ROW_HIT_FACTOR
        } else {
            1.0
        };
        self.dram_row = row;
        self.spec.mem_penalty * factor
    }

    /// The timing specification in force.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Which platform this machine models.
    pub fn platform(&self) -> PlatformKind {
        self.spec.kind
    }

    /// Elapsed cycles (truncated from the internal accumulator).
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles as u64
    }

    /// The raw cycle accumulator. Comparing it against an integer deadline
    /// below 2⁵³ gives the same answer as comparing [`Machine::cycles`].
    #[inline]
    pub fn cycles_f64(&self) -> f64 {
        self.cycles
    }

    /// Elapsed simulated wall-clock time in seconds.
    pub fn now(&self) -> f64 {
        self.cycles / self.spec.freq_hz
    }

    /// Live HPM counter file.
    pub fn hpm(&self) -> &Hpm {
        &self.hpm
    }

    /// Copy the counters and cycle counter (what the OS-timer sampler and
    /// the DAQ read).
    pub fn snapshot(&self) -> HpmSnapshot {
        HpmSnapshot {
            cycles: self.cycles(),
            counters: self.hpm,
        }
    }

    /// L1 data cache statistics.
    pub fn l1d_stats(&self) -> crate::CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics, if the platform has an L2.
    pub fn l2_stats(&self) -> Option<crate::CacheStats> {
        self.l2.as_ref().map(Cache::stats)
    }

    // ---- execution charges ----

    /// Retire `n` integer ALU operations.
    #[inline]
    pub fn int_ops(&mut self, n: u32) {
        self.hpm.instructions += u64::from(n);
        self.hpm.int_ops += u64::from(n);
        self.cycles += f64::from(n) * self.spec.int_cost;
    }

    /// Retire `n` floating point operations.
    #[inline]
    pub fn fp_ops(&mut self, n: u32) {
        self.hpm.instructions += u64::from(n);
        self.hpm.fp_ops += u64::from(n);
        self.cycles += f64::from(n) * self.spec.fp_cost;
    }

    /// Retire one transcendental math intrinsic (sqrt/sin/...).
    #[inline]
    pub fn math_op(&mut self) {
        self.hpm.instructions += 1;
        self.hpm.fp_ops += 1;
        self.cycles += self.spec.math_cost;
    }

    /// Retire one branch.
    #[inline]
    pub fn branch(&mut self) {
        self.hpm.instructions += 1;
        self.hpm.branches += 1;
        self.cycles += self.spec.branch_cost;
    }

    /// Retire a data load from `addr`, walking the cache hierarchy.
    #[inline]
    pub fn load(&mut self, addr: Addr) {
        self.hpm.instructions += 1;
        self.hpm.loads += 1;
        self.cycles += self.spec.mem_base_cost;
        self.data_access(addr);
    }

    /// Retire a data store to `addr` (write-allocate, charged like a load).
    #[inline]
    pub fn store(&mut self, addr: Addr) {
        self.hpm.instructions += 1;
        self.hpm.stores += 1;
        self.cycles += self.spec.mem_base_cost;
        self.data_access(addr);
    }

    /// Fetch one instruction-cache line at `addr` (the runtime calls this
    /// per basic block / dispatch step, not per µop).
    pub fn ifetch(&mut self, addr: Addr) {
        self.hpm.l1i_accesses += 1;
        if !self.l1i.access(addr) {
            self.hpm.l1i_misses += 1;
            let mut stall = self.spec.ifetch_miss_penalty;
            let mut to_dram = false;
            if let Some(l2) = &mut self.l2 {
                self.hpm.l2_accesses += 1;
                if !l2.access(addr) {
                    self.hpm.l2_misses += 1;
                    to_dram = true;
                }
            } else {
                to_dram = true;
            }
            if to_dram {
                self.hpm.mem_accesses += 1;
                stall += self.dram_penalty(addr);
            }
            self.hpm.stall_cycles += stall as u64;
            self.cycles += stall;
        }
    }

    /// Stall for raw `cycles` without retiring instructions (idle loops,
    /// throttling duty-off periods, bulk modeled work).
    pub fn stall(&mut self, cycles: f64) {
        self.hpm.stall_cycles += cycles as u64;
        self.cycles += cycles;
    }

    /// Touch `bytes` starting at `addr` line-by-line as loads (streaming
    /// read, e.g. class-file parsing or GC copy source).
    pub fn stream_read(&mut self, addr: Addr, bytes: u32) {
        let line = u64::from(self.l1d.line_bytes());
        let mut a = addr & !(line - 1);
        let end = addr + u64::from(bytes);
        while a < end {
            self.load(a);
            a += line;
        }
    }

    /// Touch `bytes` starting at `addr` line-by-line as stores (streaming
    /// write, e.g. GC copy destination or code installation).
    pub fn stream_write(&mut self, addr: Addr, bytes: u32) {
        let line = u64::from(self.l1d.line_bytes());
        let mut a = addr & !(line - 1);
        let end = addr + u64::from(bytes);
        while a < end {
            self.store(a);
            a += line;
        }
    }

    /// Copy `bytes` from `src` to `dst`: streaming reads plus streaming
    /// writes plus per-word ALU work (the cost shape of a GC copy,
    /// including forwarding-pointer bookkeeping).
    pub fn memcpy(&mut self, src: Addr, dst: Addr, bytes: u32) {
        self.stream_read(src, bytes);
        self.stream_write(dst, bytes);
        self.int_ops(bytes / 4);
    }

    fn data_access(&mut self, addr: Addr) {
        self.hpm.l1d_accesses += 1;
        if !self.l1d.access(addr) {
            self.hpm.l1d_misses += 1;
            let mut stall = 0.0;
            let mut to_dram = false;
            if let Some(l2) = &mut self.l2 {
                self.hpm.l2_accesses += 1;
                stall += self.spec.l1_miss_penalty;
                if !l2.access(addr) {
                    self.hpm.l2_misses += 1;
                    to_dram = true;
                }
            } else {
                to_dram = true;
            }
            if to_dram {
                self.hpm.mem_accesses += 1;
                stall += self.dram_penalty(addr);
            }
            self.hpm.stall_cycles += stall as u64;
            self.cycles += stall;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HEAP_BASE;

    #[test]
    fn cycles_advance_with_work() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        assert_eq!(m.cycles(), 0);
        m.int_ops(1000);
        let c = m.cycles();
        assert!((400..=500).contains(&c), "got {c}");
        assert_eq!(m.hpm().instructions, 1000);
    }

    #[test]
    fn repeated_loads_hit_cache_and_get_cheaper() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        m.load(HEAP_BASE);
        let cold = m.cycles();
        m.load(HEAP_BASE);
        let warm = m.cycles() - cold;
        assert!(
            warm < cold,
            "warm access {warm} should be cheaper than cold {cold}"
        );
        assert_eq!(m.hpm().l1d_misses, 1);
        assert_eq!(m.hpm().l2_misses, 1);
        assert_eq!(m.hpm().mem_accesses, 1);
    }

    #[test]
    fn pxa_has_no_l2_traffic() {
        let mut m = Machine::new(PlatformKind::Pxa255);
        m.load(HEAP_BASE);
        assert_eq!(m.hpm().l2_accesses, 0);
        assert_eq!(m.hpm().mem_accesses, 1);
        assert!(m.l2_stats().is_none());
    }

    #[test]
    fn fp_is_catastrophically_slow_on_pxa() {
        let mut p6 = Machine::new(PlatformKind::PentiumM);
        let mut xs = Machine::new(PlatformKind::Pxa255);
        p6.fp_ops(100);
        xs.fp_ops(100);
        assert!(xs.cycles() > 20 * p6.cycles());
    }

    #[test]
    fn now_reflects_frequency() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        m.stall(1.6e9);
        assert!((m.now() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memcpy_touches_both_ranges() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        m.memcpy(HEAP_BASE, HEAP_BASE + 0x10000, 256);
        // 4 lines read + 4 lines written + 2 ALU ops per copied word
        assert_eq!(m.hpm().loads, 4);
        assert_eq!(m.hpm().stores, 4);
        assert_eq!(m.hpm().int_ops, 64);
    }

    #[test]
    fn snapshot_is_consistent() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        m.int_ops(10);
        let s = m.snapshot();
        assert_eq!(s.counters.instructions, 10);
        assert_eq!(s.cycles, m.cycles());
    }

    #[test]
    fn f64_deadline_compare_agrees_with_truncated_cycles() {
        for kind in [PlatformKind::PentiumM, PlatformKind::Pxa255] {
            let mut m = Machine::new(kind);
            let mut fractional = 0;
            for step in 0..30_000u32 {
                match step % 3 {
                    0 => m.int_ops(1),
                    1 => m.stall(0.5),
                    _ => m.int_ops(3),
                }
                let (c, x) = (m.cycles(), m.cycles_f64());
                fractional += u32::from(x.fract() != 0.0);
                for n in [c.saturating_sub(1), c, c + 1, c + 2] {
                    assert_eq!(c >= n, x >= n as f64, "{kind:?} at {x} vs deadline {n}");
                }
            }
            assert!(
                fractional > 10_000,
                "{kind:?}: the stream must sit between integers"
            );
        }
    }

    #[test]
    fn stall_adds_cycles_without_instructions() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        m.stall(500.0);
        assert_eq!(m.cycles(), 500);
        assert_eq!(m.hpm().instructions, 0);
    }
}
