//! Property test: the machine's counter file against a reference that
//! counts every event directly.
//!
//! [`Machine`] stores only the op counts, DRAM accesses and stall cycles
//! and derives retired instructions and the cache counters when the file
//! is read. The reference below keeps all fourteen counters and bumps each
//! one at the event, so any event the derivation misses or double counts
//! shows up as a differing snapshot. The cycle accumulator is checked too:
//! the reference charges cycles in the same order, so the two must agree
//! exactly.

use proptest::prelude::*;
use vmprobe_platform::{Addr, Cache, CpuSpec, Hpm, HpmSnapshot, Machine, PlatformKind, HEAP_BASE};

/// DRAM row size of the open-row model.
const DRAM_ROW_BYTES: u64 = 2048;
/// Penalty factor for an access to the open row.
const ROW_HIT_FACTOR: f64 = 0.3;

/// A machine that counts every HPM event where it happens.
struct Reference {
    spec: CpuSpec,
    l1i: Cache,
    l1d: Cache,
    l2: Option<Cache>,
    hpm: Hpm,
    cycles: f64,
    dram_row: u64,
}

impl Reference {
    fn new(kind: PlatformKind) -> Self {
        let spec = CpuSpec::of(kind);
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

    fn snapshot(&self) -> HpmSnapshot {
        HpmSnapshot {
            cycles: self.cycles as u64,
            counters: self.hpm,
        }
    }

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

    fn int_ops(&mut self, n: u32) {
        self.hpm.instructions += u64::from(n);
        self.hpm.int_ops += u64::from(n);
        self.cycles += f64::from(n) * self.spec.int_cost;
    }

    fn fp_ops(&mut self, n: u32) {
        self.hpm.instructions += u64::from(n);
        self.hpm.fp_ops += u64::from(n);
        self.cycles += f64::from(n) * self.spec.fp_cost;
    }

    fn math_op(&mut self) {
        self.hpm.instructions += 1;
        self.hpm.fp_ops += 1;
        self.cycles += self.spec.math_cost;
    }

    fn branch(&mut self) {
        self.hpm.instructions += 1;
        self.hpm.branches += 1;
        self.cycles += self.spec.branch_cost;
    }

    fn load(&mut self, addr: Addr) {
        self.hpm.instructions += 1;
        self.hpm.loads += 1;
        self.cycles += self.spec.mem_base_cost;
        self.data_access(addr);
    }

    fn store(&mut self, addr: Addr) {
        self.hpm.instructions += 1;
        self.hpm.stores += 1;
        self.cycles += self.spec.mem_base_cost;
        self.data_access(addr);
    }

    fn ifetch(&mut self, addr: Addr) {
        self.hpm.l1i_accesses += 1;
        if !self.l1i.access(addr) {
            self.hpm.l1i_misses += 1;
            let mut stall = self.spec.ifetch_miss_penalty;
            let mut to_dram = true;
            if let Some(l2) = &mut self.l2 {
                self.hpm.l2_accesses += 1;
                if l2.access(addr) {
                    to_dram = false;
                } else {
                    self.hpm.l2_misses += 1;
                }
            }
            if to_dram {
                self.hpm.mem_accesses += 1;
                stall += self.dram_penalty(addr);
            }
            self.hpm.stall_cycles += stall as u64;
            self.cycles += stall;
        }
    }

    fn stall(&mut self, cycles: f64) {
        self.hpm.stall_cycles += cycles as u64;
        self.cycles += cycles;
    }

    fn stream_read(&mut self, addr: Addr, bytes: u32) {
        let line = u64::from(self.l1d.line_bytes());
        let mut a = addr & !(line - 1);
        while a < addr + u64::from(bytes) {
            self.load(a);
            a += line;
        }
    }

    fn stream_write(&mut self, addr: Addr, bytes: u32) {
        let line = u64::from(self.l1d.line_bytes());
        let mut a = addr & !(line - 1);
        while a < addr + u64::from(bytes) {
            self.store(a);
            a += line;
        }
    }

    fn memcpy(&mut self, src: Addr, dst: Addr, bytes: u32) {
        self.stream_read(src, bytes);
        self.stream_write(dst, bytes);
        self.int_ops(bytes / 4);
    }

    fn data_access(&mut self, addr: Addr) {
        self.hpm.l1d_accesses += 1;
        if !self.l1d.access(addr) {
            self.hpm.l1d_misses += 1;
            let mut stall = 0.0;
            let mut to_dram = true;
            if let Some(l2) = &mut self.l2 {
                self.hpm.l2_accesses += 1;
                stall += self.spec.l1_miss_penalty;
                if l2.access(addr) {
                    to_dram = false;
                } else {
                    self.hpm.l2_misses += 1;
                }
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

/// One charge of a stream: `(kind, address draw, size draw)`.
type Charge = (u8, u64, u32);

/// An address from a draw: a third land on 64 hot lines (L1 hits), the
/// rest anywhere in 4 MB (L1 and, on the P6, L2 misses, with open-row
/// hits between neighbours).
fn address(draw: u64) -> Addr {
    if draw.is_multiple_of(3) {
        HEAP_BASE + (draw / 3 % 64) * 64
    } else {
        HEAP_BASE + draw % (4 << 20)
    }
}

fn apply(m: &mut Machine, r: &mut Reference, &(kind, a, n): &Charge) {
    let addr = address(a);
    match kind {
        0 => {
            m.int_ops(n % 64);
            r.int_ops(n % 64);
        }
        1 => {
            m.fp_ops(n % 16);
            r.fp_ops(n % 16);
        }
        2 => {
            m.math_op();
            r.math_op();
        }
        3 => {
            m.branch();
            r.branch();
        }
        4 => {
            m.load(addr);
            r.load(addr);
        }
        5 => {
            m.store(addr);
            r.store(addr);
        }
        6 => {
            m.ifetch(addr);
            r.ifetch(addr);
        }
        7 => {
            let cycles = f64::from(n % 1000) * 0.37;
            m.stall(cycles);
            r.stall(cycles);
        }
        8 => {
            m.stream_read(addr, n % 2048);
            r.stream_read(addr, n % 2048);
        }
        9 => {
            m.stream_write(addr, n % 2048);
            r.stream_write(addr, n % 2048);
        }
        _ => {
            let dst = address(a.rotate_left(17));
            m.memcpy(addr, dst, n % 2048);
            r.memcpy(addr, dst, n % 2048);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn derived_counter_file_equals_direct_counting(
        stream in prop::collection::vec((0u8..11, any::<u64>(), any::<u32>()), 1..400),
    ) {
        for kind in [PlatformKind::PentiumM, PlatformKind::Pxa255] {
            let mut m = Machine::new(kind);
            let mut r = Reference::new(kind);
            for (i, charge) in stream.iter().enumerate() {
                apply(&mut m, &mut r, charge);
                let (got, want) = (m.snapshot(), r.snapshot());
                prop_assert_eq!(got, want, "{:?} after charge {} {:?}", kind, i, charge);
                prop_assert_eq!(got.wrapped32(), want.wrapped32());
                prop_assert_eq!(m.cycles_f64().to_bits(), r.cycles.to_bits());
            }
        }
    }
}
