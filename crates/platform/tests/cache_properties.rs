//! Property tests: the set-associative LRU cache against an executable
//! reference model, and machine cycle-accounting invariants.

use std::collections::VecDeque;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vmprobe_platform::{Cache, CacheConfig, CpuSpec, Machine, PlatformKind};

/// Reference model: per-set recency queues, most recent at the back.
struct RefLru {
    sets: u64,
    ways: usize,
    line_shift: u32,
    queues: Vec<VecDeque<u64>>,
}

impl RefLru {
    fn new(cfg: CacheConfig) -> Self {
        let sets = u64::from(cfg.sets());
        Self {
            sets,
            ways: cfg.ways as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            queues: (0..sets).map(|_| VecDeque::new()).collect(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line % self.sets) as usize;
        let q = &mut self.queues[set];
        if let Some(pos) = q.iter().position(|&l| l == line) {
            q.remove(pos);
            q.push_back(line);
            true
        } else {
            if q.len() == self.ways {
                q.pop_front();
            }
            q.push_back(line);
            false
        }
    }

    fn flush(&mut self) {
        self.queues.iter_mut().for_each(VecDeque::clear);
    }
}

/// Replay `ops` on a cache of geometry `cfg` and on the reference model,
/// checking every outcome and the final counters. Each op is a
/// `(selector, set, tag, offset)` draw: selector 0 flushes, anything else
/// touches a line in one of four sets, with half again as many tags as
/// the set has ways so that hits, last-way misses and evictions all occur.
fn replay_against_reference(
    cfg: CacheConfig,
    ops: &[(u8, u64, u64, u64)],
) -> Result<(), TestCaseError> {
    let mut cache = Cache::new(cfg);
    let mut oracle = RefLru::new(cfg);
    let sets = u64::from(cfg.sets());
    let tags = u64::from(cfg.ways + cfg.ways / 2);
    let line = u64::from(cfg.line_bytes);
    let (mut accesses, mut misses) = (0u64, 0u64);
    for (i, &(sel, set, tag, offset)) in ops.iter().enumerate() {
        if sel == 0 {
            cache.flush();
            oracle.flush();
            continue;
        }
        let addr = ((tag % tags) * sets + set) * line + offset % line;
        let hit = cache.access(addr);
        prop_assert_eq!(
            hit,
            oracle.access(addr),
            "{} diverged at op {} (addr {:#x})",
            cfg.name,
            i,
            addr
        );
        accesses += 1;
        misses += u64::from(!hit);
    }
    prop_assert_eq!(cache.stats().accesses, accesses);
    prop_assert_eq!(cache.stats().misses, misses);
    Ok(())
}

fn arb_cache_ops() -> impl Strategy<Value = Vec<(u8, u64, u64, u64)>> {
    prop::collection::vec((0u8..64, 0u64..4, any::<u64>(), any::<u64>()), 1..3000)
}

fn small_config() -> CacheConfig {
    CacheConfig {
        name: "prop",
        size_bytes: 1024,
        ways: 4,
        line_bytes: 32,
    }
}

proptest! {
    #[test]
    fn cache_matches_reference_lru(ops in arb_cache_ops()) {
        replay_against_reference(small_config(), &ops)?;
    }

    #[test]
    fn p6_l1d_matches_reference_lru_across_flushes(ops in arb_cache_ops()) {
        // 8-way, 64 B lines.
        replay_against_reference(CpuSpec::of(PlatformKind::PentiumM).l1d, &ops)?;
    }

    #[test]
    fn pxa255_l1d_matches_reference_lru_across_flushes(ops in arb_cache_ops()) {
        // 32-way, 32 B lines.
        replay_against_reference(CpuSpec::of(PlatformKind::Pxa255).l1d, &ops)?;
    }

    #[test]
    fn contains_never_lies(addrs in prop::collection::vec(0u64..2048, 1..200)) {
        let mut cache = Cache::new(small_config());
        for &a in &addrs {
            cache.access(a);
            prop_assert!(cache.contains(a), "just-accessed line must be resident");
        }
    }

    #[test]
    fn machine_cycles_are_monotonic_and_work_scales(
        ops in prop::collection::vec((0u8..5, 0u64..1_000_000), 1..300),
    ) {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut last = 0u64;
        for &(kind, addr) in &ops {
            match kind {
                0 => m.int_ops(3),
                1 => m.fp_ops(2),
                2 => m.load(0x1000_0000 + addr * 8),
                3 => m.store(0x1000_0000 + addr * 8),
                _ => m.branch(),
            }
            let now = m.cycles();
            prop_assert!(now >= last, "cycles must never go backwards");
            last = now;
        }
        // Instruction count equals what we charged.
        let expected: u64 = ops
            .iter()
            .map(|&(k, _)| match k {
                0 => 3,
                1 => 2,
                _ => 1,
            })
            .sum();
        prop_assert_eq!(m.hpm().instructions, expected);
    }

    #[test]
    fn snapshot_deltas_are_consistent(splits in prop::collection::vec(1u32..500, 2..20)) {
        let mut m = Machine::new(PlatformKind::Pxa255);
        let mut snaps = vec![m.snapshot()];
        for &n in &splits {
            m.int_ops(n);
            snaps.push(m.snapshot());
        }
        // Sum of window deltas equals the full-run delta.
        let total = snaps.last().unwrap().delta_since(&snaps[0]);
        let sum_instr: u64 = snaps
            .windows(2)
            .map(|w| w[1].delta_since(&w[0]).instructions)
            .sum();
        prop_assert_eq!(total.instructions, sum_instr);
        let sum_cycles: u64 = snaps
            .windows(2)
            .map(|w| w[1].delta_since(&w[0]).cycles)
            .sum();
        prop_assert_eq!(total.cycles, sum_cycles);
    }
}
