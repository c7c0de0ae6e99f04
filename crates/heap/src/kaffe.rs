//! Kaffe's incremental, conservative, tri-color mark-sweep collector.
//!
//! Kaffe 1.1.4 (the version the paper measures) uses a non-moving
//! mark-sweep collector with three distinguishing behaviours this plan
//! reproduces:
//!
//! * **incremental**: once heap occupancy crosses a trigger threshold the
//!   collector marks in bounded slices interleaved with allocation, rather
//!   than one long pause — the reason Kaffe's GC shows up as many short
//!   component activations in the paper's traces;
//! * **conservative**: in addition to precise roots, every raw word in the
//!   mutator stacks ([`RootSet::ambiguous`]) that *looks like* a heap
//!   address pins the object whose cell it points into, retaining extra
//!   floating garbage. The words are resolved when a collection seeds its
//!   roots, in one pass over the object table, so allocation keeps no
//!   address index;
//! * **tri-color safety**: objects allocated during a marking cycle are
//!   allocated *black* (marked), and the final slice re-seeds from the
//!   current roots and completes the trace before sweeping, so no object
//!   reachable at sweep time is ever reclaimed.

use std::collections::VecDeque;

use vmprobe_platform::Exec;

use crate::marksweep::{sweep, SegregatedFreeList};
use crate::plan::{charge_alloc, charge_root_scan, charge_scan, heap_region, mark};
use crate::{
    AllocError, AllocRequest, CollectionStats, CollectorKind, CollectorPlan, GcStats, ObjId,
    Object, ObjectHeap, RootSet, Space,
};

/// Heap-occupancy fraction at which incremental marking begins.
const TRIGGER_FRACTION: f64 = 0.75;

/// Objects scanned per incremental slice.
const INCREMENT_BUDGET: usize = 192;

#[derive(Debug, Clone)]
enum Phase {
    Idle,
    Marking { queue: VecDeque<ObjId> },
}

/// Kaffe-style incremental conservative mark-sweep plan.
#[derive(Debug, Clone)]
pub struct KaffeIncremental {
    heap_bytes: u64,
    fl: SegregatedFreeList,
    epoch: u32,
    phase: Phase,
    trigger_bytes: u64,
    /// Occupancy crossed the trigger (see [`CollectorPlan::heap_bound`]).
    heap_bound: bool,
    stats: GcStats,
}

impl KaffeIncremental {
    /// Create a plan managing `heap_bytes` of simulated heap.
    ///
    /// # Panics
    ///
    /// Panics if `heap_bytes < 4096`.
    pub fn new(heap_bytes: u64) -> Self {
        assert!(heap_bytes >= 4096, "heap too small");
        Self {
            heap_bytes,
            fl: SegregatedFreeList::new(heap_region(0), heap_bytes),
            epoch: 0,
            phase: Phase::Idle,
            trigger_bytes: (heap_bytes as f64 * TRIGGER_FRACTION) as u64,
            heap_bound: false,
            stats: GcStats::default(),
        }
    }

    /// Cell-granular occupancy.
    pub fn used_bytes(&self) -> u64 {
        self.fl.used_bytes()
    }

    /// Whether a marking cycle is in progress.
    pub fn is_marking(&self) -> bool {
        matches!(self.phase, Phase::Marking { .. })
    }

    /// Whether occupancy is past the heap-relative trigger; a `true`
    /// answer could be `false` at a larger heap, so it binds the run.
    fn over_trigger(&mut self) -> bool {
        let over = self.fl.used_bytes() > self.trigger_bytes;
        self.heap_bound |= over;
        over
    }

    /// Seed the mark queue from precise and ambiguous roots.
    ///
    /// Precise roots are marked first, then the ambiguous words in their
    /// original order; each word is charged as one range lookup whether
    /// or not it resolves (see [`conservative_targets`]).
    fn seed_roots(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
        queue: &mut VecDeque<ObjId>,
    ) {
        charge_root_scan(exec, roots);
        let epoch = self.epoch;
        for &r in &roots.refs {
            if mark(heap, r, epoch) {
                queue.push_back(r);
            }
        }
        // Conservative scan: each raw word costs a range lookup.
        for target in conservative_targets(heap, &roots.ambiguous) {
            exec.int_ops(4);
            if let Some(id) = target {
                if mark(heap, id, epoch) {
                    queue.push_back(id);
                }
            }
        }
    }

    /// Scan up to `budget` objects off the queue; returns objects scanned.
    fn mark_slice(
        &mut self,
        heap: &mut ObjectHeap,
        exec: &mut dyn Exec,
        queue: &mut VecDeque<ObjId>,
        budget: usize,
    ) -> u64 {
        let epoch = self.epoch;
        let mut scanned = 0u64;
        while scanned < budget as u64 {
            let Some(id) = queue.pop_front() else { break };
            charge_scan(exec, heap.get(id));
            for i in 0..heap.get(id).ref_count() {
                if let Some(t) = heap.get_ref(id, i) {
                    if mark(heap, t, epoch) {
                        queue.push_back(t);
                    }
                }
            }
            scanned += 1;
        }
        scanned
    }

    /// Run marking to completion from the current phase and sweep.
    fn finish_cycle(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> CollectionStats {
        let start = exec.cycles();
        let mut queue = match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Marking { queue } => queue,
            Phase::Idle => {
                self.epoch += 1;
                VecDeque::new()
            }
        };
        // Re-seed from the *current* roots (tri-color completion: anything
        // reachable now must be marked before we sweep).
        self.seed_roots(heap, roots, exec, &mut queue);
        let mut marked = 0u64;
        loop {
            let n = self.mark_slice(heap, exec, &mut queue, usize::MAX);
            marked += n;
            if queue.is_empty() {
                break;
            }
        }
        let swept = sweep(heap, &mut self.fl, exec, self.epoch, &mut self.stats);
        let c = CollectionStats {
            live_objects: swept.live_objects.max(marked),
            pause_cycles: exec.cycles() - start,
            ..swept
        };
        self.stats.record(&c);
        c
    }
}

/// Resolve each ambiguous word to the live object whose cell contains it
/// (start, interior, or the slack between the object's size and its cell
/// end), or to `None`; the result is in the words' order.
///
/// Cells never overlap, so this is the answer of a predecessor lookup in a
/// start-address index. It is computed in one pass over the object table,
/// binary-searching the sorted words for each cell, so allocation pays
/// nothing for the conservative scan.
fn conservative_targets(heap: &ObjectHeap, words: &[u64]) -> Vec<Option<ObjId>> {
    let mut targets = vec![None; words.len()];
    if words.is_empty() {
        return targets;
    }
    let mut sorted: Vec<(u64, usize)> = words.iter().copied().zip(0..).collect();
    sorted.sort_unstable();
    for id in heap.iter_ids() {
        let o = heap.get(id);
        let end = o.addr() + SegregatedFreeList::cell_size(o.size());
        let first = sorted.partition_point(|&(w, _)| w < o.addr());
        for &(_, i) in sorted[first..].iter().take_while(|&&(w, _)| w < end) {
            targets[i] = Some(id);
        }
    }
    targets
}

impl CollectorPlan for KaffeIncremental {
    fn kind(&self) -> CollectorKind {
        CollectorKind::KaffeIncremental
    }

    fn heap_bytes(&self) -> u64 {
        self.heap_bytes
    }

    fn alloc(
        &mut self,
        heap: &mut ObjectHeap,
        req: AllocRequest,
        exec: &mut dyn Exec,
    ) -> Result<ObjId, AllocError> {
        let size = req.size_bytes();
        let addr = self.fl.alloc(size, exec).ok_or(AllocError::NeedsGc)?;
        charge_alloc(exec, addr, size);
        let id = heap.insert(Object::new(
            addr,
            size,
            req.kind,
            Space::Cells,
            req.ref_len,
            req.prim_len,
        ));
        // Allocate black during a marking cycle.
        if self.is_marking() {
            heap.get_mut(id).mark_epoch = self.epoch;
        }
        Ok(id)
    }

    fn collect(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> CollectionStats {
        self.finish_cycle(heap, roots, exec)
    }

    fn wants_increment(&mut self) -> bool {
        self.is_marking() || self.over_trigger()
    }

    fn increment(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> Option<CollectionStats> {
        let start = exec.cycles();
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => {
                if !self.over_trigger() {
                    return None;
                }
                // Start a new cycle: bump epoch, seed roots, scan a slice.
                self.epoch += 1;
                let mut queue = VecDeque::new();
                self.seed_roots(heap, roots, exec, &mut queue);
                self.mark_slice(heap, exec, &mut queue, INCREMENT_BUDGET);
                self.stats.increments += 1;
                self.stats.total_pause_cycles += exec.cycles() - start;
                // Keep the cycle's phase (and epoch) alive for the finish.
                self.phase = Phase::Marking { queue };
                if let Phase::Marking { queue } = &self.phase {
                    if queue.is_empty() {
                        return Some(self.finish_cycle(heap, roots, exec));
                    }
                }
                None
            }
            Phase::Marking { mut queue } => {
                self.mark_slice(heap, exec, &mut queue, INCREMENT_BUDGET);
                self.stats.increments += 1;
                self.stats.total_pause_cycles += exec.cycles() - start;
                let done = queue.is_empty();
                self.phase = Phase::Marking { queue };
                if done {
                    Some(self.finish_cycle(heap, roots, exec))
                } else {
                    None
                }
            }
        }
    }

    fn stats(&self) -> &GcStats {
        &self.stats
    }

    fn heap_bound(&self) -> bool {
        self.heap_bound || self.fl.heap_bound()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use vmprobe_platform::{Machine, PlatformKind};

    use super::*;

    fn setup(bytes: u64) -> (ObjectHeap, KaffeIncremental, Machine) {
        (
            ObjectHeap::new(),
            KaffeIncremental::new(bytes),
            Machine::new(PlatformKind::PentiumM),
        )
    }

    #[test]
    fn precise_collection_frees_garbage() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let live = plan
            .alloc(&mut heap, AllocRequest::instance(0, 1, 1), &mut m)
            .unwrap();
        let _dead = plan
            .alloc(&mut heap, AllocRequest::instance(0, 1, 1), &mut m)
            .unwrap();
        let s = plan.collect(&mut heap, &RootSet::from_refs(vec![live]), &mut m);
        assert_eq!(s.freed_objects, 1);
        assert!(heap.contains(live));
    }

    #[test]
    fn ambiguous_word_pins_object() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        // A raw word pointing into the middle of `a`'s cell.
        let interior = heap.get(a).addr() + 12;
        let roots = RootSet {
            refs: vec![],
            ambiguous: vec![interior],
        };
        let s = plan.collect(&mut heap, &roots, &mut m);
        assert_eq!(s.freed_objects, 0);
        assert!(
            heap.contains(a),
            "conservatively pinned object must survive"
        );
    }

    #[test]
    fn non_pointer_words_do_not_pin() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        let roots = RootSet {
            refs: vec![],
            ambiguous: vec![7, 0xdead_beef],
        };
        plan.collect(&mut heap, &roots, &mut m);
        assert!(!heap.contains(a));
    }

    #[test]
    fn incremental_cycle_triggers_under_pressure_and_completes() {
        let (mut heap, mut plan, mut m) = setup(32 << 10);
        let mut roots = Vec::new();
        // Fill past the 75% trigger with half-live data (96-byte cells;
        // 300 x 96 = 28.1 KiB > 24 KiB trigger).
        for i in 0..300 {
            let id = plan
                .alloc(&mut heap, AllocRequest::instance(0, 0, 10), &mut m)
                .unwrap();
            if i % 2 == 0 {
                roots.push(id);
            }
        }
        assert!(plan.wants_increment());
        let rs = RootSet::from_refs(roots);
        let mut completed = false;
        for _ in 0..64 {
            if let Some(s) = plan.increment(&mut heap, &rs, &mut m) {
                assert!(s.freed_objects > 0);
                completed = true;
                break;
            }
        }
        assert!(completed, "incremental cycle should finish");
        assert!(plan.stats().increments > 0);
        assert!(!plan.is_marking());
    }

    #[test]
    fn objects_allocated_during_marking_survive() {
        let (mut heap, mut plan, mut m) = setup(32 << 10);
        let mut roots = Vec::new();
        for _ in 0..280 {
            roots.push(
                plan.alloc(&mut heap, AllocRequest::instance(0, 0, 10), &mut m)
                    .unwrap(),
            );
        }
        let rs = RootSet::from_refs(roots.clone());
        // Start marking.
        assert!(plan.increment(&mut heap, &rs, &mut m).is_none());
        assert!(plan.is_marking());
        // Allocate mid-cycle, hold no root to it *during the remaining
        // increments*, but it was allocated black so it survives the sweep.
        let mid = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 2), &mut m)
            .unwrap();
        for _ in 0..64 {
            if plan.increment(&mut heap, &rs, &mut m).is_some() {
                break;
            }
        }
        assert!(heap.contains(mid));
    }

    #[test]
    fn floating_garbage_is_collected_next_cycle() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        // First cycle: a live.
        plan.collect(&mut heap, &RootSet::from_refs(vec![a]), &mut m);
        assert!(heap.contains(a));
        // Second cycle: a dead.
        plan.collect(&mut heap, &RootSet::new(), &mut m);
        assert!(!heap.contains(a));
    }

    #[test]
    fn cells_are_reused_after_sweep() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        let addr = heap.get(a).addr();
        plan.collect(&mut heap, &RootSet::new(), &mut m);
        let b = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        assert_eq!(heap.get(b).addr(), addr);
    }

    /// The start-address index Kaffe's plan once kept for conservative
    /// roots: every live cell by start address, resolved by predecessor
    /// lookup.
    #[derive(Default)]
    struct PredecessorIndex(BTreeMap<u64, (ObjId, u32)>);

    impl PredecessorIndex {
        fn target(&self, word: u64) -> Option<ObjId> {
            let (&addr, &(id, size)) = self.0.range(..=word).next_back()?;
            (word < addr + SegregatedFreeList::cell_size(size)).then_some(id)
        }

        /// Drop every entry whose object a sweep freed, returning their
        /// addresses.
        fn prune(&mut self, heap: &ObjectHeap) -> Vec<u64> {
            let freed: Vec<u64> = self
                .0
                .iter()
                .filter(|(_, &(id, _))| !heap.contains(id))
                .map(|(&addr, _)| addr)
                .collect();
            for addr in &freed {
                self.0.remove(addr);
            }
            freed
        }
    }

    /// SplitMix64, for the words of one root set.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A root set drawn from `seed`: about a third of the live objects as
    /// precise roots, and ambiguous words at object starts, interiors,
    /// cell slack, exact cell ends, freed cells and outside the heap.
    fn draw_roots(seed: u64, heap: &ObjectHeap, freed: &[u64]) -> RootSet {
        let mut rng = seed;
        let live: Vec<ObjId> = heap.iter_ids().collect();
        let mut roots = RootSet::new();
        for &id in &live {
            if next(&mut rng).is_multiple_of(3) {
                roots.refs.push(id);
            }
        }
        for _ in 0..next(&mut rng) % 48 {
            let pick = next(&mut rng);
            let word = match (pick % 6, live.is_empty(), freed.is_empty()) {
                (0..=3, false, _) => {
                    let o = heap.get(live[(pick >> 8) as usize % live.len()]);
                    let cell = SegregatedFreeList::cell_size(o.size());
                    match pick % 4 {
                        0 => o.addr(),
                        1 => o.addr() + (pick >> 40) % u64::from(o.size()),
                        2 => o.addr() + u64::from(o.size()) + (pick >> 40) % 8,
                        _ => o.addr() + cell,
                    }
                }
                (4, _, false) => freed[(pick >> 8) as usize % freed.len()] + (pick >> 40) % 16,
                _ => [0, 7, heap_region(0) - 8, heap_region(1 << 30), u64::MAX]
                    [(pick >> 8) as usize % 5],
            };
            roots.ambiguous.push(word);
        }
        roots
    }

    /// Seed the roots of the collection `plan` would run next, on copies,
    /// and check the appended mark-queue order and the marked set against
    /// the predecessor index.
    fn check_seeding(
        plan: &KaffeIncremental,
        heap: &ObjectHeap,
        index: &PredecessorIndex,
        roots: &RootSet,
    ) -> Result<(), TestCaseError> {
        let (mut plan, mut heap) = (plan.clone(), heap.clone());
        let mut queue = match std::mem::replace(&mut plan.phase, Phase::Idle) {
            Phase::Marking { queue } => queue,
            Phase::Idle => {
                plan.epoch += 1;
                VecDeque::new()
            }
        };
        let epoch = plan.epoch;
        let marked_set = |heap: &ObjectHeap| -> BTreeSet<ObjId> {
            heap.iter_ids()
                .filter(|&id| heap.get(id).mark_epoch == epoch)
                .collect()
        };
        let mut want_marked = marked_set(&heap);
        let mut want_queue = Vec::new();
        let ambiguous = roots.ambiguous.iter().filter_map(|&w| index.target(w));
        for id in roots.refs.iter().copied().chain(ambiguous) {
            if want_marked.insert(id) {
                want_queue.push(id);
            }
        }
        let before = queue.len();
        let mut m = Machine::new(PlatformKind::PentiumM);
        plan.seed_roots(&mut heap, roots, &mut m, &mut queue);
        let got_queue: Vec<ObjId> = queue.iter().skip(before).copied().collect();
        prop_assert_eq!(got_queue, want_queue);
        prop_assert_eq!(marked_set(&heap), want_marked);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn conservative_roots_match_a_predecessor_index(
            ops in prop::collection::vec((0u8..10, any::<u64>()), 1..160),
        ) {
            let (mut heap, mut plan, mut m) = setup(24 << 10);
            let mut index = PredecessorIndex::default();
            let mut freed = Vec::new();
            for &(op, seed) in &ops {
                let roots = draw_roots(seed, &heap, &freed);
                let req = match seed % 8 {
                    // 16 + 3 * 8 = 40 bytes in a 48-byte cell.
                    0 => AllocRequest::instance(0, 1, 2),
                    // 8816 bytes, past the largest size class.
                    1 => AllocRequest::int_array(1100),
                    n => AllocRequest::instance(0, (seed >> 8) as u32 % 3, n as u32 * 3),
                };
                let allocated = op < 7 && {
                    match plan.alloc(&mut heap, req, &mut m) {
                        Ok(id) => {
                            let o = heap.get(id);
                            index.0.insert(o.addr(), (id, o.size()));
                            true
                        }
                        Err(_) => false,
                    }
                };
                if allocated {
                    continue;
                }
                if op == 7 && plan.wants_increment() {
                    plan.increment(&mut heap, &roots, &mut m);
                } else {
                    check_seeding(&plan, &heap, &index, &roots)?;
                    plan.collect(&mut heap, &roots, &mut m);
                }
                freed.extend(index.prune(&heap));
            }
        }
    }
}
