//! The generational plan behind GenCopy and GenMS.
//!
//! New objects go into a bump-allocated *nursery*; when it fills, a
//! **minor** collection traces only the nursery-reachable subgraph (roots
//! plus the remembered set maintained by the mutator write barrier) and
//! promotes survivors into the mature space. The two collectors are one
//! plan over two mature spaces — the bottom half of the paper's Figure 3:
//!
//! * **GenCopy**: a semispace pair whose major collection is SemiSpace's
//!   `evacuate`;
//! * **GenMS**: a segregated free list whose major collection is a full
//!   breadth-first trace followed by MarkSweep's `sweep`.
//!
//! [`Mature`] decides only what differs: room for one object, free space
//! and which major collection runs. The nursery, the allocation front end,
//! the major trigger, the trace, the write barrier and `collect_full` exist
//! once.
//!
//! A survivor whose promotion fails stays in the nursery, so a collection
//! resets the nursery only when it left no survivor there; otherwise the
//! nursery stays full and the next allocation forces a major collection.
//!
//! The generational hypothesis does the work: most objects die in the
//! nursery, so minor collections are cheap (cost ∝ survivors), which is why
//! the paper finds generational collectors dominating the energy-delay
//! product at small heaps (Section VI-B), at the price of write-barrier
//! overhead on every mutator pointer store — the overhead it blames for
//! `_209_db`'s SemiSpace inversion at 128 MB.

use std::collections::VecDeque;

use vmprobe_platform::Exec;

use crate::marksweep::{sweep, SegregatedFreeList};
use crate::plan::{
    align8, charge_alloc, charge_remember, charge_root_scan, charge_scan, heap_region, mark,
};
use crate::semispace::evacuate;
use crate::{
    AllocError, AllocRequest, CollectionKind, CollectionStats, CollectorKind, CollectorPlan,
    GcStats, ObjId, Object, ObjectHeap, RootSet, Space,
};

/// Fraction of the heap dedicated to the nursery (before capping).
pub const NURSERY_FRACTION: f64 = 0.25;

/// Upper bound on nursery size in simulated bytes (a bounded nursery, as in
/// production generational configurations).
pub const NURSERY_MAX_BYTES: u64 = 512 << 10;

/// Objects at or above this size allocate directly into the mature space
/// (a minimal large-object-space policy).
pub(crate) const LOS_THRESHOLD: u32 = 32 << 10;

/// A collection goes major when the mature space or the flexible nursery
/// would leave less than this for the next nursery cycle.
const MIN_CYCLE_BYTES: u64 = 16 << 10;

fn nursery_bytes(heap_bytes: u64) -> u64 {
    let frac = (heap_bytes as f64 * NURSERY_FRACTION) as u64;
    align8(frac.clamp(4096, NURSERY_MAX_BYTES))
}

#[derive(Debug, Clone)]
struct Nursery {
    base: u64,
    size: u64,
    cursor: u64,
}

impl Nursery {
    fn alloc(&mut self, size: u64) -> Option<u64> {
        if self.cursor + size > self.size {
            None
        } else {
            let addr = self.base + self.cursor;
            self.cursor += size;
            Some(addr)
        }
    }

    fn used(&self) -> u64 {
        self.cursor
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

/// The mature space: the one thing GenCopy and GenMS do not share.
#[derive(Debug, Clone)]
enum Mature {
    /// GenCopy: two halves of `half` bytes from `base`, bump-allocated
    /// through the `active` one.
    Copying {
        base: u64,
        half: u64,
        active: u8,
        cursor: u64,
    },
    /// GenMS: free-list cells, reclaimed by sweeping.
    Cells(SegregatedFreeList),
}

impl Mature {
    fn free(&self) -> u64 {
        match self {
            Mature::Copying { half, cursor, .. } => half.saturating_sub(*cursor),
            Mature::Cells(fl) => fl.capacity().saturating_sub(fl.used_bytes()),
        }
    }

    /// Room for an object of `size` bytes: its address, the size it is
    /// stored (and charged) with, and its space. `None` when full.
    fn room(&mut self, size: u32, exec: &mut dyn Exec) -> Option<(u64, u32, Space)> {
        match self {
            Mature::Copying {
                base,
                half,
                active,
                cursor,
            } => {
                let stored = align8(u64::from(size));
                if *cursor + stored > *half {
                    return None;
                }
                let addr = *base + u64::from(*active) * *half + *cursor;
                *cursor += stored;
                Some((addr, stored as u32, Space::Half(*active)))
            }
            Mature::Cells(fl) => Some((fl.alloc(size, exec)?, size, Space::Cells)),
        }
    }
}

/// One generational plan: a nursery and remembered set over a [`Mature`]
/// space.
#[derive(Debug, Clone)]
pub(crate) struct Generational {
    heap_bytes: u64,
    nursery: Nursery,
    remset: Vec<ObjId>,
    mature: Mature,
    epoch: u32,
    force_major: bool,
    /// The run took a heap-size-dependent branch (see
    /// [`CollectorPlan::heap_bound`]).
    heap_bound: bool,
    stats: GcStats,
}

impl Generational {
    /// A GenCopy or GenMS plan over `heap_bytes`, with an optional nursery
    /// size (ablation studies of the nursery-sizing policy). The caller
    /// has checked `heap_bytes` against [`CollectorKind::min_heap_bytes`].
    pub(crate) fn new(kind: CollectorKind, heap_bytes: u64, nursery: Option<u64>) -> Self {
        // The nursery any large enough heap would get; a smaller one means
        // the fraction or the half-heap clamp bound.
        let unclamped = align8(nursery.unwrap_or(NURSERY_MAX_BYTES).max(4096));
        let nursery = nursery.unwrap_or_else(|| nursery_bytes(heap_bytes));
        let nsz = align8(nursery.clamp(4096, heap_bytes / 2));
        let base = heap_region(nsz);
        let mature = match kind {
            CollectorKind::GenCopy => Mature::Copying {
                base,
                half: (heap_bytes - nsz) / 2,
                active: 0,
                cursor: 0,
            },
            CollectorKind::GenMs => Mature::Cells(SegregatedFreeList::new(base, heap_bytes - nsz)),
            other => unreachable!("{other} is not generational"),
        };
        Self {
            heap_bytes,
            nursery: Nursery {
                base: heap_region(0),
                size: nsz,
                cursor: 0,
            },
            remset: Vec::new(),
            mature,
            epoch: 0,
            force_major: false,
            heap_bound: nsz != unclamped,
            stats: GcStats::default(),
        }
    }

    /// Appel-style flexible nursery: never let more accumulate in the
    /// nursery than the mature space could absorb, so minor collections
    /// always succeed and majors only run when the mature space is truly
    /// full. A limit the mature space caps depends on the heap.
    fn effective_nursery_limit(&mut self) -> u64 {
        let free = self.mature.free();
        if free < self.nursery.size {
            self.heap_bound = true;
            return free;
        }
        self.nursery.size
    }

    /// Major only when the mature space cannot host another useful nursery
    /// cycle (the flexible nursery guarantees promotions fit). A `true`
    /// answer could be `false` at a larger heap.
    fn need_major(&mut self) -> bool {
        let major = self.force_major
            || self.mature.free() < self.nursery.used().max(MIN_CYCLE_BYTES)
            || self.effective_nursery_limit() < MIN_CYCLE_BYTES;
        self.heap_bound |= major;
        major
    }

    /// Room for `size` bytes in the mature space. When it is full, the
    /// next collection is forced major.
    fn room(&mut self, size: u32, exec: &mut dyn Exec) -> Option<(u64, u32, Space)> {
        let room = self.mature.room(size, exec);
        if room.is_none() {
            self.force_major = true;
            self.heap_bound = true;
        }
        room
    }

    /// Move nursery object `id` into the mature space; `None` when the
    /// mature space has no room for it.
    fn promote(&mut self, heap: &mut ObjectHeap, id: ObjId, exec: &mut dyn Exec) -> Option<u64> {
        let (old_addr, size) = {
            let o = heap.get(id);
            (o.addr, o.size)
        };
        let (new_addr, _, space) = self.room(size, exec)?;
        exec.memcpy(old_addr, new_addr, size);
        let o = heap.get_mut(id);
        o.addr = new_addr;
        o.space = space;
        Some(u64::from(size))
    }

    /// Breadth-first trace from `roots` that promotes every nursery
    /// survivor it reaches. A minor (`nursery_only`) trace stays inside
    /// the nursery and also starts from the remembered set. Returns the
    /// live objects, live bytes and promoted bytes.
    fn trace(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
        epoch: u32,
        nursery_only: bool,
    ) -> (u64, u64, u64) {
        let mut queue: VecDeque<ObjId> = VecDeque::new();
        let admit =
            |heap: &ObjectHeap, id: ObjId| !nursery_only || heap.get(id).space() == Space::Nursery;
        for &r in &roots.refs {
            if admit(heap, r) && mark(heap, r, epoch) {
                queue.push_back(r);
            }
        }
        if nursery_only {
            // Remembered set: scan each recorded mature object for nursery refs.
            for src in std::mem::take(&mut self.remset) {
                if !heap.contains(src) {
                    continue;
                }
                charge_scan(exec, heap.get(src));
                heap.get_mut(src).set_in_remset(false);
                for i in 0..heap.get(src).ref_count() {
                    if let Some(t) = heap.get_ref(src, i) {
                        if heap.get(t).space() == Space::Nursery && mark(heap, t, epoch) {
                            queue.push_back(t);
                        }
                    }
                }
            }
        }

        let mut live_objects = 0u64;
        let mut live_bytes = 0u64;
        let mut copied = 0u64;
        while let Some(id) = queue.pop_front() {
            if heap.get(id).space() == Space::Nursery {
                // Promotion fails only when the mature space is utterly
                // full; the object then stays in the nursery and the next
                // collection is forced major.
                copied += self.promote(heap, id, exec).unwrap_or(0);
            }
            live_objects += 1;
            live_bytes += u64::from(heap.get(id).size());
            charge_scan(exec, heap.get(id));
            for i in 0..heap.get(id).ref_count() {
                if let Some(t) = heap.get_ref(id, i) {
                    if admit(heap, t) && mark(heap, t, epoch) {
                        queue.push_back(t);
                    }
                }
            }
        }
        (live_objects, live_bytes, copied)
    }

    /// Collect the nursery alone, promoting its survivors.
    fn minor(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
        epoch: u32,
    ) -> CollectionStats {
        let (live_objects, live_bytes, copied_bytes) = self.trace(heap, roots, exec, epoch, true);
        let (freed_objects, freed_bytes) =
            heap.free_matching(|o| o.space == Space::Nursery && o.mark_epoch != epoch);
        CollectionStats {
            kind: CollectionKind::Minor,
            live_objects,
            live_bytes,
            freed_objects,
            freed_bytes,
            copied_bytes,
            pause_cycles: 0,
        }
    }

    /// Collect the whole heap with the mature space's own major collection.
    fn major(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
        epoch: u32,
    ) -> CollectionStats {
        if let Mature::Copying {
            base,
            half,
            active,
            cursor,
        } = &mut self.mature
        {
            let to = 1 - *active;
            let (c, to_cursor) =
                evacuate(heap, roots, exec, epoch, *base + u64::from(to) * *half, to);
            *active = to;
            *cursor = to_cursor;
            return c;
        }
        let (live_objects, live_bytes, copied_bytes) = self.trace(heap, roots, exec, epoch, false);
        let Mature::Cells(fl) = &mut self.mature else {
            unreachable!("the copying major returned above")
        };
        CollectionStats {
            live_objects,
            live_bytes,
            copied_bytes,
            ..sweep(heap, fl, exec, epoch, &mut self.stats)
        }
    }
}

impl CollectorPlan for Generational {
    fn kind(&self) -> CollectorKind {
        match self.mature {
            Mature::Copying { .. } => CollectorKind::GenCopy,
            Mature::Cells(_) => CollectorKind::GenMs,
        }
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
        let size = align8(u64::from(req.size_bytes()));
        let (addr, stored, space) = if req.size_bytes() >= LOS_THRESHOLD || size > self.nursery.size
        {
            // Large object: straight into the mature space.
            self.room(req.size_bytes(), exec)
                .ok_or(AllocError::NeedsGc)?
        } else if self.nursery.used() + size > self.effective_nursery_limit() {
            return Err(AllocError::NeedsGc);
        } else {
            let addr = self.nursery.alloc(size).ok_or(AllocError::NeedsGc)?;
            (addr, size as u32, Space::Nursery)
        };
        charge_alloc(exec, addr, stored);
        Ok(heap.insert(Object::new(
            addr,
            stored,
            req.kind,
            space,
            req.ref_len,
            req.prim_len,
        )))
    }

    fn collect(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> CollectionStats {
        let start = exec.cycles();
        let major = self.need_major();
        self.force_major = false;
        self.epoch += 1;
        let epoch = self.epoch;
        charge_root_scan(exec, roots);
        let mut c = if major {
            self.major(heap, roots, exec, epoch)
        } else {
            self.minor(heap, roots, exec, epoch)
        };
        // A failed promotion set `force_major` and left its survivor in
        // the nursery: keep the nursery full so no new object takes its
        // address before the forced major collection.
        if !self.force_major {
            self.nursery.reset();
        }
        self.remset.clear();
        c.pause_cycles = exec.cycles() - start;
        self.stats.record(&c);
        c
    }

    fn collect_full(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> CollectionStats {
        self.force_major = true;
        self.collect(heap, roots, exec)
    }

    fn write_barrier(
        &mut self,
        heap: &mut ObjectHeap,
        src: ObjId,
        target: Option<ObjId>,
        exec: &mut dyn Exec,
    ) {
        self.stats.barrier_stores += 1;
        exec.int_ops(2);
        if let Some(t) = target {
            if heap.get(src).space() != Space::Nursery
                && heap.get(t).space() == Space::Nursery
                && !heap.get(src).in_remset()
            {
                heap.get_mut(src).set_in_remset(true);
                self.remset.push(src);
                self.stats.barrier_remembers += 1;
                charge_remember(exec, self.remset.len() as u64);
            }
        }
    }

    fn stats(&self) -> &GcStats {
        &self.stats
    }

    fn heap_bound(&self) -> bool {
        self.heap_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_platform::{Machine, PlatformKind};

    const HEAP: u64 = 256 << 10;

    fn gen_copy(heap_bytes: u64) -> Generational {
        Generational::new(CollectorKind::GenCopy, heap_bytes, None)
    }

    fn gen_ms(heap_bytes: u64) -> Generational {
        Generational::new(CollectorKind::GenMs, heap_bytes, None)
    }

    impl Generational {
        fn nursery_used(&self) -> u64 {
            self.nursery.used()
        }

        fn remset_len(&self) -> usize {
            self.remset.len()
        }
    }

    fn small(plan: &mut dyn CollectorPlan, heap: &mut ObjectHeap, m: &mut Machine) -> ObjId {
        plan.alloc(heap, AllocRequest::instance(0, 2, 2), m)
            .unwrap()
    }

    #[test]
    fn gencopy_allocates_in_nursery_first() {
        let mut heap = ObjectHeap::new();
        let mut plan = gen_copy(HEAP);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let a = small(&mut plan, &mut heap, &mut m);
        assert_eq!(heap.get(a).space(), Space::Nursery);
        assert!(plan.nursery_used() > 0);
    }

    #[test]
    fn gencopy_minor_promotes_survivors() {
        let mut heap = ObjectHeap::new();
        let mut plan = gen_copy(HEAP);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let a = small(&mut plan, &mut heap, &mut m);
        let stats = plan.collect(&mut heap, &RootSet::from_refs(vec![a]), &mut m);
        assert_eq!(stats.kind, CollectionKind::Minor);
        assert_eq!(stats.live_objects, 1);
        assert!(matches!(heap.get(a).space(), Space::Half(_)));
        assert_eq!(plan.nursery_used(), 0);
    }

    #[test]
    fn write_barrier_remembers_mature_to_nursery_edges() {
        let mut heap = ObjectHeap::new();
        let mut plan = gen_copy(HEAP);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let old = small(&mut plan, &mut heap, &mut m);
        plan.collect(&mut heap, &RootSet::from_refs(vec![old]), &mut m); // promote old
        let young = small(&mut plan, &mut heap, &mut m);
        plan.write_barrier(&mut heap, old, Some(young), &mut m);
        heap.set_ref(old, 0, Some(young));
        assert_eq!(plan.remset_len(), 1);
        // Minor with NO precise root for `young`: only the remset keeps it.
        let stats = plan.collect(&mut heap, &RootSet::from_refs(vec![old]), &mut m);
        assert_eq!(stats.kind, CollectionKind::Minor);
        assert!(heap.contains(young));
        assert!(matches!(heap.get(young).space(), Space::Half(_)));
        assert_eq!(plan.stats().barrier_remembers, 1);
    }

    #[test]
    fn without_barrier_nursery_object_referenced_only_from_mature_dies() {
        // Demonstrates why the barrier is required: this is the unsafe
        // behaviour the barrier exists to prevent.
        let mut heap = ObjectHeap::new();
        let mut plan = gen_copy(HEAP);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let old = small(&mut plan, &mut heap, &mut m);
        plan.collect(&mut heap, &RootSet::from_refs(vec![old]), &mut m);
        let young = small(&mut plan, &mut heap, &mut m);
        heap.set_ref(old, 0, Some(young)); // no barrier call!
        plan.collect(&mut heap, &RootSet::from_refs(vec![old]), &mut m);
        assert!(!heap.contains(young));
    }

    #[test]
    fn gencopy_major_runs_when_mature_fills() {
        let mut heap = ObjectHeap::new();
        let mut plan = gen_copy(64 << 10); // tiny heap
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut roots = Vec::new();
        let mut minor_seen = false;
        let mut major_seen = false;
        for _ in 0..2000 {
            match plan.alloc(&mut heap, AllocRequest::instance(0, 0, 6), &mut m) {
                Ok(id) => {
                    // Retain enough survivors to pressure the mature space.
                    if roots.len() < 300 {
                        roots.push(id);
                    }
                }
                Err(AllocError::NeedsGc) => {
                    let s = plan.collect(&mut heap, &RootSet::from_refs(roots.clone()), &mut m);
                    match s.kind {
                        CollectionKind::Minor => minor_seen = true,
                        CollectionKind::Major => major_seen = true,
                        CollectionKind::Increment => {}
                    }
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(minor_seen, "expected minor collections");
        assert!(major_seen, "expected a major collection on a tiny heap");
    }

    #[test]
    fn genms_minor_promotes_into_cells() {
        let mut heap = ObjectHeap::new();
        let mut plan = gen_ms(HEAP);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let a = small(&mut plan, &mut heap, &mut m);
        let stats = plan.collect(&mut heap, &RootSet::from_refs(vec![a]), &mut m);
        assert_eq!(stats.kind, CollectionKind::Minor);
        assert_eq!(heap.get(a).space(), Space::Cells);
    }

    #[test]
    fn genms_major_sweeps_dead_mature_objects() {
        let mut heap = ObjectHeap::new();
        let mut plan = gen_ms(HEAP);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let a = small(&mut plan, &mut heap, &mut m);
        let b = small(&mut plan, &mut heap, &mut m);
        // Promote both.
        plan.collect(&mut heap, &RootSet::from_refs(vec![a, b]), &mut m);
        assert_eq!(heap.get(b).space(), Space::Cells);
        // Force a major; only `a` stays live.
        plan.force_major = true;
        let stats = plan.collect(&mut heap, &RootSet::from_refs(vec![a]), &mut m);
        assert_eq!(stats.kind, CollectionKind::Major);
        assert!(heap.contains(a));
        assert!(!heap.contains(b));
        assert!(plan.stats().total_swept_objects >= 2);
    }

    #[test]
    fn large_objects_bypass_the_nursery() {
        let mut heap = ObjectHeap::new();
        let mut plan = gen_copy(4 << 20);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let big = plan
            .alloc(
                &mut heap,
                AllocRequest::int_array((LOS_THRESHOLD / 8) + 16),
                &mut m,
            )
            .unwrap();
        assert!(matches!(heap.get(big).space(), Space::Half(_)));
        let mut plan2 = gen_ms(4 << 20);
        let big2 = plan2
            .alloc(
                &mut heap,
                AllocRequest::int_array((LOS_THRESHOLD / 8) + 16),
                &mut m,
            )
            .unwrap();
        assert_eq!(heap.get(big2).space(), Space::Cells);
    }

    #[test]
    fn nursery_sizing_respects_fraction_and_cap() {
        assert_eq!(nursery_bytes(4 << 20), 512 << 10); // capped
        assert_eq!(nursery_bytes(1 << 20), 256 << 10); // fraction
        assert!(nursery_bytes(20_000) >= 4096); // floor
    }
}
