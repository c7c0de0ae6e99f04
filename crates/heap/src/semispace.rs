//! The SemiSpace copying collector.
//!
//! The heap is split into two halves; allocation bumps a cursor through the
//! active half, and when it runs out every live object is traced and copied
//! into the other half (in breadth-first trace order, which compacts and
//! improves mutator locality), after which the halves swap roles. Copy cost
//! is proportional to *live* data — the mechanism behind the dramatic EDP
//! improvements the paper observes for SemiSpace as heap size grows
//! (Section VI-B: `_213_javac` drops 56% in EDP from 32 MB to 48 MB).
//!
//! The copy loop is `evacuate`, which GenCopy's major collection also
//! runs over its mature semispace pair.

use std::collections::VecDeque;

use vmprobe_platform::Exec;

use crate::plan::{align8, charge_alloc, charge_root_scan, charge_scan, heap_region, mark};
use crate::{
    AllocError, AllocRequest, CollectionKind, CollectionStats, CollectorKind, CollectorPlan,
    GcStats, ObjId, Object, ObjectHeap, RootSet, Space,
};

/// SemiSpace plan state. See the module docs for the algorithm.
#[derive(Debug, Clone)]
pub struct SemiSpace {
    heap_bytes: u64,
    half_bytes: u64,
    active: u8,
    cursor: u64,
    epoch: u32,
    /// A fit failed or a collection ran (see [`CollectorPlan::heap_bound`]).
    heap_bound: bool,
    stats: GcStats,
}

impl SemiSpace {
    /// Create a plan managing `heap_bytes` of simulated heap (half usable
    /// for allocation at a time, as in any semispace design).
    ///
    /// # Panics
    ///
    /// Panics if `heap_bytes < 4096` — too small to hold a single frame of
    /// workload data.
    pub fn new(heap_bytes: u64) -> Self {
        assert!(heap_bytes >= 4096, "heap too small");
        Self {
            heap_bytes,
            half_bytes: heap_bytes / 2,
            active: 0,
            cursor: 0,
            epoch: 0,
            heap_bound: false,
            stats: GcStats::default(),
        }
    }

    fn half_base(&self, half: u8) -> u64 {
        heap_region(u64::from(half) * self.half_bytes)
    }

    /// Bytes currently bump-allocated in the active half.
    pub fn used_bytes(&self) -> u64 {
        self.cursor
    }
}

impl CollectorPlan for SemiSpace {
    fn kind(&self) -> CollectorKind {
        CollectorKind::SemiSpace
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
        if self.cursor + size > self.half_bytes {
            self.heap_bound = true;
            return Err(AllocError::NeedsGc);
        }
        let addr = self.half_base(self.active) + self.cursor;
        self.cursor += size;
        charge_alloc(exec, addr, size as u32);
        let id = heap.insert(Object::new(
            addr,
            size as u32,
            req.kind,
            Space::Half(self.active),
            req.ref_len,
            req.prim_len,
        ));
        Ok(id)
    }

    fn collect(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> CollectionStats {
        let start = exec.cycles();
        // To-space starts half a heap up.
        self.heap_bound = true;
        self.epoch += 1;
        charge_root_scan(exec, roots);
        let to = 1 - self.active;
        let (mut c, to_cursor) = evacuate(heap, roots, exec, self.epoch, self.half_base(to), to);
        self.active = to;
        self.cursor = to_cursor;
        c.pause_cycles = exec.cycles() - start;
        self.stats.record(&c);
        c
    }

    fn stats(&self) -> &GcStats {
        &self.stats
    }

    fn heap_bound(&self) -> bool {
        self.heap_bound
    }
}

/// Copy everything reachable from `roots` into half `to` at `to_base`,
/// breadth first, then free whatever `epoch` left unmarked. Shared by
/// [`SemiSpace`] and the copying mature space of the generational plan.
/// Returns the collection's stats (pause left at zero for the caller) and
/// the bytes now bump-allocated in `to`.
pub(crate) fn evacuate(
    heap: &mut ObjectHeap,
    roots: &RootSet,
    exec: &mut dyn Exec,
    epoch: u32,
    to_base: u64,
    to: u8,
) -> (CollectionStats, u64) {
    let mut queue: VecDeque<ObjId> = VecDeque::new();
    for &r in &roots.refs {
        if mark(heap, r, epoch) {
            queue.push_back(r);
        }
    }

    let mut to_cursor = 0u64;
    let mut live_objects = 0u64;
    let mut live_bytes = 0u64;
    while let Some(id) = queue.pop_front() {
        // Copy to to-space in trace order (compaction => locality).
        let (old_addr, size) = {
            let o = heap.get(id);
            (o.addr, o.size)
        };
        let new_addr = to_base + to_cursor;
        to_cursor += align8(u64::from(size));
        exec.memcpy(old_addr, new_addr, size);
        {
            let o = heap.get_mut(id);
            o.addr = new_addr;
            o.space = Space::Half(to);
            o.set_in_remset(false);
        }
        charge_scan(exec, heap.get(id));
        for i in 0..heap.get(id).ref_count() {
            if let Some(t) = heap.get_ref(id, i) {
                if mark(heap, t, epoch) {
                    queue.push_back(t);
                }
            }
        }
        live_objects += 1;
        live_bytes += u64::from(size);
    }

    let (freed_objects, freed_bytes) = heap.free_matching(|o| o.mark_epoch != epoch);
    let c = CollectionStats {
        kind: CollectionKind::Major,
        live_objects,
        live_bytes,
        freed_objects,
        freed_bytes,
        copied_bytes: live_bytes,
        pause_cycles: 0,
    };
    (c, to_cursor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_platform::{Machine, PlatformKind};

    fn setup() -> (ObjectHeap, SemiSpace, Machine) {
        (
            ObjectHeap::new(),
            SemiSpace::new(64 << 10),
            Machine::new(PlatformKind::PentiumM),
        )
    }

    #[test]
    fn alloc_bumps_addresses() {
        let (mut heap, mut plan, mut m) = setup();
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 1, 1), &mut m)
            .unwrap();
        let b = plan
            .alloc(&mut heap, AllocRequest::instance(0, 1, 1), &mut m)
            .unwrap();
        assert!(heap.get(b).addr() > heap.get(a).addr());
        assert_eq!(heap.get(b).addr() - heap.get(a).addr(), 32);
    }

    #[test]
    fn collect_preserves_reachable_and_frees_garbage() {
        let (mut heap, mut plan, mut m) = setup();
        let root = plan
            .alloc(&mut heap, AllocRequest::instance(0, 2, 0), &mut m)
            .unwrap();
        let kept = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        let _dead = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        heap.set_ref(root, 0, Some(kept));
        let stats = plan.collect(&mut heap, &RootSet::from_refs(vec![root]), &mut m);
        assert_eq!(stats.live_objects, 2);
        assert_eq!(stats.freed_objects, 1);
        assert_eq!(heap.live_objects(), 2);
        assert!(heap.contains(root) && heap.contains(kept));
    }

    #[test]
    fn collect_moves_survivors_to_other_half() {
        let (mut heap, mut plan, mut m) = setup();
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 2), &mut m)
            .unwrap();
        assert_eq!(heap.get(a).space(), Space::Half(0));
        let before = heap.get(a).addr();
        plan.collect(&mut heap, &RootSet::from_refs(vec![a]), &mut m);
        assert_eq!(heap.get(a).space(), Space::Half(1));
        assert_ne!(heap.get(a).addr(), before);
    }

    #[test]
    fn exhaustion_requests_gc_then_fits_after_collect() {
        let (mut heap, mut plan, mut m) = setup();
        // Fill the 32 KiB half with 128-byte garbage objects.
        let mut last = None;
        loop {
            match plan.alloc(&mut heap, AllocRequest::instance(0, 0, 14), &mut m) {
                Ok(id) => last = Some(id),
                Err(AllocError::NeedsGc) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        // Keep only the last object live.
        let stats = plan.collect(&mut heap, &RootSet::from_refs(vec![last.unwrap()]), &mut m);
        assert!(stats.freed_objects > 100);
        assert!(plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 14), &mut m)
            .is_ok());
    }

    #[test]
    fn cycles_and_pause_accumulate() {
        let (mut heap, mut plan, mut m) = setup();
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 100), &mut m)
            .unwrap();
        let stats = plan.collect(&mut heap, &RootSet::from_refs(vec![a]), &mut m);
        assert!(stats.pause_cycles > 0);
        assert_eq!(plan.stats().major_collections, 1);
        assert_eq!(plan.stats().total_copied_bytes, stats.copied_bytes);
    }

    #[test]
    fn cyclic_graphs_terminate_and_survive() {
        let (mut heap, mut plan, mut m) = setup();
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 1, 0), &mut m)
            .unwrap();
        let b = plan
            .alloc(&mut heap, AllocRequest::instance(0, 1, 0), &mut m)
            .unwrap();
        heap.set_ref(a, 0, Some(b));
        heap.set_ref(b, 0, Some(a));
        let stats = plan.collect(&mut heap, &RootSet::from_refs(vec![a]), &mut m);
        assert_eq!(stats.live_objects, 2);
    }
}
