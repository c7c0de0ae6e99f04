//! The MarkSweep collector and its segregated free-list allocator.
//!
//! MarkSweep never moves objects: allocation finds a free cell of a
//! matching size class (or carves a new one from the wilderness), marking
//! traces the live graph, and sweeping then visits *every* allocated cell to
//! return dead ones to their free lists. Sweep cost therefore scales with
//! heap occupancy rather than live data — and the lack of compaction leaves
//! mutator locality fragmented, the behaviour behind MarkSweep's lower
//! average power (11.7 W in the paper, Section VI-C: more stall time, lower
//! IPC) but frequently higher energy.
//!
//! The sweep is `sweep`, which GenMS's major collection and Kaffe's
//! collector also run. The mark loop stays here: it is depth first, while
//! GenMS traces breadth first and Kaffe marks in slices, and the order
//! decides the cache charges.

use vmprobe_platform::Exec;

use crate::plan::{align8, charge_alloc, charge_root_scan, charge_scan, heap_region, mark};
use crate::{
    AllocError, AllocRequest, CollectionKind, CollectionStats, CollectorKind, CollectorPlan,
    GcStats, ObjId, Object, ObjectHeap, RootSet, Space,
};

/// Cell size classes in bytes. Requests above the largest class get an
/// exact-size "large" cell.
pub const SIZE_CLASSES: [u32; 16] = [
    16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096, 8192,
];

/// A segregated free-list allocator over a contiguous simulated region.
///
/// Shared by [`MarkSweep`], the GenMS mature space and the Kaffe collector.
/// Accounting is *cell*-granular: a 40-byte object in a 48-byte cell
/// consumes 48 bytes — internal fragmentation is modeled.
#[derive(Debug, Clone)]
pub struct SegregatedFreeList {
    base: u64,
    limit: u64,
    bump: u64,
    free: Vec<Vec<u64>>,
    large_free: Vec<(u64, u64)>,
    used_bytes: u64,
    /// A wilderness carve failed (see [`CollectorPlan::heap_bound`]).
    heap_bound: bool,
}

impl SegregatedFreeList {
    /// Create an allocator over `[base, base + capacity)`.
    pub fn new(base: u64, capacity: u64) -> Self {
        Self {
            base,
            limit: base + capacity,
            bump: base,
            free: vec![Vec::new(); SIZE_CLASSES.len()],
            large_free: Vec::new(),
            used_bytes: 0,
            heap_bound: false,
        }
    }

    fn class_of(size: u32) -> Option<usize> {
        SIZE_CLASSES.iter().position(|&c| size <= c)
    }

    /// The cell size that would be used for an object of `size` bytes.
    pub fn cell_size(size: u32) -> u64 {
        match Self::class_of(size) {
            Some(ci) => u64::from(SIZE_CLASSES[ci]),
            None => align8(u64::from(size)),
        }
    }

    /// Cell-granular bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.limit - self.base
    }

    /// Whether a wilderness carve has failed: the one outcome of
    /// [`SegregatedFreeList::alloc`] that a larger region could change.
    pub fn heap_bound(&self) -> bool {
        self.heap_bound
    }

    /// Allocate a cell for `size` bytes; `None` when the region is
    /// exhausted. Charges the free-list search to `exec`.
    pub fn alloc(&mut self, size: u32, exec: &mut dyn Exec) -> Option<u64> {
        let cell = Self::cell_size(size);
        exec.int_ops(4);
        if let Some(ci) = Self::class_of(size) {
            if let Some(addr) = self.free[ci].pop() {
                exec.load(addr);
                self.used_bytes += cell;
                return Some(addr);
            }
        } else {
            // First-fit search of the large list.
            exec.int_ops(2 * self.large_free.len() as u32);
            if let Some(pos) = self.large_free.iter().position(|&(_, s)| s >= cell) {
                let (addr, s) = self.large_free.swap_remove(pos);
                // Remainder is abandoned (modeled fragmentation) unless it
                // is itself a whole size class worth keeping.
                let rem = s - cell;
                if rem >= 64 {
                    self.large_free.push((addr + cell, rem));
                }
                self.used_bytes += cell;
                return Some(addr);
            }
        }
        // Carve from the wilderness.
        if self.bump + cell > self.limit {
            self.heap_bound = true;
            return None;
        }
        let addr = self.bump;
        self.bump += cell;
        self.used_bytes += cell;
        Some(addr)
    }

    /// Return the cell at `addr` (sized for `size` bytes) to its free list.
    pub fn free(&mut self, addr: u64, size: u32) {
        let cell = Self::cell_size(size);
        self.used_bytes -= cell;
        match Self::class_of(size) {
            Some(ci) => self.free[ci].push(addr),
            None => self.large_free.push((addr, cell)),
        }
    }
}

/// MarkSweep plan state. See the module docs for the algorithm.
#[derive(Debug, Clone)]
pub struct MarkSweep {
    heap_bytes: u64,
    fl: SegregatedFreeList,
    epoch: u32,
    stats: GcStats,
}

impl MarkSweep {
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
            stats: GcStats::default(),
        }
    }

    /// Cell-granular occupancy.
    pub fn used_bytes(&self) -> u64 {
        self.fl.used_bytes()
    }
}

impl CollectorPlan for MarkSweep {
    fn kind(&self) -> CollectorKind {
        CollectorKind::MarkSweep
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
        Ok(heap.insert(Object::new(
            addr,
            size,
            req.kind,
            Space::Cells,
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
        self.epoch += 1;
        let epoch = self.epoch;
        charge_root_scan(exec, roots);

        // Mark phase.
        let mut queue: Vec<ObjId> = Vec::new();
        for &r in &roots.refs {
            if mark(heap, r, epoch) {
                queue.push(r);
            }
        }
        while let Some(id) = queue.pop() {
            charge_scan(exec, heap.get(id));
            for i in 0..heap.get(id).ref_count() {
                if let Some(t) = heap.get_ref(id, i) {
                    if mark(heap, t, epoch) {
                        queue.push(t);
                    }
                }
            }
        }

        let swept = sweep(heap, &mut self.fl, exec, epoch, &mut self.stats);
        let c = CollectionStats {
            pause_cycles: exec.cycles() - start,
            ..swept
        };
        self.stats.record(&c);
        c
    }

    fn stats(&self) -> &GcStats {
        &self.stats
    }

    fn heap_bound(&self) -> bool {
        self.fl.heap_bound()
    }
}

/// Visit every object in `heap`: free each one `epoch` left unmarked
/// (returning its cell to `fl` when it holds one) and clear the
/// remembered-set flag on each survivor. Shared by [`MarkSweep`], Kaffe's
/// collector and the mark-sweep mature space of the generational plan,
/// whose unmarked nursery objects hold no cell.
/// Returns a major collection's stats over the objects kept and freed,
/// pause left at zero for the caller.
pub(crate) fn sweep(
    heap: &mut ObjectHeap,
    fl: &mut SegregatedFreeList,
    exec: &mut dyn Exec,
    epoch: u32,
    stats: &mut GcStats,
) -> CollectionStats {
    let ids: Vec<ObjId> = heap.iter_ids().collect();
    let mut swept = CollectionStats {
        kind: CollectionKind::Major,
        live_objects: 0,
        live_bytes: 0,
        freed_objects: 0,
        freed_bytes: 0,
        copied_bytes: 0,
        pause_cycles: 0,
    };
    for id in ids {
        let (addr, size, space, marked) = {
            let o = heap.get(id);
            (o.addr(), o.size(), o.space(), o.mark_epoch == epoch)
        };
        exec.load(addr);
        exec.int_ops(3);
        stats.total_swept_objects += 1;
        if marked {
            heap.get_mut(id).set_in_remset(false);
            swept.live_objects += 1;
            swept.live_bytes += u64::from(size);
        } else {
            if space == Space::Cells {
                fl.free(addr, size);
            }
            heap.remove(id);
            swept.freed_objects += 1;
            swept.freed_bytes += u64::from(size);
        }
    }
    swept
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_platform::{Machine, PlatformKind};

    fn setup() -> (ObjectHeap, MarkSweep, Machine) {
        (
            ObjectHeap::new(),
            MarkSweep::new(64 << 10),
            Machine::new(PlatformKind::PentiumM),
        )
    }

    #[test]
    fn size_classes_are_sorted_and_cover() {
        assert!(SIZE_CLASSES.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(SegregatedFreeList::cell_size(1), 16);
        assert_eq!(SegregatedFreeList::cell_size(40), 48);
        assert_eq!(SegregatedFreeList::cell_size(8192), 8192);
        assert_eq!(SegregatedFreeList::cell_size(10_000), 10_000);
        assert_eq!(SegregatedFreeList::cell_size(10_001), 10_008);
    }

    #[test]
    fn freelist_reuses_cells() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut fl = SegregatedFreeList::new(0x1000, 4096);
        let a = fl.alloc(40, &mut m).unwrap();
        fl.free(a, 40);
        let b = fl.alloc(44, &mut m).unwrap();
        assert_eq!(a, b, "same size class reuses the freed cell");
        assert_eq!(fl.used_bytes(), 48);
    }

    #[test]
    fn freelist_exhausts() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut fl = SegregatedFreeList::new(0, 64);
        assert!(fl.alloc(30, &mut m).is_some());
        assert!(fl.alloc(30, &mut m).is_some());
        assert!(fl.alloc(30, &mut m).is_none());
    }

    #[test]
    fn large_cells_first_fit_and_split() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut fl = SegregatedFreeList::new(0, 1 << 20);
        let a = fl.alloc(100_000, &mut m).unwrap();
        fl.free(a, 100_000);
        let b = fl.alloc(50_000, &mut m).unwrap();
        assert_eq!(a, b, "first fit reuses the large cell");
        // Remainder was kept: another 40_000 fits without growing bump.
        let bump_before = fl.bump;
        let _c = fl.alloc(40_000, &mut m).unwrap();
        assert_eq!(fl.bump, bump_before);
    }

    #[test]
    fn objects_do_not_move() {
        let (mut heap, mut plan, mut m) = setup();
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 1, 1), &mut m)
            .unwrap();
        let addr = heap.get(a).addr();
        plan.collect(&mut heap, &RootSet::from_refs(vec![a]), &mut m);
        assert_eq!(heap.get(a).addr(), addr);
        assert_eq!(heap.get(a).space(), Space::Cells);
    }

    #[test]
    fn sweep_reclaims_unreachable_cells_for_reuse() {
        let (mut heap, mut plan, mut m) = setup();
        let dead = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 6), &mut m)
            .unwrap();
        let dead_addr = heap.get(dead).addr();
        let live = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 6), &mut m)
            .unwrap();
        let stats = plan.collect(&mut heap, &RootSet::from_refs(vec![live]), &mut m);
        assert_eq!(stats.freed_objects, 1);
        assert_eq!(stats.copied_bytes, 0);
        // New allocation of the same class reuses the dead cell.
        let n = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 6), &mut m)
            .unwrap();
        assert_eq!(heap.get(n).addr(), dead_addr);
    }

    #[test]
    fn sweep_cost_scales_with_heap_objects() {
        let (mut heap, mut plan, mut m) = setup();
        for _ in 0..50 {
            plan.alloc(&mut heap, AllocRequest::instance(0, 0, 1), &mut m)
                .unwrap();
        }
        plan.collect(&mut heap, &RootSet::new(), &mut m);
        assert_eq!(plan.stats().total_swept_objects, 50);
    }
}
