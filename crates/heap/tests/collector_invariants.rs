//! Collector invariants under randomized allocate/retain/collect load.

use proptest::prelude::*;
use vmprobe_heap::{
    AllocError, AllocRequest, CollectionKind, CollectorKind, ObjId, ObjectHeap, RootSet,
    SegregatedFreeList,
};
use vmprobe_platform::{Machine, PlatformKind};

/// The first two live objects whose simulated address ranges overlap.
fn overlap(heap: &ObjectHeap) -> Option<((u64, u64), (u64, u64))> {
    let mut ranges: Vec<(u64, u64)> = heap
        .iter_ids()
        .map(|id| {
            let o = heap.get(id);
            (o.addr(), o.addr() + u64::from(o.size()))
        })
        .collect();
    ranges.sort_unstable();
    ranges
        .windows(2)
        .find(|w| w[0].1 > w[1].0)
        .map(|w| (w[0], w[1]))
}

fn collector_strategy() -> impl Strategy<Value = CollectorKind> {
    prop_oneof![
        Just(CollectorKind::SemiSpace),
        Just(CollectorKind::MarkSweep),
        Just(CollectorKind::GenCopy),
        Just(CollectorKind::GenMs),
        Just(CollectorKind::KaffeIncremental),
    ]
}

proptest! {
    /// After any collection, the heap's aggregate accounting equals the
    /// sum over live objects, and live addresses never overlap.
    #[test]
    fn accounting_and_address_disjointness(
        kind in collector_strategy(),
        script in prop::collection::vec((1u32..6, 0u32..10, any::<bool>()), 1..250),
    ) {
        let mut heap = ObjectHeap::new();
        let mut plan = kind.new_plan(1 << 20);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut roots: Vec<ObjId> = Vec::new();

        for &(refs, prims, keep) in &script {
            let req = AllocRequest::instance(0, refs, prims);
            let id = match plan.alloc(&mut heap, req, &mut m) {
                Ok(id) => id,
                Err(_) => {
                    plan.collect(&mut heap, &RootSet::from_refs(roots.clone()), &mut m);
                    match plan.alloc(&mut heap, req, &mut m) {
                        Ok(id) => id,
                        Err(_) => continue, // genuinely full of retained data
                    }
                }
            };
            if keep && roots.len() < 400 {
                roots.push(id);
            }
        }
        plan.collect(&mut heap, &RootSet::from_refs(roots.clone()), &mut m);

        // Aggregate accounting.
        let sum_bytes: u64 = heap.iter_ids().map(|id| u64::from(heap.get(id).size())).sum();
        prop_assert_eq!(heap.live_bytes(), sum_bytes);
        prop_assert_eq!(heap.live_objects(), heap.iter_ids().count() as u64);

        // No two live objects overlap in the simulated address space.
        let clash = overlap(&heap);
        prop_assert!(clash.is_none(), "{kind}: live objects overlap: {clash:?}");

        // Every root survived.
        for r in &roots {
            prop_assert!(heap.contains(*r), "{kind}: root {r} lost");
        }
    }

    /// The segregated free list never double-allocates a live cell and its
    /// byte accounting matches outstanding cells.
    #[test]
    fn freelist_accounting(ops in prop::collection::vec((8u32..600, any::<bool>()), 1..300)) {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut fl = SegregatedFreeList::new(0x1000, 1 << 20);
        let mut live: Vec<(u64, u32)> = Vec::new();
        let mut expected_bytes = 0u64;
        for &(size, free_one) in &ops {
            if free_one && !live.is_empty() {
                let (addr, sz) = live.swap_remove(live.len() / 2);
                fl.free(addr, sz);
                expected_bytes -= SegregatedFreeList::cell_size(sz);
            } else if let Some(addr) = fl.alloc(size, &mut m) {
                // Must not overlap any live cell.
                let cell = SegregatedFreeList::cell_size(size);
                for &(a, s) in &live {
                    let c = SegregatedFreeList::cell_size(s);
                    prop_assert!(
                        addr + cell <= a || a + c <= addr,
                        "cell {:#x}+{} overlaps {:#x}+{}",
                        addr,
                        cell,
                        a,
                        c
                    );
                }
                live.push((addr, size));
                expected_bytes += cell;
            }
            prop_assert_eq!(fl.used_bytes(), expected_bytes);
        }
    }
}

/// A survivor GenMS cannot promote stays in the nursery, and no new object
/// may take its address. Freed 16-byte cells fill the mature space, so
/// 40-byte survivors find neither a 48-byte cell nor wilderness.
#[test]
fn unpromotable_survivors_keep_their_nursery_addresses() {
    let kind = CollectorKind::GenMs;
    let mut plan = kind.try_new_plan_configured(40960, Some(20480)).unwrap();
    let mut heap = ObjectHeap::new();
    let mut m = Machine::new(PlatformKind::PentiumM);

    // Fill the mature space with 16-byte cells in one minor, then free them.
    let mut cells = Vec::new();
    while let Ok(id) = plan.alloc(&mut heap, AllocRequest::instance(0, 0, 0), &mut m) {
        cells.push(id);
    }
    let fill = plan.collect(&mut heap, &RootSet::from_refs(cells), &mut m);
    assert_eq!(fill.kind, CollectionKind::Minor);
    assert_eq!(fill.copied_bytes, 20480);
    plan.collect_full(&mut heap, &RootSet::new(), &mut m);
    assert_eq!(heap.live_objects(), 0);

    // 512 rooted 40-byte objects fill the nursery; the minor promotes none.
    let req = AllocRequest::instance(0, 0, 3);
    let mut roots = Vec::new();
    while let Ok(id) = plan.alloc(&mut heap, req, &mut m) {
        roots.push(id);
    }
    assert_eq!(roots.len(), 512);
    let roots = RootSet::from_refs(roots);
    let failed = plan.collect(&mut heap, &roots, &mut m);
    assert_eq!(failed.kind, CollectionKind::Minor);
    assert_eq!(failed.copied_bytes, 0);

    // The next allocation must not reuse a stranded survivor's address.
    let next = plan.alloc(&mut heap, req, &mut m);
    let clash = overlap(&heap);
    assert!(clash.is_none(), "{kind}: live objects overlap: {clash:?}");
    assert!(matches!(next, Err(AllocError::NeedsGc)), "{next:?}");

    assert_eq!(
        plan.collect(&mut heap, &roots, &mut m).kind,
        CollectionKind::Major
    );
    for r in &roots.refs {
        assert!(heap.contains(*r), "{kind}: root {r} lost");
    }
    assert!(overlap(&heap).is_none());
}
