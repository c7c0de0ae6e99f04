//! `collect_full` (System.gc semantics) and cross-plan statistics checks.

use vmprobe_heap::{AllocRequest, CollectionKind, CollectorKind, ObjectHeap, RootSet};
use vmprobe_platform::{Machine, PlatformKind};

#[test]
fn collect_full_forces_majors_on_generational_plans() {
    for kind in [CollectorKind::GenCopy, CollectorKind::GenMs] {
        let mut heap = ObjectHeap::new();
        let mut plan = kind.new_plan(256 << 10);
        let mut m = Machine::new(PlatformKind::PentiumM);

        // Promote a root into the mature space, then drop it.
        let keep = plan
            .alloc(&mut heap, AllocRequest::instance(0, 1, 1), &mut m)
            .unwrap();
        let drop = plan
            .alloc(&mut heap, AllocRequest::instance(0, 1, 1), &mut m)
            .unwrap();
        let s = plan.collect(&mut heap, &RootSet::from_refs(vec![keep, drop]), &mut m);
        assert_eq!(s.kind, CollectionKind::Minor);

        // A plain collect would be minor again and miss mature garbage; a
        // full collection reclaims `drop`.
        let s = plan.collect_full(&mut heap, &RootSet::from_refs(vec![keep]), &mut m);
        assert_eq!(s.kind, CollectionKind::Major, "{kind}: full must be major");
        assert!(!heap.contains(drop), "{kind}: mature garbage must go");
        assert!(heap.contains(keep));
    }
}

#[test]
fn collect_full_is_plain_collect_for_non_generational_plans() {
    for kind in [CollectorKind::SemiSpace, CollectorKind::MarkSweep] {
        let mut heap = ObjectHeap::new();
        let mut plan = kind.new_plan(64 << 10);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 2), &mut m)
            .unwrap();
        let s = plan.collect_full(&mut heap, &RootSet::from_refs(vec![a]), &mut m);
        assert_eq!(s.kind, CollectionKind::Major);
        assert_eq!(s.live_objects, 1);
    }
}

#[test]
fn stats_accumulate_consistently_across_plans() {
    for kind in [
        CollectorKind::SemiSpace,
        CollectorKind::MarkSweep,
        CollectorKind::GenCopy,
        CollectorKind::GenMs,
        CollectorKind::KaffeIncremental,
    ] {
        let mut heap = ObjectHeap::new();
        let mut plan = kind.new_plan(128 << 10);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut roots = Vec::new();
        for i in 0..200 {
            match plan.alloc(&mut heap, AllocRequest::instance(0, 1, 2), &mut m) {
                Ok(id) if i % 5 == 0 => roots.push(id),
                Ok(_) => {}
                Err(_) => {
                    plan.collect(&mut heap, &RootSet::from_refs(roots.clone()), &mut m);
                }
            }
        }
        plan.collect_full(&mut heap, &RootSet::from_refs(roots.clone()), &mut m);
        let stats = plan.stats();
        assert_eq!(
            stats.collections,
            stats.minor_collections + stats.major_collections,
            "{kind}: kind counts must partition collections"
        );
        assert!(
            stats.total_pause_cycles > 0,
            "{kind}: pauses must cost cycles"
        );
        if kind.is_moving() {
            assert!(
                stats.total_copied_bytes > 0,
                "{kind}: moving plan must copy"
            );
        } else {
            assert_eq!(
                stats.total_copied_bytes, 0,
                "{kind}: non-moving plan must not copy"
            );
        }
        if kind.is_generational() {
            // The write barrier only runs through the runtime; here it was
            // never invoked, so remembered counts stay zero.
            assert_eq!(stats.barrier_remembers, 0);
        }
    }
}

#[test]
fn heap_bytes_and_kind_are_reported() {
    for kind in CollectorKind::jikes_collectors() {
        let plan = kind.new_plan(96 << 10);
        assert_eq!(plan.heap_bytes(), 96 << 10);
        assert_eq!(plan.kind(), kind);
    }
}
