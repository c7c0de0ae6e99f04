//! Handle-addressed object model over a simulated address space.
//!
//! Objects are identified by a stable handle ([`ObjId`]); their *simulated
//! address* is a separate attribute that copying collectors rewrite when
//! they relocate an object. This split keeps the mutator simple (references
//! never need forwarding) while preserving exactly what the platform model
//! cares about: which addresses the mutator and collector touch.
//!
//! Payloads live on the host in one slab of words owned by [`ObjectHeap`]:
//! an object's reference slots followed by its primitive slots, at an
//! offset its [`Object`] records. A reference slot holds `id + 1`, with 0
//! for null. Freed runs are kept on free lists by length and reused by the
//! next payload of that length. When freed words outgrow both the live
//! words and a small floor, the slab is compacted. None of this is part of
//! the model: simulated addresses live in [`Object::addr`] and never move
//! with the host payload.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vmprobe_platform::Addr;

use crate::plan::Space;

/// Bytes of object header (status word + type information block pointer,
/// matching the paper-era Jikes RVM two-word header rounded to alignment).
pub const OBJECT_HEADER_BYTES: u32 = 16;

/// Stable handle to a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjId(pub u32);

impl std::fmt::Display for ObjId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// What kind of heap object a slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjKind {
    /// A class instance; the payload layout is `refs ++ prims`.
    Instance {
        /// Class tag assigned by the runtime (opaque to the heap).
        class: u16,
    },
    /// Array of 64-bit integers.
    IntArray,
    /// Array of 64-bit floats (stored as bits).
    FloatArray,
    /// Array of references (traced).
    RefArray,
}

pub(crate) const FLAG_IN_REMSET: u8 = 0b0000_0001;

/// One live heap object.
///
/// Fields are crate-private; the collectors mutate address/space/mark state
/// directly, while the runtime goes through [`ObjectHeap`] accessors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Object {
    pub(crate) addr: Addr,
    pub(crate) size: u32,
    pub(crate) kind: ObjKind,
    pub(crate) space: Space,
    pub(crate) mark_epoch: u32,
    pub(crate) flags: u8,
    /// Offset of the payload in the heap's slab; set by [`ObjectHeap`].
    start: u32,
    n_refs: u32,
    n_prims: u32,
}

impl Object {
    pub(crate) fn new(
        addr: Addr,
        size: u32,
        kind: ObjKind,
        space: Space,
        ref_len: u32,
        prim_len: u32,
    ) -> Self {
        Self {
            addr,
            size,
            kind,
            space,
            mark_epoch: 0,
            flags: 0,
            start: 0,
            n_refs: ref_len,
            n_prims: prim_len,
        }
    }

    /// Simulated address of the object header.
    #[inline]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Total simulated size in bytes, header included.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Object kind.
    #[inline]
    pub fn kind(&self) -> ObjKind {
        self.kind
    }

    /// Which collector space currently holds the object.
    pub fn space(&self) -> Space {
        self.space
    }

    /// Number of reference slots (fields or array elements).
    #[inline]
    pub fn ref_count(&self) -> usize {
        self.n_refs as usize
    }

    /// Number of primitive slots.
    #[inline]
    pub fn prim_count(&self) -> usize {
        self.n_prims as usize
    }

    /// Payload length in slab words.
    fn words(&self) -> u32 {
        self.n_refs + self.n_prims
    }

    pub(crate) fn in_remset(&self) -> bool {
        self.flags & FLAG_IN_REMSET != 0
    }

    pub(crate) fn set_in_remset(&mut self, v: bool) {
        if v {
            self.flags |= FLAG_IN_REMSET;
        } else {
            self.flags &= !FLAG_IN_REMSET;
        }
    }
}

/// Freed runs shorter than this many words are listed by length in a
/// vector; longer ones in a map.
const SMALL_RUNS: usize = 256;

/// The slab is compacted only once its freed words exceed this floor as
/// well as the live words.
const COMPACT_FLOOR: u64 = 4096;

/// The object table: every live object, indexed by [`ObjId`].
///
/// Slots of freed objects are recycled, and so are the slab runs of their
/// payloads. Allocation statistics accumulate for the lifetime of the heap
/// (they feed the workload inventories and GC reports).
#[derive(Debug, Clone, Default)]
pub struct ObjectHeap {
    slots: Vec<Option<Object>>,
    free_slots: Vec<u32>,
    /// Every payload, back to back.
    words: Vec<u64>,
    /// Start of each freed run shorter than [`SMALL_RUNS`], by length.
    small_free: Vec<Vec<u32>>,
    /// Start of each longer freed run, by length.
    large_free: BTreeMap<u32, Vec<u32>>,
    live_words: u64,
    free_words: u64,
    live_objects: u64,
    live_bytes: u64,
    total_alloc_objects: u64,
    total_alloc_bytes: u64,
}

impl ObjectHeap {
    /// Create an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> u64 {
        self.live_objects
    }

    /// Sum of live object sizes in bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Objects allocated over the heap's lifetime.
    pub fn total_alloc_objects(&self) -> u64 {
        self.total_alloc_objects
    }

    /// Bytes allocated over the heap's lifetime.
    pub fn total_alloc_bytes(&self) -> u64 {
        self.total_alloc_bytes
    }

    pub(crate) fn insert(&mut self, mut obj: Object) -> ObjId {
        self.live_objects += 1;
        self.live_bytes += u64::from(obj.size);
        self.total_alloc_objects += 1;
        self.total_alloc_bytes += u64::from(obj.size);
        obj.start = self.alloc_run(obj.words());
        match self.free_slots.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none());
                self.slots[i as usize] = Some(obj);
                ObjId(i)
            }
            None => {
                self.slots.push(Some(obj));
                ObjId((self.slots.len() - 1) as u32)
            }
        }
    }

    /// A zeroed run of `len` slab words: a freed run of that length if one
    /// exists, else a fresh one at the end of the slab.
    fn alloc_run(&mut self, len: u32) -> u32 {
        if len == 0 {
            return 0;
        }
        let reused = if (len as usize) < SMALL_RUNS {
            self.small_free.get_mut(len as usize).and_then(Vec::pop)
        } else {
            match self.large_free.get_mut(&len) {
                Some(starts) => {
                    let start = starts.pop();
                    if starts.is_empty() {
                        self.large_free.remove(&len);
                    }
                    start
                }
                None => None,
            }
        };
        self.live_words += u64::from(len);
        if let Some(start) = reused {
            self.free_words -= u64::from(len);
            self.words[start as usize..(start + len) as usize].fill(0);
            return start;
        }
        if self.free_words > self.live_words.max(COMPACT_FLOOR) {
            self.compact();
        }
        let start = self.words.len();
        self.words.resize(start + len as usize, 0);
        u32::try_from(start).expect("object slab exceeds 2^32 words")
    }

    /// Copy the live payloads to a fresh slab in slot order and forget
    /// every freed run.
    fn compact(&mut self) {
        let mut words = Vec::with_capacity(self.live_words as usize);
        for obj in self.slots.iter_mut().flatten() {
            let (start, len) = (obj.start as usize, obj.words() as usize);
            obj.start = words.len() as u32;
            words.extend_from_slice(&self.words[start..start + len]);
        }
        self.words = words;
        self.small_free.clear();
        self.large_free.clear();
        self.free_words = 0;
    }

    pub(crate) fn remove(&mut self, id: ObjId) -> Object {
        let obj = self.slots[id.0 as usize].take().expect("double free");
        self.free_slots.push(id.0);
        self.live_objects -= 1;
        self.live_bytes -= u64::from(obj.size);
        let len = obj.words();
        if len > 0 {
            if (len as usize) < SMALL_RUNS {
                if self.small_free.len() <= len as usize {
                    self.small_free.resize_with(len as usize + 1, Vec::new);
                }
                self.small_free[len as usize].push(obj.start);
            } else {
                self.large_free.entry(len).or_default().push(obj.start);
            }
            self.live_words -= u64::from(len);
            self.free_words += u64::from(len);
        }
        obj
    }

    /// Whether `id` refers to a live object.
    pub fn contains(&self, id: ObjId) -> bool {
        self.slots.get(id.0 as usize).is_some_and(Option::is_some)
    }

    /// Borrow an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` has been freed — with a correct collector and runtime
    /// this indicates a GC safety bug, so failing loudly is deliberate.
    #[inline(always)]
    pub fn get(&self, id: ObjId) -> &Object {
        self.slots[id.0 as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("{id} used after free"))
    }

    pub(crate) fn get_mut(&mut self, id: ObjId) -> &mut Object {
        self.slots[id.0 as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("{id} used after free"))
    }

    /// Slab index of reference slot `i` of `id`.
    #[inline(always)]
    fn ref_word(&self, id: ObjId, i: usize) -> usize {
        let obj = self.get(id);
        assert!(
            i < obj.ref_count(),
            "{id}: reference slot {i} out of range ({} slots)",
            obj.n_refs
        );
        obj.start as usize + i
    }

    /// Slab index of primitive slot `i` of `id`.
    #[inline(always)]
    fn prim_word(&self, id: ObjId, i: usize) -> usize {
        let obj = self.get(id);
        assert!(
            i < obj.prim_count(),
            "{id}: primitive slot {i} out of range ({} slots)",
            obj.n_prims
        );
        (obj.start + obj.n_refs) as usize + i
    }

    /// Read reference slot `i`.
    ///
    /// # Panics
    ///
    /// Panics on a freed `id` or out-of-range slot.
    #[inline(always)]
    pub fn get_ref(&self, id: ObjId, i: usize) -> Option<ObjId> {
        let w = self.words[self.ref_word(id, i)];
        w.checked_sub(1).map(|v| ObjId(v as u32))
    }

    /// Write reference slot `i`. The *runtime* is responsible for invoking
    /// the collector's write barrier around this store.
    ///
    /// # Panics
    ///
    /// Panics on a freed `id` or out-of-range slot.
    pub fn set_ref(&mut self, id: ObjId, i: usize, v: Option<ObjId>) {
        let at = self.ref_word(id, i);
        self.words[at] = v.map_or(0, |r| u64::from(r.0) + 1);
    }

    /// Read primitive slot `i` (raw bits).
    ///
    /// # Panics
    ///
    /// Panics on a freed `id` or out-of-range slot.
    #[inline(always)]
    pub fn get_prim(&self, id: ObjId, i: usize) -> u64 {
        self.words[self.prim_word(id, i)]
    }

    /// Write primitive slot `i` (raw bits).
    ///
    /// # Panics
    ///
    /// Panics on a freed `id` or out-of-range slot.
    #[inline(always)]
    pub fn set_prim(&mut self, id: ObjId, i: usize, v: u64) {
        let at = self.prim_word(id, i);
        self.words[at] = v;
    }

    /// Iterate over the ids of all live objects.
    pub fn iter_ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| ObjId(i as u32)))
    }

    /// Free every live object for which `pred` returns true, returning
    /// `(count, bytes)` freed. Used by collectors to reclaim unmarked
    /// objects.
    pub(crate) fn free_matching(&mut self, mut pred: impl FnMut(&Object) -> bool) -> (u64, u64) {
        let mut count = 0;
        let mut bytes = 0;
        for i in 0..self.slots.len() {
            let matches = match &self.slots[i] {
                Some(o) => pred(o),
                None => false,
            };
            if matches {
                let o = self.remove(ObjId(i as u32));
                count += 1;
                bytes += u64::from(o.size);
            }
        }
        (count, bytes)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    use super::*;

    fn obj(size: u32) -> Object {
        Object::new(
            0x1000_0000,
            size,
            ObjKind::Instance { class: 0 },
            Space::Half(0),
            2,
            2,
        )
    }

    #[test]
    fn insert_and_accounting() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(64));
        let b = h.insert(obj(32));
        assert_eq!(h.live_objects(), 2);
        assert_eq!(h.live_bytes(), 96);
        assert_eq!(h.total_alloc_bytes(), 96);
        assert!(h.contains(a) && h.contains(b));
    }

    #[test]
    fn remove_recycles_slots() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(64));
        h.remove(a);
        assert!(!h.contains(a));
        let b = h.insert(obj(32));
        // Slot reuse: same index.
        assert_eq!(a.0, b.0);
        assert_eq!(h.live_objects(), 1);
        // Lifetime totals keep counting.
        assert_eq!(h.total_alloc_objects(), 2);
    }

    #[test]
    fn ref_and_prim_slots() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(64));
        let b = h.insert(obj(64));
        h.set_ref(a, 0, Some(b));
        h.set_prim(a, 1, 42);
        assert_eq!(h.get_ref(a, 0), Some(b));
        assert_eq!(h.get_ref(a, 1), None);
        assert_eq!(h.get_prim(a, 1), 42);
    }

    #[test]
    #[should_panic(expected = "used after free")]
    fn use_after_free_panics() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(64));
        h.remove(a);
        let _ = h.get(a);
    }

    #[test]
    fn free_matching_filters() {
        let mut h = ObjectHeap::new();
        let _a = h.insert(obj(64));
        let b = h.insert(obj(128));
        let (n, bytes) = h.free_matching(|o| o.size() == 64);
        assert_eq!((n, bytes), (1, 64));
        assert!(h.contains(b));
        assert_eq!(h.live_objects(), 1);
    }

    #[test]
    fn iter_ids_covers_live_only() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(8));
        let b = h.insert(obj(8));
        h.remove(a);
        let ids: Vec<_> = h.iter_ids().collect();
        assert_eq!(ids, vec![b]);
    }

    #[test]
    fn remset_flag_round_trips() {
        let mut o = obj(64);
        assert!(!o.in_remset());
        o.set_in_remset(true);
        assert!(o.in_remset());
        o.set_in_remset(false);
        assert!(!o.in_remset());
    }

    /// An instance with `refs` reference and `prims` primitive slots.
    fn shaped(refs: u32, prims: u32) -> Object {
        Object::new(
            0x1000_0000,
            OBJECT_HEADER_BYTES + 8 * (refs + prims),
            ObjKind::Instance { class: 0 },
            Space::Half(0),
            refs,
            prims,
        )
    }

    /// Test oracle: the per-object `Vec` payloads the slab replaced.
    type Model = BTreeMap<u32, (Vec<Option<ObjId>>, Vec<u64>)>;

    /// Every live object reads back exactly as the model says, and the
    /// slab holds nothing but live and listed freed words.
    fn check_model(h: &ObjectHeap, model: &Model) -> Result<(), TestCaseError> {
        let ids: Vec<u32> = h.iter_ids().map(|id| id.0).collect();
        prop_assert_eq!(ids, model.keys().copied().collect::<Vec<_>>());
        let mut live_words = 0;
        for (&i, (refs, prims)) in model {
            let id = ObjId(i);
            prop_assert_eq!(h.get(id).ref_count(), refs.len());
            prop_assert_eq!(h.get(id).prim_count(), prims.len());
            for (k, &r) in refs.iter().enumerate() {
                prop_assert_eq!(h.get_ref(id, k), r, "{} ref {}", id, k);
            }
            for (k, &p) in prims.iter().enumerate() {
                prop_assert_eq!(h.get_prim(id, k), p, "{} prim {}", id, k);
            }
            live_words += (refs.len() + prims.len()) as u64;
        }
        prop_assert_eq!(h.live_words, live_words);
        prop_assert_eq!(h.words.len() as u64, h.live_words + h.free_words);
        Ok(())
    }

    /// Payload lengths from every free-list class: empty, short, and
    /// long enough for the map (a narrow band, so long runs get reused).
    fn arb_len() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), 1u32..8, 8u32..256, 256u32..264]
    }

    /// Pick the `pick`-th live object of the model, if any.
    fn nth_live(model: &Model, pick: u32) -> Option<ObjId> {
        let n = model.len();
        (n > 0).then(|| ObjId(*model.keys().nth(pick as usize % n).unwrap()))
    }

    proptest! {
        #[test]
        fn slab_matches_per_object_vectors(
            ops in prop::collection::vec(
                (0u8..5, arb_len(), any::<u32>(), any::<u32>(), any::<u64>()),
                1..400,
            ),
        ) {
            let mut h = ObjectHeap::new();
            let mut model = Model::new();
            for &(op, len, a, b, v) in &ops {
                match op {
                    0 | 1 => {
                        let refs = a % (len + 1);
                        let id = h.insert(shaped(refs, len - refs));
                        // A fresh or reused run reads back as null/zero.
                        for k in 0..refs as usize {
                            prop_assert_eq!(h.get_ref(id, k), None);
                        }
                        for k in 0..(len - refs) as usize {
                            prop_assert_eq!(h.get_prim(id, k), 0);
                        }
                        model.insert(
                            id.0,
                            (vec![None; refs as usize], vec![0; (len - refs) as usize]),
                        );
                    }
                    2 => {
                        if let Some(id) = nth_live(&model, a) {
                            h.remove(id);
                            model.remove(&id.0);
                        }
                    }
                    3 => {
                        let Some(id) = nth_live(&model, a) else { continue };
                        let target = nth_live(&model, b).filter(|_| v % 4 != 0);
                        let refs = &mut model.get_mut(&id.0).unwrap().0;
                        if !refs.is_empty() {
                            let k = b as usize % refs.len();
                            refs[k] = target;
                            h.set_ref(id, k, target);
                        }
                    }
                    _ => {
                        let Some(id) = nth_live(&model, a) else { continue };
                        let prims = &mut model.get_mut(&id.0).unwrap().1;
                        if !prims.is_empty() {
                            let k = b as usize % prims.len();
                            prims[k] = v;
                            h.set_prim(id, k, v);
                        }
                    }
                }
                check_model(&h, &model)?;
            }
            // Free more than the live words and the floor, in runs of a
            // length nothing asks for again, then append one more length:
            // the slab must compact and every survivor must still read back.
            let n = h.live_words / 2000 + 3;
            let garbage: Vec<ObjId> = (0..n).map(|_| h.insert(shaped(1, 1999))).collect();
            for id in garbage {
                h.remove(id);
            }
            let before = h.words.len();
            let id = h.insert(shaped(3, 1996));
            model.insert(id.0, (vec![None; 3], vec![0; 1996]));
            prop_assert!(h.words.len() < before, "no compaction");
            prop_assert_eq!(h.free_words, 0);
            check_model(&h, &model)?;
        }
    }

    #[test]
    fn reused_run_reads_back_zero() {
        let mut h = ObjectHeap::new();
        let keep = h.insert(shaped(1, 1));
        let a = h.insert(shaped(2, 3));
        h.set_ref(a, 1, Some(keep));
        h.set_prim(a, 2, 7);
        let start = h.get(a).start;
        h.remove(a);
        let b = h.insert(shaped(3, 2));
        assert_eq!(h.get(b).start, start, "same-length run is reused");
        assert!((0..3).all(|k| h.get_ref(b, k).is_none()));
        assert!((0..2).all(|k| h.get_prim(b, k) == 0));
    }

    #[test]
    #[should_panic(expected = "reference slot 2 out of range")]
    fn out_of_range_ref_panics() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(64));
        let _b = h.insert(obj(64));
        let _ = h.get_ref(a, 2);
    }

    #[test]
    #[should_panic(expected = "primitive slot 2 out of range")]
    fn out_of_range_prim_panics() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(64));
        let _b = h.insert(obj(64));
        let _ = h.get_prim(a, 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(64));
        h.remove(a);
        h.remove(a);
    }

    #[test]
    fn slab_growth_is_bounded_without_reuse() {
        // Strictly increasing lengths: no freed run ever fits again, so
        // only compaction keeps the slab in check.
        let mut h = ObjectHeap::new();
        let mut live = std::collections::VecDeque::new();
        for len in 1..3000u32 {
            let (kind, refs, prims) = if len % 2 == 0 {
                (ObjKind::RefArray, len, 0)
            } else {
                (ObjKind::IntArray, 0, len)
            };
            let o = Object::new(0x1000_0000, 8 * len, kind, Space::Cells, refs, prims);
            live.push_back(h.insert(o));
            if live.len() > 4 {
                h.remove(live.pop_front().unwrap());
            }
            let bound = 2 * h.live_words + u64::from(len) + COMPACT_FLOOR;
            assert!(
                h.words.len() as u64 <= bound,
                "round {len}: slab {} words > bound {bound}",
                h.words.len()
            );
        }
    }
}
