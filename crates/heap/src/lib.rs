//! Garbage-collected heap substrate for the `vmprobe` runtime.
//!
//! The paper studies four Jikes RVM / MMTk collectors — **SemiSpace**,
//! **MarkSweep**, **GenCopy** and **GenMS** (its Figure 3 taxonomy) — plus
//! Kaffe's **incremental conservative tri-color mark-sweep**. This crate
//! implements all five over a *simulated address space*: objects are
//! handle-addressed ([`ObjId`]) entries whose simulated addresses move when
//! a copying collector relocates them, and every unit of collector work
//! (tracing a reference, copying a body, sweeping a cell) is charged into a
//! [`vmprobe_platform::Exec`] sink so that GC time, cache behaviour and — a
//! level up — GC *power* are emergent.
//!
//! Key behaviours reproduced mechanistically:
//!
//! * copy cost ∝ live bytes, sweep cost ∝ heap objects;
//! * generational nursery collection cost ∝ survivors, paid for by a
//!   write barrier on every mutator pointer store;
//! * copying collectors compact in trace order, improving mutator locality
//!   (the paper's `_209_db` SemiSpace inversion at 128 MB);
//! * conservative ambiguous-root scanning retains extra floating garbage
//!   (Kaffe).
//!
//! # Example
//!
//! ```
//! use vmprobe_heap::{AllocRequest, CollectorKind, ObjectHeap, RootSet};
//! use vmprobe_platform::{Machine, PlatformKind};
//!
//! let mut heap = ObjectHeap::new();
//! let mut plan = CollectorKind::SemiSpace.new_plan(1 << 20);
//! let mut machine = Machine::new(PlatformKind::PentiumM);
//!
//! // Allocate a two-reference cell and point it at itself.
//! let id = plan
//!     .alloc(&mut heap, AllocRequest::instance(0, 2, 0), &mut machine)
//!     .expect("fits in an empty heap");
//! heap.set_ref(id, 0, Some(id));
//!
//! // Collect with the cell as a root: it must survive.
//! let mut roots = RootSet::default();
//! roots.refs.push(id);
//! let stats = plan.collect(&mut heap, &roots, &mut machine);
//! assert_eq!(stats.live_objects, 1);
//! assert!(heap.contains(id));
//! ```

#![warn(missing_docs)]
mod gen;
mod kaffe;
mod marksweep;
mod object;
mod plan;
mod roots;
mod semispace;
mod stats;

pub use gen::{NURSERY_FRACTION, NURSERY_MAX_BYTES};
pub use kaffe::KaffeIncremental;
pub use marksweep::{MarkSweep, SegregatedFreeList, SIZE_CLASSES};
pub use object::{ObjId, ObjKind, Object, ObjectHeap, OBJECT_HEADER_BYTES};
pub use plan::{AllocError, AllocRequest, CollectorKind, CollectorPlan, HeapConfigError, Space};
pub use roots::RootSet;
pub use semispace::SemiSpace;
pub use stats::{CollectionKind, CollectionStats, GcStats};
