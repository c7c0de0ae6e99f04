//! Static analysis for vmprobe bytecode.
//!
//! Three pieces, all dependency-free (only sibling vmprobe crates):
//!
//! * [`mod@cfg`] — per-method control-flow graphs (basic blocks, successor
//!   edges, reachability, cycle detection with a topological order).
//! * [`verify`] — an abstract interpreter over the CFG: a worklist
//!   dataflow pass with a small type lattice per stack slot and local.
//!   It subsumes the builder's structural verifier (which it runs first)
//!   and adds merge-point-correct checks: branch-target stack-shape
//!   agreement with *typed* slots, uninitialized-local detection, and
//!   unreachable-code reporting. This is the load-time verification tier
//!   the VM's class loader and the serve daemon's admission path run.
//! * [`bounds`] — static worst-case cost/energy bounds: folds the
//!   platform's calibrated power coefficients over the program structure
//!   and a step budget to produce an energy figure guaranteed to
//!   dominate any measured run the VM clamps at that budget. The
//!   `analyze-gate` CI job cross-checks domination on every golden
//!   workload.
//! * [`lint`] — the determinism lint engine behind the `vmprobe-lint`
//!   binary: a substring scanner over the deterministic crates for
//!   banned nondeterminism (wall clocks, OS RNG, unkeyed hash maps).
//!
//! See DESIGN.md §14 for the lattice, the worklist algorithm, and the
//! bound soundness argument.

#![warn(missing_docs)]

pub mod bounds;
pub mod cfg;
pub mod lint;
pub mod verify;

pub use bounds::{bound_program, p_max_watts, BoundParams, MethodBound, ProgramBound, VmTier};
pub use cfg::{Block, Cfg};
pub use verify::{
    verify_class, verify_method, verify_program, AbsTy, AnalysisError, MethodAnalysis,
    ProgramAnalysis,
};
