//! Static analysis for vmprobe bytecode.
//!
//! Five pieces, all dependency-free (only sibling vmprobe crates):
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
//! * [`bounds`] — static worst-case cost/energy bounds per method: the
//!   longest acyclic path through each method's CFG, costed at the
//!   platform's peak modeled power.
//! * [`closure`] — a run's energy in closed form over its counter file,
//!   which the `analyze-gate` CI job checks the measured energy of every
//!   golden workload against.
//! * [`lint`] — the determinism lint engine behind the `vmprobe-lint`
//!   binary: a substring scanner over the deterministic crates for
//!   banned nondeterminism (wall clocks, OS RNG, unkeyed hash maps).
//!
//! See DESIGN.md §14 for the lattice, the worklist algorithm, the
//! per-method bounds and the closure identity.

#![warn(missing_docs)]

pub mod bounds;
pub mod cfg;
pub mod closure;
pub mod lint;
pub mod verify;

pub use bounds::{bound_program, p_max_watts, MethodBound, ProgramBound};
pub use cfg::{Block, Cfg};
pub use closure::closed_energy_j;
pub use verify::{
    verify_class, verify_method, verify_program, AbsTy, AnalysisError, MethodAnalysis,
    ProgramAnalysis,
};
