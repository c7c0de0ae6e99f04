//! Analysis for vmprobe bytecode and runs.
//!
//! Two pieces, all dependency-free (only sibling vmprobe crates), plus
//! the verifier, which lives in `vmprobe_bytecode` and is re-exported here
//! ([`verify_method`], [`verify_class`], [`verify_program`]): one typed
//! worklist per method whose structural phase runs once, when a `Program`
//! is built, and whose type phase these run for the class loader, the
//! serve daemon's `verify` op and `vmprobe-analyze`.
//!
//! * [`closure`] — a run's energy in closed form over its counter file,
//!   which the `analyze-gate` CI job checks the measured energy of every
//!   golden workload against.
//! * [`lint`] — the determinism lint engine behind the `vmprobe-lint`
//!   binary: a substring scanner over the deterministic crates for
//!   banned nondeterminism (wall clocks, OS RNG, unkeyed hash maps).
//!
//! See DESIGN.md §14 for the lattice, the verifier's two phases and the
//! closure identity.

#![warn(missing_docs)]

pub mod closure;
pub mod lint;

pub use closure::closed_energy_j;
pub use vmprobe_bytecode::{verify_class, verify_method, verify_program, AbsTy, VerifyError};
