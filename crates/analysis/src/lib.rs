//! Analysis for vmprobe runs.
//!
//! * [`closure`] — a run's energy in closed form over its counter file,
//!   which the `analyze-gate` CI job checks the measured energy of every
//!   golden workload against.
//!
//! The verifier lives in `vmprobe_bytecode`: one typed worklist per method
//! whose structural phase runs once, when a `Program` is built, and whose
//! type phase the class loader, the serve daemon's `verify` op and
//! `vmprobe-analyze` run. The re-export here ([`verify_method`],
//! [`verify_class`], [`verify_program`]) is kept for `benchmark/`, which
//! reaches the verifier through this crate until ROADMAP item 14 moves
//! `closure` and retires the crate.
//!
//! See DESIGN.md §14 for the lattice, the verifier's two phases and the
//! closure identity.

#![warn(missing_docs)]

pub mod closure;

pub use closure::closed_energy_j;
pub use vmprobe_bytecode::{verify_class, verify_method, verify_program, AbsTy, VerifyError};
