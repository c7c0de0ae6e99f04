//! Shared helpers for the figure-regeneration benchmarks.
//!
//! Each criterion bench regenerates one paper artifact at a *reduced scope*
//! (a representative subset of benchmarks/heaps, so `cargo bench` finishes
//! in minutes) and prints the resulting rows once. `vmprobe-run all`
//! regenerates every artifact at full scope; `EXPERIMENTS.md` records its
//! output against the paper.

use criterion::Criterion;

/// Reduced heap sweep used by the criterion benches (the full paper sweep
/// is run by `vmprobe-run all`).
pub const QUICK_HEAPS: [u32; 3] = [32, 64, 128];

/// Reduced PXA255 heap sweep.
pub const QUICK_PXA_HEAPS: [u32; 2] = [16, 32];

/// Representative benchmark subset: the paper's three most-discussed
/// workloads plus one per remaining suite.
pub const QUICK_BENCHMARKS: [&str; 5] = ["_213_javac", "_209_db", "_222_mpegaudio", "fop", "euler"];

/// A criterion instance tuned for whole-experiment (multi-second) runs.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(8))
        .warm_up_time(std::time::Duration::from_secs(1))
        .configure_from_args()
}
