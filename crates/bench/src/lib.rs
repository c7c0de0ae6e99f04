//! Shared criterion configuration for the two benches: `substrate`
//! (microbenchmarks of the simulation layers) and `telemetry_tax` (the
//! telemetry layer's self-overhead on the quick Figure 6 grid). Whole
//! figure sweeps are timed by the standalone benchmark under `benchmark/`.

use criterion::Criterion;

/// A criterion instance tuned for whole-experiment (multi-second) runs.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(8))
        .warm_up_time(std::time::Duration::from_secs(1))
        .configure_from_args()
}
