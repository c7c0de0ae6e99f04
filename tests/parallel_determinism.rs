//! Deterministic replay: every figure sweep must produce **byte-identical**
//! tables and `RunReport` JSON no matter how many worker threads execute
//! it, across several master fault seeds.
//!
//! This is the acceptance test for the parallel sweep engine's determinism
//! contract (see `DESIGN.md` §10): cells are pure functions of their
//! configuration (per-cell fault streams are derived from the master seed
//! and the cell key), and all merging/accounting happens in submission
//! order on the calling thread.
//!
//! The sweeps render `figures::ARTIFACTS` entries over `Grid::quick()` at
//! `Reduced` input scale, so the suite stays minutes-not-hours in debug
//! builds without changing the grid *shape* the engine has to schedule.

use vmprobe::figures::{self, Grid, ARTIFACTS};
use vmprobe::{FaultPlan, Runner};
use vmprobe_workloads::InputScale;

const SEEDS: [u64; 3] = [11, 5150, 0xDEAD_BEEF];

/// A full-bore fault plan touching every non-fatal injector.
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::parse(&format!(
        "drop=0.05,dup=0.02,noise=0.005,glitch=0.002,wrap32,seed={seed}"
    ))
    .expect("valid plan")
}

/// Regenerate every tolerant figure sweep on one runner and render each
/// table plus the final campaign report JSON.
fn render_figures(jobs: usize, seed: u64) -> String {
    // `moldyn` (in the quick grid) is persistently poisoned so quarantine
    // accounting and failed-cell rendering are part of what must replay
    // identically.
    let mut runner = Runner::new()
        .jobs(jobs)
        .scale(InputScale::Reduced)
        .with_faults(plan(seed))
        .fault_override("moldyn", FaultPlan::parse("oom@1").unwrap());
    let grid = Grid::quick();
    let mut out = String::new();
    for a in ARTIFACTS.iter().filter(|a| a.sweeps_benchmarks) {
        out += &(a.render)(&mut runner, &grid).expect(a.name);
    }
    out += "\n";
    out += &runner.report().to_json();
    out
}

#[test]
fn figure_sweeps_are_bit_identical_across_thread_counts() {
    for seed in SEEDS {
        let serial = render_figures(1, seed);
        let parallel = render_figures(8, seed);
        assert!(
            serial == parallel,
            "seed {seed}: --jobs 8 output diverged from --jobs 1\n\
             --- jobs=1 ---\n{serial}\n--- jobs=8 ---\n{parallel}"
        );
        // The poisoned benchmark must actually have exercised quarantine,
        // otherwise this test proves less than it claims.
        assert!(
            serial.contains("\"quarantined\":[{"),
            "no quarantine: {serial}"
        );
        assert!(serial.contains("moldyn"));
    }
}

#[test]
fn master_seed_moves_the_fault_ledger() {
    // Distinct seeds must not collapse to the same campaign: otherwise the
    // identity above would hold vacuously.
    let a = render_figures(1, SEEDS[0]);
    let b = render_figures(1, SEEDS[1]);
    assert_ne!(a, b, "different master seeds produced identical campaigns");
}

#[test]
fn strict_table_sweeps_are_bit_identical_across_thread_counts() {
    // The strict (error-propagating) table sweeps run clean: a poisoned
    // cell would abort them by design.
    let render = |jobs: usize| {
        let mut runner = Runner::new().jobs(jobs).scale(InputScale::Reduced);
        let grid = Grid::quick();
        let mut out = String::new();
        for name in ["t1", "t3", "t5"] {
            let a = figures::artifact(name).expect("registered");
            out += &(a.render)(&mut runner, &grid).expect(name);
        }
        out += "\n";
        out += &runner.report().to_json();
        out
    };
    let serial = render(1);
    let parallel = render(8);
    assert!(
        serial == parallel,
        "strict sweeps diverged across thread counts\n\
         --- jobs=1 ---\n{serial}\n--- jobs=8 ---\n{parallel}"
    );
}
