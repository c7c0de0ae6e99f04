//! The energy-regression gate CLI.
//!
//! ```text
//! vmprobe-diff [<benchmark>...] [flags]
//!   (no benchmarks = the full golden grid, both personalities)
//! flags:
//!   --jobs <n>                 sweep worker threads (default 1; output is
//!                              byte-identical for any value)
//!   --seed <n>                 diff root seed (default 53759)
//!   --replicates <n>           runs per cell in the seed ensemble (default 5)
//!   --resamples <n>            bootstrap draws per interval (default 200)
//!   --confidence <f>           two-sided CI level in (0,1) (default 0.99)
//!   --noise <f>                ensemble sensor-noise sigma (default 0.003)
//!   --min-shift <f>            practical-significance floor on |rel shift|
//!                              (default 0.005)
//!   --perturb <spec>           scale candidate-side component energies,
//!                              e.g. "gc=+5%,jit=-1%" (simulated build change)
//!   --cache-dir <path>         persistent cache shared by both sides
//!   --baseline-fingerprint <l> address the baseline side's cache entries
//!                              (default: this build's fingerprint)
//!   --candidate-fingerprint <l> likewise for the candidate side
//!   --out <path>               write the RegressionReport JSON to a file
//!   --json                     print the JSON report on stdout
//! ```
//!
//! Exit status: 0 when no regression is flagged, 1 when at least one is,
//! 2 on usage or execution errors.

use std::process::ExitCode;
use std::sync::Arc;

use vmprobe::cache::build_fingerprint;
use vmprobe::request::{self, Args, Source};
use vmprobe::{golden_cells, DiffEngine, DiffOptions, ExperimentCache, Runner};

/// Flags that never take a value.
const SWITCHES: [&str; 1] = ["json"];

/// Flags that take one.
const VALUED: [&str; 12] = [
    "jobs",
    "seed",
    "replicates",
    "resamples",
    "confidence",
    "noise",
    "min-shift",
    "perturb",
    "cache-dir",
    "baseline-fingerprint",
    "candidate-fingerprint",
    "out",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: vmprobe-diff [<benchmark>...] [--jobs <n>] [--seed <n>] [--replicates <n>]\n\
         \x20                   [--resamples <n>] [--confidence <f>] [--noise <f>]\n\
         \x20                   [--min-shift <f>] [--perturb <spec>] [--cache-dir <path>]\n\
         \x20                   [--baseline-fingerprint <l>] [--candidate-fingerprint <l>]\n\
         \x20                   [--out <path>] [--json]"
    );
    ExitCode::from(2)
}

/// A non-negative, finite float flag.
fn non_negative(args: &Args, flag: &str) -> Result<Option<f64>, String> {
    match args.f64(flag)? {
        Some(v) if !(v >= 0.0 && v.is_finite()) => Err(format!("--{flag} must be >= 0, got {v}")),
        v => Ok(v),
    }
}

/// The runner for the side labelled `label`: `jobs` workers, panics
/// contained (a crashing cell is a typed error for the gate), and, with a
/// cache directory, that side's entries addressed by `label`.
fn runner(jobs: usize, dir: Option<&str>, label: &str) -> Result<Runner, String> {
    let mut runner = Runner::new().jobs(jobs).contain_panics(true);
    if let Some(dir) = dir {
        let cache = ExperimentCache::open(dir)
            .map_err(|e| format!("cannot open cache {dir}: {e}"))?
            .with_fingerprint(label);
        runner = runner.with_cache(Arc::new(cache));
    }
    Ok(runner)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let (mut options, perturb) = request::diff_options(
        args,
        DiffOptions::default(),
        usize::MAX as u64,
        u32::MAX.into(),
    )?;
    if let Some(sigma) = non_negative(args, "noise")? {
        options.noise_sigma = sigma;
    }
    if let Some(floor) = non_negative(args, "min-shift")? {
        options.min_rel_shift = floor;
    }
    let jobs = args
        .u64_in("jobs", 1, usize::MAX as u64)?
        .map_or(1, |j| j as usize);
    let benchmarks = &args.positionals;
    let mut cells = golden_cells();
    if !benchmarks.is_empty() {
        for name in benchmarks {
            if !cells.iter().any(|c| &c.benchmark == name) {
                return Err(format!("unknown benchmark '{name}'"));
            }
        }
        cells.retain(|c| benchmarks.contains(&c.benchmark));
    }

    let build = build_fingerprint();
    let label = |flag| args.string(flag).unwrap_or_else(|| build.clone());
    let base_label = label("baseline-fingerprint");
    let cand_label = label("candidate-fingerprint");
    let dir = args.string("cache-dir");
    let baseline = runner(jobs, dir.as_deref(), &base_label)?;
    // One runner per distinct label: a self-diff sweeps once.
    let candidate = if cand_label == base_label {
        None
    } else {
        Some(runner(jobs, dir.as_deref(), &cand_label)?)
    };
    let json = args.has("json");
    let engine = DiffEngine::new(options, &base_label, &cand_label).perturb(perturb);

    let report = engine.run(&baseline, candidate.as_ref().unwrap_or(&baseline), &cells)?;

    if json {
        println!("{}", report.to_json());
    } else {
        for (kind, deltas) in [
            ("REGRESSION", &report.regressions),
            ("improvement", &report.improvements),
        ] {
            for d in deltas {
                println!(
                    "{kind}: {} [{}]: {:.4e} J -> {:.4e} J ({:+.2}%), CI [{:.4e}, {:.4e}] vs [{:.4e}, {:.4e}]",
                    d.cell,
                    d.component,
                    d.baseline.mean,
                    d.candidate.mean,
                    d.rel_shift * 100.0,
                    d.baseline.lo,
                    d.baseline.hi,
                    d.candidate.lo,
                    d.candidate.hi,
                );
            }
        }
    }
    if let Some(path) = args.string("out") {
        std::fs::write(&path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let summary = if report.clean() {
        format!(
            "diff-gate: clean — no regressions across {} cells ({} comparisons)",
            report.cells, report.comparisons
        )
    } else {
        format!(
            "diff-gate: {} regression(s) in [{}] across {} cells ({} comparisons)",
            report.regressions.len(),
            report.components_flagged().join(", "),
            report.cells,
            report.comparisons
        )
    };
    // In --json mode stdout carries exactly the report, so scripts can pipe
    // it straight into a JSON parser; the human summary moves to stderr.
    if json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = match request::lex(std::env::args().skip(1), &SWITCHES, &VALUED) {
        Ok(Some(args)) => run(&args),
        Ok(None) => return usage(),
        Err(msg) => Err(msg),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
