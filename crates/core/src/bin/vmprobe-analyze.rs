//! The measured-energy closure gate.
//!
//! ```text
//! vmprobe-analyze --check-golden [--out <path>]
//! flags:
//!   --check-golden   run every golden workload and fail unless its
//!                    measured energy closes over its counter file
//!                    (the CI gate)
//!   --out <path>     also write the JSON report to a file
//! ```
//!
//! `--check-golden` executes each golden cell and checks
//! `|Σ component energy − (closed − clipped)| ≤ 10⁻⁹ · closed`, where
//! `closed` is the power model's linear form over the counter file at the
//! last DAQ sample and `clipped` is what the saturation clips removed
//! (DESIGN.md §14). A meter, analyzer or model change that moves a single
//! window's energy breaks the equality. Any other invocation is an error.

use std::process::ExitCode;

use vmprobe::json::JsonObj;
use vmprobe::request::{self, Args};
use vmprobe::{golden_cells, ExperimentConfig};
use vmprobe_analysis::closed_energy_j;
use vmprobe_bytecode::verify_program;
use vmprobe_platform::{CpuSpec, PlatformKind};
use vmprobe_power::PowerCoeffs;
use vmprobe_vm::Vm;
use vmprobe_workloads::{benchmark, Benchmark};

/// Flags that never take a value.
const SWITCHES: [&str; 1] = ["check-golden"];

/// Flags that take one.
const VALUED: [&str; 1] = ["out"];

/// Largest accepted `|measured − (closed − clipped)|`, relative to `closed`:
/// far above floating-point summation error, far below any window's energy.
const REL_TOLERANCE: f64 = 1e-9;

fn usage() -> ExitCode {
    eprintln!("usage: vmprobe-analyze --check-golden [--out <path>]");
    ExitCode::from(2)
}

/// The gate runs the fixed golden grid, so it takes no positional and
/// must be asked for.
fn parse(args: &Args) -> Result<(), String> {
    if let Some(arg) = args.positionals.first() {
        return Err(format!("unexpected argument '{arg}'"));
    }
    if !args.has("check-golden") {
        return Err("--check-golden is required".into());
    }
    Ok(())
}

/// One golden cell's closure check.
struct GoldenRow {
    benchmark: String,
    vm: String,
    platform: PlatformKind,
    /// Σ over components of committed CPU + DRAM energy.
    measured_j: f64,
    /// The linear model over the counter file at the last DAQ sample.
    closed_j: f64,
    /// Energy the saturation clips removed.
    clipped_j: f64,
}

impl GoldenRow {
    /// `|measured − (closed − clipped)| / closed`; 0 when both sides are
    /// 0 J (no window was sampled).
    fn residual(&self) -> f64 {
        let gap = (self.measured_j - (self.closed_j - self.clipped_j)).abs();
        if gap == 0.0 {
            0.0
        } else {
            gap / self.closed_j
        }
    }

    fn closes(&self) -> bool {
        self.residual() <= REL_TOLERANCE
    }

    fn clipped_share(&self) -> f64 {
        if self.closed_j > 0.0 {
            self.clipped_j / self.closed_j
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("benchmark", &self.benchmark)
            .str("vm", &self.vm)
            .str("platform", self.platform.name())
            .f64("measured_j", self.measured_j)
            .f64("closed_j", self.closed_j)
            .f64("clipped_j", self.clipped_j)
            .f64("clipped_share", self.clipped_share())
            .f64("residual", self.residual())
            .bool("closes", self.closes());
        o.finish()
    }
}

/// Run one golden cell and set its measured energy against the closed
/// form over its counter file.
fn golden_cell(bench: &Benchmark, cfg: &ExperimentConfig) -> Result<GoldenRow, String> {
    // The benchmark's program itself must pass the verifier before
    // anything runs — the same admission gate the daemon applies.
    let program = bench.build(cfg.scale);
    verify_program(&program)
        .map_err(|e| format!("{} rejected by the verifier: {e}", bench.name))?;
    let vm_config = cfg.vm_config();
    let out = Vm::try_new(program, vm_config)
        .and_then(Vm::run)
        .map_err(|e| format!("{cfg}: {e}"))?;
    let coeffs = vm_config.dvfs.scale_coeffs(PowerCoeffs::of(cfg.platform));
    let freq_hz = CpuSpec::of(cfg.platform)
        .scaled(vm_config.dvfs.freq_factor)
        .freq_hz;
    Ok(GoldenRow {
        benchmark: bench.name.to_owned(),
        vm: cfg.vm.to_string(),
        platform: cfg.platform,
        measured_j: out
            .report
            .components
            .values()
            .map(|p| p.energy.joules() + p.mem_energy.joules())
            .sum(),
        closed_j: closed_energy_j(&coeffs, freq_hz, &out.ledger.sampled),
        clipped_j: out.ledger.clipped_j,
    })
}

/// The CI gate: every golden cell's measured energy must close over its
/// counter file.
fn check_golden(out: Option<String>) -> Result<ExitCode, String> {
    let mut rows = Vec::new();
    // The golden grid — every benchmark on both personalities: Jikes on
    // the P6, whose windows clip, and Kaffe on the PXA255, whose never
    // do. Shared with the diff gate so the two CI gates can never drift
    // apart on coverage.
    for cfg in golden_cells() {
        let bench = benchmark(&cfg.benchmark)
            .ok_or_else(|| format!("golden cell names unknown benchmark '{}'", cfg.benchmark))?;
        let row = golden_cell(&bench, &cfg)?;
        if !row.closes() {
            eprintln!(
                "VIOLATION: {} on {} ({}): measured {:.6e} J, closed − clipped {:.6e} J",
                row.benchmark,
                row.vm,
                row.platform.name(),
                row.measured_j,
                row.closed_j - row.clipped_j
            );
        }
        rows.push(row);
    }
    let violations = rows.iter().filter(|r| !r.closes()).count();
    let max_residual = rows.iter().map(GoldenRow::residual).fold(0.0, f64::max);
    println!(
        "{:<16} {:<14} {:>8} {:>12} {:>12} {:>8} {:>10}",
        "benchmark", "vm", "platform", "measured J", "closed J", "clipped", "residual"
    );
    for r in &rows {
        println!(
            "{:<16} {:<14} {:>8} {:>12.4e} {:>12.4e} {:>7.1}% {:>10.1e}",
            r.benchmark,
            r.vm,
            r.platform.name(),
            r.measured_j,
            r.closed_j,
            100.0 * r.clipped_share(),
            r.residual()
        );
    }
    if let Some(path) = out {
        let mut o = JsonObj::new();
        o.schema_version()
            .bool("ok", violations == 0)
            .u64("violations", violations as u64)
            .f64("max_residual", max_residual)
            .array("rows", rows.iter().map(GoldenRow::to_json));
        std::fs::write(&path, o.finish()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if violations > 0 {
        eprintln!("analyze-gate: {violations} violation(s)");
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "analyze-gate: measured energy closes over the counter file on all {} cells \
         (max residual {max_residual:.1e})",
        rows.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let parsed = request::lex(std::env::args().skip(1), &SWITCHES, &VALUED)
        .and_then(|args| args.map(|args| parse(&args).map(|()| args)).transpose());
    let args = match parsed {
        Ok(Some(args)) => args,
        Ok(None) => return usage(),
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    check_golden(args.string("out")).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe::VmChoice;
    use vmprobe_heap::CollectorKind;
    use vmprobe_workloads::{all_benchmarks, InputScale};

    /// The historical `--check-golden` enumeration, verbatim, against the
    /// shared helper: the two grids must agree cell for cell, or the
    /// analyze gate and the diff gate silently diverge on coverage.
    #[test]
    fn golden_cells_agree_with_the_legacy_enumeration() {
        let mut legacy = Vec::new();
        for bench in all_benchmarks() {
            let cells = [
                (
                    VmChoice::Jikes(CollectorKind::GenCopy),
                    PlatformKind::PentiumM,
                    64,
                ),
                (VmChoice::Kaffe, PlatformKind::Pxa255, 32),
            ];
            for (vm, platform, heap_mb) in cells {
                legacy.push(ExperimentConfig {
                    benchmark: bench.name.to_owned(),
                    vm,
                    heap_mb,
                    platform,
                    scale: InputScale::Reduced,
                    trace_power: false,
                    record_spans: false,
                    probe: vmprobe::ProbeSpec::default(),
                });
            }
        }
        assert_eq!(golden_cells(), legacy);
    }

    fn row(measured_j: f64, closed_j: f64, clipped_j: f64) -> GoldenRow {
        GoldenRow {
            benchmark: "b".into(),
            vm: "v".into(),
            platform: PlatformKind::PentiumM,
            measured_j,
            closed_j,
            clipped_j,
        }
    }

    #[test]
    fn a_cell_closes_only_within_the_relative_tolerance() {
        assert!(row(0.9, 1.0, 0.1).closes());
        assert!(row(0.9 + 0.5e-9, 1.0, 0.1).closes());
        assert!(!row(0.9 + 2e-9, 1.0, 0.1).closes());
        assert!(!row(1.0, 1.0, 0.1).closes());
        // No window sampled: both sides are 0 J.
        assert!(row(0.0, 0.0, 0.0).closes());
        assert_eq!(row(0.0, 0.0, 0.0).residual(), 0.0);
        assert!(!row(1e-12, 0.0, 0.0).closes());
    }
}
