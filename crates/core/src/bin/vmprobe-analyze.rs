//! Static per-method bounds and the measured-energy closure gate.
//!
//! ```text
//! vmprobe-analyze [<benchmark>...] [flags]
//!   (no benchmarks = all of them)
//! flags:
//!   --scale <full|s10>     input scale to analyze (default s10)
//!   --platform <p6|pxa255> platform the bounds are calibrated for (default p6)
//!   --json                 emit the report as JSON instead of tables
//!   --out <path>           also write the JSON report to a file
//!   --check-golden         run every golden workload and fail unless its
//!                          measured energy closes over its counter file
//!                          (the CI gate); it runs the fixed golden grid,
//!                          so a benchmark name, --scale, --platform or
//!                          --json beside it is an error
//! ```
//!
//! Plain mode is purely static: it assembles each benchmark's program,
//! runs the dataflow verifier, and prints each method's worst-case
//! acyclic bound. `--check-golden` *executes* each golden cell and checks
//! `|Σ component energy − (closed − clipped)| ≤ 10⁻⁹ · closed`, where
//! `closed` is the power model's linear form over the counter file at the
//! last DAQ sample and `clipped` is what the saturation clips removed
//! (DESIGN.md §14). A meter, analyzer or model change that moves a single
//! window's energy breaks the equality.

use std::process::ExitCode;

use vmprobe::json::JsonObj;
use vmprobe::request::{self, Args, Source};
use vmprobe::{golden_cells, ExperimentConfig};
use vmprobe_analysis::{bound_program, closed_energy_j, verify_program, MethodBound, ProgramBound};
use vmprobe_platform::{CpuSpec, PlatformKind};
use vmprobe_power::PowerCoeffs;
use vmprobe_vm::Vm;
use vmprobe_workloads::{all_benchmarks, benchmark, Benchmark, InputScale};

/// Flags that never take a value.
const SWITCHES: [&str; 2] = ["json", "check-golden"];

/// Flags that take one.
const VALUED: [&str; 3] = ["scale", "platform", "out"];

/// The inputs plain mode reads and `--check-golden` does not: the gate
/// runs the fixed golden grid and prints its own table.
const NOT_WITH_CHECK_GOLDEN: [&str; 3] = ["scale", "platform", "json"];

/// Largest accepted `|measured − (closed − clipped)|`, relative to `closed`:
/// far above floating-point summation error, far below any window's energy.
const REL_TOLERANCE: f64 = 1e-9;

fn usage() -> ExitCode {
    eprintln!(
        "usage: vmprobe-analyze [<benchmark>...] [--scale full|s10] [--platform p6|pxa255]\n\
         \x20                      [--json] [--out <path>] [--check-golden]"
    );
    ExitCode::from(2)
}

/// The input scale and platform the flags select.
fn parse(args: &Args) -> Result<(InputScale, PlatformKind), String> {
    if args.has("check-golden") {
        if let Some(name) = args.positionals.first() {
            return Err(format!(
                "benchmark '{name}' is not used with --check-golden"
            ));
        }
        if let Some(flag) = NOT_WITH_CHECK_GOLDEN.iter().find(|f| args.has(f)) {
            return Err(format!("--{flag} is not used with --check-golden"));
        }
    }
    let scale = args.str("scale")?.map(request::scale).transpose()?;
    let platform = args.str("platform")?.map(request::platform).transpose()?;
    Ok((
        scale.unwrap_or(InputScale::Reduced),
        platform.unwrap_or(PlatformKind::PentiumM),
    ))
}

fn bound_for(
    bench: &Benchmark,
    scale: InputScale,
    platform: PlatformKind,
) -> Result<ProgramBound, String> {
    let program = bench.build(scale);
    verify_program(&program).map_err(|e| format!("{} rejected: {e}", bench.name))?;
    Ok(bound_program(&program, platform))
}

fn method_json(b: &MethodBound) -> String {
    let mut o = JsonObj::new();
    o.str("method", &b.method.to_string())
        .str("name", &b.name)
        .u64("ops", b.ops as u64)
        .u64("blocks", b.blocks as u64)
        .bool("cyclic", b.cyclic);
    match (b.acyclic_cycles, b.acyclic_energy_j) {
        (Some(c), Some(e)) => {
            o.f64("acyclic_cycles", c).f64("acyclic_energy_j", e);
        }
        _ => {
            o.raw("acyclic_cycles", "null")
                .raw("acyclic_energy_j", "null");
        }
    }
    o.finish()
}

fn program_json(name: &str, scale: InputScale, b: &ProgramBound) -> String {
    let mut o = JsonObj::new();
    o.schema_version()
        .str("benchmark", name)
        .str("scale", &format!("{scale:?}"))
        .f64("p_max_w", b.p_max_w)
        .f64("freq_hz", b.freq_hz)
        .array("methods", b.methods.iter().map(method_json));
    o.finish()
}

fn print_table(name: &str, b: &ProgramBound) {
    println!(
        "{name}: P_max {:.2} W at {:.0} MHz",
        b.p_max_w,
        b.freq_hz / 1e6
    );
    println!(
        "  {:>6}  {:<26} {:>5} {:>6}  {:>14}  {:>12}",
        "method", "name", "ops", "blocks", "acyclic cycles", "bound (J)"
    );
    for m in &b.methods {
        let (cycles, energy) = match (m.acyclic_cycles, m.acyclic_energy_j) {
            (Some(c), Some(e)) => (format!("{c:.1}"), format!("{e:.3e}")),
            _ => ("cyclic".into(), "—".into()),
        };
        println!(
            "  {:>6}  {:<26} {:>5} {:>6}  {:>14}  {:>12}",
            m.method.to_string(),
            m.name,
            m.ops,
            m.blocks,
            cycles,
            energy
        );
    }
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

/// Plain mode: per-benchmark bound tables (or JSON), no execution.
fn analyze(args: &Args, scale: InputScale, platform: PlatformKind) -> Result<ExitCode, String> {
    let names: Vec<&str> = if args.positionals.is_empty() {
        all_benchmarks().iter().map(|b| b.name).collect()
    } else {
        args.positionals.iter().map(String::as_str).collect()
    };
    let mut reports = Vec::new();
    for name in names {
        let bench = benchmark(name).ok_or_else(|| format!("unknown benchmark '{name}'"))?;
        let bound = bound_for(&bench, scale, platform)?;
        let json = program_json(name, scale, &bound);
        if args.has("json") {
            println!("{json}");
        } else {
            print_table(name, &bound);
        }
        reports.push(json);
    }
    if let Some(path) = args.string("out") {
        let mut o = JsonObj::new();
        o.schema_version().array("programs", reports);
        std::fs::write(&path, o.finish()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let parsed = request::lex(std::env::args().skip(1), &SWITCHES, &VALUED)
        .and_then(|args| args.map(|args| Ok((parse(&args)?, args))).transpose());
    let ((scale, platform), args) = match parsed {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return usage(),
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = if args.has("check-golden") {
        check_golden(args.string("out"))
    } else {
        analyze(&args, scale, platform)
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe::VmChoice;
    use vmprobe_heap::CollectorKind;

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
