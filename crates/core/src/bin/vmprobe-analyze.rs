//! Static analysis reports and the bound-domination CI gate.
//!
//! ```text
//! vmprobe-analyze [<benchmark>...] [flags]
//!   (no benchmarks = all of them)
//! flags:
//!   --scale <full|s10>    input scale to analyze (default s10)
//!   --platform <p6|pxa255> platform the bound is calibrated for (default p6)
//!   --vm <jikes|kaffe>    compilation-tier personality (default jikes)
//!   --heap-mb <n>         simulated heap the GC term assumes (default 64)
//!   --step-budget <n>     step clamp S the bound is instantiated at
//!                         (default 50000000)
//!   --json                emit the report as JSON instead of tables
//!   --out <path>          also write the JSON report to a file
//!   --check-golden        run every golden workload on both personalities
//!                         and fail unless the static bound dominates the
//!                         measured energy (the CI gate)
//! ```
//!
//! Plain mode is purely static: it assembles each benchmark's program,
//! runs the dataflow verifier, and prints per-method worst-case bounds
//! plus the program-wide energy bound. `--check-golden` additionally
//! *executes* each workload and cross-checks `static bound ≥ measured
//! energy`, instantiating the bound at the exact step count the run
//! performed — this is what catches drift between the analyzer's
//! mirrored cost constants and the VM's real meter.

use std::process::ExitCode;

use vmprobe::json::JsonObj;
use vmprobe::request::{self, Args, Source};
use vmprobe::{golden_cells, heap_bytes, ExperimentConfig, VmChoice};
use vmprobe_analysis::{bound_program, verify_program, BoundParams, ProgramBound, VmTier};
use vmprobe_heap::CollectorKind;
use vmprobe_platform::PlatformKind;
use vmprobe_vm::VmConfig;
use vmprobe_workloads::{all_benchmarks, benchmark, Benchmark, InputScale};

/// Flags that never take a value.
const SWITCHES: [&str; 2] = ["json", "check-golden"];

/// Flags that take one.
const VALUED: [&str; 6] = ["scale", "platform", "vm", "heap-mb", "step-budget", "out"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: vmprobe-analyze [<benchmark>...] [--scale full|s10] [--platform p6|pxa255]\n\
         \x20                      [--vm jikes|kaffe] [--heap-mb <n>] [--step-budget <n>]\n\
         \x20                      [--json] [--out <path>] [--check-golden]"
    );
    ExitCode::from(2)
}

/// The input scale and bound parameters the flags select.
fn parse(args: &Args) -> Result<(InputScale, BoundParams), String> {
    let vm = match args.str("vm")? {
        None | Some("jikes") => VmTier::Jikes,
        Some("kaffe") => VmTier::Kaffe,
        Some(other) => return Err(format!("unknown vm '{other}' (expected jikes or kaffe)")),
    };
    let scale = args.str("scale")?.map(request::scale).transpose()?;
    let platform = args.str("platform")?.map(request::platform).transpose()?;
    let platform = platform.unwrap_or(PlatformKind::PentiumM);
    let params = BoundParams {
        platform,
        vm,
        heap_bytes: heap_bytes(request::heap_mb(args)?.unwrap_or(64)),
        quantum_cycles: quantum_cycles(platform),
        step_budget: args.u64("step_budget")?.unwrap_or(50_000_000),
    };
    Ok((scale.unwrap_or(InputScale::Reduced), params))
}

/// The scheduler quantum the VM actually uses for a platform, read off a
/// real `VmConfig` so the bound can never drift from the runtime.
fn quantum_cycles(platform: PlatformKind) -> u64 {
    VmConfig::jikes(CollectorKind::GenCopy, heap_bytes(32))
        .platform(platform)
        .quantum_cycles
}

fn bound_for(
    bench: &Benchmark,
    scale: InputScale,
    params: &BoundParams,
) -> Result<ProgramBound, String> {
    let program = bench.build(scale);
    verify_program(&program).map_err(|e| format!("{} rejected: {e}", bench.name))?;
    Ok(bound_program(&program, params))
}

fn method_json(b: &vmprobe_analysis::MethodBound) -> String {
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
        .u64("step_budget", b.step_budget)
        .f64("classload_cycles", b.classload_cycles)
        .f64("compile_cycles", b.compile_cycles)
        .f64("interpret_cycles", b.interpret_cycles)
        .f64("gc_cycles", b.gc_cycles)
        .f64("quantum_multiplier", b.quantum_multiplier)
        .f64("core_energy_j", b.core_energy_j)
        .f64("total_energy_j", b.total_energy_j)
        .array("methods", b.methods.iter().map(method_json));
    o.finish()
}

fn print_table(name: &str, b: &ProgramBound) {
    println!(
        "{name}: P_max {:.2} W, S = {}, bound {:.3e} J (core {:.3e} J, quantum ×{:.4})",
        b.p_max_w, b.step_budget, b.total_energy_j, b.core_energy_j, b.quantum_multiplier
    );
    println!(
        "  cycles: classload {:.3e}  compile {:.3e}  interpret {:.3e}  gc {:.3e}",
        b.classload_cycles, b.compile_cycles, b.interpret_cycles, b.gc_cycles
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

/// One golden-workload cross-check cell.
struct GoldenRow {
    benchmark: String,
    vm: String,
    platform: PlatformKind,
    bytecodes: u64,
    measured_j: f64,
    bound_j: f64,
}

impl GoldenRow {
    fn dominated(&self) -> bool {
        self.bound_j.is_finite() && self.bound_j >= self.measured_j
    }

    fn slack(&self) -> f64 {
        self.bound_j / self.measured_j
    }

    fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("benchmark", &self.benchmark)
            .str("vm", &self.vm)
            .str("platform", self.platform.name())
            .u64("bytecodes", self.bytecodes)
            .f64("measured_j", self.measured_j)
            .f64("bound_j", self.bound_j)
            .f64("slack", self.slack())
            .bool("dominated", self.dominated());
        o.finish()
    }
}

/// The bound analyzer's compilation-tier personality for a cell's VM.
fn tier_for(vm: &VmChoice) -> VmTier {
    match vm {
        VmChoice::Jikes(_) => VmTier::Jikes,
        VmChoice::Kaffe => VmTier::Kaffe,
    }
}

/// Run one golden cell and bound it at exactly the step count it took.
fn golden_cell(bench: &Benchmark, cfg: &ExperimentConfig) -> Result<GoldenRow, String> {
    let summary = cfg.run().map_err(|e| e.to_string())?;
    let bound = bound_program(
        &bench.build(cfg.scale),
        &BoundParams {
            platform: cfg.platform,
            vm: tier_for(&cfg.vm),
            heap_bytes: heap_bytes(cfg.heap_mb),
            quantum_cycles: quantum_cycles(cfg.platform),
            step_budget: summary.vm.bytecodes,
        },
    );
    Ok(GoldenRow {
        benchmark: bench.name.to_owned(),
        vm: summary.config.vm.to_string(),
        platform: cfg.platform,
        bytecodes: summary.vm.bytecodes,
        measured_j: summary.report.total_energy.joules(),
        bound_j: bound.total_energy_j,
    })
}

/// The CI gate: every golden cell's static bound must dominate its
/// measured energy.
fn check_golden(out: Option<String>) -> Result<ExitCode, String> {
    let mut rows = Vec::new();
    let mut violations = 0;
    // The golden grid — every benchmark on both personalities: Jikes
    // exercises baseline+opt compilation on the P6, Kaffe the
    // JIT-everything path on the PXA255. Shared with the diff gate so the
    // two CI gates can never drift apart on coverage.
    for cfg in golden_cells() {
        let bench = benchmark(&cfg.benchmark)
            .ok_or_else(|| format!("golden cell names unknown benchmark '{}'", cfg.benchmark))?;
        // The benchmark's program itself must pass the verifier before
        // anything runs — the same admission gate the daemon applies.
        verify_program(&bench.build(cfg.scale))
            .map_err(|e| format!("{} rejected by the verifier: {e}", bench.name))?;
        let row = golden_cell(&bench, &cfg)?;
        if !row.dominated() {
            violations += 1;
            eprintln!(
                "VIOLATION: {} on {} ({:?}): bound {:.3e} J < measured {:.3e} J",
                row.benchmark, row.vm, cfg.platform, row.bound_j, row.measured_j
            );
        }
        rows.push(row);
    }
    println!(
        "{:<16} {:<10} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "benchmark", "vm", "platform", "bytecodes", "measured J", "bound J", "slack"
    );
    for r in &rows {
        println!(
            "{:<16} {:<10} {:>8} {:>12} {:>12.4e} {:>12.4e} {:>8.1}",
            r.benchmark,
            r.vm,
            r.platform.name(),
            r.bytecodes,
            r.measured_j,
            r.bound_j,
            r.slack()
        );
    }
    if let Some(path) = out {
        let mut o = JsonObj::new();
        o.schema_version()
            .bool("ok", violations == 0)
            .u64("violations", violations as u64)
            .array("rows", rows.iter().map(GoldenRow::to_json));
        std::fs::write(&path, o.finish()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if violations > 0 {
        eprintln!("analyze-gate: {violations} violation(s)");
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "analyze-gate: static bound dominates measured energy on all {} cells",
        rows.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// Plain mode: per-benchmark bound tables (or JSON), no execution.
fn analyze(args: &Args, scale: InputScale, params: &BoundParams) -> Result<ExitCode, String> {
    let names: Vec<&str> = if args.positionals.is_empty() {
        all_benchmarks().iter().map(|b| b.name).collect()
    } else {
        args.positionals.iter().map(String::as_str).collect()
    };
    let mut reports = Vec::new();
    for name in names {
        let bench = benchmark(name).ok_or_else(|| format!("unknown benchmark '{name}'"))?;
        let bound = bound_for(&bench, scale, params)?;
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
    let ((scale, params), args) = match parsed {
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
        analyze(&args, scale, &params)
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    verify: true,
                    probe: vmprobe::ProbeSpec::default(),
                });
            }
        }
        assert_eq!(golden_cells(), legacy);
    }

    #[test]
    fn tiers_track_the_vm_personality() {
        assert_eq!(
            tier_for(&VmChoice::Jikes(CollectorKind::SemiSpace)),
            VmTier::Jikes
        );
        assert_eq!(tier_for(&VmChoice::Kaffe), VmTier::Kaffe);
    }
}
