//! Quickstart: run one benchmark under one VM configuration and print the
//! per-component energy/power report — the suite's core workflow.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use vmprobe::{ExperimentConfig, Runner};
use vmprobe_heap::CollectorKind;
use vmprobe_power::ComponentId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's marquee configuration: `_213_javac` on Jikes RVM with a
    // SemiSpace collector at a 32 MB heap — the case where JVM services
    // consume up to 60% of total energy (Section VI-A).
    let config = ExperimentConfig::jikes("_213_javac", CollectorKind::SemiSpace, 32);

    let runner = Runner::new();
    let run = runner.run(&config)?;

    println!("configuration : {config}");
    println!(
        "simulated run : {:.1} ms, {} bytecodes, {} allocations",
        1e3 * run.duration_s(),
        run.vm.bytecodes,
        run.vm.allocations
    );
    println!(
        "energy        : {:.3} J CPU + {:.3} J DRAM (memory share {:.1}%)",
        run.report.cpu_energy.joules(),
        run.report.mem_energy.joules(),
        100.0 * run.report.mem_energy_fraction()
    );
    println!("energy-delay  : {:.4} J*s", run.edp());
    println!(
        "collections   : {} ({} KiB copied)",
        run.gc.collections,
        run.gc.total_copied_bytes >> 10
    );
    println!();
    println!("per-component decomposition (the paper's Figure 6 bar for this run):");
    for c in [
        ComponentId::OptCompiler,
        ComponentId::BaseCompiler,
        ComponentId::ClassLoader,
        ComponentId::Gc,
        ComponentId::Application,
    ] {
        if let Some(p) = run.report.component(c) {
            println!(
                "  {:9} {:5.1}%  avg {:5.2} W  peak {:5.2} W",
                c.label(),
                100.0 * run.fraction(c),
                p.avg_power.watts(),
                p.peak_power.watts()
            );
        }
    }
    println!();
    println!(
        "JVM services consumed {:.1}% of CPU energy (paper: up to 60% for this config)",
        100.0 * run.report.jvm_energy_fraction()
    );
    Ok(())
}
