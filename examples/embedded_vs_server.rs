//! Embedded vs server comparison: the same benchmark under Kaffe on the
//! 1.6 GHz Pentium M and on the 400 MHz Intel PXA255 — the paper's
//! Section VI-E study of how component energy shifts on embedded hardware
//! (the class loader becomes a dominant consumer).
//!
//! ```text
//! cargo run --release --example embedded_vs_server [benchmark]
//! ```

use vmprobe::{ExperimentConfig, Runner};
use vmprobe_power::ComponentId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "_213_javac".into());
    let runner = Runner::new();

    // Matching the paper: s100 at 64 MB on the P6; s10 at 16 MB on the
    // board (Section VI-E reduces both input set and heap range).
    let p6 = runner.run(&ExperimentConfig::kaffe(&bench, 64))?;
    let pxa = runner.run(&ExperimentConfig::kaffe_pxa(&bench, 16))?;

    println!("Kaffe running {bench}:\n");
    println!(
        "{:24} {:>18} {:>18}",
        "", "Pentium M (s100)", "PXA255 (s10)"
    );
    println!(
        "{:24} {:>15.1} ms {:>15.1} ms",
        "simulated runtime",
        1e3 * p6.duration_s(),
        1e3 * pxa.duration_s()
    );
    println!(
        "{:24} {:>16.3} J {:>16.4} J",
        "total energy",
        p6.report.total_energy.joules(),
        pxa.report.total_energy.joules()
    );
    for c in [
        ComponentId::Gc,
        ComponentId::ClassLoader,
        ComponentId::JitCompiler,
        ComponentId::Application,
    ] {
        println!(
            "{:24} {:>16.1} % {:>16.1} %",
            format!("{} energy share", c.label()),
            100.0 * p6.fraction(c),
            100.0 * pxa.fraction(c)
        );
    }
    let power =
        |run: &vmprobe::RunSummary, c| run.report.component(c).map_or(0.0, |p| p.avg_power.watts());
    println!(
        "{:24} {:>16.2} W {:>14.0} mW",
        "GC average power",
        power(&p6, ComponentId::Gc),
        1e3 * power(&pxa, ComponentId::Gc)
    );
    println!(
        "{:24} {:>16.2} W {:>14.0} mW",
        "App average power",
        power(&p6, ComponentId::Application),
        1e3 * power(&pxa, ComponentId::Application)
    );
    println!(
        "\nthe class loader's share grows {:.1}x on the embedded platform \
         (paper: 1% -> 18% average)",
        pxa.fraction(ComponentId::ClassLoader) / p6.fraction(ComponentId::ClassLoader).max(1e-9)
    );
    Ok(())
}
