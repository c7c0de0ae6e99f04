//! Thermal-aware garbage collection — prototyping the idea the paper
//! floats in Section VI-C: because the collector is the *least
//! power-hungry* major component, "by triggering garbage collection at
//! points when the temperature of the processor has exceeded a safety
//! threshold level, the processor executes a component with less power
//! requirements, potentially giving it time to cool down".
//!
//! This example measures per-component power from a real run, then
//! replays two thermal scenarios under a failing fan:
//!
//! * **baseline** — the application's measured power profile runs
//!   uninterrupted and trips the 99 °C emergency throttle;
//! * **thermal-aware** — when the die crosses a 92 °C soft threshold, the
//!   runtime schedules collector work (at the GC's measured, lower power)
//!   until the die cools below 88 °C.
//!
//! ```text
//! cargo run --release --example thermal_aware_gc
//! ```

use vmprobe::{ExperimentConfig, Runner};
use vmprobe_heap::CollectorKind;
use vmprobe_power::{Celsius, ComponentId, Seconds, ThermalConfig, ThermalSim, Watts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Measure real component powers from a GC-active run.
    let runner = Runner::new();
    let run = runner.run(&ExperimentConfig::jikes(
        "_213_javac",
        CollectorKind::GenCopy,
        32,
    ))?;
    let app_w = run
        .report
        .component(ComponentId::Application)
        .expect("app")
        .avg_power;
    let gc_w = run.report.component(ComponentId::Gc).expect("gc").avg_power;
    let idle_w = Watts::new(4.5);
    println!("measured: App {app_w:.2}, GC {gc_w:.2} (the GC is the cooler component)\n");

    // Package calibrated so the app's power trips the throttle with the
    // fan off (the Figure 1 scenario).
    let cfg = ThermalConfig {
        r_fan_on: 35.0 / app_w.watts(),
        r_fan_off: 82.0 / app_w.watts(),
        capacitance: 2.4 * app_w.watts(),
        ..ThermalConfig::default()
    };

    let dt = Seconds::new(0.1);
    let horizon = 6_000; // 600 s

    // Scenario A: no thermal awareness.
    let mut sim = ThermalSim::new(cfg, false);
    let mut throttled_steps = 0u32;
    let mut app_steps_a = 0u32;
    for _ in 0..horizon {
        let s = sim.step(app_w, idle_w, dt);
        if s.throttled {
            throttled_steps += 1;
        } else {
            app_steps_a += 1;
        }
    }
    let peak_a = sim.temperature();

    // Scenario B: swap to GC work above 92 C until cooled below 88 C.
    let mut sim = ThermalSim::new(cfg, false);
    let mut gc_mode = false;
    let mut app_steps_b = 0u32;
    let mut gc_steps = 0u32;
    let mut throttled_b = 0u32;
    let mut peak_b = Celsius::ZERO;
    for _ in 0..horizon {
        let t = sim.temperature().celsius();
        if t > 92.0 {
            gc_mode = true;
        } else if t < 88.0 {
            gc_mode = false;
        }
        let p = if gc_mode { gc_w } else { app_w };
        let s = sim.step(p, idle_w, dt);
        peak_b = peak_b.max(s.temp);
        if s.throttled {
            throttled_b += 1;
        } else if gc_mode {
            gc_steps += 1;
        } else {
            app_steps_b += 1;
        }
    }

    println!("fan-off scenario over {} s:", horizon / 10);
    println!(
        "  baseline       : peak {:.1}, hardware-throttled {:.0}% of the time, \
         full-speed app time {:.0}%",
        peak_a,
        100.0 * f64::from(throttled_steps) / f64::from(horizon),
        100.0 * f64::from(app_steps_a) / f64::from(horizon),
    );
    println!(
        "  thermal-aware  : peak {:.1}, hardware-throttled {:.0}% of the time, \
         full-speed app time {:.0}% (+{:.0}% spent in useful GC work)",
        peak_b,
        100.0 * f64::from(throttled_b) / f64::from(horizon),
        100.0 * f64::from(app_steps_b) / f64::from(horizon),
        100.0 * f64::from(gc_steps) / f64::from(horizon),
    );
    if peak_b < Celsius::new(99.0) && throttled_b == 0 {
        println!(
            "\nscheduling the cooler GC component at the soft threshold kept the die\n\
             below the 99 C emergency trip entirely — the collector's pause time\n\
             doubles as cooldown time, as the paper suggests."
        );
    }
    Ok(())
}
