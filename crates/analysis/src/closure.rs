//! Whole-run energy in closed form over the counter file.
//!
//! A DAQ window of `C` cycles at a fixed clock `f` lasts `dt = C / f`,
//! and the power model is linear in the window's counter rates except
//! for the IPC and FP saturation clips. Over unclipped windows
//! `IPC·dt = I / f`, `(FP/C)·dt = FP / f` and `(M/µs)·dt = M·10⁻⁶`, so
//! the sum over windows telescopes to the counter file at the last
//! sample:
//!
//! ```text
//! E = (idle + dram_idle)·T + (c_ipc·I + c_fp·FP) / f + (c_mem·10⁻⁶ + e_access)·M
//! ```
//!
//! with `T = cycles / f`. The measured energy of a fault-free run is this
//! minus the energy the clips removed (`vmprobe_power::DaqLedger`). The
//! computation shares only [`PowerCoeffs`] with the meter: no sampling
//! windows, carry, port attribution, analyzer sums or fault injection.

use vmprobe_platform::HpmSnapshot;
use vmprobe_power::PowerCoeffs;

/// CPU + DRAM energy in joules the power model's unclipped linear form
/// assigns to the counter file `sampled` at clock `freq_hz`.
pub fn closed_energy_j(coeffs: &PowerCoeffs, freq_hz: f64, sampled: &HpmSnapshot) -> f64 {
    let c = coeffs;
    let h = &sampled.counters;
    let seconds = sampled.cycles as f64 / freq_hz;
    (c.cpu_idle_w + c.dram_idle_w) * seconds
        + (c.c_ipc * h.instructions as f64 + c.c_fp * h.fp_ops as f64) / freq_hz
        + (c.c_mem * 1e-6 + c.dram_energy_per_access_j) * h.mem_accesses as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_platform::{Hpm, PlatformKind};

    #[test]
    fn closed_form_evaluates_the_linear_model() {
        let c = PowerCoeffs::of(PlatformKind::PentiumM);
        let sampled = HpmSnapshot {
            cycles: 1_600_000,
            counters: Hpm {
                instructions: 800_000,
                fp_ops: 100_000,
                mem_accesses: 2_000,
                ..Hpm::default()
            },
        };
        // 1 ms at 1.6 GHz: (4.5 + 0.25) W · 1 ms, 10.8 W · 0.5 ms of IPC,
        // 9 W · 62.5 µs of FP rate, and 2000 accesses at 0.12 µJ (CPU
        // rail) plus 45 nJ (DRAM).
        let expected = 4.75e-3 + 5.4e-3 + 5.625e-4 + 2_000.0 * (0.12e-6 + 45e-9);
        let got = closed_energy_j(&c, 1.6e9, &sampled);
        assert!((got - expected).abs() <= 1e-15, "{got} vs {expected}");
        assert_eq!(closed_energy_j(&c, 1.6e9, &HpmSnapshot::default()), 0.0);
    }
}
