//! Activity-based instantaneous power model.

use vmprobe_platform::{HpmDelta, PlatformKind};

use crate::{PowerCoeffs, Watts};

/// Retirement-rate saturation: issue width bounds how much of the core a
/// window can light up, so the IPC term clips here (this is also what
/// keeps modeled peaks inside the parts' thermal design power). The clip
/// is the one non-linear step between the counter file and the measured
/// energy: the DAQ's clip ledger ([`crate::DaqLedger`]) records what it
/// removes.
pub(crate) const IPC_SATURATION: f64 = 1.15;

/// Clip of the FP-ops-per-cycle term; recorded by the clip ledger like
/// [`IPC_SATURATION`].
pub(crate) const FP_SATURATION: f64 = 0.5;

/// Converts HPM counter movement over a sampling window into CPU and DRAM
/// power, playing the role of the paper's sense resistors + V·I
/// multiplication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    coeffs: PowerCoeffs,
}

impl PowerModel {
    /// Model with the standard calibration for `kind`.
    pub fn new(kind: PlatformKind) -> Self {
        Self {
            coeffs: PowerCoeffs::of(kind),
        }
    }

    /// Model with custom coefficients (sensitivity studies).
    pub fn with_coeffs(coeffs: PowerCoeffs) -> Self {
        Self { coeffs }
    }

    /// The coefficients in force.
    pub fn coeffs(&self) -> &PowerCoeffs {
        &self.coeffs
    }

    /// CPU power over a window of `dt_s` seconds in which the counters
    /// moved by `d`. An empty window draws idle power.
    pub fn cpu_power(&self, d: &HpmDelta, dt_s: f64) -> Watts {
        if dt_s <= 0.0 {
            return Watts::new(self.coeffs.cpu_idle_w);
        }
        let ipc = d.ipc().min(IPC_SATURATION);
        let fp_per_cycle = if d.cycles == 0 {
            0.0
        } else {
            d.fp_ops as f64 / d.cycles as f64
        };
        let mem_per_us = d.mem_accesses as f64 / (dt_s * 1e6);
        Watts::new(
            self.coeffs.cpu_idle_w
                + self.coeffs.c_ipc * ipc
                + self.coeffs.c_fp * fp_per_cycle.min(FP_SATURATION)
                + self.coeffs.c_mem * mem_per_us,
        )
    }

    /// Energy in joules the [`IPC_SATURATION`] and [`FP_SATURATION`]
    /// clips remove from a window of `dt_s` seconds in which the counters
    /// moved by `d`: the unclipped CPU energy minus
    /// `cpu_power(d, dt_s) · dt_s`. It is computed from the rates' excess
    /// over the clips, not through [`Self::cpu_power`], so the clip ledger
    /// stays an independent record of what the clips did.
    pub(crate) fn clipped_j(&self, d: &HpmDelta, dt_s: f64) -> f64 {
        if d.cycles == 0 {
            return 0.0;
        }
        let cycles = d.cycles as f64;
        let ipc_excess = (d.instructions as f64 / cycles - IPC_SATURATION).max(0.0);
        let fp_excess = (d.fp_ops as f64 / cycles - FP_SATURATION).max(0.0);
        (self.coeffs.c_ipc * ipc_excess + self.coeffs.c_fp * fp_excess) * dt_s
    }

    /// DRAM power over the window.
    pub fn dram_power(&self, d: &HpmDelta, dt_s: f64) -> Watts {
        if dt_s <= 0.0 {
            return Watts::new(self.coeffs.dram_idle_w);
        }
        let access_rate = d.mem_accesses as f64 / dt_s;
        Watts::new(self.coeffs.dram_idle_w + self.coeffs.dram_energy_per_access_j * access_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(instr: u64, cycles: u64, fp: u64, mem: u64) -> HpmDelta {
        HpmDelta {
            cycles,
            instructions: instr,
            fp_ops: fp,
            mem_accesses: mem,
            ..HpmDelta::default()
        }
    }

    #[test]
    fn idle_window_draws_idle_power() {
        let m = PowerModel::new(PlatformKind::PentiumM);
        let p = m.cpu_power(&window(0, 64000, 0, 0), 40e-6);
        assert!((p.watts() - 4.5).abs() < 1e-9);
        assert!((m.cpu_power(&HpmDelta::default(), 0.0).watts() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn app_like_window_lands_near_paper_app_power() {
        // IPC 0.8, light memory traffic: the paper's application component
        // runs ~13-14 W on the P6.
        let m = PowerModel::new(PlatformKind::PentiumM);
        let cycles = 64_000;
        let p = m.cpu_power(&window(51_200, cycles, 2_000, 80), 40e-6);
        assert!(
            p.watts() > 12.5 && p.watts() < 15.0,
            "app-like window should be ~13-14 W, got {p}"
        );
    }

    #[test]
    fn gc_like_window_is_lower_power_than_app() {
        // IPC 0.55 with heavy memory traffic: the paper's GenCopy collector
        // averages 12.8 W — below the application but above idle.
        let m = PowerModel::new(PlatformKind::PentiumM);
        let cycles = 64_000;
        let gc = m.cpu_power(&window(35_200, cycles, 0, 800), 40e-6);
        let app = m.cpu_power(&window(51_200, cycles, 2_000, 80), 40e-6);
        assert!(gc < app);
        assert!(gc.watts() > 10.0, "GC-like window too cold: {gc}");
    }

    #[test]
    fn dram_power_scales_with_traffic() {
        let m = PowerModel::new(PlatformKind::PentiumM);
        let quiet = m.dram_power(&window(0, 64_000, 0, 0), 40e-6);
        let busy = m.dram_power(&window(0, 64_000, 0, 400), 40e-6);
        assert!((quiet.watts() - 0.25).abs() < 1e-9);
        assert!(busy > quiet);
        // 10M accesses/s * 45nJ = 0.45 W over idle.
        assert!((busy.watts() - (0.25 + 0.45)).abs() < 1e-6);
    }

    #[test]
    fn clip_ledger_records_exactly_what_the_clips_remove() {
        let m = PowerModel::new(PlatformKind::PentiumM);
        let c = m.coeffs();
        // IPC 2.0 and 0.8 FP ops/cycle: both rates sit above their clips.
        // The clipped power plus the ledger is the unclipped linear form.
        let hot = window(128_000, 64_000, 51_200, 0);
        let unclipped = c.cpu_idle_w + c.c_ipc * 2.0 + c.c_fp * 0.8;
        let recovered = m.cpu_power(&hot, 40e-6).watts() * 40e-6 + m.clipped_j(&hot, 40e-6);
        assert!((recovered - unclipped * 40e-6).abs() <= 1e-15);
        // IPC 0.8 and 0.2 FP ops/cycle: below both clips, nothing removed.
        assert_eq!(m.clipped_j(&window(51_200, 64_000, 12_800, 80), 40e-6), 0.0);
        // Only the FP rate over its clip.
        let fp_only = window(51_200, 64_000, 51_200, 0);
        let fp_expected = c.c_fp * (0.8 - FP_SATURATION) * 40e-6;
        assert!((m.clipped_j(&fp_only, 40e-6) - fp_expected).abs() <= 1e-18);
        assert_eq!(m.clipped_j(&HpmDelta::default(), 0.0), 0.0);
    }

    #[test]
    fn pxa_magnitudes_are_milliwatt_scale() {
        let m = PowerModel::new(PlatformKind::Pxa255);
        // 40us at 400MHz = 16000 cycles; IPC 0.5.
        let p = m.cpu_power(&window(8_000, 16_000, 0, 40), 40e-6);
        assert!(p.watts() > 0.1 && p.watts() < 0.5, "got {p}");
    }
}
