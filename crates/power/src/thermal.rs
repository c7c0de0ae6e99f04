//! Lumped-RC package thermal model with emergency throttling.
//!
//! Reproduces the paper's Figure 1 experiment: a 1.6 GHz Pentium M running
//! `_222_mpegaudio` repeatedly sits near 60 °C with its fan enabled; with
//! the fan disabled the package climbs to 99 °C in about 240 s, at which
//! point the processor's thermal emergency response reduces the clock duty
//! cycle to 50 %, proportionally reducing performance (and power) until the
//! die cools below the release threshold.
//!
//! The model is the standard first-order thermal circuit
//! `C·dT/dt = P − (T − T_amb)/R`, with the fan toggling the convection
//! resistance `R`.

use serde::{Deserialize, Serialize};

use crate::{Celsius, Seconds, Watts};

/// Thermal-circuit parameters.
///
/// Defaults are calibrated to Figure 1: steady ~60 °C at ~13 W with the fan
/// on; trip at 99 °C after ~240 s with the fan off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalConfig {
    /// Ambient temperature.
    pub ambient_c: f64,
    /// Junction-to-ambient resistance with the fan running, in °C/W.
    pub r_fan_on: f64,
    /// Junction-to-ambient resistance with the fan failed, in °C/W.
    pub r_fan_off: f64,
    /// Thermal capacitance in J/°C.
    pub capacitance: f64,
    /// Emergency-throttle trip temperature.
    pub trip_c: f64,
    /// Temperature below which throttling releases.
    pub release_c: f64,
    /// Clock duty cycle while throttled.
    pub throttle_duty: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        Self {
            ambient_c: 25.0,
            r_fan_on: 2.7,
            r_fan_off: 7.0,
            capacitance: 28.0,
            trip_c: 99.0,
            release_c: 94.0,
            throttle_duty: 0.5,
        }
    }
}

/// A point on the thermal trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalState {
    /// Elapsed time.
    pub t: Seconds,
    /// Die temperature.
    pub temp: Celsius,
    /// Power applied during the step (after any duty-cycle reduction).
    pub power: Watts,
    /// Whether the emergency throttle is engaged.
    pub throttled: bool,
}

/// The thermal simulator.
#[derive(Debug, Clone)]
pub struct ThermalSim {
    cfg: ThermalConfig,
    fan_on: bool,
    temp_c: f64,
    time_s: f64,
    throttled: bool,
}

impl ThermalSim {
    /// Start at ambient temperature.
    pub fn new(cfg: ThermalConfig, fan_on: bool) -> Self {
        Self {
            temp_c: cfg.ambient_c,
            cfg,
            fan_on,
            time_s: 0.0,
            throttled: false,
        }
    }

    /// Toggle the fan mid-run (the paper's fan-failure scenario).
    pub fn set_fan(&mut self, on: bool) {
        self.fan_on = on;
    }

    /// Current die temperature.
    pub fn temperature(&self) -> Celsius {
        Celsius::new(self.temp_c)
    }

    /// Effective clock duty cycle: 1.0 normally, `throttle_duty` while the
    /// emergency response is active. Callers scale delivered performance
    /// (and active power) by this factor.
    pub fn duty(&self) -> f64 {
        if self.throttled {
            self.cfg.throttle_duty
        } else {
            1.0
        }
    }

    /// Advance the model by `dt` under `chip_power` (the power the chip
    /// *wants* to draw; the model applies the duty cycle when throttled,
    /// with `idle_power` drawn during duty-off periods).
    pub fn step(&mut self, chip_power: Watts, idle_power: Watts, dt: Seconds) -> ThermalState {
        let duty = self.duty();
        let p = chip_power.watts() * duty + idle_power.watts() * (1.0 - duty);
        let r = if self.fan_on {
            self.cfg.r_fan_on
        } else {
            self.cfg.r_fan_off
        };
        let dt_s = dt.seconds();
        let d_temp = (p - (self.temp_c - self.cfg.ambient_c) / r) / self.cfg.capacitance * dt_s;
        self.temp_c += d_temp;
        self.time_s += dt_s;

        if self.temp_c >= self.cfg.trip_c {
            self.throttled = true;
        } else if self.temp_c <= self.cfg.release_c {
            self.throttled = false;
        }

        ThermalState {
            t: Seconds::new(self.time_s),
            temp: Celsius::new(self.temp_c),
            power: Watts::new(p),
            throttled: self.throttled,
        }
    }

    /// Steady-state temperature under constant `power` with the current fan
    /// setting (no throttling considered).
    pub fn steady_state(&self, power: Watts) -> Celsius {
        let r = if self.fan_on {
            self.cfg.r_fan_on
        } else {
            self.cfg.r_fan_off
        };
        Celsius::new(self.cfg.ambient_c + power.watts() * r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P_RUN: Watts = Watts::new(13.0);
    const P_IDLE: Watts = Watts::new(4.5);

    fn run(sim: &mut ThermalSim, seconds: f64) -> Vec<ThermalState> {
        let dt = Seconds::new(0.1);
        (0..(seconds / 0.1) as usize)
            .map(|_| sim.step(P_RUN, P_IDLE, dt))
            .collect()
    }

    #[test]
    fn fan_on_settles_near_sixty_celsius() {
        let mut sim = ThermalSim::new(ThermalConfig::default(), true);
        let trace = run(&mut sim, 600.0);
        let last = trace.last().unwrap();
        assert!(
            (55.0..65.0).contains(&last.temp.celsius()),
            "steady temp {} should be near 60C",
            last.temp
        );
        assert!(!last.throttled);
        assert!((sim.steady_state(P_RUN).celsius() - 60.1).abs() < 0.5);
    }

    #[test]
    fn fan_off_trips_throttle_around_four_minutes() {
        let mut sim = ThermalSim::new(ThermalConfig::default(), true);
        run(&mut sim, 600.0); // reach fan-on steady state (~60C)
        sim.set_fan(false);
        let dt = Seconds::new(0.1);
        let mut trip_time = None;
        for i in 0..10_000 {
            let s = sim.step(P_RUN, P_IDLE, dt);
            if s.throttled {
                trip_time = Some(i as f64 * 0.1);
                break;
            }
        }
        let t = trip_time.expect("should trip");
        assert!(
            (120.0..400.0).contains(&t),
            "trip after {t}s; paper reports ~240s"
        );
    }

    #[test]
    fn throttling_caps_temperature() {
        let mut sim = ThermalSim::new(ThermalConfig::default(), false);
        let trace = run(&mut sim, 2000.0);
        let max_t = trace.iter().map(|s| s.temp.celsius()).fold(0.0, f64::max);
        assert!(max_t < 101.0, "throttle must cap temperature, saw {max_t}");
        assert!(trace.iter().any(|s| s.throttled));
        // While throttled, applied power drops to the duty-weighted mix
        // (the first tripping step still ran at full duty, so look for any
        // subsequent throttled step).
        let duty_mix = 13.0 * 0.5 + 4.5 * 0.5;
        assert!(trace
            .iter()
            .any(|s| s.throttled && (s.power.watts() - duty_mix).abs() < 1e-9));
    }

    #[test]
    fn duty_toggles_with_hysteresis() {
        let mut sim = ThermalSim::new(ThermalConfig::default(), false);
        assert_eq!(sim.duty(), 1.0);
        run(&mut sim, 2000.0);
        // Long fan-off run oscillates between trip and release.
        assert!(sim.temperature().celsius() > 90.0);
    }
}
