//! The wall-clock sampling schedule shared by the DAQ and the OS-timer HPM
//! monitor.
//!
//! Both instruments fire on wall-clock time against the machine's cycle
//! counter. The clock is fixed for a run (a DVFS point is chosen when the
//! rig is built), so seconds are always `cycles / freq_hz`.

use vmprobe_platform::{HpmDelta, HpmSnapshot, HpmUnwrapper};

/// Convert a wall-clock sampling period to whole cycles at `freq_hz`,
/// rounded to nearest and clamped to at least one cycle.
///
/// Truncation here is not harmless: at non-integral DVFS clocks the lost
/// fraction accumulates as sampling-rate drift, and at very low clocks
/// `period_s * freq_hz < 1` truncates to a zero-period busy-sample loop.
fn period_cycles_at(period_s: f64, freq_hz: f64) -> u64 {
    let cycles = (period_s * freq_hz).round();
    if cycles < 1.0 {
        1
    } else {
        cycles as u64
    }
}

/// A fixed-clock periodic sampler over the HPM counter file: it decides
/// when a sample is due and hands out the window since the previous one.
#[derive(Debug, Clone)]
pub(crate) struct Sampler {
    freq_hz: f64,
    period_cycles: u64,
    /// Exact (fractional) cycles per period at the clock.
    period_cycles_f: f64,
    /// Fractional cycles owed to the schedule: each window steps by a whole
    /// number of cycles, and the rounding remainder is carried forward so
    /// the boundaries track the wall-clock grid without cumulative drift at
    /// non-integral clocks.
    carry: f64,
    next_due: u64,
    last: HpmSnapshot,
    /// Present when reads see a 32-bit counter file that must be unwrapped.
    unwrapper: Option<HpmUnwrapper>,
}

impl Sampler {
    /// Sampler firing every `period_s` wall-clock seconds at `freq_hz`.
    pub(crate) fn new(period_s: f64, freq_hz: f64) -> Self {
        debug_assert!(period_s > 0.0, "sampling period must be positive");
        debug_assert!(freq_hz > 0.0, "clock must be positive");
        let period_cycles = period_cycles_at(period_s, freq_hz);
        Self {
            freq_hz,
            period_cycles,
            period_cycles_f: period_s * freq_hz,
            carry: 0.0,
            next_due: period_cycles,
            last: HpmSnapshot::default(),
            unwrapper: None,
        }
    }

    /// Read the counter file through a wrapping 32-bit view and unwrap it
    /// (`on`), or read it whole.
    pub(crate) fn set_wrap32(&mut self, on: bool) {
        self.unwrapper = on.then(HpmUnwrapper::new);
    }

    /// Counter wraps detected and unwrapped so far.
    pub(crate) fn wraps_detected(&self) -> u64 {
        self.unwrapper
            .as_ref()
            .map_or(0, HpmUnwrapper::wraps_detected)
    }

    /// Cycle count at which the next sample is due.
    pub(crate) fn next_due(&self) -> u64 {
        self.next_due
    }

    /// Whole cycles in one period.
    pub(crate) fn period_cycles(&self) -> u64 {
        self.period_cycles
    }

    /// Wall-clock seconds spanned by `cycles`.
    pub(crate) fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz
    }

    /// Take a sample if one is due at `snap`: the window's HPM movement
    /// since the previous sample and the sample's time in seconds. `snap`
    /// must be monotonically non-decreasing across calls.
    pub(crate) fn take(&mut self, snap: &HpmSnapshot) -> Option<(HpmDelta, f64)> {
        if snap.cycles < self.next_due {
            return None;
        }
        // The cycle counter is the timebase (not wrapped); only the counter
        // file goes through the 32-bit read + unwrap path, and only at due
        // instants (exact while each counter moves by < 2^32 per window).
        let snap = match &mut self.unwrapper {
            Some(u) => u.unwrap_snapshot(&snap.wrapped32()),
            None => *snap,
        };
        let delta = snap.delta_since(&self.last);
        self.last = snap;
        // The next boundary steps by the exact fractional period plus the
        // carried remainder.
        let step_f = self.period_cycles_f + self.carry;
        if step_f < 1.0 {
            // Degenerate clock: one sample per cycle is the densest the
            // schedule can get; owing fractional debt would wind the carry
            // toward -inf, so it resets.
            self.carry = 0.0;
            self.next_due = snap.cycles + 1;
        } else {
            let step = step_f.round();
            self.carry = step_f - step;
            self.next_due = snap.cycles + step as u64;
        }
        Some((delta, self.seconds(snap.cycles)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DAQ_PERIOD_S;

    #[test]
    fn period_rounds_to_nearest_and_never_reaches_zero() {
        // Exact at the nominal platform clocks (truncation and rounding
        // agree here, which is what keeps the golden figures stable).
        assert_eq!(period_cycles_at(DAQ_PERIOD_S, 1.6e9), 64_000);
        assert_eq!(period_cycles_at(DAQ_PERIOD_S, 4e8), 16_000);
        // Non-integral products round to nearest instead of truncating:
        // 40 us at 1.23456789 GHz is 49 382.7156 cycles.
        assert_eq!(period_cycles_at(DAQ_PERIOD_S, 1.234_567_89e9), 49_383);
        // Sub-cycle periods clamp to one cycle instead of degenerating to
        // a zero-period busy-sample loop.
        assert_eq!(period_cycles_at(DAQ_PERIOD_S, 10_000.0), 1);
    }
}
