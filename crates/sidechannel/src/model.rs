//! Power-waveform synthesis from control signals.

use offramps_des::{DetRng, SimDuration, Tick};
use offramps_signals::{Axis, Level, Pin, SignalTrace};

use crate::SampledTrace;

/// Electrical model of the printer as seen by one aggregate power
/// sensor on the supply rail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Sample rate of the sensor, Hz.
    pub sample_rate_hz: f64,
    /// Watts drawn per 1 000 microsteps/second, per motor (stepper
    /// drive power rises with step rate).
    pub motor_w_per_kstep: f64,
    /// Idle (holding-torque) watts per energized motor.
    pub motor_hold_w: f64,
    /// Hotend cartridge watts while its gate is high.
    pub hotend_w: f64,
    /// Bed watts while its gate is high.
    pub bed_w: f64,
    /// Fan watts while its gate is high.
    pub fan_w: f64,
    /// Standard deviation of the sensor noise, W.
    pub noise_sigma_w: f64,
    /// Include the heater/fan rail in the tap. The published
    /// power-signature work (Gatlin et al.) instruments the *stepper
    /// motor* supplies — heater bang-bang phase noise would otherwise
    /// bury the motors — so the default taps motors only.
    pub include_heaters: bool,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            sample_rate_hz: 100.0,
            motor_w_per_kstep: 2.0,
            motor_hold_w: 1.5,
            hotend_w: 45.0,
            bed_w: 250.0,
            fan_w: 2.0,
            // A realistic shunt+ADC chain on a noisy 24V rail.
            noise_sigma_w: 1.5,
            include_heaters: false,
        }
    }
}

impl PowerModel {
    /// Synthesizes the waveform (W) the sensor would record for `trace`.
    /// `seed` drives the sensor noise.
    ///
    /// The channel is *aggregate*: every motor, both heaters and the fan
    /// land in the same scalar — per-axis information is lost, which is
    /// the fundamental handicap of the side-channel compared to
    /// OFFRAMPS' per-pin view.
    pub fn synthesize(&self, trace: &SignalTrace, seed: u64) -> SampledTrace {
        let period = SimDuration::from_secs_f64(1.0 / self.sample_rate_hz);
        let end = trace.entries().last().map(|e| e.tick).unwrap_or(Tick::ZERO);
        let n = (end.ticks() / period.ticks() + 1) as usize;

        // Per-window step counts per motor.
        let mut steps = vec![[0u32; 4]; n];
        // Duty integrators for gate signals (fraction of window high).
        let mut hotend_high = vec![0.0f64; n];
        let mut bed_high = vec![0.0f64; n];
        let mut fan_high = vec![0.0f64; n];
        let mut enabled_any = vec![false; n];

        // Walk the trace once, accumulating per window.
        let mut last_level: std::collections::BTreeMap<Pin, (Level, Tick)> =
            std::collections::BTreeMap::new();
        let win_of = |t: Tick| ((t.ticks() / period.ticks()) as usize).min(n - 1);
        let spread_high = |acc: &mut Vec<f64>, from: Tick, to: Tick| {
            // Distribute a high interval across windows as duty.
            let (a, b) = (win_of(from), win_of(to));
            for (w, slot) in acc.iter_mut().enumerate().take(b + 1).skip(a) {
                let w_start = Tick::new(w as u64 * period.ticks());
                let w_end = w_start + period;
                let overlap_start = from.max(w_start);
                let overlap_end = to.min(w_end);
                if overlap_end > overlap_start {
                    *slot += (overlap_end - overlap_start).as_secs_f64() / period.as_secs_f64();
                }
            }
        };

        for e in trace.entries() {
            let pin = e.event.pin;
            let level = e.event.level;
            let prev = last_level.insert(pin, (level, e.tick));
            let rising = match prev {
                Some((l, _)) => l == Level::Low && level == Level::High,
                None => level == Level::High,
            };
            let falling = match prev {
                Some((l, _)) => l == Level::High && level == Level::Low,
                None => false,
            };
            if pin.is_step() && rising {
                if let Some(axis) = pin.axis() {
                    steps[win_of(e.tick)][axis.index()] += 1;
                }
            }
            if pin.is_enable() {
                // Active low: any enabled motor draws hold current.
                if level == Level::Low {
                    let w = win_of(e.tick);
                    for slot in enabled_any.iter_mut().skip(w) {
                        *slot = true;
                    }
                }
            }
            if falling {
                if let Some((_, rise_at)) = prev {
                    match pin {
                        Pin::HotendHeat => spread_high(&mut hotend_high, rise_at, e.tick),
                        Pin::BedHeat => spread_high(&mut bed_high, rise_at, e.tick),
                        Pin::FanPwm => spread_high(&mut fan_high, rise_at, e.tick),
                        _ => {}
                    }
                }
            }
        }
        // Gates still high at the end of the trace.
        for (pin, acc) in [
            (Pin::HotendHeat, &mut hotend_high),
            (Pin::BedHeat, &mut bed_high),
            (Pin::FanPwm, &mut fan_high),
        ] {
            if let Some((Level::High, rise_at)) = last_level.get(&pin).copied() {
                spread_high(acc, rise_at, end);
            }
        }

        let mut rng = DetRng::from_seed(seed ^ 0x5ca1_ab1e);
        let dt = period.as_secs_f64();
        let samples = (0..n)
            .map(|w| {
                let mut p = 0.0;
                for axis in Axis::ALL {
                    let rate_ksteps = f64::from(steps[w][axis.index()]) / dt / 1000.0;
                    p += rate_ksteps * self.motor_w_per_kstep;
                }
                if enabled_any[w] {
                    p += 4.0 * self.motor_hold_w;
                }
                if self.include_heaters {
                    p += hotend_high[w].min(1.0) * self.hotend_w;
                    p += bed_high[w].min(1.0) * self.bed_w;
                    p += fan_high[w].min(1.0) * self.fan_w;
                }
                (p + rng.gaussian(self.noise_sigma_w)).max(0.0)
            })
            .collect();
        SampledTrace { samples, period }
    }
}

/// Convenience: count rising edges on a pin (used by tests).
#[cfg(test)]
pub(crate) fn rising_edges(trace: &SignalTrace, pin: Pin) -> u64 {
    let mut last = Level::Low;
    let mut count = 0;
    for e in trace.entries().iter().filter(|e| e.event.pin == pin) {
        if last == Level::Low && e.event.level == Level::High {
            count += 1;
        }
        last = e.event.level;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_signals::LogicEvent;

    fn noiseless() -> PowerModel {
        PowerModel {
            noise_sigma_w: 1e-12,
            ..PowerModel::default()
        }
    }

    fn step_train(trace: &mut SignalTrace, pin: Pin, start_ms: u64, n: u64, period_us: u64) {
        for i in 0..n {
            let t = Tick::from_millis(start_ms) + SimDuration::from_micros(i * period_us);
            trace.record(t, LogicEvent::new(pin, Level::High));
            trace.record(
                t + SimDuration::from_micros(2),
                LogicEvent::new(pin, Level::Low),
            );
        }
    }

    #[test]
    fn motor_power_tracks_step_rate() {
        let mut trace = SignalTrace::new();
        // 4 kHz on X for 100 ms starting at t=0.
        step_train(&mut trace, Pin::XStep, 0, 400, 250);
        let p = noiseless().synthesize(&trace, 1);
        // 4 ksteps/s * 2 W = 8 W in the active windows.
        let peak = p.samples().iter().cloned().fold(0.0, f64::max);
        assert!((peak - 8.0).abs() < 1.0, "peak {peak}");
        assert_eq!(rising_edges(&trace, Pin::XStep), 400);
    }

    #[test]
    fn heater_gate_adds_power() {
        // Heater tap enabled explicitly for this test.
        let mut trace = SignalTrace::new();
        trace.record(Tick::ZERO, LogicEvent::new(Pin::BedHeat, Level::High));
        trace.record(
            Tick::from_millis(500),
            LogicEvent::new(Pin::BedHeat, Level::Low),
        );
        trace.record(
            Tick::from_millis(600),
            LogicEvent::new(Pin::XStep, Level::High),
        );
        trace.record(
            Tick::from_millis(601),
            LogicEvent::new(Pin::XStep, Level::Low),
        );
        let p = PowerModel {
            include_heaters: true,
            ..noiseless()
        }
        .synthesize(&trace, 1);
        // First 0.5 s at 250 W, afterwards ~0.
        assert!(p.samples()[10] > 200.0, "{}", p.samples()[10]);
        assert!(p.samples()[55] < 50.0, "{}", p.samples()[55]);

        // Default tap (motor rail) ignores the heater entirely.
        let motors_only = noiseless().synthesize(&trace, 1);
        assert!(motors_only.samples()[10] < 1.0);
    }

    #[test]
    fn channel_is_aggregate() {
        // X-only and Y-only step trains produce the SAME waveform: the
        // side channel cannot tell the axes apart.
        let mut tx = SignalTrace::new();
        step_train(&mut tx, Pin::XStep, 0, 200, 250);
        let mut ty = SignalTrace::new();
        step_train(&mut ty, Pin::YStep, 0, 200, 250);
        let m = noiseless();
        let px = m.synthesize(&tx, 7);
        let py = m.synthesize(&ty, 7);
        for (a, b) in px.samples().iter().zip(py.samples()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn noise_is_seeded_and_reproducible() {
        let mut trace = SignalTrace::new();
        step_train(&mut trace, Pin::XStep, 0, 100, 250);
        let m = PowerModel::default();
        let a = m.synthesize(&trace, 42);
        let b = m.synthesize(&trace, 42);
        let c = m.synthesize(&trace, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_trace_yields_tiny_trace() {
        let p = PowerModel::default().synthesize(&SignalTrace::new(), 1);
        assert_eq!(p.len(), 1);
    }
}
