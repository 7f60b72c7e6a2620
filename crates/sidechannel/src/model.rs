//! Power-waveform synthesis from control signals.

use offramps_des::{DetRng, Tick};
use offramps_signals::{Axis, EdgeSink, Level, LogicEvent, SignalTrace};

use crate::{SampledTrace, Windows};

/// Electrical model of the printer as seen by one aggregate power
/// sensor on the stepper-motor supply. The published power-signature
/// work (Gatlin et al.) instruments the motor supplies, not the heater
/// rail, whose bang-bang phase noise would bury the motors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Sample rate of the sensor, Hz.
    pub sample_rate_hz: f64,
    /// Watts drawn per 1 000 microsteps/second, per motor (stepper
    /// drive power rises with step rate).
    pub motor_w_per_kstep: f64,
    /// Idle (holding-torque) watts per energized motor.
    pub motor_hold_w: f64,
    /// Standard deviation of the sensor noise, W.
    pub noise_sigma_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            sample_rate_hz: 100.0,
            motor_w_per_kstep: 2.0,
            motor_hold_w: 1.5,
            // A realistic shunt+ADC chain on a noisy 24V rail.
            noise_sigma_w: 1.5,
        }
    }
}

impl PowerModel {
    /// Synthesizes the waveform (W) the sensor would record for `trace`.
    /// `seed` drives the sensor noise. This is [`PowerModel::fold`] fed
    /// the recorded entries in order.
    ///
    /// The channel is *aggregate*: every motor lands in the same scalar
    /// — per-axis information is lost, which is the fundamental handicap
    /// of the side-channel compared to OFFRAMPS' per-pin view.
    pub fn synthesize(&self, trace: &SignalTrace, seed: u64) -> SampledTrace {
        let mut fold = self.fold();
        for e in trace.entries() {
            fold.push(e.tick, e.event);
        }
        fold.finish(seed)
    }

    /// Opens a per-run accumulator of this channel: push it every
    /// control edge the plant receives, in order, then
    /// [`PowerFold::finish`] it. It keeps per-window step counts, not
    /// the edges.
    pub fn fold(&self) -> PowerFold {
        PowerFold {
            model: *self,
            window: Windows::new(self.sample_rate_hz),
            step_high: [false; 4],
            steps: Vec::new(),
            hold_from: None,
        }
    }
}

/// The power channel folded edge by edge while the plant runs
/// ([`PowerModel::fold`]). Implements [`EdgeSink`], so the plant can
/// feed it directly.
#[derive(Debug, Clone)]
pub struct PowerFold {
    model: PowerModel,
    window: Windows,
    /// Whether each STEP pin is `High`, [`Axis::ALL`] order.
    step_high: [bool; 4],
    /// Rising STEP edges per window and motor; windows past the last
    /// rising edge are missing.
    steps: Vec<[u32; 4]>,
    /// The window of the first enable-low edge: every motor draws hold
    /// current from there on.
    hold_from: Option<usize>,
}

impl EdgeSink for PowerFold {
    fn push(&mut self, tick: Tick, event: LogicEvent) {
        let w = self.window.of(tick);
        let pin = event.pin;
        let high = event.level == Level::High;
        if pin.is_step() {
            if let Some(axis) = pin.axis() {
                let i = axis.index();
                if high && !self.step_high[i] {
                    if self.steps.len() <= w {
                        self.steps.resize(w + 1, [0; 4]);
                    }
                    self.steps[w][i] += 1;
                }
                self.step_high[i] = high;
            }
        } else if pin.is_enable() && !high {
            // Active low: any enabled motor draws hold current.
            self.hold_from.get_or_insert(w);
        }
    }
}

impl PowerFold {
    /// Closes the fold: one sample per window up to the last edge
    /// pushed, with the sensor noise `seed` drives drawn in window
    /// order.
    pub fn finish(self, seed: u64) -> SampledTrace {
        let PowerFold {
            model,
            window,
            steps,
            hold_from,
            ..
        } = self;
        let mut rng = DetRng::from_seed(seed ^ 0x5ca1_ab1e);
        let period = window.period;
        let dt = period.as_secs_f64();
        let samples = (0..window.count())
            .map(|w| {
                let counts = steps.get(w).copied().unwrap_or([0; 4]);
                let mut p = 0.0;
                for axis in Axis::ALL {
                    let rate_ksteps = f64::from(counts[axis.index()]) / dt / 1000.0;
                    p += rate_ksteps * model.motor_w_per_kstep;
                }
                if hold_from.is_some_and(|h| w >= h) {
                    p += 4.0 * model.motor_hold_w;
                }
                (p + rng.gaussian(model.noise_sigma_w)).max(0.0)
            })
            .collect();
        SampledTrace { samples, period }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_des::SimDuration;
    use offramps_signals::Pin;

    /// Counts rising edges on a pin.
    fn rising_edges(trace: &SignalTrace, pin: Pin) -> u64 {
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
    fn heater_gate_adds_no_power() {
        // The tap is on the motor rail: the bed heater never shows.
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
