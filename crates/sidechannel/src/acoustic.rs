//! Acoustic/EM emission synthesis from step timing.
//!
//! Stepper motors sing: each STEP edge excites the windings and the
//! frame, so a microphone (or a near-field EM probe) hears a tone at
//! the stepping rate plus a transient "click" whenever the cadence
//! breaks — a masked pulse, an injected pulse, a feed-rate change. The
//! published acoustic side-channel attacks *reconstruct* G-code from
//! exactly these emissions; pointed the other way, the same channel
//! *defends*: a golden print has a golden sound.
//!
//! [`AcousticModel`] synthesizes the frame-by-frame emission intensity
//! a single aggregate microphone would record from a plant-side
//! [`SignalTrace`]:
//!
//! * a **tone** term proportional to the total stepping rate in the
//!   frame (all motors land in one channel — like the power tap, the
//!   microphone cannot tell axes apart),
//! * a **click** term counting step-interval discontinuities (an
//!   inter-step interval that differs from its predecessor by more
//!   than [`AcousticModel::click_ratio`]) — the signature of dropped
//!   or injected pulses that leave per-frame step *counts* almost
//!   intact and therefore hide from a power sensor,
//! * Gaussian microphone noise, seeded per run.
//!
//! Intensities are in arbitrary units (a.u.); only deviations from the
//! golden profile matter, via [`crate::comparator`].

use offramps_des::{DetRng, SimDuration, Tick};
use offramps_signals::{Pin, SignalTrace, ALL_PINS};

use crate::SampledTrace;

/// Acoustic/EM channel model for one aggregate microphone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcousticModel {
    /// Frame rate of the intensity envelope, Hz.
    pub sample_rate_hz: f64,
    /// Intensity per 1 000 steps/second of total stepping rate, a.u.
    pub tone_per_kstep: f64,
    /// Intensity per timing discontinuity ("click"), a.u.
    pub click_unit: f64,
    /// Relative inter-step-interval change that counts as a click: an
    /// interval is a discontinuity when `max/min > 1 + click_ratio`
    /// against its predecessor on the same pin.
    pub click_ratio: f64,
    /// Standard deviation of the microphone noise, a.u.
    pub noise_sigma: f64,
}

impl Default for AcousticModel {
    fn default() -> Self {
        AcousticModel {
            // 20 ms frames: fine enough to localize cadence breaks,
            // coarse enough to keep traces small.
            sample_rate_hz: 50.0,
            tone_per_kstep: 1.0,
            // A click is a broadband transient: it carries several
            // times the energy of the steady hum it interrupts.
            click_unit: 4.0,
            click_ratio: 0.5,
            noise_sigma: 0.2,
        }
    }
}

impl AcousticModel {
    /// Synthesizes the emission envelope (a.u., one sample per frame)
    /// the microphone would record for `trace`. `seed` drives the
    /// microphone noise.
    pub fn synthesize(&self, trace: &SignalTrace, seed: u64) -> SampledTrace {
        let period = SimDuration::from_secs_f64(1.0 / self.sample_rate_hz);
        let end = trace.entries().last().map(|e| e.tick).unwrap_or(Tick::ZERO);
        let n = (end.ticks() / period.ticks() + 1) as usize;
        let win_of = |t: Tick| ((t.ticks() / period.ticks()) as usize).min(n - 1);

        let mut steps = vec![0u32; n];
        let mut clicks = vec![0u32; n];
        for pin in ALL_PINS {
            if !pin.is_step() {
                continue;
            }
            self.accumulate_pin(trace, pin, &mut steps, &mut clicks, &win_of);
        }

        let mut rng = DetRng::from_seed(seed ^ MIC_NOISE_SALT);
        let dt = period.as_secs_f64();
        let samples = (0..n)
            .map(|w| {
                let rate_ksteps = f64::from(steps[w]) / dt / 1000.0;
                let p = rate_ksteps * self.tone_per_kstep + f64::from(clicks[w]) * self.click_unit;
                (p + rng.gaussian(self.noise_sigma)).max(0.0)
            })
            .collect();
        SampledTrace { samples, period }
    }

    fn accumulate_pin(
        &self,
        trace: &SignalTrace,
        pin: Pin,
        steps: &mut [u32],
        clicks: &mut [u32],
        win_of: &impl Fn(Tick) -> usize,
    ) {
        let mut prev_rise: Option<Tick> = None;
        let mut prev_interval: Option<u64> = None;
        for tick in trace.rising_edge_ticks(pin) {
            steps[win_of(tick)] += 1;
            if let Some(prev) = prev_rise {
                let interval = (tick - prev).ticks();
                if let Some(last) = prev_interval {
                    let (lo, hi) = (interval.min(last), interval.max(last));
                    if lo > 0 && (hi as f64) / (lo as f64) > 1.0 + self.click_ratio {
                        clicks[win_of(tick)] += 1;
                    }
                }
                prev_interval = Some(interval);
            }
            prev_rise = Some(tick);
        }
    }
}

/// Seed salt for the microphone-noise RNG stream (distinct from the
/// power sensor's, so the two channels never share noise).
const MIC_NOISE_SALT: u64 = 0xac05_71c5_0000_0001;

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_des::SimDuration;
    use offramps_signals::{Level, LogicEvent, Pin};

    /// A steady step train with `n` pulses spaced `period_us` apart.
    fn train(trace: &mut SignalTrace, pin: Pin, start_us: u64, n: u64, period_us: u64) {
        for i in 0..n {
            let t = Tick::from_micros(start_us + i * period_us);
            trace.record(t, LogicEvent::new(pin, Level::High));
            trace.record(
                t + SimDuration::from_micros(2),
                LogicEvent::new(pin, Level::Low),
            );
        }
    }

    fn noiseless() -> AcousticModel {
        AcousticModel {
            noise_sigma: 1e-12,
            ..AcousticModel::default()
        }
    }

    #[test]
    fn tone_tracks_step_rate() {
        let mut trace = SignalTrace::new();
        // 4 kHz on X for 100 ms.
        train(&mut trace, Pin::XStep, 0, 400, 250);
        let a = noiseless().synthesize(&trace, 1);
        // 4 ksteps/s * 1 a.u. = 4 in the active frames; steady train
        // has no clicks.
        let peak = a.samples().iter().cloned().fold(0.0, f64::max);
        assert!((peak - 4.0).abs() < 0.5, "peak {peak}");
    }

    #[test]
    fn steady_train_is_click_free_but_masked_pulses_click() {
        let m = AcousticModel {
            tone_per_kstep: 0.0, // isolate the click term
            ..noiseless()
        };
        let mut steady = SignalTrace::new();
        train(&mut steady, Pin::EStep, 0, 200, 500);
        let clean = m.synthesize(&steady, 1);
        assert!(clean.mean() < 1e-9, "uniform cadence: {:?}", clean.mean());

        // Mask every 10th pulse: each gap is a 2x interval, a click on
        // entry and another on exit.
        let mut masked = SignalTrace::new();
        for i in 0..200u64 {
            if i % 10 == 9 {
                continue;
            }
            let t = Tick::from_micros(i * 500);
            masked.record(t, LogicEvent::new(Pin::EStep, Level::High));
            masked.record(
                t + SimDuration::from_micros(2),
                LogicEvent::new(Pin::EStep, Level::Low),
            );
        }
        let voided = m.synthesize(&masked, 1);
        assert!(
            voided.mean() > 10.0 * clean.mean().max(1e-12),
            "dropped pulses must click: {} vs {}",
            voided.mean(),
            clean.mean()
        );
        assert!(voided.samples().iter().sum::<f64>() >= 30.0, "{voided:?}");
    }

    #[test]
    fn channel_is_aggregate() {
        let m = noiseless();
        let mut tx = SignalTrace::new();
        train(&mut tx, Pin::XStep, 0, 200, 250);
        let mut ty = SignalTrace::new();
        train(&mut ty, Pin::YStep, 0, 200, 250);
        let a = m.synthesize(&tx, 7);
        let b = m.synthesize(&ty, 7);
        for (x, y) in a.samples().iter().zip(b.samples()) {
            assert!((x - y).abs() < 1e-6, "microphone cannot tell axes apart");
        }
    }

    #[test]
    fn noise_is_seeded_and_reproducible() {
        let mut trace = SignalTrace::new();
        train(&mut trace, Pin::XStep, 0, 100, 250);
        let m = AcousticModel::default();
        assert_eq!(m.synthesize(&trace, 42), m.synthesize(&trace, 42));
        assert_ne!(m.synthesize(&trace, 42), m.synthesize(&trace, 43));
    }

    #[test]
    fn empty_trace_yields_tiny_trace() {
        let a = AcousticModel::default().synthesize(&SignalTrace::new(), 1);
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
    }
}
