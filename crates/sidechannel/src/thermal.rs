//! Thermal-camera synthesis from the plant's heater temperatures.
//!
//! A thermal camera pointed at the printer sees the hotend and the
//! heated bed as the two dominant radiance sources; temperature
//! tampering — a forced-on MOSFET, a miscalibrated thermistor driving
//! the control loop hot — shows up as a scene that runs measurably
//! warmer (or colder) than the golden print's, even while the motion
//! system behaves perfectly. [`ThermalCamera`] reduces the scene to a
//! per-frame scalar: the sum of hotend and bed temperature (a radiance
//! proxy — the camera cannot resolve which element glows, just like
//! the power tap cannot resolve which motor draws), resampled at the
//! camera's frame rate and corrupted with read-out noise.
//!
//! The source data is the plant's own lazily integrated heater ODEs
//! (`offramps-printer`'s `HeaterPlant`), which the plant samples itself
//! at every ADC wake — the camera consumes those `(tick, hotend, bed)`
//! triples directly, so it observes *true* plant temperatures, not the
//! (spoofable) thermistor read-out the firmware sees. That distinction
//! is the whole defensive value of the channel.

use offramps_des::{DetRng, SimDuration, Tick};

use crate::SampledTrace;

/// Thermal camera model: frame rate + read-out noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalCamera {
    /// Frame period, milliseconds.
    pub frame_period_ms: u64,
    /// Standard deviation of the per-frame read-out noise, °C.
    pub noise_sigma_c: f64,
}

impl Default for ThermalCamera {
    fn default() -> Self {
        ThermalCamera {
            frame_period_ms: 500,
            noise_sigma_c: 0.3,
        }
    }
}

/// Seed salt for the camera-noise RNG stream.
const CAMERA_NOISE_SALT: u64 = 0x7e84_ca3a_0000_0001;

impl ThermalCamera {
    /// Synthesizes the frame sequence (hotend + bed radiance proxy, °C)
    /// the camera would record over
    /// `temps`: `(tick, hotend °C, bed °C)` samples as the plant records
    /// them. Frames average the samples they contain; a frame
    /// with no sample (possible only at pathological sampling gaps)
    /// holds the previous frame's value. `seed` drives read-out noise.
    pub fn synthesize(&self, temps: &[(Tick, f64, f64)], seed: u64) -> SampledTrace {
        let period = SimDuration::from_millis(self.frame_period_ms.max(1));
        let end = temps.last().map(|(t, _, _)| *t).unwrap_or(Tick::ZERO);
        let n = (end.ticks() / period.ticks() + 1) as usize;
        let mut sums = vec![0.0f64; n];
        let mut counts = vec![0u32; n];
        for (tick, hotend, bed) in temps {
            let w = ((tick.ticks() / period.ticks()) as usize).min(n - 1);
            sums[w] += hotend + bed;
            counts[w] += 1;
        }
        let mut rng = DetRng::from_seed(seed ^ CAMERA_NOISE_SALT);
        let mut last = 0.0f64;
        let samples = (0..n)
            .map(|w| {
                if counts[w] > 0 {
                    last = sums[w] / f64::from(counts[w]);
                }
                last + rng.gaussian(self.noise_sigma_c)
            })
            .collect();
        SampledTrace { samples, period }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rate_c_per_s: f64, seconds: u64) -> Vec<(Tick, f64, f64)> {
        // One sample every 100 ms, hotend ramping, bed flat at 25.
        (0..seconds * 10)
            .map(|i| {
                let t = Tick::from_millis(i * 100);
                (t, 25.0 + rate_c_per_s * i as f64 / 10.0, 25.0)
            })
            .collect()
    }

    #[test]
    fn frames_average_scene_temperature() {
        let camera = ThermalCamera {
            noise_sigma_c: 1e-12,
            ..ThermalCamera::default()
        };
        let trace = camera.synthesize(&ramp(0.0, 10), 1);
        assert_eq!(trace.len(), 20, "10 s of samples at 0.5 s frames");
        for s in trace.samples() {
            assert!((s - 50.0).abs() < 1e-6, "flat 25+25 scene: {s}");
        }
    }

    #[test]
    fn hotter_scene_deviates_by_the_offset() {
        let camera = ThermalCamera {
            noise_sigma_c: 1e-12,
            ..ThermalCamera::default()
        };
        let golden = camera.synthesize(&ramp(2.0, 30), 1);
        let attacked: Vec<(Tick, f64, f64)> = ramp(2.0, 30)
            .into_iter()
            .map(|(t, h, b)| (t, h, b + 15.0))
            .collect();
        let hot = camera.synthesize(&attacked, 2);
        let n = golden.len().min(hot.len());
        for (g, o) in golden.samples().iter().zip(hot.samples()).take(n) {
            assert!((o - g - 15.0).abs() < 1e-6, "{o} vs {g}");
        }
    }

    #[test]
    fn noise_is_seeded_and_reproducible() {
        let camera = ThermalCamera::default();
        let temps = ramp(1.0, 5);
        assert_eq!(camera.synthesize(&temps, 9), camera.synthesize(&temps, 9));
        assert_ne!(camera.synthesize(&temps, 9), camera.synthesize(&temps, 10));
    }

    #[test]
    fn empty_temps_yield_tiny_trace() {
        let t = ThermalCamera::default().synthesize(&[], 1);
        assert_eq!(t.len(), 1);
    }
}
