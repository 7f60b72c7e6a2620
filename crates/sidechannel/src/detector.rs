//! Golden-profile power comparison (the Gatlin-et-al.-style detector).
//!
//! The power comparator is a thin wrapper over the modality-generic
//! primitives in [`crate::comparator`] — the power channel was the
//! first sampled side channel this crate modelled, and its judging
//! rules turned out to be exactly the ones the acoustic and thermal
//! channels need too.

use crate::comparator::{single_profile_compare, ComparatorConfig, SideChannelReport};
use crate::model::PowerTrace;

/// Baseline detector tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDetectorConfig {
    /// A window is anomalous when |observed − golden| exceeds this many
    /// noise sigmas.
    pub sigma_threshold: f64,
    /// Sensor noise sigma (must match the channel model), W.
    pub noise_sigma_w: f64,
    /// Windows are smoothed over this many samples before comparison
    /// (the published systems average repetitions; single-shot systems
    /// can only average time).
    pub smoothing: usize,
    /// Fraction of anomalous windows above which sabotage is suspected.
    pub suspect_fraction: f64,
}

impl Default for PowerDetectorConfig {
    fn default() -> Self {
        PowerDetectorConfig {
            sigma_threshold: 4.0,
            noise_sigma_w: 1.5,
            smoothing: 20,
            suspect_fraction: 0.01,
        }
    }
}

impl From<PowerDetectorConfig> for ComparatorConfig {
    fn from(c: PowerDetectorConfig) -> ComparatorConfig {
        ComparatorConfig {
            sigma_threshold: c.sigma_threshold,
            noise_sigma: c.noise_sigma_w,
            smoothing: c.smoothing,
            suspect_fraction: c.suspect_fraction,
        }
    }
}

/// The golden-profile comparator.
///
/// # Example
///
/// ```
/// use offramps_sidechannel::{PowerDetector, PowerDetectorConfig, PowerModel};
/// use offramps_signals::SignalTrace;
///
/// let model = PowerModel::default();
/// let golden = model.synthesize(&SignalTrace::new(), 1);
/// let detector = PowerDetector::new(golden, PowerDetectorConfig::default());
/// let observed = model.synthesize(&SignalTrace::new(), 2);
/// assert!(!detector.compare(&observed).sabotage_suspected);
/// ```
#[derive(Debug, Clone)]
pub struct PowerDetector {
    golden: Vec<f64>,
    config: PowerDetectorConfig,
}

impl PowerDetector {
    /// Creates the detector from a golden power trace.
    pub fn new(golden: PowerTrace, config: PowerDetectorConfig) -> Self {
        PowerDetector {
            golden: golden.samples().to_vec(),
            config,
        }
    }

    /// Compares an observed trace against the golden profile.
    pub fn compare(&self, observed: &PowerTrace) -> SideChannelReport {
        single_profile_compare(&self.golden, observed.samples(), self.config.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::smooth;
    use crate::model::PowerModel;
    use offramps_des::{SimDuration, Tick};
    use offramps_signals::{Level, LogicEvent, Pin, SignalTrace};

    fn print_like_trace(step_period_us: u64, seconds: u64) -> SignalTrace {
        let mut t = SignalTrace::new();
        let mut at = Tick::ZERO;
        let end = Tick::from_secs(seconds);
        while at < end {
            t.record(at, LogicEvent::new(Pin::XStep, Level::High));
            t.record(
                at + SimDuration::from_micros(2),
                LogicEvent::new(Pin::XStep, Level::Low),
            );
            at += SimDuration::from_micros(step_period_us);
        }
        t
    }

    #[test]
    fn same_job_different_noise_is_clean() {
        let trace = print_like_trace(250, 5);
        let model = PowerModel::default();
        let golden = model.synthesize(&trace, 1);
        let det = PowerDetector::new(golden, PowerDetectorConfig::default());
        let observed = model.synthesize(&trace, 2);
        let rep = det.compare(&observed);
        assert!(!rep.sabotage_suspected, "{rep:?}");
    }

    #[test]
    fn gross_power_change_detected() {
        let model = PowerModel::default();
        let golden = model.synthesize(&print_like_trace(250, 5), 1);
        // Half the step rate: ~4 W sustained difference.
        let observed = model.synthesize(&print_like_trace(500, 5), 2);
        let det = PowerDetector::new(golden, PowerDetectorConfig::default());
        let rep = det.compare(&observed);
        assert!(rep.sabotage_suspected, "{rep:?}");
    }

    #[test]
    fn subtle_change_below_noise_floor_missed() {
        // 2% step-rate change: ~0.16 W sustained vs the sensor noise —
        // the side channel cannot see it (OFFRAMPS can).
        let model = PowerModel::default();
        let golden = model.synthesize(&print_like_trace(250, 5), 1);
        let observed = model.synthesize(&print_like_trace(255, 5), 2);
        let det = PowerDetector::new(golden, PowerDetectorConfig::default());
        let rep = det.compare(&observed);
        assert!(!rep.sabotage_suspected, "{rep:?}");
    }

    #[test]
    fn single_profile_matches_preexisting_numerics() {
        // The wrapper must reproduce the original inline comparison:
        // threshold = sigma * noise/sqrt(k) * sqrt(2) over smoothed
        // windows.
        let model = PowerModel::default();
        let golden = model.synthesize(&print_like_trace(250, 5), 1);
        let observed = model.synthesize(&print_like_trace(300, 5), 2);
        let config = PowerDetectorConfig::default();
        let rep = PowerDetector::new(golden.clone(), config).compare(&observed);

        let g = smooth(golden.samples(), config.smoothing);
        let o = smooth(observed.samples(), config.smoothing);
        let n = g.len().min(o.len());
        let sigma_eff =
            config.noise_sigma_w / (config.smoothing as f64).sqrt() * std::f64::consts::SQRT_2;
        let threshold = config.sigma_threshold * sigma_eff;
        let mut anomalous = 0;
        let mut largest = 0.0f64;
        for (a, b) in g.iter().zip(&o).take(n) {
            let dev = (a - b).abs();
            largest = largest.max(dev);
            if dev > threshold {
                anomalous += 1;
            }
        }
        assert_eq!(rep.windows_compared, n);
        assert_eq!(rep.anomalous_windows, anomalous);
        assert_eq!(rep.largest_deviation_w, largest);
    }

    #[test]
    fn report_fraction() {
        let r = SideChannelReport {
            windows_compared: 200,
            anomalous_windows: 5,
            largest_deviation_w: 9.0,
            sabotage_suspected: true,
        };
        assert!((r.anomaly_fraction() - 0.025).abs() < 1e-12);
    }
}
