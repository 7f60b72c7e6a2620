//! Modality-generic golden-profile comparison over sampled scalar
//! traces.
//!
//! Every physical side channel this crate models — power on the driver
//! rail, acoustic/EM emission from the steppers, a thermal camera on
//! the heated elements — reduces to the same judging problem: a
//! uniformly sampled scalar waveform, compared window by window against
//! a golden profile. This module is that comparison, factored out once
//! so a rule change can never drift between modalities:
//!
//! * [`ComparatorConfig`] — sigma threshold, sensor noise, smoothing
//!   window, suspect fraction (unit-agnostic: watts, a.u., °C);
//! * [`StreamingComparator`] — the one comparison. Its golden profile
//!   is a per-window `center` and `limit`: the mean and a sigma band
//!   fitted from two or more golden repetitions (the published
//!   power-signature systems profile ~40 repeated prints; the same
//!   trick transfers to any repeatable channel), or, with one golden
//!   run only, that run and a fixed noise-derived limit;
//! * [`suspect_anomaly_fraction`] — the alarm rule shared by every
//!   live comparator and every offline threshold-sweep re-judge.
//!
//! One detector type, `offramps::verdict::SampledDetector`, judges the
//! power, acoustic and thermal channels through these primitives.

/// Unit-agnostic comparator tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparatorConfig {
    /// A window is anomalous when its deviation exceeds this many
    /// band sigmas (calibrated) or effective noise sigmas (single
    /// profile).
    pub sigma_threshold: f64,
    /// Sensor noise sigma, in the channel's own unit.
    pub noise_sigma: f64,
    /// Windows are smoothed over this many samples before comparison.
    pub smoothing: usize,
    /// Fraction of anomalous windows above which sabotage is suspected.
    pub suspect_fraction: f64,
}

/// The totals of one side-channel comparison (any modality); the
/// verdict is [`suspect_anomaly_fraction`] over them.
#[derive(Debug, Clone, PartialEq)]
pub struct SideChannelReport {
    /// Windows compared (after smoothing).
    pub windows_compared: usize,
    /// Windows whose smoothed deviation exceeded the limit.
    pub anomalous_windows: usize,
    /// Largest smoothed deviation, in the channel's unit.
    pub largest_deviation_w: f64,
}

/// The side-channel alarm rule: the anomalous-window fraction strictly
/// over the suspect fraction (zero compared windows never alarm). Both
/// live comparators and any offline re-judge (threshold-sweep
/// analytics) go through this one helper, so a rule change can never
/// silently diverge between them.
pub fn suspect_anomaly_fraction(
    anomalous_windows: usize,
    windows_compared: usize,
    suspect_fraction: f64,
) -> bool {
    let fraction = if windows_compared == 0 {
        0.0
    } else {
        anomalous_windows as f64 / windows_compared as f64
    };
    fraction > suspect_fraction
}

/// Boxcar-averages `samples` in chunks of `k` (the time-averaging a
/// single-shot channel gets in lieu of repetition-averaging).
fn smooth(samples: &[f64], k: usize) -> Vec<f64> {
    if k <= 1 || samples.is_empty() {
        return samples.to_vec();
    }
    samples
        .chunks(k)
        .map(|chunk| chunk.iter().sum::<f64>() / chunk.len() as f64)
        .collect()
}

/// Fits the per-window golden profile `(center, limit)`; `None` when
/// there is no golden material at all.
///
/// With two or more calibration runs, `center` is their smoothed mean
/// and `limit` is `sigma × max(std, noise/√k)`: the band widens
/// exactly where the machine is naturally variable (move boundaries
/// under time noise, heater bang-bang phase) and is floored at the
/// sensor-noise level, so a perfectly repeatable window still tolerates
/// read-out noise. With one `golden` run, `center` is that run smoothed
/// and `limit` the constant `sigma × noise/√k × √2`: smoothing over k
/// samples cuts the noise on each value by √k, and the difference of
/// two noisy traces has √2 more.
fn golden_profile(
    calibration: &[&[f64]],
    golden: Option<&[f64]>,
    config: ComparatorConfig,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let noise = config.noise_sigma / (config.smoothing.max(1) as f64).sqrt();
    if calibration.len() < 2 {
        let center = smooth(golden?, config.smoothing);
        let limit = vec![config.sigma_threshold * (noise * std::f64::consts::SQRT_2); center.len()];
        return Some((center, limit));
    }
    let runs: Vec<Vec<f64>> = calibration
        .iter()
        .map(|run| smooth(run, config.smoothing))
        .collect();
    let n = runs.iter().map(Vec::len).min().unwrap_or(0);
    let m = runs.len() as f64;
    let (mut center, mut limit) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for w in 0..n {
        let mu = runs.iter().map(|r| r[w]).sum::<f64>() / m;
        let var = runs.iter().map(|r| (r[w] - mu).powi(2)).sum::<f64>() / m;
        center.push(mu);
        limit.push(config.sigma_threshold * var.sqrt().max(noise));
    }
    Some((center, limit))
}

/// The side-channel comparison: feed raw samples as a live sensor
/// would deliver them, read the provisional alarm between windows, and
/// [`StreamingComparator::finalize`] into the [`SideChannelReport`]
/// over the full trace.
///
/// The state after feeding the first `t` samples depends only on `t`,
/// never on how the feed was chunked — smoothing windows are judged
/// exactly when `smoothing` raw samples have accumulated (the partial
/// final chunk is averaged over its own length at finalize), so any
/// slicing of the same sample stream yields the same verdicts.
///
/// # Example
///
/// ```
/// use offramps_sidechannel::{ComparatorConfig, PowerModel, StreamingComparator};
/// use offramps_signals::SignalTrace;
///
/// let model = PowerModel::default();
/// let golden = model.synthesize(&SignalTrace::new(), 1);
/// let observed = model.synthesize(&SignalTrace::new(), 2);
/// let config = ComparatorConfig {
///     sigma_threshold: 4.0,
///     noise_sigma: model.noise_sigma_w,
///     smoothing: 20,
///     suspect_fraction: 0.01,
/// };
/// // One golden run: the single-profile fallback.
/// let mut judge = StreamingComparator::begin(&[], Some(golden.samples()), config).unwrap();
/// judge.extend(observed.samples());
/// assert!(!judge.suspected_so_far());
/// ```
#[derive(Debug, Clone)]
pub struct StreamingComparator {
    center: Vec<f64>,
    limit: Vec<f64>,
    smoothing: usize,
    suspect_fraction: f64,
    buf: Vec<f64>,
    windows_compared: usize,
    anomalous_windows: usize,
    largest: f64,
}

impl StreamingComparator {
    /// Starts a comparison against the golden profile fitted from
    /// `calibration` when it holds two or more repetitions, from the
    /// single `golden` run otherwise; `None` when there is no golden
    /// material at all.
    pub fn begin(
        calibration: &[&[f64]],
        golden: Option<&[f64]>,
        config: ComparatorConfig,
    ) -> Option<Self> {
        let (center, limit) = golden_profile(calibration, golden, config)?;
        Some(StreamingComparator {
            center,
            limit,
            smoothing: config.smoothing.max(1),
            suspect_fraction: config.suspect_fraction,
            buf: Vec::new(),
            windows_compared: 0,
            anomalous_windows: 0,
            largest: 0.0,
        })
    }

    /// Judges one completed smoothing window. Windows beyond the golden
    /// profile's length are ignored.
    fn take_window(&mut self, value: f64) {
        let w = self.windows_compared;
        if w >= self.center.len() {
            return;
        }
        let dev = (self.center[w] - value).abs();
        self.largest = self.largest.max(dev);
        if dev > self.limit[w] {
            self.anomalous_windows += 1;
        }
        self.windows_compared += 1;
    }

    /// Feeds one raw sample.
    pub fn push(&mut self, sample: f64) {
        if self.smoothing == 1 {
            // Unsmoothed: every sample is its own window.
            self.take_window(sample);
            return;
        }
        self.buf.push(sample);
        if self.buf.len() == self.smoothing {
            let avg = self.buf.iter().sum::<f64>() / self.buf.len() as f64;
            self.buf.clear();
            self.take_window(avg);
        }
    }

    /// Feeds a slice of raw samples (any chunking). Whole smoothing
    /// windows inside the slice are averaged straight from it, with the
    /// same arithmetic as [`StreamingComparator::push`].
    pub fn extend(&mut self, samples: &[f64]) {
        if self.smoothing == 1 {
            for &s in samples {
                self.take_window(s);
            }
            return;
        }
        // Complete the window a previous feed left partial.
        let top_up = if self.buf.is_empty() {
            0
        } else {
            (self.smoothing - self.buf.len()).min(samples.len())
        };
        let (head, rest) = samples.split_at(top_up);
        for &s in head {
            self.push(s);
        }
        let mut windows = rest.chunks_exact(self.smoothing);
        for window in &mut windows {
            self.take_window(window.iter().sum::<f64>() / window.len() as f64);
        }
        self.buf.extend_from_slice(windows.remainder());
    }

    /// Windows fully judged so far (the partial smoothing chunk, if
    /// any, is not yet a window).
    pub fn windows_compared(&self) -> usize {
        self.windows_compared
    }

    /// Windows flagged anomalous so far.
    pub fn anomalous_windows(&self) -> usize {
        self.anomalous_windows
    }

    /// The provisional mid-print alarm: the shared
    /// [`suspect_anomaly_fraction`] rule over the windows judged so
    /// far. Strictly tightens toward the final verdict as windows
    /// accumulate; zero windows never alarm.
    pub fn suspected_so_far(&self) -> bool {
        suspect_anomaly_fraction(
            self.anomalous_windows,
            self.windows_compared,
            self.suspect_fraction,
        )
    }

    /// Judges the partial final smoothing chunk (averaged over its own
    /// length) and returns the totals over the full trace.
    pub fn finalize(mut self) -> SideChannelReport {
        if !self.buf.is_empty() {
            let avg = self.buf.iter().sum::<f64>() / self.buf.len() as f64;
            self.take_window(avg);
        }
        SideChannelReport {
            windows_compared: self.windows_compared,
            anomalous_windows: self.anomalous_windows,
            largest_deviation_w: self.largest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowerModel;
    use offramps_des::{SimDuration, Tick};
    use offramps_signals::{Level, LogicEvent, Pin, SignalTrace};

    /// The single-shot power tuning: 4 sigma over 0.2 s windows, a 1 %
    /// suspect fraction, the power sensor's 1.5 W noise.
    fn cfg() -> ComparatorConfig {
        ComparatorConfig {
            sigma_threshold: 4.0,
            noise_sigma: 1.5,
            smoothing: 20,
            suspect_fraction: 0.01,
        }
    }

    /// The whole-trace batch comparison the streaming comparator is
    /// pinned against: smooth the observed trace once, then judge each
    /// window against the golden profile up to the shorter length.
    fn compare_sampled(
        calibration: &[&[f64]],
        golden: Option<&[f64]>,
        observed: &[f64],
        config: ComparatorConfig,
    ) -> Option<SideChannelReport> {
        let (center, limit) = golden_profile(calibration, golden, config)?;
        let obs = smooth(observed, config.smoothing);
        let mut report = SideChannelReport {
            windows_compared: center.len().min(obs.len()),
            anomalous_windows: 0,
            largest_deviation_w: 0.0,
        };
        for ((c, l), o) in center.iter().zip(&limit).zip(&obs) {
            let dev = (c - o).abs();
            report.largest_deviation_w = report.largest_deviation_w.max(dev);
            if dev > *l {
                report.anomalous_windows += 1;
            }
        }
        Some(report)
    }

    /// The verdict over a report at [`cfg`]'s suspect fraction.
    fn suspected(report: &SideChannelReport) -> bool {
        suspect_anomaly_fraction(
            report.anomalous_windows,
            report.windows_compared,
            cfg().suspect_fraction,
        )
    }

    #[test]
    fn smoothing_reduces_vector_length_and_preserves_mean() {
        assert_eq!(smooth(&[1.0; 100], 10).len(), 10);
        assert_eq!(smooth(&[1.0; 5], 1).len(), 5);
        assert!(smooth(&[], 10).is_empty());
        let s = smooth(&[2.0, 4.0, 6.0, 8.0], 2);
        assert_eq!(s, vec![3.0, 7.0]);
    }

    #[test]
    fn calibrated_band_floors_at_noise() {
        // Three identical runs: the limit must still be the noise
        // floor, not zero.
        let run = vec![5.0; 100];
        let runs: Vec<&[f64]> = vec![&run, &run, &run];
        let shifted: Vec<f64> = run.iter().map(|v| v + 10.0).collect();
        let rep = compare_sampled(&runs, None, &shifted, cfg()).unwrap();
        assert!(suspected(&rep), "{rep:?}");
        let same = compare_sampled(&runs, None, &run, cfg()).unwrap();
        assert!(!suspected(&same), "{same:?}");
        assert_eq!(same.anomalous_windows, 0);
    }

    #[test]
    fn compare_sampled_selects_comparator() {
        let golden = vec![2.0; 200];
        let attacked: Vec<f64> = golden.iter().map(|v| v + 50.0).collect();
        let calibration: Vec<&[f64]> = vec![&golden, &golden];
        let rep = compare_sampled(&calibration, None, &attacked, cfg()).unwrap();
        assert!(suspected(&rep));
        let rep = compare_sampled(&[], Some(&golden), &attacked, cfg()).unwrap();
        assert!(suspected(&rep));
        assert!(compare_sampled(&[], None, &attacked, cfg()).is_none());
        // One repetition does not calibrate: the primary golden run
        // judges alone.
        let one: Vec<&[f64]> = vec![&attacked];
        assert_eq!(
            compare_sampled(&one, Some(&golden), &attacked, cfg()),
            compare_sampled(&[], Some(&golden), &attacked, cfg())
        );
    }

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

    /// Single-profile power comparison of a golden print (250 µs steps,
    /// seed 1) against an observed one (`observed_period_us`, seed 2).
    fn power_compare(observed_period_us: u64) -> SideChannelReport {
        let model = PowerModel::default();
        let golden = model.synthesize(&print_like_trace(250, 5), 1);
        let observed = model.synthesize(&print_like_trace(observed_period_us, 5), 2);
        compare_sampled(&[], Some(golden.samples()), observed.samples(), cfg()).unwrap()
    }

    #[test]
    fn same_job_different_noise_is_clean() {
        let rep = power_compare(250);
        assert!(!suspected(&rep), "{rep:?}");
    }

    #[test]
    fn gross_power_change_detected() {
        // Half the step rate: ~4 W sustained difference.
        let rep = power_compare(500);
        assert!(suspected(&rep), "{rep:?}");
    }

    #[test]
    fn subtle_change_below_noise_floor_missed() {
        // 2% step-rate change: ~0.16 W sustained vs the sensor noise —
        // the side channel cannot see it (OFFRAMPS can).
        let rep = power_compare(255);
        assert!(!suspected(&rep), "{rep:?}");
    }

    #[test]
    fn single_profile_matches_preexisting_numerics() {
        // One golden run must reproduce the original inline comparison:
        // limit = sigma * noise/sqrt(k) * sqrt(2) over smoothed windows.
        let model = PowerModel::default();
        let golden = model.synthesize(&print_like_trace(250, 5), 1);
        let observed = model.synthesize(&print_like_trace(300, 5), 2);
        let config = cfg();
        let mut s = StreamingComparator::begin(&[], Some(golden.samples()), config).unwrap();
        s.extend(observed.samples());
        let rep = s.finalize();

        let g = smooth(golden.samples(), config.smoothing);
        let o = smooth(observed.samples(), config.smoothing);
        let n = g.len().min(o.len());
        let sigma_eff =
            config.noise_sigma / (config.smoothing as f64).sqrt() * std::f64::consts::SQRT_2;
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
        assert!(anomalous > 0, "the slower print must flag windows");
        assert_eq!(rep.windows_compared, n);
        assert_eq!(rep.anomalous_windows, anomalous);
        assert_eq!(rep.largest_deviation_w, largest);
    }

    #[test]
    fn alarm_rule_is_strict() {
        assert!(!suspect_anomaly_fraction(1, 100, 0.01), "at threshold");
        assert!(suspect_anomaly_fraction(2, 100, 0.01), "over threshold");
        assert!(!suspect_anomaly_fraction(5, 0, 0.0), "nothing compared");
    }

    /// Deterministic pseudo-random sample synthesis for the streaming
    /// equivalence checks (xorshift, no external RNG).
    fn noisy(seed: u64, n: usize, base: f64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                base + (x % 1000) as f64 / 100.0
            })
            .collect()
    }

    /// Feeds `observed` into a fresh streaming comparator in chunks
    /// drawn from the same xorshift, and returns the finalized report.
    fn stream_in_chunks(
        calibration: &[&[f64]],
        golden: Option<&[f64]>,
        observed: &[f64],
        config: ComparatorConfig,
        chunk_seed: u64,
    ) -> SideChannelReport {
        let mut s = StreamingComparator::begin(calibration, golden, config).unwrap();
        let mut x = chunk_seed | 1;
        let mut i = 0;
        while i < observed.len() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = 1 + (x % 37) as usize;
            let end = (i + k).min(observed.len());
            s.extend(&observed[i..end]);
            i = end;
        }
        s.finalize()
    }

    #[test]
    fn streaming_finalize_matches_batch_for_any_chunking() {
        // Lengths straddling smoothing boundaries: empty, shorter than
        // one window, exact multiples, and a partial final chunk.
        for len in [0usize, 7, 20, 200, 213] {
            for seed in [3u64, 99, 1234] {
                let a = noisy(seed, 240, 5.0);
                let b = noisy(seed.wrapping_mul(31), 240, 5.0);
                let calibration: Vec<&[f64]> = vec![&a, &b];
                let observed = noisy(seed ^ 0xdead, len, 5.0 + (seed % 3) as f64 * 20.0);

                let batch = compare_sampled(&calibration, None, &observed, cfg()).unwrap();
                for chunk_seed in [1u64, 5, 77] {
                    let streamed =
                        stream_in_chunks(&calibration, None, &observed, cfg(), chunk_seed);
                    assert_eq!(streamed, batch, "calibrated len={len} seed={seed}");
                }

                let batch = compare_sampled(&[], Some(&a), &observed, cfg()).unwrap();
                for chunk_seed in [1u64, 5, 77] {
                    let streamed = stream_in_chunks(&[], Some(&a), &observed, cfg(), chunk_seed);
                    assert_eq!(streamed, batch, "single len={len} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn streaming_matches_batch_without_smoothing() {
        let golden = vec![2.0; 50];
        let observed: Vec<f64> = (0..50).map(|i| 2.0 + i as f64).collect();
        let config = ComparatorConfig {
            smoothing: 1,
            ..cfg()
        };
        let batch = compare_sampled(&[], Some(&golden), &observed, config).unwrap();
        let mut s = StreamingComparator::begin(&[], Some(&golden), config).unwrap();
        s.extend(&observed);
        assert_eq!(s.finalize(), batch);
    }

    #[test]
    fn streaming_selects_like_compare_sampled() {
        assert!(
            StreamingComparator::begin(&[], None, cfg()).is_none(),
            "no golden material"
        );
        let run = vec![1.0; 10];
        assert!(StreamingComparator::begin(&[], Some(&run), cfg()).is_some());
        let calibration: Vec<&[f64]> = vec![&run, &run];
        assert!(StreamingComparator::begin(&calibration, None, cfg()).is_some());
    }

    #[test]
    fn provisional_alarm_rises_mid_stream_and_never_fires_clean() {
        let run = vec![5.0; 400];
        let runs: Vec<&[f64]> = vec![&run, &run, &run];
        let config = ComparatorConfig {
            smoothing: 20,
            ..cfg()
        };

        // Clean replay: provisional alarm stays off at every sample.
        let mut s = StreamingComparator::begin(&runs, None, config).unwrap();
        for &v in &run {
            s.push(v);
            assert!(!s.suspected_so_far(), "clean run must never alarm");
        }
        assert!(!suspected(&s.finalize()));

        // Sabotage from sample 200 on: the alarm must rise strictly
        // before the stream ends.
        let mut s = StreamingComparator::begin(&runs, None, config).unwrap();
        let mut alarm_at = None;
        for (i, &v) in run.iter().enumerate() {
            s.push(if i >= 200 { v + 50.0 } else { v });
            if alarm_at.is_none() && s.suspected_so_far() {
                alarm_at = Some(i);
            }
        }
        let alarm_at = alarm_at.expect("sabotage must alarm mid-stream");
        assert!(alarm_at >= 200 && alarm_at < run.len() - 1, "{alarm_at}");
        assert!(suspected(&s.finalize()));
    }
}
