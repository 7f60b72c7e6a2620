//! Detector-suite construction and evidence provisioning for campaigns
//! and the baseline experiment.
//!
//! The judging API itself lives in [`offramps::verdict`]; this module
//! is the harness side: resolving `--detectors txn,power,acoustic,
//! thermal` into a [`DetectorSuite`], and producing the golden/observed
//! [`EvidenceBundle`]s a suite consumes. Provisioning is **channel
//! driven**: each detector's [`Detector::synth`] names the channel it
//! judges and the model that synthesizes it, the bench folds the
//! power and acoustic channels edge by edge while the plant runs
//! ([`TestBench::fold_side_channels`]) instead of recording the
//! plant-side trace, and the golden calibration repetitions are
//! **shared** — one set of golden reruns per workload feeds every
//! sampled channel, instead of re-simulating per detector. Campaigns
//! and `baseline.rs` both build their golden evidence from the same
//! per-run synthesis and assembly ([`golden_evidence`] runs them in
//! turn; a campaign fans them over its pool), so the two can never
//! drift in how a golden profile is produced.

use std::sync::Arc;

use offramps::verdict::{
    Channel, ChannelData, ChannelSynth, DetectorSuite, EvidenceBundle, FusionPolicy,
    SampledDetector, TransactionDetector,
};
use offramps::{Detector, RunArtifacts, SignalPath, TestBench};
use offramps_gcode::Program;

/// The detector names `--detectors` accepts, in canonical order: one
/// detector per channel.
pub const DETECTOR_NAMES: [&str; 4] = [
    Channel::Txn.name(),
    Channel::Power.name(),
    Channel::Acoustic.name(),
    Channel::Thermal.name(),
];

/// Resolves one detector name to its campaign-default configuration.
///
/// # Errors
///
/// Returns the unknown name back.
pub fn by_name(name: &str) -> Result<Box<dyn Detector>, String> {
    match name.trim().to_ascii_lowercase().as_str() {
        TransactionDetector::NAME => Ok(Box::new(TransactionDetector::campaign())),
        other => match SampledDetector::campaign(other) {
            Some(detector) => Ok(Box::new(detector)),
            None => Err(format!(
                "unknown detector {other:?} (expected one of: {})",
                DETECTOR_NAMES.join(", ")
            )),
        },
    }
}

/// Builds a suite from detector names (order preserved) and a fusion
/// policy.
///
/// # Errors
///
/// Reports the first unknown name, duplicates, an empty list, or a
/// weighted fusion policy inconsistent with the suite.
pub fn suite_from_names(names: &[String], fusion: FusionPolicy) -> Result<DetectorSuite, String> {
    let detectors = names
        .iter()
        .map(|n| by_name(n))
        .collect::<Result<Vec<_>, _>>()?;
    DetectorSuite::new(detectors, fusion)
}

/// Runs one print on `path`, folding the plant-side channels `suite`
/// judges while the plant runs.
pub(crate) fn folded_run(
    program: &Arc<Program>,
    seed: u64,
    suite: &DetectorSuite,
    path: SignalPath,
) -> Result<RunArtifacts, offramps::BenchError> {
    TestBench::new(seed)
        .signal_path(path)
        .fold_side_channels(suite)
        .run(program)
}

/// Synthesizes one channel from a run's artifacts (`None` when the
/// artifacts lack the required source: no fold and no plant trace).
/// The capture and the folds are moved out, not cloned. Power and
/// acoustic come from the run's folds, or from its recorded plant trace
/// when the bench recorded edges instead of folding them; the two agree
/// bit for bit. Sensor noise is seeded by the run's own seed, per
/// channel salt.
fn synthesize(synth: &ChannelSynth, art: &mut RunArtifacts, seed: u64) -> Option<ChannelData> {
    Some(match synth {
        ChannelSynth::Capture => ChannelData::Txn(art.capture.take()?),
        ChannelSynth::Power(model) => ChannelData::Power(match art.power.take() {
            Some(fold) => fold.finish(seed),
            None => model.synthesize(art.plant_trace.as_ref()?, seed),
        }),
        ChannelSynth::Acoustic(model) => ChannelData::Acoustic(match art.acoustic.take() {
            Some(fold) => fold.finish(seed),
            None => model.synthesize(art.plant_trace.as_ref()?, seed),
        }),
        ChannelSynth::Thermal(camera) => ChannelData::Thermal(camera.synthesize(&art.temps, seed)),
    })
}

/// Turns one run's artifacts into the observed evidence bundle for
/// `suite`: exactly the channels its detectors judge — the
/// transaction capture, and/or waveforms synthesized from the
/// plant-side folds (or recorded plant trace) and temperatures, with
/// sensor noise seeded by the run's own seed.
pub fn observed_evidence(
    mut art: RunArtifacts,
    seed: u64,
    suite: &DetectorSuite,
) -> EvidenceBundle {
    let mut bundle = EvidenceBundle::default();
    for detector in suite.detectors() {
        if let Some(data) = synthesize(&detector.synth(), &mut art, seed) {
            bundle.insert(data);
        }
    }
    bundle
}

/// The seeds of one workload's golden runs, in the order their
/// evidence is assembled: `primary_seed`, then — only when the suite
/// has sampled channels to calibrate — each of `calibration_seeds`.
pub(crate) fn golden_seeds(
    primary_seed: u64,
    calibration_seeds: &[u64],
    suite: &DetectorSuite,
) -> Vec<u64> {
    let reruns = if suite.calibration_runs() > 0 {
        calibration_seeds
    } else {
        &[]
    };
    std::iter::once(primary_seed)
        .chain(reruns.iter().copied())
        .collect()
}

/// One golden run, synthesized into its channels as soon as it ends so
/// its artifacts never outlive it: every channel `suite` judges for the
/// primary run, the sampled channels alone for a calibration `rerun`.
/// Channels come in suite order. A rerun judges no transactions, so it
/// runs on the bypass path: the sampled channels tap the plant side,
/// which the monitor does not touch.
pub(crate) fn golden_run(
    program: &Arc<Program>,
    seed: u64,
    suite: &DetectorSuite,
    rerun: bool,
) -> Vec<ChannelData> {
    let path = if rerun {
        SignalPath::bypass()
    } else {
        SignalPath::capture()
    };
    golden_run_on(program, seed, suite, rerun, path)
}

/// [`golden_run`] on `path`.
fn golden_run_on(
    program: &Arc<Program>,
    seed: u64,
    suite: &DetectorSuite,
    rerun: bool,
    path: SignalPath,
) -> Vec<ChannelData> {
    let mut art = folded_run(program, seed, suite, path).expect("golden run");
    suite
        .detectors()
        .iter()
        .map(|d| d.synth())
        .filter(|synth| !(rerun && *synth == ChannelSynth::Capture))
        .map(|synth| {
            synthesize(&synth, &mut art, seed).expect("a golden run carries every channel's source")
        })
        .collect()
}

/// Assembles one workload's golden evidence from its [`golden_run`]s in
/// [`golden_seeds`] order: the primary run's channels, plus one
/// calibration series per sampled channel — the primary run first, then
/// one entry per rerun. The reruns are **shared**: one simulation per
/// seed feeds every sampled channel, never one set per detector.
pub(crate) fn assemble_golden(runs: impl IntoIterator<Item = Vec<ChannelData>>) -> EvidenceBundle {
    let mut runs = runs.into_iter();
    let primary = runs.next().expect("the primary golden run");
    let mut series: Vec<Vec<ChannelData>> = primary
        .iter()
        .filter(|data| data.samples().is_some())
        .map(|data| vec![data.clone()])
        .collect();
    let mut bundle = EvidenceBundle::default();
    for data in primary {
        bundle.insert(data);
    }
    for rerun in runs {
        debug_assert_eq!(rerun.len(), series.len(), "one entry per sampled channel");
        for (calib, data) in series.iter_mut().zip(rerun) {
            calib.push(data);
        }
    }
    for calib in series {
        bundle.insert_calibration(calib[0].channel(), calib);
    }
    bundle
}

/// Produces the golden evidence bundle for one workload: the golden
/// run under `primary_seed` synthesized into every judged channel,
/// plus — when the suite has sampled channels — **shared** golden
/// reruns, one per entry of `calibration_seeds`, feeding every sampled
/// channel at once (the primary run is each channel's first
/// calibration trace). Callers pass one seed fewer than the suite's
/// [`DetectorSuite::calibration_runs`]. The baseline experiment calls
/// this; campaigns fan the same runs out over their pool, one job per
/// run, and assemble them with the same function, so the two can never
/// drift in how a golden profile is produced.
///
/// The runs go one after another, and each is synthesized into its
/// channels as it ends: no run's artifacts outlive it, and the
/// side channels are folded while the plant runs, so no golden run
/// records its edges.
pub fn golden_evidence(
    program: &Arc<Program>,
    primary_seed: u64,
    calibration_seeds: &[u64],
    suite: &DetectorSuite,
) -> EvidenceBundle {
    assemble_golden(
        golden_seeds(primary_seed, calibration_seeds, suite)
            .into_iter()
            .enumerate()
            .map(|(i, seed)| golden_run(program, seed, suite, i > 0)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps::Channel;

    #[test]
    fn names_resolve_and_unknown_rejected() {
        for name in DETECTOR_NAMES {
            assert_eq!(by_name(name).unwrap().name(), name);
        }
        assert!(by_name("sonar").is_err());
        assert!(suite_from_names(&["txn".into(), "txn".into()], FusionPolicy::Any).is_err());
        assert!(suite_from_names(&[], FusionPolicy::Any).is_err());
        let suite = suite_from_names(&["txn".into(), "power".into()], FusionPolicy::All).unwrap();
        assert_eq!(suite.names(), vec!["txn", "power"]);
        assert_eq!(suite.fusion(), &FusionPolicy::All);
        let quad = suite_from_names(
            &DETECTOR_NAMES.map(String::from),
            FusionPolicy::parse("weighted").unwrap(),
        )
        .unwrap();
        assert_eq!(quad.names(), DETECTOR_NAMES.to_vec());
    }

    #[test]
    fn golden_evidence_scales_with_suite() {
        let program = crate::workloads::Workload::mini().program();
        let txn_only = suite_from_names(&["txn".into()], FusionPolicy::Any).unwrap();
        let bundle = golden_evidence(&program, 7, &[], &txn_only);
        assert!(bundle.capture().is_some());
        assert!(
            bundle.get(Channel::Power).is_none(),
            "no power work for txn-only suites"
        );
        assert!(bundle.calibration(Channel::Power).is_empty());

        let both = suite_from_names(&["txn".into(), "power".into()], FusionPolicy::Any).unwrap();
        let bundle = golden_evidence(&program, 7, &[8, 9], &both);
        assert!(bundle.capture().is_some());
        assert!(bundle.get(Channel::Power).is_some());
        assert_eq!(
            bundle.calibration(Channel::Power).len(),
            3,
            "primary + two calibration repetitions"
        );
    }

    #[test]
    fn calibration_reruns_are_shared_across_detectors() {
        // A suite with three repeat-calibrated detectors must plan the
        // *max* of their calibration requests — the reruns are shared —
        // and every calibrated channel must be fed from them.
        let suite = suite_from_names(
            &[
                "txn".into(),
                "power".into(),
                "acoustic".into(),
                "thermal".into(),
            ],
            FusionPolicy::Any,
        )
        .unwrap();
        assert_eq!(
            suite.calibration_runs(),
            5,
            "max across detectors, not the sum (5+5+5 would be 15)"
        );
        let program = crate::workloads::Workload::mini().program();
        let seeds: Vec<u64> = (1..5).collect();
        let bundle = golden_evidence(&program, 7, &seeds, &suite);
        for channel in [Channel::Power, Channel::Acoustic, Channel::Thermal] {
            assert_eq!(
                bundle.calibration(channel).len(),
                5,
                "{channel}: primary + four shared reruns"
            );
        }
        assert!(
            bundle.calibration(Channel::Txn).is_empty(),
            "the txn judge does not calibrate"
        );
    }

    /// Calibration reruns on the bypass path give every sampled channel
    /// the samples the capture path gives, bit for bit.
    #[test]
    fn golden_reruns_match_on_the_bypass_path() {
        let suite = suite_from_names(&DETECTOR_NAMES.map(String::from), FusionPolicy::Any).unwrap();
        let corpus = crate::corpus::CorpusSpec::new(4).expand(42);
        let seeds: Vec<u64> = (1..5).collect();
        for workload in [crate::workloads::Workload::mini(), corpus[0].clone()] {
            let program = workload.program();
            let bypass = golden_evidence(&program, 7, &seeds, &suite);
            let capture =
                assemble_golden(golden_seeds(7, &seeds, &suite).into_iter().enumerate().map(
                    |(i, seed)| golden_run_on(&program, seed, &suite, i > 0, SignalPath::capture()),
                ));
            for channel in [Channel::Power, Channel::Acoustic, Channel::Thermal] {
                let bits = |bundle: &EvidenceBundle| -> Vec<Vec<u64>> {
                    let runs = bundle.calibration(channel);
                    let samples = runs.iter().map(|d| d.samples().expect("sampled"));
                    samples
                        .map(|s| s.iter().map(|v| v.to_bits()).collect())
                        .collect()
                };
                let (got, want) = (bits(&bypass), bits(&capture));
                assert_eq!(got.len(), 5, "{channel}");
                assert!(got == want, "{}: {channel}", workload.label());
            }
        }
    }
}
