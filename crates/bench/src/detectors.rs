//! Detector-suite construction and evidence provisioning for campaigns
//! and the baseline experiment.
//!
//! The judging API itself lives in [`offramps::verdict`]; this module
//! is the harness side: resolving `--detectors txn,power,acoustic,
//! thermal` into a [`DetectorSuite`], and producing the golden/observed
//! [`EvidenceBundle`]s a suite consumes. Provisioning is **channel
//! driven**: each detector's [`Detector::synth`] names the channel it
//! judges and the model that synthesizes it, the bench records the
//! plant-side trace only when some channel needs it, and the golden
//! calibration repetitions are **shared** — one set of golden reruns
//! per workload feeds every sampled channel, instead of re-simulating
//! per detector. Campaigns and `baseline.rs` both
//! route their golden runs through [`golden_evidence`], so the two can
//! never drift in how a golden profile is produced.

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

/// Runs one print through the capture path, recording the plant-side
/// trace when the suite's channels consume it.
pub(crate) fn capture_run(
    program: &Arc<Program>,
    seed: u64,
    needs_plant_trace: bool,
) -> Result<RunArtifacts, offramps::BenchError> {
    TestBench::new(seed)
        .signal_path(SignalPath::capture())
        .record_plant_trace(needs_plant_trace)
        .run(program)
}

/// Synthesizes one channel from a run's artifacts (`None` when the
/// artifacts lack the required source, e.g. no plant trace). The
/// capture is moved out, not cloned — it is the hot path's biggest
/// artifact. Sensor noise is seeded by the run's own seed, per channel
/// salt.
fn synthesize(synth: &ChannelSynth, art: &mut RunArtifacts, seed: u64) -> Option<ChannelData> {
    Some(match synth {
        ChannelSynth::Capture => ChannelData::Txn(art.capture.take()?),
        ChannelSynth::Power(model) => {
            ChannelData::Power(model.synthesize(art.plant_trace.as_ref()?, seed))
        }
        ChannelSynth::Acoustic(model) => {
            ChannelData::Acoustic(model.synthesize(art.plant_trace.as_ref()?, seed))
        }
        ChannelSynth::Thermal(camera) => ChannelData::Thermal(camera.synthesize(&art.temps, seed)),
    })
}

/// Turns one run's artifacts into the observed evidence bundle for
/// `suite`: exactly the channels its detectors judge — the
/// transaction capture, and/or waveforms synthesized from the
/// plant-side trace and temperatures (sensor noise seeded by the run's
/// own seed).
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

/// Produces the golden evidence bundle for one workload: the golden
/// run under `primary_seed` synthesized into every judged channel,
/// plus — when the suite has sampled channels — **shared** golden
/// reruns, one per entry of `calibration_seeds`, feeding every sampled
/// channel at once (the primary run is each channel's first
/// calibration trace). Callers pass one seed fewer than the suite's
/// [`DetectorSuite::calibration_runs`]. Both the campaign runner and
/// the baseline experiment go through here.
///
/// The reruns run one after another, and each is synthesized into its
/// channels before the next starts, so at most one golden run's
/// artifacts are alive at a time.
pub fn golden_evidence(
    program: &Arc<Program>,
    primary_seed: u64,
    calibration_seeds: &[u64],
    suite: &DetectorSuite,
) -> EvidenceBundle {
    let needs_plant_trace = suite.needs_plant_trace();
    let golden_run = |seed| capture_run(program, seed, needs_plant_trace).expect("golden run");
    let mut bundle = observed_evidence(golden_run(primary_seed), primary_seed, suite);

    // One simulation per calibration seed, shared by every sampled
    // channel — never one set of reruns per detector.
    let mut series: Vec<(ChannelSynth, Vec<ChannelData>)> = suite
        .detectors()
        .iter()
        .map(|d| d.synth())
        .filter(|synth| *synth != ChannelSynth::Capture)
        .filter_map(|synth| Some((synth, vec![bundle.get(synth.channel()).cloned()?])))
        .collect();
    if series.is_empty() {
        return bundle;
    }
    for &seed in calibration_seeds {
        let mut art = golden_run(seed);
        for (synth, calib) in &mut series {
            calib.push(
                synthesize(synth, &mut art, seed)
                    .expect("calibration run carries the channel's source"),
            );
        }
    }
    for (synth, calib) in series {
        bundle.insert_calibration(synth.channel(), calib);
    }
    bundle
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
}
