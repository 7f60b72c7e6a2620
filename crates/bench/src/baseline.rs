//! Baseline comparison: OFFRAMPS direct-signal detection vs the lossy
//! power side-channel (paper §II-B / §VI "Related platforms").
//!
//! "The OFFRAMPS, by connecting directly to control signals, is uniquely
//! able to modify or analyze prints with no loss of data." This
//! experiment quantifies the claim: the same Table II attacks, judged by
//! both detectors — expressed as a two-detector
//! [`DetectorSuite`](offramps::DetectorSuite) so the judges (and the
//! golden-evidence plumbing, via [`crate::detectors::golden_evidence`])
//! are exactly the ones campaigns use and can never drift from them.

use std::sync::Arc;

use offramps::verdict::{Channel, FusionPolicy, TransactionDetector, Verdict};
use offramps::SignalPath;
use offramps_attacks::TABLE_II_CASES;
use offramps_gcode::Program;

use crate::detectors;

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Table II case number.
    pub case: u32,
    /// Reduction or Relocation.
    pub trojan_type: String,
    /// The paper's modification value.
    pub modification_value: f64,
    /// Verdict of the OFFRAMPS step-count detector.
    pub offramps_detected: bool,
    /// Verdict of the power side-channel baseline.
    pub power_detected: bool,
    /// Largest smoothed power deviation, W.
    pub power_deviation_w: f64,
}

impl BaselineRow {
    fn from_verdict(case: u32, trojan_type: String, modification_value: f64, v: &Verdict) -> Self {
        let power = v
            .evidence_for(Channel::Power.name())
            .expect("power judge in the baseline suite");
        BaselineRow {
            case,
            trojan_type,
            modification_value,
            offramps_detected: v
                .evidence_for(TransactionDetector::NAME)
                .and_then(|e| e.alarmed)
                .unwrap_or(false),
            power_detected: power.alarmed.unwrap_or(false),
            power_deviation_w: power.peak,
        }
    }
}

/// Runs the golden job plus a clean-reprint control (case 0) plus all
/// eight Flaw3D cases under both detectors of the campaign suite. The
/// power baseline gets the repetition-calibration the published systems
/// rely on (~40 physical repetitions there, five simulated prints
/// here); OFFRAMPS gets a single golden print, as in the paper.
pub fn regenerate(program: &Arc<Program>, seed: u64) -> Vec<BaselineRow> {
    let suite =
        detectors::suite_from_names(&["txn".to_string(), "power".to_string()], FusionPolicy::Any)
            .expect("baseline suite");

    // Golden evidence through the same path campaigns use: the primary
    // golden print plus calibration repetitions.
    let calibration_seeds: Vec<u64> = (1..suite.calibration_runs() as u64)
        .map(|i| seed + i)
        .collect();
    let golden = detectors::golden_evidence(program, seed, &calibration_seeds, &suite);

    let judge = |job: &Arc<Program>, run_seed: u64| -> Verdict {
        let art = detectors::folded_run(job, run_seed, &suite, SignalPath::capture())
            .expect("baseline run");
        let observed = detectors::observed_evidence(art, run_seed, &suite);
        suite.judge(&golden, &observed)
    };

    let mut rows = Vec::new();
    // Case 0: a clean reprint with fresh time noise — the false-positive
    // control for both detectors.
    let clean = judge(program, seed + 500);
    rows.push(BaselineRow::from_verdict(0, "Clean".into(), 0.0, &clean));
    rows.extend(TABLE_II_CASES.iter().map(|(case, trojan)| {
        let attacked_program = Arc::new(trojan.apply(program));
        let verdict = judge(&attacked_program, seed + 200 + u64::from(*case));
        BaselineRow::from_verdict(
            *case,
            trojan.type_name().into(),
            trojan.modification_value(),
            &verdict,
        )
    }));
    rows
}

impl crate::json::ToJson for BaselineRow {
    fn write_json(&self, out: &mut String, indent: usize) {
        let mut w = crate::json::ObjectWriter::new(out, indent);
        w.int("case", self.case as i128)
            .string("trojan_type", &self.trojan_type)
            .float("modification_value", self.modification_value)
            .bool("offramps_detected", self.offramps_detected)
            .bool("power_detected", self.power_detected)
            .float("power_deviation_w", self.power_deviation_w);
        w.finish();
    }
}

/// Formats the comparison table.
pub fn format_table(rows: &[BaselineRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:<12} {:<10} {:<18} {:<22}\n",
        "Case", "Type", "ModValue", "OFFRAMPS", "Power side-channel"
    ));
    out.push_str(&"-".repeat(70));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<6} {:<12} {:<10} {:<18} {:<22}\n",
            r.case,
            r.trojan_type,
            r.modification_value,
            match (r.case, r.offramps_detected) {
                (0, false) => "clean",
                (0, true) => "FALSE POSITIVE",
                (_, true) => "detected",
                (_, false) => "MISSED",
            },
            format!(
                "{} (max dev {:.1} W)",
                match (r.case, r.power_detected) {
                    (0, false) => "clean",
                    (0, true) => "FALSE POSITIVE",
                    (_, true) => "detected",
                    (_, false) => "MISSED",
                },
                r.power_deviation_w
            ),
        ));
    }
    out
}

/// Convenience used by the bench and example: how many each detector
/// caught.
pub fn score(rows: &[BaselineRow]) -> (usize, usize) {
    (
        rows.iter()
            .filter(|r| r.case > 0 && r.offramps_detected)
            .count(),
        rows.iter()
            .filter(|r| r.case > 0 && r.power_detected)
            .count(),
    )
}
