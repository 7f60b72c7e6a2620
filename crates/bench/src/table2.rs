//! Table II regeneration: Flaw3D Trojan detection.
//!
//! "Each of these Trojans was printed and their pulse profiles were
//! captured using the OFFRAMPS. Those captures were then compared
//! against the known-good reference and the detection program was able
//! to identify all of the Trojans."

use std::sync::Arc;

use offramps::{Capture, Evidence, SignalPath, TestBench, TransactionDetector};
use offramps_attacks::{Flaw3dTrojan, TABLE_II_CASES};
use offramps_gcode::Program;

/// One regenerated Table II row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Test case number (1–8).
    pub case: u32,
    /// The case's Trojan: its type and modification value columns.
    pub trojan: Flaw3dTrojan,
    /// The transaction judge's evidence against the golden capture.
    pub evidence: Evidence,
}

impl Table2Row {
    /// Detection verdict (the paper: ✓ for all eight).
    pub fn detected(&self) -> bool {
        self.evidence.alarmed == Some(true)
    }
}

/// Prints `program` through the capture path and returns the capture:
/// a golden reference or an attacked print.
pub fn capture_print(program: &Arc<Program>, seed: u64) -> Capture {
    TestBench::new(seed)
        .signal_path(SignalPath::capture())
        .run(program)
        .expect("capture run")
        .capture
        .expect("capture path active")
}

/// Runs one Flaw3D case and judges it against the golden capture.
pub(crate) fn run_case(
    case: u32,
    trojan: Flaw3dTrojan,
    program: &Arc<Program>,
    golden: &Capture,
    seed: u64,
) -> Table2Row {
    let capture = capture_print(&Arc::new(trojan.apply(program)), seed);
    Table2Row {
        case,
        trojan,
        evidence: TransactionDetector::campaign()
            .report(golden, &capture)
            .evidence,
    }
}

/// Regenerates all eight Table II rows against `program`.
pub fn regenerate(program: &Arc<Program>, seed: u64) -> Vec<Table2Row> {
    let golden = capture_print(program, seed);
    TABLE_II_CASES
        .iter()
        .map(|(case, trojan)| {
            run_case(
                *case,
                *trojan,
                program,
                &golden,
                seed + 100 + u64::from(*case),
            )
        })
        .collect()
}

impl crate::json::ToJson for Table2Row {
    fn write_json(&self, out: &mut String, indent: usize) {
        let mut w = crate::json::ObjectWriter::new(out, indent);
        w.int("case", self.case as i128)
            .string("trojan_type", self.trojan.type_name())
            .float("modification_value", self.trojan.modification_value())
            .bool("detected", self.detected())
            .int("mismatches", self.evidence.flagged_values as i128)
            .float("largest_percent", self.evidence.peak)
            .bool(
                "final_check_failed",
                self.evidence.final_totals_match == Some(false),
            )
            .int("transactions", self.evidence.compared as i128);
        w.finish();
    }
}

/// Formats rows like the paper's Table II (plus our evidence columns).
pub fn format_table(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:<12} {:<10} {:<9} {:<11} {:<10} {}\n",
        "Case", "Type", "ModValue", "Detected", "Mismatches", "Largest%", "FinalCheck"
    ));
    out.push_str(&"-".repeat(72));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<6} {:<12} {:<10} {:<9} {:<11} {:<10.2} {}\n",
            r.case,
            r.trojan.type_name(),
            r.trojan.modification_value(),
            if r.detected() { "yes" } else { "NO" },
            r.evidence.flagged_values,
            r.evidence.peak,
            if r.evidence.final_totals_match == Some(false) {
                "FAIL"
            } else {
                "pass"
            },
        ));
    }
    out
}
