//! Figure 4 regeneration: capture excerpts and the detection report.
//!
//! Figure 4 shows (a) transactions from the golden reference, (b) the
//! same indices from a Flaw3D relocation print, and (c) the detection
//! tool's output identifying out-of-margin transactions.

use std::sync::Arc;

use offramps::{Capture, DetectionReport, TransactionDetector};
use offramps_attacks::Flaw3dTrojan;
use offramps_gcode::Program;

use crate::table2::capture_print;

/// The complete Figure 4 artifact.
#[derive(Debug)]
pub struct Fig4 {
    /// The golden capture (4a source).
    pub golden: Capture,
    /// The Trojaned capture (4b source).
    pub trojaned: Capture,
    /// The detection report (4c).
    pub report: DetectionReport,
}

/// Regenerates Figure 4 with the paper's Trojan (relocation every 20
/// moves).
pub fn regenerate(program: &Arc<Program>, seed: u64) -> Fig4 {
    let golden = capture_print(program, seed);
    let attacked = Arc::new(Flaw3dTrojan::Relocation { every_n: 20 }.apply(program));
    let trojaned = capture_print(&attacked, seed + 1);
    let report = TransactionDetector::campaign().report(&golden, &trojaned);
    Fig4 {
        golden,
        trojaned,
        report,
    }
}

impl Fig4 {
    /// A window of transactions around the first mismatch, rendered in
    /// the paper's `Index, X, Y, Z, E` format, from both captures.
    pub fn excerpt(&self, rows: usize) -> (String, String) {
        let center = self
            .report
            .mismatches
            .first()
            .map(|m| m.index as usize)
            .unwrap_or(0);
        let start = center.saturating_sub(rows / 2);
        let fmt = |cap: &Capture| {
            let mut s = String::from("Index, X, Y, Z, E\n");
            for t in cap.transactions().iter().skip(start).take(rows) {
                s.push_str(&t.to_string());
                s.push('\n');
            }
            s
        };
        (fmt(&self.golden), fmt(&self.trojaned))
    }
}
