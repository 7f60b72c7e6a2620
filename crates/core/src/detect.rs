//! Golden-model Trojan detection (§V-C, Figure 4).
//!
//! "Our Trojan detection strategy compares the captured pulse counts of a
//! given print against a known-good capture … Mismatches outside of a
//! reasonable margin of error suggest this kind of interference." The
//! margin is 5 % (print-to-print "time noise" stayed below 5 % in the
//! authors' testing), backed by "a final check with a 0 % margin of
//! error, ensuring that the correct number of steps was counted on each
//! axis at the conclusion of the print."
//!
//! [`StreamingCompare`] is the one comparison loop and
//! [`Evidence::alarmed_at`] the one verdict rule: campaigns feed the loop
//! through [`TransactionDetector`]'s stream, and the CLI's `detect`,
//! Table II and Figure 4 through [`TransactionDetector::report`].

use std::fmt;

use crate::capture::{Capture, Transaction};
use crate::verdict::{Evidence, TransactionDetector};

/// Axis labels in transaction order (the paper's CSV columns).
pub const AXIS_LABELS: [&str; 4] = ["X", "Y", "Z", "E"];

/// Minimum weight of mismatching transactions, in transactions, before
/// a suspect-fraction verdict can flag a run. Clean reprints wobble at
/// independent sampling boundaries (time noise shifts which 0.1 s
/// window a step burst lands in) plus once more where the shorter
/// capture's end-of-print conclusion sample lines up against a periodic
/// sample of the longer — on a short print two such wobbles would
/// already exceed the paper's 1 % suspect fraction, so the floor sits
/// just above them. It holds for every transaction verdict, the CLI's
/// `detect` included.
pub const SUSPECT_TRANSACTION_FLOOR: f64 = 2.8;

/// The effective suspect-fraction threshold for a capture of `compared`
/// transactions: the requested `base` fraction, floored so that fewer
/// than [`SUSPECT_TRANSACTION_FLOOR`] mismatching transactions can
/// never flag. Campaigns, offline threshold-sweep analytics and the
/// CLI's `detect` all judge through it, so they agree.
pub(crate) fn floored_suspect_fraction(base: f64, compared: usize) -> f64 {
    f64::max(base, SUSPECT_TRANSACTION_FLOOR / compared.max(1) as f64)
}

/// The suspect-fraction test: more than the floored share of the
/// `compared` transactions mismatched. [`Evidence::alarmed_at`] adds the
/// end-of-print totals check to it; the mid-print
/// [`StreamingCompare::provisionally_suspected`] applies it alone.
pub(crate) fn fraction_suspected(flagged: usize, compared: usize, base: f64) -> bool {
    compared > 0 && flagged as f64 / compared as f64 > floored_suspect_fraction(base, compared)
}

/// Detector tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Windowed margin of error as a fraction (paper: 0.05).
    pub margin: f64,
    /// Denominator floor in microsteps. Percent differences against
    /// near-zero golden counts explode; the floor keeps tiny absolute
    /// wobbles near the origin from flagging. (The paper divides by the
    /// raw golden count; we surface the stabilisation explicitly.)
    pub denominator_floor: i32,
    /// Fraction of mismatching transactions above which a Trojan is
    /// suspected, before the short-print floor
    /// (`floored_suspect_fraction`) is applied.
    pub suspect_fraction: f64,
    /// Run the end-of-print 0 %-margin totals check.
    pub final_check: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            margin: 0.05,
            denominator_floor: 32,
            suspect_fraction: 0.01,
            final_check: true,
        }
    }
}

/// One out-of-margin transaction value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mismatch {
    /// Transaction index.
    pub index: u64,
    /// Axis column (0..4, see [`AXIS_LABELS`]).
    pub axis: usize,
    /// Golden value.
    pub golden: i32,
    /// Observed value.
    pub observed: i32,
    /// Percent difference (against the floored golden denominator).
    pub percent: f64,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Index: {}, Column: {}, Values: {}, {}",
            self.index, AXIS_LABELS[self.axis], self.golden, self.observed
        )
    }
}

/// A whole-print comparison for a reader: the transaction judge's
/// [`Evidence`] plus the out-of-margin values behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// The verdict and its sufficient statistics (`peak` is the largest
    /// percent difference found).
    pub evidence: Evidence,
    /// All out-of-margin values, in order.
    pub mismatches: Vec<Mismatch>,
    /// Difference in capture lengths, in transactions.
    pub length_difference: usize,
}

impl DetectionReport {
    /// Whether the judge suspects a Trojan.
    pub fn suspected(&self) -> bool {
        self.evidence.alarmed == Some(true)
    }
}

impl fmt::Display for DetectionReport {
    /// Formats like the paper's Figure 4(c) tool output, plus the line
    /// that says why the verdict fell the way it did.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ev = &self.evidence;
        let shown = self.mismatches.len().min(8);
        for m in &self.mismatches[..shown] {
            writeln!(f, "{m}")?;
        }
        if self.mismatches.len() > shown {
            writeln!(f, "... ({} more)", self.mismatches.len() - shown)?;
        }
        writeln!(f, "Largest percent difference found: {:.2}%", ev.peak)?;
        writeln!(f, "Number of transactions compared: {}", ev.compared)?;
        writeln!(f, "Number of mismatches: {}", self.mismatches.len())?;
        if let Some(ok) = ev.final_totals_match {
            let totals = if ok { "PASS" } else { "FAIL" };
            writeln!(f, "Final totals check (0% margin): {totals}")?;
        }
        if let Some(bar) = ev.threshold.filter(|_| ev.compared > 0) {
            let (flagged, compared, bar) = (ev.flagged, ev.compared, bar * 100.0);
            writeln!(
                f,
                "Mismatching transactions: {flagged} of {compared} (suspect above {bar:.2}%)"
            )?;
        }
        f.write_str(if self.suspected() {
            "Trojan likely!"
        } else {
            "No Trojan suspected."
        })
    }
}

fn percent_diff(golden: i32, observed: i32, floor: i32) -> f64 {
    let denom = golden.abs().max(floor) as f64;
    (f64::from(observed) - f64::from(golden)).abs() / denom * 100.0
}

/// The §V-C comparison, one observed transaction at a time — "this
/// analysis can also be done in real-time while printing, enabling a
/// user to halt a print as soon as a Trojan is suspected." Feed observed
/// transactions as the capture grows, read the provisional alarm between
/// windows, and [`StreamingCompare::finalize`] into the
/// [`DetectionReport`]. A whole-print comparison
/// ([`TransactionDetector::report`]) is the same stream fed the whole
/// capture.
///
/// The provisional alarm applies the same suspect-fraction rule
/// the final verdict applies, evaluated over the prefix seen so far —
/// so the online and offline verdicts can never disagree once the whole
/// print is fed.
#[derive(Debug, Clone)]
pub struct StreamingCompare<'g> {
    golden: &'g Capture,
    config: DetectorConfig,
    compared: usize,
    observed_len: usize,
    mismatches: Vec<Mismatch>,
    mismatched_transactions: usize,
    largest: f64,
}

impl<'g> StreamingCompare<'g> {
    /// Starts an incremental comparison against a golden capture.
    pub fn new(golden: &'g Capture, config: DetectorConfig) -> Self {
        StreamingCompare {
            golden,
            config,
            compared: 0,
            observed_len: 0,
            mismatches: Vec::new(),
            mismatched_transactions: 0,
            largest: 0.0,
        }
    }

    /// Feeds the next observed transaction. The comparison is
    /// positional: the i-th observed transaction is judged against the
    /// i-th golden one, and transactions past the golden print's end
    /// only count toward the length difference.
    pub fn feed(&mut self, t: &Transaction) {
        self.observed_len += 1;
        let Some(g) = self.golden.transactions().get(self.compared).copied() else {
            return;
        };
        let mut any = false;
        for axis in 0..4 {
            let pct = percent_diff(
                g.counts[axis],
                t.counts[axis],
                self.config.denominator_floor,
            );
            self.largest = self.largest.max(pct);
            if pct > self.config.margin * 100.0 {
                self.mismatches.push(Mismatch {
                    index: g.index,
                    axis,
                    golden: g.counts[axis],
                    observed: t.counts[axis],
                    percent: pct,
                });
                any = true;
            }
        }
        if any {
            self.mismatched_transactions += 1;
        }
        self.compared += 1;
    }

    /// Transactions compared so far.
    pub fn compared(&self) -> usize {
        self.compared
    }

    /// Transactions with at least one out-of-margin axis so far.
    pub fn mismatched_transactions(&self) -> usize {
        self.mismatched_transactions
    }

    /// The provisional mid-print alarm: the suspect-fraction test over the
    /// prefix seen so far (so fewer than [`SUSPECT_TRANSACTION_FLOOR`]
    /// mismatching transactions can never halt a print). The
    /// end-of-print totals check only lands at
    /// [`StreamingCompare::finalize`].
    pub fn provisionally_suspected(&self) -> bool {
        fraction_suspected(
            self.mismatched_transactions,
            self.compared,
            self.config.suspect_fraction,
        )
    }

    /// Closes the stream with the observed capture's end-of-print
    /// totals (when recorded) and returns the report. Its evidence is
    /// judged by [`Evidence::alarmed_at`] at the configured base
    /// suspect fraction, floored at the full compared length.
    pub fn finalize(self, observed_final: Option<[i32; 4]>) -> DetectionReport {
        let base = self.config.suspect_fraction;
        let mut evidence = Evidence {
            detector: TransactionDetector::NAME.into(),
            // Judged; the alarm itself is decided below.
            alarmed: Some(false),
            flagged: self.mismatched_transactions,
            flagged_values: self.mismatches.len(),
            compared: self.compared,
            threshold: Some(floored_suspect_fraction(base, self.compared)),
            peak: self.largest,
            final_totals_match: match (self.golden.final_counts(), observed_final) {
                (Some(g), Some(o)) if self.config.final_check => Some(g == o),
                _ => None,
            },
        };
        evidence.alarmed = evidence.alarmed_at(base);
        DetectionReport {
            evidence,
            mismatches: self.mismatches,
            length_difference: self.golden.len().abs_diff(self.observed_len),
        }
    }
}

#[cfg(test)]
pub(crate) mod reference {
    //! The brute-force reference the streaming comparison is pinned
    //! against (the whole-print loop of the paper's §V-C script, judged
    //! with its own spelling of the floored rule), and capture fixtures.
    use super::*;

    /// A capture whose Y and E columns scale with `scale`.
    pub(crate) fn ramp(n: usize, scale: f64) -> Capture {
        (0..n)
            .map(|i| Transaction {
                index: i as u64,
                counts: [
                    (1_000.0 + 10.0 * i as f64) as i32,
                    (2_000.0 * scale) as i32,
                    100,
                    (500.0 * scale * i as f64) as i32,
                ],
            })
            .collect()
    }

    /// `cap` with each transaction's counts rewritten by `f(position, counts)`.
    pub(crate) fn map_counts(cap: &Capture, f: impl Fn(usize, [i32; 4]) -> [i32; 4]) -> Capture {
        let txns = cap.transactions().iter().enumerate();
        txns.map(|(i, t)| Transaction {
            index: t.index,
            counts: f(i, t.counts),
        })
        .collect()
    }

    pub(crate) fn compare(
        golden: &Capture,
        observed: &Capture,
        config: &DetectorConfig,
    ) -> DetectionReport {
        let n = golden.len().min(observed.len());
        let mut mismatches = Vec::new();
        let mut largest = 0.0_f64;
        for (g, o) in golden.transactions().iter().zip(observed.transactions()) {
            for axis in 0..4 {
                let (golden, observed) = (g.counts[axis], o.counts[axis]);
                let percent = percent_diff(golden, observed, config.denominator_floor);
                largest = largest.max(percent);
                if percent > config.margin * 100.0 {
                    let index = g.index;
                    mismatches.push(Mismatch {
                        index,
                        axis,
                        golden,
                        observed,
                        percent,
                    });
                }
            }
        }
        let mut flagged: Vec<u64> = mismatches.iter().map(|m| m.index).collect();
        flagged.dedup();
        let final_totals_match = match (golden.final_counts(), observed.final_counts()) {
            (Some(g), Some(o)) if config.final_check => Some(g == o),
            _ => None,
        };
        let threshold = floored_suspect_fraction(config.suspect_fraction, n);
        let alarmed =
            flagged.len() as f64 / n.max(1) as f64 > threshold || final_totals_match == Some(false);
        DetectionReport {
            evidence: Evidence {
                detector: "txn".into(),
                alarmed: Some(alarmed),
                flagged: flagged.len(),
                flagged_values: mismatches.len(),
                compared: n,
                threshold: Some(threshold),
                peak: largest,
                final_totals_match,
            },
            mismatches,
            length_difference: golden.len().abs_diff(observed.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{map_counts, ramp};
    use super::*;

    fn compare(golden: &Capture, observed: &Capture, config: &DetectorConfig) -> DetectionReport {
        TransactionDetector { base: *config }.report(golden, observed)
    }

    fn window_only() -> DetectorConfig {
        DetectorConfig {
            final_check: false,
            ..DetectorConfig::default()
        }
    }

    #[test]
    fn identical_captures_are_clean() {
        let g = ramp(100, 1.0);
        let r = compare(&g, &g.clone(), &DetectorConfig::default());
        assert!(!r.suspected());
        assert_eq!(r.mismatches.len(), 0);
        assert_eq!(r.evidence.compared, 100);
        assert_eq!(r.evidence.final_totals_match, Some(true));
        assert_eq!(r.evidence.flagged_fraction(), 0.0);
    }

    #[test]
    fn small_drift_within_margin_is_clean() {
        let g = ramp(100, 1.0);
        // 2% drift on every value.
        let o = map_counts(&g, |_, c| c.map(|v| v + (f64::from(v) * 0.02) as i32));
        let r = compare(&g, &o, &window_only());
        assert!(!r.suspected(), "{r}");
        assert!(r.evidence.peak < 5.0);
    }

    #[test]
    fn reduction_detected() {
        let g = ramp(100, 1.0);
        let o = ramp(100, 0.5); // E halved
        let r = compare(&g, &o, &DetectorConfig::default());
        assert!(r.suspected());
        assert!(r.evidence.peak > 40.0);
        assert_eq!(r.evidence.final_totals_match, Some(false));
    }

    #[test]
    fn stealthy_2_percent_reduction_detected_by_final_check() {
        // 2% under-extrusion stays within the 5% window per transaction
        // but fails the 0% totals check — the paper's Test Case 4.
        let g = ramp(2_000, 1.0);
        let o = ramp(2_000, 0.98);
        let r = compare(&g, &o, &DetectorConfig::default());
        assert_eq!(r.evidence.final_totals_match, Some(false));
        assert!(r.suspected(), "final check must catch 2% reduction");
    }

    #[test]
    fn denominator_floor_suppresses_near_zero_noise() {
        let g = map_counts(&ramp(100, 1.0), |_, _| [0; 4]);
        let o = map_counts(&g, |_, _| [1, -1, 0, 1]);
        let r = compare(&g, &o, &window_only());
        assert!(!r.suspected(), "1-step wobble near zero must not flag");
    }

    #[test]
    fn report_display_matches_paper_format() {
        let g = ramp(50, 1.0);
        let o = ramp(50, 0.3);
        let text = compare(&g, &o, &DetectorConfig::default()).to_string();
        assert!(text.contains("Largest percent difference found:"));
        assert!(text.contains("Number of transactions compared: 50"));
        // 2.8 transactions of 50 is the floored bar.
        assert!(text.ends_with("50 of 50 (suspect above 5.60%)\nTrojan likely!"));
        assert!(text.contains("Index:"), "mismatch lines shown");
    }

    #[test]
    fn online_detector_alarms_mid_print() {
        let g = ramp(200, 1.0);
        // First 30 match, then the attack begins. The floored rule needs
        // three mismatching transactions, so the alarm lands at i = 32.
        let o = map_counts(&g, |i, [x, y, z, e]| {
            [if i < 30 { x } else { x / 2 }, y, z, e]
        });
        let mut det = StreamingCompare::new(&g, DetectorConfig::default());
        for (i, t) in o.transactions().iter().enumerate() {
            det.feed(t);
            if det.provisionally_suspected() {
                assert!(i >= 30, "must not alarm before the attack");
                assert!(i < 40, "must alarm quickly after the attack starts");
                return;
            }
        }
        panic!("online detector never alarmed");
    }

    #[test]
    fn online_detector_clean_run_never_alarms() {
        let g = ramp(200, 1.0);
        let mut det = StreamingCompare::new(&g, DetectorConfig::default());
        for t in g.transactions() {
            det.feed(t);
        }
        assert!(!det.provisionally_suspected());
        assert_eq!(det.compared(), 200);
        assert_eq!(det.finalize(g.final_counts()).evidence.peak, 0.0);
    }

    #[test]
    fn floored_threshold_kicks_in_for_short_captures() {
        // Long capture: the paper's 1 % stands.
        assert_eq!(floored_suspect_fraction(0.01, 1_000), 0.01);
        // Short capture: 2.8 transactions' worth of fraction wins.
        assert_eq!(
            floored_suspect_fraction(0.01, 70),
            SUSPECT_TRANSACTION_FLOOR / 70.0
        );
        // Degenerate inputs stay finite.
        assert_eq!(floored_suspect_fraction(0.01, 0), SUSPECT_TRANSACTION_FLOOR);
        // A 2-wobble run on a 70-transaction capture must sit under the
        // floored threshold; a 3-wobble run must sit over it.
        assert!(!fraction_suspected(2, 70, 0.01));
        assert!(fraction_suspected(3, 70, 0.01));
        assert!(!fraction_suspected(0, 0, 0.0));
    }

    #[test]
    fn mismatched_transactions_dedups_axes() {
        let g = ramp(100, 1.0);
        let o = ramp(100, 0.5); // Y and E both off in every transaction
        let r = compare(&g, &o, &DetectorConfig::default());
        assert!(r.mismatches.len() > r.evidence.flagged);
        assert_eq!(r.evidence.flagged, 100);
        assert_eq!(r.evidence.flagged_values, r.mismatches.len());
        assert_eq!(r.evidence.flagged_fraction(), 1.0);
    }

    #[test]
    fn shorter_observed_capture_compares_prefix() {
        let g = ramp(100, 1.0);
        let o: Capture = g.transactions()[..60].iter().copied().collect();
        let r = compare(&g, &o, &window_only());
        assert_eq!(r.evidence.compared, 60);
        assert_eq!(r.length_difference, 40);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::reference::map_counts;
    use super::*;
    use offramps_des::DetRng;

    /// Deterministic stand-in for proptest's capture generator.
    fn random_capture(rng: &mut DetRng, max_rows: usize) -> Capture {
        let n = rng.uniform_u64(1, max_rows as u64) as usize;
        (0..n)
            .map(|i| Transaction {
                index: i as u64,
                counts: std::array::from_fn(|_| rng.uniform_u64(0, 200_000) as i32 - 100_000),
            })
            .collect()
    }

    /// Comparing any capture against itself is always clean.
    #[test]
    fn self_compare_is_clean() {
        for seed in 0u64..64 {
            let mut rng = DetRng::from_seed(seed);
            let cap = random_capture(&mut rng, 60);
            let rep = TransactionDetector::campaign().report(&cap, &cap.clone());
            assert!(!rep.suspected(), "seed {seed}");
            assert_eq!(rep.mismatches.len(), 0, "seed {seed}");
            assert_eq!(rep.evidence.peak, 0.0, "seed {seed}");
            assert_eq!(rep.evidence.final_totals_match, Some(true), "seed {seed}");
        }
    }

    /// Scaling any axis far outside the margin is always suspected
    /// (when values are large enough to exceed the floor).
    #[test]
    fn gross_tamper_detected() {
        for seed in 0u64..64 {
            let mut rng = DetRng::from_seed(seed ^ 0xbeef);
            let n = rng.uniform_u64(1, 60) as usize;
            let cap: Capture = (0..n)
                .map(|i| Transaction {
                    index: i as u64,
                    counts: std::array::from_fn(|_| {
                        let magnitude = rng.uniform_u64(1_001, 100_000) as i32;
                        magnitude * if rng.chance(0.5) { 1 } else { -1 }
                    }),
                })
                .collect();
            let tampered = map_counts(&cap, |_, [x, y, z, e]| [x * 2, y, z, e]);
            let rep = TransactionDetector::campaign().report(&cap, &tampered);
            assert!(rep.suspected(), "seed {seed}");
        }
    }

    /// Feeding any observed capture transaction-by-transaction and
    /// finalizing reproduces the brute-force whole-print report
    /// byte-for-byte — including mismatch order, largest percent, length
    /// difference, the end-of-print totals check and the verdict.
    #[test]
    fn streaming_compare_finalize_matches_offline_compare() {
        for seed in 0u64..64 {
            let mut rng = DetRng::from_seed(seed ^ 0xf00d);
            let cap = random_capture(&mut rng, 60);
            let observed = random_capture(&mut rng, 60);
            let cfg = DetectorConfig::default();
            let offline = reference::compare(&cap, &observed, &cfg);
            let mut stream = StreamingCompare::new(&cap, cfg);
            for t in observed.transactions() {
                stream.feed(t);
            }
            assert_eq!(
                stream.finalize(observed.final_counts()),
                offline,
                "seed {seed}"
            );
        }
    }

    /// A clean prefix never provisionally alarms; once the whole run is
    /// fed, the provisional rule agrees with the floored offline one.
    #[test]
    fn streaming_compare_provisional_rule_is_floored() {
        for seed in 0u64..32 {
            let mut rng = DetRng::from_seed(seed ^ 0xabba);
            let cap = random_capture(&mut rng, 60);
            let cfg = DetectorConfig::default();
            let mut stream = StreamingCompare::new(&cap, cfg);
            for t in cap.transactions() {
                stream.feed(t);
                assert!(!stream.provisionally_suspected(), "seed {seed}");
            }
        }
    }
}
