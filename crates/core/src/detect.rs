//! Golden-model Trojan detection (§V-C, Figure 4).
//!
//! "Our Trojan detection strategy compares the captured pulse counts of a
//! given print against a known-good capture … Mismatches outside of a
//! reasonable margin of error suggest this kind of interference." The
//! margin is 5 % (print-to-print "time noise" stayed below 5 % in the
//! authors' testing), backed by "a final check with a 0 % margin of
//! error, ensuring that the correct number of steps was counted on each
//! axis at the conclusion of the print."

use std::fmt;

use crate::capture::{Capture, Transaction};

/// Axis labels in transaction order (the paper's CSV columns).
pub const AXIS_LABELS: [&str; 4] = ["X", "Y", "Z", "E"];

/// Minimum weight of mismatching transactions, in transactions, before
/// a suspect-fraction verdict can flag a run. Clean reprints wobble at
/// independent sampling boundaries (time noise shifts which 0.1 s
/// window a step burst lands in) plus once more where the shorter
/// capture's end-of-print conclusion sample lines up against a periodic
/// sample of the longer — on a short print two such wobbles would
/// already exceed the paper's 1 % suspect fraction, so the floor sits
/// just above them.
pub const SUSPECT_TRANSACTION_FLOOR: f64 = 2.8;

/// The effective suspect-fraction threshold for a capture of `compared`
/// transactions: the requested `base` fraction, floored so that fewer
/// than [`SUSPECT_TRANSACTION_FLOOR`] mismatching transactions can
/// never flag. Campaign judging and offline threshold-sweep analytics
/// both go through this helper, so re-judged verdicts agree with the
/// live ones at the same base threshold.
pub fn floored_suspect_fraction(base: f64, compared: usize) -> f64 {
    f64::max(base, SUSPECT_TRANSACTION_FLOOR / compared.max(1) as f64)
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
    /// suspected.
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

/// Result of comparing a capture against the golden reference.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// All out-of-margin values, in order.
    pub mismatches: Vec<Mismatch>,
    /// Largest percent difference found (0 if none).
    pub largest_percent: f64,
    /// Number of transactions compared (the shorter capture bounds it).
    pub transactions_compared: usize,
    /// Whether the end-of-print totals matched exactly (`None` when the
    /// final check is disabled or either capture is empty).
    pub final_totals_match: Option<bool>,
    /// Difference in capture lengths, in transactions.
    pub length_difference: usize,
    /// The verdict.
    pub trojan_suspected: bool,
}

impl DetectionReport {
    /// Number of *transactions* with at least one out-of-margin axis
    /// (each transaction counted once however many axes mismatched).
    /// With [`DetectionReport::transactions_compared`] this is the raw
    /// material for re-judging the verdict offline at any threshold —
    /// threshold-sweep analytics never have to re-run the detector.
    pub fn mismatched_transactions(&self) -> usize {
        let mut idx: Vec<u64> = self.mismatches.iter().map(|m| m.index).collect();
        idx.dedup();
        idx.len()
    }

    /// Fraction of compared transactions with at least one mismatch.
    pub fn mismatch_fraction(&self) -> f64 {
        if self.transactions_compared == 0 {
            return 0.0;
        }
        self.mismatched_transactions() as f64 / self.transactions_compared as f64
    }
}

impl fmt::Display for DetectionReport {
    /// Formats like the paper's Figure 4(c) tool output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shown = self.mismatches.len().min(8);
        for m in &self.mismatches[..shown] {
            writeln!(f, "{m}")?;
        }
        if self.mismatches.len() > shown {
            writeln!(f, "... ({} more)", self.mismatches.len() - shown)?;
        }
        writeln!(
            f,
            "Largest percent difference found: {:.2}%",
            self.largest_percent
        )?;
        writeln!(
            f,
            "Number of transactions compared: {}",
            self.transactions_compared
        )?;
        writeln!(f, "Number of mismatches: {}", self.mismatches.len())?;
        if let Some(ok) = self.final_totals_match {
            writeln!(
                f,
                "Final totals check (0% margin): {}",
                if ok { "PASS" } else { "FAIL" }
            )?;
        }
        write!(
            f,
            "{}",
            if self.trojan_suspected {
                "Trojan likely!"
            } else {
                "No Trojan suspected."
            }
        )
    }
}

fn percent_diff(golden: i32, observed: i32, floor: i32) -> f64 {
    let denom = golden.abs().max(floor) as f64;
    (f64::from(observed) - f64::from(golden)).abs() / denom * 100.0
}

/// Compares `observed` against `golden` (offline, whole-print analysis —
/// the Python script of §V-C).
///
/// # Example
///
/// ```
/// use offramps::{Capture, Transaction, detect};
///
/// let golden: Capture = (0..10).map(|i| Transaction {
///     index: i, counts: [1_000 * i as i32, 0, 0, 0] }).collect();
/// let clean = detect::compare(&golden, &golden, &detect::DetectorConfig::default());
/// assert!(!clean.trojan_suspected);
/// ```
pub fn compare(golden: &Capture, observed: &Capture, config: &DetectorConfig) -> DetectionReport {
    let n = golden.len().min(observed.len());
    let mut mismatches = Vec::new();
    let mut largest = 0.0_f64;
    for i in 0..n {
        let g = golden.transactions()[i];
        let o = observed.transactions()[i];
        for axis in 0..4 {
            let pct = percent_diff(g.counts[axis], o.counts[axis], config.denominator_floor);
            largest = largest.max(pct);
            if pct > config.margin * 100.0 {
                mismatches.push(Mismatch {
                    index: g.index,
                    axis,
                    golden: g.counts[axis],
                    observed: o.counts[axis],
                    percent: pct,
                });
            }
        }
    }

    let final_totals_match = if config.final_check {
        match (golden.final_counts(), observed.final_counts()) {
            (Some(g), Some(o)) => Some(g == o),
            _ => None,
        }
    } else {
        None
    };

    let mut report = DetectionReport {
        mismatches,
        largest_percent: largest,
        transactions_compared: n,
        final_totals_match,
        length_difference: golden.len().abs_diff(observed.len()),
        trojan_suspected: false,
    };
    report.trojan_suspected = report.mismatch_fraction() > config.suspect_fraction
        || report.final_totals_match == Some(false);
    report
}

/// Incremental form of [`compare`] for in-print analysis — "this
/// analysis can also be done in real-time while printing, enabling a
/// user to halt a print as soon as a Trojan is suspected." Feed observed
/// transactions as the capture grows, read the provisional alarm between
/// windows, and [`StreamingCompare::finalize`] into the byte-identical
/// [`DetectionReport`] the whole-print comparison produces.
///
/// The provisional alarm applies the same [`floored_suspect_fraction`]
/// rule the campaign judge applies at end-of-print, evaluated over the
/// prefix seen so far — so the online and offline verdicts can never
/// disagree once the whole print is fed.
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

    /// Feeds the next observed transaction (positional, like
    /// [`compare`]: the i-th observed transaction is judged against the
    /// i-th golden one; transactions past the golden print's end only
    /// count toward the length difference).
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

    /// Largest percent difference seen so far.
    pub fn largest_percent(&self) -> f64 {
        self.largest
    }

    /// The provisional mid-print alarm: the mismatch fraction over the
    /// prefix seen so far, judged against the configured suspect
    /// fraction floored for that prefix length (so fewer than
    /// [`SUSPECT_TRANSACTION_FLOOR`] mismatching transactions can never
    /// halt a print). The end-of-print totals check only lands at
    /// [`StreamingCompare::finalize`].
    pub fn provisionally_suspected(&self) -> bool {
        if self.compared == 0 {
            return false;
        }
        self.mismatched_transactions as f64 / self.compared as f64
            > floored_suspect_fraction(self.config.suspect_fraction, self.compared)
    }

    /// Closes the stream with the observed capture's end-of-print
    /// totals (when recorded) and returns the report — byte-identical
    /// to [`compare`] over the full captures.
    pub fn finalize(self, observed_final: Option<[i32; 4]>) -> DetectionReport {
        let final_totals_match = if self.config.final_check {
            match (self.golden.final_counts(), observed_final) {
                (Some(g), Some(o)) => Some(g == o),
                _ => None,
            }
        } else {
            None
        };
        let mut report = DetectionReport {
            mismatches: self.mismatches,
            largest_percent: self.largest,
            transactions_compared: self.compared,
            final_totals_match,
            length_difference: self.golden.len().abs_diff(self.observed_len),
            trojan_suspected: false,
        };
        report.trojan_suspected = report.mismatch_fraction() > self.config.suspect_fraction
            || report.final_totals_match == Some(false);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, scale: f64) -> Capture {
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

    #[test]
    fn identical_captures_are_clean() {
        let g = ramp(100, 1.0);
        let r = compare(&g, &g.clone(), &DetectorConfig::default());
        assert!(!r.trojan_suspected);
        assert_eq!(r.mismatches.len(), 0);
        assert_eq!(r.transactions_compared, 100);
        assert_eq!(r.final_totals_match, Some(true));
        assert_eq!(r.mismatch_fraction(), 0.0);
    }

    #[test]
    fn small_drift_within_margin_is_clean() {
        let g = ramp(100, 1.0);
        // 2% drift on every value.
        let o: Capture = g
            .transactions()
            .iter()
            .map(|t| Transaction {
                index: t.index,
                counts: std::array::from_fn(|i| {
                    let v = t.counts[i];
                    v + (f64::from(v) * 0.02) as i32
                }),
            })
            .collect();
        let cfg = DetectorConfig {
            final_check: false,
            ..DetectorConfig::default()
        };
        let r = compare(&g, &o, &cfg);
        assert!(!r.trojan_suspected, "{r}");
        assert!(r.largest_percent < 5.0);
    }

    #[test]
    fn reduction_detected() {
        let g = ramp(100, 1.0);
        let o = ramp(100, 0.5); // E halved
        let r = compare(&g, &o, &DetectorConfig::default());
        assert!(r.trojan_suspected);
        assert!(r.largest_percent > 40.0);
        assert_eq!(r.final_totals_match, Some(false));
    }

    #[test]
    fn stealthy_2_percent_reduction_detected_by_final_check() {
        // 2% under-extrusion stays within the 5% window per transaction
        // but fails the 0% totals check — the paper's Test Case 4.
        let g = ramp(2_000, 1.0);
        let o = ramp(2_000, 0.98);
        let cfg = DetectorConfig::default();
        let r = compare(&g, &o, &cfg);
        assert_eq!(r.final_totals_match, Some(false));
        assert!(r.trojan_suspected, "final check must catch 2% reduction");
    }

    #[test]
    fn denominator_floor_suppresses_near_zero_noise() {
        let g: Capture = (0..100)
            .map(|i| Transaction {
                index: i,
                counts: [0, 0, 0, 0],
            })
            .collect();
        let o: Capture = (0..100)
            .map(|i| Transaction {
                index: i,
                counts: [1, -1, 0, 1],
            })
            .collect();
        let cfg = DetectorConfig {
            final_check: false,
            ..DetectorConfig::default()
        };
        let r = compare(&g, &o, &cfg);
        assert!(!r.trojan_suspected, "1-step wobble near zero must not flag");
    }

    #[test]
    fn report_display_matches_paper_format() {
        let g = ramp(50, 1.0);
        let o = ramp(50, 0.3);
        let r = compare(&g, &o, &DetectorConfig::default());
        let text = r.to_string();
        assert!(text.contains("Largest percent difference found:"));
        assert!(text.contains("Number of transactions compared: 50"));
        assert!(text.contains("Trojan likely!"));
        assert!(text.contains("Index:"), "mismatch lines shown");
    }

    #[test]
    fn online_detector_alarms_mid_print() {
        let g = ramp(200, 1.0);
        let mut det = StreamingCompare::new(&g, DetectorConfig::default());
        // First 30 match, then the attack begins. The floored rule needs
        // three mismatching transactions, so the alarm lands at i = 32.
        for (i, t) in g.transactions().iter().enumerate() {
            let observed = if i < 30 {
                *t
            } else {
                Transaction {
                    index: t.index,
                    counts: [t.counts[0] / 2, t.counts[1], t.counts[2], t.counts[3]],
                }
            };
            det.feed(&observed);
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
        assert_eq!(det.largest_percent(), 0.0);
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
        assert!(2.0 / 70.0 <= floored_suspect_fraction(0.01, 70));
        assert!(3.0 / 70.0 > floored_suspect_fraction(0.01, 70));
    }

    #[test]
    fn mismatched_transactions_dedups_axes() {
        let g = ramp(100, 1.0);
        let o = ramp(100, 0.5); // Y and E both off in every transaction
        let r = compare(&g, &o, &DetectorConfig::default());
        assert!(r.mismatches.len() > r.mismatched_transactions());
        assert_eq!(r.mismatched_transactions(), 100);
        assert_eq!(r.mismatch_fraction(), 1.0);
    }

    #[test]
    fn shorter_observed_capture_compares_prefix() {
        let g = ramp(100, 1.0);
        let o: Capture = g.transactions()[..60].iter().copied().collect();
        let r = compare(
            &g,
            &o,
            &DetectorConfig {
                final_check: false,
                ..Default::default()
            },
        );
        assert_eq!(r.transactions_compared, 60);
        assert_eq!(r.length_difference, 40);
    }
}

#[cfg(test)]
mod randomized_tests {
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
            let rep = compare(&cap, &cap.clone(), &DetectorConfig::default());
            assert!(!rep.trojan_suspected, "seed {seed}");
            assert_eq!(rep.mismatches.len(), 0, "seed {seed}");
            assert_eq!(rep.largest_percent, 0.0, "seed {seed}");
            assert_eq!(rep.final_totals_match, Some(true), "seed {seed}");
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
                        if rng.chance(0.5) {
                            magnitude
                        } else {
                            -magnitude
                        }
                    }),
                })
                .collect();
            let tampered: Capture = cap
                .transactions()
                .iter()
                .map(|t| Transaction {
                    index: t.index,
                    counts: [t.counts[0] * 2, t.counts[1], t.counts[2], t.counts[3]],
                })
                .collect();
            let rep = compare(&cap, &tampered, &DetectorConfig::default());
            assert!(rep.trojan_suspected, "seed {seed}");
        }
    }

    /// Feeding any observed capture transaction-by-transaction and
    /// finalizing reproduces the offline report byte-for-byte —
    /// including mismatch order, largest percent, length difference and
    /// the end-of-print totals check.
    #[test]
    fn streaming_compare_finalize_matches_offline_compare() {
        for seed in 0u64..64 {
            let mut rng = DetRng::from_seed(seed ^ 0xf00d);
            let cap = random_capture(&mut rng, 60);
            let observed = random_capture(&mut rng, 60);
            let cfg = DetectorConfig::default();
            let offline = compare(&cap, &observed, &cfg);
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
