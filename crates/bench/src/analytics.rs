//! Corpus-wide detection analytics: per-detector ROC over a
//! suspect-fraction threshold grid, plus calibrated weighted fusion.
//!
//! The paper judges every print at a single threshold (1 % suspect
//! fraction). But each scenario record already carries every detector's
//! sufficient statistics — `mismatched_transactions` over
//! `transactions_compared` plus the 0 %-margin final-totals bit for the
//! transaction judge, anomalous windows over compared windows for each
//! sampled side channel — so verdicts can be **re-judged offline at any
//! threshold** without re-running a single simulation. Sweeping
//! [`THRESHOLD_GRID`] over a whole campaign (or a whole scenario store)
//! yields, per attack and per detector, a detection-rate curve; the
//! `"none"` attack's curve is the false-positive rate at the same
//! thresholds, and the two together are the corpus-wide ROC.
//!
//! Re-judging is the live rule itself: [`Evidence::alarmed_at`]
//! applies the floored suspect fraction and the
//! totals check to the transaction judge's evidence and
//! [`offramps_sidechannel::suspect_anomaly_fraction`] to every sampled
//! channel's, exactly as the live judges do. Each curve's value at the
//! live base threshold therefore reproduces the stored verdicts
//! (invariants the tests pin). Store records are read by the same
//! decoder a cache hit goes through ([`crate::cache::decode_verdict`]).
//!
//! On top of the per-detector curves, corpora observed by **two or more
//! side modalities** get a *learned* fusion policy: per-modality weights
//! fitted on the stored records (detection rate minus false-positive
//! rate at each modality's live base threshold, clamped at zero) and a
//! weighted-vote ROC next to the `any`-alarm fusion. Both fused curves
//! tally the re-judged votes through [`FusionPolicy::tally_votes`] —
//! the live fusion rule — so the offline curves and a live `--fuse
//! weighted:…` campaign can never disagree.

use std::collections::BTreeMap;

use offramps::verdict::{Channel, Evidence, FusionPolicy, SampledDetector, TimeToDetection};
use offramps::TransactionDetector;
use offramps_des::{host_parallelism, pool_map};

use crate::campaign::ScenarioResult;
use crate::json::{ObjectWriter, ToJson, Value};

/// The default suspect-fraction threshold grid: a log-ish sweep from
/// "flag anything" to "flag only gross tampering", with the paper's
/// 1 % in the middle. Ten points ≥ the eight the analytics contract
/// promises.
pub const THRESHOLD_GRID: [f64; 10] = [0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5];

/// The transaction judge's name, which keys its evidence.
const TXN: &str = TransactionDetector::NAME;

/// One scenario's detection inputs, abstracted away from where the
/// record came from (a live [`ScenarioResult`] or a store payload).
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Attack spec string (`"none"` for clean reprints).
    pub attack: String,
    /// Every detector's stored evidence, in canonical order (`txn`,
    /// `power`, `acoustic`, `thermal`, then alphabetical). Weighted
    /// votes add in this order, so it is part of the result.
    pub evidence: Vec<Evidence>,
    /// Time-to-detection, for records produced by an online campaign
    /// whose fused monitor alarmed mid-print (`None` for every post-hoc
    /// record and for online clean runs).
    pub ttd: Option<TimeToDetection>,
}

impl Observation {
    fn new(
        attack: String,
        mut evidence: Vec<Evidence>,
        ttd: Option<TimeToDetection>,
    ) -> Observation {
        evidence.sort_by(|a, b| canonical_rank(&a.detector).cmp(&canonical_rank(&b.detector)));
        Observation {
            attack,
            evidence,
            ttd,
        }
    }

    /// Extracts the detection inputs from a live campaign result.
    // detlint: allow(D7) -- tests/observation_plane.rs
    pub fn from_result(r: &ScenarioResult) -> Observation {
        Observation::new(r.scenario.trojan.clone(), r.verdict.evidence.clone(), r.ttd)
    }

    /// Extracts the detection inputs from a parsed store payload (see
    /// [`crate::cache::encode_result`]) through the cache's own
    /// [`crate::cache::decode_verdict`]. Records written before a
    /// modality existed simply carry no evidence for it; the analytics
    /// CLI counts and reports them per detector instead of erroring.
    ///
    /// # Errors
    ///
    /// Reports the first missing or mistyped field.
    // detlint: allow(D7) -- tests/fuzz_inputs.rs
    pub fn from_payload(v: &Value) -> Result<Observation, String> {
        let attack = v
            .get("trojan")
            .and_then(Value::as_str)
            .ok_or("payload missing string \"trojan\"")?;
        let (verdict, ttd) = crate::cache::decode_verdict(v)?;
        Ok(Observation::new(attack.to_string(), verdict.evidence, ttd))
    }

    fn evidence_for(&self, detector: &str) -> Option<&Evidence> {
        self.evidence.iter().find(|e| e.detector == detector)
    }

    /// Whether the named detector judged this record (its stream may
    /// have been missing, or the record predates the detector).
    pub fn judged_by(&self, detector: &str) -> bool {
        self.evidence_for(detector).is_some_and(Evidence::judged)
    }

    /// Re-judges the named detector's evidence at `base` suspect
    /// fraction ([`Evidence::alarmed_at`]); `None` when the record
    /// carries no judged evidence for it.
    pub fn alarmed_at(&self, detector: &str, base: f64) -> Option<bool> {
        self.evidence_for(detector)?.alarmed_at(base)
    }

    /// Fuses every detector's re-judged vote at `base` under `policy`,
    /// with the live tally rule.
    fn fused_at(&self, policy: &FusionPolicy, base: f64) -> bool {
        policy
            .tally_votes(
                self.evidence
                    .iter()
                    .filter_map(|e| e.alarmed_at(base).map(|a| (e.detector.as_str(), a))),
            )
            .alarmed()
    }

    /// Whether any detector judged this record.
    fn judged_any(&self) -> bool {
        self.evidence.iter().any(Evidence::judged)
    }
}

/// The canonical sort key for detectors: [`Channel::ALL`]'s order
/// (`txn`, `power`, `acoustic`, `thermal`), then anything else
/// alphabetically — the one ordering every rendering surface (JSON
/// keys, summary tables, weight fits) and every weighted vote shares.
fn canonical_rank(name: &str) -> (usize, &str) {
    let rank = Channel::ALL
        .iter()
        .position(|c| c.name() == name)
        .unwrap_or(Channel::ALL.len());
    (rank, name)
}

/// One side detector's detection-rate curve within an attack group.
#[derive(Debug, Clone, PartialEq)]
pub struct SideCurve {
    /// Detector name.
    pub detector: String,
    /// Records this judge judged (the rate's denominator).
    pub judged: usize,
    /// Detection rate at each grid threshold.
    pub detection_rate: Vec<f64>,
}

/// Time-to-detection distribution for one attack, over the online
/// records whose fused monitor alarmed mid-print. Every JSON field it
/// emits is `ttd_`-prefixed, so online-only artifact additions stay
/// greppable (and strippable) line by line.
#[derive(Debug, Clone, PartialEq)]
pub struct TtdStats {
    /// Records carrying a TTD mark (fused online alarms).
    pub alarms: usize,
    /// Earliest alarming monitor slice across the group.
    pub min_step: u64,
    /// Latest alarming monitor slice across the group.
    pub max_step: u64,
    /// Mean alarming slice.
    pub mean_step: f64,
    /// Mean fraction of the print completed at the alarm.
    pub mean_print_fraction: f64,
    /// Mean fraction of the print's filament saved by halting there.
    pub mean_material_saved: f64,
}

impl TtdStats {
    /// Aggregates a group's TTD marks (`None` when nothing alarmed
    /// online).
    fn over<'a>(marks: impl Iterator<Item = &'a TimeToDetection>) -> Option<TtdStats> {
        let marks: Vec<&TimeToDetection> = marks.collect();
        if marks.is_empty() {
            return None;
        }
        let n = marks.len() as f64;
        Some(TtdStats {
            alarms: marks.len(),
            min_step: marks.iter().map(|t| t.alarm_step).min().expect("non-empty"),
            max_step: marks.iter().map(|t| t.alarm_step).max().expect("non-empty"),
            mean_step: marks.iter().map(|t| t.alarm_step as f64).sum::<f64>() / n,
            mean_print_fraction: marks.iter().map(|t| t.print_fraction).sum::<f64>() / n,
            mean_material_saved: marks.iter().map(|t| t.material_saved).sum::<f64>() / n,
        })
    }
}

/// One attack's detection-rate curves over the threshold grid: the
/// transaction judge always, plus one curve per side modality present
/// and the any-alarm fusion when any side evidence exists.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCurve {
    /// Attack spec string.
    pub attack: String,
    /// Scenario records contributing (judged or not).
    pub scenarios: usize,
    /// Records the transaction judge judged (that rate's denominator).
    pub judged: usize,
    /// Transaction-judge detection rate at each grid threshold, `0.0`
    /// when nothing was judged.
    pub detection_rate: Vec<f64>,
    /// Per-side-detector curves, canonical order, only for detectors
    /// that judged at least one record in this group.
    pub side: Vec<SideCurve>,
    /// Records judged by at least one modality (the fused rate's
    /// denominator — a side-only record is a real fused observation).
    pub fused_judged: usize,
    /// Any-alarm fused detection rate per threshold (over
    /// `fused_judged`); `None` when no side evidence exists. Fused
    /// curves are [`FusionPolicy::Any`] over the re-judged votes by
    /// definition — an exploration of the most sensitive combined
    /// detector — whatever fusion policy the live campaign ran with (an
    /// `--fuse all` store's fused curve can sit above its stored
    /// detection rate).
    pub fused_detection_rate: Option<Vec<f64>>,
    /// Time-to-detection distribution — present only when some record
    /// in the group carries an online alarm mark, so post-hoc corpora
    /// keep their pre-online artifact shape.
    pub ttd: Option<TtdStats>,
}

impl AttackCurve {
    /// A named side detector's curve, if present.
    // detlint: allow(D7) -- tests/store_cache.rs
    pub fn side_curve(&self, detector: &str) -> Option<&SideCurve> {
        self.side.iter().find(|s| s.detector == detector)
    }
}

impl ToJson for AttackCurve {
    fn write_json(&self, out: &mut String, indent: usize) {
        let render = crate::json::number_array;
        let mut w = ObjectWriter::new(out, indent);
        w.string("attack", &self.attack);
        // Every TTD field is `ttd_`-prefixed and one per line, and the
        // block sits before the unconditional "scenarios" key (the
        // writer attaches the separating comma to the *previous* line),
        // so online additions can be stripped — or grepped — line by
        // line, leaving the post-hoc bytes exactly.
        if let Some(t) = &self.ttd {
            w.int("ttd_alarms", t.alarms as i128)
                .int("ttd_min_step", t.min_step as i128)
                .int("ttd_max_step", t.max_step as i128)
                .float("ttd_mean_step", t.mean_step)
                .float("ttd_mean_print_fraction", t.mean_print_fraction)
                .float("ttd_mean_material_saved", t.mean_material_saved);
        }
        w.int("scenarios", self.scenarios as i128)
            .int("judged", self.judged as i128)
            .raw("detection_rate", &render(&self.detection_rate));
        // Per-detector curves appear only for the modalities a corpus
        // actually carries, so transaction-only reports keep their
        // pre-suite shape (and txn+power reports their PR-4 shape).
        for side in &self.side {
            w.int(&format!("{}_judged", side.detector), side.judged as i128)
                .raw(
                    &format!("{}_detection_rate", side.detector),
                    &render(&side.detection_rate),
                );
        }
        if let Some(fused) = &self.fused_detection_rate {
            w.int("fused_judged", self.fused_judged as i128)
                .raw("fused_detection_rate", &render(fused));
        }
        w.finish();
    }
}

/// The calibrated weighted-fusion analytics: fitted weights plus the
/// weighted-vote ROC over the same grid.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedFusionReport {
    /// Per-modality weights (transaction judge first, then side
    /// detectors in canonical order), fitted on the records.
    pub weights: Vec<(String, f64)>,
    /// The vote threshold (fraction of judged weight that must alarm).
    pub vote_threshold: f64,
    /// Per-attack weighted detection-rate curves, sorted by attack
    /// name: `(attack, judged-by-any denominator, rates)`.
    pub curves: Vec<(String, usize, Vec<f64>)>,
}

impl WeightedFusionReport {
    /// The `"none"` attack's weighted curve — the weighted
    /// false-positive rate.
    pub(crate) fn false_positive_rate(&self) -> Option<&Vec<f64>> {
        self.curves
            .iter()
            .find(|(attack, _, _)| attack == "none")
            .map(|(_, _, rates)| rates)
    }

    /// The equivalent live fusion policy (for `--fuse` reuse).
    pub fn policy(&self) -> FusionPolicy {
        FusionPolicy::Weighted {
            weights: self.weights.clone(),
            threshold: self.vote_threshold,
        }
    }
}

impl ToJson for WeightedFusionReport {
    fn write_json(&self, out: &mut String, indent: usize) {
        let render = crate::json::number_array;
        let mut w = ObjectWriter::new(out, indent);
        w.float("vote_threshold", self.vote_threshold);
        let mut weights = String::from("{");
        for (i, (d, v)) in self.weights.iter().enumerate() {
            if i > 0 {
                weights.push_str(", ");
            }
            crate::json::escape_into(d, &mut weights);
            weights.push_str(": ");
            crate::json::number_into(*v, &mut weights);
        }
        weights.push('}');
        w.raw("weights", &weights);
        if let Some(fp) = self.false_positive_rate() {
            w.raw("false_positive_rate", &render(fp));
        }
        let mut attacks = String::from("[");
        for (i, (attack, judged, rates)) in self.curves.iter().enumerate() {
            if i > 0 {
                attacks.push(',');
            }
            attacks.push_str(&format!(
                "\n    {{\"attack\": {}, \"judged\": {}, \"detection_rate\": {}}}",
                crate::json::escape(attack),
                judged,
                render(rates)
            ));
        }
        attacks.push_str("\n  ]");
        w.raw("attacks", &attacks);
        w.finish();
    }
}

/// Per-attack ROC analytics over a set of scenario observations.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticsReport {
    /// The suspect-fraction grid every curve is evaluated on.
    pub thresholds: Vec<f64>,
    /// One curve per attack, sorted by attack name (deterministic
    /// regardless of input order).
    pub curves: Vec<AttackCurve>,
    /// Calibrated weighted fusion — present only when the observations
    /// carry two or more judged side modalities (the corpora where a
    /// learned combination has something to learn).
    pub weighted: Option<WeightedFusionReport>,
}

impl AnalyticsReport {
    /// Sweeps `thresholds` over `observations`, grouping by attack.
    /// Each attack's curves are computed on the host's cores and
    /// collected in attack order, so the report does not depend on the
    /// worker count.
    pub fn over(observations: &[Observation], thresholds: &[f64]) -> AnalyticsReport {
        AnalyticsReport::over_with(observations, thresholds, host_parallelism())
    }

    /// [`AnalyticsReport::over`] on `workers` threads.
    fn over_with(
        observations: &[Observation],
        thresholds: &[f64],
        workers: usize,
    ) -> AnalyticsReport {
        let mut groups: BTreeMap<&str, Vec<&Observation>> = BTreeMap::new();
        for obs in observations {
            groups.entry(&obs.attack).or_default().push(obs);
        }
        let groups: Vec<(&str, Vec<&Observation>)> = groups.into_iter().collect();
        let rate = |hits: usize, denom: usize| {
            if denom == 0 {
                0.0
            } else {
                hits as f64 / denom as f64
            }
        };
        let side_names = side_detector_names(observations);
        let curves = pool_map(groups.len(), workers, Default::default, |(), i| {
            let (attack, group) = &groups[i];
            let judged = group.iter().filter(|o| o.judged_by(TXN)).count();
            let detection_rate = thresholds
                .iter()
                .map(|&t| {
                    rate(
                        group
                            .iter()
                            .filter(|o| o.alarmed_at(TXN, t) == Some(true))
                            .count(),
                        judged,
                    )
                })
                .collect();
            let mut side = Vec::new();
            for name in &side_names {
                let side_judged = group.iter().filter(|o| o.judged_by(name)).count();
                if side_judged == 0 {
                    continue;
                }
                side.push(SideCurve {
                    detector: name.clone(),
                    judged: side_judged,
                    detection_rate: thresholds
                        .iter()
                        .map(|&t| {
                            rate(
                                group
                                    .iter()
                                    .filter(|o| o.alarmed_at(name, t) == Some(true))
                                    .count(),
                                side_judged,
                            )
                        })
                        .collect(),
                });
            }
            // The fused rate's denominator: records judged by *any*
            // modality (a side-only record is a real fused
            // observation even though the txn judge never saw it).
            let fused_judged = group.iter().filter(|o| o.judged_any()).count();
            let fused_detection_rate = if side.is_empty() {
                None
            } else {
                Some(
                    thresholds
                        .iter()
                        .map(|&t| {
                            rate(
                                group
                                    .iter()
                                    .filter(|o| o.fused_at(&FusionPolicy::Any, t))
                                    .count(),
                                fused_judged,
                            )
                        })
                        .collect(),
                )
            };
            AttackCurve {
                attack: attack.to_string(),
                scenarios: group.len(),
                judged,
                detection_rate,
                side,
                fused_judged,
                fused_detection_rate,
                ttd: TtdStats::over(group.iter().filter_map(|o| o.ttd.as_ref())),
            }
        });

        // A learned fusion needs at least two side modalities to weigh
        // against the transaction judge; txn-only and txn+power corpora
        // keep their exact pre-refactor artifact shape.
        let judged_side_modalities = side_names
            .iter()
            .filter(|name| observations.iter().any(|o| o.judged_by(name)))
            .count();
        let weighted = (judged_side_modalities >= 2).then(|| {
            let weights = fit_weights(observations, &side_names);
            let vote_threshold = 0.5;
            let policy = FusionPolicy::Weighted {
                weights: weights.clone(),
                threshold: vote_threshold,
            };
            let curves = pool_map(groups.len(), workers, Default::default, |(), i| {
                let (attack, group) = &groups[i];
                let judged_any = group.iter().filter(|o| o.judged_any()).count();
                let rates = thresholds
                    .iter()
                    .map(|&t| {
                        rate(
                            group.iter().filter(|o| o.fused_at(&policy, t)).count(),
                            judged_any,
                        )
                    })
                    .collect();
                (attack.to_string(), judged_any, rates)
            });
            WeightedFusionReport {
                weights,
                vote_threshold,
                curves,
            }
        });

        AnalyticsReport {
            thresholds: thresholds.to_vec(),
            curves,
            weighted,
        }
    }

    /// The analytics for a campaign's own results, on the default grid.
    pub(crate) fn from_results(results: &[ScenarioResult]) -> AnalyticsReport {
        let observations: Vec<Observation> = results.iter().map(Observation::from_result).collect();
        AnalyticsReport::over(&observations, &THRESHOLD_GRID)
    }

    /// The `"none"` attack's curve — the false-positive rate at each
    /// threshold, i.e. the ROC's x-axis for every other curve.
    // detlint: allow(D7) -- tests/store_cache.rs
    pub fn false_positive_curve(&self) -> Option<&AttackCurve> {
        self.curves.iter().find(|c| c.attack == "none")
    }

    /// The curve for a specific attack.
    // detlint: allow(D7) -- tests/store_cache.rs
    pub fn curve(&self, attack: &str) -> Option<&AttackCurve> {
        self.curves.iter().find(|c| c.attack == attack)
    }

    /// The side detectors appearing anywhere in the report, canonical
    /// order.
    fn side_detectors(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for curve in &self.curves {
            for side in &curve.side {
                if !names.contains(&side.detector.as_str()) {
                    names.push(&side.detector);
                }
            }
        }
        names.sort_by(|a, b| canonical_rank(a).cmp(&canonical_rank(b)));
        names
    }

    /// Rows for a summary table, false-positive (`"none"`) row first.
    fn summary_rows(&self) -> Vec<&AttackCurve> {
        self.false_positive_curve()
            .into_iter()
            .chain(self.curves.iter().filter(|c| c.attack != "none"))
            .collect()
    }

    /// Renders one threshold table over `rate` (rows without a rate are
    /// skipped).
    fn summary_table(
        &self,
        out: &mut String,
        judged: impl Fn(&AttackCurve) -> usize,
        rate: impl Fn(&AttackCurve) -> Option<Vec<f64>>,
    ) {
        out.push_str(&format!("{:<14} {:>5} {:>6}", "attack", "runs", "judged"));
        for t in &self.thresholds {
            out.push_str(&format!(" {:>6}", format!("{t}")));
        }
        out.push('\n');
        out.push_str(&"-".repeat(27 + 7 * self.thresholds.len()));
        out.push('\n');
        for c in self.summary_rows() {
            let Some(rates) = rate(c) else { continue };
            out.push_str(&format!(
                "{:<14} {:>5} {:>6}",
                c.attack,
                c.scenarios,
                judged(c)
            ));
            for r in &rates {
                out.push_str(&format!(" {:>6.3}", r));
            }
            out.push('\n');
        }
    }

    /// A deterministic human-readable table: one row per attack, one
    /// column per threshold, false-positive row first. Corpora with
    /// side-channel evidence get one more table per modality, then the
    /// any-alarm fusion, then (for ≥ 2 side modalities) the calibrated
    /// weighted fusion.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        self.summary_table(&mut out, |c| c.judged, |c| Some(c.detection_rate.clone()));
        let side_names = self.side_detectors();
        for name in &side_names {
            out.push_str(&match *name {
                "power" => "\npower side-channel (anomalous-window fraction over the same grid)\n"
                    .to_string(),
                "acoustic" => {
                    "\nacoustic side-channel (anomalous-window fraction over the same grid)\n"
                        .to_string()
                }
                "thermal" => {
                    "\nthermal camera (anomalous-window fraction over the same grid)\n".to_string()
                }
                other => format!("\n{other} (anomalous-window fraction over the same grid)\n"),
            });
            self.summary_table(
                &mut out,
                |c| c.side_curve(name).map_or(0, |s| s.judged),
                |c| c.side_curve(name).map(|s| s.detection_rate.clone()),
            );
        }
        if !side_names.is_empty() {
            // The historical two-modality wording is part of the pinned
            // txn+power artifact; wider suites say what they mean.
            out.push_str(if side_names == ["power"] {
                "\nfused (any-alarm over both modalities)\n"
            } else {
                "\nfused (any-alarm over all modalities)\n"
            });
            self.summary_table(
                &mut out,
                |c| c.fused_judged,
                |c| c.fused_detection_rate.clone(),
            );
        }
        if let Some(weighted) = &self.weighted {
            let weights: Vec<String> = weighted
                .weights
                .iter()
                .map(|(d, v)| format!("{d}={v}"))
                .collect();
            out.push_str(&format!(
                "\nweighted fusion (calibrated: {}; vote threshold {})\n",
                weights.join(", "),
                weighted.vote_threshold
            ));
            self.summary_table(
                &mut out,
                |c| c.fused_judged,
                |c| {
                    weighted
                        .curves
                        .iter()
                        .find(|(attack, _, _)| *attack == c.attack)
                        .map(|(_, _, rates)| rates.clone())
                },
            );
        }
        if self.curves.iter().any(|c| c.ttd.is_some()) {
            out.push_str(
                "\ntime-to-detection (fused online alarms; print fraction done at alarm)\n",
            );
            out.push_str(&format!(
                "{:<14} {:>5} {:>6} {:>9} {:>9} {:>10} {:>10} {:>10}\n",
                "attack",
                "runs",
                "alarms",
                "min_step",
                "max_step",
                "mean_step",
                "mean_done",
                "mean_saved"
            ));
            out.push_str(&"-".repeat(80));
            out.push('\n');
            for c in self.summary_rows() {
                let Some(t) = &c.ttd else { continue };
                out.push_str(&format!(
                    "{:<14} {:>5} {:>6} {:>9} {:>9} {:>10.1} {:>10.3} {:>10.3}\n",
                    c.attack,
                    c.scenarios,
                    t.alarms,
                    t.min_step,
                    t.max_step,
                    t.mean_step,
                    t.mean_print_fraction,
                    t.mean_material_saved
                ));
            }
        }
        out
    }
}

/// Every side detector named by any observation, canonical order.
fn side_detector_names(observations: &[Observation]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for obs in observations {
        for e in &obs.evidence {
            if e.detector != TXN && !names.contains(&e.detector) {
                names.push(e.detector.clone());
            }
        }
    }
    names.sort_by(|a, b| canonical_rank(a).cmp(&canonical_rank(b)));
    names
}

/// Fits per-modality fusion weights on stored records: each modality's
/// Youden-style score — detection rate over attack records minus
/// false-positive rate over clean reprints, both at the modality's live
/// base threshold — clamped at zero and rounded to 3 decimals (so
/// policy strings stay short and runs stay reproducible). When every
/// modality scores zero (e.g. an all-clean corpus), weights fall back
/// to equal.
pub(crate) fn fit_weights(
    observations: &[Observation],
    side_names: &[String],
) -> Vec<(String, f64)> {
    let txn_base = TransactionDetector::campaign().base.suspect_fraction;
    let mut modalities: Vec<(&str, f64)> = vec![(TXN, txn_base)];
    for name in side_names {
        // Each side modality is scored at its campaign default's base,
        // the threshold its stored alarms were judged with. Unknown
        // detectors (a store written by a newer build) fall back to the
        // power/thermal-style 0.15: their stored alarms still re-judge
        // correctly, only the fitted weight is scored generically.
        let base = SampledDetector::campaign(name).map_or(0.15, |d| d.config.suspect_fraction);
        modalities.push((name.as_str(), base));
    }
    let mut weights: Vec<(String, f64)> = Vec::new();
    for (name, base) in modalities {
        let rate_over = |attack_records: bool| -> f64 {
            let mut judged = 0usize;
            let mut hits = 0usize;
            for o in observations {
                if (o.attack == "none") == attack_records {
                    continue;
                }
                if let Some(alarmed) = o.alarmed_at(name, base) {
                    judged += 1;
                    if alarmed {
                        hits += 1;
                    }
                }
            }
            if judged == 0 {
                0.0
            } else {
                hits as f64 / judged as f64
            }
        };
        let j = (rate_over(true) - rate_over(false)).max(0.0);
        weights.push((name.to_string(), (j * 1000.0).round() / 1000.0));
    }
    if weights.iter().all(|(_, w)| *w == 0.0) {
        for (_, w) in &mut weights {
            *w = 1.0;
        }
    }
    weights
}

impl ToJson for AnalyticsReport {
    fn write_json(&self, out: &mut String, indent: usize) {
        let render = crate::json::number_array;
        let mut w = ObjectWriter::new(out, indent);
        w.raw("thresholds", &render(&self.thresholds));
        if let Some(fp) = self.false_positive_curve() {
            w.raw("false_positive_rate", &render(&fp.detection_rate));
            // The per-detector false-positive curves ride along when
            // the clean reprints carry that modality's evidence.
            for side in &fp.side {
                w.raw(
                    &format!("{}_false_positive_rate", side.detector),
                    &render(&side.detection_rate),
                );
            }
            if let Some(fused) = &fp.fused_detection_rate {
                w.raw("fused_false_positive_rate", &render(fused));
            }
        }
        w.value("attacks", &self.curves);
        if let Some(weighted) = &self.weighted {
            w.value("weighted_fusion", weighted);
        }
        w.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Judged evidence with `flagged` of `compared` units flagged (the
    /// stored alarm is irrelevant to re-judging).
    fn judged(detector: &str, flagged: usize, compared: usize) -> Evidence {
        Evidence {
            alarmed: Some(false),
            flagged,
            flagged_values: flagged,
            compared,
            ..Evidence::unjudged(detector)
        }
    }

    fn obs(attack: &str, mismatched: usize, compared: usize, totals: Option<bool>) -> Observation {
        Observation {
            attack: attack.into(),
            evidence: vec![Evidence {
                final_totals_match: totals,
                ..judged(TXN, mismatched, compared)
            }],
            ttd: None,
        }
    }

    fn with_side(
        obs: Observation,
        detector: &str,
        anomalous: usize,
        compared: usize,
    ) -> Observation {
        let mut evidence = obs.evidence;
        evidence.push(judged(detector, anomalous, compared));
        Observation::new(obs.attack, evidence, obs.ttd)
    }

    fn txn_at(o: &Observation, base: f64) -> bool {
        o.alarmed_at(TXN, base) == Some(true)
    }

    fn power(obs: Observation, anomalous: usize, compared: usize) -> Observation {
        with_side(obs, "power", anomalous, compared)
    }

    #[test]
    fn grid_has_at_least_eight_thresholds_and_the_papers_default() {
        assert!(THRESHOLD_GRID.len() >= 8);
        assert!(THRESHOLD_GRID.contains(&0.01));
        assert!(THRESHOLD_GRID.windows(2).all(|w| w[0] < w[1]), "sorted");
    }

    #[test]
    fn rejudging_is_monotone_in_threshold() {
        let o = obs("t", 30, 1_000, Some(true));
        let verdicts: Vec<bool> = THRESHOLD_GRID.iter().map(|&t| txn_at(&o, t)).collect();
        // Once a higher threshold clears it, it stays cleared.
        for pair in verdicts.windows(2) {
            assert!(pair[0] || !pair[1], "{verdicts:?}");
        }
        assert!(verdicts[0], "3% mismatches over threshold 0");
        assert!(!verdicts[THRESHOLD_GRID.len() - 1], "3% under 50%");
    }

    #[test]
    fn floor_applies_to_the_grid_and_final_check_floors_the_curve() {
        // 1 wobble in 50 transactions: under the 2.8-transaction floor
        // even at base threshold 0.
        assert!(!txn_at(&obs("t", 1, 50, Some(true)), 0.0));
        // A failed totals check is caught at every threshold.
        let sneaky = obs("t", 0, 50, Some(false));
        assert!(THRESHOLD_GRID.iter().all(|&t| txn_at(&sneaky, t)));
        // Unjudged scenarios never count as detected.
        let mut unjudged = obs("t", 50, 50, Some(false));
        unjudged.evidence[0].alarmed = None;
        assert!(THRESHOLD_GRID
            .iter()
            .all(|&t| unjudged.alarmed_at(TXN, t).is_none()));
    }

    #[test]
    fn report_groups_sorts_and_rates() {
        let observations = vec![
            obs("t2", 40, 100, Some(true)),  // 40% fraction
            obs("t2", 0, 100, Some(true)),   // clean
            obs("none", 0, 100, Some(true)), // clean
            obs("flaw3d", 90, 100, Some(false)),
        ];
        let report = AnalyticsReport::over(&observations, &THRESHOLD_GRID);
        let attacks: Vec<&str> = report.curves.iter().map(|c| c.attack.as_str()).collect();
        assert_eq!(attacks, vec!["flaw3d", "none", "t2"], "sorted by name");
        let t2 = report.curve("t2").unwrap();
        assert_eq!(t2.scenarios, 2);
        assert_eq!(t2.detection_rate[3], 0.5, "one of two t2 runs over 1%");
        assert_eq!(
            report.false_positive_curve().unwrap().detection_rate[3],
            0.0
        );
        let flaw = report.curve("flaw3d").unwrap();
        assert!(
            flaw.detection_rate.iter().all(|&r| r == 1.0),
            "totals check floors the curve"
        );

        let json = crate::json::to_string_pretty(&report);
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(
            v.get("thresholds").unwrap().as_array().unwrap().len(),
            THRESHOLD_GRID.len()
        );
        assert_eq!(v.get("attacks").unwrap().as_array().unwrap().len(), 3);
        assert!(v.get("false_positive_rate").is_some());

        let table = report.summary();
        assert!(table.starts_with("attack"), "{table}");
        assert!(table.contains("flaw3d"), "{table}");
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[2].starts_with("none"), "FPR row leads: {table}");
        assert!(
            !table.contains("power side-channel"),
            "no power sections without power evidence: {table}"
        );
        assert!(!json.contains("power_detection_rate"), "{json}");
        assert!(!json.contains("weighted_fusion"), "{json}");
    }

    #[test]
    fn power_evidence_adds_per_detector_and_fused_curves() {
        let observations = vec![
            // Transaction judge blind (co-located Trojan), power judge
            // sees 30% anomalous windows.
            power(obs("t2", 0, 100, Some(true)), 30, 100),
            // Both modalities clean.
            power(obs("none", 0, 100, Some(true)), 0, 100),
            // A record written before power evidence existed.
            obs("t2", 0, 100, Some(true)),
        ];
        let report = AnalyticsReport::over(&observations, &THRESHOLD_GRID);
        let t2 = report.curve("t2").unwrap();
        assert_eq!(t2.scenarios, 2);
        assert_eq!(t2.judged, 2);
        let t2_power = t2.side_curve("power").unwrap();
        assert_eq!(t2_power.judged, 1, "pre-power record skipped for power");
        let idx_01 = THRESHOLD_GRID.iter().position(|&t| t == 0.01).unwrap();
        assert_eq!(t2.detection_rate[idx_01], 0.0, "txn judge is blind");
        assert_eq!(
            t2_power.detection_rate[idx_01], 1.0,
            "power judge catches it"
        );
        let fused = t2.fused_detection_rate.as_ref().unwrap();
        assert_eq!(
            fused[idx_01], 0.5,
            "fused over txn-judged denominator: 1 of 2"
        );
        // Monotone in threshold, like the transaction curves.
        for pair in t2_power.detection_rate.windows(2) {
            assert!(pair[0] >= pair[1], "{:?}", t2_power.detection_rate);
        }

        let json = crate::json::to_string_pretty(&report);
        assert!(json.contains("\"power_detection_rate\""), "{json}");
        assert!(json.contains("\"fused_detection_rate\""), "{json}");
        assert!(json.contains("\"power_false_positive_rate\""), "{json}");
        assert!(
            !json.contains("weighted_fusion"),
            "one side modality: no learned fusion block: {json}"
        );
        let table = report.summary();
        assert!(table.contains("power side-channel"), "{table}");
        assert!(
            table.contains("fused (any-alarm over both modalities)"),
            "{table}"
        );
    }

    #[test]
    fn power_rejudge_rule_matches_live_judge() {
        // fraction strictly over the threshold, never at it.
        let o = power(obs("t", 0, 100, Some(true)), 15, 100);
        assert_eq!(o.alarmed_at("power", 0.15), Some(false), "0.15 !> 0.15");
        assert_eq!(o.alarmed_at("power", 0.1), Some(true));
        // Unjudged power evidence re-judges as None, fuses as txn-only.
        let mut unjudged = power(obs("t", 90, 100, Some(false)), 50, 100);
        unjudged.evidence[1].alarmed = None;
        assert!(!unjudged.judged_by("power"));
        assert_eq!(unjudged.alarmed_at("power", 0.0), None);
        assert!(
            unjudged.fused_at(&FusionPolicy::Any, 0.01),
            "txn still alarms"
        );
    }

    #[test]
    fn multi_modality_corpora_get_calibrated_weighted_fusion() {
        // Acoustic catches t2 (txn/power blind), thermal catches tx2
        // (everything else blind), nothing false-positives.
        let quad = |attack: &str, txn: usize, p: usize, a: usize, th: usize| {
            let o = obs(attack, txn, 100, Some(true));
            let o = power(o, p, 100);
            let o = with_side(o, "acoustic", a, 100);
            with_side(o, "thermal", th, 100)
        };
        let observations = vec![
            quad("none", 0, 0, 0, 0),
            quad("t2", 0, 0, 40, 0),
            quad("tx2", 0, 0, 0, 60),
            quad("flaw3d", 50, 0, 10, 0),
        ];
        let report = AnalyticsReport::over(&observations, &THRESHOLD_GRID);
        let weighted = report.weighted.as_ref().expect("two+ side modalities");
        let names: Vec<&str> = weighted.weights.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(names, vec!["txn", "power", "acoustic", "thermal"]);
        let weight = |d: &str| {
            weighted
                .weights
                .iter()
                .find(|(n, _)| n == d)
                .map(|(_, w)| *w)
                .unwrap()
        };
        assert!(weight("acoustic") > 0.0, "{:?}", weighted.weights);
        assert!(weight("thermal") > 0.0, "{:?}", weighted.weights);
        assert_eq!(
            weight("power"),
            0.0,
            "power never fired: {:?}",
            weighted.weights
        );

        // The weighted ROC exists for every attack, clean stays clean.
        let idx_01 = THRESHOLD_GRID.iter().position(|&t| t == 0.01).unwrap();
        assert_eq!(weighted.false_positive_rate().unwrap()[idx_01], 0.0);
        assert!(weighted.curves.iter().any(|(a, _, _)| a == "flaw3d"));

        // Per-detector curves for all three side modalities.
        let t2 = report.curve("t2").unwrap();
        assert!(t2.side_curve("acoustic").is_some());
        assert!(t2.side_curve("thermal").is_some());

        let json = crate::json::to_string_pretty(&report);
        assert!(json.contains("\"acoustic_detection_rate\""), "{json}");
        assert!(json.contains("\"thermal_false_positive_rate\""), "{json}");
        assert!(json.contains("\"weighted_fusion\""), "{json}");
        crate::json::parse(&json).expect("report JSON parses");
        let table = report.summary();
        assert!(table.contains("acoustic side-channel"), "{table}");
        assert!(table.contains("thermal camera"), "{table}");
        assert!(
            table.contains("fused (any-alarm over all modalities)"),
            "{table}"
        );
        assert!(table.contains("weighted fusion (calibrated:"), "{table}");
    }

    /// The report is byte-identical whichever worker count computed
    /// it, on a mixed four-detector corpus where some records lack a
    /// modality and some carry a time-to-detection.
    #[test]
    fn report_is_identical_at_any_worker_count() {
        let attacks = [
            "none",
            "t1",
            "t2",
            "t5:200@2",
            "tx2",
            "flaw3d-r50",
            "flaw3d-r80",
        ];
        let observations: Vec<Observation> = (0..420)
            .map(|i| {
                let attack = attacks[i % attacks.len()];
                let flagged = |salt: usize| (i * 7 + salt * 13) % 41;
                let mut o = obs(attack, flagged(0), 100, Some(i % 5 != 0));
                // Every third record predates the side modalities; the
                // rest drop acoustic, thermal or neither.
                if i % 3 != 0 {
                    o = power(o, flagged(1), 100);
                    if i % 4 != 0 {
                        o = with_side(o, "acoustic", flagged(2), 100);
                    }
                    if i % 5 != 0 {
                        o = with_side(o, "thermal", flagged(3), 100);
                    }
                }
                if i % 6 == 1 {
                    o.ttd = Some(TimeToDetection {
                        alarm_step: i as u64,
                        print_fraction: (i % 10) as f64 / 10.0,
                        material_saved: (i % 7) as f64 / 7.0,
                    });
                }
                o
            })
            .collect();
        let render = |workers| {
            crate::json::to_string_pretty(&AnalyticsReport::over_with(
                &observations,
                &THRESHOLD_GRID,
                workers,
            ))
        };
        let serial = render(1);
        assert!(serial.contains("\"weighted_fusion\""), "{serial}");
        assert!(serial.contains("\"ttd_alarms\""), "{serial}");
        assert_eq!(render(4), serial);
    }

    #[test]
    fn online_records_surface_ttd_distributions() {
        let mark = |step: u64, done: f64, saved: f64| {
            Some(TimeToDetection {
                alarm_step: step,
                print_fraction: done,
                material_saved: saved,
            })
        };
        let observations = vec![
            obs("none", 0, 100, Some(true)),
            Observation {
                ttd: mark(10, 0.2, 0.85),
                ..obs("t2", 40, 100, Some(true))
            },
            Observation {
                ttd: mark(30, 0.6, 0.45),
                ..obs("t2", 20, 100, Some(true))
            },
            // An online attacked run the monitor never caught mid-print.
            obs("t2", 5, 100, Some(true)),
        ];
        let report = AnalyticsReport::over(&observations, &THRESHOLD_GRID);
        let t2 = report.curve("t2").unwrap().ttd.as_ref().unwrap();
        assert_eq!(t2.alarms, 2, "uncaught runs don't dilute the stats");
        assert_eq!((t2.min_step, t2.max_step), (10, 30));
        assert_eq!(t2.mean_step, 20.0);
        assert_eq!(t2.mean_print_fraction, 0.4);
        assert_eq!(t2.mean_material_saved, 0.65);
        assert!(report.curve("none").unwrap().ttd.is_none());

        let json = crate::json::to_string_pretty(&report);
        assert!(json.contains("\"ttd_alarms\": 2"), "{json}");
        assert!(json.contains("\"ttd_mean_print_fraction\": 0.4"), "{json}");
        // Every online-only JSON addition carries the ttd_ marker on
        // its own line — the strippability the equivalence harness and
        // CI rely on.
        let stripped: String = json
            .lines()
            .filter(|l| !l.contains("ttd_"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!stripped.contains("ttd"), "{stripped}");

        let table = report.summary();
        assert!(table.contains("time-to-detection"), "{table}");
        assert!(table.contains("mean_saved"), "{table}");

        // A TTD-free corpus keeps the pre-online shape: no section, no
        // fields.
        let post_hoc = AnalyticsReport::over(&[obs("t2", 40, 100, Some(true))], &THRESHOLD_GRID);
        assert!(!crate::json::to_string_pretty(&post_hoc).contains("ttd"));
        assert!(!post_hoc.summary().contains("time-to-detection"));
    }

    #[test]
    fn fit_weights_falls_back_to_equal_on_informationless_corpora() {
        let observations = vec![
            power(obs("none", 0, 100, Some(true)), 0, 100),
            power(obs("t9", 0, 100, Some(true)), 0, 100),
        ];
        let weights = fit_weights(&observations, &["power".to_string()]);
        assert!(weights.iter().all(|(_, w)| *w == 1.0), "{weights:?}");
    }

    #[test]
    fn weighted_rejudge_uses_the_live_vote_rule() {
        let o = with_side(
            power(obs("t", 0, 100, Some(true)), 40, 100),
            "acoustic",
            0,
            100,
        );
        let equal = vec![
            ("txn".to_string(), 1.0),
            ("power".to_string(), 1.0),
            ("acoustic".to_string(), 1.0),
        ];
        let weighted = |weights: &[(String, f64)], threshold: f64| FusionPolicy::Weighted {
            weights: weights.to_vec(),
            threshold,
        };
        // One of three modalities alarms: majority vote says clean,
        // any-style threshold flags it.
        assert!(!o.fused_at(&weighted(&equal, 0.5), 0.01));
        assert!(o.fused_at(&weighted(&equal, 0.0), 0.01));
        // Weighting the alarming modality up flips the majority.
        let tuned = vec![
            ("txn".to_string(), 0.1),
            ("power".to_string(), 2.0),
            ("acoustic".to_string(), 0.1),
        ];
        assert!(o.fused_at(&weighted(&tuned, 0.5), 0.01));
    }
}
