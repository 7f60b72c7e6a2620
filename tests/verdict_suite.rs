//! The pluggable detector-suite contract, end to end:
//!
//! * a `--detectors txn,power` campaign captures a power trace at the
//!   *driver-board* tap, judges every scenario with both modalities,
//!   and emits per-detector evidence plus per-detector + fused ROC
//!   curves in the campaign JSON — byte-identically for any thread
//!   count;
//! * the power side-channel catches a hardware Trojan the upstream
//!   transaction monitor is blind to (the whole point of fusing
//!   independent evidence streams);
//! * the default transaction-only invocation emits none of the new
//!   fields — its artifacts keep their pre-suite shape;
//! * writer → strict-parser round-trips hold over campaign output,
//!   including absent/partial evidence fields;
//! * the baseline experiment is the same suite, so its golden plumbing
//!   cannot drift from the campaigns'.

use offramps_bench::analytics::Observation;
use offramps_bench::baseline;
use offramps_bench::cache::{decode_result, encode_result};
use offramps_bench::campaign::{run_campaign, CampaignOptions, CampaignReport, CampaignSpec};
use offramps_bench::json::{self, ToJson, Value};
use offramps_bench::workloads::{mini_part, Workload};

fn suite_spec() -> CampaignSpec {
    CampaignSpec {
        trojans: vec!["none".into(), "t2".into(), "tx1".into(), "tx2".into()],
        workloads: vec![Workload::mini()],
        detectors: vec!["txn".into(), "power".into()],
        ..CampaignSpec::default_matrix(42)
    }
}

fn by_trojan<'a>(
    report: &'a CampaignReport,
    name: &str,
) -> &'a offramps_bench::campaign::ScenarioResult {
    report
        .results
        .iter()
        .find(|r| r.scenario.trojan == name)
        .unwrap_or_else(|| panic!("scenario {name} ran"))
}

#[test]
fn multi_modality_campaign_fuses_independent_evidence_streams() {
    let (one, _) = run_campaign(&suite_spec(), CampaignOptions::threads(1)).expect("valid spec");
    let (four, _) = run_campaign(&suite_spec(), CampaignOptions::threads(4)).expect("valid spec");
    assert_eq!(one.summary(), four.summary(), "threads stay invisible");
    let json_text = one.to_json();
    assert_eq!(json_text, four.to_json());

    // Every scenario carries both detectors' evidence.
    for r in &one.results {
        assert_eq!(r.verdict.evidence.len(), 2, "{}", r.summary_line());
        assert!(r.verdict.evidence_for("txn").is_some_and(|e| e.judged()));
        assert!(r.verdict.evidence_for("power").is_some_and(|e| e.judged()));
    }

    // The false-positive control: a clean reprint passes both judges.
    let none = by_trojan(&one, "none");
    assert!(!none.detected(), "{}", none.summary_line());
    assert_eq!(
        none.verdict.evidence_for("power").unwrap().alarmed,
        Some(false)
    );

    // The multi-modality headline: the endstop-spoof Trojan tampers
    // *downstream* of the monitor's tap — invisible to the transaction
    // judge, caught by the power side-channel on the driver rail.
    let tx2 = by_trojan(&one, "tx2");
    assert_eq!(
        tx2.verdict.evidence_for("txn").unwrap().alarmed,
        Some(false),
        "the upstream tap cannot see tx2: {:?}",
        tx2.verdict
    );
    assert_eq!(
        tx2.verdict.evidence_for("power").unwrap().alarmed,
        Some(true),
        "the driver-rail tap must: {:?}",
        tx2.verdict
    );
    assert!(tx2.detected(), "any-alarm fusion flags it");

    // tx1's physical damage surfaces in both modalities.
    let tx1 = by_trojan(&one, "tx1");
    assert_eq!(tx1.verdict.evidence_for("txn").unwrap().alarmed, Some(true));
    assert_eq!(
        tx1.verdict.evidence_for("power").unwrap().alarmed,
        Some(true)
    );

    // The JSON artifact carries the suite metadata, per-scenario
    // evidence, and per-detector + fused ROC curves.
    let parsed = json::parse(&json_text).expect("campaign JSON parses");
    let detectors: Vec<&str> = parsed
        .get("detectors")
        .expect("suite metadata")
        .as_array()
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(detectors, vec!["txn", "power"]);
    assert_eq!(parsed.get("fusion").unwrap().as_str(), Some("any"));
    let first = &parsed.get("results").unwrap().as_array().unwrap()[0];
    let evidence = first.get("evidence").expect("per-scenario evidence");
    assert_eq!(evidence.as_array().unwrap().len(), 2);
    let analytics = parsed.get("analytics").unwrap();
    assert!(analytics.get("power_false_positive_rate").is_some());
    assert!(analytics.get("fused_false_positive_rate").is_some());
    let tx2_curve = analytics
        .get("attacks")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find(|c| c.get("attack").and_then(Value::as_str) == Some("tx2"))
        .expect("tx2 curve");
    assert!(tx2_curve.get("power_detection_rate").is_some());
    assert!(tx2_curve.get("fused_detection_rate").is_some());
}

#[test]
fn default_invocation_keeps_the_pre_suite_artifact_shape() {
    let spec = CampaignSpec {
        trojans: vec!["none".into(), "t2".into(), "flaw3d-r50".into()],
        ..CampaignSpec::default_matrix(2024)
    };
    assert!(spec.default_detectors());
    let (report, _) = run_campaign(&spec, CampaignOptions::threads(2)).expect("valid spec");
    let json_text = report.to_json();
    for key in [
        "\"evidence\"",
        "\"detectors\"",
        "\"fusion\"",
        "\"power_detection_rate\"",
        "\"fused_detection_rate\"",
        "\"power_false_positive_rate\"",
    ] {
        assert!(!json_text.contains(key), "{key} leaked into default JSON");
    }
}

#[test]
fn evidence_round_trips_through_store_payloads_and_strict_parser() {
    let (report, _) = run_campaign(&suite_spec(), CampaignOptions::threads(4)).expect("valid spec");
    for r in &report.results {
        let payload = encode_result(r);
        // The payload itself is valid JSON on the strict parser.
        json::parse(&payload).unwrap_or_else(|e| panic!("{e}: {payload}"));
        let decoded = decode_result(r.scenario.clone(), &payload)
            .unwrap_or_else(|e| panic!("{e}: {payload}"));
        assert_eq!(decoded.verdict, r.verdict, "{}", r.summary_line());
        assert_eq!(decoded.to_json(), r.to_json());
        assert_eq!(decoded.summary_line(), r.summary_line());

        // Live results and re-parsed store payloads produce the same
        // analytics observation — power statistics included.
        let live = Observation::from_result(r);
        let parsed = Observation::from_payload(&json::parse(&payload).unwrap()).unwrap();
        assert_eq!(live, parsed);

        // The offline power re-judge at the live threshold reproduces
        // the stored power alarm exactly.
        let power = r.verdict.evidence_for("power").unwrap();
        assert_eq!(
            live.alarmed_at("power", power.threshold.unwrap()),
            power.alarmed,
            "{}",
            r.summary_line()
        );
    }
}

#[test]
fn baseline_is_expressed_through_the_same_suite() {
    // The bench runs the full-size detection workload (where OFFRAMPS
    // scores 8/8 vs the side-channel's 2/8); the mini print keeps this
    // test fast — every reduction is still caught, the subtlest
    // relocations legitimately fall under the short-print floor, and
    // the lossy power channel sees nothing at mini's tiny step rates.
    let program = mini_part();
    let rows = baseline::regenerate(&program, 7);
    assert_eq!(rows.len(), 9, "clean control + eight Table II cases");
    let clean = &rows[0];
    assert_eq!(clean.case, 0);
    assert!(!clean.offramps_detected, "clean control false-positived");
    assert!(!clean.power_detected, "power baseline false-positived");
    for r in &rows[1..5] {
        assert!(
            r.offramps_detected,
            "reduction case {} missed: {r:?}",
            r.case
        );
    }
    let (offramps_score, power_score) = baseline::score(&rows);
    assert!(
        offramps_score > power_score,
        "direct signal access must beat the lossy side-channel \
         ({offramps_score} vs {power_score})"
    );
}
