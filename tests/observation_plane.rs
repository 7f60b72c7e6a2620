//! The generic observation plane, end to end:
//!
//! * a four-detector campaign (`txn,power,acoustic,thermal`) runs the
//!   full channel plan — plant-side trace, thermal frames, shared
//!   golden calibration reruns — and its summary and JSON are
//!   byte-identical for any thread count;
//! * the modality pins: a cadence-breaking flow Trojan (`t2:0.9`) is
//!   caught by the **acoustic** judge alone, and a bed-thermistor
//!   miscalibration (`tx2:bed@8`) by the **thermal** judge alone,
//!   while the upstream transaction tap (and the power envelope) stay
//!   blind — each new channel pays its way;
//! * weighted fusion at threshold 0 reproduces `any`-alarm verdicts
//!   scenario for scenario (the live degeneracy the unit tests pin
//!   symbolically);
//! * analytics emit per-detector threshold-grid ROC for all four
//!   modalities plus the calibrated weighted-fusion ROC;
//! * four-detector evidence round-trips through store payloads;
//! * switching a warm store's suite from `txn,power` to the
//!   four-detector plane is a 100 % miss, and switching back a 100 %
//!   byte-identical hit.

use offramps::FusionPolicy;
use offramps_bench::analytics::Observation;
use offramps_bench::cache::{decode_result, encode_result, CacheStats};
use offramps_bench::campaign::{run_campaign, CampaignOptions, CampaignReport, CampaignSpec};
use offramps_bench::json::{self, ToJson, Value};
use offramps_bench::workloads::Workload;
use offramps_store::Store;

/// Campaign options that run through `store`.
fn cached(threads: usize, store: &mut Store) -> CampaignOptions<'_> {
    CampaignOptions {
        store: Some(store),
        ..CampaignOptions::threads(threads)
    }
}

const QUAD: [&str; 4] = ["txn", "power", "acoustic", "thermal"];

fn quad_spec(master_seed: u64) -> CampaignSpec {
    CampaignSpec {
        trojans: vec![
            "none".into(),
            "t2:0.9".into(),
            "tx2:bed@8".into(),
            "tx2".into(),
        ],
        workloads: vec![Workload::mini()],
        detectors: QUAD.iter().map(|s| s.to_string()).collect(),
        ..CampaignSpec::default_matrix(master_seed)
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
fn four_detector_campaign_is_thread_invariant_and_pins_the_new_modalities() {
    let (one, _) = run_campaign(&quad_spec(42), CampaignOptions::threads(1)).expect("valid spec");
    let (four, _) = run_campaign(&quad_spec(42), CampaignOptions::threads(4)).expect("valid spec");
    assert_eq!(one.summary(), four.summary(), "threads stay invisible");
    let json_text = one.to_json();
    assert_eq!(json_text, four.to_json());

    // Every scenario carries all four detectors' evidence, judged.
    for r in &one.results {
        assert_eq!(r.verdict.evidence.len(), 4, "{}", r.summary_line());
        for e in &r.verdict.evidence {
            assert!(
                e.judged(),
                "{} unjudged in {}",
                e.detector,
                r.summary_line()
            );
        }
    }

    // The false-positive control: a clean reprint passes all four.
    let none = by_trojan(&one, "none");
    assert!(!none.detected(), "{}", none.summary_line());
    for e in &none.verdict.evidence {
        assert_eq!(e.alarmed, Some(false), "clean must pass {}", e.detector);
    }

    // Acoustic-only pin: masking every 10th printing E pulse keeps the
    // controller-side counts (txn blind), barely moves the per-window
    // step rate (power blind) and touches no heater (thermal blind) —
    // but the broken cadence clicks.
    let voided = by_trojan(&one, "t2:0.9");
    assert_eq!(
        voided.verdict.evidence_for("txn").unwrap().alarmed,
        Some(false)
    );
    assert_eq!(
        voided.verdict.evidence_for("power").unwrap().alarmed,
        Some(false)
    );
    assert_eq!(
        voided.verdict.evidence_for("thermal").unwrap().alarmed,
        Some(false)
    );
    assert_eq!(
        voided.verdict.evidence_for("acoustic").unwrap().alarmed,
        Some(true),
        "the cadence break must click: {:?}",
        voided.verdict
    );
    assert!(voided.detected(), "any-alarm fusion flags it");

    // Thermal-only pin: the bed-thermistor spoof regulates the plate
    // ~10 °C hot without delaying the (hotend-dominated) heat-up wait,
    // so the motion timeline — txn, power, acoustic — is spotless.
    let bed = by_trojan(&one, "tx2:bed@8");
    assert_eq!(
        bed.verdict.evidence_for("txn").unwrap().alarmed,
        Some(false)
    );
    assert_eq!(
        bed.verdict.evidence_for("power").unwrap().alarmed,
        Some(false)
    );
    assert_eq!(
        bed.verdict.evidence_for("acoustic").unwrap().alarmed,
        Some(false)
    );
    assert_eq!(
        bed.verdict.evidence_for("thermal").unwrap().alarmed,
        Some(true),
        "only the camera sees the hot bed: {:?}",
        bed.verdict
    );
    assert!(bed.detected());

    // The hotend spoof shifts the whole timeline: multiple plant-side
    // modalities light up while the txn tap stays blind.
    let tx2 = by_trojan(&one, "tx2");
    assert_eq!(
        tx2.verdict.evidence_for("txn").unwrap().alarmed,
        Some(false)
    );
    assert_eq!(
        tx2.verdict.evidence_for("power").unwrap().alarmed,
        Some(true)
    );
    assert_eq!(
        tx2.verdict.evidence_for("thermal").unwrap().alarmed,
        Some(true)
    );

    // The JSON artifact: suite metadata, per-scenario evidence, and
    // per-detector threshold-grid ROC for all four modalities plus the
    // calibrated weighted fusion.
    let parsed = json::parse(&json_text).expect("campaign JSON parses");
    let detectors: Vec<&str> = parsed
        .get("detectors")
        .expect("suite metadata")
        .as_array()
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(detectors, QUAD.to_vec());
    let analytics = parsed.get("analytics").unwrap();
    for key in [
        "false_positive_rate",
        "power_false_positive_rate",
        "acoustic_false_positive_rate",
        "thermal_false_positive_rate",
        "fused_false_positive_rate",
    ] {
        assert!(analytics.get(key).is_some(), "missing {key}");
    }
    let curve = |attack: &str| {
        analytics
            .get("attacks")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c.get("attack").and_then(Value::as_str) == Some(attack))
            .unwrap_or_else(|| panic!("{attack} curve"))
    };
    assert!(curve("t2:0.9").get("acoustic_detection_rate").is_some());
    assert!(curve("tx2:bed@8").get("thermal_detection_rate").is_some());
    let weighted = analytics
        .get("weighted_fusion")
        .expect("calibrated weighted fusion for multi-modality corpora");
    assert!(weighted.get("weights").is_some());
    assert!(weighted.get("attacks").is_some());

    // The weighted summary table rides along in the deterministic text.
    assert!(
        one.summary().is_ascii() || !one.summary().is_empty(),
        "summary renders"
    );
}

#[test]
fn weighted_fusion_at_threshold_zero_matches_any_alarm_live() {
    let (any, _) = run_campaign(&quad_spec(7), CampaignOptions::threads(2)).expect("valid spec");
    let weighted_spec = CampaignSpec {
        fusion: FusionPolicy::parse("weighted@0").unwrap(),
        ..quad_spec(7)
    };
    let (weighted, _) =
        run_campaign(&weighted_spec, CampaignOptions::threads(2)).expect("valid spec");
    for (a, w) in any.results.iter().zip(&weighted.results) {
        assert_eq!(a.scenario.trojan, w.scenario.trojan);
        assert_eq!(
            a.detected(),
            w.detected(),
            "weighted@0 must degenerate to any: {}",
            a.summary_line()
        );
        assert_eq!(a.verdict.evidence, w.verdict.evidence, "same evidence");
    }
    // But the policies — and therefore store keys — differ.
    assert_ne!(
        quad_spec(7).suite().unwrap().policy(),
        weighted_spec.suite().unwrap().policy()
    );
    let parsed = json::parse(&weighted.to_json()).unwrap();
    assert_eq!(
        parsed.get("fusion").unwrap().as_str(),
        Some("weighted@0"),
        "non-default fusion is part of the artifact metadata"
    );
}

#[test]
fn four_detector_evidence_round_trips_through_store_payloads() {
    let (report, _) =
        run_campaign(&quad_spec(2024), CampaignOptions::threads(4)).expect("valid spec");
    for r in &report.results {
        let payload = encode_result(r);
        json::parse(&payload).unwrap_or_else(|e| panic!("{e}: {payload}"));
        let decoded = decode_result(r.scenario.clone(), &payload)
            .unwrap_or_else(|e| panic!("{e}: {payload}"));
        assert_eq!(decoded.verdict, r.verdict, "{}", r.summary_line());
        assert_eq!(decoded.to_json(), r.to_json());
        assert_eq!(decoded.summary_line(), r.summary_line());

        // Live results and re-parsed store payloads produce the same
        // analytics observation — all three side modalities included.
        let live = Observation::from_result(r);
        let parsed = Observation::from_payload(&json::parse(&payload).unwrap()).unwrap();
        assert_eq!(live, parsed);
        let detectors: Vec<&str> = live.evidence.iter().map(|e| e.detector.as_str()).collect();
        assert_eq!(detectors, ["txn", "power", "acoustic", "thermal"]);

        // The offline re-judge at each live threshold reproduces every
        // stored side alarm exactly.
        for detector in ["power", "acoustic", "thermal"] {
            let evidence = r.verdict.evidence_for(detector).unwrap();
            assert_eq!(
                live.alarmed_at(detector, evidence.threshold.unwrap()),
                evidence.alarmed,
                "{detector} re-judge drifted: {}",
                r.summary_line()
            );
        }

        // Every detector's own evidence re-judges to its stored alarm
        // at its stored threshold — for txn because flooring an already
        // floored threshold is a no-op.
        for e in &r.verdict.evidence {
            match e.threshold {
                Some(threshold) => assert_eq!(
                    e.alarmed_at(threshold),
                    e.alarmed,
                    "{} re-judge drifted: {}",
                    e.detector,
                    r.summary_line()
                ),
                None => assert!(!e.judged(), "{e:?}"),
            }
        }
    }
}

/// Switching the suite from `txn,power` to the four-detector plane
/// re-addresses every scenario (100 % miss), and switching back serves
/// the original records byte-identically (100 % hit) — no stale verdict
/// crosses suites in either direction.
#[test]
fn quad_suite_switch_invalidates_then_restores() {
    let root =
        std::env::temp_dir().join(format!("offramps-observation-plane-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let pair_spec = CampaignSpec {
        trojans: vec!["none".into(), "t2:0.9".into()],
        workloads: vec![Workload::mini()],
        detectors: vec!["txn".into(), "power".into()],
        ..CampaignSpec::default_matrix(99)
    };
    let quad = CampaignSpec {
        detectors: QUAD.iter().map(|s| s.to_string()).collect(),
        ..pair_spec.clone()
    };

    let mut store = Store::open(&root).unwrap();
    let (pair_first, stats) = run_campaign(&pair_spec, cached(2, &mut store)).expect("valid spec");
    assert_eq!(stats, CacheStats { hits: 0, misses: 2 });

    // Four-detector plane: every scenario is a miss — different keys.
    let (quad_first, stats) = run_campaign(&quad, cached(2, &mut store)).expect("valid spec");
    assert_eq!(
        stats,
        CacheStats { hits: 0, misses: 2 },
        "widening the suite must not serve stale two-modality verdicts"
    );
    assert!(
        by_trojan(&quad_first, "t2:0.9")
            .verdict
            .evidence_for("acoustic")
            .is_some_and(|e| e.alarmed == Some(true)),
        "the fresh quad records carry the acoustic catch"
    );

    // Back to txn,power: all hits, byte-identical artifacts.
    let (pair_again, stats) = run_campaign(&pair_spec, cached(4, &mut store)).expect("valid spec");
    assert_eq!(stats, CacheStats { hits: 2, misses: 0 });
    assert_eq!(pair_again.summary(), pair_first.summary());
    assert_eq!(pair_again.to_json(), pair_first.to_json());

    // And the quad suite hits its own records byte-identically too.
    let (quad_again, stats) = run_campaign(&quad, cached(1, &mut store)).expect("valid spec");
    assert_eq!(stats, CacheStats { hits: 2, misses: 0 });
    assert_eq!(quad_again.summary(), quad_first.summary());
    assert_eq!(quad_again.to_json(), quad_first.to_json());

    // The mixed store feeds analytics: the pre-acoustic (txn,power)
    // records are unjudged by the new modalities, not errors, and the
    // campaign provenance lists both campaigns.
    let (observations, skipped) = offramps_bench::cache::store_observations(&store);
    assert_eq!(observations.len(), 4);
    assert_eq!(skipped, 0, "provenance records are not junk");
    let pre_acoustic = observations
        .iter()
        .filter(|o| !o.judged_by("acoustic"))
        .count();
    assert_eq!(pre_acoustic, 2, "the txn,power generation");
    let campaigns = offramps_bench::cache::store_campaigns(&store);
    assert_eq!(campaigns.len(), 2, "one provenance record per campaign");
    assert!(campaigns.iter().all(|c| c.master_seed == 99 && !c.sweep));
    assert!(
        campaigns.iter().any(|c| c.policy.contains("+acoustic{")),
        "{campaigns:?}"
    );

    std::fs::remove_dir_all(&root).unwrap();
}
