//! The scenario store's contract, end to end:
//!
//! * a `--cache`d campaign is **byte-identical** to an uncached one —
//!   whether results come from cache or fresh runs, for any thread
//!   count — and a rerun against a warm store executes **zero**
//!   scenarios;
//! * a corpus change recomputes only the delta;
//! * a `--corpus 16 --sweep`-shaped store feeds the corpus-wide ROC
//!   analytics: per-attack detection-rate curves over the
//!   suspect-fraction grid, agreeing with the live verdicts at the
//!   paper's default threshold.

use std::path::PathBuf;

use offramps::verdict::DetectorSuite;
use offramps_bench::analytics::{AnalyticsReport, THRESHOLD_GRID};
use offramps_bench::cache::{store_observations, CacheStats};
use offramps_bench::campaign::{run_campaign, sweep_attacks, CampaignOptions, CampaignSpec};
use offramps_bench::corpus::CorpusSpec;
use offramps_bench::json::{self, ToJson};
use offramps_bench::workloads::Workload;
use offramps_store::Store;

/// Campaign options that run through `store`.
fn cached(threads: usize, store: &mut Store) -> CampaignOptions<'_> {
    CampaignOptions {
        store: Some(store),
        ..CampaignOptions::threads(threads)
    }
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "offramps-store-itest-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        trojans: vec!["none".into(), "t2".into(), "flaw3d-r50".into()],
        workloads: vec![Workload::mini(), Workload::from_name("tall").unwrap()],
        ..CampaignSpec::default_matrix(2024)
    }
}

#[test]
fn cached_campaign_is_byte_identical_and_rerun_executes_nothing() {
    let root = temp_store("identity");
    let (uncached, _) =
        run_campaign(&small_spec(), CampaignOptions::threads(2)).expect("valid spec");

    let mut store = Store::open(&root).unwrap();
    let (first, stats) = run_campaign(&small_spec(), cached(2, &mut store)).expect("valid spec");
    assert_eq!(
        stats,
        CacheStats { hits: 0, misses: 6 },
        "cold store computes everything"
    );
    assert_eq!(
        first.summary(),
        uncached.summary(),
        "cache layer must be invisible"
    );
    assert_eq!(first.to_json(), uncached.to_json());

    // Warm rerun — including through a fresh Store handle (the index is
    // rebuilt from the shard logs) and at a different thread count.
    drop(store);
    let mut store = Store::open(&root).unwrap();
    assert_eq!(store.len(), 7, "six scenario records + campaign provenance");
    let (second, stats) = run_campaign(&small_spec(), cached(8, &mut store)).expect("valid spec");
    assert_eq!(
        stats,
        CacheStats { hits: 6, misses: 0 },
        "warm rerun executes zero scenarios"
    );
    assert_eq!(second.summary(), uncached.summary());
    assert_eq!(second.to_json(), uncached.to_json());
    assert!(
        second.results.iter().all(|r| r.wall_ms == 0),
        "cached results carry no host timing"
    );

    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn corpus_growth_recomputes_only_the_delta() {
    let root = temp_store("delta");
    let spec_n = |n: u32| {
        let mut spec = CampaignSpec {
            trojans: vec!["none".into(), "t2:0.5".into()],
            ..CampaignSpec::default_matrix(7)
        };
        spec.workloads.extend(CorpusSpec::new(n).expand(7));
        spec
    };

    let mut store = Store::open(&root).unwrap();
    let (_, stats) = run_campaign(&spec_n(3), cached(2, &mut store)).expect("valid spec");
    assert_eq!(stats, CacheStats { hits: 0, misses: 8 });

    // One more corpus part: only its 2 scenarios are new.
    let (grown, stats) = run_campaign(&spec_n(4), cached(2, &mut store)).expect("valid spec");
    assert_eq!(
        stats,
        CacheStats { hits: 8, misses: 2 },
        "only the new workload's cells execute"
    );
    // And the grown report still matches a from-scratch uncached run.
    let (uncached, _) = run_campaign(&spec_n(4), CampaignOptions::threads(1)).expect("valid spec");
    assert_eq!(grown.summary(), uncached.summary());
    assert_eq!(grown.to_json(), uncached.to_json());

    std::fs::remove_dir_all(&root).unwrap();
}

/// Switching the detector suite re-addresses every scenario: suite B
/// sees a cold cache, and switching back to suite A serves the original
/// records byte-identically — no stale verdict is ever served across
/// suites.
#[test]
fn suite_switch_invalidates_then_restores() {
    let root = temp_store("suites");
    let txn_spec = CampaignSpec {
        trojans: vec!["none".into(), "t2".into()],
        ..CampaignSpec::default_matrix(99)
    };
    let both_spec = CampaignSpec {
        detectors: vec!["txn".into(), "power".into()],
        ..txn_spec.clone()
    };
    // The transaction-only suite renders the pre-suite policy string,
    // so stores warmed before the suite API stay warm.
    assert_eq!(
        txn_spec.suite().unwrap().policy(),
        DetectorSuite::transaction_default().policy()
    );

    let mut store = Store::open(&root).unwrap();
    let (first, stats) = run_campaign(&txn_spec, cached(2, &mut store)).expect("valid spec");
    assert_eq!(stats, CacheStats { hits: 0, misses: 2 });

    // Suite B (txn+power): every scenario is a miss — different keys.
    let (both, stats) = run_campaign(&both_spec, cached(2, &mut store)).expect("valid spec");
    assert_eq!(
        stats,
        CacheStats { hits: 0, misses: 2 },
        "changing the suite must not serve stale verdicts"
    );
    assert!(both.to_json().contains("\"evidence\""));
    assert_eq!(
        store.len(),
        6,
        "both scenario generations coexist, plus one provenance record per campaign"
    );

    // Back to suite A: all hits, artifacts byte-identical to the first
    // run.
    let (again, stats) = run_campaign(&txn_spec, cached(4, &mut store)).expect("valid spec");
    assert_eq!(stats, CacheStats { hits: 2, misses: 0 });
    assert_eq!(again.summary(), first.summary());
    assert_eq!(again.to_json(), first.to_json());

    // And suite B hits its own records too.
    let (both_again, stats) = run_campaign(&both_spec, cached(1, &mut store)).expect("valid spec");
    assert_eq!(stats, CacheStats { hits: 2, misses: 0 });
    assert_eq!(both_again.summary(), both.summary());
    assert_eq!(both_again.to_json(), both.to_json());

    // Mixed-generation analytics: records written without power
    // evidence parse fine (no errors), are counted, and feed only the
    // transaction curves; power curves draw from the suite records.
    let (observations, skipped) = store_observations(&store);
    assert_eq!(observations.len(), 4);
    assert_eq!(skipped, 0, "pre-power records must not be parse errors");
    let pre_power = observations
        .iter()
        .filter(|o| o.evidence.iter().all(|e| e.detector != "power"))
        .count();
    assert_eq!(pre_power, 2);
    let analytics = AnalyticsReport::over(&observations, &THRESHOLD_GRID);
    for curve in &analytics.curves {
        assert_eq!(
            curve.scenarios, 2,
            "{}: one record per generation",
            curve.attack
        );
        let power = curve
            .side_curve("power")
            .expect("power curve for the suite records");
        assert_eq!(
            power.judged, 1,
            "{}: only the suite record carries power evidence",
            curve.attack
        );
    }

    std::fs::remove_dir_all(&root).unwrap();
}

/// The acceptance pin: a `--corpus 16 --sweep` store (33 attacks ×
/// 17 workloads = 561 scenarios) drives per-attack detection-rate
/// curves over ≥ 8 thresholds, consistent with the live verdicts.
#[test]
fn corpus_sweep_store_feeds_corpus_wide_roc_analytics() {
    let root = temp_store("roc");
    let mut spec = CampaignSpec {
        trojans: sweep_attacks(),
        ..CampaignSpec::default_matrix(42)
    };
    spec.workloads.extend(CorpusSpec::new(16).expand(42));

    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut store = Store::open(&root).unwrap();
    let (report, stats) = run_campaign(&spec, cached(threads, &mut store)).expect("valid spec");
    assert_eq!(
        report.results.len(),
        33 * 17,
        "33 sweep attacks x 17 workloads"
    );
    assert_eq!(stats.misses, 561);

    // A warm rerun of the full sweep executes nothing.
    let (_, stats) = run_campaign(&spec, cached(threads, &mut store)).expect("valid spec");
    assert_eq!(
        stats,
        CacheStats {
            hits: 561,
            misses: 0
        }
    );

    // Store → observations → analytics (exactly the CLI's path).
    let (observations, skipped) = store_observations(&store);
    assert_eq!(observations.len(), 561);
    assert_eq!(skipped, 0);
    let analytics = AnalyticsReport::over(&observations, &THRESHOLD_GRID);

    // Per-attack curves over >= 8 thresholds.
    assert!(analytics.thresholds.len() >= 8);
    assert_eq!(analytics.curves.len(), 33, "one curve per sweep attack");
    let default_idx = analytics
        .thresholds
        .iter()
        .position(|&t| t == 0.01)
        .expect("the paper's default threshold is on the grid");
    for curve in &analytics.curves {
        assert_eq!(curve.scenarios, 17, "{}: 17 workloads each", curve.attack);
        assert_eq!(curve.judged, 17, "{}: every scenario judged", curve.attack);
        assert_eq!(curve.detection_rate.len(), analytics.thresholds.len());
        // Raising the threshold can only clear scenarios, never flag
        // new ones.
        for pair in curve.detection_rate.windows(2) {
            assert!(
                pair[0] >= pair[1],
                "{}: {:?}",
                curve.attack,
                curve.detection_rate
            );
        }
    }

    // The ROC has its anchors: clean reprints never false-positive, the
    // blunt Flaw3D reductions are caught at the paper's threshold.
    let fpr = analytics
        .false_positive_curve()
        .expect("clean reprints in the sweep");
    assert_eq!(
        fpr.detection_rate[default_idx], 0.0,
        "{:?}",
        fpr.detection_rate
    );
    for attack in ["flaw3d-r50", "flaw3d-r90"] {
        let curve = analytics.curve(attack).expect(attack);
        assert!(
            curve.detection_rate[default_idx] > 0.9,
            "{attack}: {:?}",
            curve.detection_rate
        );
    }

    // Re-judging at the default base threshold reproduces every stored
    // verdict — the store's counts are sufficient statistics.
    for (r, obs) in report.results.iter().zip(
        report
            .results
            .iter()
            .map(offramps_bench::analytics::Observation::from_result),
    ) {
        assert_eq!(
            obs.alarmed_at("txn", 0.01),
            Some(r.detected()),
            "re-judged verdict drifted: {}",
            r.summary_line()
        );
    }

    // The campaign JSON carries the same analytics block, and it parses.
    let text = report.to_json();
    let parsed = json::parse(&text).expect("report JSON parses");
    let block = parsed
        .get("analytics")
        .expect("analytics block in the report");
    assert_eq!(
        block.get("thresholds").unwrap().as_array().unwrap().len(),
        THRESHOLD_GRID.len()
    );
    assert_eq!(block.get("attacks").unwrap().as_array().unwrap().len(), 33);
    assert!(block.get("false_positive_rate").is_some());
    let analytics_json = analytics.to_json();
    let reparsed = json::parse(&analytics_json).expect("analytics JSON parses");
    assert_eq!(
        reparsed.get("attacks").unwrap().as_array().unwrap().len(),
        33
    );

    std::fs::remove_dir_all(&root).unwrap();
}
