//! The streaming online monitor's contract, pinned as a matrix:
//!
//! * finalized online verdicts are **identical** to the post-hoc suite
//!   scenario for scenario, and the campaign **summary is
//!   byte-identical**, across 3 master seeds x threads {1, 4} on the
//!   four-detector plane;
//! * the online JSON equals the post-hoc JSON **byte for byte** once
//!   its online-only lines (`ttd_` fields and the `"online": true`
//!   marker) are stripped — online judging adds lines, it never
//!   rewrites one;
//! * a store warmed by a post-hoc campaign serves the online rerun
//!   with **100% hits and zero simulated scenarios** — online judging
//!   must not perturb store keys, and cached pre-online payloads
//!   decode cleanly (without time-to-detection marks).

use std::path::PathBuf;

use offramps_bench::cache::CacheStats;
use offramps_bench::campaign::{run_campaign, CampaignOptions, CampaignSpec};
use offramps_bench::json::ToJson;
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
        "offramps-online-itest-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The four-detector plane over attacks that split across modalities:
/// a clean reprint, a cadence-breaking flow Trojan (acoustic), a
/// bed-thermistor spoof (thermal), an endstop spoof and a Flaw3D
/// reduction (txn) — some scenarios alarm mid-print, some never do.
fn quad_spec(master_seed: u64) -> CampaignSpec {
    CampaignSpec {
        trojans: vec![
            "none".into(),
            "t2:0.9".into(),
            "tx2:bed@8".into(),
            "tx1".into(),
            "flaw3d-r50".into(),
        ],
        workloads: vec![Workload::mini()],
        detectors: ["txn", "power", "acoustic", "thermal"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..CampaignSpec::default_matrix(master_seed)
    }
}

/// Drops every online-only line from a campaign JSON: the per-result
/// and per-curve `ttd_` fields plus the top-level `"online": true`
/// marker. The writers emit each on its own line *before* an
/// unconditional key, so what remains must equal the post-hoc bytes.
fn strip_online_lines(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("\"ttd_") && !l.contains("\"online\""))
        .map(|l| format!("{l}\n"))
        .collect::<String>()
        .trim_end_matches('\n')
        .to_string()
        + if json.ends_with('\n') { "\n" } else { "" }
}

#[test]
fn online_matrix_finalizes_byte_identical_to_the_post_hoc_path() {
    for master_seed in [42u64, 7, 1187] {
        let post_hoc = quad_spec(master_seed);
        let online = CampaignSpec {
            online: true,
            ..post_hoc.clone()
        };
        let (oracle, _) = run_campaign(&post_hoc, CampaignOptions::threads(1)).expect("valid spec");
        let summary = oracle.summary();
        let stripped_json = oracle.to_json();
        assert!(
            !stripped_json.contains("ttd_") && !stripped_json.contains("\"online\""),
            "post-hoc artifacts must keep the pre-online shape"
        );

        for threads in [1usize, 4] {
            let (report, _) =
                run_campaign(&online, CampaignOptions::threads(threads)).expect("valid spec");
            let label = format!("seed={master_seed} threads={threads}");

            // Scenario for scenario: same fused verdict, same
            // per-detector evidence — the finalize() path may never
            // drift from DetectorSuite::judge.
            for (on, off) in report.results.iter().zip(&oracle.results) {
                assert_eq!(on.scenario.trojan, off.scenario.trojan, "{label}");
                assert_eq!(
                    on.verdict,
                    off.verdict,
                    "online verdict drifted at {label}: {}",
                    on.summary_line()
                );
                // A time-to-detection mark appears only on fused
                // mid-print alarms, which imply the final verdict.
                if on.ttd.is_some() {
                    assert!(on.verdict.alarmed, "{label}: {}", on.summary_line());
                }
            }
            assert!(
                report.results.iter().any(|r| r.ttd.is_some()),
                "{label}: at least one attack must alarm mid-print"
            );

            // The summary table is byte-identical; the JSON is
            // byte-identical once online-only lines are stripped.
            assert_eq!(report.summary(), summary, "summary differs at {label}");
            let json = report.to_json();
            assert!(json.contains("\"online\": true"), "{label}");
            assert!(json.contains("\"ttd_step\""), "{label}");
            assert_eq!(
                strip_online_lines(&json),
                stripped_json,
                "stripped JSON differs at {label}"
            );
        }
    }
}

#[test]
fn post_hoc_warmed_store_serves_the_online_rerun_entirely_from_cache() {
    let root = temp_store("warm");
    let post_hoc = quad_spec(42);
    let online = CampaignSpec {
        online: true,
        ..post_hoc.clone()
    };

    let mut store = Store::open(&root).unwrap();
    let (cold, stats) = run_campaign(&post_hoc, cached(2, &mut store)).expect("valid spec");
    assert_eq!(stats, CacheStats { hits: 0, misses: 5 });

    // Reopen to force an index rebuild from the shard logs, then rerun
    // online: same keys, 100% hits, nothing re-simulated. The cached
    // payloads predate online judging, so the served results carry no
    // time-to-detection marks — and the summary stays byte-identical.
    drop(store);
    let mut store = Store::open(&root).unwrap();
    let (warm, stats) = run_campaign(&online, cached(4, &mut store)).expect("valid spec");
    assert_eq!(
        stats,
        CacheStats { hits: 5, misses: 0 },
        "online judging must not perturb store keys"
    );
    assert_eq!(warm.summary(), cold.summary());
    assert!(warm.results.iter().all(|r| r.ttd.is_none()));
    assert_eq!(strip_online_lines(&warm.to_json()), cold.to_json());

    // The reverse direction: an online-warmed store records the marks,
    // and a later online rerun replays them payload-identically.
    let root2 = temp_store("online-first");
    let mut store2 = Store::open(&root2).unwrap();
    let (first, stats) = run_campaign(&online, cached(1, &mut store2)).expect("valid spec");
    assert_eq!(stats, CacheStats { hits: 0, misses: 5 });
    assert!(first.results.iter().any(|r| r.ttd.is_some()));
    let (second, stats) = run_campaign(&online, cached(4, &mut store2)).expect("valid spec");
    assert_eq!(stats, CacheStats { hits: 5, misses: 0 });
    assert_eq!(second.to_json(), first.to_json());

    // And an online-warmed store serving a *post-hoc* campaign must not
    // leak the recorded marks into the pre-online artifact shape.
    let (post_from_online, stats) =
        run_campaign(&post_hoc, cached(2, &mut store2)).expect("valid spec");
    assert_eq!(stats, CacheStats { hits: 5, misses: 0 });
    assert!(post_from_online.results.iter().all(|r| r.ttd.is_none()));
    assert_eq!(post_from_online.to_json(), cold.to_json());
    assert_eq!(post_from_online.summary(), cold.summary());

    std::fs::remove_dir_all(&root).unwrap();
    std::fs::remove_dir_all(&root2).unwrap();
}
