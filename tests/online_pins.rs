//! The streaming monitor's catches, pinned end to end:
//!
//! * each modality-specific attack alarms **online, strictly before the
//!   end of the print**, with the fused alarm step pinned per master
//!   seed: the cadence-breaking flow Trojan (`t2:0.9`, the acoustic
//!   judge's catch), the bed-thermistor spoof (`tx2:bed@8`, the thermal
//!   judge's), and the endstop spoof (`tx1`, caught by the plant-side
//!   power envelope alongside the transaction tap) — while the clean
//!   reprint never raises a mid-print alarm.
//!
//! Window-boundary invariance over a real bundle is pinned next to
//! `StreamingSuite` in the core crate's unit tests.

use std::sync::Arc;

use offramps::{FusionPolicy, SignalPath, StreamingSuite, TestBench};
use offramps_bench::campaign::{run_campaign, CampaignOptions, CampaignReport, CampaignSpec};
use offramps_bench::detectors::{golden_evidence, observed_evidence, suite_from_names};
use offramps_bench::workloads::Workload;

const QUAD: [&str; 4] = ["txn", "power", "acoustic", "thermal"];

fn online_quad(master_seed: u64) -> CampaignSpec {
    CampaignSpec {
        trojans: vec![
            "none".into(),
            "t2:0.9".into(),
            "tx2:bed@8".into(),
            "tx1".into(),
        ],
        workloads: vec![Workload::mini()],
        detectors: QUAD.iter().map(|s| s.to_string()).collect(),
        online: true,
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
fn modality_specific_attacks_alarm_mid_print_at_pinned_steps() {
    // (master seed, [(attack, lone mid-print judge, fused alarm step)]).
    // The alarm step is the 1-based 100 ms evidence window at which the
    // fused vote first crossed its threshold — pinned, so a detector or
    // synthesis change that silently delays the catch fails loudly.
    for (master_seed, pins) in [
        (
            42u64,
            [
                ("t2:0.9", "acoustic", 290),
                ("tx2:bed@8", "thermal", 160),
                ("tx1", "power", 10),
            ],
        ),
        (
            7u64,
            [
                ("t2:0.9", "acoustic", 290),
                ("tx2:bed@8", "thermal", 160),
                ("tx1", "power", 10),
            ],
        ),
    ] {
        let (report, _) = run_campaign(&online_quad(master_seed), CampaignOptions::threads(2))
            .expect("valid spec");

        // The clean reprint: no alarm at any window of the print.
        let none = by_trojan(&report, "none");
        assert!(
            none.ttd.is_none(),
            "seed {master_seed}: {}",
            none.summary_line()
        );
        assert!(!none.detected());

        for (attack, judge, step) in pins {
            let r = by_trojan(&report, attack);
            let ttd = r
                .ttd
                .unwrap_or_else(|| panic!("seed {master_seed}: {attack} must alarm mid-print"));
            assert_eq!(
                ttd.alarm_step, step,
                "seed {master_seed}: {attack} alarm step drifted"
            );
            // Strictly before the end of the print — the whole point of
            // the online monitor — with material still on the spool
            // accounted for.
            assert!(
                ttd.print_fraction < 1.0,
                "seed {master_seed}: {attack} alarmed only at print end ({ttd:?})"
            );
            assert!((0.0..=1.0).contains(&ttd.material_saved), "{ttd:?}");
            assert!(r.detected(), "seed {master_seed}: {}", r.summary_line());
            assert_eq!(
                r.verdict.evidence_for(judge).unwrap().alarmed,
                Some(true),
                "seed {master_seed}: {attack} must be {judge}'s catch"
            );
        }

        // The endstop spoof is caught early — a tenth into the print —
        // saving nearly all the filament; the flow Trojan's subtler
        // cadence break needs most of the print to accumulate.
        let early = by_trojan(&report, "tx1").ttd.unwrap();
        let late = by_trojan(&report, "t2:0.9").ttd.unwrap();
        assert!(early.print_fraction < 0.05, "{early:?}");
        assert!(early.material_saved > 0.9, "{early:?}");
        assert!(late.print_fraction > early.print_fraction);
    }
}

/// The example's scenario, pinned: the streaming guard halts a Flaw3D
/// reduction well before the print ends (the §V-C real-time claim).
#[test]
fn flaw3d_reduction_is_halted_mid_print() {
    let program = Workload::from_name("standard").unwrap().program();
    let names: Vec<String> = QUAD.iter().map(|s| s.to_string()).collect();
    let suite = suite_from_names(&names, FusionPolicy::Any).expect("valid suite");
    let golden = golden_evidence(&program, 1, &[101, 102, 103, 104], &suite);
    let attacked =
        Arc::new(offramps_attacks::Flaw3dTrojan::Reduction { factor: 0.85 }.apply(&program));
    let art = TestBench::new(2)
        .signal_path(SignalPath::capture())
        .record_plant_trace(true)
        .run(&attacked)
        .expect("attacked run");
    let observed = observed_evidence(art, 2, &suite);

    let outcome = StreamingSuite::new(&suite).run(&golden, &observed);
    assert!(outcome.verdict.alarmed);
    let ttd = outcome.ttd.expect("the guard halts the print");
    assert_eq!(ttd.alarm_step, 9, "the transaction tap catches it in 0.9 s");
    assert!(ttd.print_fraction < 0.05);
    assert!(ttd.material_saved > 0.95);
}
