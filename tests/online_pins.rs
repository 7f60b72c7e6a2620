//! The streaming monitor's catches, pinned end to end:
//!
//! * each modality-specific attack alarms **online, strictly before the
//!   end of the print**, with the fused alarm step pinned per master
//!   seed: the cadence-breaking flow Trojan (`t2:0.9`, the acoustic
//!   judge's catch), the bed-thermistor spoof (`tx2:bed@8`, the thermal
//!   judge's), and the endstop spoof (`tx1`, caught by the plant-side
//!   power envelope alongside the transaction tap) — while the clean
//!   reprint never raises a mid-print alarm;
//! * over a **real** campaign bundle (mini workload, hardware Trojan
//!   armed), DetRng-drawn window-boundary placements never change the
//!   finalized verdict — it stays byte-equal to the post-hoc suite —
//!   and the time to detection is monotone non-increasing as the
//!   evidence-window slice shrinks.

use std::sync::Arc;

use offramps::{trojans, FusionPolicy, SignalPath, StreamingSuite, TestBench};
use offramps_bench::campaign::{run_campaign, CampaignOptions, CampaignReport, CampaignSpec};
use offramps_bench::detectors::{golden_evidence, observed_evidence, suite_from_names};
use offramps_bench::workloads::Workload;
use offramps_des::{DetRng, SimDuration};

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

#[test]
fn window_boundaries_never_change_the_verdict_on_a_real_bundle() {
    let program = Workload::mini().program();
    let names: Vec<String> = QUAD.iter().map(|s| s.to_string()).collect();
    let suite = suite_from_names(&names, FusionPolicy::Any).expect("valid suite");

    let golden = golden_evidence(&program, 1, &[11, 12, 13, 14], &suite);
    let art = TestBench::new(2)
        .signal_path(SignalPath::capture())
        .record_plant_trace(true)
        .with_trojan(trojans::by_spec("t2:0.9").unwrap())
        .run(&program)
        .expect("attacked run");
    let observed = observed_evidence(art, 2, &suite);

    let oracle = suite.judge(&golden, &observed);
    assert!(oracle.alarmed, "the cadence break must be caught post hoc");

    // DetRng-drawn slice widths: wherever the window boundaries land,
    // the finalized verdict equals the post-hoc one byte for byte.
    let mut rng = DetRng::from_seed(0x0F1_1E5);
    for _ in 0..6 {
        let slice_ms = rng.uniform_u64(1, 701);
        let outcome = StreamingSuite::new(&suite)
            .with_slice(SimDuration::from_millis(slice_ms))
            .run(&golden, &observed);
        assert_eq!(
            outcome.verdict, oracle,
            "verdict drifted at slice {slice_ms} ms"
        );
        assert!(
            outcome.ttd.is_some(),
            "slice {slice_ms} ms must still alarm"
        );
    }

    // Halving the slice never detects *later* in print time: finer
    // windows deliver the same evidence no later than coarser ones.
    let mut slice_ms = 3200u64;
    let mut last_alarm_time = u64::MAX;
    while slice_ms >= 100 {
        let outcome = StreamingSuite::new(&suite)
            .with_slice(SimDuration::from_millis(slice_ms))
            .run(&golden, &observed);
        let ttd = outcome.ttd.expect("alarms at every slice width");
        let alarm_time_ms = ttd.alarm_step * slice_ms;
        assert!(
            alarm_time_ms <= last_alarm_time,
            "slice {slice_ms} ms alarmed later ({alarm_time_ms} ms) than the coarser slice ({last_alarm_time} ms)"
        );
        last_alarm_time = alarm_time_ms;
        slice_ms /= 2;
    }
}

/// The example's scenario, pinned: the streaming guard halts a Flaw3D
/// reduction well before the print ends (the §V-C real-time claim).
#[test]
fn flaw3d_reduction_is_halted_mid_print() {
    let program = Workload::standard().program();
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
