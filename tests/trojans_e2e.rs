//! End-to-end Trojan effect tests: each Table I Trojan demonstrably
//! causes its paper-described physical consequence in the full loop.

use offramps::trojans::{
    AxisShiftTrojan, FanUnderspeedTrojan, RetractionMode, RetractionTrojan, StepperDosTrojan,
    ZShiftTrojan, ZWobbleTrojan,
};
use offramps::TestBench;
use offramps_bench::workloads::{self, Workload, FAST_LAYER_Z_STEPS};
use offramps_des::SimDuration;
use offramps_printer::quality::{PartReport, QualityConfig};

fn golden(seed: u64) -> offramps::RunArtifacts {
    TestBench::new(seed)
        .run(&workloads::standard_part())
        .unwrap()
}

#[test]
fn t1_axis_shift_displaces_layers() {
    let g = golden(20);
    let run = TestBench::new(21)
        .with_trojan(Box::new(AxisShiftTrojan::with_params(
            SimDuration::from_secs(5),
            60,
            60,
        )))
        .run(&workloads::standard_part())
        .unwrap();
    let rep = PartReport::compare(&g.part, &run.part, &QualityConfig::default());
    assert!(
        rep.max_centroid_offset_mm > 0.3,
        "expected visible displacement, got {:.3} mm",
        rep.max_centroid_offset_mm
    );
}

#[test]
fn t3_under_mode_starves_flow() {
    let g = golden(22);
    let run = TestBench::new(23)
        .with_trojan(Box::new(RetractionTrojan::new(RetractionMode::Under)))
        .run(&workloads::standard_part())
        .unwrap();
    let rep = PartReport::compare(&g.part, &run.part, &QualityConfig::default());
    assert!(rep.flow_ratio < 0.95, "got {}", rep.flow_ratio);
}

#[test]
fn t4_wobble_shifts_multiple_layers() {
    let program = Workload::from_name("tall").unwrap().program();
    let g = TestBench::new(24).run(&program).unwrap();
    let run = TestBench::new(25)
        .with_trojan(Box::new(ZWobbleTrojan::with_params(
            FAST_LAYER_Z_STEPS,
            40,
            40,
            2,
            2,
        )))
        .run(&program)
        .unwrap();
    let rep = PartReport::compare(&g.part, &run.part, &QualityConfig::default());
    assert!(rep.shifted_layers >= 2, "got {}", rep.shifted_layers);
}

#[test]
fn t5_zshift_opens_layer_gap() {
    let program = Workload::from_name("tall").unwrap().program();
    let g = TestBench::new(26).run(&program).unwrap();
    let run = TestBench::new(27)
        .with_trojan(Box::new(ZShiftTrojan::with_params(
            FAST_LAYER_Z_STEPS,
            200, // 0.5mm at 400 steps/mm
            2,
            None,
        )))
        .run(&program)
        .unwrap();
    let rep = PartReport::compare(&g.part, &run.part, &QualityConfig::default());
    // 0.3mm layers + 0.5mm injected = a 0.8mm gap somewhere.
    assert!(rep.max_layer_gap_mm > 0.7, "got {}", rep.max_layer_gap_mm);
    assert!(
        rep.max_z_deviation_mm > 0.4,
        "got {}",
        rep.max_z_deviation_mm
    );
}

#[test]
fn t8_en_windows_lose_steps() {
    let g = golden(28);
    let run = TestBench::new(29)
        .with_trojan(Box::new(StepperDosTrojan::with_params(
            [true; 4],
            SimDuration::from_secs(4),
            SimDuration::from_millis(400),
        )))
        .run(&workloads::standard_part())
        .unwrap();
    let missed: u64 = run.plant.steps_while_disabled.iter().sum();
    assert!(missed > 100, "got {missed}");
    // The part is physically wrong. (The end-of-print G28 re-homes the
    // axes, so final *positions* re-sync — the deposited geometry is
    // the evidence, exactly like the paper's failed print.)
    let rep = PartReport::compare(&g.part, &run.part, &QualityConfig::default());
    assert!(
        rep.flow_ratio < 0.97 || rep.shifted_layers > 0 || rep.max_centroid_offset_mm > 0.3,
        "expected visible part damage: {rep}"
    );
}

#[test]
fn t9_quarter_duty_slows_fan() {
    let g = golden(30);
    let run = TestBench::new(31)
        .with_trojan(Box::new(FanUnderspeedTrojan::quarter()))
        .run(&workloads::standard_part())
        .unwrap();
    assert!(
        g.plant.fan_duty > 0.1,
        "golden fan ran: {}",
        g.plant.fan_duty
    );
    let ratio = run.plant.fan_duty / g.plant.fan_duty;
    assert!(
        (ratio - 0.25).abs() < 0.08,
        "duty ratio {ratio} should be near the commanded 0.25"
    );
}

#[test]
fn tx1_endstop_spoof_shifts_part_invisibly() {
    use offramps::trojans::EndstopSpoofTrojan;
    let program = workloads::mini_part();
    let g = TestBench::new(40).run(&program).unwrap();
    let run = TestBench::new(40)
        .with_trojan(Box::new(EndstopSpoofTrojan::after_steps(300))) // 3 mm early
        .run(&program)
        .unwrap();
    let rep = PartReport::compare(&g.part, &run.part, &QualityConfig::default());
    // The whole part lands ~(start_offset - 3mm-ish) away from golden.
    assert!(
        rep.max_centroid_offset_mm > 2.0,
        "expected a silent offset, got {:.2} mm",
        rep.max_centroid_offset_mm
    );
    // The firmware never noticed: it finished normally.
    assert!(matches!(run.fw_state, offramps_firmware::FwState::Finished));
}

#[test]
fn tx2_thermistor_spoof_overheats_silently() {
    use offramps::trojans::ThermistorSpoofTrojan;
    let program = workloads::mini_part();
    let g = TestBench::new(41).run(&program).unwrap();
    let run = TestBench::new(41)
        .with_trojan(Box::new(ThermistorSpoofTrojan::reads_cold_by(25.0)))
        .run(&program)
        .unwrap();
    assert!(matches!(run.fw_state, offramps_firmware::FwState::Finished));
    assert!(
        run.plant.hotend_peak_c > g.plant.hotend_peak_c + 12.0,
        "spoofed print must run hot: {:.1} vs {:.1}",
        run.plant.hotend_peak_c,
        g.plant.hotend_peak_c
    );
}
