//! Figure 3 signal-path integration tests: bypass, modify, capture.

use offramps::trojans::FlowReductionTrojan;
use offramps::{SignalPath, TestBench};
use offramps_bench::{overhead, workloads};
use offramps_firmware::FwState;
use offramps_printer::quality::{PartReport, QualityConfig};

/// Figure 3(a): in bypass the plant faithfully follows the firmware.
#[test]
fn bypass_is_transparent() {
    let program = workloads::mini_part();
    let run = TestBench::new(1).run(&program).unwrap();
    assert!(
        matches!(run.fw_state, FwState::Finished),
        "{:?}",
        run.fw_state
    );
    // Firmware's step counters and the plant's physical position agree
    // on every axis (modulo the endstop trigger offset established at
    // homing).
    for (axis, (fw_steps, plant_mm)) in run
        .fw_steps
        .iter()
        .zip(run.plant.positions_mm.iter())
        .enumerate()
        .take(3)
        .map(|(i, (s, p))| (i, (*s, *p)))
    {
        let spm = [100.0, 100.0, 400.0][axis];
        let fw_mm = fw_steps as f64 / spm;
        assert!(
            (fw_mm - plant_mm).abs() < 0.2,
            "axis {axis}: firmware believes {fw_mm} mm, plant is at {plant_mm} mm"
        );
    }
    // No steps were lost or rejected anywhere.
    assert_eq!(run.plant.lost_steps, [0; 4]);
    assert_eq!(run.plant.short_pulses, [0; 4]);
}

/// Figure 3(b): the modify path changes the physical outcome.
#[test]
fn modify_path_changes_the_part() {
    let program = workloads::mini_part();
    let golden = TestBench::new(2).run(&program).unwrap();
    let attacked = TestBench::new(2)
        .with_trojan(Box::new(FlowReductionTrojan::half()))
        .run(&program)
        .unwrap();
    let rep = PartReport::compare(&golden.part, &attacked.part, &QualityConfig::default());
    assert!(
        (rep.flow_ratio - 0.5).abs() < 0.1,
        "pulse masking must halve the flow, got {}",
        rep.flow_ratio
    );
}

/// Figure 3(c): the capture path records without perturbing the print.
#[test]
fn capture_path_is_side_effect_free() {
    let program = workloads::mini_part();
    let bypass = TestBench::new(3).run(&program).unwrap();
    let capture = TestBench::new(3)
        .signal_path(SignalPath::capture())
        .run(&program)
        .unwrap();
    // Same seed, same jitter: the parts must be identical.
    let rep = PartReport::compare(&bypass.part, &capture.part, &QualityConfig::default());
    assert_eq!(rep.shifted_layers, 0, "{rep}");
    assert_eq!(rep.golden_layers, rep.test_layers, "{rep}");
    assert!(rep.bbox_deviation_mm <= QualityConfig::default().shift_threshold_mm);
    assert!((rep.flow_ratio - 1.0).abs() < 1e-9);
    // And the capture actually contains data.
    assert!(capture.capture.unwrap().len() > 3);
}

/// §V-B: the interceptor adds at most the paper's 12.923 ns per edge,
/// the control signals stay below 20 kHz with pulses of at least 1 µs,
/// and the capture path leaves the part unchanged.
#[test]
fn overhead_stays_within_the_paper_bounds() {
    let report = overhead::regenerate(&workloads::mini_part(), 21);
    assert!(report.pipeline_delay_ns <= 13, "{report:?}");
    assert!(report.max_signal_frequency_hz < 20_000.0, "{report:?}");
    assert!(report.min_pulse_width_ns >= 1_000, "{report:?}");
    assert_eq!(report.capture_vs_bypass_flow_ratio, 1.0, "{report:?}");
    assert_eq!(report.capture_vs_bypass_shifted_layers, 0, "{report:?}");
}

/// An armed Trojan on a bypass-jumpered board does nothing (the mux is
/// out of circuit).
#[test]
fn trojan_needs_the_modify_jumper() {
    let program = workloads::mini_part();
    let golden = TestBench::new(4).run(&program).unwrap();
    // with_trojan() normally sets modify; force it back off to model
    // the jumpers physically bypassing the FPGA.
    let cfg = offramps::MitmConfig {
        path: SignalPath::bypass(),
        ..Default::default()
    };
    let mut bench = TestBench::new(4).with_trojan(Box::new(FlowReductionTrojan::half()));
    bench = bench.mitm_config(cfg);
    let run = bench.run(&program).unwrap();
    let rep = PartReport::compare(&golden.part, &run.part, &QualityConfig::default());
    assert!(
        (rep.flow_ratio - 1.0).abs() < 1e-9,
        "bypass defeats the Trojan"
    );
}

/// The homing→print cycle works through every path configuration.
#[test]
fn all_paths_complete_a_print() {
    let program = workloads::mini_part();
    for (i, path) in [
        SignalPath::bypass(),
        SignalPath::modify(),
        SignalPath::capture(),
        SignalPath::modify_and_capture(),
    ]
    .into_iter()
    .enumerate()
    {
        let run = TestBench::new(10 + i as u64)
            .signal_path(path)
            .run(&program)
            .unwrap();
        assert!(
            matches!(run.fw_state, FwState::Finished),
            "path {path:?} failed: {:?}",
            run.fw_state
        );
    }
}
