//! The firmware and `ProgramStats` step through one positioning model,
//! so they agree on how much filament a program extrudes whatever its
//! mix of `G90`/`G91`/`M82`/`M83`/`G92 E`.
//!
//! The firmware's word is its E step counter after the print; the
//! statistics pass's is `net_extruded_mm`. They may differ by rounding
//! only: the counter rounds to whole microsteps at the end and at each
//! `G92`, which re-zeroes E against the rounded step count.

use std::sync::Arc;

use offramps::TestBench;
use offramps_des::DetRng;
use offramps_firmware::{FirmwareConfig, FwState};
use offramps_gcode::{parse, ProgramStats};

/// Prints `src` and checks the firmware's E steps against the
/// statistics pass, returning the net filament both agree on (mm).
fn check(src: &str) -> f64 {
    let program = Arc::new(parse(src).unwrap());
    let run = TestBench::new(5).run(&program).unwrap();
    assert!(matches!(run.fw_state, FwState::Finished), "{src}");
    let net_mm = ProgramStats::analyze(&program).net_extruded_mm;
    let spm = FirmwareConfig::default().steps_per_mm[3];
    let g92s = src.matches("G92").count();
    let off = run.fw_steps[3] as f64 - net_mm * spm;
    assert!(
        off.abs() <= 0.5 + g92s as f64,
        "firmware {} E steps, stats {net_mm} mm x {spm}\n{src}",
        run.fw_steps[3]
    );
    net_mm
}

/// `G90` makes E absolute again after `M83` and a `G91` Z-hop block.
#[test]
fn g90_after_m83_makes_e_absolute() {
    let net = check(
        "G90\nM83\nG28\nG1 Z0.3 F600\nG1 X10 Y10 E2 F1200\nG91\nG1 Z1 E-1\nG90\n\
         G1 X20 Y10 E2\nG1 X30 Y10 E2\n",
    );
    assert_eq!(net, 2.0);
}

/// `G91` makes E relative after `M82`.
#[test]
fn g91_after_m82_makes_e_relative() {
    let net = check("G90\nM82\nG28\nG1 Z0.3 F600\nG1 X10 Y10 E2 F1200\nG91\nG1 X5 E1\nG1 X5 E1\n");
    assert_eq!(net, 4.0);
}

/// Generated programs mixing every mode switch, `G92 E` re-zeroing and
/// E moves with and without X travel.
#[test]
fn generated_mode_mixes_agree() {
    let mut rng = DetRng::from_seed(0x9c0de);
    for _ in 0..32 {
        let mut src = String::from("G28\nG1 Z0.3 F600\nG1 X20 Y20 F1200\n");
        // X/Y/Z mode and X, tracked to keep the head on the bed.
        let (mut absolute, mut x) = (true, 20.0);
        for _ in 0..rng.uniform_u64(6, 14) {
            let e = (rng.uniform_u64(0, 60) as f64 - 20.0) / 20.0;
            match rng.uniform_u64(0, 8) {
                0 => {
                    src.push_str("G90\n");
                    absolute = true;
                }
                1 => {
                    src.push_str("G91\n");
                    absolute = false;
                }
                2 => src.push_str("M82\n"),
                3 => src.push_str("M83\n"),
                4 => src.push_str(&format!("G92 E{e}\n")),
                5 => src.push_str(&format!("G1 E{e}\n")),
                _ => {
                    let to = rng.uniform_u64(5, 45) as f64;
                    let word = if absolute { to } else { to - x };
                    x = to;
                    src.push_str(&format!("G1 X{word} E{e}\n"));
                }
            }
        }
        check(&src);
    }
}
