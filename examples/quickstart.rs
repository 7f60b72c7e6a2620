//! Quickstart: slice a part, attack it two ways, measure the damage,
//! detect the tamper.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! This walks the whole OFFRAMPS pipeline:
//! 1. slice a small box into G-code,
//! 2. print it golden through the interceptor in *capture* mode (the
//!    paper notes the golden reference "can come from simulation"),
//! 3. arm hardware Trojan T2 (extruder pulse masking) and measure the
//!    physical part damage,
//! 4. emulate a Flaw3D G-code attack upstream of the firmware and let
//!    the step-count detector catch it — mirroring the paper, which
//!    never co-locates its own Trojans with its own defense (§V-D).

use offramps::trojans::FlowReductionTrojan;
use offramps::{SignalPath, TestBench, TransactionDetector};
use offramps_attacks::Flaw3dTrojan;
use offramps_gcode::slicer::{slice, SlicerConfig, Solid};
use offramps_gcode::ProgramStats;
use offramps_printer::quality::{PartReport, QualityConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Slice. The program is shared by Arc: every bench run and the
    //    attack transform below reuse it without copying.
    let config = SlicerConfig::fast();
    let program = std::sync::Arc::new(slice(&Solid::rect_prism(10.0, 10.0, 1.5), &config));
    let stats = ProgramStats::analyze(&program);
    println!(
        "sliced: {} commands, {} layers, {:.1} mm of filament commanded\n",
        program.len(),
        stats.layer_count(),
        stats.total_extruded_mm
    );

    // 2. Golden print (capture path, Figure 3c).
    let golden = TestBench::new(1)
        .signal_path(SignalPath::capture())
        .run(&program)?;
    let golden_capture = golden.capture.clone().expect("capture path records");
    println!(
        "golden print: {:?} after {} simulated, {} transactions captured",
        golden.fw_state,
        golden.sim_time,
        golden_capture.len()
    );

    // 3. Hardware Trojan T2 (modify path, Figure 3b): masks half of the
    //    extruder pulses; the physical part shows it.
    let attacked = TestBench::new(2)
        .with_trojan(Box::new(FlowReductionTrojan::half()))
        .run(&program)?;
    let quality = PartReport::compare(&golden.part, &attacked.part, &QualityConfig::default());
    println!("\n--- T2 part quality vs golden ---\n{quality}");

    // 4. Flaw3D-style G-code attack (upstream of the firmware), printed
    //    through the *capture* path: the detector catches it.
    let flaw3d_program =
        std::sync::Arc::new(Flaw3dTrojan::Reduction { factor: 0.5 }.apply(&program));
    let compromised = TestBench::new(3)
        .signal_path(SignalPath::capture())
        .run(&flaw3d_program)?;
    let report = TransactionDetector::campaign().report(
        &golden_capture,
        &compromised.capture.expect("capture path records"),
    );
    println!("\n--- detection report (Flaw3D reduction x0.5) ---\n{report}");

    assert!(quality.flow_ratio < 0.7, "T2 must starve the part");
    assert!(report.suspected(), "the Flaw3D attack must be detected");
    Ok(())
}
