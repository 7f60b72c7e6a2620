//! Beyond Table I: feedback-path Trojans (TX1, TX2) — the "more novel
//! Trojans" the paper's discussion anticipates — and what the step-count
//! detector can and cannot see.
//!
//! ```bash
//! cargo run --release --example novel_trojans
//! ```

use offramps::trojans::{EndstopSpoofTrojan, ThermistorSpoofTrojan};
use offramps::{detect, SignalPath, StreamingCompare, TestBench, TransactionDetector};
use offramps_bench::workloads;
use offramps_printer::quality::{PartReport, QualityConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = workloads::mini_part();

    let golden = TestBench::new(1)
        .signal_path(SignalPath::capture())
        .run(&program)?;
    let golden_cap = golden.capture.clone().unwrap();

    println!("=== TX1: endstop spoofing during homing ===");
    let tx1 = TestBench::new(1)
        .signal_path(SignalPath::capture())
        .with_trojan(Box::new(EndstopSpoofTrojan::after_steps(500))) // ~5 mm early
        .run(&program)?;
    let rep = PartReport::compare(&golden.part, &tx1.part, &QualityConfig::default());
    println!(
        "part centroid offset:  {:.2} mm (the whole print silently shifted)",
        rep.max_centroid_offset_mm
    );

    // During the print the step counts are identical: the online guard
    // stays silent until the very end.
    let tx1_cap = tx1.capture.unwrap();
    let mut guard = StreamingCompare::new(&golden_cap, detect::DetectorConfig::default());
    let mut first_alarm = None;
    for (i, t) in tx1_cap.transactions().iter().enumerate() {
        guard.feed(t);
        if guard.provisionally_suspected() {
            first_alarm = Some(i);
            break;
        }
    }
    match first_alarm {
        Some(i) => println!(
            "online guard:          silent for {i}/{} transactions — the part was already\n\
             printed (offset) when the END-of-print G28 re-reference exposed the lie",
            tx1_cap.len()
        ),
        None => {
            // What exposes TX1 is the end-of-print 0 %-margin totals
            // check, which only lands when the stream is finalized.
            let report = guard.finalize(tx1_cap.final_counts());
            let totals = match report.evidence.final_totals_match {
                Some(true) => "PASS",
                Some(false) => "FAIL",
                None => "not recorded",
            };
            println!(
                "online guard:          silent for all {} transactions",
                tx1_cap.len()
            );
            println!(
                "final totals check:    {totals} (0% margin, at finalize) — the END-of-print\n\
                 G28 re-reference exposed the lie"
            );
        }
    }
    println!(
        "-> TX1 is invisible while printing (firmware counters match golden\n\
         exactly); only an absolute reference — the final re-home, or the\n\
         physical part itself — reveals it.\n"
    );

    println!("=== TX2: thermistor miscalibrated 30 C cold at print temperature ===");
    let tx2 = TestBench::new(1)
        .signal_path(SignalPath::capture())
        .with_trojan(Box::new(ThermistorSpoofTrojan::reads_cold_by(30.0)))
        .run(&program)?;
    println!(
        "hotend peak:           {:.1} C (golden {:.1} C, commanded 215)",
        tx2.plant.hotend_peak_c, golden.plant.hotend_peak_c
    );
    let det = TransactionDetector::campaign().report(&golden_cap, &tx2.capture.unwrap());
    println!(
        "step-count detector:   {} (largest diff {:.2}%)",
        if det.suspected() {
            "TROJAN SUSPECTED"
        } else {
            "sees nothing"
        },
        det.evidence.peak
    );
    println!(
        "-> every firmware protection watched the spoofed value; the melt\n\
         zone silently ran ~35 C hot. Extends the paper's SVI limitation:\n\
         thermal-side tampering needs a thermal-side detector."
    );

    assert!(rep.max_centroid_offset_mm > 3.0, "TX1 must shift the part");
    assert!(
        tx2.plant.hotend_peak_c > golden.plant.hotend_peak_c + 15.0,
        "TX2 must overheat"
    );
    Ok(())
}
