//! OFFRAMPS vs the power side-channel on the Table II attacks: the
//! quantified version of §VI "Related platforms". Writes
//! `target/experiments/baseline.json` and exits 1 unless OFFRAMPS
//! catches 8/8, the power channel 2/8, and the clean control is clean
//! for both.
//!
//! ```bash
//! cargo run --release --example sidechannel_baseline
//! ```

use offramps_bench::{baseline, json, workloads, write_experiment};

fn main() -> std::io::Result<()> {
    println!("\n================ BASELINE: OFFRAMPS vs power side-channel ================");
    let program = workloads::detection_part();
    let rows = baseline::regenerate(&program, 77);
    print!("{}", baseline::format_table(&rows));
    let (ours, theirs) = baseline::score(&rows);
    println!("\nOFFRAMPS detected {ours}/8; power side-channel detected {theirs}/8");
    println!("(the paper: direct signal access loses no data; side-channels are lossy)\n");
    write_experiment("baseline.json", &json::to_string_pretty(&rows))?;

    let clean = rows
        .iter()
        .find(|r| r.case == 0)
        .expect("clean control row");
    if (ours, theirs) != (8, 2) || clean.offramps_detected || clean.power_detected {
        eprintln!(
            "baseline drifted: OFFRAMPS {ours}/8 (want 8), power {theirs}/8 (want 2), \
             clean control alarmed: OFFRAMPS {}, power {}",
            clean.offramps_detected, clean.power_detected
        );
        std::process::exit(1);
    }
    Ok(())
}
