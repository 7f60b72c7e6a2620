//! OFFRAMPS vs the power side-channel on the Table II attacks: the
//! quantified version of §VI "Related platforms". Writes
//! `target/experiments/baseline.json`.
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
    write_experiment("baseline.json", &json::to_string_pretty(&rows))
}
