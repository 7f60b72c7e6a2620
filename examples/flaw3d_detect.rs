//! Table II: emulate the eight Flaw3D Trojans and detect them all.
//!
//! ```bash
//! cargo run --release --example flaw3d_detect
//! ```
//!
//! "Those captures were then compared against the known-good reference
//! and the detection program was able to identify all of the Trojans."

use offramps_bench::{table2, workloads};

fn main() {
    println!("Regenerating Table II (1 golden + 8 Trojaned prints)...\n");
    let program = workloads::detection_part();
    let rows = table2::regenerate(&program, 7);
    print!("{}", table2::format_table(&rows));

    let detected = rows.iter().filter(|r| r.detected()).count();
    println!("\nDetected {detected}/8 (paper: 8/8).");
    if detected != rows.len() {
        std::process::exit(1);
    }
}
