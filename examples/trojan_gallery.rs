//! Table I gallery: run all nine Trojans (plus the golden T0) and print
//! the measured effect of each — the simulation's version of the paper's
//! part photographs. Writes `target/experiments/table1.json` and exits 1
//! if any row no longer matches the paper.
//!
//! ```bash
//! cargo run --release --example trojan_gallery
//! ```

use offramps_bench::{json, table1, write_experiment};

fn main() -> std::io::Result<()> {
    println!("Regenerating Table I (this runs 11 full print simulations)...\n");
    let rows = table1::regenerate(42);
    print!("{}", table1::format_table(&rows));
    write_experiment("table1.json", &json::to_string_pretty(&rows))?;

    let mismatched: Vec<&str> = rows
        .iter()
        .filter(|r| !r.matches_paper)
        .map(|r| r.id.as_str())
        .collect();
    if mismatched.is_empty() {
        println!(
            "\nAll {} rows reproduce the paper's described effects.",
            rows.len()
        );
    } else {
        println!("\nWARNING: rows not matching the paper: {mismatched:?}");
        std::process::exit(1);
    }
    Ok(())
}
