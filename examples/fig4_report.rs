//! Figure 4: golden vs Trojaned capture excerpts and the detection
//! tool's output, in the paper's format.
//!
//! ```bash
//! cargo run --release --example fig4_report
//! ```

use offramps_bench::{fig4, workloads};

fn main() {
    println!("Regenerating Figure 4 (relocation every 20 movements)...\n");
    let program = workloads::detection_part();
    let fig = fig4::regenerate(&program, 11);

    let (golden, trojaned) = fig.excerpt(6);
    println!("(a) Selection of transactions from the golden reference:");
    println!("{golden}");
    println!("(b) Selection of transactions from the Flaw3D Trojan print:");
    println!("{trojaned}");
    println!("(c) Output of the Trojan detection tool:");
    println!("{}", fig.report);

    assert!(fig.report.suspected());
}
