//! §V-B overhead: the interceptor's propagation delay, the control
//! signals' peak frequency and minimum pulse width, and whether the
//! capture path changes the part. Writes
//! `target/experiments/overhead.json`.
//!
//! ```bash
//! cargo run --release --example overhead_report
//! ```

use offramps_bench::{json, overhead, workloads, write_experiment};

fn main() -> std::io::Result<()> {
    println!("\n================ SV-B OVERHEAD ================");
    let program = workloads::standard_part();
    let report = overhead::regenerate(&program, 21);
    println!("{}\n", overhead::format_report(&report));
    write_experiment("overhead.json", &json::to_string_pretty(&report))
}
