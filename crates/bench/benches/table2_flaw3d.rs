//! Table II bench: regenerates the Flaw3D detection table, then
//! measures detector throughput.

use criterion::{Criterion, SamplingMode};

use offramps::TransactionDetector;
use offramps_attacks::Flaw3dTrojan;
use offramps_bench::{table2, workloads};

fn print_table() {
    println!("\n================ TABLE II (Flaw3D detection) ================");
    let program = workloads::detection_part();
    let rows = table2::regenerate(&program, 7);
    print!("{}", table2::format_table(&rows));
    let detected = rows.iter().filter(|r| r.detected()).count();
    println!("detected: {detected}/8 (paper: 8/8)\n");
    let json = offramps_bench::json::to_string_pretty(&rows);
    let _ = std::fs::create_dir_all("target/experiments");
    let _ = std::fs::write("target/experiments/table2.json", json);
}

fn benches(c: &mut Criterion) {
    // Pre-compute captures once; benchmark the comparison itself (the
    // host-side analysis that would run in real time during a print).
    let program = workloads::standard_part();
    let golden = table2::capture_print(&program, 1);
    let attacked = std::sync::Arc::new(Flaw3dTrojan::Reduction { factor: 0.9 }.apply(&program));
    let observed = table2::capture_print(&attacked, 2);

    let mut group = c.benchmark_group("table2");
    group.sampling_mode(SamplingMode::Flat).sample_size(20);
    group.bench_function("offline_compare", |b| {
        b.iter(|| TransactionDetector::campaign().report(&golden, &observed))
    });
    group.bench_function("gcode_transform_reduction", |b| {
        b.iter(|| Flaw3dTrojan::Reduction { factor: 0.9 }.apply(&program))
    });
    group.bench_function("gcode_transform_relocation", |b| {
        b.iter(|| Flaw3dTrojan::Relocation { every_n: 20 }.apply(&program))
    });
    group.finish();
}

fn main() {
    print_table();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
