//! Figure 4 bench: regenerates the capture excerpts and detector
//! output, then measures capture serialization and online detection.

use criterion::{Criterion, SamplingMode};

use offramps::{detect, Capture, StreamingCompare};
use offramps_bench::{fig4, table2, workloads};

fn print_figure() {
    println!(
        "\n================ FIGURE 4 (detection of an emulated Flaw3D Trojan) ================"
    );
    let program = workloads::detection_part();
    let fig = fig4::regenerate(&program, 11);
    let (golden, trojaned) = fig.excerpt(6);
    println!("(a) golden reference:\n{golden}");
    println!("(b) Flaw3D Trojan print:\n{trojaned}");
    println!("(c) detection tool output:\n{}\n", fig.report);
    let _ = std::fs::create_dir_all("target/experiments");
    let _ = std::fs::write("target/experiments/fig4_golden.csv", fig.golden.to_csv());
    let _ = std::fs::write(
        "target/experiments/fig4_trojaned.csv",
        fig.trojaned.to_csv(),
    );
    let json = offramps_bench::json::to_string_pretty(&fig.report);
    let _ = std::fs::write("target/experiments/fig4_report.json", json);
}

fn benches(c: &mut Criterion) {
    let program = workloads::standard_part();
    let golden = table2::capture_print(&program, 3);
    let csv = golden.to_csv();

    let mut group = c.benchmark_group("fig4");
    group.sampling_mode(SamplingMode::Flat).sample_size(30);
    group.bench_function("capture_to_csv", |b| b.iter(|| golden.to_csv()));
    group.bench_function("capture_from_csv", |b| {
        b.iter(|| Capture::from_csv(csv.as_bytes()).unwrap())
    });
    group.bench_function("online_feed_full_print", |b| {
        b.iter(|| {
            let mut det = StreamingCompare::new(&golden, detect::DetectorConfig::default());
            for t in golden.transactions() {
                det.feed(t);
            }
            det.provisionally_suspected()
        })
    });
    group.bench_function("transaction_wire_round_trip", |b| {
        let t = golden.transactions()[0];
        b.iter(|| {
            let wire = t.to_wire();
            offramps::Transaction::from_wire(t.index, &wire)
        })
    });
    group.finish();
}

fn main() {
    print_figure();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
