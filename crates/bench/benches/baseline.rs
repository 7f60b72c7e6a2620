//! Baseline bench: OFFRAMPS vs the power side-channel on the Table II
//! attacks — the quantified version of §VI "Related platforms".

use criterion::{Criterion, SamplingMode};

use offramps_bench::{baseline, workloads};
use offramps_sidechannel::{single_profile_compare, ComparatorConfig, PowerModel};
use offramps_signals::{Level, LogicEvent, Pin, SignalTrace};

fn print_table() {
    println!("\n================ BASELINE: OFFRAMPS vs power side-channel ================");
    let program = workloads::detection_part();
    let rows = baseline::regenerate(&program, 77);
    print!("{}", baseline::format_table(&rows));
    let (ours, theirs) = baseline::score(&rows);
    println!("\nOFFRAMPS detected {ours}/8; power side-channel detected {theirs}/8");
    println!("(the paper: direct signal access loses no data; side-channels are lossy)\n");
    let json = offramps_bench::json::to_string_pretty(&rows);
    let _ = std::fs::create_dir_all("target/experiments");
    let _ = std::fs::write("target/experiments/baseline.json", json);
}

fn benches(c: &mut Criterion) {
    // Synthesize + compare cost on a synthetic 60 s trace.
    let mut trace = SignalTrace::new();
    let mut at = offramps_des::Tick::ZERO;
    while at < offramps_des::Tick::from_secs(60) {
        trace.record(at, LogicEvent::new(Pin::XStep, Level::High));
        trace.record(
            at + offramps_des::SimDuration::from_micros(2),
            LogicEvent::new(Pin::XStep, Level::Low),
        );
        at += offramps_des::SimDuration::from_micros(250);
    }
    let model = PowerModel::default();
    let golden = model.synthesize(&trace, 1);
    let config = ComparatorConfig {
        sigma_threshold: 4.0,
        noise_sigma: model.noise_sigma_w,
        smoothing: 20,
        suspect_fraction: 0.01,
    };

    let mut group = c.benchmark_group("sidechannel");
    group.sampling_mode(SamplingMode::Flat).sample_size(10);
    group.bench_function("synthesize_60s_trace", |b| {
        b.iter(|| model.synthesize(&trace, 2))
    });
    group.bench_function("compare_60s_trace", |b| {
        b.iter(|| single_profile_compare(golden.samples(), golden.samples(), config))
    });
    group.finish();
}

fn main() {
    print_table();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
