//! Microbenchmarks of the substrates: G-code parsing, slicing, motion
//! planning, and signal tracing.

use criterion::{Criterion, SamplingMode, Throughput};

use offramps_bench::workloads;
use offramps_des::Tick;
use offramps_firmware::motion::{MoveExec, Trapezoid};
use offramps_gcode::{parse, slicer::SlicerConfig, slicer::Solid, ProgramStats};
use offramps_signals::{Level, LogicEvent, Pin, SignalTrace};

fn benches(c: &mut Criterion) {
    // --- G-code ---
    let program = workloads::standard_part();
    let text = program.to_gcode();
    let mut group = c.benchmark_group("gcode");
    group.sampling_mode(SamplingMode::Flat).sample_size(30);
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("parse_program", |b| b.iter(|| parse(&text).unwrap()));
    group.bench_function("write_program", |b| b.iter(|| program.to_gcode()));
    group.bench_function("stats", |b| b.iter(|| ProgramStats::analyze(&program)));
    group.bench_function("slice_prism", |b| {
        b.iter(|| {
            offramps_gcode::slicer::slice(
                &Solid::rect_prism(10.0, 10.0, 1.5),
                &SlicerConfig::fast(),
            )
        })
    });
    group.finish();

    // --- motion ---
    let mut group = c.benchmark_group("motion");
    group.sampling_mode(SamplingMode::Flat).sample_size(30);
    group.bench_function("trapezoid_plan", |b| {
        b.iter(|| Trapezoid::plan(25.0, 60.0, 1000.0))
    });
    group.bench_function("exec_2000_steps", |b| {
        b.iter(|| {
            let mut exec = MoveExec::new([2000, 777, 0, 333], 20.0, 40.0, 1000.0, Tick::ZERO, 1.0);
            let mut n = 0;
            while exec.next_step().is_some() {
                n += 1;
            }
            n
        })
    });
    group.finish();

    // --- signals ---
    let mut trace = SignalTrace::new();
    for i in 0..20_000u64 {
        let t = Tick::from_micros(i * 50);
        trace.record(t, LogicEvent::new(Pin::XStep, Level::High));
        trace.record(
            t + offramps_des::SimDuration::from_micros(2),
            LogicEvent::new(Pin::XStep, Level::Low),
        );
    }
    let mut group = c.benchmark_group("signals");
    group.sampling_mode(SamplingMode::Flat).sample_size(20);
    group.bench_function("trace_pin_stats_40k_events", |b| {
        b.iter(|| trace.pin_stats(Pin::XStep))
    });
    group.bench_function("trace_summary", |b| b.iter(|| trace.summary()));
    group.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
