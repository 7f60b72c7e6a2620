//! The power and acoustic channels as they were synthesized before the
//! plant folded them: walks over a recorded plant-side trace after the
//! run, power once with a per-pin level map, acoustic once per STEP pin.
//! Kept as the reference [`PowerFold`] and [`AcousticFold`] must match
//! bit for bit, on real campaign runs and on the edge cases of the
//! window count and the hold current.
//!
//! [`PowerFold`]: offramps_sidechannel::PowerFold
//! [`AcousticFold`]: offramps_sidechannel::AcousticFold

use std::collections::BTreeMap;
use std::sync::Arc;

use offramps::{SignalPath, TestBench};
use offramps_des::{DetRng, SimDuration, Tick};
use offramps_sidechannel::{AcousticModel, PowerModel, SampledTrace};
use offramps_signals::{Axis, Level, LogicEvent, Pin, SignalTrace, ALL_PINS};

use crate::campaign::{parse_attack, Attack};
use crate::detectors::suite_from_names;
use crate::workloads::Workload;

/// The window count and window of a tick: the last entry fixes the
/// count, and every tick clamps into it.
fn windows(trace: &SignalTrace, sample_rate_hz: f64) -> (SimDuration, usize) {
    let period = SimDuration::from_secs_f64(1.0 / sample_rate_hz);
    let end = trace.entries().last().map(|e| e.tick).unwrap_or(Tick::ZERO);
    (period, (end.ticks() / period.ticks() + 1) as usize)
}

fn win_of(t: Tick, period: SimDuration, n: usize) -> usize {
    ((t.ticks() / period.ticks()) as usize).min(n - 1)
}

/// The batch power walk: `(period, samples)`.
fn power_batch(model: &PowerModel, trace: &SignalTrace, seed: u64) -> (SimDuration, Vec<f64>) {
    let (period, n) = windows(trace, model.sample_rate_hz);
    let mut steps = vec![[0u32; 4]; n];
    let mut enabled_any = vec![false; n];
    let mut last_level: BTreeMap<Pin, Level> = BTreeMap::new();
    for e in trace.entries() {
        let pin = e.event.pin;
        let level = e.event.level;
        let prev = last_level.insert(pin, level);
        let rising = level == Level::High && prev != Some(Level::High);
        if pin.is_step() && rising {
            if let Some(axis) = pin.axis() {
                steps[win_of(e.tick, period, n)][axis.index()] += 1;
            }
        }
        if pin.is_enable() && level == Level::Low {
            let w = win_of(e.tick, period, n);
            for slot in enabled_any.iter_mut().skip(w) {
                *slot = true;
            }
        }
    }
    let mut rng = DetRng::from_seed(seed ^ 0x5ca1_ab1e);
    let dt = period.as_secs_f64();
    let samples = (0..n)
        .map(|w| {
            let mut p = 0.0;
            for axis in Axis::ALL {
                let rate_ksteps = f64::from(steps[w][axis.index()]) / dt / 1000.0;
                p += rate_ksteps * model.motor_w_per_kstep;
            }
            if enabled_any[w] {
                p += 4.0 * model.motor_hold_w;
            }
            (p + rng.gaussian(model.noise_sigma_w)).max(0.0)
        })
        .collect();
    (period, samples)
}

/// The batch acoustic walk, one pass per STEP pin: `(period, samples)`.
fn acoustic_batch(
    model: &AcousticModel,
    trace: &SignalTrace,
    seed: u64,
) -> (SimDuration, Vec<f64>) {
    let (period, n) = windows(trace, model.sample_rate_hz);
    let mut steps = vec![0u32; n];
    let mut clicks = vec![0u32; n];
    for pin in ALL_PINS.into_iter().filter(|p| p.is_step()) {
        let mut prev_rise: Option<Tick> = None;
        let mut prev_interval: Option<u64> = None;
        for tick in trace.rising_edge_ticks(pin) {
            steps[win_of(tick, period, n)] += 1;
            if let Some(prev) = prev_rise {
                let interval = (tick - prev).ticks();
                if let Some(last) = prev_interval {
                    let (lo, hi) = (interval.min(last), interval.max(last));
                    if lo > 0 && (hi as f64) / (lo as f64) > 1.0 + model.click_ratio {
                        clicks[win_of(tick, period, n)] += 1;
                    }
                }
                prev_interval = Some(interval);
            }
            prev_rise = Some(tick);
        }
    }
    let mut rng = DetRng::from_seed(seed ^ 0xac05_71c5_0000_0001);
    let dt = period.as_secs_f64();
    let samples = (0..n)
        .map(|w| {
            let rate_ksteps = f64::from(steps[w]) / dt / 1000.0;
            let p = rate_ksteps * model.tone_per_kstep + f64::from(clicks[w]) * model.click_unit;
            (p + rng.gaussian(model.noise_sigma)).max(0.0)
        })
        .collect();
    (period, samples)
}

/// Asserts `got` is `want` bit for bit.
fn assert_bits(got: &SampledTrace, want: &(SimDuration, Vec<f64>), what: &str) {
    assert_eq!(got.period(), want.0, "{what}: period");
    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got.samples()), bits(&want.1), "{what}: samples");
}

/// Both folds, fed the trace's entries, against both walks.
fn assert_folds_match(trace: &SignalTrace, seed: u64) -> (SampledTrace, SampledTrace) {
    let (power, acoustic) = (PowerModel::default(), AcousticModel::default());
    let p = power.synthesize(trace, seed);
    assert_bits(&p, &power_batch(&power, trace, seed), "power");
    let a = acoustic.synthesize(trace, seed);
    assert_bits(&a, &acoustic_batch(&acoustic, trace, seed), "acoustic");
    (p, a)
}

fn edge(trace: &mut SignalTrace, us: u64, pin: Pin, level: Level) {
    trace.record(Tick::from_micros(us), LogicEvent::new(pin, level));
}

/// A quad-suite campaign run of the mini part under `attack`: the live
/// folds equal the batch walks over the same run's recorded trace, and
/// the fold fed that recording (`synthesize`) equals the live fold.
#[test]
fn live_folds_match_the_batch_walks_on_mini() {
    let suite = suite_from_names(
        &["txn", "power", "acoustic", "thermal"].map(String::from),
        offramps::verdict::FusionPolicy::Any,
    )
    .unwrap();
    let program = Workload::mini().program();
    let (power, acoustic) = (PowerModel::default(), AcousticModel::default());
    for (seed, attack) in [(11, "none"), (12, "t1"), (13, "t2:0.5"), (14, "flaw3d-r90")] {
        let mut bench = TestBench::new(seed)
            .signal_path(SignalPath::capture())
            .record_plant_trace(true)
            .fold_side_channels(&suite);
        let mut job = Arc::clone(&program);
        match parse_attack(attack).unwrap() {
            Attack::None => {}
            Attack::Trojan(trojan) => bench = bench.with_trojan(trojan),
            Attack::Flaw3d(flaw) => job = Arc::new(flaw.apply(&program)),
        }
        let art = bench.run(&job).unwrap();
        let trace = art.plant_trace.as_ref().unwrap();
        assert!(trace.len() > 10_000, "{attack}: {} edges", trace.len());

        let live = art.power.unwrap().finish(seed);
        assert!(live.len() > 100, "{attack}: {} power windows", live.len());
        assert_bits(&live, &power_batch(&power, trace, seed), attack);
        assert_eq!(live, power.synthesize(trace, seed), "{attack}");

        let live = art.acoustic.unwrap().finish(seed);
        assert_bits(&live, &acoustic_batch(&acoustic, trace, seed), attack);
        assert_eq!(live, acoustic.synthesize(trace, seed), "{attack}");
    }
}

#[test]
fn an_empty_trace_is_one_window() {
    let (p, a) = assert_folds_match(&SignalTrace::new(), 3);
    assert_eq!((p.len(), a.len()), (1, 1));
}

#[test]
fn a_heater_gate_after_the_last_step_sets_the_window_count() {
    let mut trace = SignalTrace::new();
    edge(&mut trace, 0, Pin::XEnable, Level::Low);
    for i in 0..50 {
        edge(&mut trace, 1_000 + 500 * i, Pin::XStep, Level::High);
        edge(&mut trace, 1_002 + 500 * i, Pin::XStep, Level::Low);
    }
    // Steps end at ~26 ms; the bed gate 2 s later fixes the count.
    edge(&mut trace, 2_000_000, Pin::BedHeat, Level::High);
    let (p, a) = assert_folds_match(&trace, 5);
    assert_eq!((p.len(), a.len()), (201, 101));
}

#[test]
fn repeated_enable_low_edges_hold_from_the_first() {
    let mut trace = SignalTrace::new();
    edge(&mut trace, 30_000, Pin::YEnable, Level::Low);
    edge(&mut trace, 45_000, Pin::XEnable, Level::Low);
    edge(&mut trace, 45_000, Pin::XEnable, Level::Low);
    edge(&mut trace, 70_000, Pin::XEnable, Level::High);
    edge(&mut trace, 90_000, Pin::XEnable, Level::Low);
    edge(&mut trace, 120_000, Pin::ZStep, Level::High);
    edge(&mut trace, 120_000, Pin::ZStep, Level::High);
    edge(&mut trace, 120_002, Pin::ZStep, Level::Low);
    assert_folds_match(&trace, 8);
}

/// Random edge soups: any pin, any level, repeats and same-tick runs.
#[test]
fn random_traces_fold_like_the_walks() {
    let mut rng = DetRng::from_seed(0xf01d);
    for round in 0..40 {
        let mut trace = SignalTrace::new();
        let mut us = 0;
        for _ in 0..rng.uniform_u64(0, 400) {
            us += rng.uniform_u64(0, 3_000);
            let pin = ALL_PINS[rng.uniform_u64(0, ALL_PINS.len() as u64) as usize];
            edge(&mut trace, us, pin, Level::from(rng.chance(0.5)));
        }
        assert_folds_match(&trace, round);
    }
}
