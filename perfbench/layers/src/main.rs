//! `offramps-perfbench` — the in-process half of the repo benchmark
//! (`perfbench/run.py` drives it; see `perfbench/README.md`).
//!
//! ```text
//! offramps-perfbench append --src DIR --dst DIR --seed S --corpus N
//!                           --detectors LIST [--online] --copies K
//! offramps-perfbench ledger --seed S --corpus N --copies K
//!                           --scratch DIR --out DIR
//! offramps-perfbench corpus-seed --seed S --corpus N
//! offramps-perfbench calibrate --threads N
//! ```
//!
//! `append` grows an empty scenario store from a campaign's real store
//! records: every record of the sweep matrix is decoded once, then
//! written `K` times under derived run seeds through
//! `cache::encode_result` + `Store::put`, the write path a campaign
//! takes per miss. Only those two calls are timed.
//!
//! `ledger` is the traced run: single-threaded, it times calls into
//! each layer's public functions on the pinned sweep and prints one
//! JSON object of layer numbers next to the pinned work counts. It
//! writes the two campaign reports it rebuilds (`txn.json`,
//! `quad.json`) to `--out`, so `run.py` can check them byte for byte
//! against the CLI's artifacts.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use offramps::verdict::{DetectorSuite, EvidenceBundle, FusionPolicy, StreamingSuite};
use offramps::{RunArtifacts, SignalPath, TestBench};
use offramps_bench::analytics::{AnalyticsReport, THRESHOLD_GRID};
use offramps_bench::cache::{
    canonical_workload_json, decode_result, encode_result, scenario_key, store_observations,
};
use offramps_bench::campaign::{
    parse_attack, sweep_attacks, Attack, CampaignReport, CampaignSpec, Scenario, ScenarioResult,
};
use offramps_bench::corpus::CorpusSpec;
use offramps_bench::detectors::{golden_evidence, observed_evidence, suite_from_names};
use offramps_bench::json;
use offramps_bench::workloads::Workload;
use offramps_gcode::{Program, ProgramStats};
use offramps_store::Store;

/// The seed whose corpus sets the benchmark's size profile.
const PINNED_SEED: u64 = 42;

/// How far a generated workload's tool path may stray from the pinned
/// corpus's workload of the same rank.
const SIZE_TOLERANCE: f64 = 0.10;

/// Candidate seeds `corpus-seed` tries before giving up.
const MAX_CANDIDATES: u64 = 1_000_000;

/// The four-detector suite of the `sweep_quad_online` workload.
const QUAD: [&str; 4] = ["txn", "power", "acoustic", "thermal"];

/// Repetitions of the cheap, whole-input layers (slicing, JSON, store
/// open, analytics); the median is reported.
const REPS: usize = 5;

/// Every `PROBE_STRIDE`-th scenario also gets the per-detector
/// breakdown (one-detector synthesis, judge and stream).
const PROBE_STRIDE: usize = 11;

type Flags = BTreeMap<String, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("append") => parse_flags(&args[1..]).and_then(|f| append(&f)),
        Some("ledger") => parse_flags(&args[1..]).and_then(|f| ledger(&f)),
        Some("corpus-seed") => parse_flags(&args[1..]).and_then(|f| corpus_seed(&f)),
        Some("calibrate") => parse_flags(&args[1..]).and_then(|f| calibrate(&f)),
        _ => Err(
            "usage: offramps-perfbench append|ledger|corpus-seed|calibrate --flag value ...".into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("offramps-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs; a flag followed by another flag (or nothing)
/// is a switch and maps to `"true"`.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut i = 0;
    while i < args.len() {
        let name = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", args[i]))?;
        match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(value) => {
                flags.insert(name.to_string(), value.clone());
                i += 2;
            }
            None => {
                flags.insert(name.to_string(), "true".into());
                i += 1;
            }
        }
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

fn flag_u64(flags: &Flags, name: &str) -> Result<u64, String> {
    flag(flags, name)?
        .parse()
        .map_err(|_| format!("--{name} expects an integer"))
}

/// The campaign `offramps-cli campaign --workloads mini --corpus N
/// --sweep --seed S --detectors LIST [--online]` runs, built the way
/// the CLI builds it.
fn sweep_spec(seed: u64, corpus: u32, detectors: &[&str], online: bool) -> CampaignSpec {
    let mut spec = CampaignSpec::default_matrix(seed);
    spec.trojans = sweep_attacks();
    spec.workloads = vec![Workload::mini()];
    if corpus > 0 {
        spec.workloads.extend(CorpusSpec::new(corpus).expand(seed));
    }
    spec.detectors = detectors.iter().map(|d| d.to_string()).collect();
    spec.online = online;
    spec
}

/// The run seed of copy `copy` of a scenario: the scenario's own seed
/// for copy 0 (so a campaign over the same matrix hits), a splitmix64
/// derivation of it otherwise.
fn derived_seed(seed: u64, copy: u64) -> u64 {
    if copy == 0 {
        return seed;
    }
    let mut z = seed ^ copy.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tool-path length (extrusion + travel, mm) of each generated workload
/// of the corpus `seed` expands to, sorted.
fn corpus_profile(seed: u64, corpus: u32) -> Vec<f64> {
    let mut sizes: Vec<f64> = CorpusSpec::new(corpus)
        .expand(seed)
        .iter()
        .map(|w| {
            let stats = ProgramStats::analyze(&w.program());
            stats.extrusion_path_mm + stats.travel_path_mm
        })
        .collect();
    sizes.sort_by(f64::total_cmp);
    sizes
}

/// Picks the campaign master seed for benchmark seed `--seed`: the first
/// of `--seed` itself and its derived seeds whose generated corpus has
/// the pinned corpus's size profile (each workload's tool path within
/// SIZE_TOLERANCE of the pinned workload of the same rank). The content
/// changes with the seed; the amount of work stays that of the pinned
/// sweep, so runs on different seeds compare. Seed 42 picks itself.
fn corpus_seed(flags: &Flags) -> Result<(), String> {
    let seed = flag_u64(flags, "seed")?;
    let corpus = flag_u64(flags, "corpus")? as u32;
    let target = corpus_profile(PINNED_SEED, corpus);
    for k in 0..MAX_CANDIDATES {
        let candidate = derived_seed(seed, k);
        let fits = corpus_profile(candidate, corpus)
            .iter()
            .zip(&target)
            .all(|(size, want)| (size - want).abs() <= SIZE_TOLERANCE * want);
        if fits {
            println!(
                "{{\"campaign_seed\": {candidate}, \"candidates\": {}}}",
                k + 1
            );
            return Ok(());
        }
    }
    Err(format!(
        "no corpus of the pinned size among {MAX_CANDIDATES} candidates"
    ))
}

/// Events one calibration pass pops; about 50 ms on the reference box.
const CALIBRATION_EVENTS: u64 = 500_000;

/// Calibration passes per `calibrate` call.
const CALIBRATION_PASSES: usize = 8;

/// A fixed discrete-event loop that calls no code of the reproduction,
/// so its time moves with the host's speed and never with a change to
/// the program: a binary-heap calendar of pending events, each popped
/// event updating a 512 KiB state table and scheduling its successor.
fn calibration_pass() -> u64 {
    const COMPONENTS: usize = 1 << 16;
    let mut calendar = BinaryHeap::with_capacity(4096);
    let mut state = vec![0u64; COMPONENTS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..4096u64 {
        calendar.push(Reverse((i * 7, i as usize % COMPONENTS)));
    }
    let mut acc = 0u64;
    for _ in 0..CALIBRATION_EVENTS {
        let Reverse((t, c)) = calendar.pop().expect("the calendar never drains");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state[c] = state[c].wrapping_add(x);
        acc = acc.wrapping_add(state[c] >> 3);
        calendar.push(Reverse((t + 1 + (x & 1023), x as usize % COMPONENTS)));
    }
    acc
}

/// Runs CALIBRATION_PASSES calibration passes on each of `--threads`
/// threads at once and prints the seconds of every pass.
fn calibrate(flags: &Flags) -> Result<(), String> {
    let threads = flag_u64(flags, "threads")?.max(1);
    let passes: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    (0..CALIBRATION_PASSES)
                        .map(|_| seconds(calibration_pass).1)
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a calibration thread panicked"))
            .collect()
    });
    let text: Vec<String> = passes.iter().map(f64::to_string).collect();
    println!("{}", text.join(" "));
    Ok(())
}

/// Store keys of every scenario of `spec` under run-seed copy `copy`,
/// built the way the cached campaign builds them.
fn keys(spec: &CampaignSpec, scenarios: &[Scenario], copy: u64) -> Result<Vec<String>, String> {
    let canon: BTreeMap<&str, String> = spec
        .workloads
        .iter()
        .map(|w| (w.label(), canonical_workload_json(w.spec())))
        .collect();
    let policy = spec.suite()?.policy();
    Ok(scenarios
        .iter()
        .map(|sc| {
            scenario_key(
                &canon[sc.workload.as_str()],
                &sc.trojan,
                spec.golden_seed(&sc.workload),
                derived_seed(sc.seed, copy),
                &policy,
            )
        })
        .collect())
}

/// Runs `f` and returns its result with the seconds it took; the result
/// passes through `black_box` so discarded work is still done.
fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn store_bytes(root: &Path) -> u64 {
    std::fs::read_dir(root.join("shards"))
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Every scenario record of `spec` in `store`, decoded, in matrix order.
fn stored_results(
    spec: &CampaignSpec,
    scenarios: &[Scenario],
    store: &Store,
) -> Result<Vec<ScenarioResult>, String> {
    let keys = keys(spec, scenarios, 0)?;
    scenarios
        .iter()
        .zip(&keys)
        .map(|(sc, key)| {
            let payload = store
                .get(key)
                .ok_or_else(|| format!("scenario {} missing from the source store", sc.index))?;
            decode_result(sc.clone(), payload)
        })
        .collect()
}

/// What `grow` wrote: every key, and per record the seconds
/// `encode_result` and `Store::put` took.
struct Grown {
    keys: Vec<String>,
    encode_s: Vec<f64>,
    put_s: Vec<f64>,
}

/// Grows the empty `store` to `copies` x scenarios records: each result
/// written under every derived run-seed copy of its key, through
/// `cache::encode_result` + `Store::put`, the write path a campaign
/// takes per miss. Only those two calls are timed.
fn grow(
    store: &mut Store,
    spec: &CampaignSpec,
    scenarios: &[Scenario],
    results: &[ScenarioResult],
    copies: u64,
) -> Result<Grown, String> {
    if !store.is_empty() {
        return Err("the grown store must start empty".into());
    }
    let mut grown = Grown {
        keys: Vec::new(),
        encode_s: Vec::new(),
        put_s: Vec::new(),
    };
    for copy in 0..copies {
        let copy_keys = keys(spec, scenarios, copy)?;
        for (key, result) in copy_keys.iter().zip(results) {
            let (payload, encode_s) = seconds(|| encode_result(result));
            let (written, put_s) = seconds(|| store.put(key, &payload));
            written.map_err(|e| format!("append: {e}"))?;
            grown.encode_s.push(encode_s);
            grown.put_s.push(put_s);
        }
        grown.keys.extend(copy_keys);
    }
    if store.len() != grown.keys.len() {
        return Err(format!(
            "{} records appended but {} indexed (derived keys collided)",
            grown.keys.len(),
            store.len()
        ));
    }
    Ok(grown)
}

fn append(flags: &Flags) -> Result<(), String> {
    let seed = flag_u64(flags, "seed")?;
    let corpus = flag_u64(flags, "corpus")? as u32;
    let copies = flag_u64(flags, "copies")?.max(1);
    let detectors: Vec<&str> = flag(flags, "detectors")?.split(',').collect();
    let spec = sweep_spec(seed, corpus, &detectors, flags.contains_key("online"));
    let scenarios = spec.scenarios()?;

    let src = Store::open(flag(flags, "src")?).map_err(|e| format!("source store: {e}"))?;
    let results = stored_results(&spec, &scenarios, &src)?;
    drop(src);
    let mut dst =
        Store::open(flag(flags, "dst")?).map_err(|e| format!("destination store: {e}"))?;
    let grown = grow(&mut dst, &spec, &scenarios, &results, copies)?;
    let append_s: f64 = grown.encode_s.iter().chain(&grown.put_s).sum();
    println!("{{\"records\": {}, \"append_s\": {append_s}}}", dst.len());
    Ok(())
}

/// Runs one scenario on the capture path, set up as the campaign sets
/// it up: Trojans armed in the interceptor, Flaw3D attacks rewriting
/// the G-code upstream. Returns the run with the seconds `TestBench::run`
/// took and the seconds spent applying the attack.
fn simulate(
    sc: &Scenario,
    program: &Arc<Program>,
    plant_trace: bool,
) -> Result<(RunArtifacts, f64, f64), String> {
    let mut bench = TestBench::new(sc.seed)
        .signal_path(SignalPath::capture())
        .record_plant_trace(plant_trace);
    let mut job = Arc::clone(program);
    let mut apply_s = 0.0;
    match parse_attack(&sc.trojan)? {
        Attack::None => {}
        Attack::Trojan(trojan) => bench = bench.with_trojan(trojan),
        Attack::Flaw3d(attack) => {
            let (rewritten, s) = seconds(|| attack.apply(program));
            job = Arc::new(rewritten);
            apply_s = s;
        }
    }
    let (art, run_s) = seconds(|| bench.run(&job));
    let art = art.map_err(|e| format!("scenario {}: {e}", sc.index))?;
    Ok((art, run_s, apply_s))
}

/// A scenario result assembled from its run, as the campaign assembles
/// it (host timing zeroed: it is in no artifact).
fn result_of(
    sc: &Scenario,
    art: &RunArtifacts,
    verdict: offramps::Verdict,
    ttd: Option<offramps::verdict::TimeToDetection>,
) -> ScenarioResult {
    ScenarioResult {
        scenario: sc.clone(),
        fw_state: format!("{:?}", art.fw_state),
        events: art.events,
        sim_ns: art.sim_time.as_duration().as_nanos(),
        fw_steps: art.fw_steps,
        verdict,
        ttd,
        wall_ms: 0,
    }
}

/// Detector windows the online monitor judges over one replay (the
/// campaign's `verdict.online.windows_judged` count).
fn windows_judged(
    suite: &DetectorSuite,
    golden: &EvidenceBundle,
    observed: &EvidenceBundle,
) -> u64 {
    let streaming = StreamingSuite::new(suite);
    let mut monitor = streaming.monitor(golden, observed);
    let mut judged = 0;
    while let Some(step) = monitor.step() {
        judged += step.windows.iter().filter(|w| w.alarmed.is_some()).count() as u64;
    }
    judged
}

/// Per-layer numbers, by metric name.
#[derive(Default)]
struct Ledger {
    values: BTreeMap<String, f64>,
    counts: BTreeMap<String, u64>,
}

impl Ledger {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    fn to_json(&self) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json::number(*v)))
            .collect();
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!(
            "{{\"layers\": {{{}}}, \"counts\": {{{}}}}}",
            values.join(", "),
            counts.join(", ")
        )
    }
}

/// Per-workload golden bundles for `suite`, and the milliseconds each
/// took.
fn goldens(
    spec: &CampaignSpec,
    suite: &DetectorSuite,
    programs: &BTreeMap<String, Arc<Program>>,
) -> (BTreeMap<String, EvidenceBundle>, Vec<f64>) {
    let mut bundles = BTreeMap::new();
    let mut ms = Vec::new();
    for w in &spec.workloads {
        let label = w.label();
        let (bundle, s) = seconds(|| {
            golden_evidence(
                &programs[label],
                spec.golden_seed(label),
                &spec.calibration_seeds(label, suite.calibration_runs()),
                suite,
            )
        });
        bundles.insert(label.to_string(), bundle);
        ms.push(s * 1e3);
    }
    (bundles, ms)
}

fn ledger(flags: &Flags) -> Result<(), String> {
    let seed = flag_u64(flags, "seed")?;
    let corpus = flag_u64(flags, "corpus")? as u32;
    let copies = flag_u64(flags, "copies")?.max(1);
    let scratch = PathBuf::from(flag(flags, "scratch")?);
    let out = PathBuf::from(flag(flags, "out")?);
    let txn_spec = sweep_spec(seed, corpus, &["txn"], false);
    let quad_spec = sweep_spec(seed, corpus, &QUAD, true);
    let txn_suite = txn_spec.suite()?;
    let quad_suite = quad_spec.suite()?;
    let singles: Vec<(&str, DetectorSuite)> = QUAD
        .iter()
        .map(|&name| {
            Ok((
                name,
                suite_from_names(&[name.to_string()], FusionPolicy::Any)?,
            ))
        })
        .collect::<Result<_, String>>()?;
    let scenarios = txn_spec.scenarios()?;
    let mut led = Ledger::default();

    // gcode: `Workload::program()` over every workload of the matrix.
    let mut slice_ms = Vec::new();
    let mut programs = BTreeMap::new();
    for _ in 0..REPS {
        let (sliced, s) = seconds(|| {
            txn_spec
                .workloads
                .iter()
                .map(|w| (w.label().to_string(), w.program()))
                .collect::<BTreeMap<_, _>>()
        });
        slice_ms.push(s * 1e3);
        programs = sliced;
    }
    let slice_ms = median(slice_ms);
    led.set("gcode.slice_ms", slice_ms);

    // bench: golden provisioning per workload, for both suites.
    let (golden_txn, txn_golden_ms) = goldens(&txn_spec, &txn_suite, &programs);
    let (golden_quad, quad_golden_ms) = goldens(&quad_spec, &quad_suite, &programs);
    led.set("bench.golden_ms.txn", median(txn_golden_ms.clone()));
    led.set("bench.golden_ms.quad", median(quad_golden_ms.clone()));

    // core/des: every scenario on the capture path (the sweep_txn
    // shape), judged post-hoc by the txn suite.
    let mut run_ms = Vec::with_capacity(scenarios.len());
    let mut txn_judge_us = Vec::new();
    let mut txn_results = Vec::with_capacity(scenarios.len());
    let mut txn_layers_s = 0.0;
    let (mut events, mut dedups, mut spills, mut result_events) = (0u64, 0u64, 0u64, 0u64);
    for sc in &scenarios {
        let (art, run_s, apply_s) = simulate(sc, &programs[&sc.workload], false)?;
        run_ms.push(run_s * 1e3);
        events += art.kernel.events;
        dedups += art.kernel.wake_dedups;
        spills += art.kernel.spills;
        result_events += art.events;
        let golden = &golden_txn[&sc.workload];
        let fields = result_of(sc, &art, txn_suite.unjudged(), None);
        let (observed, synth_s) = seconds(|| observed_evidence(art, sc.seed, &txn_suite));
        let (verdict, judge_s) = seconds(|| txn_suite.judge(golden, &observed));
        txn_judge_us.push(judge_s * 1e6);
        txn_results.push(ScenarioResult { verdict, ..fields });
        txn_layers_s += apply_s + run_s + synth_s + judge_s;
    }
    let run_total_s: f64 = run_ms.iter().sum::<f64>() / 1e3;
    led.set("core.run_ms.p50", quantile(run_ms.clone(), 0.5));
    led.set("core.run_ms.p90", quantile(run_ms.clone(), 0.9));
    led.set("des.ns_per_event", run_total_s * 1e9 / events.max(1) as f64);
    led.count("des.events", events);
    led.count("des.wake_dedups", dedups);
    led.count("des.spill_heap_hits", spills);
    led.count("campaign.events", result_events);
    led.count("campaign.scenarios", scenarios.len() as u64);

    // printer/sidechannel/verdict: every scenario with the plant trace
    // recorded (the sweep_quad_online shape), streamed through the
    // fused four-detector monitor; every PROBE_STRIDE-th scenario also
    // gets the per-detector breakdown.
    let mut plant_extra_ms = Vec::with_capacity(scenarios.len());
    let mut fused_us = Vec::new();
    let mut windows = 0u64;
    let mut quad_results = Vec::with_capacity(scenarios.len());
    let mut quad_layers_s = 0.0;
    let mut synth_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut stream_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut judge_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    judge_us.insert("txn", txn_judge_us);
    for (i, sc) in scenarios.iter().enumerate() {
        let program = &programs[&sc.workload];
        let golden = &golden_quad[&sc.workload];
        let (art, run_s, apply_s) = simulate(sc, program, true)?;
        plant_extra_ms.push(run_s * 1e3 - run_ms[i]);
        let fields = result_of(sc, &art, quad_suite.unjudged(), None);
        let (observed, synth_s) = seconds(|| observed_evidence(art, sc.seed, &quad_suite));
        let streaming = StreamingSuite::new(&quad_suite);
        let (outcome, stream_s) = seconds(|| streaming.run(golden, &observed));
        fused_us.push(stream_s * 1e6);
        quad_layers_s += apply_s + run_s + synth_s + stream_s;
        windows += windows_judged(&quad_suite, golden, &observed);
        quad_results.push(ScenarioResult {
            verdict: outcome.verdict,
            ttd: outcome.ttd,
            ..fields
        });
        if i % PROBE_STRIDE != 0 {
            continue;
        }
        for (name, suite) in &singles {
            if *name != "txn" {
                let (art, _, _) = simulate(sc, program, true)?;
                let (_, s) = seconds(|| observed_evidence(art, sc.seed, suite));
                synth_ms.entry(name).or_default().push(s * 1e3);
                let (_, s) = seconds(|| suite.judge(golden, &observed));
                judge_us.entry(name).or_default().push(s * 1e6);
            }
            let streaming = StreamingSuite::new(suite);
            let (_, s) = seconds(|| streaming.run(golden, &observed));
            stream_us.entry(name).or_default().push(s * 1e6);
        }
    }
    led.set("printer.plant_trace_ms", median(plant_extra_ms));
    for (name, ms) in synth_ms {
        led.set(&format!("sidechannel.synth_ms.{name}"), median(ms));
    }
    for (name, us) in stream_us {
        led.set(&format!("verdict.stream_us.{name}"), median(us));
    }
    led.set("verdict.stream_us.fused", median(fused_us));
    for (name, us) in judge_us {
        led.set(&format!("verdict.judge_us.{name}"), median(us));
    }
    led.count("verdict.windows_judged", windows);

    // json: both campaign reports, rendered as the CLI's `--json`
    // writes them, then parsed back.
    let mut layers_s = [txn_layers_s, quad_layers_s];
    let reports = [
        ("txn", txn_spec, txn_results),
        ("quad", quad_spec.clone(), quad_results.clone()),
    ];
    for (slot, (name, spec, results)) in reports.into_iter().enumerate() {
        let report = CampaignReport {
            spec,
            results,
            threads: 1,
            wall_s: 0.0,
        };
        let mut render_ms = Vec::new();
        let mut parse_ms = Vec::new();
        let mut text = String::new();
        for _ in 0..REPS {
            let (rendered, s) = seconds(|| json::to_string_pretty(&report));
            render_ms.push(s * 1e3);
            let (parsed, s) = seconds(|| json::parse(&rendered));
            parsed?;
            parse_ms.push(s * 1e3);
            text = rendered;
        }
        let render = median(render_ms);
        layers_s[slot] += (slice_ms + render) / 1e3;
        if name == "txn" {
            led.set("json.render_ms", render);
            led.set("json.parse_ms", median(parse_ms));
        }
        let path = out.join(format!("{name}.json"));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    layers_s[0] += txn_golden_ms.iter().sum::<f64>() / 1e3;
    layers_s[1] += quad_golden_ms.iter().sum::<f64>() / 1e3;
    led.set("trace.layers_s.sweep_txn", layers_s[0]);
    led.set("trace.layers_s.sweep_quad_online", layers_s[1]);

    // cache/store: the four-detector results grown into a store of
    // `copies` x scenarios records, reopened, read back and analysed.
    let root = scratch.join("ledger-store");
    let all_keys = {
        let mut store = Store::open(&root).map_err(|e| format!("ledger store: {e}"))?;
        let grown = grow(&mut store, &quad_spec, &scenarios, &quad_results, copies)?;
        let encode_us = grown.encode_s.iter().map(|s| s * 1e6).collect();
        led.set("cache.encode_us", median(encode_us));
        let put_s: f64 = grown.put_s.iter().sum();
        led.set("store.put_us", put_s * 1e6 / grown.keys.len() as f64);
        grown.keys
    };
    let bytes = store_bytes(&root);
    let mut open_s = Vec::new();
    let mut store = None;
    for _ in 0..REPS {
        let (opened, s) = seconds(|| Store::open(&root));
        store = Some(opened.map_err(|e| format!("ledger store reopen: {e}"))?);
        open_s.push(s);
    }
    let store = store.expect("REPS > 0");
    let open_s = median(open_s);
    led.set("store.open_ms", open_s * 1e3);
    led.set("store.open_mb_per_s", bytes as f64 / 1e6 / open_s);
    let (found, get_s) = seconds(|| all_keys.iter().filter(|k| store.get(k).is_some()).count());
    if found != all_keys.len() {
        return Err(format!(
            "{found} of {} stored keys read back",
            all_keys.len()
        ));
    }
    led.set("store.get_us", get_s * 1e6 / found as f64);
    led.count("store.records", store.len() as u64);
    led.set(
        "store.bytes_per_record",
        bytes as f64 / store.len().max(1) as f64,
    );

    let mut decode_us = Vec::new();
    let mut hits = 0usize;
    for (sc, key) in scenarios.iter().zip(&all_keys) {
        let Some(payload) = store.get(key) else {
            continue;
        };
        let (decoded, s) = seconds(|| decode_result(sc.clone(), payload));
        if decoded.is_ok() {
            decode_us.push(s * 1e6);
            hits += 1;
        }
    }
    if hits != scenarios.len() {
        return Err(format!(
            "{hits} of {} original records decoded from the grown store",
            scenarios.len()
        ));
    }
    led.set("cache.decode_us", median(decode_us));
    led.set("cache.hit_ratio", hits as f64 / scenarios.len() as f64);

    // analytics: the store-wide scan and the ROC/fusion fit.
    let mut observations_ms = Vec::new();
    let mut report_ms = Vec::new();
    for _ in 0..REPS.min(3) {
        let ((observations, _), s) = seconds(|| store_observations(&store));
        observations_ms.push(s * 1e3);
        let (_, s) = seconds(|| AnalyticsReport::over(&observations, &THRESHOLD_GRID));
        report_ms.push(s * 1e3);
    }
    led.set("analytics.observations_ms", median(observations_ms));
    led.set("analytics.report_ms", median(report_ms));
    drop(store);
    std::fs::remove_dir_all(&root).map_err(|e| format!("cannot remove ledger store: {e}"))?;

    println!("{}", led.to_json());
    Ok(())
}
