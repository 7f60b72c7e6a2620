//! `offramps-cli` — drive the reproduction from the command line.
//!
//! ```bash
//! # Slice a box to G-code:
//! offramps-cli slice --width 10 --depth 10 --height 1.5 > part.gcode
//!
//! # Print it through the interceptor, capturing step counts:
//! offramps-cli print part.gcode --capture golden.csv --seed 1
//!
//! # Print again with a Trojan armed:
//! offramps-cli print part.gcode --capture bad.csv --seed 2 --trojan t2
//!
//! # Apply a Flaw3D attack to the G-code itself:
//! offramps-cli attack part.gcode --reduction 0.9 > attacked.gcode
//!
//! # Detect (exit code 1 when a Trojan is suspected):
//! offramps-cli detect golden.csv bad.csv
//! ```

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

use offramps::trojans;
use offramps::{
    detect, Capture, Channel, FusionPolicy, SignalPath, TestBench, TransactionDetector,
};
use offramps_attacks::Flaw3dTrojan;
use offramps_bench::analytics::{AnalyticsReport, THRESHOLD_GRID};
use offramps_bench::cache::{read_store, record_scan_metrics, StoreContents};
use offramps_bench::campaign::{run_campaign, sweep_attacks, CampaignOptions, CampaignSpec};
use offramps_bench::corpus::CorpusSpec;
use offramps_bench::workloads::Workload;
use offramps_gcode::slicer::{slice, SlicerConfig, Solid};
use offramps_gcode::{parse, ProgramStats};
use offramps_obs::Obs;
use offramps_printer::PlantConfig;
use offramps_signals::Axis;
use offramps_store::Store;

const USAGE: &str = "\
offramps-cli — OFFRAMPS reproduction driver

USAGE:
  offramps-cli slice    [--width MM] [--depth MM] [--height MM] [--layer MM]
  offramps-cli print    <file.gcode> [--seed N] [--capture out.csv]
                        [--trojan t1|t2|t3|t4|t5|t6|t7|t8|t9|tx1|tx2] [--trace out.vcd]
  offramps-cli attack   <file.gcode> (--reduction FACTOR | --relocation N)
  offramps-cli detect   <golden.csv> <observed.csv> [--margin PCT]
  offramps-cli stats    <file.gcode>
  offramps-cli campaign ...   (offramps-cli campaign --help)
  offramps-cli analytics ...  (offramps-cli analytics --help)
";

const CAMPAIGN_USAGE: &str = "\
USAGE:
  offramps-cli campaign [--threads N] [--seed N]
                        [--runs K] [--json out.json] [--online]
                        [--trojans none,t1,...,flaw3d-r90,flaw3d-rel20|all]
                        [--workloads mini,standard,tall,detection]
                        [--corpus N] [--sweep] [--list]
                        [--detectors txn,power,acoustic,thermal]
                        [--fuse any|all|weighted[:d=w,...][@thr]]
                        [--cache DIR] [--timing-json out.json]
                        [--metrics[=FILE]] [--trace-alarms]

The campaign subcommand fans the attack x workload x seed matrix across
worker threads; results are identical for every --threads value.
--threads 0 (or omitting it) uses one worker per available CPU; the
resolved count is reported in the JSON `threads` field. Each workload's
golden capture is provisioned first, then every scenario runs as its own
work item on the pool.
Attacks: none, hardware Trojans t1-t9/tx1/tx2 (the monitor taps
upstream of the Trojan mux, so only Trojans whose physical damage feeds
back into motion surface in the capture), parameterized Trojan specs
(t2:0.25 flow, t5:200@2 Z-shift at a layer, t9:0.5 fan, ...), and
upstream Flaw3D G-code attacks flaw3d-r<pct> / flaw3d-rel<n> (the rows
the detector reliably catches).

  --corpus N      append N procedurally generated workloads (from the
                  master seed; same seed => byte-identical corpus)
  --sweep         use the attack-parameter sweep grid (Flaw3D
                  reduction/relocation grids + Trojan intensity and
                  trigger-layer grids, 33 attacks) instead of --trojans
  --list          print the expanded workloads, attacks and scenario
                  count, then exit without simulating
  --detectors     comma list of judges over the observation plane:
                  txn (the paper's step-count comparison, the default),
                  power (the calibrated power side-channel over the
                  driver rail — a tap *downstream* of the Trojan mux,
                  so it sees signal tampering the upstream txn monitor
                  cannot), acoustic (the stepper emission envelope —
                  catches cadence-breaking feed/void Trojans whose
                  per-window step counts, and therefore power, stay
                  intact), and thermal (a camera on the *true* plant
                  temperatures — catches heat tampering that leaves
                  motion spotless, e.g. tx2:bed@8). The bench
                  synthesizes only the channels the suite asks for and
                  shares golden calibration reruns across detectors.
                  Each scenario carries per-detector evidence in the
                  JSON; the verdict column fuses them (--fuse any|all,
                  or weighted voting: --fuse weighted@0.5 for equal
                  weights, --fuse weighted:txn=1,power=0.5@0.5 for
                  explicit ones — analytics calibrates weights on a
                  stored corpus for you). Changing the suite changes
                  scenario-store keys: no stale verdicts are ever
                  served.
  --online        judge each scenario with the streaming online monitor
                  instead of post-hoc: the detectors consume the
                  replayed observation plane in 100 ms evidence windows
                  and the fused vote alarms at the first window that
                  crosses its calibrated threshold. Finalized verdicts
                  are byte-identical to the post-hoc path; the summary
                  gains an `online:` time-to-detection line, and the
                  JSON gains an `\"online\": true` marker plus per-result
                  ttd_step / ttd_print_fraction / ttd_material_saved
                  fields (analytics aggregates them into per-attack TTD
                  distributions). Scenario-store keys are unchanged, so
                  a post-hoc-warmed --cache DIR serves an online rerun
                  without re-simulating anything.
  --cache DIR     run the campaign through the persistent scenario store
                  at DIR: cached scenarios are answered from disk, only
                  new or invalidated ones are simulated, fresh results
                  are appended. The summary and JSON are byte-identical
                  to an uncached run for any thread count.
  --timing-json   write the non-deterministic host-timing sidecar
                  next to the deterministic report: threads, wall_s,
                  events_per_sec, per-scenario wall_ms, and phase spans
                  (campaign slice/golden/simulate/decode, per-scenario
                  judge, and with --cache the store open/checkpoint)
  --metrics[=FILE] turn on the observability plane and render its
                  deterministic metrics document — kernel counters
                  (events committed, wake-slot dedups, spill-heap
                  hits), per-detector verdict rollups (windows judged,
                  votes, threshold margins in micro-units), campaign
                  and store totals — as canonical JSON, to stdout
                  (bare) or FILE (=FILE). The document is byte-identical
                  for every --threads; host timings ride in the
                  --timing-json sidecar instead. Off by default, and
                  the default path records nothing.
  --trace-alarms  (needs --online) keep a per-scenario flight recorder
                  of the last evidence windows and narrate each first
                  fused alarm as a deterministic timeline: the raising
                  detectors with their threshold margins, the fused
                  weight against the policy threshold, and the halt
                  line with material saved.
";

const ANALYTICS_USAGE: &str = "\
USAGE:
  offramps-cli analytics --cache DIR [--json out.json] [--metrics[=FILE]]

The analytics subcommand re-judges every scenario record in a store at
a grid of suspect-fraction thresholds (no simulation): per-attack,
per-detector detection-rate curves plus the clean-reprint
false-positive curve — the corpus-wide ROC. Records carrying side
evidence (power/acoustic/thermal) additionally get per-modality curves
and an any-alarm fused curve; corpora with two or more side modalities
also get a calibrated weighted-fusion ROC (weights fitted on the
records, reusable via --fuse weighted:...). Records missing a modality
are reported per detector (unjudged by <detector>: N), never errors,
and the campaigns that populated the store are listed from their
campaign@1 provenance records. --metrics renders the store's scan
health as a deterministic metrics document.
";

/// The usage text for `cmd` — its own block for the subcommands that
/// have one, the overview otherwise.
fn usage_for(cmd: Option<&str>) -> &'static str {
    match cmd {
        Some("campaign") => CAMPAIGN_USAGE,
        Some("analytics") => ANALYTICS_USAGE,
        _ => USAGE,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage_for(args.first().map(String::as_str)));
            ExitCode::from(2)
        }
    }
}

/// How a declared flag takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arity {
    /// A bare switch: `--sweep`.
    Switch,
    /// One value, as the next argument: `--threads 4`.
    Value,
    /// Bare or with an inline `=VALUE`, and repeatable: `--metrics`,
    /// whose repeats [`resolve_metrics`] reconciles.
    Inline,
}

/// A subcommand's declared flags.
type FlagTable = &'static [(&'static str, Arity)];

const SLICE_FLAGS: FlagTable = &[
    ("--width", Arity::Value),
    ("--depth", Arity::Value),
    ("--height", Arity::Value),
    ("--layer", Arity::Value),
];

const PRINT_FLAGS: FlagTable = &[
    ("--seed", Arity::Value),
    ("--capture", Arity::Value),
    ("--trojan", Arity::Value),
    ("--trace", Arity::Value),
];

const ATTACK_FLAGS: FlagTable = &[
    ("--reduction", Arity::Value),
    ("--relocation", Arity::Value),
];

const DETECT_FLAGS: FlagTable = &[("--margin", Arity::Value)];

const CAMPAIGN_FLAGS: FlagTable = &[
    ("--threads", Arity::Value),
    ("--seed", Arity::Value),
    ("--runs", Arity::Value),
    ("--json", Arity::Value),
    ("--online", Arity::Switch),
    ("--trojans", Arity::Value),
    ("--workloads", Arity::Value),
    ("--corpus", Arity::Value),
    ("--sweep", Arity::Switch),
    ("--list", Arity::Switch),
    ("--detectors", Arity::Value),
    ("--fuse", Arity::Value),
    ("--cache", Arity::Value),
    ("--timing-json", Arity::Value),
    ("--metrics", Arity::Inline),
    ("--trace-alarms", Arity::Switch),
];

const ANALYTICS_FLAGS: FlagTable = &[
    ("--cache", Arity::Value),
    ("--json", Arity::Value),
    ("--metrics", Arity::Inline),
];

/// A subcommand's arguments, validated against its [`FlagTable`]: its
/// leading positional arguments, then every declared flag seen, with
/// its value (`None` for switches).
#[derive(Debug)]
struct Flags<'a> {
    positional: Vec<&'a str>,
    seen: BTreeMap<&'static str, Option<&'a str>>,
}

impl<'a> Flags<'a> {
    /// Checks `args` against `table` after the subcommand's leading
    /// positional arguments, one per name in `positional`. A missing
    /// positional argument, unknown flags, further positional
    /// arguments, a repeated non-repeatable flag, a missing value and a
    /// value on a switch are all errors.
    fn parse(args: &'a [String], positional: &[&str], table: FlagTable) -> Result<Self, String> {
        let mut rest = args.iter();
        let mut leading = Vec::with_capacity(positional.len());
        for name in positional {
            match rest.next() {
                Some(arg) if !arg.starts_with("--") => leading.push(arg.as_str()),
                _ => return Err(format!("missing argument {name}")),
            }
        }
        let mut seen = BTreeMap::new();
        while let Some(arg) = rest.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) if name.starts_with("--") => (name, Some(value)),
                _ => (arg.as_str(), None),
            };
            let Some(&(flag, arity)) = table.iter().find(|(f, _)| *f == name) else {
                return Err(if name.starts_with('-') {
                    format!("unknown flag {name:?}")
                } else {
                    format!("unexpected argument {arg:?}")
                });
            };
            let value = match (arity, inline) {
                (Arity::Inline, v) => v,
                (_, Some(_)) => return Err(format!("{flag} takes no inline =VALUE")),
                (Arity::Switch, None) => None,
                (Arity::Value, None) => match rest.next() {
                    Some(v) if !v.starts_with("--") => Some(v.as_str()),
                    _ => return Err(format!("{flag} needs a value")),
                },
            };
            if seen.insert(flag, value).is_some() && arity != Arity::Inline {
                return Err(format!("duplicate flag {flag}"));
            }
        }
        Ok(Flags {
            positional: leading,
            seen,
        })
    }

    /// The value of `flag`, if given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.seen.get(flag).copied().flatten()
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.seen.contains_key(flag)
    }

    /// The value of `flag` as a number, or `default`.
    fn f64_or(&self, flag: &str, default: f64) -> Result<f64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} expects a number, got {v:?}")),
        }
    }

    /// The value of `flag` as a non-negative integer, or `default`.
    fn u64_or(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} expects a non-negative integer, got {v:?}")),
        }
    }

    /// The value of `flag` as an integer in `min..=u32::MAX`, or
    /// `default`.
    fn u32_or(&self, flag: &str, default: u32, min: u32) -> Result<u32, String> {
        let v = self.u64_or(flag, u64::from(default))?;
        u32::try_from(v)
            .ok()
            .filter(|v| *v >= min)
            .ok_or_else(|| format!("{flag} must be in {min}..={}, got {v}", u32::MAX))
    }
}

fn read_file(path: &str) -> Result<String, String> {
    let mut s = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut s))
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(s)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    // The name is checked before `--help`, so a retired or misspelled
    // subcommand exits 2 even when asked for its usage.
    let subcommand: fn(&[String]) -> Result<ExitCode, String> = match cmd.as_str() {
        "slice" => cmd_slice,
        "print" => cmd_print,
        "attack" => cmd_attack,
        "detect" => cmd_detect,
        "stats" => cmd_stats,
        "campaign" => cmd_campaign,
        "analytics" => cmd_analytics,
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        other => return Err(format!("unknown subcommand {other:?}")),
    };
    if args[1..].iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage_for(Some(cmd)));
        return Ok(ExitCode::SUCCESS);
    }
    subcommand(&args[1..])
}

fn cmd_slice(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[], SLICE_FLAGS)?;
    let width = flags.f64_or("--width", 10.0)?;
    let depth = flags.f64_or("--depth", 10.0)?;
    let height = flags.f64_or("--height", 1.5)?;
    let layer = flags.f64_or("--layer", 0.3)?;
    if ![width, depth, height, layer]
        .iter()
        .all(|d| d.is_finite() && *d > 0.0)
    {
        return Err("dimensions must be finite and greater than 0".into());
    }
    let cfg = SlicerConfig {
        layer_height: layer,
        ..SlicerConfig::fast()
    };
    // The part must fit the simulated printer, or `print` would clamp
    // the carriage and still "finish" it: the outline inside the X/Y
    // travel around the slicer's centre, the top layer (the slicer
    // rounds the height to whole layers, at least one) inside the Z
    // travel, and every layer at least one Z microstep thick.
    let plant = PlantConfig::default();
    let (cx, cy) = cfg.center;
    let span = |axis: Axis, c: f64| 2.0 * c.min(plant.axis(axis).travel_mm - c);
    let (max_width, max_depth) = (span(Axis::X, cx), span(Axis::Y, cy));
    let max_height = plant.axis(Axis::Z).travel_mm;
    let top = (height / layer).round().max(1.0) * layer;
    if width > max_width || depth > max_depth || top > max_height {
        return Err(format!(
            "part must fit the printer's travel around its centre ({cx}, {cy}) mm: \
             width <= {max_width}, depth <= {max_depth}, height <= {max_height} mm"
        ));
    }
    let z_microstep = 1.0 / plant.axis(Axis::Z).steps_per_mm;
    if layer < z_microstep {
        return Err(format!(
            "--layer must be at least one Z microstep ({z_microstep} mm)"
        ));
    }
    let program = slice(&Solid::rect_prism(width, depth, height), &cfg);
    print!("{}", program.to_gcode());
    Ok(ExitCode::SUCCESS)
}

fn cmd_print(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["<file.gcode>"], PRINT_FLAGS)?;
    let path = flags.positional[0];
    let program = Arc::new(parse(&read_file(path)?).map_err(|e| e.to_string())?);
    let seed = flags.u64_or("--seed", 1)?;
    let capture_path = flags.value("--capture");
    let trace_path = flags.value("--trace");

    let mut bench = TestBench::new(seed);
    if capture_path.is_some() {
        bench = bench.signal_path(SignalPath::capture());
    }
    if trace_path.is_some() {
        bench = bench.record_trace(true);
    }
    if let Some(name) = flags.value("--trojan") {
        bench = bench.with_trojan(trojans::by_name(name)?);
    }
    let run = bench.run(&program).map_err(|e| e.to_string())?;

    println!("firmware state:   {:?}", run.fw_state);
    println!("simulated time:   {}", run.sim_time);
    println!("events processed: {}", run.events);
    println!(
        "hotend peak:      {:.1} C   fan duty: {:.2}",
        run.plant.hotend_peak_c, run.plant.fan_duty
    );
    println!(
        "deposited:        {:.2} mm filament over {} segments",
        run.part.deposited_e_mm(),
        run.part.segments().len()
    );
    if let (Some(p), Some(cap)) = (capture_path, run.capture.as_ref()) {
        let f = File::create(p).map_err(|e| format!("cannot write {p}: {e}"))?;
        cap.write_csv(f).map_err(|e| e.to_string())?;
        println!("capture written:  {p} ({} transactions)", cap.len());
    }
    if let (Some(p), Some(trace)) = (trace_path, run.trace.as_ref()) {
        let f = File::create(p).map_err(|e| format!("cannot write {p}: {e}"))?;
        offramps_signals::write_vcd(std::io::BufWriter::new(f), trace, path)
            .map_err(|e| e.to_string())?;
        println!("VCD written:      {p} ({} events)", trace.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_attack(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["<file.gcode>"], ATTACK_FLAGS)?;
    let trojan = if let Some(f) = flags.value("--reduction") {
        let factor: f64 = f.parse().map_err(|_| "bad --reduction factor")?;
        if !(factor > 0.0 && factor <= 1.0) {
            return Err(format!("--reduction factor must be in (0, 1], got {f}"));
        }
        Flaw3dTrojan::Reduction { factor }
    } else if let Some(n) = flags.value("--relocation") {
        let every_n: u32 = n.parse().map_err(|_| "bad --relocation stride")?;
        if every_n == 0 {
            return Err("--relocation stride must be at least 1".into());
        }
        Flaw3dTrojan::Relocation { every_n }
    } else {
        return Err("attack needs --reduction FACTOR or --relocation N".into());
    };
    let program = parse(&read_file(flags.positional[0])?).map_err(|e| e.to_string())?;
    let out = trojan.apply(&program);
    std::io::stdout()
        .write_all(out.to_gcode().as_bytes())
        .map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_detect(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["<golden.csv>", "<observed.csv>"], DETECT_FLAGS)?;
    let load = |p: &str| -> Result<Capture, String> {
        let f = File::open(p).map_err(|e| format!("cannot open {p}: {e}"))?;
        Capture::from_csv(BufReader::new(f)).map_err(|e| e.to_string())
    };
    let margin = flags.f64_or("--margin", 5.0)?;
    if !(margin.is_finite() && margin >= 0.0) {
        return Err(format!(
            "--margin must be a finite percentage >= 0, got {margin}"
        ));
    }
    let golden = load(flags.positional[0])?;
    let observed = load(flags.positional[1])?;
    let judge = TransactionDetector {
        base: detect::DetectorConfig {
            margin: margin / 100.0,
            ..detect::DetectorConfig::default()
        },
    };
    let report = judge.report(&golden, &observed);
    println!("{report}");
    Ok(if report.suspected() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Resolves `--threads` (0 or absent = one worker per available CPU).
fn resolve_threads(flags: &Flags<'_>) -> Result<usize, String> {
    let requested = flags.u64_or("--threads", 0)? as usize;
    Ok(if requested == 0 {
        // detlint: allow(D2) -- thread-count resolution is execution-class, reported only beside wall-clock timings
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    })
}

/// Where `--metrics` sends the deterministic metrics document.
#[derive(Debug, Clone, PartialEq, Eq)]
enum MetricsSink {
    /// No `--metrics` flag: the observability plane stays off.
    Off,
    /// Bare `--metrics`: print the document.
    Stdout,
    /// `--metrics=FILE`: write the document to FILE.
    File(String),
}

/// Parses every `--metrics` / `--metrics=FILE` occurrence. Repeating
/// the same destination is harmless; naming two different ones is an
/// error (the document would silently go to only one of them).
fn resolve_metrics(args: &[String]) -> Result<MetricsSink, String> {
    let mut sink = MetricsSink::Off;
    for arg in args {
        let requested = if arg == "--metrics" {
            MetricsSink::Stdout
        } else if let Some(path) = arg.strip_prefix("--metrics=") {
            if path.is_empty() {
                return Err("--metrics= needs a file path (bare --metrics prints)".into());
            }
            MetricsSink::File(path.to_string())
        } else {
            continue;
        };
        match &sink {
            MetricsSink::Off => sink = requested,
            prev if *prev == requested => {}
            MetricsSink::Stdout => {
                return Err(format!(
                    "conflicting --metrics destinations: stdout and {requested:?}"
                ))
            }
            MetricsSink::File(prev) => {
                return Err(format!(
                    "conflicting --metrics destinations: {prev:?} and {requested:?}"
                ))
            }
        }
    }
    Ok(sink)
}

/// Resolves the campaign's observability flags: the metrics sink and
/// whether to narrate online alarms. `--trace-alarms` replays the
/// online monitor's flight recorder, so it is rejected without
/// `--online`.
fn campaign_obs_flags(args: &[String]) -> Result<(MetricsSink, bool), String> {
    let sink = resolve_metrics(args)?;
    let trace_alarms = args.iter().any(|a| a == "--trace-alarms");
    if trace_alarms && !args.iter().any(|a| a == "--online") {
        return Err("--trace-alarms narrates the online monitor; add --online".into());
    }
    Ok((sink, trace_alarms))
}

/// Emits the metrics document to its sink (no-op when the plane is
/// off).
fn emit_metrics(obs: &Obs, sink: &MetricsSink) -> Result<(), String> {
    let Some(json) = obs.metrics_json() else {
        return Ok(());
    };
    match sink {
        MetricsSink::Off => {}
        MetricsSink::Stdout => print!("{json}"),
        MetricsSink::File(path) => {
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("metrics written: {path}");
        }
    }
    Ok(())
}

fn cmd_campaign(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[], CAMPAIGN_FLAGS)?;
    let threads = resolve_threads(&flags)?;
    let (metrics, trace_alarms) = campaign_obs_flags(args)?;
    let seed = flags.u64_or("--seed", 42)?;

    let mut spec = CampaignSpec::default_matrix(seed);
    spec.runs_per_cell = flags.u32_or("--runs", 1, 1)?;
    if let Some(list) = flags.value("--trojans") {
        if list != "all" {
            spec.trojans = list.split(',').map(|s| s.trim().to_string()).collect();
        }
    }
    if flags.has("--sweep") {
        spec.trojans = sweep_attacks();
    }
    if let Some(list) = flags.value("--workloads") {
        spec.workloads = list
            .split(',')
            .map(|w| Workload::from_name(w.trim()))
            .collect::<Result<Vec<_>, _>>()?;
    }
    let corpus = flags.u32_or("--corpus", 0, 0)?;
    if corpus > 0 {
        spec.workloads.extend(CorpusSpec::new(corpus).expand(seed));
    }
    if let Some(list) = flags.value("--detectors") {
        // Normalized here so equivalent invocations (`TXN`, ` txn `)
        // produce byte-identical artifacts and store keys.
        spec.detectors = list
            .split(',')
            .map(|s| s.trim().to_ascii_lowercase())
            .collect();
    }
    if let Some(policy) = flags.value("--fuse") {
        spec.fusion = FusionPolicy::parse(policy)?;
    }
    spec.online = flags.has("--online");
    spec.suite()?; // validate detector names before simulating

    if flags.has("--list") {
        let scenarios = spec.scenarios()?;
        println!("workloads ({}):", spec.workloads.len());
        for w in &spec.workloads {
            println!("  {:<10} {}", w.label(), w.spec().summary());
        }
        println!("attacks ({}):", spec.trojans.len());
        println!("  {}", spec.trojans.join(", "));
        println!(
            "detectors: {}   (fusion: {})",
            spec.detectors.join(","),
            spec.fusion
        );
        println!(
            "scenarios: {}   (runs per cell: {}, master seed: {})",
            scenarios.len(),
            spec.runs_per_cell.max(1),
            spec.master_seed
        );
        return Ok(ExitCode::SUCCESS);
    }

    // The timing sidecar carries the plane's phase spans, so asking
    // for it turns the observability plane on too.
    let obs = if metrics != MetricsSink::Off || trace_alarms || flags.has("--timing-json") {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let cache_dir = flags.value("--cache");
    // The store opens and saves its checkpoints outside the campaign's
    // clock: their spans put that time in the sidecar, and only there.
    let mut store = match cache_dir {
        Some(dir) => {
            let start = obs.clock_micros();
            let store =
                Store::open(dir).map_err(|e| format!("cannot open scenario store {dir}: {e}"))?;
            obs.record_span("store", None, "open", start, obs.clock_micros());
            Some(store)
        }
        None => None,
    };
    let (report, stats) = run_campaign(
        &spec,
        CampaignOptions {
            threads: threads.max(1),
            obs: &obs,
            trace_alarms,
            store: store.as_mut(),
        },
    )?;
    if let Some(store) = store.take() {
        let start = obs.clock_micros();
        drop(store);
        obs.record_span("store", None, "checkpoint", start, obs.clock_micros());
    }
    print!("{}", report.summary());
    if report.spec.online {
        // Deterministic (fixed iteration order over matrix-ordered
        // results), so CI can diff this line across thread counts.
        let marks: Vec<_> = report.results.iter().filter_map(|r| r.ttd).collect();
        if marks.is_empty() {
            println!(
                "online: no mid-print alarms across {} scenarios",
                report.results.len()
            );
        } else {
            let n = marks.len() as f64;
            let mean_step = marks.iter().map(|t| t.alarm_step as f64).sum::<f64>() / n;
            let mean_done = marks.iter().map(|t| t.print_fraction).sum::<f64>() / n;
            let mean_saved = marks.iter().map(|t| t.material_saved).sum::<f64>() / n;
            println!(
                "online: {} of {} scenarios alarmed mid-print   mean alarm step {:.1}   mean print done {:.1}%   mean material saved {:.1}%",
                marks.len(),
                report.results.len(),
                mean_step,
                mean_done * 100.0,
                mean_saved * 100.0,
            );
        }
    }
    if trace_alarms {
        // Matrix-index order (BTreeMap), so CI can diff the narrated
        // timelines across thread counts byte for byte.
        for lines in obs.traces().values() {
            for line in lines {
                println!("trace: {line}");
            }
        }
    }
    println!(
        "threads: {}   wall: {:.2}s   throughput: {:.0} events/s",
        report.threads,
        report.wall_s,
        report.events_per_sec()
    );
    if let Some(dir) = cache_dir {
        println!("{} (dir: {dir})", stats.summary_line());
    }
    emit_metrics(&obs, &metrics)?;
    if let Some(path) = flags.value("--json") {
        use offramps_bench::json::ToJson;
        std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("report written:  {path}");
    }
    if let Some(path) = flags.value("--timing-json") {
        std::fs::write(path, report.timing_json(&obs))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("timings written: {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_analytics(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[], ANALYTICS_FLAGS)?;
    let Some(dir) = flags.value("--cache") else {
        return Err("analytics needs --cache DIR".into());
    };
    let metrics = resolve_metrics(args)?;
    // `Store::open` creates the store's directories: a path that holds
    // no store is reported, not turned into an empty one.
    if !std::path::Path::new(dir).join("shards").is_dir() {
        return Err(format!(
            "no scenario store at {dir} (run `campaign --cache {dir}` first)"
        ));
    }
    let store = Store::open(dir).map_err(|e| format!("cannot open scenario store {dir}: {e}"))?;
    let StoreContents {
        observations,
        skipped,
        campaigns,
    } = read_store(&store);
    if observations.is_empty() {
        return Err(format!(
            "no scenario records in {dir} (run `campaign --cache {dir}` first)"
        ));
    }
    let report = AnalyticsReport::over(&observations, &THRESHOLD_GRID);
    print!("{}", report.summary());
    println!(
        "records: {}   attacks: {}   thresholds: {}   skipped: {}",
        observations.len(),
        report.curves.len(),
        report.thresholds.len(),
        skipped
    );
    // Records missing a modality — written before that detector
    // existed, or by suites that never ran it — parse fine but cannot
    // feed that modality's curves: count and report them per detector
    // instead of erroring (pre-power and pre-acoustic/pre-thermal
    // stores report the same way).
    let side = Channel::ALL.iter().filter(|c| **c != Channel::Txn);
    for detector in side.map(Channel::name) {
        let unjudged = observations
            .iter()
            .filter(|o| !o.judged_by(detector))
            .count();
        if unjudged > 0 {
            println!(
                "unjudged by {detector}: {unjudged} (no {detector} evidence; excluded from its curves)"
            );
        }
    }
    if let Some(weighted) = &report.weighted {
        println!("calibrated weighted fusion: --fuse '{}'", weighted.policy());
    }
    // Which campaigns populated this store (campaign@1 provenance).
    if !campaigns.is_empty() {
        println!("campaigns: {}", campaigns.len());
        for c in &campaigns {
            println!(
                "  seed={} workloads={} attacks={} runs={} sweep={} scenarios={} policy={}",
                c.master_seed,
                c.workloads,
                c.attacks,
                c.runs_per_cell,
                c.sweep,
                c.scenarios,
                c.policy
            );
        }
    }
    if metrics != MetricsSink::Off {
        // Everything here is a pure function of the store's bytes, so
        // the document is deterministic for a given store state.
        let obs = Obs::enabled();
        record_scan_metrics(&store, &obs);
        obs.count("analytics.observations", observations.len() as u64);
        obs.count("analytics.skipped", skipped as u64);
        emit_metrics(&obs, &metrics)?;
    }
    if let Some(path) = flags.value("--json") {
        use offramps_bench::json::ToJson;
        std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("analytics written: {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["<file.gcode>"], &[])?;
    let program = parse(&read_file(flags.positional[0])?).map_err(|e| e.to_string())?;
    let s = ProgramStats::analyze(&program);
    println!("commands:         {}", program.len());
    println!("layers:           {}", s.layer_count());
    println!("filament (net):   {:.2} mm", s.net_extruded_mm);
    println!("extrusion path:   {:.1} mm", s.extrusion_path_mm);
    println!("travel path:      {:.1} mm", s.travel_path_mm);
    println!("max hotend temp:  {:.0} C", s.max_hotend_target);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn metrics_flag_parses_every_destination() {
        assert_eq!(
            resolve_metrics(&argv(&["--online"])).unwrap(),
            MetricsSink::Off
        );
        assert_eq!(
            resolve_metrics(&argv(&["--metrics"])).unwrap(),
            MetricsSink::Stdout
        );
        assert_eq!(
            resolve_metrics(&argv(&["--metrics=m.json"])).unwrap(),
            MetricsSink::File("m.json".into())
        );
    }

    #[test]
    fn duplicate_metrics_must_agree() {
        // Repeating the same destination is harmless...
        assert_eq!(
            resolve_metrics(&argv(&["--metrics", "--metrics"])).unwrap(),
            MetricsSink::Stdout
        );
        assert_eq!(
            resolve_metrics(&argv(&["--metrics=a.json", "--metrics=a.json"])).unwrap(),
            MetricsSink::File("a.json".into())
        );
        // ...but two different ones would silently drop one document.
        for conflict in [
            &["--metrics", "--metrics=a.json"][..],
            &["--metrics=a.json", "--metrics"][..],
            &["--metrics=a.json", "--metrics=b.json"][..],
        ] {
            let err = resolve_metrics(&argv(conflict)).unwrap_err();
            assert!(err.contains("conflicting"), "{conflict:?}: {err}");
        }
        let err = resolve_metrics(&argv(&["--metrics="])).unwrap_err();
        assert!(err.contains("file path"), "{err}");
    }

    #[test]
    fn trace_alarms_requires_online() {
        let err = campaign_obs_flags(&argv(&["--trace-alarms"])).unwrap_err();
        assert!(err.contains("--online"), "{err}");
        let (sink, trace) = campaign_obs_flags(&argv(&["--online", "--trace-alarms"])).unwrap();
        assert_eq!(sink, MetricsSink::Off);
        assert!(trace);
        let (sink, trace) = campaign_obs_flags(&argv(&["--online", "--metrics=m.json"])).unwrap();
        assert_eq!(sink, MetricsSink::File("m.json".into()));
        assert!(!trace);
    }
}
