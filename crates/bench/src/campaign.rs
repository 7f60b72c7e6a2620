//! Parallel scenario campaigns: attack × workload × seed, fanned across
//! worker threads with deterministic results.
//!
//! The paper's evaluation is a matrix — nine Table I Trojans, the
//! Flaw3D variants of Table II, the Figure 4 sweep — and scaling the
//! reproduction means running whole matrices at once. A
//! [`CampaignSpec`] names the matrix; [`run_campaign`] executes every
//! scenario on a `std::thread` worker pool, optionally through a
//! content-addressed scenario store ([`CampaignOptions::store`]). Each scenario's seed is
//! derived from the campaign's master seed and the scenario's *label*
//! via [`SeedSplitter`], never from scheduling order, so the campaign
//! produces **byte-identical summaries for any thread count** — the
//! property the `campaign_determinism` integration test pins down.
//!
//! The matrix composes three open-ended axes:
//!
//! * **workloads** — any [`Workload`] from the open registry: the four
//!   canonical paper prints and/or a procedurally generated corpus
//!   ([`crate::corpus::CorpusSpec`]), keyed everywhere by label;
//! * **attacks** — `"none"`, hardware Trojans by roster id or
//!   parameterized spec (`t2:0.25`, `t5:200@2`, … — see
//!   [`offramps::trojans::by_spec`]), and upstream Flaw3D transforms
//!   (`flaw3d-r<pct>`, `flaw3d-rel<n>`); [`sweep_attacks`] expands the
//!   default intensity/trigger grids;
//! * **seeds** — `runs_per_cell` independent reprints per cell.
//!
//! Every scenario prints through the capture path and is judged against
//! a golden capture of the same workload (also derived from the master
//! seed), giving the summary its detection column. Hardware Trojans
//! (`t1`–`t9`, `tx1`, `tx2`) are armed inside the interceptor — the
//! monitor taps the *controller's* stream upstream of the Trojan mux,
//! so their signal tampering is invisible to the step-count detector
//! (the paper never co-locates its attack and defense); Trojans whose
//! physical damage feeds back into motion still surface indirectly.
//! Flaw3D G-code attacks apply *upstream* of the firmware — exactly the
//! attacks the paper's detection program catches.
//!
//! Short prints export few transactions, so a couple of
//! sampling-boundary wobbles would trip the paper's 1 % suspect
//! fraction; the campaign therefore additionally requires at least
//! three mismatching transactions before flagging a run. Each
//! scenario's
//! `transactions_compared`, `mismatches` and the suspect-fraction
//! threshold it was judged with are part of the report, so the verdict
//! is auditable from the JSON artifact alone.
//!
//! Judging itself is pluggable: the spec names a
//! [`offramps::verdict::DetectorSuite`] (`detectors`/`fusion` fields —
//! the transaction judge alone by default, `txn,power` for
//! multi-modality fusion with the driver-rail power side-channel), and
//! every scenario's [`ScenarioResult`] carries the suite's fused
//! [`Verdict`] with per-detector [`offramps::verdict::Evidence`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use offramps::verdict::{
    DetectorSuite, EvidenceBundle, FusionPolicy, OnlineMonitor, OnlineOutcome, OnlineStep,
    StreamingSuite, TimeToDetection, Verdict,
};
use offramps::{
    trojans, BenchError, RunArtifacts, SignalPath, TestBench, TransactionDetector, Trojan,
};
use offramps_attacks::Flaw3dTrojan;
use offramps_des::SeedSplitter;
use offramps_gcode::Program;
use offramps_obs::{FlightRecorder, Obs};
use offramps_store::Store;

use crate::cache::{self, CacheStats};
use crate::detectors;
use crate::json::{ObjectWriter, ToJson};
use crate::workloads::Workload;

/// What a scenario arms or applies.
#[derive(Debug)]
pub enum Attack {
    /// A clean reprint.
    None,
    /// A hardware Trojan armed in the interceptor.
    Trojan(Box<dyn Trojan>),
    /// A Flaw3D G-code transform applied upstream of the firmware.
    Flaw3d(Flaw3dTrojan),
}

/// Parses an attack name: `"none"`, a roster Trojan id or parameterized
/// spec (see [`trojans::by_spec`]), a `flaw3d-r<percent>` reduction, or
/// a `flaw3d-rel<n>` relocation.
///
/// # Errors
///
/// Returns the unknown name back.
///
/// # Example
///
/// ```
/// use offramps_bench::campaign::{parse_attack, Attack};
///
/// assert!(matches!(parse_attack("none").unwrap(), Attack::None));
/// assert!(matches!(parse_attack("t2").unwrap(), Attack::Trojan(_)));
/// assert!(matches!(parse_attack("t2:0.25").unwrap(), Attack::Trojan(_)));
/// assert!(matches!(parse_attack("flaw3d-r90").unwrap(), Attack::Flaw3d(_)));
/// assert!(parse_attack("bogus").is_err());
/// ```
pub fn parse_attack(name: &str) -> Result<Attack, String> {
    let name = name.to_ascii_lowercase();
    if name == "none" {
        return Ok(Attack::None);
    }
    // Check the longer prefix first: "flaw3d-rel…" also starts with
    // "flaw3d-r".
    if let Some(n) = name.strip_prefix("flaw3d-rel") {
        let every_n: u32 = n
            .parse()
            .map_err(|_| format!("bad relocation stride in {name:?}"))?;
        if every_n == 0 {
            return Err(format!("relocation stride must be positive in {name:?}"));
        }
        return Ok(Attack::Flaw3d(Flaw3dTrojan::Relocation { every_n }));
    }
    if let Some(pct) = name.strip_prefix("flaw3d-r") {
        let pct: f64 = pct
            .parse()
            .map_err(|_| format!("bad reduction percent in {name:?}"))?;
        if !(0.0..=100.0).contains(&pct) {
            return Err(format!("reduction percent out of range in {name:?}"));
        }
        return Ok(Attack::Flaw3d(Flaw3dTrojan::Reduction {
            factor: pct / 100.0,
        }));
    }
    trojans::by_spec(&name).map(Attack::Trojan)
}

/// The default attack-parameter sweep: Flaw3D reduction/relocation
/// grids plus Trojan intensity and trigger-layer grids — 33 attacks
/// including the clean reprint. Composed with a corpus it turns a
/// campaign into a thousands-of-cells stress matrix
/// (`offramps-cli campaign --corpus N --sweep`).
pub fn sweep_attacks() -> Vec<String> {
    let mut out = vec!["none".to_string()];
    // Flaw3D reduction-percent grid (Table II's four values plus two
    // midpoints).
    for pct in [50, 75, 85, 90, 95, 98] {
        out.push(format!("flaw3d-r{pct}"));
    }
    // Flaw3D relocation-stride grid.
    for n in [5, 10, 20, 50, 100] {
        out.push(format!("flaw3d-rel{n}"));
    }
    // Trojan intensity grids (see `trojans::by_spec` for the grammar).
    for keep in ["0.25", "0.5", "0.75"] {
        out.push(format!("t2:{keep}"));
    }
    for scale in ["0.25", "0.5", "0.75"] {
        out.push(format!("t9:{scale}"));
    }
    // Trigger-layer grid for the Z-shift Trojan.
    for (steps, layer) in [(100, 1), (200, 2), (200, 5)] {
        out.push(format!("t5:{steps}@{layer}"));
    }
    for (lo, hi) in [(10, 40), (30, 80)] {
        out.push(format!("t4:{lo}-{hi}"));
    }
    for off in [15, 30] {
        out.push(format!("tx2:{off}"));
    }
    // Fast-interval variant of T1 next to the paper's 10 s default, the
    // remaining roster Trojans at their defaults, and a late endstop
    // spoof.
    out.extend(
        ["t1", "t1:2", "t3", "t6", "t7", "t8", "tx1", "tx1:5000"]
            .iter()
            .map(|s| s.to_string()),
    );
    out
}

/// A campaign matrix: every listed attack (plus `"none"` for clean
/// reprints) against every workload, `runs_per_cell` times, judged by
/// the named detector suite.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Master seed; every scenario seed is derived from it by label.
    pub master_seed: u64,
    /// Attack names accepted by [`parse_attack`]: `"none"`, Trojan
    /// roster ids / parameterized specs, or Flaw3D transforms.
    pub trojans: Vec<String>,
    /// Workloads to print (canonical and/or corpus-generated).
    pub workloads: Vec<Workload>,
    /// Independent seeds per (trojan, workload) cell.
    pub runs_per_cell: u32,
    /// Detector names accepted by [`crate::detectors::by_name`]
    /// (`"txn"`, `"power"`, `"acoustic"`, `"thermal"`); the suite
    /// judging every scenario.
    pub detectors: Vec<String>,
    /// How the suite fuses per-detector alarms.
    pub fusion: FusionPolicy,
    /// Judge each scenario *online*: replay its evidence window by
    /// window through the suite ([`StreamingSuite`]) and record
    /// time-to-detection. Finalized streaming verdicts are
    /// byte-identical to the post-hoc path, so this adds TTD columns to
    /// fresh results without perturbing any verdict, summary line, or
    /// cache key.
    pub online: bool,
}

impl CampaignSpec {
    /// The default matrix: a clean reprint, all eleven roster Trojans,
    /// and three Flaw3D attacks on the mini workload, one run each,
    /// judged by the transaction detector alone.
    pub fn default_matrix(master_seed: u64) -> Self {
        let mut trojans = vec!["none".to_string()];
        trojans.extend(trojans::TROJAN_NAMES.iter().map(|s| s.to_string()));
        trojans.extend(["flaw3d-r50", "flaw3d-r90", "flaw3d-rel20"].map(String::from));
        CampaignSpec {
            master_seed,
            trojans,
            workloads: vec![Workload::mini()],
            runs_per_cell: 1,
            detectors: vec![TransactionDetector::NAME.to_string()],
            fusion: FusionPolicy::Any,
            online: false,
        }
    }

    /// Whether this spec judges with the default transaction-only
    /// suite (report metadata stays in its pre-suite shape then).
    /// Compares case-insensitively, like
    /// [`crate::detectors::by_name`]'s resolution, so two specs that
    /// build the identical suite produce identical artifacts.
    // detlint: allow(D7) -- tests/verdict_suite.rs
    pub fn default_detectors(&self) -> bool {
        matches!(self.detectors.as_slice(),
            [only] if only.trim().eq_ignore_ascii_case(TransactionDetector::NAME))
            && self.fusion == FusionPolicy::Any
    }

    /// Builds the detector suite this campaign judges with.
    ///
    /// # Errors
    ///
    /// Reports an unknown detector name, duplicates, or an empty list.
    pub fn suite(&self) -> Result<DetectorSuite, String> {
        detectors::suite_from_names(&self.detectors, self.fusion.clone())
    }

    /// Validates attack names and workload labels, then expands the
    /// matrix into scenarios in deterministic (attack-major) order.
    ///
    /// # Errors
    ///
    /// Reports the first unknown attack name or duplicate workload
    /// label.
    pub fn scenarios(&self) -> Result<Vec<Scenario>, String> {
        let mut seen = std::collections::BTreeSet::new();
        for w in &self.workloads {
            if !seen.insert(w.label()) {
                return Err(format!("duplicate workload label {:?}", w.label()));
            }
        }
        let split = SeedSplitter::new(self.master_seed);
        let mut out = Vec::new();
        for trojan in &self.trojans {
            parse_attack(trojan)?;
            for workload in &self.workloads {
                for run in 0..self.runs_per_cell.max(1) {
                    let label = format!("campaign/{}/{}/{}", workload.label(), trojan, run);
                    out.push(Scenario {
                        index: out.len(),
                        trojan: trojan.clone(),
                        workload: workload.label().to_string(),
                        run,
                        seed: split.derive(&label),
                    });
                }
            }
        }
        Ok(out)
    }

    /// The seed a workload's golden capture runs under, derived from
    /// the workload *label* so corpus growth never perturbs it.
    // detlint: allow(D7) -- perfbench/layers
    pub fn golden_seed(&self, workload_label: &str) -> u64 {
        SeedSplitter::new(self.master_seed).derive(&format!("campaign/golden/{workload_label}"))
    }

    /// The seeds a workload's extra golden calibration repetitions run
    /// under (label-derived, like every other campaign seed). Empty for
    /// suites that calibrate from nothing beyond the primary run; the
    /// runs these seeds drive are shared by every repeat-calibrated
    /// detector in the suite.
    // detlint: allow(D7) -- perfbench/layers
    pub fn calibration_seeds(&self, workload_label: &str, calibration_runs: usize) -> Vec<u64> {
        let split = SeedSplitter::new(self.master_seed);
        (1..calibration_runs)
            .map(|i| split.derive(&format!("campaign/golden/{workload_label}/calib/{i}")))
            .collect()
    }
}

/// One cell × run of the campaign matrix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position in the expanded matrix (summary order).
    pub index: usize,
    /// Attack name (see [`parse_attack`]), or `"none"`.
    pub trojan: String,
    /// Label of the workload printed.
    pub workload: String,
    /// Run number within the cell.
    pub run: u32,
    /// The derived seed.
    pub seed: u64,
}

/// Outcome of one scenario: run artifacts plus the suite's fused
/// [`Verdict`] with per-detector [`Evidence`](offramps::verdict::Evidence)
/// (sufficient statistics, so any threshold can be re-judged offline).
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Final firmware state (or the bench error), rendered.
    pub fw_state: String,
    /// Events processed by the scheduler.
    pub events: u64,
    /// Simulated nanoseconds of the job.
    pub sim_ns: u64,
    /// Firmware step counters at the end.
    pub fw_steps: [i64; 4],
    /// The detector suite's fused verdict and per-detector evidence.
    pub verdict: Verdict,
    /// Time-to-detection under online judging: `Some` iff the campaign
    /// ran with [`CampaignSpec::online`] and the fused monitor alarmed
    /// mid-print. Post-hoc campaigns always carry `None`, keeping their
    /// artifacts byte-identical to the pre-online format.
    pub ttd: Option<TimeToDetection>,
    /// Host milliseconds the run took (excluded from the deterministic
    /// summary and JSON; see [`CampaignReport::timing_json`]).
    pub wall_ms: u64,
}

impl ScenarioResult {
    /// The transaction judge's evidence, if the suite ran it.
    fn txn(&self) -> Option<&offramps::Evidence> {
        self.verdict.evidence_for(TransactionDetector::NAME)
    }

    /// Whether the suite's fused verdict flagged the print.
    pub fn detected(&self) -> bool {
        self.verdict.alarmed
    }

    /// Out-of-margin transaction *values* against the golden capture
    /// (a transaction with two bad axes counts twice).
    pub fn mismatches(&self) -> usize {
        self.txn().map_or(0, |e| e.flagged_values)
    }

    /// Transactions with at least one out-of-margin axis — the
    /// numerator the transaction judge's suspect fraction uses.
    pub fn mismatched_transactions(&self) -> usize {
        self.txn().map_or(0, |e| e.flagged)
    }

    /// Transactions the step-count judge compared.
    // detlint: allow(D7) -- tests/campaign_determinism.rs
    pub fn transactions_compared(&self) -> usize {
        self.txn().map_or(0, |e| e.compared)
    }

    /// The end-of-print 0 %-margin totals check (`None` when the
    /// scenario was never judged).
    pub fn final_totals_match(&self) -> Option<bool> {
        self.txn().and_then(|e| e.final_totals_match)
    }

    /// The suspect-fraction threshold the transaction judge used
    /// (`None` — and absent from the JSON — for scenarios that were
    /// never judged: an unjudged run is not a run judged at
    /// threshold 0).
    pub fn suspect_fraction(&self) -> Option<f64> {
        self.txn().and_then(|e| e.threshold)
    }

    /// The deterministic summary line for this result — everything
    /// except host timing. The verdict column is the suite's *fused*
    /// alarm.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<4} {:<10} {:<12} {:<4} {:<18} {:>9} {:>12} {:<9} {:>6}  [{} {} {} {}]",
            self.scenario.index,
            self.scenario.workload,
            self.scenario.trojan,
            self.scenario.run,
            self.fw_state,
            self.events,
            self.sim_ns,
            if self.detected() { "DETECTED" } else { "clean" },
            self.mismatches(),
            self.fw_steps[0],
            self.fw_steps[1],
            self.fw_steps[2],
            self.fw_steps[3],
        )
    }

    /// Emits the detection-verdict fields shared by the report JSON and
    /// the scenario-store payload — one writer, so the two formats can
    /// never drift apart field by field. The transaction judge's
    /// statistics keep their pre-suite field names (and a
    /// transaction-only verdict emits nothing else, so default
    /// campaigns stay byte-identical); any further detectors ride in an
    /// `evidence` array of per-detector sufficient statistics.
    pub(crate) fn write_verdict_fields(&self, w: &mut ObjectWriter<'_>) {
        // Online-only fields: absent entirely on post-hoc campaigns and
        // on online scenarios that never alarmed, so default artifacts
        // keep their pre-online shape byte for byte. They lead the
        // block — the writer attaches the separating comma to the line
        // *before* each new key, so an online-only field must always be
        // followed by an unconditional one ("detected") for the
        // artifact minus its `ttd_` lines to equal the post-hoc bytes.
        if let Some(ttd) = self.ttd {
            w.int("ttd_step", ttd.alarm_step as i128)
                .float("ttd_print_fraction", ttd.print_fraction)
                .float("ttd_material_saved", ttd.material_saved);
        }
        w.bool("detected", self.detected())
            .int("mismatches", self.mismatches() as i128)
            .int(
                "mismatched_transactions",
                self.mismatched_transactions() as i128,
            )
            .int(
                "transactions_compared",
                self.transactions_compared() as i128,
            );
        match self.final_totals_match() {
            Some(v) => w.bool("final_totals_match", v),
            None => w.raw("final_totals_match", "null"),
        };
        if let Some(fraction) = self.suspect_fraction() {
            w.float("suspect_fraction", fraction);
        }
        if self
            .verdict
            .evidence
            .iter()
            .any(|e| e.detector != offramps::TransactionDetector::NAME)
        {
            w.value("evidence", &self.verdict.evidence);
        }
    }
}

impl ToJson for ScenarioResult {
    fn write_json(&self, out: &mut String, indent: usize) {
        let mut w = ObjectWriter::new(out, indent);
        w.int("index", self.scenario.index as i128)
            .string("workload", &self.scenario.workload)
            .string("trojan", &self.scenario.trojan)
            .int("run", self.scenario.run as i128)
            .int("seed", self.scenario.seed as i128)
            .string("fw_state", &self.fw_state)
            .int("events", self.events as i128)
            .int("sim_ns", self.sim_ns as i128);
        self.write_verdict_fields(&mut w);
        w.finish();
    }
}

/// Everything a campaign produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// The spec that ran (workload labels and attack names feed the
    /// JSON metadata block).
    pub spec: CampaignSpec,
    /// Per-scenario results, in matrix order regardless of which worker
    /// ran what.
    pub results: Vec<ScenarioResult>,
    /// Worker threads used (informational; does not affect results).
    pub threads: usize,
    /// Host seconds for the whole campaign.
    pub wall_s: f64,
}

impl CampaignReport {
    /// Total simulation events across all scenarios.
    // detlint: allow(D7) -- tests/campaign_determinism.rs
    pub fn total_events(&self) -> u64 {
        self.results.iter().map(|r| r.events).sum()
    }

    /// Scenarios the suite's fused verdict flagged.
    pub(crate) fn detections(&self) -> usize {
        self.results.iter().filter(|r| r.detected()).count()
    }

    /// Aggregate throughput over host time (non-deterministic).
    pub fn events_per_sec(&self) -> f64 {
        self.total_events() as f64 / self.wall_s.max(1e-9)
    }

    /// The deterministic summary table: identical for every thread
    /// count, byte for byte.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<4} {:<10} {:<12} {:<4} {:<18} {:>9} {:>12} {:<9} {:>6}  fw_steps\n",
            "#", "workload", "trojan", "run", "fw_state", "events", "sim_ns", "verdict", "mism"
        ));
        out.push_str(&"-".repeat(100));
        out.push('\n');
        for r in &self.results {
            out.push_str(&r.summary_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "runs: {}   events: {}   detections: {}\n",
            self.results.len(),
            self.total_events(),
            self.detections(),
        ));
        out
    }

    /// Host-timing sidecar: per-scenario wall milliseconds plus the
    /// pool shape, and — when `obs` is enabled — the observability
    /// plane's phase spans, as JSON. Kept out of [`ToJson::to_json`]
    /// (and out of [`CampaignReport::summary`]) because these numbers
    /// vary run to run — the main artifacts stay byte-identical for
    /// any thread count.
    pub fn timing_json(&self, obs: &Obs) -> String {
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out, 0);
        w.int("threads", self.threads as i128)
            .float("wall_s", self.wall_s)
            .float("events_per_sec", self.events_per_sec());
        let spans = obs.spans();
        if !spans.is_empty() {
            let mut body = String::from("[");
            for (i, span) in spans.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    "\n    {{\"label\": {}, \"component\": {}",
                    crate::json::escape(&span.label),
                    crate::json::escape(span.component),
                ));
                if let Some(scenario) = span.scenario {
                    body.push_str(&format!(", \"scenario\": {scenario}"));
                }
                body.push_str(&format!(
                    ", \"start_us\": {}, \"end_us\": {}}}",
                    span.start_micros, span.end_micros
                ));
            }
            body.push_str("\n  ]");
            w.raw("spans", &body);
        }
        let mut scenarios = String::from("[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                scenarios.push(',');
            }
            scenarios.push_str(&format!(
                "\n    {{\"index\": {}, \"wall_ms\": {}}}",
                r.scenario.index, r.wall_ms
            ));
        }
        scenarios.push_str("\n  ]");
        w.raw("scenarios", &scenarios);
        w.finish();
        out
    }
}

impl ToJson for CampaignReport {
    fn write_json(&self, out: &mut String, indent: usize) {
        let workloads: Vec<String> = self
            .spec
            .workloads
            .iter()
            .map(|w| crate::json::escape(w.label()))
            .collect();
        let attacks: Vec<String> = self
            .spec
            .trojans
            .iter()
            .map(|t| crate::json::escape(t))
            .collect();
        let mut w = ObjectWriter::new(out, indent);
        w.int("master_seed", self.spec.master_seed as i128)
            .int("runs_per_cell", self.spec.runs_per_cell.max(1) as i128);
        // Online judging is part of the artifact's metadata; post-hoc
        // campaigns keep the pre-online shape byte for byte.
        if self.spec.online {
            w.bool("online", true);
        }
        // Non-default suites are part of the artifact's metadata; the
        // default transaction-only suite keeps the pre-suite shape so
        // existing reports stay byte-identical.
        if !self.spec.default_detectors() {
            let detectors: Vec<String> = self
                .spec
                .detectors
                .iter()
                .map(|d| crate::json::escape(d))
                .collect();
            w.raw("detectors", &format!("[{}]", detectors.join(", ")))
                .string("fusion", &self.spec.fusion.to_string());
        }
        w.raw("workloads", &format!("[{}]", workloads.join(", ")))
            .raw("attacks", &format!("[{}]", attacks.join(", ")))
            .int("runs", self.results.len() as i128)
            .int("events", self.total_events() as i128)
            .int("detections", self.detections() as i128)
            .value(
                "analytics",
                &crate::analytics::AnalyticsReport::from_results(&self.results),
            )
            .value("results", &self.results);
        w.finish();
    }
}

/// The host's parallelism: the worker count of the offline analytics
/// pass, whose results [`parallel_map`] returns in input order.
pub(crate) fn host_workers() -> usize {
    // detlint: allow(D2) -- sizes the analytics pool only; parallel_map keeps input order, so no output depends on it
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on a pool of `threads` workers.
///
/// **Order-preservation invariant:** `output[i]` is `f(&items[i])`, for
/// every `i`, regardless of which worker computed it or in what order
/// workers finished — callers reassemble matrix-order results (and
/// matrix-order store appends) on the strength of this, so the
/// claiming strategy below may change but the invariant may not.
///
/// Work is claimed from a shared atomic index in contiguous chunks of a
/// few items per `fetch_add` — less cache-line traffic on the counter
/// than claiming one item at a time, while chunks stay small enough
/// that a straggling chunk never idles the rest of the pool.
pub(crate) fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    // Aim for several claims per worker so finish times even out.
    let chunk = (items.len() / (workers * 8)).clamp(1, 16);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= items.len() {
                    break;
                }
                for (i, item) in items.iter().enumerate().skip(start).take(chunk) {
                    let result = f(item);
                    *slots[i].lock().expect("result slot") = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("poisoned slot")
                .expect("worker filled slot")
        })
        .collect()
}

/// One campaign's judging configuration, threaded as a unit to every
/// worker: the suite each scenario is judged with, and whether the
/// evidence is replayed window by window (online) or judged post-hoc.
#[derive(Clone, Copy)]
struct Judging<'a> {
    /// The detector suite judging every scenario.
    suite: &'a DetectorSuite,
    /// Replay online and record time-to-detection.
    online: bool,
    /// The observability plane (disabled on the default path, where it
    /// costs nothing and records nothing).
    obs: &'a Obs,
    /// Keep a flight recorder per online scenario and narrate the
    /// first fused alarm as a trace. Traces only — the metrics are
    /// identical with or without narration.
    trace_alarms: bool,
}

/// Judges one scenario's run outcome against its golden evidence.
/// `sim_ms` is the host time attributed to the simulation itself;
/// judging time is added on top. Online judging replays the evidence
/// window by window instead — the finalized verdict is byte-identical
/// to the post-hoc judge, and the fused monitor's time-to-detection
/// rides along.
fn judge_outcome(
    scenario: &Scenario,
    outcome: Result<RunArtifacts, BenchError>,
    golden: &EvidenceBundle,
    judging: Judging<'_>,
    sim_ms: u64,
) -> ScenarioResult {
    let Judging {
        suite,
        online,
        obs,
        trace_alarms,
    } = judging;
    if obs.is_enabled() {
        obs.count("campaign.scenarios_simulated", 1);
    }
    let judge_start = obs.clock_micros();
    // detlint: allow(D2) -- verdict wall-clock is execution-class, emitted only via the timing sidecar
    let t0 = Instant::now();
    let result = match outcome {
        Ok(art) => {
            if obs.is_enabled() {
                obs.count("kernel.events_committed", art.kernel.events);
                obs.count("kernel.wake_dedups", art.kernel.wake_dedups);
                obs.count("kernel.spill_heap_hits", art.kernel.spills);
            }
            let fw_state = format!("{:?}", art.fw_state);
            let events = art.events;
            let sim_ns = art.sim_time.as_duration().as_nanos();
            let fw_steps = art.fw_steps;
            let observed = detectors::observed_evidence(art, scenario.seed, suite);
            let (verdict, ttd) = if online {
                let monitor = StreamingSuite::new(suite).monitor(golden, &observed);
                let outcome = if trace_alarms && obs.is_enabled() {
                    narrate_online(scenario, suite, monitor, obs)
                } else {
                    monitor.finish()
                };
                outcome.record_metrics(obs);
                (outcome.verdict, outcome.ttd)
            } else {
                let verdict = suite.judge(golden, &observed);
                verdict.record_metrics(obs);
                (verdict, None)
            };
            ScenarioResult {
                scenario: scenario.clone(),
                fw_state,
                events,
                sim_ns,
                fw_steps,
                verdict,
                ttd,
                wall_ms: sim_ms + t0.elapsed().as_millis() as u64,
            }
        }
        Err(e) => ScenarioResult {
            scenario: scenario.clone(),
            fw_state: format!("error: {e}"),
            events: 0,
            sim_ns: 0,
            fw_steps: [0; 4],
            verdict: suite.unjudged(),
            ttd: None,
            wall_ms: sim_ms,
        },
    };
    obs.record_span(
        "campaign",
        Some(scenario.index),
        "judge",
        judge_start,
        obs.clock_micros(),
    );
    result
}

/// Evidence windows the per-scenario flight recorder keeps: the
/// alarming slice plus the two before it — enough context to see the
/// margin close without narrating the whole print.
pub const FLIGHT_RECORDER_WINDOWS: usize = 3;

/// Drives one online replay slice by slice, keeping a
/// [`FlightRecorder`] of the last [`FLIGHT_RECORDER_WINDOWS`] slices,
/// and records the first fused alarm into `obs` as a narrated timeline
/// under the scenario's matrix index. The outcome is byte-identical to
/// [`OnlineMonitor::finish`].
fn narrate_online(
    scenario: &Scenario,
    suite: &DetectorSuite,
    mut monitor: OnlineMonitor<'_>,
    obs: &Obs,
) -> OnlineOutcome {
    let mut recorder = FlightRecorder::new(FLIGHT_RECORDER_WINDOWS);
    let mut narrative: Option<(u64, f64, Vec<String>)> = None;
    while let Some(step) = monitor.step() {
        let (alarmed, window, secs) = (
            step.alarmed,
            step.step,
            step.elapsed.as_nanos() as f64 / 1e9,
        );
        recorder.push(step);
        if alarmed && narrative.is_none() {
            let lines = recorder
                .iter()
                .map(|s| narrate_step(suite, s))
                .collect::<Vec<_>>();
            narrative = Some((window, secs, lines));
        }
    }
    let outcome = monitor.finish();
    if let Some((window, secs, body)) = narrative {
        let mut lines = vec![format!(
            "#{} {}/{} run {}: ALARM at window {} (t={secs:.1}s)",
            scenario.index, scenario.workload, scenario.trojan, scenario.run, window
        )];
        lines.extend(body);
        if let Some(ttd) = outcome.ttd {
            lines.push(format!(
                "  halt: print {:.1}% done, material saved {:.1}%",
                ttd.print_fraction * 100.0,
                ttd.material_saved * 100.0
            ));
        }
        obs.record_trace(scenario.index, lines);
    }
    outcome
}

/// One flight-recorder slice as a narrative line: every judged
/// detector's provisional count and threshold margin (`-> VOTE` when
/// it alarmed), then the fused tally against the policy's effective
/// threshold (`-> ALARM` when the fusion fired).
fn narrate_step(suite: &DetectorSuite, step: &OnlineStep) -> String {
    let mut parts: Vec<String> = Vec::new();
    for w in &step.windows {
        let Some(alarmed) = w.alarmed else { continue };
        let mut part = format!("{} {}/{}", w.detector, w.flagged, w.compared);
        if let Some(margin) = w.margin() {
            part.push_str(&format!(" {margin:+.4}"));
        }
        if alarmed {
            part.push_str(" -> VOTE");
        }
        parts.push(part);
    }
    let tally = suite.fusion().tally_votes(
        step.windows
            .iter()
            .filter_map(|w| w.alarmed.map(|a| (w.detector, a))),
    );
    let mut line = format!("  window {}: ", step.step);
    if !parts.is_empty() {
        line.push_str(&parts.join(", "));
        line.push_str("; ");
    }
    line.push_str(&format!(
        "fused {:.2}/{:.2}",
        tally.alarmed_fraction(),
        tally.threshold
    ));
    if step.alarmed {
        line.push_str(" -> ALARM");
    }
    line
}

/// Runs one scenario — capture path, the suite's plant-side channels
/// folded while the plant runs, and the attack either armed in the
/// interceptor or applied to the G-code upstream — and judges it with
/// the suite against its workload's golden evidence.
fn run_scenario(
    scenario: &Scenario,
    program: &Arc<Program>,
    golden: &EvidenceBundle,
    judging: Judging<'_>,
) -> ScenarioResult {
    let mut bench = TestBench::new(scenario.seed)
        .signal_path(SignalPath::capture())
        .fold_side_channels(judging.suite);
    let mut job = Arc::clone(program);
    match parse_attack(&scenario.trojan).expect("names validated by CampaignSpec") {
        Attack::None => {}
        Attack::Trojan(trojan) => bench = bench.with_trojan(trojan),
        Attack::Flaw3d(attack) => job = Arc::new(attack.apply(program)),
    }
    // detlint: allow(D2) -- per-scenario sim_ms is execution-class, reported only in the timing sidecar
    let t0 = Instant::now();
    let outcome = bench.run(&job);
    let sim_ms = t0.elapsed().as_millis() as u64;
    judge_outcome(scenario, outcome, golden, judging, sim_ms)
}

/// Provisions golden evidence and executes a planned scenario list —
/// a campaign's misses, which is the whole matrix without a store — in
/// two phases:
/// the golden runs of every listed workload (under the campaign's
/// label-derived golden seed, plus the shared calibration reruns the
/// suite consumes) fanned over the pool one run per job, each
/// workload's bundle then assembled in seed order; then the scenarios.
/// Results come back in input order.
fn execute_campaign(
    spec: &CampaignSpec,
    workloads: &[&Workload],
    scenarios: &[&Scenario],
    programs: &BTreeMap<&str, Arc<Program>>,
    judging: Judging<'_>,
    threads: usize,
) -> Vec<ScenarioResult> {
    let obs = judging.obs;
    let golden_start = obs.clock_micros();
    let suite = judging.suite;
    let seeds: Vec<Vec<u64>> = workloads
        .iter()
        .map(|w| {
            let label = w.label();
            detectors::golden_seeds(
                spec.golden_seed(label),
                &spec.calibration_seeds(label, suite.calibration_runs()),
                suite,
            )
        })
        .collect();
    let jobs: Vec<(&str, u64, bool)> = workloads
        .iter()
        .zip(&seeds)
        .flat_map(|(w, seeds)| {
            let label = w.label();
            seeds
                .iter()
                .enumerate()
                .map(move |(i, &seed)| (label, seed, i > 0))
        })
        .collect();
    let mut runs = parallel_map(&jobs, threads, |&(label, seed, rerun)| {
        detectors::golden_run(&programs[label], seed, suite, rerun)
    })
    .into_iter();
    let goldens: BTreeMap<&str, EvidenceBundle> = workloads
        .iter()
        .zip(&seeds)
        .map(|(w, seeds)| {
            let bundle = detectors::assemble_golden(runs.by_ref().take(seeds.len()));
            (w.label(), bundle)
        })
        .collect();
    let simulate_start = obs.clock_micros();
    obs.record_span("campaign", None, "golden", golden_start, simulate_start);
    let results = parallel_map(scenarios, threads, |sc| {
        let label = sc.workload.as_str();
        run_scenario(sc, &programs[label], &goldens[label], judging)
    });
    obs.record_span(
        "campaign",
        None,
        "simulate",
        simulate_start,
        obs.clock_micros(),
    );
    results
}

/// The always-disabled handle [`CampaignOptions::threads`] points at.
static NO_OBS: Obs = Obs::disabled();

/// How [`run_campaign`] executes a spec: everything that shapes the
/// work and what is observed, never an artifact.
pub struct CampaignOptions<'a> {
    /// Worker threads (informational in the report; 0 runs one worker).
    pub threads: usize,
    /// The observability plane. With an enabled handle, the metrics
    /// (kernel counters, verdict rollups, campaign and store totals)
    /// accumulate into it as order-independent sums, minima and
    /// maxima, so the rendered metrics document is byte-identical for
    /// every thread count.
    pub obs: &'a Obs,
    /// Narrate each online scenario's first fused alarm from its flight
    /// recorder into `obs` (traces only: the metrics are identical with
    /// or without narration).
    pub trace_alarms: bool,
    /// The scenario store: cached scenarios are decoded from it, only
    /// misses are simulated, and fresh results are appended in matrix
    /// order. `None` simulates every scenario.
    pub store: Option<&'a mut Store>,
}

impl<'a> CampaignOptions<'a> {
    /// `threads` workers, observability off, no store.
    pub fn threads(threads: usize) -> CampaignOptions<'a> {
        CampaignOptions {
            threads,
            obs: &NO_OBS,
            trace_alarms: false,
            store: None,
        }
    }
}

/// Executes the campaign.
///
/// With a store, every scenario is first looked up by its content
/// address ([`cache::scenario_key`]); hits are decoded and only misses
/// run. Without one, every scenario is a miss and no key is built.
/// Programs are sliced once per workload with at least one miss and
/// shared as `Arc<Program>`; golden evidence bundles are produced next
/// (one work item per golden run, with shared calibration repetitions
/// when the suite consumes them), then the missed scenarios run one per
/// work item.
/// Results are assembled in matrix order, and the report is
/// byte-identical whatever the thread count, observability or cache
/// state.
///
/// # Errors
///
/// Reports an invalid trojan or detector name or a duplicate workload
/// label in the spec, or a store I/O failure. A stored record that
/// fails to decode is treated as a miss and recomputed (the rewrite
/// supersedes it).
///
/// # Example
///
/// ```
/// use offramps_bench::campaign::{run_campaign, CampaignOptions, CampaignSpec};
/// use offramps_bench::workloads::Workload;
///
/// let spec = CampaignSpec {
///     trojans: vec!["none".into(), "t2".into()],
///     workloads: vec![Workload::mini()],
///     ..CampaignSpec::default_matrix(7)
/// };
/// let (one, _) = run_campaign(&spec, CampaignOptions::threads(1)).unwrap();
/// let (four, _) = run_campaign(&spec, CampaignOptions::threads(4)).unwrap();
/// assert_eq!(one.summary(), four.summary()); // thread count is invisible
/// ```
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: CampaignOptions<'_>,
) -> Result<(CampaignReport, CacheStats), String> {
    let CampaignOptions {
        threads,
        obs,
        trace_alarms,
        mut store,
    } = opts;
    let suite = spec.suite()?;
    let scenarios = spec.scenarios()?;
    // detlint: allow(D2) -- campaign wall-clock feeds only the --timing-json sidecar, never deterministic artifacts
    let t0 = Instant::now();

    let policy = suite.policy();
    let (keys, mut results) = match store.as_deref() {
        Some(store) => {
            let keys = cache::scenario_keys(spec, &scenarios, &policy);
            let results = cache::lookup(store, spec, &scenarios, &keys, threads, obs);
            (keys, results)
        }
        None => (Vec::new(), vec![None; scenarios.len()]),
    };
    let misses: Vec<&Scenario> = scenarios
        .iter()
        .zip(&results)
        .filter(|(_, r)| r.is_none())
        .map(|(sc, _)| sc)
        .collect();
    let stats = CacheStats {
        hits: scenarios.len() - misses.len(),
        misses: misses.len(),
    };
    if let Some(store) = store.as_deref() {
        cache::record_store_metrics(store, stats, obs);
    }

    if !misses.is_empty() {
        let needed: BTreeSet<&str> = misses.iter().map(|sc| sc.workload.as_str()).collect();
        let workloads: Vec<&Workload> = spec
            .workloads
            .iter()
            .filter(|w| needed.contains(w.label()))
            .collect();
        let slice_start = obs.clock_micros();
        let programs: BTreeMap<&str, Arc<Program>> = workloads
            .iter()
            .zip(parallel_map(&workloads, threads, |w| w.program()))
            .map(|(w, program)| (w.label(), program))
            .collect();
        obs.record_span("campaign", None, "slice", slice_start, obs.clock_micros());
        let judging = Judging {
            suite: &suite,
            online: spec.online,
            obs,
            trace_alarms,
        };
        let fresh = execute_campaign(spec, &workloads, &misses, &programs, judging, threads);
        // `fresh` comes back in `misses` order, which is matrix order —
        // so store appends stay in matrix order for every thread count.
        for r in fresh {
            let index = r.scenario.index;
            if let Some(store) = store.as_deref_mut() {
                store
                    .put(&keys[index], &cache::encode_result(&r))
                    .map_err(|e| format!("cannot append to scenario store: {e}"))?;
            }
            results[index] = Some(r);
        }
    }
    if let Some(store) = store {
        cache::put_provenance(store, spec, &policy, scenarios.len())?;
    }

    let results = results
        .into_iter()
        .map(|r| r.expect("every scenario is either a hit or a fresh run"))
        .collect();
    let report = CampaignReport {
        spec: spec.clone(),
        results,
        threads,
        wall_s: t0.elapsed().as_secs_f64(),
    };
    Ok((report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_expands_trojan_major() {
        let spec = CampaignSpec {
            trojans: vec!["none".into(), "t2".into()],
            workloads: vec![Workload::mini(), Workload::tall()],
            runs_per_cell: 2,
            ..CampaignSpec::default_matrix(1)
        };
        let scenarios = spec.scenarios().unwrap();
        assert_eq!(scenarios.len(), 8);
        assert_eq!(scenarios[0].trojan, "none");
        assert_eq!(scenarios[0].workload, "mini");
        assert_eq!(scenarios[3].workload, "tall");
        assert_eq!(scenarios[4].trojan, "t2");
        assert!(scenarios.iter().enumerate().all(|(i, s)| s.index == i));
    }

    #[test]
    fn seeds_depend_on_labels_not_positions() {
        let wide = CampaignSpec {
            trojans: vec!["none".into(), "t1".into(), "t2".into()],
            ..CampaignSpec::default_matrix(9)
        };
        let narrow = CampaignSpec {
            trojans: vec!["t2".into()],
            ..CampaignSpec::default_matrix(9)
        };
        let wide_t2 = wide
            .scenarios()
            .unwrap()
            .into_iter()
            .find(|s| s.trojan == "t2")
            .unwrap();
        let narrow_t2 = narrow.scenarios().unwrap()[0].clone();
        assert_eq!(
            wide_t2.seed, narrow_t2.seed,
            "seed must not depend on matrix shape"
        );
    }

    #[test]
    fn default_detectors_is_case_insensitive() {
        let mut spec = CampaignSpec::default_matrix(1);
        assert!(spec.default_detectors());
        spec.detectors = vec!["TXN".into()];
        assert!(spec.default_detectors(), "same suite, same artifact shape");
        assert!(spec.suite().is_ok());
        spec.detectors = vec![" txn ".into()];
        assert!(spec.default_detectors());
        assert!(spec.suite().is_ok(), "by_name trims like the CLI");
        spec.detectors = vec!["txn".into(), "power".into()];
        assert!(!spec.default_detectors());
        spec.detectors = vec!["txn".into()];
        spec.fusion = FusionPolicy::All;
        assert!(!spec.default_detectors(), "fusion is part of the default");
    }

    #[test]
    fn unknown_trojan_rejected() {
        let spec = CampaignSpec {
            trojans: vec!["t99".into()],
            ..CampaignSpec::default_matrix(1)
        };
        assert!(spec.scenarios().is_err());
    }

    #[test]
    fn duplicate_workload_labels_rejected() {
        let spec = CampaignSpec {
            trojans: vec!["none".into()],
            workloads: vec![Workload::mini(), Workload::mini()],
            ..CampaignSpec::default_matrix(1)
        };
        let err = spec.scenarios().unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn sweep_grid_is_valid_and_sized() {
        let sweep = sweep_attacks();
        assert!(sweep.len() >= 30, "grid has {} attacks", sweep.len());
        assert_eq!(sweep[0], "none");
        for attack in &sweep {
            parse_attack(attack).unwrap_or_else(|e| panic!("{attack}: {e}"));
        }
        let unique: std::collections::HashSet<&String> = sweep.iter().collect();
        assert_eq!(unique.len(), sweep.len(), "grid entries must be unique");
    }

    #[test]
    fn parameterized_attacks_parse() {
        assert!(matches!(
            parse_attack("t5:200@2").unwrap(),
            Attack::Trojan(_)
        ));
        assert!(parse_attack("t5:200").is_err());
        assert!(parse_attack("t2:0").is_err());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..57).collect();
        for threads in [1, 3, 8] {
            let out = parallel_map(&items, threads, |x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }
}
