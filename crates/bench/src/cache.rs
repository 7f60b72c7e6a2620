//! Incremental campaigns: wire the scenario matrix through the
//! content-addressed [`offramps_store::Store`].
//!
//! Every scenario's outcome is a pure function of its inputs — the
//! workload spec, the attack spec, the golden and run seeds, and the
//! detector policy. [`scenario_key`] spells those inputs out as a
//! canonical string (with a format-version salt), and
//! [`crate::campaign::run_campaign`], given a store, consults it before
//! simulating: hits are decoded back into [`ScenarioResult`]s, only
//! misses fan out to the worker pool, and fresh results are appended to
//! the store in matrix order. A 10k-scenario rerun after a one-line corpus change
//! recomputes exactly the delta.
//!
//! Two invariants the integration tests pin:
//!
//! * **Byte identity.** The summary and JSON report are identical
//!   whether results come from cache or fresh runs, for any thread
//!   count (host timing is already excluded from both artifacts).
//! * **Content addressing is the only invalidation.** Nothing expires;
//!   changing any fingerprinted input (or bumping
//!   [`SCENARIO_KEY_VERSION`]) changes the key, so stale records are
//!   simply never addressed again.

use std::cell::RefCell;
use std::collections::BTreeMap;

use offramps_gcode::slicer::Solid;
use offramps_gcode::spec::WorkloadSpec;
use offramps_obs::Obs;
use offramps_store::Store;

use offramps::verdict::{Evidence, TimeToDetection, Verdict};

use crate::campaign::{parallel_map, CampaignSpec, Scenario, ScenarioResult};
use crate::json::{self, ObjectWriter, Value};
use crate::workloads::Workload;

/// Version salt baked into every scenario key. Bump it whenever the
/// meaning of a stored result changes (new payload fields, a detector
/// semantics change that the policy string cannot express, a capture
/// format change): the whole previous generation of records stops
/// being addressed at once.
pub const SCENARIO_KEY_VERSION: u32 = 1;

/// The literal key prefix for the current generation (kept in step
/// with [`SCENARIO_KEY_VERSION`] by a unit test) so per-record checks
/// never allocate.
const SCENARIO_KEY_PREFIX: &str = "offramps-scenario/v1|";

/// Whether a store key is a current-generation scenario record (the
/// `analytics` CLI skips foreign or previous-generation records).
pub(crate) fn is_scenario_key(key: &str) -> bool {
    key.starts_with(SCENARIO_KEY_PREFIX)
}

/// The key prefix of campaign-provenance records (`campaign@1`): one
/// record per campaign run, describing which campaign populated the
/// store — the first rung of cross-campaign analytics slices.
pub const CAMPAIGN_KEY_PREFIX: &str = "offramps-campaign/v1|";

/// Whether a store key is a campaign-provenance record.
pub(crate) fn is_campaign_key(key: &str) -> bool {
    key.starts_with(CAMPAIGN_KEY_PREFIX)
}

/// What one pass over a store holds for analytics.
#[derive(Debug, Default, PartialEq)]
pub struct StoreContents {
    /// Every decodable current-generation scenario record, as an
    /// analytics observation.
    pub observations: Vec<crate::analytics::Observation>,
    /// Records passed over: foreign keys, previous generations,
    /// undecodable scenario payloads and indexed records that no
    /// longer read back from their shard log.
    pub skipped: usize,
    /// Every decodable campaign-provenance record — the campaigns that
    /// populated the store.
    pub campaigns: Vec<CampaignProvenance>,
}

/// What [`read_store`] made of one record.
enum StoreRecord {
    Observation(crate::analytics::Observation),
    Campaign(CampaignProvenance),
    Skipped,
    /// An undecodable campaign record: dropped, never counted.
    Dropped,
}

/// Reads a store once, in its deterministic (fingerprint) order,
/// decoding scenario records into observations and campaign records
/// into provenance on the store's read workers. Campaign-provenance
/// records are this store's own metadata, not foreign junk: they never
/// count as skipped, and an undecodable one is dropped silently. A
/// record the store indexed but could not read back counts as skipped.
pub fn read_store(store: &Store) -> StoreContents {
    let (records, unreadable) = store.records(|key, value| {
        if is_campaign_key(key) {
            return decode_campaign(value).map_or(StoreRecord::Dropped, StoreRecord::Campaign);
        }
        if !is_scenario_key(key) {
            return StoreRecord::Skipped;
        }
        json::parse(value)
            .and_then(|v| crate::analytics::Observation::from_payload(&v))
            .map_or(StoreRecord::Skipped, StoreRecord::Observation)
    });
    let mut contents = StoreContents {
        skipped: unreadable,
        ..StoreContents::default()
    };
    for record in records {
        match record {
            StoreRecord::Observation(obs) => contents.observations.push(obs),
            StoreRecord::Campaign(campaign) => contents.campaigns.push(campaign),
            StoreRecord::Skipped => contents.skipped += 1,
            StoreRecord::Dropped => {}
        }
    }
    contents
}

/// The observations and skipped count of [`read_store`].
// detlint: allow(D7) -- perfbench/layers
pub fn store_observations(store: &Store) -> (Vec<crate::analytics::Observation>, usize) {
    let StoreContents {
        observations,
        skipped,
        ..
    } = read_store(store);
    (observations, skipped)
}

/// One campaign-provenance record: which campaign run populated (part
/// of) the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignProvenance {
    /// The campaign's master seed.
    pub master_seed: u64,
    /// Workloads in the matrix (the corpus size, canonical included).
    pub workloads: usize,
    /// Attacks in the matrix.
    pub attacks: usize,
    /// Independent runs per (attack, workload) cell.
    pub runs_per_cell: u32,
    /// Whether the attack list was the standard sweep grid
    /// ([`crate::campaign::sweep_attacks`]).
    pub sweep: bool,
    /// The suite policy the campaign judged with.
    pub policy: String,
    /// Scenarios the matrix expanded to.
    pub scenarios: usize,
}

/// The content-addressed key of one campaign's provenance record: the
/// same campaign spec rerun (e.g. a warm rerun) rewrites its single
/// record instead of accumulating duplicates.
fn campaign_key(spec: &CampaignSpec, policy: &str, workload_labels: &str) -> String {
    format!(
        "{CAMPAIGN_KEY_PREFIX}master_seed={}|runs_per_cell={}|workloads={workload_labels}|attacks={}|policy={policy}",
        spec.master_seed,
        spec.runs_per_cell.max(1),
        spec.trojans.join(","),
    )
}

fn encode_campaign(spec: &CampaignSpec, policy: &str, scenarios: usize) -> String {
    let sweep = spec.trojans == crate::campaign::sweep_attacks();
    let mut out = String::new();
    let mut w = ObjectWriter::new(&mut out, 0);
    w.int("master_seed", spec.master_seed as i128)
        .int("workloads", spec.workloads.len() as i128)
        .int("attacks", spec.trojans.len() as i128)
        .int("runs_per_cell", spec.runs_per_cell.max(1) as i128)
        .bool("sweep", sweep)
        .string("policy", policy)
        .int("scenarios", scenarios as i128);
    w.finish();
    out
}

fn decode_campaign(payload: &str) -> Result<CampaignProvenance, String> {
    let v = json::parse(payload)?;
    Ok(CampaignProvenance {
        master_seed: int_field(&v, "master_seed")?,
        workloads: int_field(&v, "workloads")? as usize,
        attacks: int_field(&v, "attacks")? as usize,
        runs_per_cell: int_field(&v, "runs_per_cell")? as u32,
        sweep: field(&v, "sweep")?
            .as_bool()
            .ok_or("campaign field \"sweep\" is not a bool")?,
        policy: field(&v, "policy")?
            .as_str()
            .ok_or("campaign field \"policy\" is not a string")?
            .to_string(),
        scenarios: int_field(&v, "scenarios")? as usize,
    })
}

/// Cache effectiveness of one [`crate::campaign::run_campaign`] call
/// (without a store, every scenario is a miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Scenarios answered from the store.
    pub hits: usize,
    /// Scenarios that had to be simulated (and were then stored).
    pub misses: usize,
}

impl CacheStats {
    /// Total scenarios consulted.
    pub fn total(&self) -> usize {
        self.hits + self.misses
    }

    /// The one-line human rendering the CLI and CI smoke grep for.
    pub fn summary_line(&self) -> String {
        format!(
            "cache: hits={} misses={} (executed {} of {} scenarios)",
            self.hits,
            self.misses,
            self.misses,
            self.total()
        )
    }
}

fn canon_f64(v: f64) -> String {
    // Shortest round-trip rendering: canonical and exact.
    format!("{v}")
}

/// The canonical JSON rendering of a workload spec: compact, fixed
/// field order, shortest-round-trip floats. Equal specs — and only
/// equal specs — produce equal strings, so this is the workload's
/// content address regardless of the label it runs under.
// detlint: allow(D7) -- perfbench/layers
pub fn canonical_workload_json(spec: &WorkloadSpec) -> String {
    let solid = match &spec.solid {
        Solid::RectPrism {
            width,
            depth,
            height,
        } => format!(
            r#"{{"type":"rect","width":{},"depth":{},"height":{}}}"#,
            canon_f64(*width),
            canon_f64(*depth),
            canon_f64(*height)
        ),
        Solid::Prism {
            radius,
            height,
            segments,
        } => format!(
            r#"{{"type":"prism","radius":{},"height":{},"segments":{}}}"#,
            canon_f64(*radius),
            canon_f64(*height),
            segments
        ),
    };
    let c = &spec.config;
    format!(
        concat!(
            r#"{{"solid":{},"copies":{},"spacing":{},"config":{{"#,
            r#""layer_height":{},"extrusion_width":{},"filament_diameter":{},"#,
            r#""perimeters":{},"infill_spacing":{},"infill_pattern":"{:?}","#,
            r#""print_speed":{},"first_layer_speed":{},"travel_speed":{},"#,
            r#""retract_len":{},"retract_speed":{},"hotend_temp":{},"bed_temp":{},"#,
            r#""fan_duty":{},"fan_from_layer":{},"flow":{},"center":[{},{}]}}}}"#
        ),
        solid,
        spec.copies,
        canon_f64(spec.spacing),
        canon_f64(c.layer_height),
        canon_f64(c.extrusion_width),
        canon_f64(c.filament_diameter),
        c.perimeters,
        canon_f64(c.infill_spacing),
        c.infill_pattern,
        canon_f64(c.print_speed),
        canon_f64(c.first_layer_speed),
        canon_f64(c.travel_speed),
        canon_f64(c.retract_len),
        canon_f64(c.retract_speed),
        canon_f64(c.hotend_temp),
        canon_f64(c.bed_temp),
        c.fan_duty,
        c.fan_from_layer,
        canon_f64(c.flow),
        canon_f64(spec.config.center.0),
        canon_f64(spec.config.center.1),
    )
}

/// The canonical key addressing one scenario's result: every input that
/// influences the outcome, spelled out. The workload enters as its
/// canonical spec JSON (not its label), the attack as its parsed spec
/// string, the detector suite as its full canonical policy string
/// ([`offramps::verdict::DetectorSuite::policy`] — so changing the
/// suite re-addresses every cached verdict), plus both seeds and the
/// format-version salt.
// detlint: allow(D7) -- perfbench/layers
pub fn scenario_key(
    workload_json: &str,
    attack: &str,
    golden_seed: u64,
    run_seed: u64,
    detector_policy: &str,
) -> String {
    format!(
        "{SCENARIO_KEY_PREFIX}workload={workload_json}|attack={attack}|golden_seed={golden_seed}|run_seed={run_seed}|detector={detector_policy}"
    )
}

/// Encodes a scenario's outcome as the store payload: every
/// deterministic field of [`ScenarioResult`] (host timing excluded),
/// plus the attack and workload label so store-wide analytics can group
/// records without re-deriving a campaign spec.
// detlint: allow(D7) -- perfbench/layers
pub fn encode_result(r: &ScenarioResult) -> String {
    thread_local! {
        /// The buffer each payload renders into, reused across payloads.
        static PAYLOAD: RefCell<String> = const { RefCell::new(String::new()) };
    }
    PAYLOAD.with_borrow_mut(|out| {
        out.clear();
        let mut w = ObjectWriter::new(out, 0);
        w.string("trojan", &r.scenario.trojan)
            .string("workload", &r.scenario.workload)
            .string("fw_state", &r.fw_state)
            .int("events", r.events as i128)
            .int("sim_ns", r.sim_ns as i128)
            .ints("fw_steps", &r.fw_steps);
        // The verdict fields go through the same writer as the report
        // JSON, so the payload can never drift from what
        // `ScenarioResult` serializes.
        r.write_verdict_fields(&mut w);
        w.finish();
        // One allocation, at the payload's final size.
        out.as_str().to_owned()
    })
}

fn field<'a, 'v>(v: &'a Value<'v>, key: &str) -> Result<&'a Value<'v>, String> {
    v.get(key).ok_or_else(|| format!("payload missing {key:?}"))
}

fn int_field(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("payload field {key:?} is not an integer"))
}

/// Decodes one entry of a payload's `evidence` array back into an
/// [`Evidence`] (strict: every present field must have the right type;
/// `threshold`, `final_totals_match` and `peak` may be absent — the
/// partial-evidence shape unjudged detectors produce).
fn decode_evidence(v: &Value) -> Result<Evidence, String> {
    let alarmed = match field(v, "alarmed")? {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        _ => return Err("evidence field \"alarmed\" is not bool/null".into()),
    };
    let threshold = match v.get("threshold") {
        None => None,
        Some(t) => Some(
            t.as_f64()
                .ok_or("evidence field \"threshold\" is not a number")?,
        ),
    };
    let final_totals_match = match v.get("final_totals_match") {
        None | Some(Value::Null) => None,
        Some(Value::Bool(b)) => Some(*b),
        Some(_) => return Err("evidence field \"final_totals_match\" is not bool/null".into()),
    };
    let peak = match v.get("peak") {
        None => 0.0,
        Some(p) => p
            .as_f64()
            .ok_or("evidence field \"peak\" is not a number")?,
    };
    Ok(Evidence {
        detector: field(v, "detector")?
            .as_str()
            .ok_or("evidence field \"detector\" is not a string")?
            .to_string(),
        alarmed,
        flagged: int_field(v, "flagged")? as usize,
        flagged_values: int_field(v, "flagged_values")? as usize,
        compared: int_field(v, "compared")? as usize,
        threshold,
        peak,
        final_totals_match,
    })
}

/// Decodes a payload's verdict and time-to-detection: the part of a
/// scenario record that [`decode_result`] and store-wide analytics
/// ([`crate::analytics::Observation::from_payload`]) both read.
///
/// Multi-detector payloads carry their full per-detector statistics in
/// the `evidence` array; transaction-only payloads (including every
/// record written before the suite API existed) reconstruct the
/// transaction judge's evidence from the legacy field names. Those
/// legacy fields have never included the judge's `peak` deviation — it
/// is not part of the transaction-only artifact contract — so decoded
/// evidence reconstructs `peak: 0.0`; every field that *does* appear in
/// the summary or JSON renders byte-identically.
///
/// # Errors
///
/// Reports the first missing or mistyped field.
// detlint: allow(D7) -- tests/fuzz_inputs.rs
pub fn decode_verdict(v: &Value) -> Result<(Verdict, Option<TimeToDetection>), String> {
    let detected = field(v, "detected")?
        .as_bool()
        .ok_or("payload field \"detected\" is not a bool")?;
    let evidence = match v.get("evidence") {
        Some(list) => list
            .as_array()
            .ok_or("payload field \"evidence\" is not an array")?
            .iter()
            .map(decode_evidence)
            .collect::<Result<Vec<_>, _>>()?,
        None => {
            // Pre-suite / transaction-only payload: the legacy fields
            // *are* the transaction judge's sufficient statistics, and
            // the fused verdict is its alarm.
            let final_totals_match = match field(v, "final_totals_match")? {
                Value::Null => None,
                Value::Bool(b) => Some(*b),
                _ => return Err("payload field \"final_totals_match\" is not bool/null".into()),
            };
            let threshold = match v.get("suspect_fraction") {
                None => None,
                Some(f) => Some(
                    f.as_f64()
                        .ok_or("payload field \"suspect_fraction\" is not a number")?,
                ),
            };
            vec![Evidence {
                detector: offramps::TransactionDetector::NAME.to_string(),
                alarmed: threshold.is_some().then_some(detected),
                flagged: int_field(v, "mismatched_transactions")? as usize,
                flagged_values: int_field(v, "mismatches")? as usize,
                compared: int_field(v, "transactions_compared")? as usize,
                threshold,
                peak: 0.0,
                final_totals_match,
            }]
        }
    };
    // Time-to-detection: written only by online campaigns whose fused
    // monitor alarmed mid-print. Absent from every pre-online record
    // (and from online clean runs), so a store warmed post-hoc decodes
    // with `ttd: None` — same verdict, no TTD line.
    let ttd = match v.get("ttd_step") {
        None => None,
        Some(step) => Some(TimeToDetection {
            alarm_step: step
                .as_u64()
                .ok_or("payload field \"ttd_step\" is not an integer")?,
            print_fraction: field(v, "ttd_print_fraction")?
                .as_f64()
                .ok_or("payload field \"ttd_print_fraction\" is not a number")?,
            material_saved: field(v, "ttd_material_saved")?
                .as_f64()
                .ok_or("payload field \"ttd_material_saved\" is not a number")?,
        }),
    };
    let verdict = Verdict {
        alarmed: detected,
        evidence,
    };
    Ok((verdict, ttd))
}

/// Decodes a store payload back into a [`ScenarioResult`] for the given
/// scenario slot (the verdict through [`decode_verdict`]). The decoded
/// result renders byte-identically to the fresh one in both the
/// summary table and the JSON report; only `wall_ms` (excluded from
/// both) is zeroed.
// detlint: allow(D7) -- perfbench/layers
pub fn decode_result(scenario: Scenario, payload: &str) -> Result<ScenarioResult, String> {
    let v = json::parse(payload)?;
    let steps = field(&v, "fw_steps")?
        .as_array()
        .ok_or("payload field \"fw_steps\" is not an array")?;
    if steps.len() != 4 {
        return Err(format!("fw_steps has {} entries", steps.len()));
    }
    let mut fw_steps = [0i64; 4];
    for (slot, step) in fw_steps.iter_mut().zip(steps) {
        *slot = step.as_i128().ok_or("fw_steps entry is not an integer")? as i64;
    }
    let (verdict, ttd) = decode_verdict(&v)?;
    Ok(ScenarioResult {
        scenario,
        fw_state: field(&v, "fw_state")?
            .as_str()
            .ok_or("payload field \"fw_state\" is not a string")?
            .to_string(),
        events: int_field(&v, "events")?,
        sim_ns: int_field(&v, "sim_ns")?,
        fw_steps,
        verdict,
        ttd,
        wall_ms: 0,
    })
}

/// Every scenario's store key, in matrix order.
pub(crate) fn scenario_keys(
    spec: &CampaignSpec,
    scenarios: &[Scenario],
    policy: &str,
) -> Vec<String> {
    let canon: BTreeMap<&str, String> = spec
        .workloads
        .iter()
        .map(|w| (w.label(), canonical_workload_json(w.spec())))
        .collect();
    scenarios
        .iter()
        .map(|sc| {
            scenario_key(
                &canon[sc.workload.as_str()],
                &sc.trojan,
                spec.golden_seed(&sc.workload),
                sc.seed,
                policy,
            )
        })
        .collect()
}

/// Decodes every scenario the store holds under `keys`, in matrix
/// order; `None` marks a miss (absent or undecodable record). The reads
/// and decodes fan out over `threads` workers; each scenario's result
/// depends only on its own record, so the output does not depend on
/// `threads`.
pub(crate) fn lookup(
    store: &Store,
    spec: &CampaignSpec,
    scenarios: &[Scenario],
    keys: &[String],
    threads: usize,
    obs: &Obs,
) -> Vec<Option<ScenarioResult>> {
    let decode_start = obs.clock_micros();
    let wanted: Vec<(&Scenario, &String)> = scenarios.iter().zip(keys).collect();
    let results = parallel_map(&wanted, threads, |&(sc, key)| {
        let mut r = decode_result(sc.clone(), store.get(key)?).ok()?;
        // Scenario keys are online-agnostic, so an online-warmed
        // store can serve a post-hoc campaign — which must keep its
        // pre-online artifact shape byte for byte: stored
        // time-to-detection marks ride along only when this
        // campaign judges online too.
        if !spec.online {
            r.ttd = None;
        }
        Some(r)
    });
    obs.record_span("campaign", None, "decode", decode_start, obs.clock_micros());
    results
}

/// Records the store's effectiveness for one campaign (`store.hits` /
/// `store.misses` / `store.appends`, `campaign.scenarios_decoded`) and
/// its open-time shard-scan rollup. All of it is a pure function of the
/// store state and the spec, so the metrics document stays
/// deterministic.
pub(crate) fn record_store_metrics(store: &Store, stats: CacheStats, obs: &Obs) {
    if !obs.is_enabled() {
        return;
    }
    obs.count("store.hits", stats.hits as u64);
    obs.count("store.misses", stats.misses as u64);
    // Fresh results are appended, one record per miss.
    obs.count("store.appends", stats.misses as u64);
    obs.count("campaign.scenarios_decoded", stats.hits as u64);
    record_scan_metrics(store, obs);
}

/// Records the store's open-time shard-scan rollup (`store.scan.*` —
/// lines walked, records, superseded rewrites, torn and foreign lines
/// skipped).
pub fn record_scan_metrics(store: &Store, obs: &Obs) {
    let scan = store.scan_stats();
    obs.count("store.scan.lines", scan.lines as u64);
    obs.count("store.scan.records", scan.records as u64);
    obs.count("store.scan.superseded", scan.superseded as u64);
    obs.count("store.scan.torn", scan.torn as u64);
    obs.count("store.scan.foreign", scan.foreign as u64);
}

/// Writes the campaign-level provenance record: one `campaign@1` record
/// per campaign run, content-addressed by the spec, so warm reruns
/// rewrite it in place — `offramps-cli analytics` lists these.
pub(crate) fn put_provenance(
    store: &mut Store,
    spec: &CampaignSpec,
    policy: &str,
    scenarios: usize,
) -> Result<(), String> {
    let workload_labels: Vec<&str> = spec.workloads.iter().map(Workload::label).collect();
    store
        .put(
            &campaign_key(spec, policy, &workload_labels.join(",")),
            &encode_campaign(spec, policy, scenarios),
        )
        .map_err(|e| format!("cannot append campaign provenance: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;
    use offramps_gcode::slicer::SlicerConfig;

    #[test]
    fn canonical_json_distinguishes_specs_and_is_stable() {
        let a = Workload::mini();
        let b = Workload::standard();
        assert_eq!(
            canonical_workload_json(a.spec()),
            canonical_workload_json(a.spec())
        );
        assert_ne!(
            canonical_workload_json(a.spec()),
            canonical_workload_json(b.spec())
        );
        // It is valid JSON on our own parser.
        let text = canonical_workload_json(a.spec());
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("copies").unwrap().as_u64(), Some(1));
        assert_eq!(
            v.get("config").unwrap().get("perimeters").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn canonical_json_reacts_to_every_knob_group() {
        let base = WorkloadSpec::single(Solid::rect_prism(5.0, 5.0, 0.6), SlicerConfig::fast());
        let base_json = canonical_workload_json(&base);
        let mut geometry = base.clone();
        geometry.solid = Solid::rect_prism(5.0, 5.5, 0.6);
        let mut profile = base.clone();
        profile.config.flow = 1.05;
        let mut plate = base.clone();
        plate.copies = 2;
        plate.spacing = 11.0;
        for (name, spec) in [
            ("geometry", geometry),
            ("profile", profile),
            ("plate", plate),
        ] {
            assert_ne!(base_json, canonical_workload_json(&spec), "{name}");
        }
    }

    #[test]
    fn scenario_keys_separate_every_input() {
        let w = canonical_workload_json(Workload::mini().spec());
        let policy = CampaignSpec::default_matrix(0).suite().unwrap().policy();
        let base = scenario_key(&w, "t2", 1, 2, &policy);
        assert_ne!(base, scenario_key(&w, "t2:0.5", 1, 2, &policy));
        assert_ne!(base, scenario_key(&w, "t2", 3, 2, &policy));
        assert_ne!(base, scenario_key(&w, "t2", 1, 4, &policy));
        assert_ne!(base, scenario_key(&w, "t2", 1, 2, "other policy"));
        assert!(is_scenario_key(&base));
        assert!(!is_scenario_key("offramps-scenario/v0|stale"));
        // The allocation-free prefix stays in step with the salt.
        assert_eq!(
            SCENARIO_KEY_PREFIX,
            format!("offramps-scenario/v{SCENARIO_KEY_VERSION}|")
        );
    }

    #[test]
    fn result_payload_round_trips_exactly() {
        let scenario = Scenario {
            index: 3,
            trojan: "t5:200@2".into(),
            workload: "gen-001".into(),
            run: 0,
            seed: u64::MAX - 17, // exercises > 2^53 integers
        };
        let txn_evidence = Evidence {
            detector: "txn".into(),
            alarmed: Some(true),
            flagged: 17,
            flagged_values: 28,
            compared: 70,
            threshold: Some(0.04),
            peak: 0.0,
            final_totals_match: Some(false),
        };
        let original = ScenarioResult {
            scenario: scenario.clone(),
            fw_state: "Finished".into(),
            events: 123_456_789_012,
            sim_ns: 34_300_000_000,
            fw_steps: [-12, 0, 240, 666],
            verdict: Verdict {
                alarmed: true,
                evidence: vec![txn_evidence.clone()],
            },
            ttd: None,
            wall_ms: 999, // must NOT survive: host timing is not cached
        };
        let decoded = decode_result(scenario, &encode_result(&original)).unwrap();
        assert_eq!(decoded.suspect_fraction(), original.suspect_fraction());
        assert_eq!(decoded.fw_steps, original.fw_steps);
        assert_eq!(decoded.summary_line(), original.summary_line());
        assert_eq!(decoded.to_json(), original.to_json());
        assert_eq!(decoded.wall_ms, 0);

        // Unjudged (error) scenarios: suspect_fraction stays absent.
        let error = ScenarioResult {
            verdict: Verdict {
                alarmed: false,
                evidence: vec![Evidence::unjudged("txn")],
            },
            fw_state: "error: thermal runaway".into(),
            ..original.clone()
        };
        let payload = encode_result(&error);
        assert!(!payload.contains("suspect_fraction"), "{payload}");
        let decoded = decode_result(error.scenario.clone(), &payload).unwrap();
        assert_eq!(decoded.suspect_fraction(), None);
        assert_eq!(decoded.to_json(), error.to_json());

        // A `fw_state` that needs escaping decodes through the parser's
        // owned-string branch, not the borrowed one.
        let awkward = ScenarioResult {
            fw_state: "error: \"stall\" at C:\\fw\ttemp 215 °C — naïve 😀".into(),
            ..original.clone()
        };
        let payload = encode_result(&awkward);
        assert!(
            payload.contains("\\\"stall\\\" at C:\\\\fw\\t"),
            "{payload}"
        );
        let decoded = decode_result(awkward.scenario.clone(), &payload).unwrap();
        assert_eq!(decoded.fw_state, awkward.fw_state);
        assert_eq!(decoded.summary_line(), awkward.summary_line());
        assert_eq!(decoded.to_json(), awkward.to_json());

        // Multi-detector verdicts ride their full statistics in the
        // evidence array — including partially judged suites.
        let multi = ScenarioResult {
            verdict: Verdict {
                alarmed: true,
                evidence: vec![
                    Evidence {
                        peak: 37.5,
                        ..txn_evidence
                    },
                    Evidence {
                        detector: "power".into(),
                        alarmed: Some(false),
                        flagged: 2,
                        flagged_values: 2,
                        compared: 41,
                        threshold: Some(0.15),
                        peak: 0.625,
                        final_totals_match: None,
                    },
                ],
            },
            ..original.clone()
        };
        let payload = encode_result(&multi);
        assert!(payload.contains("\"evidence\""), "{payload}");
        let decoded = decode_result(multi.scenario.clone(), &payload).unwrap();
        assert_eq!(decoded.verdict, multi.verdict, "evidence round-trips");
        assert_eq!(decoded.to_json(), multi.to_json());

        // A partially judged suite (power stream missing) keeps the
        // unjudged evidence's absent fields absent.
        let partial = ScenarioResult {
            verdict: Verdict {
                alarmed: true,
                evidence: vec![
                    multi.verdict.evidence[0].clone(),
                    Evidence::unjudged("power"),
                ],
            },
            ..original
        };
        let payload = encode_result(&partial);
        let decoded = decode_result(partial.scenario.clone(), &payload).unwrap();
        assert_eq!(decoded.verdict, partial.verdict);
        assert_eq!(decoded.to_json(), partial.to_json());

        // Online results carry their time-to-detection — and only then:
        // a post-hoc payload must not grow the fields.
        assert!(!payload.contains("ttd_"), "{payload}");
        let online = ScenarioResult {
            ttd: Some(offramps::TimeToDetection {
                alarm_step: 42,
                print_fraction: 0.125,
                material_saved: 0.8753,
            }),
            ..partial
        };
        let payload = encode_result(&online);
        assert!(payload.contains("\"ttd_step\": 42"), "{payload}");
        let decoded = decode_result(online.scenario.clone(), &payload).unwrap();
        assert_eq!(decoded.ttd, online.ttd, "TTD round-trips");
        assert_eq!(decoded.to_json(), online.to_json());
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let scenario = Scenario {
            index: 0,
            trojan: "none".into(),
            workload: "mini".into(),
            run: 0,
            seed: 1,
        };
        assert!(decode_result(scenario.clone(), "{}").is_err());
        assert!(decode_result(scenario, "not json").is_err());
    }

    /// A scenario result for store fixtures: `alarmed` marks its one
    /// transaction evidence.
    fn stored_result(index: usize, trojan: &str, alarmed: bool) -> ScenarioResult {
        ScenarioResult {
            scenario: Scenario {
                index,
                trojan: trojan.into(),
                workload: "mini".into(),
                run: 0,
                seed: index as u64,
            },
            fw_state: "Finished".into(),
            events: 1_000 + index as u64,
            sim_ns: 2_000,
            fw_steps: [1, 2, 3, 4],
            verdict: Verdict {
                alarmed,
                evidence: vec![Evidence {
                    detector: "txn".into(),
                    alarmed: Some(alarmed),
                    flagged: usize::from(alarmed) * 9,
                    flagged_values: usize::from(alarmed) * 12,
                    compared: 70,
                    threshold: Some(0.01),
                    peak: 0.0,
                    final_totals_match: Some(!alarmed),
                }],
            },
            ttd: None,
            wall_ms: 0,
        }
    }

    /// The pool that reads and decodes the hits hands back what one
    /// thread does: hits, misses and undecodable records alike, in
    /// matrix order.
    #[test]
    fn lookup_is_thread_invariant() {
        let root =
            std::env::temp_dir().join(format!("offramps-cache-lookup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = Store::open(&root).unwrap();
        let spec = CampaignSpec::default_matrix(7);
        let scenarios = spec.scenarios().unwrap();
        let keys: Vec<String> = scenarios
            .iter()
            .map(|sc| format!("{SCENARIO_KEY_PREFIX}{}", sc.index))
            .collect();
        for (sc, key) in scenarios.iter().zip(&keys) {
            match sc.index % 4 {
                0 => {}
                1 => store.put(key, "{\"trojan\": ").unwrap(),
                _ => {
                    let r = stored_result(sc.index, &sc.trojan, sc.index % 3 == 0);
                    store.put(key, &encode_result(&r)).unwrap();
                }
            }
        }
        let decoded = |threads| {
            let results = lookup(&store, &spec, &scenarios, &keys, threads, &Obs::disabled());
            let payloads = results.iter().map(|r| r.as_ref().map(encode_result));
            payloads.collect::<Vec<_>>()
        };
        let one = decoded(1);
        let hits: Vec<usize> = (0..one.len()).filter(|&i| one[i].is_some()).collect();
        let want: Vec<usize> = scenarios
            .iter()
            .filter(|sc| sc.index % 4 >= 2)
            .map(|sc| sc.index)
            .collect();
        assert_eq!(hits, want);
        assert_eq!(decoded(4), one);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// One pass over a store holding every kind of record yields what
    /// the separate observation and provenance scans used to.
    #[test]
    fn read_store_sorts_every_kind_of_record_in_one_pass() {
        let root = std::env::temp_dir().join(format!("offramps-cache-read-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = Store::open(&root).unwrap();
        let results: Vec<ScenarioResult> = ["none", "t2", "flaw3d-r50", "t5:200@2"]
            .iter()
            .enumerate()
            .map(|(i, trojan)| stored_result(i, trojan, i > 0))
            .collect();
        let mut scenario_keys = Vec::new();
        for r in &results {
            let key = format!("{SCENARIO_KEY_PREFIX}{}", r.scenario.trojan);
            store.put(&key, &encode_result(r)).unwrap();
            scenario_keys.push((offramps_store::Fingerprint::of(&key), r));
        }
        let policy = "txn{suspect_fraction=0.01}";
        for seed in [7, 8] {
            let spec = CampaignSpec::default_matrix(seed);
            put_provenance(&mut store, &spec, policy, 15).unwrap();
        }
        // Foreign and previous-generation records, two undecodable
        // scenario payloads and one undecodable campaign record.
        store.put("someone-else|k", "v").unwrap();
        store.put("offramps-scenario/v0|old", "{}").unwrap();
        store
            .put(&format!("{SCENARIO_KEY_PREFIX}torn"), "{\"trojan\": ")
            .unwrap();
        store
            .put(&format!("{SCENARIO_KEY_PREFIX}empty"), "{}")
            .unwrap();
        store
            .put(&format!("{CAMPAIGN_KEY_PREFIX}junk"), "[]")
            .unwrap();

        let contents = read_store(&store);
        scenario_keys.sort_by_key(|(fp, _)| *fp);
        let expected: Vec<_> = scenario_keys
            .iter()
            .map(|(_, r)| crate::analytics::Observation::from_result(r))
            .collect();
        assert_eq!(contents.observations, expected, "fingerprint order");
        assert_eq!(contents.skipped, 4, "campaign records are never skipped");
        let mut seeds: Vec<(offramps_store::Fingerprint, u64)> = [7, 8]
            .iter()
            .map(|&seed| {
                let spec = CampaignSpec::default_matrix(seed);
                let labels: Vec<&str> = spec.workloads.iter().map(Workload::label).collect();
                let key = campaign_key(&spec, policy, &labels.join(","));
                (offramps_store::Fingerprint::of(&key), seed)
            })
            .collect();
        seeds.sort();
        let got: Vec<u64> = contents.campaigns.iter().map(|c| c.master_seed).collect();
        assert_eq!(got, seeds.iter().map(|(_, s)| *s).collect::<Vec<_>>());
        assert!(contents
            .campaigns
            .iter()
            .all(|c| c.policy == policy && c.scenarios == 15 && !c.sweep));

        // The separate scans `read_store` replaces: scenario records
        // (campaign records passed over), then campaign records alone.
        let (all, unreadable) = store.records(|k, v| (k.to_string(), v.to_string()));
        assert_eq!(unreadable, 0);
        let mut observations = Vec::new();
        let mut skipped = 0usize;
        for (key, value) in &all {
            if is_campaign_key(key) {
                continue;
            }
            if !is_scenario_key(key) {
                skipped += 1;
                continue;
            }
            match json::parse(value).and_then(|v| crate::analytics::Observation::from_payload(&v)) {
                Ok(obs) => observations.push(obs),
                Err(_) => skipped += 1,
            }
        }
        let campaigns: Vec<CampaignProvenance> = all
            .iter()
            .filter(|(key, _)| is_campaign_key(key))
            .filter_map(|(_, payload)| decode_campaign(payload).ok())
            .collect();
        assert_eq!(
            contents,
            StoreContents {
                observations,
                skipped,
                campaigns
            }
        );
        assert_eq!(store_observations(&store), (contents.observations, 4));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Scenario records whose shard log was replaced after the store
    /// opened are counted as skipped, not dropped from the tally.
    #[test]
    fn records_lost_behind_the_open_store_count_as_skipped() {
        let root = std::env::temp_dir().join(format!("offramps-cache-lost-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = Store::open(&root).unwrap();
        let trojans = ["none", "t2", "flaw3d-r50", "t5:200@2", "t1", "t3"];
        let keys: Vec<String> = trojans
            .iter()
            .enumerate()
            .map(|(i, trojan)| {
                let key = format!("{SCENARIO_KEY_PREFIX}{trojan}");
                store
                    .put(&key, &encode_result(&stored_result(i, trojan, i > 0)))
                    .unwrap();
                key
            })
            .collect();
        let store = Store::open(&root).unwrap();
        // A shard log is named by its records' two leading hex digits.
        let shard = |key: &str| offramps_store::Fingerprint::of(key).hex()[..2].to_string();
        let lost = keys.iter().filter(|k| shard(k) == shard(&keys[0])).count();
        let log = root.join("shards").join(format!("{}.log", shard(&keys[0])));
        std::fs::write(log, "rewritten\n").unwrap();
        let contents = read_store(&store);
        assert_eq!(contents.skipped, lost);
        assert_eq!(contents.observations.len(), keys.len() - lost);
        assert!(contents.observations.iter().all(|o| o.attack != "none"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A scenario record whose payload nests far past the parser's cap
    /// is skipped like any undecodable payload, not a stack overflow.
    #[test]
    fn deeply_nested_payload_is_skipped() {
        let root = std::env::temp_dir().join(format!("offramps-cache-deep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = Store::open(&root).unwrap();
        store
            .put(&format!("{SCENARIO_KEY_PREFIX}deep"), &"[".repeat(200_000))
            .unwrap();
        let (observations, skipped) = store_observations(&store);
        assert!(observations.is_empty());
        assert_eq!(skipped, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
