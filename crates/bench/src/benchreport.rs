//! The pinned benchmark trajectory: a machine-readable record of the
//! campaign hot path's performance, regenerated by `offramps-cli bench`
//! and committed in-repo as `BENCH_campaign.json`.
//!
//! The measured workload is frozen — the **pinned sweep**: the full
//! attack-parameter sweep grid over the `mini` workload plus a
//! 4-workload generated corpus, master seed 42, single-threaded. Its
//! scenario and event counts are deterministic (the simulator is), so
//! they double as a regression gate: a report whose counts drift from
//! [`PINNED_SCENARIOS`]/[`PINNED_EVENTS`] means behaviour changed, not
//! just speed, and [`run_bench`] refuses to produce a trajectory entry
//! from it.
//!
//! Each report carries one **recorded** baseline entry — the pre-batch
//! kernel (solo scheduler per scenario, `BinaryHeap` event queue)
//! measured at one thread — and fresh **measured** entries for the
//! current calendar kernel at one thread and at the requested thread
//! count, with median wall clock and throughput over a configurable
//! number of repetitions. The headline `speedup_wall` /
//! `speedup_throughput` compare the one-thread entry against the
//! recorded baseline, which ran at one thread too.

use crate::campaign::{run_campaign, sweep_attacks, CampaignOptions, CampaignSpec};
use crate::corpus::CorpusSpec;
use crate::json::{number, ObjectWriter, ToJson};
use crate::workloads::Workload;

/// Master seed of the pinned sweep (the campaign default).
pub const PINNED_SEED: u64 = 42;

/// Generated corpus workloads appended to `mini` in the pinned sweep.
pub const PINNED_CORPUS: u32 = 4;

/// Scenario count of the pinned sweep: 33 sweep attacks across 5
/// workloads. Any other count fails [`run_bench`].
pub const PINNED_SCENARIOS: usize = 165;

/// Total simulated events of the pinned sweep — identical for every
/// thread count. Any other total fails
/// [`run_bench`].
pub const PINNED_EVENTS: u64 = 69_887_995;

/// Recorded pre-batch baseline: median wall seconds of the pinned
/// sweep on the reference box, measured on the last pre-batch revision
/// (solo scheduler per scenario, `BinaryHeap` event queue), at one
/// thread.
pub const BASELINE_WALL_S: f64 = 4.89;

/// Recorded pre-batch baseline: median events per second matching
/// [`BASELINE_WALL_S`].
pub const BASELINE_EVENTS_PER_SEC: f64 = 14_293_854.0;

/// The frozen campaign spec every trajectory entry measures.
pub fn pinned_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::default_matrix(PINNED_SEED);
    spec.trojans = sweep_attacks();
    spec.workloads = vec![Workload::mini()];
    spec.workloads
        .extend(CorpusSpec::new(PINNED_CORPUS).expand(PINNED_SEED));
    spec
}

/// One trajectory entry: a named kernel configuration with its median
/// timing over `reps` runs of the pinned sweep.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Entry name (`"baseline"`, or `"solo_t<threads>"` when measured).
    pub name: String,
    /// Human-readable kernel description.
    pub engine: String,
    /// Worker threads the entry ran with.
    pub threads: usize,
    /// `true` for the recorded pre-batch baseline (not re-measured),
    /// `false` for entries measured by this report.
    pub recorded: bool,
    /// Median wall-clock seconds for one full pinned sweep.
    pub wall_s: f64,
    /// Median simulated events per wall-clock second.
    pub events_per_sec: f64,
    /// Repetitions the median was taken over.
    pub reps: usize,
    /// Every repetition's wall seconds, in run order.
    pub samples: Vec<f64>,
}

impl ToJson for BenchEntry {
    fn write_json(&self, out: &mut String, indent: usize) {
        let mut obj = ObjectWriter::new(out, indent);
        obj.string("name", &self.name)
            .string("engine", &self.engine)
            .int("threads", self.threads as i128)
            .bool("recorded", self.recorded)
            .float("wall_s", self.wall_s)
            .float("events_per_sec", self.events_per_sec)
            .int("reps", self.reps as i128);
        let samples: Vec<String> = self.samples.iter().map(|&s| number(s)).collect();
        obj.raw("samples", &format!("[{}]", samples.join(", ")));
        obj.finish();
    }
}

/// The full trajectory report serialized to `BENCH_campaign.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The largest thread count a measured entry ran with.
    pub threads: usize,
    /// Scenario count of the pinned sweep (deterministic).
    pub scenarios: usize,
    /// Total simulated events of the pinned sweep (deterministic).
    pub events: u64,
    /// Recorded baseline plus freshly measured entries.
    pub entries: Vec<BenchEntry>,
    /// One-thread wall-clock speedup over the recorded baseline.
    pub speedup_wall: f64,
    /// One-thread throughput speedup over the recorded baseline.
    pub speedup_throughput: f64,
}

impl ToJson for BenchReport {
    fn write_json(&self, out: &mut String, indent: usize) {
        let mut obj = ObjectWriter::new(out, indent);
        obj.string("bench", "campaign_sweep_hot_path")
            .int("master_seed", PINNED_SEED as i128)
            .int("threads", self.threads as i128)
            .int("scenarios", self.scenarios as i128)
            .int("events", self.events as i128)
            .float("speedup_wall", self.speedup_wall)
            .float("speedup_throughput", self.speedup_throughput);
        let mut entries = String::from("[");
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                entries.push_str(", ");
            }
            entry.write_json(&mut entries, indent + 2);
        }
        entries.push(']');
        obj.raw("entries", &entries);
        obj.finish();
    }
}

/// The recorded pre-batch baseline entry every report starts from.
pub fn baseline_entry() -> BenchEntry {
    BenchEntry {
        name: "baseline".into(),
        engine: "pre-batch (solo scheduler per scenario, BinaryHeap queue)".into(),
        threads: 1,
        recorded: true,
        wall_s: BASELINE_WALL_S,
        events_per_sec: BASELINE_EVENTS_PER_SEC,
        reps: 3,
        samples: Vec::new(),
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    samples[samples.len() / 2]
}

/// Runs the pinned sweep `reps` times at one thread and, when
/// `threads > 1`, `reps` times at `threads`, and returns the trajectory
/// report: the recorded baseline entry plus one measured entry per
/// thread count.
///
/// # Errors
///
/// Reports a campaign failure, or a scenario/event-count drift from the
/// pinned values — counts are deterministic, so drift means the
/// simulation changed behaviour and the trajectory must not silently
/// absorb it.
pub fn run_bench(threads: usize, reps: usize) -> Result<BenchReport, String> {
    let reps = reps.max(1);
    let threads = threads.max(1);
    let spec = pinned_spec();
    let planned = spec.scenarios()?.len();
    if planned != PINNED_SCENARIOS {
        return Err(format!(
            "pinned sweep expanded to {planned} scenarios, expected {PINNED_SCENARIOS}"
        ));
    }

    // Reps are interleaved across thread counts (1, N, 1, N, ...)
    // rather than one count at a time: host clock drift on shared boxes
    // is monotone over minutes, and a blocked order would
    // systematically penalize whichever configuration runs second.
    let mut counts = vec![1];
    if threads > 1 {
        counts.push(threads);
    }
    let mut walls = vec![Vec::new(); counts.len()];
    let mut rates = vec![Vec::new(); counts.len()];
    for _ in 0..reps {
        for (slot, &n) in counts.iter().enumerate() {
            let (report, _) = run_campaign(&spec, CampaignOptions::threads(n))?;
            let events = report.total_events();
            if events != PINNED_EVENTS {
                return Err(format!(
                    "pinned sweep simulated {events} events, expected {PINNED_EVENTS} \
                     ({n} threads) — behaviour changed, not just speed"
                ));
            }
            walls[slot].push(report.wall_s);
            rates[slot].push(report.events_per_sec());
        }
    }
    let mut entries = vec![baseline_entry()];
    for (slot, &n) in counts.iter().enumerate() {
        let samples = walls[slot].clone();
        entries.push(BenchEntry {
            name: format!("solo_t{n}"),
            engine: "solo scheduler per scenario (calendar kernel)".into(),
            threads: n,
            recorded: false,
            wall_s: median(&mut walls[slot]),
            events_per_sec: median(&mut rates[slot]),
            reps,
            samples,
        });
    }

    let one_thread = &entries[1];
    let speedup_wall = BASELINE_WALL_S / one_thread.wall_s;
    let speedup_throughput = one_thread.events_per_sec / BASELINE_EVENTS_PER_SEC;
    Ok(BenchReport {
        threads,
        scenarios: PINNED_SCENARIOS,
        events: PINNED_EVENTS,
        entries,
        speedup_wall,
        speedup_throughput,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn pinned_spec_expands_to_the_pinned_scenario_count() {
        let spec = pinned_spec();
        assert_eq!(spec.scenarios().unwrap().len(), PINNED_SCENARIOS);
        assert_eq!(spec.master_seed, PINNED_SEED);
        assert_eq!(spec.workloads.len(), 1 + PINNED_CORPUS as usize);
        assert_eq!(spec.trojans, sweep_attacks());
    }

    #[test]
    fn report_json_round_trips_through_the_strict_parser() {
        let report = BenchReport {
            threads: 1,
            scenarios: PINNED_SCENARIOS,
            events: PINNED_EVENTS,
            entries: vec![
                baseline_entry(),
                BenchEntry {
                    name: "solo_t1".into(),
                    engine: "solo scheduler per scenario (calendar kernel)".into(),
                    threads: 1,
                    recorded: false,
                    wall_s: 3.5,
                    events_per_sec: 2.0e7,
                    reps: 2,
                    samples: vec![3.6, 3.5],
                },
            ],
            speedup_wall: BASELINE_WALL_S / 3.5,
            speedup_throughput: 2.0e7 / BASELINE_EVENTS_PER_SEC,
        };
        let text = json::to_string_pretty(&report);
        let value = json::parse(&text).expect("report JSON parses strictly");
        assert_eq!(value.get("scenarios").unwrap().as_u64(), Some(165));
        assert_eq!(value.get("events").unwrap().as_u64(), Some(PINNED_EVENTS));
        let entries = value.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("name").unwrap().as_str(), Some("baseline"));
        assert_eq!(entries[0].get("recorded").unwrap().as_bool(), Some(true));
        assert_eq!(entries[1].get("recorded").unwrap().as_bool(), Some(false));
        assert_eq!(entries[1].get("threads").unwrap().as_u64(), Some(1));
        assert!(value.get("speedup_wall").unwrap().as_f64().unwrap() > 1.0);
    }

    #[test]
    fn median_is_order_insensitive() {
        let mut a = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut a), 2.0);
        let mut b = vec![2.0, 2.0, 9.0, 1.0];
        assert_eq!(median(&mut b), 2.0);
    }
}
