//! The observability plane's contract, pinned end to end:
//!
//! * the rendered metrics document is **byte-identical** across worker
//!   thread counts — every counter and histogram is a pure function of
//!   the spec, and the workers' updates to the one shared registry are
//!   order-independent (sums, minima, maxima);
//! * attaching the plane (enabled or disabled, tracing or not) never
//!   perturbs the campaign artifact itself — summary and JSON stay
//!   byte-equal to the default path;
//! * host time rides only in the timing sidecar, as phase spans beside
//!   the per-scenario wall times, never in the metrics document;
//! * the flight recorder narrates the pinned mid-print catches — the
//!   cadence-breaking flow Trojan is the acoustic judge's window-290
//!   alarm at master seeds 42 **and** 7, matching `tests/online_pins.rs`.

use offramps_bench::campaign::{run_campaign, CampaignOptions, CampaignSpec};
use offramps_bench::json::{self, ToJson, Value};
use offramps_bench::workloads::Workload;
use offramps_obs::Obs;

/// Campaign options with the observability plane attached.
fn observed(threads: usize, obs: &Obs, trace_alarms: bool) -> CampaignOptions<'_> {
    CampaignOptions {
        obs,
        trace_alarms,
        ..CampaignOptions::threads(threads)
    }
}

const QUAD: [&str; 4] = ["txn", "power", "acoustic", "thermal"];

fn online_quad(master_seed: u64) -> CampaignSpec {
    CampaignSpec {
        trojans: vec![
            "none".into(),
            "t2:0.9".into(),
            "tx2:bed@8".into(),
            "tx1".into(),
        ],
        workloads: vec![Workload::mini()],
        detectors: QUAD.iter().map(|s| s.to_string()).collect(),
        online: true,
        ..CampaignSpec::default_matrix(master_seed)
    }
}

#[test]
fn metrics_document_is_identical_across_threads() {
    let spec = online_quad(42);

    let mut baseline: Option<(String, String)> = None;
    for threads in [1, 4] {
        let obs = Obs::enabled();
        let (report, _) = run_campaign(&spec, observed(threads, &obs, false)).expect("valid spec");
        let metrics = obs.metrics_json().expect("enabled handle renders");
        let artifact = report.to_json();
        match &baseline {
            None => baseline = Some((metrics, artifact)),
            Some((m0, a0)) => {
                assert_eq!(m0, &metrics, "metrics drifted at {threads} threads");
                assert_eq!(a0, &artifact, "artifact drifted at {threads} threads");
            }
        }
    }

    let (metrics, _) = baseline.unwrap();
    // The document carries every layer's rollup.
    for key in [
        "campaign.scenarios_simulated",
        "kernel.events_committed",
        "kernel.wake_dedups",
        "verdict.online.windows_judged",
        "verdict.online.votes",
        "verdict.acoustic.margin_micros",
        "verdict.fused_alarms",
    ] {
        assert!(metrics.contains(&format!("\"{key}\"")), "missing {key}");
    }
}

#[test]
fn tracing_never_perturbs_the_metrics_or_the_artifact() {
    let spec = online_quad(42);
    let quiet = Obs::enabled();
    let (report_q, _) = run_campaign(&spec, observed(2, &quiet, false)).expect("valid spec");
    let traced = Obs::enabled();
    let (report_t, _) = run_campaign(&spec, observed(2, &traced, true)).expect("valid spec");

    assert_eq!(report_q.summary(), report_t.summary());
    assert_eq!(report_q.to_json(), report_t.to_json());
    assert_eq!(
        quiet.metrics_json(),
        traced.metrics_json(),
        "the flight recorder must observe, not perturb"
    );
    assert!(quiet.traces().is_empty(), "no narration without the flag");
    assert!(!traced.traces().is_empty(), "tracing must narrate alarms");
}

#[test]
fn disabled_plane_is_a_byte_level_no_op() {
    let spec = online_quad(42);
    let (default_path, _) = run_campaign(&spec, CampaignOptions::threads(2)).expect("valid spec");

    let off = Obs::disabled();
    let (observed_off, _) = run_campaign(&spec, observed(2, &off, false)).expect("valid spec");
    assert_eq!(default_path.summary(), observed_off.summary());
    assert_eq!(default_path.to_json(), observed_off.to_json());
    assert!(
        off.metrics_json().is_none(),
        "disabled handle renders nothing"
    );
    assert!(off.traces().is_empty());

    // An *enabled* plane watches the same run without touching it.
    let on = Obs::enabled();
    let (observed_on, _) = run_campaign(&spec, observed(2, &on, false)).expect("valid spec");
    assert_eq!(default_path.summary(), observed_on.summary());
    assert_eq!(default_path.to_json(), observed_on.to_json());
}

#[test]
fn timing_sidecar_carries_spans_and_scenarios_only() {
    let spec = online_quad(42);
    let obs = Obs::enabled();
    let (report, _) = run_campaign(&spec, observed(2, &obs, false)).expect("valid spec");

    let sidecar = report.timing_json(&obs);
    let doc = json::parse(&sidecar).expect("sidecar is JSON");
    let Value::Obj(pairs) = &doc else {
        panic!("sidecar is an object: {sidecar}")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_ref()).collect();
    assert_eq!(
        keys,
        ["threads", "wall_s", "events_per_sec", "spans", "scenarios"],
        "{sidecar}"
    );
    let labels: Vec<&str> = doc
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans is an array")
        .iter()
        .filter_map(|span| span.get("label").and_then(Value::as_str))
        .collect();
    for phase in ["slice", "golden", "simulate", "judge"] {
        assert!(labels.contains(&phase), "missing span {phase}: {sidecar}");
    }

    // Without a handle the sidecar keeps its pre-plane shape: no spans
    // and no metric.
    let plain = report.timing_json(&Obs::disabled());
    assert!(
        !plain.contains("spans") && !plain.contains("metrics"),
        "{plain}"
    );
}

#[test]
fn flight_recorder_narrates_the_pinned_acoustic_catch() {
    for master_seed in [42u64, 7] {
        let spec = online_quad(master_seed);
        let obs = Obs::enabled();
        run_campaign(&spec, observed(2, &obs, true)).expect("valid spec");
        let traces = obs.traces();

        // Exactly the three attacked scenarios alarm; the clean reprint
        // stays silent.
        assert_eq!(traces.len(), 3, "seed {master_seed}: {traces:?}");
        assert!(
            !traces
                .values()
                .any(|t| t.first().is_some_and(|h| h.contains("mini/none"))),
            "seed {master_seed}: the clean reprint must not narrate an alarm"
        );

        let flow = traces
            .values()
            .find(|t| t.first().is_some_and(|h| h.contains("mini/t2:0.9")))
            .unwrap_or_else(|| panic!("seed {master_seed}: flow-Trojan trace recorded"));

        // Header: the pinned window-290 catch (tests/online_pins.rs).
        assert!(
            flow[0].contains("ALARM at window 290"),
            "seed {master_seed}: alarm window drifted: {}",
            flow[0]
        );
        // The alarm window itself: the acoustic judge casts the vote
        // that crosses the fused threshold.
        let alarm_line = flow
            .iter()
            .find(|l| l.contains("window 290:"))
            .unwrap_or_else(|| panic!("seed {master_seed}: alarm window narrated: {flow:?}"));
        assert!(alarm_line.contains("acoustic"), "{alarm_line}");
        assert!(alarm_line.contains("-> VOTE"), "{alarm_line}");
        assert!(alarm_line.contains("-> ALARM"), "{alarm_line}");
        // The recorder keeps the run-up: the windows just before the
        // alarm ride along, none of them already alarmed.
        let windows: Vec<&String> = flow
            .iter()
            .filter(|l| l.trim_start().starts_with("window "))
            .collect();
        assert!(
            (2..=offramps_bench::campaign::FLIGHT_RECORDER_WINDOWS).contains(&windows.len()),
            "seed {master_seed}: {windows:?}"
        );
        assert!(
            windows[..windows.len() - 1]
                .iter()
                .all(|l| !l.contains("-> ALARM")),
            "seed {master_seed}: only the final recorded window alarms: {windows:?}"
        );
        // The tail accounts for the halt.
        assert!(
            flow.last().unwrap().contains("halt: print"),
            "seed {master_seed}: {flow:?}"
        );

        // Narration is thread-invariant, like everything else.
        let again = Obs::enabled();
        run_campaign(&spec, observed(4, &again, true)).expect("valid spec");
        assert_eq!(
            traces,
            again.traces(),
            "seed {master_seed}: traces drifted across thread counts"
        );
    }
}
