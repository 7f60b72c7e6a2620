//! Deterministic observability plane for the OFFRAMPS reproduction.
//!
//! Every campaign artifact in this workspace is pinned byte-identical
//! across thread counts. An
//! observability layer that leaked wall-clock time or thread
//! interleaving into its output would break that invariant the moment
//! anyone turned it on — so this crate is built around one rule:
//! **observable state is a pure function of the simulated work**.
//!
//! Three pieces enforce that rule:
//!
//! * [`MetricsRegistry`] — counters and histograms keyed by canonical
//!   dotted names (`kernel.events_committed`,
//!   `verdict.acoustic.margin_micros`). All values are integers
//!   (micro-units for fractions), so merging per-worker snapshots is
//!   commutative and associative: any thread-completion order folds to
//!   the same registry. Rendering walks a `BTreeMap`, so the JSON is
//!   canonical. Metrics carry a [`MetricClass`]: `Deterministic`
//!   metrics land in the metrics document and must be byte-identical
//!   for any `--threads`; `Execution` metrics describe *how* the run
//!   executed and are only ever reported next to wall-clock timings.
//! * [`Span`] — a named interval of one component's work (a campaign
//!   phase, one scenario's judging), stamped with the handle's host
//!   clock. Spans are execution-class: they feed only the
//!   `--timing-json` sidecar, never a deterministic artifact.
//! * [`FlightRecorder`] — a bounded ring buffer holding the last N
//!   per-window evidence snapshots of a scenario, so the moment a
//!   fused alarm fires the recent history can be replayed as a
//!   narrated timeline instead of a bare boolean.
//!
//! The whole plane hangs off an [`Obs`] handle: a cloneable
//! `Option<Arc<..>>` that is `None` by default. Disabled, every method
//! is a branch on `None` — hot paths keep their own plain counters and
//! publish them through `Obs` a handful of times per scenario, so the
//! disabled path stays pinned zero-overhead.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Which output a metric is allowed to reach.
///
/// `Deterministic` metrics depend only on the simulated scenarios and
/// must merge to byte-identical JSON for any thread count.
/// `Execution` metrics depend on how the run was scheduled; they are only reported beside wall-clock
/// timings, never in deterministic artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    Deterministic,
    Execution,
}

/// One named metric: a monotonic counter or an integer histogram.
///
/// Histogram values are integers by design — fractional quantities
/// enter in micro-units (`margin_micros`) — so sums are exact and the
/// merge of two snapshots is independent of merge order. The rolled-up
/// form (count/sum/min/max) is all the narration and calibration
/// consumers need, and unlike a bucketed histogram it merges without
/// any bucket-boundary coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    Counter {
        value: u64,
        class: MetricClass,
    },
    Histogram {
        count: u64,
        sum: i128,
        min: i64,
        max: i64,
        class: MetricClass,
    },
}

impl Metric {
    /// The metric's output class.
    pub fn class(&self) -> MetricClass {
        match *self {
            Metric::Counter { class, .. } | Metric::Histogram { class, .. } => class,
        }
    }
}

/// A registry of named metrics with commutative merge and canonical
/// (sorted-name) rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name`, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if `name` already exists as a histogram or with a
    /// different class — canonical names must mean one thing.
    pub fn add(&mut self, name: &str, class: MetricClass, n: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Counter { value: 0, class })
        {
            Metric::Counter {
                value,
                class: existing,
            } => {
                assert!(
                    *existing == class,
                    "metric {name} re-registered as {class:?}"
                );
                *value += n;
            }
            Metric::Histogram { .. } => panic!("metric {name} is a histogram, not a counter"),
        }
    }

    /// Records one observation `v` into the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already exists as a counter or with a
    /// different class.
    pub fn observe(&mut self, name: &str, class: MetricClass, v: i64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Histogram {
                count: 0,
                sum: 0,
                min: v,
                max: v,
                class,
            }) {
            Metric::Histogram {
                count,
                sum,
                min,
                max,
                class: existing,
            } => {
                assert!(
                    *existing == class,
                    "metric {name} re-registered as {class:?}"
                );
                *count += 1;
                *sum += i128::from(v);
                *min = (*min).min(v);
                *max = (*max).max(v);
            }
            Metric::Counter { .. } => panic!("metric {name} is a counter, not a histogram"),
        }
    }

    /// Folds another snapshot into this one. Counters add; histograms
    /// combine count/sum/min/max. Commutative and associative, so the
    /// order worker threads complete in cannot change the result.
    pub(crate) fn merge(&mut self, other: &MetricsRegistry) {
        for (name, metric) in &other.metrics {
            match *metric {
                Metric::Counter { value, class } => self.add(name, class, value),
                Metric::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    class,
                } => match self
                    .metrics
                    .entry(name.clone())
                    .or_insert(Metric::Histogram {
                        count: 0,
                        sum: 0,
                        min,
                        max,
                        class,
                    }) {
                    Metric::Histogram {
                        count: c,
                        sum: s,
                        min: lo,
                        max: hi,
                        class: existing,
                    } => {
                        assert!(*existing == class, "metric {name} merged across classes");
                        *c += count;
                        *s += sum;
                        *lo = (*lo).min(min);
                        *hi = (*hi).max(max);
                    }
                    Metric::Counter { .. } => {
                        panic!("metric {name} is a counter, not a histogram")
                    }
                },
            }
        }
    }

    /// The value of counter `name`, if present (and a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(&Metric::Counter { value, .. }) => Some(value),
            _ => None,
        }
    }

    /// All metrics, in canonical (sorted-name) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Counters of one class, in canonical order — for embedding into
    /// a host document (the timing sidecar embeds `Execution`
    /// counters this way).
    pub fn counters_of(&self, class: MetricClass) -> Vec<(&str, u64)> {
        self.metrics
            .iter()
            .filter_map(|(name, m)| match *m {
                Metric::Counter { value, class: c } if c == class => Some((name.as_str(), value)),
                _ => None,
            })
            .collect()
    }

    /// Renders the metrics of one class as a canonical JSON document:
    ///
    /// ```json
    /// {
    ///   "metrics": {
    ///     "kernel.events_committed": 123,
    ///     "verdict.acoustic.margin_micros": { "count": 2, "sum": -80, "min": -60, "max": -20 }
    ///   }
    /// }
    /// ```
    ///
    /// Names are sorted, values are integers, keys of the histogram
    /// object are in fixed order — byte-identical for equal
    /// registries, which the determinism tests pin across thread
    /// counts.
    pub(crate) fn render_json(&self, class: MetricClass) -> String {
        let mut out = String::from("{\n  \"metrics\": {");
        let mut first = true;
        for (name, metric) in &self.metrics {
            if metric.class() != class {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": ", escape(name));
            match *metric {
                Metric::Counter { value, .. } => {
                    let _ = write!(out, "{value}");
                }
                Metric::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    ..
                } => {
                    let _ = write!(
                        out,
                        "{{ \"count\": {count}, \"sum\": {sum}, \"min\": {min}, \"max\": {max} }}"
                    );
                }
            }
        }
        if first {
            out.push_str("}\n}\n");
        } else {
            out.push_str("\n  }\n}\n");
        }
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A named interval within one component, for work that has an extent
/// (a campaign phase, one scenario's judging) rather than an instant.
///
/// Spans measure host time against the [`Obs`] handle's clock, so they
/// are execution-class: they are reported only in the `--timing-json`
/// sidecar, never in a deterministic artifact — the same split
/// [`MetricClass`] draws for counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub component: &'static str,
    pub scenario: Option<usize>,
    pub label: String,
    pub start_micros: u64,
    pub end_micros: u64,
}

/// Bounded ring buffer of the last `capacity` snapshots pushed. The
/// campaign keeps one per online scenario, filled with per-window
/// evidence; when the fused vote alarms, its contents are the
/// narrated run-up to the alarm.
#[derive(Debug, Clone)]
pub struct FlightRecorder<T> {
    capacity: usize,
    buf: VecDeque<T>,
}

impl<T> FlightRecorder<T> {
    /// A recorder holding the most recent `capacity` snapshots
    /// (minimum one).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            buf: VecDeque::with_capacity(capacity.max(1)),
        }
    }

    /// Pushes a snapshot, evicting the oldest when full.
    pub fn push(&mut self, snapshot: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(snapshot);
    }

    /// Retained snapshots, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Shared collection point behind an enabled [`Obs`] handle.
///
/// The mutexes are coarse on purpose: producers publish per-scenario
/// rollups (one registry merge, at most one trace block), not
/// per-event increments, so contention is a few locks per scenario.
#[derive(Debug)]
pub struct ObsSink {
    registry: Mutex<MetricsRegistry>,
    /// Alarm narratives keyed by scenario matrix index — a `BTreeMap`
    /// so draining yields matrix order no matter which worker finished
    /// first.
    traces: Mutex<BTreeMap<usize, Vec<String>>>,
    /// Execution-class phase spans, measured against `epoch`.
    spans: Mutex<Vec<Span>>,
    /// Host-clock origin of [`Obs::clock_micros`] — stamped when the
    /// handle is enabled, so span offsets are comparable within one
    /// run.
    // detlint: allow(D2) -- the span clock is execution-class, reported only via the timing sidecar
    epoch: std::time::Instant,
}

impl Default for ObsSink {
    fn default() -> Self {
        ObsSink {
            registry: Mutex::default(),
            traces: Mutex::default(),
            spans: Mutex::default(),
            // detlint: allow(D2) -- the span clock is execution-class, reported only via the timing sidecar
            epoch: std::time::Instant::now(),
        }
    }
}

/// The zero-cost observability handle threaded through the layers.
/// Disabled (the default), every operation is a branch on `None`;
/// enabled, it shares one [`ObsSink`] across clones.
#[derive(Debug, Clone, Default)]
pub struct Obs(Option<Arc<ObsSink>>);

impl Obs {
    /// The no-op handle: records nothing, costs a `None` check.
    pub const fn disabled() -> Self {
        Obs(None)
    }

    /// A live handle with a fresh, empty sink.
    pub fn enabled() -> Self {
        Obs(Some(Arc::new(ObsSink::default())))
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `n` to a deterministic counter.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(sink) = &self.0 {
            sink.registry.lock().expect("obs registry lock").add(
                name,
                MetricClass::Deterministic,
                n,
            );
        }
    }

    /// Records one observation into a deterministic histogram.
    pub fn observe(&self, name: &str, v: i64) {
        if let Some(sink) = &self.0 {
            sink.registry.lock().expect("obs registry lock").observe(
                name,
                MetricClass::Deterministic,
                v,
            );
        }
    }

    /// Folds a locally-accumulated snapshot into the shared registry —
    /// the once-per-scenario publish point for hot-path counters.
    // detlint: allow(D7) -- tests/obs_metrics.rs
    pub fn merge(&self, snapshot: &MetricsRegistry) {
        if let Some(sink) = &self.0 {
            sink.registry
                .lock()
                .expect("obs registry lock")
                .merge(snapshot);
        }
    }

    /// Stores a scenario's rendered alarm narrative. Keyed by matrix
    /// index, so replaying the traces is deterministic regardless of
    /// worker completion order.
    pub fn record_trace(&self, scenario: usize, lines: Vec<String>) {
        if let Some(sink) = &self.0 {
            sink.traces
                .lock()
                .expect("obs traces lock")
                .insert(scenario, lines);
        }
    }

    /// Microseconds of host time since the handle was enabled (always
    /// 0 when disabled). Execution-class by construction: use it only
    /// to stamp spans destined for the timing sidecar.
    pub fn clock_micros(&self) -> u64 {
        match &self.0 {
            // detlint: allow(D2) -- the span clock is execution-class, reported only via the timing sidecar
            Some(sink) => sink.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Records one execution-class phase span (no-op when disabled).
    /// `start_micros`/`end_micros` come from [`Obs::clock_micros`].
    pub fn record_span(
        &self,
        component: &'static str,
        scenario: Option<usize>,
        label: &str,
        start_micros: u64,
        end_micros: u64,
    ) {
        if let Some(sink) = &self.0 {
            sink.spans.lock().expect("obs spans lock").push(Span {
                component,
                scenario,
                label: label.to_string(),
                start_micros,
                end_micros,
            });
        }
    }

    /// All recorded phase spans, sorted by start offset (then end,
    /// label, scenario) so the sidecar's span order does not depend on
    /// worker completion order. Empty when disabled.
    pub fn spans(&self) -> Vec<Span> {
        match &self.0 {
            Some(sink) => {
                let mut spans = sink.spans.lock().expect("obs spans lock").clone();
                spans.sort_by(|a, b| {
                    (a.start_micros, a.end_micros, &a.label, a.scenario).cmp(&(
                        b.start_micros,
                        b.end_micros,
                        &b.label,
                        b.scenario,
                    ))
                });
                spans
            }
            None => Vec::new(),
        }
    }

    /// A snapshot of the merged registry (empty when disabled).
    pub fn registry(&self) -> MetricsRegistry {
        match &self.0 {
            Some(sink) => sink.registry.lock().expect("obs registry lock").clone(),
            None => MetricsRegistry::new(),
        }
    }

    /// All recorded narratives in scenario-matrix order (empty when
    /// disabled).
    pub fn traces(&self) -> BTreeMap<usize, Vec<String>> {
        match &self.0 {
            Some(sink) => sink.traces.lock().expect("obs traces lock").clone(),
            None => BTreeMap::new(),
        }
    }

    /// The deterministic metrics document, or `None` when disabled.
    pub fn metrics_json(&self) -> Option<String> {
        self.0.as_ref().map(|sink| {
            sink.registry
                .lock()
                .expect("obs registry lock")
                .render_json(MetricClass::Deterministic)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut reg = MetricsRegistry::new();
        reg.add("kernel.events_committed", MetricClass::Deterministic, 5);
        reg.add("kernel.events_committed", MetricClass::Deterministic, 7);
        assert_eq!(reg.counter("kernel.events_committed"), Some(12));
        assert_eq!(reg.counter("missing"), None);
    }

    #[test]
    fn histogram_rollup_tracks_count_sum_min_max() {
        let mut reg = MetricsRegistry::new();
        for v in [-40, 10, 30] {
            reg.observe("verdict.margin_micros", MetricClass::Deterministic, v);
        }
        let metric = *reg.iter().next().unwrap().1;
        match metric {
            Metric::Histogram {
                count,
                sum,
                min,
                max,
                ..
            } => {
                assert_eq!((count, sum, min, max), (3, 0, -40, 30));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = MetricsRegistry::new();
        a.add("c", MetricClass::Deterministic, 3);
        a.observe("h", MetricClass::Deterministic, -5);
        a.observe("h", MetricClass::Deterministic, 9);
        let mut b = MetricsRegistry::new();
        b.add("c", MetricClass::Deterministic, 4);
        b.add("only_b", MetricClass::Execution, 1);
        b.observe("h", MetricClass::Deterministic, 2);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(
            ab.render_json(MetricClass::Deterministic),
            ba.render_json(MetricClass::Deterministic)
        );
        assert_eq!(ab.counter("c"), Some(7));
    }

    #[test]
    fn render_is_canonical_and_class_filtered() {
        let mut reg = MetricsRegistry::new();
        reg.add("z.later", MetricClass::Deterministic, 2);
        reg.add("a.first", MetricClass::Deterministic, 1);
        reg.add("pool.chunk_claims", MetricClass::Execution, 9);
        reg.observe("m.margin", MetricClass::Deterministic, -7);
        let json = reg.render_json(MetricClass::Deterministic);
        assert_eq!(
            json,
            "{\n  \"metrics\": {\n    \"a.first\": 1,\n    \"m.margin\": { \"count\": 1, \"sum\": -7, \"min\": -7, \"max\": -7 },\n    \"z.later\": 2\n  }\n}\n"
        );
        assert!(!json.contains("chunk_claims"), "execution class leaked");
        assert_eq!(
            reg.counters_of(MetricClass::Execution),
            vec![("pool.chunk_claims", 9)]
        );
    }

    #[test]
    fn empty_class_renders_empty_object() {
        let reg = MetricsRegistry::new();
        assert_eq!(
            reg.render_json(MetricClass::Deterministic),
            "{\n  \"metrics\": {}\n}\n"
        );
    }

    #[test]
    fn flight_recorder_keeps_the_last_n() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.push(i);
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(rec.capacity(), 3);
    }

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::disabled();
        obs.count("never", 1);
        obs.observe("never_h", 2);
        obs.record_trace(0, vec!["line".into()]);
        assert!(!obs.is_enabled());
        assert!(obs.metrics_json().is_none());
        assert!(obs.traces().is_empty());
        assert_eq!(obs.registry(), MetricsRegistry::new());
    }

    #[test]
    fn enabled_obs_shares_one_sink_across_clones() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        obs.count("campaign.scenarios_simulated", 1);
        clone.count("campaign.scenarios_simulated", 2);
        clone.record_trace(4, vec!["b".into()]);
        obs.record_trace(1, vec!["a".into()]);
        assert_eq!(
            obs.registry().counter("campaign.scenarios_simulated"),
            Some(3)
        );
        let traces = obs.traces();
        assert_eq!(
            traces.keys().copied().collect::<Vec<_>>(),
            vec![1, 4],
            "matrix order, not insertion order"
        );
    }

    #[test]
    fn spans_record_only_when_enabled_and_sort_by_start() {
        let off = Obs::disabled();
        off.record_span("campaign", None, "simulate", 0, 10);
        assert_eq!(off.clock_micros(), 0);
        assert!(off.spans().is_empty());

        let obs = Obs::enabled();
        obs.record_span("campaign", None, "simulate", 500, 900);
        obs.record_span("campaign", Some(3), "judge", 120, 480);
        obs.record_span("campaign", None, "slice", 0, 100);
        let spans = obs.spans();
        assert_eq!(
            spans.iter().map(|s| s.label.as_str()).collect::<Vec<_>>(),
            vec!["slice", "judge", "simulate"],
            "sorted by start offset, not insertion order"
        );
        assert_eq!(spans[1].scenario, Some(3));
    }
}
