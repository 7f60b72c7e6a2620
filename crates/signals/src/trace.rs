//! Signal recording and logic-analyzer style analysis.
//!
//! The paper notes that "the FPGA can act as a rudimentary 'digital logic
//! analyzer' for the control signals passing between the Arduino and RAMPS
//! boards". [`SignalTrace`] is that analyzer: a timestamped recording of
//! logic events with per-pin pulse statistics — the same quantities the
//! authors report in §V-B (maximum signal frequency below 20 kHz, minimum
//! pulse width 1 µs).

use offramps_des::{SimDuration, Tick};

use crate::event::{Edge, Level, LogicEvent};
use crate::pin::{Pin, ALL_PINS};

/// A consumer of logic edges, fed one edge at a time in delivery
/// order: the hook a component offers to whatever wants to watch a
/// signal rail while the simulation runs. [`SignalTrace`] records every
/// edge; a side-channel model can instead fold each edge into its
/// per-window sums and keep nothing else.
///
/// `()` is the hook that ignores every edge.
pub trait EdgeSink {
    /// Takes one edge. Ticks never decrease from one call to the next.
    fn push(&mut self, tick: Tick, event: LogicEvent);
}

impl EdgeSink for () {
    fn push(&mut self, _tick: Tick, _event: LogicEvent) {}
}

impl EdgeSink for SignalTrace {
    fn push(&mut self, tick: Tick, event: LogicEvent) {
        self.record(tick, event);
    }
}

/// One recorded transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the transition occurred.
    pub tick: Tick,
    /// What changed.
    pub event: LogicEvent,
}

/// Pulse statistics for a single pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinStats {
    /// Number of rising edges.
    pub rising_edges: u64,
    /// Number of falling edges.
    pub falling_edges: u64,
    /// Shortest observed high pulse, if any complete pulse was seen.
    pub min_pulse_width: Option<SimDuration>,
    /// Longest observed high pulse, if any complete pulse was seen.
    pub max_pulse_width: Option<SimDuration>,
    /// Smallest interval between consecutive rising edges, if at least two
    /// rising edges were seen. Its reciprocal is the peak signal frequency.
    pub min_rising_period: Option<SimDuration>,
}

impl PinStats {
    /// Peak frequency in hertz implied by the minimum rising-edge period.
    pub fn max_frequency_hz(&self) -> Option<f64> {
        self.min_rising_period.and_then(|p| {
            let s = p.as_secs_f64();
            (s > 0.0).then(|| 1.0 / s)
        })
    }
}

/// Whole-trace summary across pins (§V-B quantities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Total recorded transitions.
    pub events: u64,
    /// Highest per-pin peak frequency in hertz, with the pin it occurred on.
    pub max_frequency_hz: Option<f64>,
    /// Pin exhibiting the peak frequency.
    pub busiest_pin: Option<Pin>,
    /// Shortest high pulse across all pins.
    pub min_pulse_width: Option<SimDuration>,
    /// Time of the first recorded event.
    pub first_tick: Option<Tick>,
    /// Time of the last recorded event.
    pub last_tick: Option<Tick>,
}

/// A timestamped recording of logic transitions on the interface.
///
/// # Example
///
/// ```
/// use offramps_des::Tick;
/// use offramps_signals::{SignalTrace, LogicEvent, Pin, Level};
///
/// let mut trace = SignalTrace::new();
/// trace.record(Tick::from_micros(0), LogicEvent::new(Pin::XStep, Level::High));
/// trace.record(Tick::from_micros(2), LogicEvent::new(Pin::XStep, Level::Low));
/// let stats = trace.pin_stats(Pin::XStep);
/// assert_eq!(stats.rising_edges, 1);
/// assert_eq!(stats.min_pulse_width.unwrap().as_nanos(), 2_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SignalTrace {
    entries: Vec<TraceEntry>,
}

impl SignalTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        SignalTrace {
            entries: Vec::new(),
        }
    }

    /// Appends one transition.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `tick` precedes the last recorded entry;
    /// recordings must be chronological.
    pub fn record(&mut self, tick: Tick, event: LogicEvent) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.tick <= tick),
            "trace must be recorded in chronological order"
        );
        self.entries.push(TraceEntry { tick, event });
    }

    /// All recorded entries, in order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded transitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries for one pin, in order.
    pub(crate) fn pin_entries(&self, pin: Pin) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.event.pin == pin)
    }

    /// Ticks of the rising transitions on one pin, in order. Pins reset
    /// low, so the first recorded `High` counts; repeated same-level
    /// entries are not edges. This is the step-timing view of the
    /// acoustic/EM side channel: each rising STEP edge is one motor
    /// "tick" whose spacing sets the emitted tone.
    pub fn rising_edge_ticks(&self, pin: Pin) -> impl Iterator<Item = Tick> + '_ {
        let mut last = Level::Low;
        self.pin_entries(pin).filter_map(move |e| {
            let rising = last == Level::Low && e.event.level == Level::High;
            last = e.event.level;
            rising.then_some(e.tick)
        })
    }

    /// Pulse statistics for one pin.
    pub fn pin_stats(&self, pin: Pin) -> PinStats {
        let mut stats = PinStats {
            rising_edges: 0,
            falling_edges: 0,
            min_pulse_width: None,
            max_pulse_width: None,
            min_rising_period: None,
        };
        // Pins reset low, so the first recorded `High` is a rising edge.
        let mut last_level = Level::Low;
        let mut last_rise: Option<Tick> = None;
        let mut prev_rise: Option<Tick> = None;
        for e in self.pin_entries(pin) {
            let changed = last_level != e.event.level;
            if changed {
                match Edge::to(e.event.level) {
                    Edge::Rising => {
                        stats.rising_edges += 1;
                        if let Some(p) = prev_rise {
                            let period = e.tick - p;
                            stats.min_rising_period = Some(
                                stats
                                    .min_rising_period
                                    .map_or(period, |m: SimDuration| m.min(period)),
                            );
                        }
                        prev_rise = Some(e.tick);
                        last_rise = Some(e.tick);
                    }
                    Edge::Falling => {
                        stats.falling_edges += 1;
                        if let Some(r) = last_rise.take() {
                            let width = e.tick - r;
                            stats.min_pulse_width = Some(
                                stats
                                    .min_pulse_width
                                    .map_or(width, |m: SimDuration| m.min(width)),
                            );
                            stats.max_pulse_width = Some(
                                stats
                                    .max_pulse_width
                                    .map_or(width, |m: SimDuration| m.max(width)),
                            );
                        }
                    }
                }
            }
            last_level = e.event.level;
        }
        stats
    }

    /// Whole-trace summary (the §V-B quantities).
    pub fn summary(&self) -> TraceSummary {
        let mut max_freq: Option<(f64, Pin)> = None;
        let mut min_pulse: Option<SimDuration> = None;
        for pin in ALL_PINS {
            let s = self.pin_stats(pin);
            if let Some(f) = s.max_frequency_hz() {
                if max_freq.is_none_or(|(m, _)| f > m) {
                    max_freq = Some((f, pin));
                }
            }
            if let Some(w) = s.min_pulse_width {
                min_pulse = Some(min_pulse.map_or(w, |m| m.min(w)));
            }
        }
        TraceSummary {
            events: self.entries.len() as u64,
            max_frequency_hz: max_freq.map(|(f, _)| f),
            busiest_pin: max_freq.map(|(_, p)| p),
            min_pulse_width: min_pulse,
            first_tick: self.entries.first().map(|e| e.tick),
            last_tick: self.entries.last().map(|e| e.tick),
        }
    }
}

impl FromIterator<TraceEntry> for SignalTrace {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> Self {
        let mut entries: Vec<TraceEntry> = iter.into_iter().collect();
        entries.sort_by_key(|e| e.tick);
        SignalTrace { entries }
    }
}

impl Extend<TraceEntry> for SignalTrace {
    fn extend<I: IntoIterator<Item = TraceEntry>>(&mut self, iter: I) {
        for e in iter {
            self.record(e.tick, e.event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse(trace: &mut SignalTrace, pin: Pin, at_us: u64, width_us: u64) {
        trace.record(Tick::from_micros(at_us), LogicEvent::new(pin, Level::High));
        trace.record(
            Tick::from_micros(at_us + width_us),
            LogicEvent::new(pin, Level::Low),
        );
    }

    #[test]
    fn counts_edges_per_pin() {
        let mut t = SignalTrace::new();
        // Establish initial low level so the first high is an edge.
        t.record(Tick::ZERO, LogicEvent::new(Pin::XStep, Level::Low));
        t.record(Tick::ZERO, LogicEvent::new(Pin::YStep, Level::Low));
        pulse(&mut t, Pin::XStep, 10, 2);
        pulse(&mut t, Pin::YStep, 15, 2);
        pulse(&mut t, Pin::XStep, 20, 2);
        let x = t.pin_stats(Pin::XStep);
        assert_eq!(x.rising_edges, 2);
        assert_eq!(x.falling_edges, 2);
        assert_eq!(t.pin_stats(Pin::YStep).rising_edges, 1);
        assert_eq!(t.pin_stats(Pin::ZStep).rising_edges, 0);
    }

    #[test]
    fn pulse_width_and_period() {
        let mut t = SignalTrace::new();
        t.record(Tick::ZERO, LogicEvent::new(Pin::EStep, Level::Low));
        pulse(&mut t, Pin::EStep, 100, 1); // 1 us pulse
        pulse(&mut t, Pin::EStep, 150, 3); // 3 us pulse, 50 us period
        let s = t.pin_stats(Pin::EStep);
        assert_eq!(s.min_pulse_width, Some(SimDuration::from_micros(1)));
        assert_eq!(s.max_pulse_width, Some(SimDuration::from_micros(3)));
        assert_eq!(s.min_rising_period, Some(SimDuration::from_micros(50)));
        let f = s.max_frequency_hz().unwrap();
        assert!((f - 20_000.0).abs() < 1e-6, "50us period = 20 kHz, got {f}");
    }

    #[test]
    fn window_queries() {
        let mut t = SignalTrace::new();
        t.record(Tick::ZERO, LogicEvent::new(Pin::XStep, Level::Low));
        for i in 0..10 {
            pulse(&mut t, Pin::XStep, 10 + i * 10, 2);
        }
        let n = t
            .rising_edge_ticks(Pin::XStep)
            .filter(|&at| at >= Tick::from_micros(10) && at < Tick::from_micros(50))
            .count();
        assert_eq!(n, 4); // rising at 10,20,30,40
    }

    #[test]
    fn summary_finds_busiest_pin() {
        let mut t = SignalTrace::new();
        t.record(Tick::ZERO, LogicEvent::new(Pin::XStep, Level::Low));
        t.record(Tick::ZERO, LogicEvent::new(Pin::ZStep, Level::Low));
        // X: 100 us period; Z: 10 us period (faster).
        pulse(&mut t, Pin::XStep, 10, 2);
        pulse(&mut t, Pin::ZStep, 12, 2);
        pulse(&mut t, Pin::ZStep, 22, 2);
        pulse(&mut t, Pin::XStep, 110, 2);
        let s = t.summary();
        assert_eq!(s.busiest_pin, Some(Pin::ZStep));
        assert_eq!(s.min_pulse_width, Some(SimDuration::from_micros(2)));
        assert_eq!(s.events, 10);
        assert_eq!(s.first_tick, Some(Tick::ZERO));
    }

    #[test]
    fn from_iterator_sorts() {
        let entries = vec![
            TraceEntry {
                tick: Tick::from_micros(5),
                event: LogicEvent::new(Pin::XStep, Level::Low),
            },
            TraceEntry {
                tick: Tick::from_micros(1),
                event: LogicEvent::new(Pin::XStep, Level::High),
            },
        ];
        let t: SignalTrace = entries.into_iter().collect();
        assert!(t.entries()[0].tick < t.entries()[1].tick);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn rising_edge_ticks_match_stats() {
        let mut t = SignalTrace::new();
        t.record(Tick::ZERO, LogicEvent::new(Pin::XStep, Level::Low));
        pulse(&mut t, Pin::XStep, 10, 2);
        t.record(
            Tick::from_micros(30),
            LogicEvent::new(Pin::XStep, Level::High),
        );
        // A repeated High is not a second edge.
        t.record(
            Tick::from_micros(31),
            LogicEvent::new(Pin::XStep, Level::High),
        );
        let ticks: Vec<Tick> = t.rising_edge_ticks(Pin::XStep).collect();
        assert_eq!(
            ticks,
            vec![Tick::from_micros(10), Tick::from_micros(30)],
            "{ticks:?}"
        );
        assert_eq!(ticks.len() as u64, t.pin_stats(Pin::XStep).rising_edges);
    }

    #[test]
    fn repeated_levels_are_not_edges() {
        let mut t = SignalTrace::new();
        t.record(Tick::ZERO, LogicEvent::new(Pin::XStep, Level::Low));
        t.record(
            Tick::from_micros(1),
            LogicEvent::new(Pin::XStep, Level::Low),
        );
        t.record(
            Tick::from_micros(2),
            LogicEvent::new(Pin::XStep, Level::High),
        );
        t.record(
            Tick::from_micros(3),
            LogicEvent::new(Pin::XStep, Level::High),
        );
        let s = t.pin_stats(Pin::XStep);
        assert_eq!(s.rising_edges, 1);
        assert_eq!(s.falling_edges, 0);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use offramps_des::DetRng;

    /// For any well-formed pulse train, rising and falling edges
    /// balance (every pulse closes) and the full-range window query
    /// agrees with pin_stats.
    #[test]
    fn pulse_accounting_over_random_trains() {
        for seed in 0u64..64 {
            let mut rng = DetRng::from_seed(seed);
            let n = rng.uniform_u64(1, 100) as usize;
            let widths: Vec<u64> = (0..n).map(|_| rng.uniform_u64(1, 50)).collect();
            let mut t = SignalTrace::new();
            let mut at = 0u64;
            for w in &widths {
                t.record(
                    Tick::from_micros(at),
                    LogicEvent::new(Pin::EStep, Level::High),
                );
                t.record(
                    Tick::from_micros(at + w),
                    LogicEvent::new(Pin::EStep, Level::Low),
                );
                at += w + 100;
            }
            let s = t.pin_stats(Pin::EStep);
            assert_eq!(s.rising_edges, widths.len() as u64, "seed {seed}");
            assert_eq!(s.falling_edges, widths.len() as u64, "seed {seed}");
            assert_eq!(
                s.min_pulse_width,
                Some(SimDuration::from_micros(*widths.iter().min().unwrap())),
                "seed {seed}"
            );
            assert_eq!(
                t.rising_edge_ticks(Pin::EStep).count(),
                widths.len(),
                "seed {seed}"
            );
        }
    }
}
