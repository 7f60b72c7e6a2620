//! UART export of step-count transactions.
//!
//! "For accurate pulse counts between all tests, the counter to determine
//! the frequency of the UART transactions starts after the print head is
//! homed and the first STEP edge is found. … the UART control unit sends
//! a 16-byte transaction containing step counts for all of the motors
//! each 0.1 seconds."

use offramps_des::{SimDuration, Tick};
use offramps_signals::LogicEvent;

use crate::capture::{Capture, Transaction};
use crate::monitor::AxisTracker;

/// The §V monitoring pipeline downstream of homing detection: axis
/// tracking → periodic transaction export. The interceptor owns the
/// one [`HomingDetector`](crate::monitor::HomingDetector) and passes
/// its state in.
///
/// Drive it with every control event and the homed state
/// ([`Monitor::on_control`]), the homing-complete reset
/// (`Monitor::on_homed`), and timer wake-ups ([`Monitor::on_tick`]);
/// collect the capture at the end.
#[derive(Debug, Clone)]
pub struct Monitor {
    period: SimDuration,
    tracker: AxisTracker,
    capture: Capture,
    /// Set when homed and the first post-homing step edge was seen.
    started_at: Option<Tick>,
    next_sample: Option<Tick>,
    next_index: u64,
    flushed: bool,
}

impl Monitor {
    /// Creates the monitor with the given export period (paper: 0.1 s).
    pub fn new(period: SimDuration) -> Self {
        let mut capture = Capture::new();
        capture.period = period;
        Monitor {
            period,
            tracker: AxisTracker::new(),
            capture,
            started_at: None,
            next_sample: None,
            next_index: 0,
            flushed: false,
        }
    }

    /// Feeds a control-direction logic event; `homed` is whether the
    /// homing cycle has completed. Returns the tick at which the monitor
    /// wants its next wake-up, if it just armed the clock.
    pub fn on_control(&mut self, now: Tick, event: LogicEvent, homed: bool) -> Option<Tick> {
        let was_step_rise = self.tracker.observe(event);
        if was_step_rise && homed && self.started_at.is_none() {
            // Synchronization point: homed + first step edge.
            self.started_at = Some(now);
            let first = now + self.period;
            self.next_sample = Some(first);
            return Some(first);
        }
        None
    }

    /// The homing cycle just completed: counters are re-zeroed. "When
    /// the printer is homed at the beginning of each print, the step
    /// counts and UART transaction counter are initialized."
    pub(crate) fn on_homed(&mut self) {
        self.tracker.reset();
        self.started_at = None;
        self.next_sample = None;
    }

    /// Timer wake-up: exports a transaction if one is due; returns the
    /// next wanted wake-up.
    pub fn on_tick(&mut self, now: Tick) -> Option<Tick> {
        let due = self.next_sample?;
        if now < due {
            return Some(due);
        }
        let t = Transaction {
            index: self.next_index,
            counts: self.tracker.counts_i32(),
        };
        self.next_index += 1;
        self.capture.push(t);
        let next = due + self.period;
        self.next_sample = Some(next);
        Some(next)
    }

    /// Exports one final "conclusion" transaction with the current
    /// exact counters. The paper's 0 %-margin final check runs "at the
    /// conclusion of the print" — but the last *periodic* sample can
    /// predate tail motion (the end-of-print retract) by up to one
    /// period, so two clean prints with different time-noise seeds can
    /// disagree on their last sampled totals. At campaign scale that
    /// false-positives clean reprints; the conclusion sample pins the
    /// final totals exactly. No-op until the transaction clock armed,
    /// and idempotent — a second flush (e.g. an explicit call followed
    /// by [`Monitor::into_capture`]) appends nothing.
    pub(crate) fn flush(&mut self) {
        if self.started_at.is_none() || self.flushed {
            return;
        }
        self.flushed = true;
        let t = Transaction {
            index: self.next_index,
            counts: self.tracker.counts_i32(),
        };
        self.next_index += 1;
        self.capture.push(t);
    }

    /// The capture accumulated so far.
    pub fn capture(&self) -> &Capture {
        &self.capture
    }

    /// Consumes the monitor, returning the capture (with the
    /// end-of-print conclusion sample appended — see [`Monitor::flush`]).
    pub(crate) fn into_capture(mut self) -> Capture {
        self.flush();
        self.capture
    }

    /// The current raw counter values (diagnostics).
    pub fn counts(&self) -> [i32; 4] {
        self.tracker.counts_i32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_signals::{Level, Pin};

    /// One STEP pulse after homing completed.
    fn pulse(m: &mut Monitor, now: Tick, pin: Pin) -> Option<Tick> {
        let r = m.on_control(now, LogicEvent::new(pin, Level::High), true);
        m.on_control(
            now + SimDuration::from_micros(2),
            LogicEvent::new(pin, Level::Low),
            true,
        );
        r
    }

    #[test]
    fn clock_arms_after_homing_and_first_step() {
        let mut m = Monitor::new(SimDuration::from_millis(100));
        // Steps before homing do not arm the clock.
        for level in [Level::High, Level::Low] {
            let step = LogicEvent::new(Pin::XStep, level);
            assert_eq!(m.on_control(Tick::from_millis(5), step, false), None);
        }
        assert!(m.started_at.is_none());
        m.on_homed();
        let wake = pulse(&mut m, Tick::from_millis(50), Pin::XStep);
        assert_eq!(wake, Some(Tick::from_millis(150)));
        assert!(m.started_at.is_some());
    }

    #[test]
    fn counters_reset_at_homing() {
        let mut m = Monitor::new(SimDuration::from_millis(100));
        m.on_control(Tick::ZERO, LogicEvent::new(Pin::XDir, Level::High), true);
        for i in 0..50 {
            pulse(&mut m, Tick::from_millis(i), Pin::XStep);
        }
        assert!(m.started_at.is_some());
        m.on_homed();
        assert!(m.started_at.is_none(), "homing must stop the clock");
        assert_eq!(m.counts(), [0, 0, 0, 0], "homing must re-zero counters");
    }

    #[test]
    fn transactions_sample_counts_each_period() {
        let mut m = Monitor::new(SimDuration::from_millis(100));
        m.on_homed();
        m.on_control(
            Tick::from_millis(99),
            LogicEvent::new(Pin::XDir, Level::High),
            true,
        );
        pulse(&mut m, Tick::from_millis(100), Pin::XStep);
        // 10 more steps before the first sample at t=200ms.
        for i in 0..10 {
            pulse(&mut m, Tick::from_millis(110 + i), Pin::XStep);
        }
        let next = m.on_tick(Tick::from_millis(200)).unwrap();
        assert_eq!(next, Tick::from_millis(300));
        assert_eq!(m.capture().len(), 1);
        assert_eq!(m.capture().transactions()[0].counts[0], 11);
        assert_eq!(m.capture().transactions()[0].index, 0);
    }

    #[test]
    fn early_tick_is_a_noop() {
        let mut m = Monitor::new(SimDuration::from_millis(100));
        m.on_homed();
        pulse(&mut m, Tick::from_millis(100), Pin::XStep);
        let due = m.on_tick(Tick::from_millis(150)).unwrap();
        assert_eq!(due, Tick::from_millis(200));
        assert!(m.capture().is_empty());
    }

    #[test]
    fn unarmed_monitor_never_samples() {
        let mut m = Monitor::new(SimDuration::from_millis(100));
        assert_eq!(m.on_tick(Tick::from_secs(10)), None);
        assert!(m.capture().is_empty());
    }

    #[test]
    fn into_capture_preserves_period() {
        let m = Monitor::new(SimDuration::from_millis(50));
        let cap = m.into_capture();
        assert_eq!(cap.period, SimDuration::from_millis(50));
    }

    #[test]
    fn into_capture_appends_conclusion_sample() {
        let mut m = Monitor::new(SimDuration::from_millis(100));
        m.on_homed();
        m.on_control(
            Tick::from_millis(99),
            LogicEvent::new(Pin::XDir, Level::High),
            true,
        );
        pulse(&mut m, Tick::from_millis(100), Pin::XStep);
        m.on_tick(Tick::from_millis(200));
        // Tail motion after the last periodic sample.
        for i in 0..5 {
            pulse(&mut m, Tick::from_millis(210 + i), Pin::XStep);
        }
        let cap = m.into_capture();
        assert_eq!(cap.len(), 2, "periodic sample + conclusion sample");
        assert_eq!(
            cap.transactions()[1].counts[0],
            6,
            "conclusion sample holds exact totals"
        );
        assert_eq!(cap.transactions()[1].index, 1);
    }

    #[test]
    fn unarmed_monitor_flushes_nothing() {
        let mut m = Monitor::new(SimDuration::from_millis(100));
        m.flush();
        assert!(m.capture().is_empty());
        assert!(m.into_capture().is_empty());
    }

    #[test]
    fn flush_is_idempotent() {
        let mut m = Monitor::new(SimDuration::from_millis(100));
        m.on_homed();
        m.on_control(
            Tick::from_millis(99),
            LogicEvent::new(Pin::XDir, Level::High),
            true,
        );
        pulse(&mut m, Tick::from_millis(100), Pin::XStep);
        m.flush();
        m.flush();
        let cap = m.into_capture();
        assert_eq!(cap.len(), 1, "explicit flush + into_capture adds one");
    }
}
