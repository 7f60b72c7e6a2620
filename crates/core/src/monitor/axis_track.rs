//! Axis Tracking module.
//!
//! "This module analyzes the stepper motor control signals, STEP and DIR,
//! for each of the axes and the extruder to determine their positions.
//! This consists of a set of rising edge detectors and counters, which
//! increment for each STEP rising edge when DIR dictated that the motors
//! were moving in the positive direction and decrement when they moved
//! negatively."

use offramps_signals::{Axis, Edge, EdgeDetector, Level, LogicEvent};

/// Signed step counters driven by STEP/DIR observation.
///
/// # Example
///
/// ```
/// use offramps::monitor::AxisTracker;
/// use offramps_signals::{LogicEvent, Pin, Level, Axis};
///
/// let mut t = AxisTracker::new();
/// t.observe(LogicEvent::new(Pin::XDir, Level::High)); // positive
/// t.observe(LogicEvent::new(Pin::XStep, Level::High));
/// t.observe(LogicEvent::new(Pin::XStep, Level::Low));
/// assert_eq!(t.count(Axis::X), 1);
/// ```
#[derive(Debug, Clone)]
pub struct AxisTracker {
    edges: EdgeDetector,
    dir_positive: [bool; 4],
    counts: [i64; 4],
    /// Total rising STEP edges seen (regardless of direction).
    pub total_edges: u64,
}

impl Default for AxisTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl AxisTracker {
    /// Creates a tracker with all counters at zero.
    pub fn new() -> Self {
        AxisTracker {
            edges: EdgeDetector::new(),
            dir_positive: [false; 4],
            counts: [0; 4],
            total_edges: 0,
        }
    }

    /// Feeds one control-direction logic event. Returns `true` when the
    /// event was a rising STEP edge (the monitor uses the first of these
    /// after homing to start its transaction clock).
    pub fn observe(&mut self, event: LogicEvent) -> bool {
        let Some(axis) = event.pin.axis() else {
            return false;
        };
        if event.pin.is_dir() {
            // DIR is level-sensitive: latch it whether or not it is an
            // edge (we may join mid-stream).
            self.edges.observe(event);
            self.dir_positive[axis.index()] = event.level == Level::High;
            return false;
        }
        if event.pin.is_step() && self.edges.observe(event) == Some(Edge::Rising) {
            let i = axis.index();
            self.counts[i] += if self.dir_positive[i] { 1 } else { -1 };
            self.total_edges += 1;
            return true;
        }
        // Keep the edge detector coherent for non-step pins too.
        if !event.pin.is_step() {
            self.edges.observe(event);
        }
        false
    }

    /// Current signed count for `axis`.
    pub fn count(&self, axis: Axis) -> i64 {
        self.counts[axis.index()]
    }

    /// All four counters in [`Axis::ALL`] order, saturated to `i32`
    /// (the wire format of the 16-byte transaction).
    pub(crate) fn counts_i32(&self) -> [i32; 4] {
        std::array::from_fn(|i| {
            self.counts[i].clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
        })
    }

    /// Zeroes the counters ("the step counts … are initialized" when the
    /// printer is homed).
    pub(crate) fn reset(&mut self) {
        self.counts = [0; 4];
        self.total_edges = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_signals::Pin;

    fn pulse(t: &mut AxisTracker, pin: Pin) {
        t.observe(LogicEvent::new(pin, Level::High));
        t.observe(LogicEvent::new(pin, Level::Low));
    }

    #[test]
    fn counts_follow_dir() {
        let mut t = AxisTracker::new();
        t.observe(LogicEvent::new(Pin::YDir, Level::High));
        for _ in 0..5 {
            pulse(&mut t, Pin::YStep);
        }
        t.observe(LogicEvent::new(Pin::YDir, Level::Low));
        for _ in 0..2 {
            pulse(&mut t, Pin::YStep);
        }
        assert_eq!(t.count(Axis::Y), 3);
        assert_eq!(t.total_edges, 7);
    }

    #[test]
    fn axes_are_independent() {
        let mut t = AxisTracker::new();
        t.observe(LogicEvent::new(Pin::XDir, Level::High));
        t.observe(LogicEvent::new(Pin::EDir, Level::High));
        pulse(&mut t, Pin::XStep);
        pulse(&mut t, Pin::EStep);
        pulse(&mut t, Pin::EStep);
        assert_eq!(t.count(Axis::X), 1);
        assert_eq!(t.count(Axis::E), 2);
        assert_eq!(t.count(Axis::Z), 0);
    }

    #[test]
    fn default_direction_is_negative() {
        // DIR never set: low = negative by our convention.
        let mut t = AxisTracker::new();
        pulse(&mut t, Pin::ZStep);
        assert_eq!(t.count(Axis::Z), -1);
    }

    #[test]
    fn repeated_highs_count_once() {
        let mut t = AxisTracker::new();
        t.observe(LogicEvent::new(Pin::XDir, Level::High));
        t.observe(LogicEvent::new(Pin::XStep, Level::High));
        t.observe(LogicEvent::new(Pin::XStep, Level::High));
        t.observe(LogicEvent::new(Pin::XStep, Level::Low));
        assert_eq!(t.count(Axis::X), 1);
    }

    #[test]
    fn reset_zeroes() {
        let mut t = AxisTracker::new();
        t.observe(LogicEvent::new(Pin::XDir, Level::High));
        pulse(&mut t, Pin::XStep);
        t.reset();
        assert_eq!(t.count(Axis::X), 0);
        assert_eq!(t.total_edges, 0);
    }

    #[test]
    fn i32_saturation() {
        let mut t = AxisTracker::new();
        t.counts[0] = i64::from(i32::MAX) + 10;
        assert_eq!(t.counts_i32()[0], i32::MAX);
    }

    #[test]
    fn observe_returns_true_only_on_rising_step() {
        let mut t = AxisTracker::new();
        assert!(!t.observe(LogicEvent::new(Pin::XDir, Level::High)));
        assert!(t.observe(LogicEvent::new(Pin::XStep, Level::High)));
        assert!(!t.observe(LogicEvent::new(Pin::XStep, Level::Low)));
    }
}
