//! Edge detection — the primitive the paper's FPGA modules build on.
//!
//! The paper's *Edge Detection Module* "implements an edge detector to
//! identify events such as print head movements or extrusions via
//! observation of the STEP and DIR stepper motor driver signals". In the
//! FPGA this is a one-flop delay and a comparator; here it is a per-pin
//! last-level register.

use crate::event::{Edge, Level, LogicEvent};
use crate::pin::{Pin, ALL_PINS};

/// Detects edges on all pins from a stream of [`LogicEvent`]s.
///
/// # Example
///
/// ```
/// use offramps_signals::{EdgeDetector, LogicEvent, Pin, Level, Edge};
///
/// // The detector starts at the boards' reset levels, so the first real
/// // transition is reported.
/// let mut det = EdgeDetector::new();
/// let e = det.observe(LogicEvent::new(Pin::XStep, Level::High));
/// assert_eq!(e, Some(Edge::Rising));
/// // Re-asserting the same level is not an edge.
/// assert_eq!(det.observe(LogicEvent::new(Pin::XStep, Level::High)), None);
/// ```
#[derive(Debug, Clone)]
pub struct EdgeDetector {
    last: [Level; Pin::COUNT],
}

impl Default for EdgeDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeDetector {
    /// Creates a detector at the reset state of the real boards: every
    /// line low except the active-low stepper `*_EN` pins, which idle
    /// high (drivers disabled).
    pub fn new() -> Self {
        EdgeDetector {
            // `ALL_PINS` lists the pins in `Pin::index` order.
            last: ALL_PINS.map(|pin| {
                if pin.is_enable() {
                    Level::High
                } else {
                    Level::Low
                }
            }),
        }
    }

    /// Feeds one event; returns the edge it produced, if any.
    pub fn observe(&mut self, event: LogicEvent) -> Option<Edge> {
        let last = &mut self.last[event.pin.index()];
        if *last == event.level {
            return None;
        }
        *last = event.level;
        Some(Edge::to(event.level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_is_not_an_edge() {
        // ... when it repeats the pin's reset level.
        let mut det = EdgeDetector::new();
        assert_eq!(det.observe(LogicEvent::new(Pin::ZDir, Level::Low)), None);
        assert_eq!(
            det.observe(LogicEvent::new(Pin::XEnable, Level::High)),
            None
        );
    }

    #[test]
    fn reset_state_matches_hardware() {
        // Enable pins idle high (drivers disabled), so a low is a
        // falling edge; every other line idles low.
        let mut det = EdgeDetector::new();
        for pin in ALL_PINS {
            let (level, edge) = if pin.is_enable() {
                (Level::Low, Edge::Falling)
            } else {
                (Level::High, Edge::Rising)
            };
            assert_eq!(
                det.observe(LogicEvent::new(pin, level)),
                Some(edge),
                "{pin:?}"
            );
        }
    }

    #[test]
    fn new_reports_first_transition() {
        let mut det = EdgeDetector::new();
        // Enable pins idle high on reset, so a low is a falling edge.
        assert_eq!(
            det.observe(LogicEvent::new(Pin::XEnable, Level::Low)),
            Some(Edge::Falling)
        );
    }

    #[test]
    fn detects_both_edges() {
        let mut det = EdgeDetector::new();
        assert_eq!(
            det.observe(LogicEvent::new(Pin::EStep, Level::High)),
            Some(Edge::Rising)
        );
        assert_eq!(det.observe(LogicEvent::new(Pin::EStep, Level::High)), None);
        assert_eq!(
            det.observe(LogicEvent::new(Pin::EStep, Level::Low)),
            Some(Edge::Falling)
        );
    }

    #[test]
    fn pins_are_independent() {
        let mut det = EdgeDetector::new();
        det.observe(LogicEvent::new(Pin::XStep, Level::High));
        // Y has not moved; its first rising edge is still detected.
        assert_eq!(
            det.observe(LogicEvent::new(Pin::YStep, Level::High)),
            Some(Edge::Rising)
        );
    }
}
