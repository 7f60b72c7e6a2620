//! Homing Detection Module.
//!
//! "A state machine which tracks actuation of the endstops in a defined
//! order to determine when the print head has homed. This is the first
//! action taken at the start of print and can determine when to activate
//! Trojans." A RAMPS homing cycle touches each endstop twice (fast
//! approach + slow re-bump), in X → Y → Z order.

use offramps_signals::{Axis, Edge, EdgeDetector, LogicEvent};

/// Detects completion of the G28 homing cycle from endstop activity.
///
/// # Example
///
/// ```
/// use offramps::monitor::HomingDetector;
/// use offramps_signals::{LogicEvent, Pin, Level};
///
/// let mut det = HomingDetector::new();
/// assert!(!det.is_homed());
/// // Two touches per axis, X then Y then Z.
/// for pin in [Pin::XMin, Pin::XMin, Pin::YMin, Pin::YMin, Pin::ZMin, Pin::ZMin] {
///     det.observe(LogicEvent::new(pin, Level::High));
///     det.observe(LogicEvent::new(pin, Level::Low));
/// }
/// assert!(det.is_homed());
/// ```
#[derive(Debug, Clone)]
pub struct HomingDetector {
    edges: EdgeDetector,
    touches: [u8; 3],
    homed: bool,
    /// Axes that completed out of the X→Y→Z order (diagnostic).
    pub order_violations: u8,
    last_complete: Option<Axis>,
}

impl Default for HomingDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl HomingDetector {
    /// Touches (rising edges) per axis required to declare it homed.
    pub const TOUCHES_REQUIRED: u8 = 2;

    /// Creates a detector in the not-homed state.
    pub fn new() -> Self {
        HomingDetector {
            edges: EdgeDetector::new(),
            touches: [0; 3],
            homed: false,
            order_violations: 0,
            last_complete: None,
        }
    }

    /// Feeds one feedback-direction logic event.
    /// Returns `true` if this event completed the homing cycle.
    pub fn observe(&mut self, event: LogicEvent) -> bool {
        let Some(axis) = event.pin.axis() else {
            return false;
        };
        if axis.min_endstop_pin() != Some(event.pin) {
            return false;
        }
        if self.edges.observe(event) != Some(Edge::Rising) {
            return false;
        }
        let i = axis.index();
        if self.touches[i] < Self::TOUCHES_REQUIRED {
            self.touches[i] += 1;
            if self.touches[i] == Self::TOUCHES_REQUIRED {
                // Axis complete: check canonical X -> Y -> Z order.
                let expected_prev = match axis {
                    Axis::X => None,
                    Axis::Y => Some(Axis::X),
                    Axis::Z => Some(Axis::Y),
                    Axis::E => None,
                };
                if self.last_complete != expected_prev {
                    self.order_violations += 1;
                }
                self.last_complete = Some(axis);
            }
        }
        if !self.homed && self.touches.iter().all(|t| *t >= Self::TOUCHES_REQUIRED) {
            self.homed = true;
            return true;
        }
        false
    }

    /// True once every axis has been homed.
    pub fn is_homed(&self) -> bool {
        self.homed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_signals::{Level, Pin};

    fn touch(det: &mut HomingDetector, pin: Pin) -> bool {
        let done = det.observe(LogicEvent::new(pin, Level::High));
        det.observe(LogicEvent::new(pin, Level::Low));
        done
    }

    #[test]
    fn full_cycle_in_order() {
        let mut det = HomingDetector::new();
        assert!(!touch(&mut det, Pin::XMin));
        assert!(!touch(&mut det, Pin::XMin));
        assert!(!touch(&mut det, Pin::YMin));
        assert!(!touch(&mut det, Pin::YMin));
        assert!(!touch(&mut det, Pin::ZMin));
        assert!(
            touch(&mut det, Pin::ZMin),
            "second Z touch completes homing"
        );
        assert!(det.is_homed());
        assert_eq!(det.order_violations, 0);
    }

    #[test]
    fn single_touch_is_not_enough() {
        let mut det = HomingDetector::new();
        touch(&mut det, Pin::XMin);
        touch(&mut det, Pin::YMin);
        touch(&mut det, Pin::ZMin);
        assert!(!det.is_homed());
    }

    #[test]
    fn out_of_order_flagged() {
        let mut det = HomingDetector::new();
        for pin in [
            Pin::ZMin,
            Pin::ZMin,
            Pin::XMin,
            Pin::XMin,
            Pin::YMin,
            Pin::YMin,
        ] {
            touch(&mut det, pin);
        }
        assert!(det.is_homed(), "still homes — order is a diagnostic");
        assert!(det.order_violations > 0);
    }

    #[test]
    fn level_repeats_and_falls_ignored() {
        let mut det = HomingDetector::new();
        det.observe(LogicEvent::new(Pin::XMin, Level::High));
        det.observe(LogicEvent::new(Pin::XMin, Level::High)); // repeat
        det.observe(LogicEvent::new(Pin::XMin, Level::Low));
        det.observe(LogicEvent::new(Pin::XMin, Level::Low)); // repeat
                                                             // Only one rising edge so far.
        assert!(!det.is_homed());
        touch(&mut det, Pin::XMin);
        for pin in [Pin::YMin, Pin::YMin, Pin::ZMin, Pin::ZMin] {
            touch(&mut det, pin);
        }
        assert!(det.is_homed());
    }

    #[test]
    fn non_endstop_pins_ignored() {
        let mut det = HomingDetector::new();
        for _ in 0..10 {
            det.observe(LogicEvent::new(Pin::XStep, Level::High));
            det.observe(LogicEvent::new(Pin::XStep, Level::Low));
        }
        assert!(!det.is_homed());
    }
}
