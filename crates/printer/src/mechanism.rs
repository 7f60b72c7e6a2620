//! Carriage kinematics, travel limits and endstops.

use offramps_signals::Level;

use crate::config::AxisConfig;

/// The mechanics of one axis: converts driver microsteps into carriage
/// position, enforces the physical travel range (steps into the frame are
/// lost, as a real stalled stepper skips), and drives the MIN endstop
/// switch.
///
/// # Example
///
/// ```
/// use offramps_printer::{AxisMechanism, AxisConfig};
/// use offramps_signals::{Axis, Level};
///
/// let mut mech = AxisMechanism::new(AxisConfig::default_for(Axis::X));
/// mech.reference_at(5.0);             // pretend carriage is at 5 mm
/// assert_eq!(mech.endstop_level(), Level::Low);
/// for _ in 0..5_000 { mech.advance(-1); } // 50 mm worth of -X microsteps
/// assert_eq!(mech.endstop_level(), Level::High); // switch pressed
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AxisMechanism {
    config: AxisConfig,
    /// Carriage position, microsteps relative to logical zero.
    position_steps: i64,
    /// Microsteps lost against the physical ends of travel.
    pub lost_steps: u64,
}

impl AxisMechanism {
    /// Creates the mechanism with the carriage parked at an arbitrary
    /// mid-travel position (real printers power on wherever the head was
    /// left; homing establishes the reference).
    pub fn new(config: AxisConfig) -> Self {
        let mid = if config.travel_mm.is_finite() {
            (config.travel_mm / 3.0 * config.steps_per_mm) as i64
        } else {
            0
        };
        AxisMechanism {
            config,
            position_steps: mid,
            lost_steps: 0,
        }
    }

    /// Moves the carriage by one (+1/−1) microstep, honouring the travel
    /// limits. Returns `true` if the carriage actually moved.
    pub fn advance(&mut self, delta: i64) -> bool {
        debug_assert!(
            delta == 1 || delta == -1,
            "drivers step one microstep at a time"
        );
        let new = self.position_steps + delta;
        let mm = new as f64 / self.config.steps_per_mm;
        if mm < -self.config.overtravel_mm || mm > self.config.travel_mm {
            self.lost_steps += 1;
            return false;
        }
        self.position_steps = new;
        true
    }

    /// Current position, mm from logical zero.
    pub(crate) fn position_mm(&self) -> f64 {
        self.position_steps as f64 / self.config.steps_per_mm
    }

    /// The MIN endstop output: high while pressed.
    pub fn endstop_level(&self) -> Level {
        Level::from(self.position_mm() <= self.config.endstop_trigger_mm)
    }

    /// Re-declare the current physical location as `mm` (used by tests
    /// and by scenario setup; real homing *discovers* zero through the
    /// endstop instead).
    pub fn reference_at(&mut self, mm: f64) {
        self.position_steps = (mm * self.config.steps_per_mm).round() as i64;
    }

    /// The axis configuration.
    pub fn config(&self) -> &AxisConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_signals::Axis;

    fn x_axis() -> AxisMechanism {
        AxisMechanism::new(AxisConfig::default_for(Axis::X))
    }

    #[test]
    fn advance_moves_by_microsteps() {
        let mut m = x_axis();
        m.reference_at(10.0);
        for _ in 0..100 {
            assert!(m.advance(1));
        }
        assert!((m.position_mm() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn endstop_triggers_near_zero() {
        let mut m = x_axis();
        m.reference_at(0.2);
        assert_eq!(m.endstop_level(), Level::Low);
        m.reference_at(0.1);
        assert_eq!(m.endstop_level(), Level::High);
        m.reference_at(0.0);
        assert_eq!(m.endstop_level(), Level::High);
    }

    #[test]
    fn steps_into_the_frame_are_lost() {
        let mut m = x_axis();
        m.reference_at(-0.9);
        let spm = m.config().steps_per_mm;
        // 0.1mm of margin remains (overtravel 1.0mm): 10 steps succeed.
        let mut moved = 0;
        for _ in 0..50 {
            if m.advance(-1) {
                moved += 1;
            }
        }
        assert_eq!(moved, (0.1 * spm) as i32);
        assert_eq!(m.lost_steps, 40);
        assert!((m.position_mm() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_travel_enforced() {
        let mut m = x_axis();
        m.reference_at(249.99);
        let mut moved = 0;
        for _ in 0..10 {
            if m.advance(1) {
                moved += 1;
            }
        }
        assert_eq!(moved, 1);
        assert_eq!(m.lost_steps, 9);
    }

    #[test]
    fn extruder_is_unbounded() {
        let mut e = AxisMechanism::new(AxisConfig::default_for(Axis::E));
        for _ in 0..100_000 {
            assert!(e.advance(1));
        }
        assert_eq!(e.lost_steps, 0);
        assert_eq!(e.endstop_level(), Level::Low);
    }

    #[test]
    fn powers_on_mid_travel() {
        let m = x_axis();
        assert!(m.position_mm() > 1.0, "must not power on at the endstop");
        assert_eq!(m.endstop_level(), Level::Low);
    }
}
