//! A4988 stepper driver model.
//!
//! The paper uses "the default A4988 drivers shipped with RAMPS. These
//! are inexpensive and popular, representative of components common to
//! commercial 3D printers." The behaviours that matter to OFFRAMPS
//! experiments are reproduced:
//!
//! * a **rising** STEP edge advances the motor one microstep in the
//!   direction given by DIR (high = positive by our convention),
//! * STEP pulses shorter than the datasheet minimum (1 µs) may be lost —
//!   we count and ignore them,
//! * the active-low ENABLE input gates everything: while disabled the
//!   driver ignores STEP entirely (the basis of Trojan T8).

use offramps_des::Tick;
use offramps_signals::{Level, LogicEvent};

/// One A4988 driver: STEP/DIR/ENABLE in, microstep position out.
///
/// # Example
///
/// ```
/// use offramps_printer::A4988Driver;
/// use offramps_des::{Tick, SimDuration};
/// use offramps_signals::Level;
///
/// let mut drv = A4988Driver::new(1_000); // 1 us minimum pulse
/// drv.set_enable(Level::Low);            // active low: enabled
/// drv.set_dir(Level::High);              // positive
/// drv.step_edge(Tick::ZERO, Level::High);
/// drv.step_edge(Tick::from_micros(2), Level::Low);
/// assert_eq!(drv.position_microsteps(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct A4988Driver {
    min_pulse_ns: u64,
    enabled: bool,
    dir_positive: bool,
    step_high: bool,
    pending_rise: Option<Tick>,
    position: i64,
    /// Steps ignored because the driver was disabled.
    pub steps_while_disabled: u64,
    /// Rising edges whose high time was below the datasheet minimum.
    pub short_pulses: u64,
}

impl A4988Driver {
    /// Creates a driver with the given minimum STEP pulse width (ns).
    pub fn new(min_pulse_ns: u64) -> Self {
        A4988Driver {
            min_pulse_ns,
            enabled: false, // EN idles high (disabled) at power-on
            dir_positive: false,
            step_high: false,
            pending_rise: None,
            position: 0,
            steps_while_disabled: 0,
            short_pulses: 0,
        }
    }

    /// Applies a level on the ENABLE pin (active low).
    pub fn set_enable(&mut self, level: Level) {
        self.enabled = !level.is_high();
        if !self.enabled {
            self.pending_rise = None;
        }
    }

    /// Applies a level on the DIR pin (high = positive).
    pub fn set_dir(&mut self, level: Level) {
        self.dir_positive = level.is_high();
    }

    /// Applies a level change on the STEP pin at `tick`. A microstep is
    /// committed on the *falling* edge once the high time is validated
    /// against the minimum pulse width; in exchange the model never
    /// counts glitch pulses a real driver would miss.
    ///
    /// Returns the position delta committed by this event (−1, 0 or +1).
    pub fn step_edge(&mut self, tick: Tick, level: Level) -> i64 {
        match (self.step_high, level) {
            (false, Level::High) => {
                self.step_high = true;
                if self.enabled {
                    self.pending_rise = Some(tick);
                } else {
                    self.steps_while_disabled += 1;
                }
                0
            }
            (true, Level::Low) => {
                self.step_high = false;
                if let Some(rise) = self.pending_rise.take() {
                    let width_ns = tick.saturating_since(rise).as_nanos();
                    if width_ns >= self.min_pulse_ns {
                        let delta = if self.dir_positive { 1 } else { -1 };
                        self.position += delta;
                        return delta;
                    }
                    self.short_pulses += 1;
                }
                0
            }
            _ => 0, // repeated level: not an edge
        }
    }

    /// Routes a full logic event for this driver's pins.
    pub fn apply(&mut self, tick: Tick, event: LogicEvent) -> i64 {
        if event.pin.is_step() {
            self.step_edge(tick, event.level)
        } else if event.pin.is_dir() {
            self.set_dir(event.level);
            0
        } else if event.pin.is_enable() {
            self.set_enable(event.level);
            0
        } else {
            0
        }
    }

    /// Net microsteps since power-on.
    pub fn position_microsteps(&self) -> i64 {
        self.position
    }

    /// Whether the driver is currently energized.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_des::SimDuration;

    fn enabled_driver() -> A4988Driver {
        let mut d = A4988Driver::new(1_000);
        d.set_enable(Level::Low);
        d
    }

    fn pulse(d: &mut A4988Driver, at: Tick, width: SimDuration) -> i64 {
        d.step_edge(at, Level::High);
        d.step_edge(at + width, Level::Low)
    }

    #[test]
    fn steps_follow_dir() {
        let mut d = enabled_driver();
        d.set_dir(Level::High);
        assert_eq!(pulse(&mut d, Tick::ZERO, SimDuration::from_micros(2)), 1);
        assert_eq!(
            pulse(&mut d, Tick::from_micros(10), SimDuration::from_micros(2)),
            1
        );
        d.set_dir(Level::Low);
        assert_eq!(
            pulse(&mut d, Tick::from_micros(20), SimDuration::from_micros(2)),
            -1
        );
        assert_eq!(d.position_microsteps(), 1);
    }

    #[test]
    fn disabled_driver_ignores_steps() {
        let mut d = A4988Driver::new(1_000);
        d.set_dir(Level::High);
        assert_eq!(pulse(&mut d, Tick::ZERO, SimDuration::from_micros(2)), 0);
        assert_eq!(d.position_microsteps(), 0);
        assert_eq!(d.steps_while_disabled, 1);
    }

    #[test]
    fn short_pulses_rejected() {
        let mut d = enabled_driver();
        d.set_dir(Level::High);
        // 0.5 us < 1 us minimum.
        assert_eq!(pulse(&mut d, Tick::ZERO, SimDuration::from_nanos(500)), 0);
        assert_eq!(d.short_pulses, 1);
        assert_eq!(
            pulse(&mut d, Tick::from_micros(5), SimDuration::from_micros(1)),
            1
        );
    }

    #[test]
    fn disable_mid_pulse_drops_the_step() {
        let mut d = enabled_driver();
        d.set_dir(Level::High);
        d.step_edge(Tick::ZERO, Level::High);
        d.set_enable(Level::High); // T8-style kill between edges
        assert_eq!(d.step_edge(Tick::from_micros(2), Level::Low), 0);
        assert_eq!(d.position_microsteps(), 0);
    }

    #[test]
    fn repeated_levels_are_not_edges() {
        let mut d = enabled_driver();
        d.set_dir(Level::High);
        d.step_edge(Tick::ZERO, Level::High);
        d.step_edge(Tick::from_micros(1), Level::High); // repeat
        d.step_edge(Tick::from_micros(2), Level::Low);
        d.step_edge(Tick::from_micros(3), Level::Low); // repeat
        assert_eq!(d.position_microsteps(), 1);
    }

    #[test]
    fn apply_routes_by_pin() {
        use offramps_signals::Pin;
        let mut d = A4988Driver::new(1_000);
        d.apply(Tick::ZERO, LogicEvent::new(Pin::XEnable, Level::Low));
        d.apply(Tick::ZERO, LogicEvent::new(Pin::XDir, Level::High));
        d.apply(Tick::ZERO, LogicEvent::new(Pin::XStep, Level::High));
        let delta = d.apply(
            Tick::from_micros(2),
            LogicEvent::new(Pin::XStep, Level::Low),
        );
        assert_eq!(delta, 1);
        assert!(d.is_enabled());
        assert!(d.dir_positive);
    }
}
