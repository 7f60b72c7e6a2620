//! The RAMPS 1.4 pin map.
//!
//! Pin numbers follow the canonical RAMPS 1.4 ↔ Arduino Mega 2560
//! assignment from the RepRap wiki (the same map Marlin's
//! `pins_RAMPS.h` uses for the "EFB" configuration: Extruder, Fan, Bed).

use std::fmt;

/// One motion axis or the extruder.
///
/// # Example
///
/// ```
/// use offramps_signals::{Axis, Pin};
/// assert_eq!(Axis::X.step_pin(), Pin::XStep);
/// assert_eq!(Axis::ALL.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Axis {
    /// Gantry X (left/right).
    X,
    /// Gantry Y (bed front/back on a Prusa i3).
    Y,
    /// Gantry Z (up/down).
    Z,
    /// Filament extruder (E0).
    E,
}

impl Axis {
    /// All four axes in canonical order.
    pub const ALL: [Axis; 4] = [Axis::X, Axis::Y, Axis::Z, Axis::E];
    /// The three positioning axes (no extruder).
    pub const MOTION: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// The STEP pin of this axis' stepper driver.
    pub const fn step_pin(self) -> Pin {
        match self {
            Axis::X => Pin::XStep,
            Axis::Y => Pin::YStep,
            Axis::Z => Pin::ZStep,
            Axis::E => Pin::EStep,
        }
    }

    /// The DIR pin of this axis' stepper driver.
    pub const fn dir_pin(self) -> Pin {
        match self {
            Axis::X => Pin::XDir,
            Axis::Y => Pin::YDir,
            Axis::Z => Pin::ZDir,
            Axis::E => Pin::EDir,
        }
    }

    /// The (active-low) ENABLE pin of this axis' stepper driver.
    pub const fn enable_pin(self) -> Pin {
        match self {
            Axis::X => Pin::XEnable,
            Axis::Y => Pin::YEnable,
            Axis::Z => Pin::ZEnable,
            Axis::E => Pin::EEnable,
        }
    }

    /// The MIN endstop pin, if the axis has one (the extruder does not).
    pub const fn min_endstop_pin(self) -> Option<Pin> {
        match self {
            Axis::X => Some(Pin::XMin),
            Axis::Y => Some(Pin::YMin),
            Axis::Z => Some(Pin::ZMin),
            Axis::E => None,
        }
    }

    /// Index in [`Axis::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
            Axis::E => 3,
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Axis::X => "X",
            Axis::Y => "Y",
            Axis::Z => "Z",
            Axis::E => "E",
        })
    }
}

/// Whether a pin carries control (Arduino → RAMPS) or feedback
/// (RAMPS → Arduino) information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinClass {
    /// Driven by the firmware, consumed by the driver board.
    Control,
    /// Driven by the printer (endstops), consumed by the firmware.
    Feedback,
}

/// Every digital line of the Arduino ↔ RAMPS interface that OFFRAMPS
/// intercepts.
///
/// The analog thermistor channels are *not* pins: they are modelled as
/// [`crate::AnalogChannel`] samples because the Artix-7 reads them through
/// its XADC rather than as logic levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pin {
    /// X stepper STEP (Mega pin 54 / A0).
    XStep,
    /// X stepper DIR (55 / A1).
    XDir,
    /// X stepper ENABLE, active low (38).
    XEnable,
    /// Y stepper STEP (60 / A6).
    YStep,
    /// Y stepper DIR (61 / A7).
    YDir,
    /// Y stepper ENABLE, active low (56 / A2).
    YEnable,
    /// Z stepper STEP (46).
    ZStep,
    /// Z stepper DIR (48).
    ZDir,
    /// Z stepper ENABLE, active low (62 / A8).
    ZEnable,
    /// Extruder stepper STEP (26).
    EStep,
    /// Extruder stepper DIR (28).
    EDir,
    /// Extruder stepper ENABLE, active low (24).
    EEnable,
    /// Hotend heater MOSFET gate (D10).
    HotendHeat,
    /// Heated-bed MOSFET gate (D8).
    BedHeat,
    /// Part-cooling fan MOSFET gate (D9).
    FanPwm,
    /// PS_ON / power-supply control (12).
    PsOn,
    /// X MIN endstop switch (3).
    XMin,
    /// Y MIN endstop switch (14).
    YMin,
    /// Z MIN endstop switch (18).
    ZMin,
}

/// All pins, control first, in a stable order.
pub const ALL_PINS: [Pin; 19] = [
    Pin::XStep,
    Pin::XDir,
    Pin::XEnable,
    Pin::YStep,
    Pin::YDir,
    Pin::YEnable,
    Pin::ZStep,
    Pin::ZDir,
    Pin::ZEnable,
    Pin::EStep,
    Pin::EDir,
    Pin::EEnable,
    Pin::HotendHeat,
    Pin::BedHeat,
    Pin::FanPwm,
    Pin::PsOn,
    Pin::XMin,
    Pin::YMin,
    Pin::ZMin,
];

/// The control-direction pins (firmware → RAMPS).
pub const CONTROL_PINS: [Pin; 16] = [
    Pin::XStep,
    Pin::XDir,
    Pin::XEnable,
    Pin::YStep,
    Pin::YDir,
    Pin::YEnable,
    Pin::ZStep,
    Pin::ZDir,
    Pin::ZEnable,
    Pin::EStep,
    Pin::EDir,
    Pin::EEnable,
    Pin::HotendHeat,
    Pin::BedHeat,
    Pin::FanPwm,
    Pin::PsOn,
];

/// The feedback-direction pins (RAMPS → firmware).
pub const FEEDBACK_PINS: [Pin; 3] = [Pin::XMin, Pin::YMin, Pin::ZMin];

impl Pin {
    /// Stable dense index, usable for array-backed per-pin state.
    pub const fn index(self) -> usize {
        match self {
            Pin::XStep => 0,
            Pin::XDir => 1,
            Pin::XEnable => 2,
            Pin::YStep => 3,
            Pin::YDir => 4,
            Pin::YEnable => 5,
            Pin::ZStep => 6,
            Pin::ZDir => 7,
            Pin::ZEnable => 8,
            Pin::EStep => 9,
            Pin::EDir => 10,
            Pin::EEnable => 11,
            Pin::HotendHeat => 12,
            Pin::BedHeat => 13,
            Pin::FanPwm => 14,
            Pin::PsOn => 15,
            Pin::XMin => 16,
            Pin::YMin => 17,
            Pin::ZMin => 18,
        }
    }

    /// Number of distinct pins.
    pub const COUNT: usize = ALL_PINS.len();

    /// The Arduino Mega 2560 pin number on the RAMPS 1.4 (EFB) map.
    pub const fn arduino_pin(self) -> u8 {
        match self {
            Pin::XStep => 54,
            Pin::XDir => 55,
            Pin::XEnable => 38,
            Pin::YStep => 60,
            Pin::YDir => 61,
            Pin::YEnable => 56,
            Pin::ZStep => 46,
            Pin::ZDir => 48,
            Pin::ZEnable => 62,
            Pin::EStep => 26,
            Pin::EDir => 28,
            Pin::EEnable => 24,
            Pin::HotendHeat => 10,
            Pin::BedHeat => 8,
            Pin::FanPwm => 9,
            Pin::PsOn => 12,
            Pin::XMin => 3,
            Pin::YMin => 14,
            Pin::ZMin => 18,
        }
    }

    /// Control or feedback direction.
    pub const fn class(self) -> PinClass {
        match self {
            Pin::XMin | Pin::YMin | Pin::ZMin => PinClass::Feedback,
            _ => PinClass::Control,
        }
    }

    /// The axis a stepper-driver pin belongs to, if any.
    pub const fn axis(self) -> Option<Axis> {
        match self {
            Pin::XStep | Pin::XDir | Pin::XEnable | Pin::XMin => Some(Axis::X),
            Pin::YStep | Pin::YDir | Pin::YEnable | Pin::YMin => Some(Axis::Y),
            Pin::ZStep | Pin::ZDir | Pin::ZEnable | Pin::ZMin => Some(Axis::Z),
            Pin::EStep | Pin::EDir | Pin::EEnable => Some(Axis::E),
            _ => None,
        }
    }

    /// True for the four `*_STEP` pins.
    pub const fn is_step(self) -> bool {
        matches!(self, Pin::XStep | Pin::YStep | Pin::ZStep | Pin::EStep)
    }

    /// True for the four `*_DIR` pins.
    pub const fn is_dir(self) -> bool {
        matches!(self, Pin::XDir | Pin::YDir | Pin::ZDir | Pin::EDir)
    }

    /// True for the four `*_EN` pins.
    pub const fn is_enable(self) -> bool {
        matches!(
            self,
            Pin::XEnable | Pin::YEnable | Pin::ZEnable | Pin::EEnable
        )
    }

    /// Signal name as printed on RAMPS schematics (e.g. `X_STEP`).
    pub const fn name(self) -> &'static str {
        match self {
            Pin::XStep => "X_STEP",
            Pin::XDir => "X_DIR",
            Pin::XEnable => "X_EN",
            Pin::YStep => "Y_STEP",
            Pin::YDir => "Y_DIR",
            Pin::YEnable => "Y_EN",
            Pin::ZStep => "Z_STEP",
            Pin::ZDir => "Z_DIR",
            Pin::ZEnable => "Z_EN",
            Pin::EStep => "E0_STEP",
            Pin::EDir => "E0_DIR",
            Pin::EEnable => "E0_EN",
            Pin::HotendHeat => "D10",
            Pin::BedHeat => "D8",
            Pin::FanPwm => "D9",
            Pin::PsOn => "PS_ON",
            Pin::XMin => "X_MIN",
            Pin::YMin => "Y_MIN",
            Pin::ZMin => "Z_MIN",
        }
    }
}

impl fmt::Display for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn indices_are_dense_and_unique() {
        let idx: HashSet<usize> = ALL_PINS.iter().map(|p| p.index()).collect();
        assert_eq!(idx.len(), Pin::COUNT);
        assert_eq!(*idx.iter().max().unwrap(), Pin::COUNT - 1);
        for (i, p) in ALL_PINS.iter().enumerate() {
            assert_eq!(p.index(), i, "ALL_PINS order must match index()");
        }
    }

    #[test]
    fn control_feedback_partition() {
        for p in CONTROL_PINS {
            assert_eq!(p.class(), PinClass::Control);
        }
        for p in FEEDBACK_PINS {
            assert_eq!(p.class(), PinClass::Feedback);
        }
        assert_eq!(CONTROL_PINS.len() + FEEDBACK_PINS.len(), ALL_PINS.len());
    }

    #[test]
    fn axis_pin_wiring() {
        for axis in Axis::ALL {
            assert_eq!(axis.step_pin().axis(), Some(axis));
            assert_eq!(axis.dir_pin().axis(), Some(axis));
            assert_eq!(axis.enable_pin().axis(), Some(axis));
            assert!(axis.step_pin().is_step());
            assert!(axis.dir_pin().is_dir());
            assert!(axis.enable_pin().is_enable());
        }
        assert_eq!(Axis::E.min_endstop_pin(), None);
        assert_eq!(Axis::X.min_endstop_pin(), Some(Pin::XMin));
    }

    #[test]
    fn ramps_pin_numbers_match_reprap_map() {
        // Spot-check the canonical RAMPS 1.4 assignments.
        assert_eq!(Pin::XStep.arduino_pin(), 54);
        assert_eq!(Pin::XEnable.arduino_pin(), 38);
        assert_eq!(Pin::YStep.arduino_pin(), 60);
        assert_eq!(Pin::ZMin.arduino_pin(), 18);
        assert_eq!(Pin::HotendHeat.arduino_pin(), 10);
        assert_eq!(Pin::BedHeat.arduino_pin(), 8);
        assert_eq!(Pin::FanPwm.arduino_pin(), 9);
    }

    #[test]
    fn names_are_unique() {
        let names: HashSet<&str> = ALL_PINS.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), ALL_PINS.len());
        assert_eq!(Pin::YDir.to_string(), "Y_DIR");
    }

    #[test]
    fn axis_display_and_index() {
        assert_eq!(Axis::X.to_string(), "X");
        for (i, a) in Axis::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
    }
}
