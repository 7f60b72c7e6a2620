//! Firmware fault conditions.

use std::fmt;

use offramps_signals::Axis;

/// Which heating element a thermal fault concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeaterId {
    /// The hotend (RAMPS D10).
    Hotend,
    /// The heated bed (RAMPS D8).
    Bed,
}

impl fmt::Display for HeaterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HeaterId::Hotend => "hotend",
            HeaterId::Bed => "bed",
        })
    }
}

/// Fatal conditions that halt the firmware (Marlin "killed" states).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FirmwareError {
    /// Heating watchdog expired: the element never warmed up
    /// (Marlin: "Heating failed").
    HeatingFailed(HeaterId),
    /// Temperature fell away from target while regulating
    /// (Marlin: "Thermal Runaway").
    ThermalRunaway(HeaterId),
    /// Temperature exceeded the MAXTEMP cutoff.
    MaxTemp(HeaterId),
    /// Temperature below MINTEMP (broken/shorted thermistor).
    MinTemp(HeaterId),
    /// Homing travelled the whole axis without seeing the endstop.
    EndstopNotFound(Axis),
}

impl fmt::Display for FirmwareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FirmwareError::HeatingFailed(h) => write!(f, "heating failed on {h}"),
            FirmwareError::ThermalRunaway(h) => write!(f, "thermal runaway on {h}"),
            FirmwareError::MaxTemp(h) => write!(f, "maxtemp triggered on {h}"),
            FirmwareError::MinTemp(h) => write!(f, "mintemp triggered on {h}"),
            FirmwareError::EndstopNotFound(a) => {
                write!(f, "endstop not found while homing {a}")
            }
        }
    }
}

impl std::error::Error for FirmwareError {}

/// A firmware configuration the machine refuses to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Each STEP pulse must end before the next one starts, but the
    /// configured pulse is not shorter than the shortest step interval.
    StepPulseTooWide {
        /// The configured `step_pulse_us`.
        pulse_us: u64,
        /// The shortest step interval the config allows, µs.
        interval_us: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::StepPulseTooWide {
                pulse_us,
                interval_us,
            } => write!(
                f,
                "step_pulse_us = {pulse_us} must be shorter than the shortest step interval, {interval_us:.1} µs"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            FirmwareError::ThermalRunaway(HeaterId::Hotend).to_string(),
            "thermal runaway on hotend"
        );
        assert_eq!(
            FirmwareError::EndstopNotFound(Axis::Y).to_string(),
            "endstop not found while homing Y"
        );
    }
}
