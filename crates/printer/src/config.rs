//! Physical configuration of the simulated printer.
//!
//! Defaults model the paper's test machine: a Prusa i3 MK3S+ converted to
//! mechanical MIN endstops, driven by a RAMPS 1.4 with A4988 drivers at
//! 1/16 microstepping and a 24 V supply.

use offramps_signals::Axis;

/// Per-axis mechanical parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisConfig {
    /// Microsteps per millimetre of carriage travel (at the driver's
    /// configured microstep mode).
    pub steps_per_mm: f64,
    /// Usable travel, mm. Positions are clamped to `[-overtravel, travel]`.
    pub travel_mm: f64,
    /// How far past logical zero the carriage can physically move before
    /// hitting the frame, mm.
    pub overtravel_mm: f64,
    /// The MIN endstop reads *triggered* while the position is at or below
    /// this threshold, mm.
    pub endstop_trigger_mm: f64,
}

impl AxisConfig {
    /// Prusa-like defaults for a given axis.
    pub fn default_for(axis: Axis) -> Self {
        match axis {
            Axis::X => AxisConfig {
                steps_per_mm: 100.0,
                travel_mm: 250.0,
                overtravel_mm: 1.0,
                endstop_trigger_mm: 0.1,
            },
            Axis::Y => AxisConfig {
                steps_per_mm: 100.0,
                travel_mm: 210.0,
                overtravel_mm: 1.0,
                endstop_trigger_mm: 0.1,
            },
            Axis::Z => AxisConfig {
                steps_per_mm: 400.0,
                travel_mm: 210.0,
                overtravel_mm: 0.5,
                endstop_trigger_mm: 0.05,
            },
            // The extruder has no endstop and no travel limit.
            Axis::E => AxisConfig {
                steps_per_mm: 280.0,
                travel_mm: f64::INFINITY,
                overtravel_mm: f64::INFINITY,
                endstop_trigger_mm: f64::NEG_INFINITY,
            },
        }
    }
}

/// Lumped-RC thermal parameters of one heater.
///
/// `dT/dt = (power·gate − loss·(T − ambient)) / capacity`. The defaults
/// are tuned so heat-up times are realistic-but-brisk (tens of seconds),
/// keeping whole-print simulations fast; the *shape* (first-order rise,
/// overshoot behaviour under PID, unbounded rise at 100 % duty) matches
/// the physical hotend/bed the paper heated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Heater power when the MOSFET gate is high, W.
    pub power_w: f64,
    /// Thermal capacity, J/K.
    pub capacity_j_per_k: f64,
    /// Loss coefficient to ambient, W/K.
    pub loss_w_per_k: f64,
    /// Ambient temperature, °C.
    pub ambient_c: f64,
    /// Thermistor Beta coefficient (model: 100 kΩ NTC, Semitec-like).
    pub therm_beta: f64,
    /// Thermistor nominal resistance at 25 °C, Ω.
    pub therm_r25: f64,
    /// Divider pull-up on the RAMPS, Ω.
    pub pullup_ohm: f64,
    /// Temperature the element is damaged/destroyed at, °C (for
    /// reporting destructive Trojans like T7).
    pub damage_temp_c: f64,
}

impl ThermalConfig {
    /// A hotend-like heater (45 W cartridge, low thermal mass;
    /// equilibrium ≈ 325 °C at 100 % duty, so a stuck-on MOSFET passes
    /// MAXTEMP within a print — the paper observed T7 "passing the
    /// intended temperature within a few seconds of activation").
    pub fn hotend() -> Self {
        ThermalConfig {
            power_w: 45.0,
            capacity_j_per_k: 4.0,
            loss_w_per_k: 0.15,
            ambient_c: 25.0,
            therm_beta: 4267.0,
            therm_r25: 100_000.0,
            pullup_ohm: 4_700.0,
            damage_temp_c: 290.0,
        }
    }

    /// A heated-bed-like heater (accelerated: reaches 60 °C in ~15 s).
    pub fn bed() -> Self {
        ThermalConfig {
            power_w: 250.0,
            capacity_j_per_k: 70.0,
            loss_w_per_k: 1.8,
            ambient_c: 25.0,
            therm_beta: 3950.0,
            therm_r25: 100_000.0,
            pullup_ohm: 4_700.0,
            damage_temp_c: 150.0,
        }
    }

    /// Steady-state temperature at a constant duty in `[0, 1]`.
    pub(crate) fn steady_state_c(&self, duty: f64) -> f64 {
        self.ambient_c + self.power_w * duty / self.loss_w_per_k
    }

    /// Thermal time constant, seconds.
    pub(crate) fn tau_s(&self) -> f64 {
        self.capacity_j_per_k / self.loss_w_per_k
    }
}

/// Complete plant configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantConfig {
    /// Mechanics of X, Y, Z, E in [`Axis::ALL`] order.
    pub axes: [AxisConfig; 4],
    /// Hotend thermal model.
    pub hotend: ThermalConfig,
    /// Bed thermal model.
    pub bed: ThermalConfig,
    /// Shortest STEP high pulse the A4988 will register, ns (datasheet
    /// minimum is 1 µs).
    pub min_step_pulse_ns: u64,
    /// ADC sampling period for the thermistor feedback, milliseconds.
    pub adc_period_ms: u64,
    /// Fan: time constant of the first-order RPM response, seconds.
    pub fan_tau_s: f64,
    /// Fan: RPM at 100 % duty.
    pub fan_max_rpm: f64,
    /// Deposition: minimum XY distance between recorded path samples, mm.
    pub deposition_resolution_mm: f64,
}

impl Default for PlantConfig {
    fn default() -> Self {
        PlantConfig {
            axes: [
                AxisConfig::default_for(Axis::X),
                AxisConfig::default_for(Axis::Y),
                AxisConfig::default_for(Axis::Z),
                AxisConfig::default_for(Axis::E),
            ],
            hotend: ThermalConfig::hotend(),
            bed: ThermalConfig::bed(),
            min_step_pulse_ns: 1_000,
            adc_period_ms: 100,
            fan_tau_s: 0.5,
            fan_max_rpm: 6_000.0,
            deposition_resolution_mm: 0.2,
        }
    }
}

impl PlantConfig {
    /// The axis configuration for `axis`.
    pub fn axis(&self, axis: Axis) -> &AxisConfig {
        &self.axes[axis.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_prusa_like() {
        let c = PlantConfig::default();
        assert_eq!(c.axis(Axis::X).steps_per_mm, 100.0);
        assert_eq!(c.axis(Axis::Z).steps_per_mm, 400.0);
        assert_eq!(c.axis(Axis::E).steps_per_mm, 280.0);
        assert!(c.axis(Axis::E).min_is_unreachable());
    }

    impl AxisConfig {
        fn min_is_unreachable(&self) -> bool {
            self.endstop_trigger_mm == f64::NEG_INFINITY
        }
    }

    #[test]
    fn hotend_can_exceed_damage_temp_when_stuck_on() {
        let h = ThermalConfig::hotend();
        // Stuck-on MOSFET (T7) must be able to push past the damage point.
        assert!(h.steady_state_c(1.0) > h.damage_temp_c);
        // But a PID holding ~75% duty can still reach typical PLA temps.
        assert!(h.steady_state_c(0.75) > 215.0);
    }

    #[test]
    fn bed_reaches_typical_targets() {
        let b = ThermalConfig::bed();
        assert!(b.steady_state_c(1.0) > 100.0);
        assert!(b.tau_s() > 10.0);
    }
}
