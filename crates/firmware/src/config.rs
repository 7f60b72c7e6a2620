//! Firmware configuration (the analogue of Marlin's `Configuration.h`).

/// Tunables of the simulated firmware. Defaults approximate a Prusa-like
/// RAMPS machine.
#[derive(Debug, Clone, PartialEq)]
pub struct FirmwareConfig {
    /// Microsteps per mm for X, Y, Z, E (must match the plant).
    pub steps_per_mm: [f64; 4],
    /// Per-axis speed caps, mm/s.
    pub max_speed_mm_s: [f64; 4],
    /// Path acceleration, mm/s².
    pub acceleration_mm_s2: f64,
    /// Default feedrate when a program never sets `F`, mm/s.
    pub default_feedrate_mm_s: f64,
    /// Homing fast-approach speed, mm/s.
    pub homing_speed_mm_s: f64,
    /// Homing slow re-bump speed, mm/s.
    pub homing_bump_speed_mm_s: f64,
    /// Back-off distance between the two homing touches, mm.
    pub homing_backoff_mm: f64,
    /// STEP pulse high time, µs (Marlin uses 1–2 µs; the paper measured
    /// ≥ 1 µs minimum pulse widths). Must be shorter than the shortest
    /// step interval; `Firmware::new` refuses the config otherwise.
    pub step_pulse_us: u64,
    /// Delay between a DIR change and the first STEP edge, µs.
    pub dir_setup_us: u64,
    /// Temperature control loop period, ms.
    pub temp_loop_ms: u64,
    /// Soft PWM period for heaters and fan, ms.
    pub pwm_period_ms: u64,
    /// Hotend PID gains (Kp, Ki, Kd) on duty fraction per °C.
    pub hotend_pid: (f64, f64, f64),
    /// Bed hysteresis half-width for bang-bang control, °C.
    pub bed_hysteresis_c: f64,
    /// `M109`/`M190` completion tolerance, °C.
    pub wait_tolerance_c: f64,
    /// Heating-failed watchdog: must gain this many °C …
    pub watch_increase_c: f64,
    /// … within this many seconds while heating, else halt.
    pub watch_period_s: f64,
    /// Thermal runaway: once at target, temperature more than this far
    /// below target …
    pub runaway_hysteresis_c: f64,
    /// … for this many seconds halts the machine.
    pub runaway_period_s: f64,
    /// Hotend MAXTEMP cutoff, °C.
    pub hotend_maxtemp_c: f64,
    /// Bed MAXTEMP cutoff, °C.
    pub bed_maxtemp_c: f64,
    /// MINTEMP cutoff (thermistor fault detection), °C.
    pub mintemp_c: f64,
    /// Standard deviation of the per-move duration jitter ("time
    /// noise"), as a fraction of the move duration. Two prints of the
    /// same G-code with different seeds drift by a few tenths of a
    /// percent — the asynchrony the paper's 5 % margin absorbs.
    pub jitter_sigma: f64,
    /// Display status report period, ms (0 disables).
    pub status_period_ms: u64,
    /// Maximum homing travel before declaring the endstop missing, mm.
    pub homing_max_travel_mm: f64,
}

impl Default for FirmwareConfig {
    fn default() -> Self {
        FirmwareConfig {
            steps_per_mm: [100.0, 100.0, 400.0, 280.0],
            max_speed_mm_s: [200.0, 200.0, 12.0, 120.0],
            acceleration_mm_s2: 1_000.0,
            default_feedrate_mm_s: 40.0,
            homing_speed_mm_s: 40.0,
            homing_bump_speed_mm_s: 4.0,
            homing_backoff_mm: 2.0,
            step_pulse_us: 2,
            dir_setup_us: 1,
            temp_loop_ms: 100,
            pwm_period_ms: 20,
            hotend_pid: (0.1, 0.005, 0.05),
            bed_hysteresis_c: 1.0,
            wait_tolerance_c: 2.0,
            watch_increase_c: 2.0,
            watch_period_s: 20.0,
            runaway_hysteresis_c: 4.0,
            runaway_period_s: 10.0,
            hotend_maxtemp_c: 275.0,
            bed_maxtemp_c: 120.0,
            mintemp_c: 5.0,
            jitter_sigma: 0.0005,
            status_period_ms: 1_000,
            homing_max_travel_mm: 300.0,
        }
    }
}

impl FirmwareConfig {
    /// A config with jitter disabled (bit-identical repeated prints).
    // detlint: allow(D7) -- tests/detection_e2e.rs
    pub fn deterministic() -> Self {
        FirmwareConfig {
            jitter_sigma: 0.0,
            ..FirmwareConfig::default()
        }
    }

    /// The shortest interval between two STEP pulses, s: the fastest
    /// axis at its speed cap, or at homing speed for X/Y/Z, with the
    /// per-move jitter shrinking the move by its largest draw.
    pub(crate) fn shortest_step_interval_s(&self) -> f64 {
        let homing = self.homing_speed_mm_s.max(self.homing_bump_speed_mm_s);
        let rate = (0..4)
            .map(|i| {
                let speed = if i < 3 {
                    self.max_speed_mm_s[i].max(homing)
                } else {
                    self.max_speed_mm_s[i]
                };
                speed * self.steps_per_mm[i]
            })
            .fold(0.0, f64::max);
        (1.0 - 3.0 * self.jitter_sigma.max(0.0)).max(0.5) / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_plant_defaults() {
        let c = FirmwareConfig::default();
        assert_eq!(c.steps_per_mm, [100.0, 100.0, 400.0, 280.0]);
        assert!(c.jitter_sigma > 0.0);
        assert_eq!(FirmwareConfig::deterministic().jitter_sigma, 0.0);
    }

    #[test]
    fn default_step_pulse_fits_the_fastest_step() {
        // E at 120 mm/s and 280 steps/mm steps every 29.8 µs, less 3σ
        // of jitter.
        let c = FirmwareConfig::default();
        let interval_us = c.shortest_step_interval_s() * 1e6;
        assert!((29.6..29.8).contains(&interval_us), "{interval_us}");
        assert!(c.step_pulse_us < 29);
    }

    #[test]
    fn step_rates_stay_under_20khz() {
        // The paper measured all signals below 20 kHz; check the config
        // cannot exceed that on X/Y: 200 mm/s * 100 steps/mm = 20 kHz.
        let c = FirmwareConfig::default();
        for i in 0..2 {
            assert!(c.max_speed_mm_s[i] * c.steps_per_mm[i] <= 20_000.0);
        }
    }
}
