//! Heater regulation and Marlin's thermal protection suite.
//!
//! Trojans T6 and T7 interact directly with this logic: T6 cuts heater
//! power so the *heating-failed* watchdog (or a runaway check mid-print)
//! fires and "the Marlin firmware enters an error state and ends the
//! print prematurely"; T7 forces the MOSFETs on, which the firmware
//! counters with MAXTEMP — but since the Trojan owns the gate downstream,
//! the element keeps heating, demonstrating why firmware-level fail-safes
//! cannot contain hardware Trojans.

use offramps_des::Tick;

use crate::config::FirmwareConfig;
use crate::error::{FirmwareError, HeaterId};

/// Watchdog phase for one heater.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeaterProtection {
    /// Heater off, nothing monitored.
    Idle,
    /// Ramping to target: must gain `watch_increase_c` before the
    /// deadline.
    Heating {
        /// Temperature when the watch window was (re-)armed.
        watch_temp_c: f64,
        /// Watch window deadline.
        deadline: Tick,
    },
    /// At target: temperature must stay within the runaway hysteresis.
    Regulating {
        /// When the temperature first dropped out of the hysteresis
        /// band, if it currently is out.
        below_since: Option<Tick>,
    },
}

/// Closed-loop control + protection for one heating element.
///
/// # Example
///
/// ```
/// use offramps_firmware::{HeaterControl, HeaterId, FirmwareConfig};
/// use offramps_des::Tick;
///
/// let cfg = FirmwareConfig::default();
/// let mut h = HeaterControl::new_hotend(HeaterId::Hotend, &cfg);
/// h.set_target(Tick::ZERO, 210.0, 25.0);
/// let duty = h.update(Tick::from_millis(100), 25.0).unwrap();
/// assert_eq!(duty, 255, "full power when far below target");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeaterControl {
    id: HeaterId,
    target_c: f64,
    // PID state (hotend) — bed uses hysteresis control with gains zeroed.
    kp: f64,
    ki: f64,
    kd: f64,
    integral: f64,
    last_temp: Option<f64>,
    last_update: Option<Tick>,
    bang_bang: bool,
    hysteresis_c: f64,
    maxtemp_c: f64,
    mintemp_c: f64,
    watch_increase_c: f64,
    watch_period_s: f64,
    runaway_hysteresis_c: f64,
    runaway_period_s: f64,
    protection: HeaterProtection,
    reached: bool,
}

impl HeaterControl {
    /// Creates the PID-controlled hotend loop.
    pub fn new_hotend(id: HeaterId, cfg: &FirmwareConfig) -> Self {
        HeaterControl {
            id,
            target_c: 0.0,
            kp: cfg.hotend_pid.0,
            ki: cfg.hotend_pid.1,
            kd: cfg.hotend_pid.2,
            integral: 0.0,
            last_temp: None,
            last_update: None,
            bang_bang: false,
            hysteresis_c: 0.0,
            maxtemp_c: cfg.hotend_maxtemp_c,
            mintemp_c: cfg.mintemp_c,
            watch_increase_c: cfg.watch_increase_c,
            watch_period_s: cfg.watch_period_s,
            runaway_hysteresis_c: cfg.runaway_hysteresis_c,
            runaway_period_s: cfg.runaway_period_s,
            protection: HeaterProtection::Idle,
            reached: false,
        }
    }

    /// Creates the bang-bang bed loop.
    pub(crate) fn new_bed(id: HeaterId, cfg: &FirmwareConfig) -> Self {
        HeaterControl {
            bang_bang: true,
            hysteresis_c: cfg.bed_hysteresis_c,
            maxtemp_c: cfg.bed_maxtemp_c,
            // Beds get a longer watch window in Marlin; keep the same
            // period here but a gentler increase requirement.
            watch_increase_c: cfg.watch_increase_c / 2.0,
            ..HeaterControl::new_hotend(id, cfg)
        }
    }

    /// Sets a new target. `current_c` arms the heating watchdog.
    pub fn set_target(&mut self, now: Tick, target_c: f64, current_c: f64) {
        self.target_c = target_c;
        self.integral = 0.0;
        self.reached = false;
        if target_c <= 0.0 {
            self.protection = HeaterProtection::Idle;
        } else if current_c < target_c - self.runaway_hysteresis_c {
            self.protection = HeaterProtection::Heating {
                watch_temp_c: current_c,
                deadline: now + offramps_des::SimDuration::from_secs_f64(self.watch_period_s),
            };
        } else {
            self.reached = true;
            self.protection = HeaterProtection::Regulating { below_since: None };
        }
    }

    /// True once the temperature has reached the target since the last
    /// `set_target` (used by `M109`/`M190` waits).
    pub(crate) fn reached(&self) -> bool {
        self.reached
    }

    /// One control-loop iteration: returns the PWM duty (0–255) to apply,
    /// or the fatal fault.
    ///
    /// # Errors
    ///
    /// Returns the [`FirmwareError`] when a protection trips; the caller
    /// must kill the machine (heaters off, steppers disabled).
    pub fn update(&mut self, now: Tick, temp_c: f64) -> Result<u8, FirmwareError> {
        // --- hard cutoffs first ---
        if temp_c > self.maxtemp_c {
            return Err(FirmwareError::MaxTemp(self.id));
        }
        if self.target_c > 0.0 && temp_c < self.mintemp_c {
            return Err(FirmwareError::MinTemp(self.id));
        }

        // --- watchdog / runaway ---
        match self.protection {
            HeaterProtection::Idle => {}
            HeaterProtection::Heating {
                watch_temp_c,
                deadline,
            } => {
                if temp_c >= self.target_c - self.runaway_hysteresis_c {
                    self.reached = true;
                    self.protection = HeaterProtection::Regulating { below_since: None };
                } else if temp_c >= watch_temp_c + self.watch_increase_c {
                    // Progress: re-arm the watch window.
                    self.protection = HeaterProtection::Heating {
                        watch_temp_c: temp_c,
                        deadline: now
                            + offramps_des::SimDuration::from_secs_f64(self.watch_period_s),
                    };
                } else if now >= deadline {
                    return Err(FirmwareError::HeatingFailed(self.id));
                }
            }
            HeaterProtection::Regulating { below_since } => {
                if temp_c < self.target_c - self.runaway_hysteresis_c {
                    match below_since {
                        None => {
                            self.protection = HeaterProtection::Regulating {
                                below_since: Some(now),
                            };
                        }
                        Some(since) => {
                            if now.saturating_since(since).as_secs_f64() >= self.runaway_period_s {
                                return Err(FirmwareError::ThermalRunaway(self.id));
                            }
                        }
                    }
                } else {
                    self.reached = true;
                    self.protection = HeaterProtection::Regulating { below_since: None };
                }
            }
        }

        // --- output ---
        if self.target_c <= 0.0 {
            self.last_temp = Some(temp_c);
            self.last_update = Some(now);
            return Ok(0);
        }
        let duty = if self.bang_bang {
            if temp_c < self.target_c - self.hysteresis_c {
                255
            } else if temp_c > self.target_c + self.hysteresis_c {
                0
            } else {
                // Inside the band: hold last action by temperature slope
                // (simple deadband: stay on below target, off above).
                if temp_c < self.target_c {
                    255
                } else {
                    0
                }
            }
        } else {
            let error = self.target_c - temp_c;
            let dt = match (self.last_update, self.last_temp) {
                (Some(last), Some(_)) => now.saturating_since(last).as_secs_f64(),
                _ => 0.0,
            };
            if dt > 0.0 {
                self.integral = (self.integral + error * dt).clamp(-200.0, 200.0);
            }
            let derivative = match (self.last_temp, dt > 0.0) {
                (Some(prev), true) => (temp_c - prev) / dt,
                _ => 0.0,
            };
            let out = self.kp * error + self.ki * self.integral - self.kd * derivative;
            (out.clamp(0.0, 1.0) * 255.0).round() as u8
        };
        self.last_temp = Some(temp_c);
        self.last_update = Some(now);
        Ok(duty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_des::SimDuration;

    fn cfg() -> FirmwareConfig {
        FirmwareConfig::default()
    }

    #[test]
    fn pid_full_power_when_cold_zero_when_hot() {
        let mut h = HeaterControl::new_hotend(HeaterId::Hotend, &cfg());
        h.set_target(Tick::ZERO, 210.0, 25.0);
        assert_eq!(h.update(Tick::from_millis(100), 25.0).unwrap(), 255);
        assert_eq!(h.update(Tick::from_millis(200), 260.0).unwrap(), 0);
    }

    #[test]
    fn heating_failed_when_no_progress() {
        let c = cfg();
        let mut h = HeaterControl::new_hotend(HeaterId::Hotend, &c);
        h.set_target(Tick::ZERO, 210.0, 25.0);
        // Temperature never rises; advance past the watch period.
        let mut t = Tick::ZERO;
        let step = SimDuration::from_millis(c.temp_loop_ms);
        let mut tripped = None;
        for _ in 0..((c.watch_period_s * 1000.0 / c.temp_loop_ms as f64) as usize + 5) {
            t += step;
            if let Err(e) = h.update(t, 25.0) {
                tripped = Some(e);
                break;
            }
        }
        assert_eq!(
            tripped,
            Some(FirmwareError::HeatingFailed(HeaterId::Hotend))
        );
    }

    #[test]
    fn watchdog_rearms_on_progress() {
        let c = cfg();
        let mut h = HeaterControl::new_hotend(HeaterId::Hotend, &c);
        h.set_target(Tick::ZERO, 210.0, 25.0);
        // Gain 3 degrees every watch period: always re-arms, never trips.
        let mut temp = 25.0;
        let mut t = Tick::ZERO;
        for _ in 0..20 {
            t += SimDuration::from_secs_f64(c.watch_period_s / 2.0);
            temp += 3.0;
            assert!(h.update(t, temp).is_ok(), "at {temp}C");
        }
    }

    #[test]
    fn runaway_trips_after_sustained_drop() {
        let c = cfg();
        let mut h = HeaterControl::new_hotend(HeaterId::Hotend, &c);
        h.set_target(Tick::ZERO, 210.0, 209.0); // already at target
        assert!(h.reached());
        // Sudden drop (heater cartridge unplugged / T6 gate forced off).
        let mut t = Tick::ZERO;
        let mut tripped = None;
        for _ in 0..200 {
            t += SimDuration::from_millis(c.temp_loop_ms);
            if let Err(e) = h.update(t, 150.0) {
                tripped = Some(e);
                break;
            }
        }
        assert_eq!(
            tripped,
            Some(FirmwareError::ThermalRunaway(HeaterId::Hotend))
        );
        // It must take at least runaway_period_s to trip.
        assert!(t.as_secs_f64() >= c.runaway_period_s);
    }

    #[test]
    fn maxtemp_trips_immediately() {
        let mut h = HeaterControl::new_hotend(HeaterId::Hotend, &cfg());
        h.set_target(Tick::ZERO, 210.0, 25.0);
        assert_eq!(
            h.update(Tick::from_millis(100), 280.0),
            Err(FirmwareError::MaxTemp(HeaterId::Hotend))
        );
    }

    #[test]
    fn mintemp_trips_when_heating_with_dead_sensor() {
        let mut h = HeaterControl::new_hotend(HeaterId::Hotend, &cfg());
        h.set_target(Tick::ZERO, 210.0, 25.0);
        assert_eq!(
            h.update(Tick::from_millis(100), -30.0),
            Err(FirmwareError::MinTemp(HeaterId::Hotend))
        );
        // But an idle heater does not MINTEMP (cold room is fine).
        let mut idle = HeaterControl::new_hotend(HeaterId::Hotend, &cfg());
        assert_eq!(idle.update(Tick::from_millis(100), -30.0), Ok(0));
    }

    #[test]
    fn bed_bang_bang() {
        let mut b = HeaterControl::new_bed(HeaterId::Bed, &cfg());
        b.set_target(Tick::ZERO, 60.0, 25.0);
        assert_eq!(b.update(Tick::from_millis(100), 40.0).unwrap(), 255);
        assert_eq!(b.update(Tick::from_millis(200), 62.0).unwrap(), 0);
        assert_eq!(b.update(Tick::from_millis(300), 59.5).unwrap(), 255);
        assert_eq!(b.update(Tick::from_millis(400), 60.5).unwrap(), 0);
    }

    #[test]
    fn target_zero_outputs_zero_and_idles() {
        let mut h = HeaterControl::new_hotend(HeaterId::Hotend, &cfg());
        h.set_target(Tick::ZERO, 210.0, 25.0);
        h.set_target(Tick::from_secs(1), 0.0, 180.0);
        assert_eq!(h.protection, HeaterProtection::Idle);
        assert_eq!(h.update(Tick::from_secs(2), 180.0).unwrap(), 0);
    }

    #[test]
    fn reached_flag_for_m109() {
        let mut h = HeaterControl::new_hotend(HeaterId::Hotend, &cfg());
        h.set_target(Tick::ZERO, 210.0, 25.0);
        assert!(!h.reached());
        let _ = h.update(Tick::from_millis(100), 150.0);
        assert!(!h.reached());
        let _ = h.update(Tick::from_millis(200), 207.0);
        assert!(h.reached());
    }

    #[test]
    fn pid_converges_against_simple_plant() {
        // Close the loop against a first-order plant and verify the
        // steady-state error is small.
        let c = cfg();
        let mut h = HeaterControl::new_hotend(HeaterId::Hotend, &c);
        let (power, cap, loss, amb) = (40.0, 6.0, 0.15, 25.0);
        let mut temp = amb;
        h.set_target(Tick::ZERO, 210.0, temp);
        let dt = c.temp_loop_ms as f64 / 1000.0;
        let mut t = Tick::ZERO;
        for _ in 0..4000 {
            t += SimDuration::from_millis(c.temp_loop_ms);
            let duty = f64::from(h.update(t, temp).unwrap()) / 255.0;
            // Forward Euler on the heater ODE.
            temp += (power * duty - loss * (temp - amb)) / cap * dt;
        }
        assert!(
            (temp - 210.0).abs() < 5.0,
            "PID must settle near 210C, got {temp}"
        );
    }
}
