//! Heater thermodynamics and thermistor read-out.
//!
//! The heater is a lumped thermal mass: `C·dT/dt = P·g − k·(T − T_amb)`
//! where `g ∈ {0,1}` is the MOSFET gate. Between gate edges the ODE has
//! the closed form `T(t+Δ) = T_ss + (T − T_ss)·e^(−Δ/τ)`, so the plant
//! integrates lazily — exactly at gate edges and read-outs — which keeps
//! the event count independent of thermal resolution.

use offramps_des::Tick;
use offramps_signals::Level;

use crate::config::ThermalConfig;

/// One heating element (hotend or bed) with its MOSFET gate.
///
/// # Example
///
/// ```
/// use offramps_printer::{HeaterPlant, ThermalConfig};
/// use offramps_des::Tick;
/// use offramps_signals::Level;
///
/// let mut h = HeaterPlant::new(ThermalConfig::hotend());
/// h.set_gate(Tick::ZERO, Level::High);
/// let t = h.temperature_c(Tick::from_secs(30));
/// assert!(t > 100.0, "30 s at full power heats well past 100 C, got {t}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeaterPlant {
    config: ThermalConfig,
    gate_high: bool,
    temp_c: f64,
    last_update: Tick,
    /// Hottest temperature ever reached (°C) — the evidence a destructive
    /// Trojan leaves behind.
    pub peak_temp_c: f64,
    /// Accumulated seconds spent above `damage_temp_c`.
    pub seconds_over_damage: f64,
}

impl HeaterPlant {
    /// Creates a heater at ambient temperature with the gate low.
    pub fn new(config: ThermalConfig) -> Self {
        HeaterPlant {
            gate_high: false,
            temp_c: config.ambient_c,
            last_update: Tick::ZERO,
            peak_temp_c: config.ambient_c,
            seconds_over_damage: 0.0,
            config,
        }
    }

    /// Integrates the ODE up to `now` under the current gate state.
    fn integrate_to(&mut self, now: Tick) {
        if now <= self.last_update {
            return;
        }
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        let duty = if self.gate_high { 1.0 } else { 0.0 };
        let t_ss = self.config.steady_state_c(duty);
        let tau = self.config.tau_s();
        let new_temp = t_ss + (self.temp_c - t_ss) * (-dt / tau).exp();

        // Track damage exposure exactly: the trajectory is a monotone
        // exponential, so the damage threshold is crossed at most once in
        // the interval, at t* = −τ·ln((damage − T_ss)/(T0 − T_ss)).
        let damage = self.config.damage_temp_c;
        let t0 = self.temp_c;
        let over = |t: f64| t > damage;
        self.seconds_over_damage += match (over(t0), over(new_temp)) {
            (true, true) => dt,
            (false, false) => 0.0,
            _ => {
                let ratio = (damage - t_ss) / (t0 - t_ss);
                let t_cross = if ratio > 0.0 { -tau * ratio.ln() } else { 0.0 };
                let t_cross = t_cross.clamp(0.0, dt);
                if over(new_temp) {
                    dt - t_cross // heated past the threshold at t_cross
                } else {
                    t_cross // cooled below it at t_cross
                }
            }
        };

        self.temp_c = new_temp;
        self.peak_temp_c = self.peak_temp_c.max(new_temp);
        self.last_update = now;
    }

    /// Applies a gate (MOSFET) level at `now`.
    pub fn set_gate(&mut self, now: Tick, level: Level) {
        self.integrate_to(now);
        self.gate_high = level.is_high();
    }

    /// The element temperature at `now` (°C). Advances the internal state.
    pub fn temperature_c(&mut self, now: Tick) -> f64 {
        self.integrate_to(now);
        self.temp_c
    }

    /// The thermal configuration.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// The ADC counts a read-out at `now` would produce.
    pub(crate) fn read_adc(&mut self, now: Tick) -> u16 {
        let t = self.temperature_c(now);
        Thermistor::from(&self.config).temp_to_counts(t)
    }
}

/// NTC thermistor + divider + 10-bit ADC conversion (Beta model).
///
/// Both the plant (physics → counts) and a firmware lookup table
/// (counts → temperature) are derived from this model; Marlin similarly
/// ships per-thermistor tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thermistor {
    /// Beta coefficient, K.
    pub beta: f64,
    /// Resistance at 25 °C, Ω.
    pub r25: f64,
    /// Divider pull-up, Ω.
    pub pullup: f64,
}

impl From<&ThermalConfig> for Thermistor {
    fn from(c: &ThermalConfig) -> Self {
        Thermistor {
            beta: c.therm_beta,
            r25: c.therm_r25,
            pullup: c.pullup_ohm,
        }
    }
}

impl Thermistor {
    /// Thermistor resistance at `temp_c` (Beta model).
    pub(crate) fn resistance(&self, temp_c: f64) -> f64 {
        let t_k = temp_c + 273.15;
        let t25_k = 298.15;
        self.r25 * (self.beta * (1.0 / t_k - 1.0 / t25_k)).exp()
    }

    /// 10-bit ADC counts for a read-out at `temp_c`. The thermistor is on
    /// the low side of the divider: counts fall as temperature rises.
    pub fn temp_to_counts(&self, temp_c: f64) -> u16 {
        let r = self.resistance(temp_c);
        let frac = r / (r + self.pullup);
        (frac * 1023.0).round().clamp(0.0, 1023.0) as u16
    }

    /// Inverse conversion (used to build firmware-side tables).
    pub fn counts_to_temp(&self, counts: u16) -> f64 {
        let counts = counts.min(1023);
        if counts == 0 {
            return 500.0; // shorted divider: implausibly hot
        }
        if counts >= 1023 {
            return -50.0; // open circuit: implausibly cold
        }
        let frac = f64::from(counts) / 1023.0;
        let r = self.pullup * frac / (1.0 - frac);
        let t25_k = 298.15;
        let t_k = 1.0 / ((r / self.r25).ln() / self.beta + 1.0 / t25_k);
        t_k - 273.15
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThermalConfig;
    use offramps_des::SimDuration;

    #[test]
    fn heats_toward_steady_state() {
        let cfg = ThermalConfig::hotend();
        let mut h = HeaterPlant::new(cfg);
        h.set_gate(Tick::ZERO, Level::High);
        let t_5tau = h.temperature_c(Tick::from_secs_f64(cfg.tau_s() * 5.0));
        assert!(
            (t_5tau - cfg.steady_state_c(1.0)).abs() < 3.0,
            "after 5 tau the temperature {t_5tau} must be near steady state"
        );
    }

    #[test]
    fn cools_back_to_ambient() {
        let cfg = ThermalConfig::hotend();
        let mut h = HeaterPlant::new(cfg);
        h.set_gate(Tick::ZERO, Level::High);
        let hot = h.temperature_c(Tick::from_secs(60));
        h.set_gate(Tick::from_secs(60), Level::Low);
        let later = h.temperature_c(Tick::from_secs_f64(60.0 + cfg.tau_s() * 6.0));
        assert!(hot > 150.0);
        assert!((later - cfg.ambient_c).abs() < 2.0, "cooled to {later}");
    }

    #[test]
    fn pwm_duty_holds_intermediate_temperature() {
        let cfg = ThermalConfig::hotend();
        let mut h = HeaterPlant::new(cfg);
        // 50% duty at 50 Hz for a long time.
        let period = SimDuration::from_millis(20);
        let mut t = Tick::ZERO;
        for _ in 0..((cfg.tau_s() * 6.0 / 0.02) as usize) {
            h.set_gate(t, Level::High);
            h.set_gate(t + period / 2, Level::Low);
            t += period;
        }
        let temp = h.temperature_c(t);
        let expect = cfg.steady_state_c(0.5);
        assert!(
            (temp - expect).abs() < 5.0,
            "50% duty must settle near {expect}, got {temp}"
        );
    }

    #[test]
    fn damage_exposure_tracked() {
        let cfg = ThermalConfig::hotend();
        let mut h = HeaterPlant::new(cfg);
        h.set_gate(Tick::ZERO, Level::High);
        let _ = h.temperature_c(Tick::from_secs(600));
        assert!(h.peak_temp_c > cfg.damage_temp_c);
        assert!(h.seconds_over_damage > 60.0);
    }

    #[test]
    fn thermistor_round_trip() {
        let th = Thermistor {
            beta: 4267.0,
            r25: 100_000.0,
            pullup: 4_700.0,
        };
        for temp in [25.0_f64, 60.0, 120.0, 215.0, 260.0] {
            let counts = th.temp_to_counts(temp);
            let back = th.counts_to_temp(counts);
            assert!(
                (back - temp).abs() < 2.0,
                "{temp}C -> {counts} counts -> {back}C"
            );
        }
    }

    #[test]
    fn thermistor_is_monotone_decreasing() {
        let th = Thermistor {
            beta: 4267.0,
            r25: 100_000.0,
            pullup: 4_700.0,
        };
        let mut last = u16::MAX;
        for t in (0..300).step_by(10) {
            let c = th.temp_to_counts(f64::from(t));
            assert!(c <= last, "counts must fall as temperature rises");
            last = c;
        }
    }

    #[test]
    fn adc_fault_extremes() {
        let th = Thermistor {
            beta: 4267.0,
            r25: 100_000.0,
            pullup: 4_700.0,
        };
        assert!(th.counts_to_temp(0) > 400.0, "short reads implausibly hot");
        assert!(
            th.counts_to_temp(1023) < -40.0,
            "open reads implausibly cold"
        );
    }

    #[test]
    fn gate_state_visible() {
        let mut h = HeaterPlant::new(ThermalConfig::bed());
        assert!(!h.gate_high);
        h.set_gate(Tick::ZERO, Level::High);
        assert!(h.gate_high);
    }
}
