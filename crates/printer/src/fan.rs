//! Part-cooling fan model.
//!
//! The fan's rotor is a first-order system: RPM relaxes toward the level
//! implied by the gate with time constant `tau`. Because `tau` (≈0.5 s)
//! is much longer than the PWM period (20 ms), the rotor itself averages
//! the PWM — exactly why PWM fan control works — so the steady-state RPM
//! reads out the *effective* duty, which is how Trojan T9's tampering
//! becomes observable.

use offramps_des::Tick;
use offramps_signals::Level;

/// The part-cooling fan driven by the RAMPS D9 MOSFET.
///
/// # Example
///
/// ```
/// use offramps_printer::FanPlant;
/// use offramps_des::Tick;
/// use offramps_signals::Level;
///
/// let mut fan = FanPlant::new(0.5, 6_000.0);
/// fan.set_gate(Tick::ZERO, Level::High);
/// assert!(fan.rpm(Tick::from_secs(5)) > 5_900.0); // spun up
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FanPlant {
    tau_s: f64,
    max_rpm: f64,
    gate_high: bool,
    rpm: f64,
    last_update: Tick,
    // Duty estimation over the life of the recording.
    high_time_ticks: u64,
    total_time_ticks: u64,
}

impl FanPlant {
    /// Creates a stopped fan.
    pub fn new(tau_s: f64, max_rpm: f64) -> Self {
        FanPlant {
            tau_s,
            max_rpm,
            gate_high: false,
            rpm: 0.0,
            last_update: Tick::ZERO,
            high_time_ticks: 0,
            total_time_ticks: 0,
        }
    }

    fn integrate_to(&mut self, now: Tick) {
        if now <= self.last_update {
            return;
        }
        let dt_ticks = now.saturating_since(self.last_update).ticks();
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        let target = if self.gate_high { self.max_rpm } else { 0.0 };
        self.rpm = target + (self.rpm - target) * (-dt / self.tau_s).exp();
        if self.gate_high {
            self.high_time_ticks += dt_ticks;
        }
        self.total_time_ticks += dt_ticks;
        self.last_update = now;
    }

    /// Applies a gate level at `now`.
    pub fn set_gate(&mut self, now: Tick, level: Level) {
        self.integrate_to(now);
        self.gate_high = level.is_high();
    }

    /// Rotor speed at `now`. Advances internal state.
    pub fn rpm(&mut self, now: Tick) -> f64 {
        self.integrate_to(now);
        self.rpm
    }

    /// Effective duty (0–1) over everything observed so far.
    pub(crate) fn lifetime_duty(&self) -> f64 {
        if self.total_time_ticks == 0 {
            0.0
        } else {
            self.high_time_ticks as f64 / self.total_time_ticks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_des::SimDuration;

    #[test]
    fn spins_up_and_down() {
        let mut f = FanPlant::new(0.5, 6_000.0);
        f.set_gate(Tick::ZERO, Level::High);
        assert!(f.rpm(Tick::from_secs(3)) > 5_950.0);
        f.set_gate(Tick::from_secs(3), Level::Low);
        assert!(f.rpm(Tick::from_secs(6)) < 50.0);
    }

    #[test]
    fn pwm_averages_to_duty() {
        let mut f = FanPlant::new(0.5, 6_000.0);
        let period = SimDuration::from_millis(20);
        let mut t = Tick::ZERO;
        for _ in 0..500 {
            f.set_gate(t, Level::High);
            // 25% duty.
            f.set_gate(t + period / 4, Level::Low);
            t += period;
        }
        let rpm = f.rpm(t);
        assert!(
            (rpm - 1_500.0).abs() < 150.0,
            "25% duty should settle near 1500 rpm, got {rpm}"
        );
        assert!((f.lifetime_duty() - 0.25).abs() < 0.01);
    }
}
