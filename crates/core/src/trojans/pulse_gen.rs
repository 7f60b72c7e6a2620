//! Pulse Generation Module.
//!
//! "Handles the generation of pulses for the stepper motor drivers, and
//! allows for the customization of both frequency and pulse width."

use offramps_des::{SimDuration, Tick};
use offramps_signals::{Level, Pin, SignalEvent};

use crate::trojans::TrojanCtx;

/// A finite train of STEP-compatible pulses on one pin.
///
/// # Example
///
/// ```
/// use offramps::trojans::PulseTrain;
/// use offramps_signals::Pin;
/// use offramps_des::SimDuration;
///
/// let train = PulseTrain::steps(Pin::XStep, 40);
/// assert_eq!(train.count, 40);
/// assert!(train.period > train.width);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PulseTrain {
    /// Pin to pulse.
    pub pin: Pin,
    /// Number of pulses.
    pub count: u32,
    /// Rising-edge to rising-edge period.
    pub period: SimDuration,
    /// High time of each pulse (must satisfy the driver's 1 µs minimum).
    pub width: SimDuration,
}

impl PulseTrain {
    /// A standard injection train: 2 kHz, 10 µs high — comfortably above
    /// the A4988 minimum pulse width and slow enough to slot "in between
    /// the original control pulses".
    pub fn steps(pin: Pin, count: u32) -> Self {
        PulseTrain {
            pin,
            count,
            period: SimDuration::from_micros(500),
            width: SimDuration::from_micros(10),
        }
    }

    /// Schedules the whole train through the Trojan context, starting at
    /// `start`.
    pub fn schedule(&self, start: Tick, ctx: &mut TrojanCtx<'_>) {
        for k in 0..self.count {
            let rise = start + self.period * u64::from(k);
            ctx.inject(rise, SignalEvent::logic(self.pin, Level::High));
            ctx.inject(rise + self.width, SignalEvent::logic(self.pin, Level::Low));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trojans::test_util::TrojanHarness;
    use crate::trojans::{Disposition, Trojan, TrojanCtx};

    /// A throwaway Trojan that fires one train on its first event.
    #[derive(Debug)]
    struct OneShot(Option<PulseTrain>);
    impl Trojan for OneShot {
        fn id(&self) -> &'static str {
            "test"
        }
        fn kind(&self) -> &'static str {
            "PM"
        }
        fn scenario(&self) -> &'static str {
            "test"
        }
        fn effect(&self) -> &'static str {
            "test"
        }
        fn on_control(&mut self, ctx: &mut TrojanCtx<'_>, _ev: &SignalEvent) -> Disposition {
            if let Some(train) = self.0.take() {
                train.schedule(ctx.now, ctx);
            }
            Disposition::Pass
        }
    }

    #[test]
    fn schedules_count_pulses_with_exact_timing() {
        let mut h = TrojanHarness::new();
        let mut t = OneShot(Some(PulseTrain::steps(Pin::YStep, 3)));
        h.control(
            &mut t,
            Tick::from_millis(1),
            SignalEvent::logic(Pin::XStep, Level::High),
        );
        // 3 pulses = 6 events.
        assert_eq!(h.injections.len(), 6);
        let (t0, ev0) = h.injections[0];
        assert_eq!(t0, Tick::from_millis(1));
        assert_eq!(ev0, SignalEvent::logic(Pin::YStep, Level::High));
        let (t1, ev1) = h.injections[1];
        assert_eq!(t1, Tick::from_millis(1) + SimDuration::from_micros(10));
        assert_eq!(ev1, SignalEvent::logic(Pin::YStep, Level::Low));
        let (t2, _) = h.injections[2];
        assert_eq!(t2, Tick::from_millis(1) + SimDuration::from_micros(500));
    }
}
