//! Trojan T5 — Z-layer shift / delamination.
//!
//! "Trojan T5 causes an arbitrarily sized shift on the Z-axis, causing
//! poor layer adhesion or, in severe cases, layer delamination. This
//! mimics improper slicing settings if the layer spacing is modified
//! throughout the print, and poor hardware setup if a shift is done at
//! the start of print, causing the part to fail to adhere to build
//! plate."

use offramps_signals::{Edge, EdgeDetector, Level, Pin, SignalEvent};

use crate::trojans::{Disposition, PulseTrain, Trojan, TrojanCtx};

/// T5: inject extra Z steps at a chosen layer (0 = at start of print).
#[derive(Debug)]
pub struct ZShiftTrojan {
    layer_steps: u64,
    extra_steps: u32,
    /// Fire when this many layers have printed (0 = at the first move
    /// after homing).
    at_layer: u64,
    /// If set, re-fire every `repeat_every` layers after the first.
    repeat_every: Option<u64>,
    edges: EdgeDetector,
    z_dir_positive: bool,
    z_steps_up: u64,
    layers_seen: u64,
    fired_at_start: bool,
    next_layer_trigger: u64,
    /// Total injected Z steps.
    pub injected_steps: u64,
}

impl ZShiftTrojan {
    /// A severe single shift (0.5 mm at 400 steps/mm) after layer 2 —
    /// visible delamination.
    pub(crate) fn delamination() -> Self {
        Self::with_params(120, 200, 2, None)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    ///
    /// Panics if `layer_steps` or `extra_steps` is zero.
    pub fn with_params(
        layer_steps: u64,
        extra_steps: u32,
        at_layer: u64,
        repeat_every: Option<u64>,
    ) -> Self {
        assert!(layer_steps > 0 && extra_steps > 0, "invalid parameters");
        ZShiftTrojan {
            layer_steps,
            extra_steps,
            at_layer,
            repeat_every,
            edges: EdgeDetector::new(),
            z_dir_positive: false,
            z_steps_up: 0,
            layers_seen: 0,
            fired_at_start: false,
            next_layer_trigger: at_layer,
            injected_steps: 0,
        }
    }

    fn fire(&mut self, ctx: &mut TrojanCtx<'_>) {
        // Force DIR positive for the injected burst, then pulse. The
        // firmware's next Z move re-asserts its own DIR, so we restore
        // nothing (matching a simple hardware implementation).
        ctx.inject(ctx.now, SignalEvent::logic(Pin::ZDir, Level::High));
        let train = PulseTrain::steps(Pin::ZStep, self.extra_steps);
        // Start the train after the DIR setup time.
        train.schedule(ctx.now + offramps_des::SimDuration::from_micros(2), ctx);
        self.injected_steps += u64::from(self.extra_steps);
    }
}

impl Trojan for ZShiftTrojan {
    fn id(&self) -> &'static str {
        "T5"
    }
    fn kind(&self) -> &'static str {
        "PM"
    }
    fn scenario(&self) -> &'static str {
        "Incorrect Slicing"
    }
    fn effect(&self) -> &'static str {
        "Layer delamination via Z-layer shift"
    }

    fn on_control(&mut self, ctx: &mut TrojanCtx<'_>, event: &SignalEvent) -> Disposition {
        let Some(logic) = event.as_logic() else {
            return Disposition::Pass;
        };
        // Start-of-print trigger: first control activity after homing.
        if self.at_layer == 0 && !self.fired_at_start && ctx.homed {
            self.fired_at_start = true;
            self.fire(ctx);
        }
        match logic.pin {
            Pin::ZDir => {
                self.edges.observe(logic);
                self.z_dir_positive = logic.level == Level::High;
            }
            Pin::ZStep
                if self.edges.observe(logic) == Some(Edge::Rising)
                    && ctx.homed
                    && self.z_dir_positive =>
            {
                self.z_steps_up += 1;
                if self.z_steps_up.is_multiple_of(self.layer_steps) {
                    self.layers_seen += 1;
                    if self.next_layer_trigger > 0 && self.layers_seen == self.next_layer_trigger {
                        self.fire(ctx);
                        if let Some(gap) = self.repeat_every {
                            self.next_layer_trigger = self.layers_seen + gap;
                        }
                    }
                }
            }
            _ => {}
        }
        Disposition::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trojans::test_util::TrojanHarness;
    use offramps_des::Tick;

    fn z_layer(h: &mut TrojanHarness, t: &mut ZShiftTrojan, steps: u64, base_us: u64) {
        h.control(
            t,
            Tick::from_micros(base_us),
            SignalEvent::logic(Pin::ZDir, Level::High),
        );
        for i in 0..steps {
            let at = Tick::from_micros(base_us + 10 * i);
            h.control(t, at, SignalEvent::logic(Pin::ZStep, Level::High));
            h.control(t, at, SignalEvent::logic(Pin::ZStep, Level::Low));
        }
    }

    #[test]
    fn fires_at_configured_layer_once() {
        let mut h = TrojanHarness::new();
        let mut t = ZShiftTrojan::with_params(100, 50, 2, None);
        for layer in 0..6 {
            z_layer(&mut h, &mut t, 100, layer * 10_000);
        }
        assert_eq!(t.injected_steps, 50, "fires exactly once");
        // DIR High + 50 pulses (100 edges).
        assert_eq!(h.injections.len(), 101);
        assert_eq!(
            h.injections[0].1,
            SignalEvent::logic(Pin::ZDir, Level::High)
        );
    }

    #[test]
    fn start_of_print_variant() {
        let mut h = TrojanHarness::new();
        let mut t = ZShiftTrojan::with_params(120, 150, 0, None);
        h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::XStep, Level::High),
        );
        assert_eq!(t.injected_steps, 150);
        // Second event does not re-fire.
        h.control(
            &mut t,
            Tick::from_micros(10),
            SignalEvent::logic(Pin::XStep, Level::Low),
        );
        assert_eq!(t.injected_steps, 150);
    }

    #[test]
    fn repeating_variant() {
        let mut h = TrojanHarness::new();
        let mut t = ZShiftTrojan::with_params(100, 10, 1, Some(2));
        for layer in 0..6 {
            z_layer(&mut h, &mut t, 100, layer * 10_000);
        }
        // Fires at layers 1, 3, 5.
        assert_eq!(t.injected_steps, 30);
    }

    #[test]
    fn not_before_homing() {
        let mut h = TrojanHarness::new();
        h.homed = false;
        let mut t = ZShiftTrojan::with_params(120, 150, 0, None);
        h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::XStep, Level::High),
        );
        assert_eq!(t.injected_steps, 0);
    }
}
