//! Trojan T4 — Z-wobble emulation.
//!
//! "Z-wobble is common build issue with 3D printers, where the frame
//! holding the Z-axis is not rigid; thus, the print head can shift during
//! printing. Trojan T4 emulates this error by adding steps on one axis
//! during printing causing layer shifts" — triggered on "random Z layer
//! increments".

use offramps_signals::{Edge, EdgeDetector, Level, Pin, SignalEvent};

use crate::trojans::{Disposition, PulseTrain, Trojan, TrojanCtx};

/// T4: on random layer changes, nudge X and/or Y by a few steps.
#[derive(Debug)]
pub struct ZWobbleTrojan {
    /// Microsteps of Z per layer (layer height × Z steps/mm).
    layer_steps: u64,
    /// Shift magnitude range, microsteps.
    min_shift: u32,
    max_shift: u32,
    /// Fire on every n-th layer where n is drawn from this range.
    min_layer_gap: u64,
    max_layer_gap: u64,
    edges: EdgeDetector,
    z_dir_positive: bool,
    z_steps_up: u64,
    layers_seen: u64,
    next_trigger_layer: Option<u64>,
    /// Number of injected shift events (diagnostics).
    pub shifts_fired: u64,
}

impl ZWobbleTrojan {
    /// Creates T4 for 0.3 mm layers at 400 steps/mm Z (120 µsteps per
    /// layer), shifting 10–40 µsteps every 1–4 layers.
    pub fn new() -> Self {
        Self::with_params(120, 10, 40, 1, 4)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    ///
    /// Panics on empty ranges or zero `layer_steps`.
    pub fn with_params(
        layer_steps: u64,
        min_shift: u32,
        max_shift: u32,
        min_layer_gap: u64,
        max_layer_gap: u64,
    ) -> Self {
        assert!(layer_steps > 0, "layer_steps must be positive");
        assert!(
            min_shift <= max_shift && max_shift > 0,
            "invalid shift range"
        );
        assert!(
            min_layer_gap <= max_layer_gap && max_layer_gap > 0,
            "invalid layer gap range"
        );
        ZWobbleTrojan {
            layer_steps,
            min_shift,
            max_shift,
            min_layer_gap,
            max_layer_gap,
            edges: EdgeDetector::new(),
            z_dir_positive: false,
            z_steps_up: 0,
            layers_seen: 0,
            next_trigger_layer: None,
            shifts_fired: 0,
        }
    }

    fn draw_gap(&self, ctx: &mut TrojanCtx<'_>) -> u64 {
        if self.min_layer_gap == self.max_layer_gap {
            self.min_layer_gap
        } else {
            ctx.rng
                .uniform_u64(self.min_layer_gap, self.max_layer_gap + 1)
        }
    }
}

impl Default for ZWobbleTrojan {
    fn default() -> Self {
        Self::new()
    }
}

impl Trojan for ZWobbleTrojan {
    fn id(&self) -> &'static str {
        "T4"
    }
    fn kind(&self) -> &'static str {
        "PM"
    }
    fn scenario(&self) -> &'static str {
        "Z-Wobble"
    }
    fn effect(&self) -> &'static str {
        "Small Shift along X and Y axis on random Z layer increments"
    }

    fn on_control(&mut self, ctx: &mut TrojanCtx<'_>, event: &SignalEvent) -> Disposition {
        let Some(logic) = event.as_logic() else {
            return Disposition::Pass;
        };
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
                    let trigger = *self.next_trigger_layer.get_or_insert({
                        // Initialized lazily so the RNG draw order
                        // is stable.
                        self.layers_seen
                    });
                    if self.layers_seen >= trigger {
                        let steps = if self.min_shift == self.max_shift {
                            self.min_shift
                        } else {
                            ctx.rng.uniform_u64(
                                u64::from(self.min_shift),
                                u64::from(self.max_shift) + 1,
                            ) as u32
                        };
                        PulseTrain::steps(Pin::XStep, steps).schedule(ctx.now, ctx);
                        PulseTrain::steps(Pin::YStep, steps).schedule(ctx.now, ctx);
                        self.shifts_fired += 1;
                        let gap = self.draw_gap(ctx);
                        self.next_trigger_layer = Some(self.layers_seen + gap);
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

    fn z_layer(h: &mut TrojanHarness, t: &mut ZWobbleTrojan, steps: u64, base_us: u64) {
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
    fn fires_on_layer_boundaries() {
        let mut h = TrojanHarness::new();
        let mut t = ZWobbleTrojan::with_params(100, 25, 25, 1, 1);
        for layer in 0..5 {
            z_layer(&mut h, &mut t, 100, layer * 10_000);
        }
        assert_eq!(t.shifts_fired, 5, "every layer with gap 1");
        // Each shift = 25 pulses on X + 25 on Y = 100 edges.
        assert_eq!(h.injections.len(), 5 * 100);
    }

    #[test]
    fn respects_layer_gap() {
        let mut h = TrojanHarness::new();
        let mut t = ZWobbleTrojan::with_params(100, 10, 10, 3, 3);
        for layer in 0..9 {
            z_layer(&mut h, &mut t, 100, layer * 10_000);
        }
        assert_eq!(t.shifts_fired, 3, "layers 1, 4, 7");
    }

    #[test]
    fn ignores_downward_z() {
        let mut h = TrojanHarness::new();
        let mut t = ZWobbleTrojan::with_params(10, 10, 10, 1, 1);
        h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::ZDir, Level::Low),
        );
        for i in 0..100 {
            let at = Tick::from_micros(10 * i);
            h.control(&mut t, at, SignalEvent::logic(Pin::ZStep, Level::High));
            h.control(&mut t, at, SignalEvent::logic(Pin::ZStep, Level::Low));
        }
        assert_eq!(t.shifts_fired, 0);
    }

    #[test]
    fn inactive_before_homing() {
        let mut h = TrojanHarness::new();
        h.homed = false;
        let mut t = ZWobbleTrojan::with_params(10, 10, 10, 1, 1);
        z_layer(&mut h, &mut t, 50, 0);
        assert_eq!(t.shifts_fired, 0);
    }
}
