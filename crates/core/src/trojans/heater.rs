//! Trojans T6 and T7 — heater denial-of-service and forced thermal
//! runaway.
//!
//! T6: "Denial of service via disabling D8/D10 heating element power …
//! observed to successfully turn off the PID controlled MOSFETs …
//! causing the Marlin firmware to enter an error state and end the print
//! prematurely."
//!
//! T7: "forces the heated elements to continue heating regardless of the
//! firmware temperature control … able to ignore the firmware's thermal
//! runaway panic and continue heating the elements … the MOSFETs are
//! fully turned on at a 100% duty cycle."

use offramps_signals::{Level, Pin, SignalEvent};

use crate::trojans::{Disposition, Trojan, TrojanCtx};

/// Which heater gates a thermal Trojan owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeaterTargets {
    /// Tamper with the hotend gate (D10).
    hotend: bool,
    /// Tamper with the bed gate (D8).
    bed: bool,
}

impl HeaterTargets {
    /// Both heaters (the paper's configuration).
    const BOTH: HeaterTargets = HeaterTargets {
        hotend: true,
        bed: true,
    };

    fn owns(&self, pin: Pin) -> bool {
        (pin == Pin::HotendHeat && self.hotend) || (pin == Pin::BedHeat && self.bed)
    }
}

/// T6: force the heater MOSFET gates off.
#[derive(Debug)]
pub struct HeaterDosTrojan {
    targets: HeaterTargets,
    /// Gate-on attempts suppressed.
    pub suppressed: u64,
}

impl HeaterDosTrojan {
    /// Creates T6 against both heaters.
    pub fn new() -> Self {
        Self::targeting(HeaterTargets::BOTH)
    }

    /// Creates T6 against a subset of heaters.
    pub(crate) fn targeting(targets: HeaterTargets) -> Self {
        HeaterDosTrojan {
            targets,
            suppressed: 0,
        }
    }
}

impl Default for HeaterDosTrojan {
    fn default() -> Self {
        Self::new()
    }
}

impl Trojan for HeaterDosTrojan {
    fn id(&self) -> &'static str {
        "T6"
    }
    fn kind(&self) -> &'static str {
        "DoS"
    }
    fn scenario(&self) -> &'static str {
        "Hardware Failure"
    }
    fn effect(&self) -> &'static str {
        "Denial of service via disabling D8/D10 heating element power"
    }

    fn on_control(&mut self, _ctx: &mut TrojanCtx<'_>, event: &SignalEvent) -> Disposition {
        let Some(logic) = event.as_logic() else {
            return Disposition::Pass;
        };
        if self.targets.owns(logic.pin) && logic.level == Level::High {
            self.suppressed += 1;
            return Disposition::Replace(SignalEvent::logic(logic.pin, Level::Low));
        }
        Disposition::Pass
    }
}

/// T7: force the heater MOSFET gates permanently on.
#[derive(Debug)]
pub struct ThermalRunawayTrojan {
    targets: HeaterTargets,
    armed: bool,
    /// Gate-off attempts suppressed (the firmware's panic, ignored).
    pub suppressed_shutoffs: u64,
}

impl ThermalRunawayTrojan {
    /// Creates T7 against the hotend only (the paper's demonstration
    /// heated the hotend past spec within seconds).
    pub fn hotend() -> Self {
        Self::targeting(HeaterTargets {
            hotend: true,
            bed: false,
        })
    }

    /// Creates T7 against a subset of heaters.
    pub(crate) fn targeting(targets: HeaterTargets) -> Self {
        ThermalRunawayTrojan {
            targets,
            armed: false,
            suppressed_shutoffs: 0,
        }
    }
}

impl Trojan for ThermalRunawayTrojan {
    fn id(&self) -> &'static str {
        "T7"
    }
    fn kind(&self) -> &'static str {
        "D"
    }
    fn scenario(&self) -> &'static str {
        "Hardware Failure"
    }
    fn effect(&self) -> &'static str {
        "Forcing thermal runaway and permanently enabling heating elements"
    }

    fn on_control(&mut self, ctx: &mut TrojanCtx<'_>, event: &SignalEvent) -> Disposition {
        if !self.armed {
            // On the first observed control activity, seize the gates.
            self.armed = true;
            if self.targets.hotend {
                ctx.inject(ctx.now, SignalEvent::logic(Pin::HotendHeat, Level::High));
            }
            if self.targets.bed {
                ctx.inject(ctx.now, SignalEvent::logic(Pin::BedHeat, Level::High));
            }
        }
        let Some(logic) = event.as_logic() else {
            return Disposition::Pass;
        };
        if self.targets.owns(logic.pin) {
            if logic.level == Level::Low {
                self.suppressed_shutoffs += 1;
            }
            // Swallow every firmware write: the gate is ours and high.
            return Disposition::Replace(SignalEvent::logic(logic.pin, Level::High));
        }
        Disposition::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trojans::test_util::TrojanHarness;
    use offramps_des::Tick;

    #[test]
    fn t6_forces_gates_low() {
        let mut h = TrojanHarness::new();
        let mut t = HeaterDosTrojan::new();
        let d = h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::HotendHeat, Level::High),
        );
        assert_eq!(
            d,
            Disposition::Replace(SignalEvent::logic(Pin::HotendHeat, Level::Low))
        );
        let d = h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::BedHeat, Level::High),
        );
        assert!(matches!(d, Disposition::Replace(_)));
        assert_eq!(t.suppressed, 2);
        // Lows pass (already the forced state).
        let d = h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::HotendHeat, Level::Low),
        );
        assert_eq!(d, Disposition::Pass);
    }

    #[test]
    fn t6_targeting_subset() {
        let mut h = TrojanHarness::new();
        let mut t = HeaterDosTrojan::targeting(HeaterTargets {
            hotend: true,
            bed: false,
        });
        let d = h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::BedHeat, Level::High),
        );
        assert_eq!(d, Disposition::Pass, "bed untouched");
    }

    #[test]
    fn t6_leaves_motion_alone() {
        let mut h = TrojanHarness::new();
        let mut t = HeaterDosTrojan::new();
        let d = h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::XStep, Level::High),
        );
        assert_eq!(d, Disposition::Pass);
    }

    #[test]
    fn t7_seizes_gate_high_and_ignores_shutoffs() {
        let mut h = TrojanHarness::new();
        let mut t = ThermalRunawayTrojan::hotend();
        // First event arms and injects the forced High.
        let d = h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::XStep, Level::High),
        );
        assert_eq!(d, Disposition::Pass);
        assert_eq!(
            h.injections,
            vec![(Tick::ZERO, SignalEvent::logic(Pin::HotendHeat, Level::High))]
        );
        // Firmware panic tries to turn the heater off: suppressed.
        let d = h.control(
            &mut t,
            Tick::from_secs(5),
            SignalEvent::logic(Pin::HotendHeat, Level::Low),
        );
        assert_eq!(
            d,
            Disposition::Replace(SignalEvent::logic(Pin::HotendHeat, Level::High))
        );
        assert_eq!(t.suppressed_shutoffs, 1);
    }

    #[test]
    fn t7_bed_untouched_in_hotend_mode() {
        let mut h = TrojanHarness::new();
        let mut t = ThermalRunawayTrojan::hotend();
        h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::XStep, Level::High),
        );
        let d = h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::BedHeat, Level::Low),
        );
        assert_eq!(d, Disposition::Pass);
        assert_eq!(h.injections.len(), 1, "only the hotend gate injected");
    }
}
