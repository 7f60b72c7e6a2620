//! The Trojan-insertion framework (§IV) and Table I's nine Trojans.
//!
//! "A framework for the insertion of Trojans was created … Several
//! sub-modules were created to control the insertion of Trojans":
//!
//! * **Pulse Generation Module** → [`PulseTrain`] (frequency, pulse
//!   width, count),
//! * **Edge Detection Module** → [`offramps_signals::EdgeDetector`]
//!   (used by every Trojan through the interceptor),
//! * **Homing Detection Module** → [`crate::monitor::HomingDetector`]
//!   ("can determine when to activate Trojans"),
//! * **Trojan Control Module** → the [`Trojan`] trait plus the
//!   interceptor's mux: each control event flows through the armed
//!   Trojans, which may pass, drop, replace, or inject signals.

mod axis_shift;
mod fan;
mod feedback;
mod flow;
mod heater;
mod pulse_gen;
mod retraction;
mod stepper_dos;
mod zshift;
mod zwobble;

pub use axis_shift::AxisShiftTrojan;
pub use fan::FanUnderspeedTrojan;
pub use feedback::{EndstopSpoofTrojan, ThermistorSpoofTrojan};
pub use flow::FlowReductionTrojan;
pub use heater::{HeaterDosTrojan, ThermalRunawayTrojan};
pub use pulse_gen::PulseTrain;
pub use retraction::{RetractionMode, RetractionTrojan};
pub use stepper_dos::StepperDosTrojan;
pub use zshift::ZShiftTrojan;
pub use zwobble::ZWobbleTrojan;

use offramps_des::{DetRng, Tick};
use offramps_signals::SignalEvent;

/// What a Trojan decides to do with one through-going control event.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Forward unchanged.
    Pass,
    /// Suppress entirely.
    Drop,
    /// Forward a different event instead.
    Replace(SignalEvent),
}

/// Context handed to a Trojan on every invocation: the clock, homing
/// state, a deterministic RNG stream, and channels for injecting events
/// and requesting timer wake-ups.
#[derive(Debug)]
pub struct TrojanCtx<'a> {
    /// Current simulation time.
    pub now: Tick,
    /// Whether the homing detector has seen a complete G28 cycle.
    pub homed: bool,
    /// Deterministic RNG stream dedicated to Trojan randomness.
    pub rng: &'a mut DetRng,
    pub(crate) injections: &'a mut Vec<(Tick, SignalEvent)>,
    pub(crate) feedback_injections: &'a mut Vec<(Tick, SignalEvent)>,
    pub(crate) wake: &'a mut Option<Tick>,
}

impl TrojanCtx<'_> {
    /// Schedules an extra control-direction event (toward the plant) at
    /// `at` (clamped to now).
    pub(crate) fn inject(&mut self, at: Tick, event: SignalEvent) {
        self.injections.push((at.max(self.now), event));
    }

    /// Schedules an extra feedback-direction event (toward the
    /// firmware) at `at` — endstop/thermistor spoofing.
    pub(crate) fn inject_feedback(&mut self, at: Tick, event: SignalEvent) {
        self.feedback_injections.push((at.max(self.now), event));
    }

    /// Requests a wake-up no later than `at`.
    pub fn wake_at(&mut self, at: Tick) {
        *self.wake = Some(self.wake.map_or(at, |w| w.min(at)));
    }
}

/// A hardware Trojan living in the interceptor's modification path.
///
/// Implementations receive every control-direction event and may pass,
/// drop or replace it, inject additional events at arbitrary times, and
/// request timer wake-ups ([`Trojan::on_wake`]) for time-triggered
/// behaviour.
pub trait Trojan: std::fmt::Debug {
    /// Table I identifier, e.g. `"T2"`.
    fn id(&self) -> &'static str;
    /// Table I "Type": `PM` (part modification), `DoS`, or `D`
    /// (destructive).
    fn kind(&self) -> &'static str;
    /// Table I "Scenario" the Trojan mimics.
    fn scenario(&self) -> &'static str;
    /// Table I "Effect" description.
    fn effect(&self) -> &'static str;
    /// Filter one control event.
    fn on_control(&mut self, ctx: &mut TrojanCtx<'_>, event: &SignalEvent) -> Disposition;
    /// Filter one feedback event (endstops, thermistor ADC). The default
    /// passes everything: Table I's Trojans only tamper with the control
    /// direction; the feedback-spoofing Trojans override this.
    fn on_feedback(&mut self, _ctx: &mut TrojanCtx<'_>, _event: &SignalEvent) -> Disposition {
        Disposition::Pass
    }
    /// Timer callback; fired at (or after) any requested wake time.
    /// Spurious calls are possible — implementations check their own
    /// schedule.
    fn on_wake(&mut self, _ctx: &mut TrojanCtx<'_>) {}
}

/// The canonical Trojan roster: every id accepted by [`by_name`], i.e.
/// Table I's T1–T9 plus the feedback-path extensions TX1/TX2.
pub const TROJAN_NAMES: [&str; 11] = [
    "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "tx1", "tx2",
];

/// Instantiates a Trojan from its roster id (case-insensitive), with
/// each implementation's default parameters. Shared by the CLI's
/// `--trojan` flag and the campaign runner's scenario matrix.
///
/// # Errors
///
/// Returns the unknown name back when it is not in [`TROJAN_NAMES`].
///
/// # Example
///
/// ```
/// let trojan = offramps::trojans::by_name("t2").unwrap();
/// assert_eq!(trojan.id(), "T2");
/// assert!(offramps::trojans::by_name("t99").is_err());
/// ```
pub fn by_name(name: &str) -> Result<Box<dyn Trojan>, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "t1" => Box::new(AxisShiftTrojan::new()),
        "t2" => Box::new(FlowReductionTrojan::half()),
        "t3" => Box::new(RetractionTrojan::new(RetractionMode::Over)),
        "t4" => Box::new(ZWobbleTrojan::new()),
        "t5" => Box::new(ZShiftTrojan::delamination()),
        "t6" => Box::new(HeaterDosTrojan::new()),
        "t7" => Box::new(ThermalRunawayTrojan::hotend()),
        "t8" => Box::new(StepperDosTrojan::new()),
        "t9" => Box::new(FanUnderspeedTrojan::quarter()),
        "tx1" => Box::new(EndstopSpoofTrojan::new()),
        "tx2" => Box::new(ThermistorSpoofTrojan::reads_cold_by(30.0)),
        other => return Err(format!("unknown trojan {other:?}")),
    })
}

/// Instantiates a Trojan from a *parameterized* spec string — the
/// grammar behind campaign attack-parameter sweeps. A bare roster id
/// falls back to [`by_name`]'s defaults; `id:param` selects an
/// intensity or trigger point:
///
/// | spec             | Trojan                                            |
/// |------------------|---------------------------------------------------|
/// | `t1:<secs>`      | axis shift every `<secs>` seconds                 |
/// | `t2:<keep>`      | flow reduction keeping `<keep>` ∈ (0, 1] of pulses|
/// | `t4:<min>-<max>` | Z wobble of `<min>`–`<max>` µsteps                |
/// | `t5:<steps>@<layer>` | Z shift of `<steps>` µsteps after `<layer>`   |
/// | `t9:<scale>`     | fan underspeed at `<scale>` ∈ (0, 1] duty         |
/// | `tx1:<steps>`    | endstop spoof after `<steps>` X µsteps            |
/// | `tx2:<celsius>`  | hotend thermistor reads cold by `<celsius>` °C    |
/// | `tx2:bed@<celsius>` | bed thermistor reads cold by `<celsius>` °C — the bed quietly regulates hot without touching motion |
///
/// Every spec is validated here (never via constructor panics), so a
/// campaign can reject a bad grid up front.
///
/// # Errors
///
/// Returns a description of the malformed spec.
///
/// # Example
///
/// ```
/// assert_eq!(offramps::trojans::by_spec("t2:0.25").unwrap().id(), "T2");
/// assert_eq!(offramps::trojans::by_spec("t5:200@4").unwrap().id(), "T5");
/// assert!(offramps::trojans::by_spec("t2:1.5").is_err());
/// assert!(offramps::trojans::by_spec("t3:1").is_err()); // t3 takes no parameter
/// ```
pub fn by_spec(spec: &str) -> Result<Box<dyn Trojan>, String> {
    let spec = spec.to_ascii_lowercase();
    let Some((id, param)) = spec.split_once(':') else {
        return by_name(&spec);
    };
    let ratio = |what: &str| -> Result<f64, String> {
        let v: f64 = param
            .parse()
            .map_err(|_| format!("bad {what} in {spec:?}"))?;
        if v > 0.0 && v <= 1.0 {
            Ok(v)
        } else {
            Err(format!("{what} must be in (0, 1] in {spec:?}"))
        }
    };
    Ok(match id {
        "t1" => {
            let secs: f64 = param
                .parse()
                .map_err(|_| format!("bad interval in {spec:?}"))?;
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(format!("interval must be positive in {spec:?}"));
            }
            Box::new(AxisShiftTrojan::with_params(
                offramps_des::SimDuration::from_secs_f64(secs),
                20,
                80,
            ))
        }
        "t2" => Box::new(FlowReductionTrojan::new(ratio("keep ratio")?)),
        "t4" => {
            let (lo, hi) = param
                .split_once('-')
                .ok_or_else(|| format!("t4 wants <min>-<max> µsteps, got {spec:?}"))?;
            let lo: u32 = lo.parse().map_err(|_| format!("bad min in {spec:?}"))?;
            let hi: u32 = hi.parse().map_err(|_| format!("bad max in {spec:?}"))?;
            if lo > hi || hi == 0 {
                return Err(format!("empty wobble range in {spec:?}"));
            }
            Box::new(ZWobbleTrojan::with_params(120, lo, hi, 1, 4))
        }
        "t5" => {
            let (steps, layer) = param
                .split_once('@')
                .ok_or_else(|| format!("t5 wants <steps>@<layer>, got {spec:?}"))?;
            let steps: u32 = steps
                .parse()
                .map_err(|_| format!("bad steps in {spec:?}"))?;
            let layer: u64 = layer
                .parse()
                .map_err(|_| format!("bad layer in {spec:?}"))?;
            if steps == 0 {
                return Err(format!("shift must be positive in {spec:?}"));
            }
            Box::new(ZShiftTrojan::with_params(120, steps, layer, None))
        }
        "t9" => Box::new(FanUnderspeedTrojan::new(ratio("duty scale")?)),
        "tx1" => {
            let steps: u32 = param
                .parse()
                .map_err(|_| format!("bad step count in {spec:?}"))?;
            Box::new(EndstopSpoofTrojan::after_steps(steps))
        }
        "tx2" => {
            let (bed, offset) = match param.strip_prefix("bed@") {
                Some(rest) => (true, rest),
                None => (false, param),
            };
            let offset: f64 = offset
                .parse()
                .map_err(|_| format!("bad offset in {spec:?}"))?;
            if !(offset > 0.0 && offset.is_finite()) {
                return Err(format!("offset must be positive in {spec:?}"));
            }
            let span = if bed {
                ThermistorSpoofTrojan::REFERENCE_BED_TEMP_C - 25.0
            } else {
                ThermistorSpoofTrojan::REFERENCE_TEMP_C - 25.0
            };
            if offset >= span {
                return Err(format!("offset must be under {span} in {spec:?}"));
            }
            if bed {
                Box::new(ThermistorSpoofTrojan::bed_reads_cold_by(offset))
            } else {
                Box::new(ThermistorSpoofTrojan::reads_cold_by(offset))
            }
        }
        other if TROJAN_NAMES.contains(&other) => {
            return Err(format!("trojan {other:?} takes no parameter (in {spec:?})"))
        }
        other => return Err(format!("unknown trojan {other:?} (in {spec:?})")),
    })
}

#[cfg(test)]
mod spec_tests {
    use super::*;

    #[test]
    fn bare_names_still_resolve() {
        for name in TROJAN_NAMES {
            assert!(by_spec(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn parameterized_specs_resolve() {
        for spec in [
            "t1:2.5",
            "t2:0.25",
            "t2:1",
            "t4:10-40",
            "t4:30-80",
            "t5:100@1",
            "t5:200@5",
            "t9:0.5",
            "tx1:5000",
            "tx2:15",
            "tx2:bed@8",
        ] {
            let t = by_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            let id = spec.split(':').next().unwrap().to_ascii_uppercase();
            assert_eq!(t.id(), id, "{spec}");
        }
    }

    #[test]
    fn bad_specs_error_without_panicking() {
        for spec in [
            "t2:0",
            "t2:1.5",
            "t2:x",
            "t4:40-10",
            "t4:5",
            "t5:0@2",
            "t5:100",
            "t9:-1",
            "t1:0",
            "tx2:nan",
            "tx2:200",
            "tx2:bed@40",
            "tx2:bed@x",
            "t3:1",
            "t6:2",
            "t99:1",
        ] {
            assert!(by_spec(spec).is_err(), "{spec} should be rejected");
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use offramps_des::DetRng;

    /// Minimal harness for exercising a Trojan in isolation.
    pub(crate) struct TrojanHarness {
        pub rng: DetRng,
        pub injections: Vec<(Tick, SignalEvent)>,
        pub feedback_injections: Vec<(Tick, SignalEvent)>,
        pub wake: Option<Tick>,
        pub homed: bool,
    }

    impl TrojanHarness {
        pub(crate) fn new() -> Self {
            TrojanHarness {
                rng: DetRng::from_seed(7),
                injections: Vec::new(),
                feedback_injections: Vec::new(),
                wake: None,
                homed: true,
            }
        }

        pub(crate) fn control(
            &mut self,
            t: &mut dyn Trojan,
            now: Tick,
            ev: SignalEvent,
        ) -> Disposition {
            let mut ctx = TrojanCtx {
                now,
                homed: self.homed,
                rng: &mut self.rng,
                injections: &mut self.injections,
                feedback_injections: &mut self.feedback_injections,
                wake: &mut self.wake,
            };
            t.on_control(&mut ctx, &ev)
        }

        pub(crate) fn feedback(
            &mut self,
            t: &mut dyn Trojan,
            now: Tick,
            ev: SignalEvent,
        ) -> Disposition {
            let mut ctx = TrojanCtx {
                now,
                homed: self.homed,
                rng: &mut self.rng,
                injections: &mut self.injections,
                feedback_injections: &mut self.feedback_injections,
                wake: &mut self.wake,
            };
            t.on_feedback(&mut ctx, &ev)
        }

        pub(crate) fn wake(&mut self, t: &mut dyn Trojan, now: Tick) {
            let mut ctx = TrojanCtx {
                now,
                homed: self.homed,
                rng: &mut self.rng,
                injections: &mut self.injections,
                feedback_injections: &mut self.feedback_injections,
                wake: &mut self.wake,
            };
            t.on_wake(&mut ctx);
        }
    }
}
