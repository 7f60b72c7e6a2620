//! The composite printer plant: RAMPS + mechanics + thermal + fan.
//!
//! [`PrinterPlant`] is the downstream end of the co-simulation. It
//! consumes the control-direction [`SignalEvent`]s (whatever the
//! interceptor forwarded) and produces the feedback-direction events the
//! firmware needs: endstop transitions and periodic thermistor ADC
//! samples.

use offramps_des::{ActionSink, DetRng, InPort, OutPort, SimComponent, SimDuration, Tick};
use offramps_signals::{AnalogChannel, Axis, EdgeSink, Level, LogicEvent, Pin, SignalEvent};

use crate::config::PlantConfig;
use crate::deposition::{DepositionModel, PartModel};
use crate::driver::A4988Driver;
use crate::fan::FanPlant;
use crate::mechanism::AxisMechanism;
use crate::thermal::HeaterPlant;

/// The plant's single output port: feedback-direction signals (endstop
/// transitions, thermistor ADC samples) for the firmware, via the
/// interceptor.
pub const PORT_FEEDBACK: OutPort = OutPort(0);

/// The plant's single input port: control-direction signals arriving
/// from the interceptor.
pub const PORT_CTRL: InPort = InPort(0);

/// Instantaneous observable state of the plant.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantStatus {
    /// Carriage/extruder positions, mm, in [`Axis::ALL`] order.
    pub positions_mm: [f64; 4],
    /// Hotend temperature, °C.
    pub hotend_c: f64,
    /// Bed temperature, °C.
    pub bed_c: f64,
    /// Hottest hotend temperature seen, °C.
    pub hotend_peak_c: f64,
    /// Seconds the hotend spent above its damage temperature.
    pub hotend_seconds_over_damage: f64,
    /// Part-fan speed, RPM.
    pub fan_rpm: f64,
    /// Effective fan duty over the whole run, 0–1.
    pub fan_duty: f64,
    /// Microsteps lost against travel limits, per axis.
    pub lost_steps: [u64; 4],
    /// Steps sent while the driver was disabled, per axis.
    pub steps_while_disabled: [u64; 4],
    /// STEP pulses below the driver's minimum width, per axis.
    pub short_pulses: [u64; 4],
}

/// The simulated RAMPS 1.4 + printer.
///
/// `H` is the plant's edge hook: every control edge the plant receives
/// — the driver-board side of the loop, *downstream* of any interceptor
/// modification — is pushed into it before the plant acts on it. A
/// power or acoustic side-channel sensor sits on this rail, so what is
/// built from these edges reflects what the motors really did, Trojans
/// included (unlike the monitor's controller-side tap). The default
/// hook `()` ignores them; a [`offramps_signals::SignalTrace`] records
/// them.
///
/// # Example
///
/// ```
/// use offramps_printer::{PrinterPlant, PlantConfig};
/// use offramps_des::Tick;
/// use offramps_signals::{SignalEvent, Pin, Level};
///
/// use offramps_des::ActionSink;
///
/// let mut plant = PrinterPlant::new(PlantConfig::default(), 7);
/// let mut sink = ActionSink::new();
/// // Enable the X driver and pulse it once.
/// for (t, pin, level) in [
///     (0u64, Pin::XEnable, Level::Low),
///     (0, Pin::XDir, Level::High),
///     (1, Pin::XStep, Level::High),
///     (3, Pin::XStep, Level::Low),
/// ] {
///     sink.begin(Tick::from_micros(t));
///     plant.on_control(Tick::from_micros(t), SignalEvent::logic(pin, level), &mut sink);
///     sink.drain().for_each(drop);
/// }
/// let before = plant.status(Tick::from_micros(3)).positions_mm[0];
/// assert!(before > 0.0);
/// ```
#[derive(Debug)]
pub struct PrinterPlant<H = ()> {
    config: PlantConfig,
    drivers: [A4988Driver; 4],
    mechs: [AxisMechanism; 4],
    hotend: HeaterPlant,
    bed: HeaterPlant,
    fan: FanPlant,
    deposition: DepositionModel,
    endstop_levels: [Level; 3],
    adc_rng: DetRng,
    edges: H,
}

impl PrinterPlant {
    /// Creates the plant with no edge hook. `seed` drives ADC read-out
    /// noise.
    pub fn new(config: PlantConfig, seed: u64) -> Self {
        PrinterPlant::with_edge_sink(config, seed, ())
    }
}

impl<H: EdgeSink> PrinterPlant<H> {
    /// Creates the plant feeding every received control edge to
    /// `edges`. `seed` drives ADC read-out noise.
    pub fn with_edge_sink(config: PlantConfig, seed: u64, edges: H) -> Self {
        let drivers = std::array::from_fn(|_| A4988Driver::new(config.min_step_pulse_ns));
        let mechs = std::array::from_fn(|i| AxisMechanism::new(config.axes[i]));

        PrinterPlant {
            drivers,
            hotend: HeaterPlant::new(config.hotend),
            bed: HeaterPlant::new(config.bed),
            fan: FanPlant::new(config.fan_tau_s, config.fan_max_rpm),
            deposition: DepositionModel::new(config.deposition_resolution_mm),
            endstop_levels: std::array::from_fn(|i| {
                let m: &AxisMechanism = &mechs[i];
                m.endstop_level()
            }),
            mechs,
            adc_rng: DetRng::from_seed(seed ^ 0xadc0_ffee),
            config,
            edges,
        }
    }

    /// Initial feedback burst: current endstop levels plus the first ADC
    /// wake-up. Call once at simulation start.
    pub fn start(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        for axis in Axis::MOTION {
            let pin = axis.min_endstop_pin().expect("motion axes have endstops");
            sink.send(
                PORT_FEEDBACK,
                SignalEvent::logic(pin, self.endstop_levels[axis.index()]),
            );
        }
        sink.wake_at(now + SimDuration::from_millis(self.config.adc_period_ms));
    }

    /// Processes one control-direction event.
    pub fn on_control(
        &mut self,
        now: Tick,
        event: SignalEvent,
        sink: &mut ActionSink<SignalEvent>,
    ) {
        match event {
            SignalEvent::Logic(ev) => {
                self.edges.push(now, ev);
                self.on_logic(now, ev, sink)
            }
            // The display UART terminates at the (unmodelled) LCD; ADC
            // events never arrive on the control side.
            SignalEvent::Uart { .. } | SignalEvent::Adc { .. } => {}
        }
    }

    fn on_logic(&mut self, now: Tick, ev: LogicEvent, sink: &mut ActionSink<SignalEvent>) {
        match ev.pin {
            Pin::HotendHeat => self.hotend.set_gate(now, ev.level),
            Pin::BedHeat => self.bed.set_gate(now, ev.level),
            Pin::FanPwm => self.fan.set_gate(now, ev.level),
            Pin::PsOn => {}
            p => {
                if let Some(axis) = p.axis() {
                    if p.class() == offramps_signals::PinClass::Control {
                        let delta = self.drivers[axis.index()].apply(now, ev);
                        if delta != 0 {
                            self.commit_step(axis, delta, sink);
                        }
                    }
                }
            }
        }
    }

    fn commit_step(&mut self, axis: Axis, delta: i64, sink: &mut ActionSink<SignalEvent>) {
        let moved = self.mechs[axis.index()].advance(delta);
        if !moved {
            return;
        }
        // Deposition follows every committed step.
        let p = &self.mechs;
        self.deposition.update(
            p[0].position_mm(),
            p[1].position_mm(),
            p[2].position_mm(),
            p[3].position_mm(),
        );
        // Endstop transition?
        if let Some(pin) = axis.min_endstop_pin() {
            let level = self.mechs[axis.index()].endstop_level();
            if level != self.endstop_levels[axis.index()] {
                self.endstop_levels[axis.index()] = level;
                sink.send(PORT_FEEDBACK, SignalEvent::logic(pin, level));
            }
        }
    }

    /// Periodic wake-up: samples both thermistors and re-arms the timer.
    pub fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        for channel in AnalogChannel::ALL {
            let counts = match channel {
                AnalogChannel::HotendTherm => self.hotend.read_adc(now),
                AnalogChannel::BedTherm => self.bed.read_adc(now),
            };
            // ±1 LSB conversion noise.
            let noise = self.adc_rng.uniform_u64(0, 3) as i32 - 1;
            let noisy = (i32::from(counts) + noise).clamp(0, 1023) as u16;
            sink.send(
                PORT_FEEDBACK,
                SignalEvent::Adc {
                    channel,
                    counts: noisy,
                },
            );
        }
        sink.wake_at(now + SimDuration::from_millis(self.config.adc_period_ms));
    }

    /// Observable plant state at `now`.
    pub fn status(&mut self, now: Tick) -> PlantStatus {
        PlantStatus {
            positions_mm: std::array::from_fn(|i| self.mechs[i].position_mm()),
            hotend_c: self.hotend.temperature_c(now),
            bed_c: self.bed.temperature_c(now),
            hotend_peak_c: self.hotend.peak_temp_c,
            hotend_seconds_over_damage: self.hotend.seconds_over_damage,
            fan_rpm: self.fan.rpm(now),
            fan_duty: self.fan.lifetime_duty(),
            lost_steps: std::array::from_fn(|i| self.mechs[i].lost_steps),
            steps_while_disabled: std::array::from_fn(|i| self.drivers[i].steps_while_disabled),
            short_pulses: std::array::from_fn(|i| self.drivers[i].short_pulses),
        }
    }

    /// Consumes the plant, returning the deposited part and the edge
    /// hook with everything it took.
    pub fn into_parts(self) -> (PartModel, H) {
        (self.deposition.finish(), self.edges)
    }

    /// Read-only view of the part so far.
    pub fn part(&self) -> &PartModel {
        self.deposition.part()
    }

    /// The plant configuration.
    pub fn config(&self) -> &PlantConfig {
        &self.config
    }
}

impl<H: EdgeSink> SimComponent for PrinterPlant<H> {
    type Payload = SignalEvent;

    fn start(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        PrinterPlant::start(self, now, sink);
    }

    fn on_event(
        &mut self,
        now: Tick,
        _port: InPort,
        payload: SignalEvent,
        sink: &mut ActionSink<SignalEvent>,
    ) {
        self.on_control(now, payload, sink);
    }

    fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        PrinterPlant::on_tick(self, now, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_des::SinkAction;
    use offramps_signals::SignalTrace;

    fn plant() -> PrinterPlant {
        PrinterPlant::new(PlantConfig::default(), 1)
    }

    /// Drives one control event and returns the sink's actions.
    fn control<H: EdgeSink>(
        p: &mut PrinterPlant<H>,
        t_us: u64,
        ev: SignalEvent,
    ) -> Vec<SinkAction<SignalEvent>> {
        let mut sink = ActionSink::new();
        sink.begin(Tick::from_micros(t_us));
        p.on_control(Tick::from_micros(t_us), ev, &mut sink);
        sink.drain().collect()
    }

    fn step<H: EdgeSink>(
        p: &mut PrinterPlant<H>,
        t_us: u64,
        axis: Axis,
    ) -> Vec<SinkAction<SignalEvent>> {
        let mut acts = control(p, t_us, SignalEvent::logic(axis.step_pin(), Level::High));
        acts.extend(control(
            p,
            t_us + 2,
            SignalEvent::logic(axis.step_pin(), Level::Low),
        ));
        acts
    }

    #[test]
    fn steps_move_carriage() {
        let mut p = plant();
        control(&mut p, 0, SignalEvent::logic(Pin::XEnable, Level::Low));
        control(&mut p, 0, SignalEvent::logic(Pin::XDir, Level::High));
        let x0 = p.status(Tick::ZERO).positions_mm[0];
        for i in 0..100 {
            step(&mut p, 10 + i * 10, Axis::X);
        }
        let x1 = p.status(Tick::from_millis(2)).positions_mm[0];
        assert!((x1 - x0 - 1.0).abs() < 1e-9, "100 steps at 100/mm = 1mm");
    }

    #[test]
    fn disabled_driver_does_not_move() {
        let mut p = plant();
        control(&mut p, 0, SignalEvent::logic(Pin::XDir, Level::High));
        let x0 = p.status(Tick::ZERO).positions_mm[0];
        step(&mut p, 10, Axis::X);
        let s = p.status(Tick::from_millis(1));
        assert_eq!(s.positions_mm[0], x0);
        assert_eq!(s.steps_while_disabled[0], 1);
    }

    #[test]
    fn homing_toward_zero_triggers_endstop() {
        let mut p = plant();
        control(&mut p, 0, SignalEvent::logic(Pin::XEnable, Level::Low));
        control(&mut p, 0, SignalEvent::logic(Pin::XDir, Level::Low)); // negative
        p.mechs[Axis::X.index()].reference_at(0.5);
        let mut endstop_events = Vec::new();
        for i in 0..200 {
            for a in step(&mut p, 10 + i * 10, Axis::X) {
                if let SinkAction::Send {
                    payload: SignalEvent::Logic(ev),
                    ..
                } = a
                {
                    endstop_events.push(ev);
                }
            }
        }
        assert_eq!(endstop_events.len(), 1, "exactly one transition");
        assert_eq!(endstop_events[0].pin, Pin::XMin);
        assert_eq!(endstop_events[0].level, Level::High);
    }

    #[test]
    fn start_reports_endstops_and_schedules_adc() {
        let mut p = plant();
        let mut sink = ActionSink::new();
        sink.begin(Tick::ZERO);
        p.start(Tick::ZERO, &mut sink);
        let acts: Vec<_> = sink.drain().collect();
        let emits = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    SinkAction::Send {
                        payload: SignalEvent::Logic(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(emits, 3);
        assert!(acts.iter().any(|a| matches!(a, SinkAction::WakeAt(_))));
    }

    #[test]
    fn adc_tick_reports_both_channels_and_rearms() {
        let mut p = plant();
        let mut sink = ActionSink::new();
        sink.begin(Tick::from_millis(100));
        p.on_tick(Tick::from_millis(100), &mut sink);
        let acts: Vec<_> = sink.drain().collect();
        let adc: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                SinkAction::Send {
                    payload: SignalEvent::Adc { channel, counts },
                    ..
                } => Some((*channel, *counts)),
                _ => None,
            })
            .collect();
        assert_eq!(adc.len(), 2);
        // Ambient ~25C reads high counts (thermistor on the low side).
        assert!(adc.iter().all(|(_, c)| *c > 900), "{adc:?}");
        assert!(matches!(
            acts.last(),
            Some(SinkAction::WakeAt(t)) if *t == Tick::from_millis(200)
        ));
    }

    #[test]
    fn heater_gate_heats_element() {
        let mut p = plant();
        control(&mut p, 0, SignalEvent::logic(Pin::HotendHeat, Level::High));
        let s = p.status(Tick::from_secs(30));
        assert!(s.hotend_c > 100.0, "got {}", s.hotend_c);
        assert!(s.bed_c < 30.0);
    }

    #[test]
    fn fan_gate_spins_fan() {
        let mut p = plant();
        control(&mut p, 0, SignalEvent::logic(Pin::FanPwm, Level::High));
        assert!(p.status(Tick::from_secs(3)).fan_rpm > 5_000.0);
    }

    #[test]
    fn extrusion_plus_motion_deposits() {
        let mut p = plant();
        for axis in [Axis::X, Axis::E] {
            control(&mut p, 0, SignalEvent::logic(axis.enable_pin(), Level::Low));
            control(&mut p, 0, SignalEvent::logic(axis.dir_pin(), Level::High));
        }
        // Interleave X and E steps: 400 X steps (4mm), 100 E steps.
        let mut t = 10;
        for i in 0..400 {
            step(&mut p, t, Axis::X);
            if i % 4 == 0 {
                step(&mut p, t + 5, Axis::E);
            }
            t += 10;
        }
        let (part, ()) = p.into_parts();
        assert!(part.total_forward_e_mm > 0.3);
        assert!(!part.segments().is_empty());
    }

    #[test]
    fn plant_trace_records_received_control_signals() {
        let mut p = PrinterPlant::with_edge_sink(PlantConfig::default(), 1, SignalTrace::new());
        control(&mut p, 0, SignalEvent::logic(Pin::XEnable, Level::Low));
        step(&mut p, 10, Axis::X);
        // ADC samples are feedback, not control edges: never pushed.
        control(
            &mut p,
            20,
            SignalEvent::Adc {
                channel: AnalogChannel::HotendTherm,
                counts: 512,
            },
        );
        let (_, trace) = p.into_parts();
        assert_eq!(trace.len(), 3, "enable + step high/low");
    }

    #[test]
    fn uart_is_sunk_silently() {
        let mut p = plant();
        let acts = control(
            &mut p,
            0,
            SignalEvent::Uart {
                direction: offramps_signals::UartDirection::ControllerToDisplay,
                byte: 0x55,
            },
        );
        assert!(acts.is_empty());
    }
}
