//! The OFFRAMPS machine-in-the-middle component.
//!
//! Every signal between the controller (firmware) and the driver board
//! (plant) flows through [`Offramps`] in both directions, exactly like
//! the physical board's jumper banks route every header pin through the
//! Cmod-A7. Depending on the configured [`SignalPath`]:
//!
//! * **bypass** — events are forwarded verbatim (plus the fabric's
//!   pipeline delay),
//! * **modify** — control events run through the armed Trojans' control
//!   units and mux (pass / drop / replace / inject),
//! * **capture** — the monitoring pipeline counts steps and exports
//!   16-byte transactions.
//!
//! [`SignalPath`]: crate::SignalPath

use offramps_des::{ActionSink, DetRng, InPort, OutPort, SeedSplitter, SimComponent, Tick};
use offramps_signals::{LogicEvent, PinClass, SignalEvent, SignalTrace};

use crate::config::MitmConfig;
use crate::monitor::{HomingDetector, Monitor};
use crate::trojans::{Disposition, Trojan, TrojanCtx};

/// Output port: control-direction events heading to the plant.
pub const PORT_TO_PLANT: OutPort = OutPort(0);

/// Output port: feedback-direction events heading to the firmware.
pub const PORT_TO_FIRMWARE: OutPort = OutPort(1);

/// Input port: control-direction events arriving from the firmware.
pub const PORT_CTRL_IN: InPort = InPort(0);

/// Input port: feedback-direction events arriving from the plant.
pub const PORT_FEEDBACK_IN: InPort = InPort(1);

/// The Trojan hook one interceptor call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    /// A control-direction event (firmware → plant).
    Control,
    /// A feedback-direction event (plant → firmware).
    Feedback,
    /// A timer wake-up; no event travels.
    Wake,
}

/// The interceptor. Construct with [`Offramps::new`], arm Trojans with
/// `Offramps::add_trojan`, then route every firmware output through
/// [`Offramps::on_control`] and every plant output through
/// [`Offramps::on_feedback`].
#[derive(Debug)]
pub struct Offramps {
    config: MitmConfig,
    trojans: Vec<Box<dyn Trojan>>,
    monitor: Option<Monitor>,
    homing: HomingDetector,
    rng: DetRng,
    trace: Option<SignalTrace>,
    /// Control events seen (diagnostics).
    pub control_events: u64,
    /// Feedback events seen (diagnostics).
    pub feedback_events: u64,
    /// Events injected by Trojans (diagnostics).
    pub injected_events: u64,
    /// Events dropped or replaced by Trojans (diagnostics).
    pub modified_events: u64,
}

impl Offramps {
    /// Creates the interceptor. `seed` drives Trojan randomness.
    pub fn new(config: MitmConfig, seed: u64) -> Self {
        Offramps {
            monitor: config
                .path
                .capture
                .then(|| Monitor::new(config.export_period)),
            config,
            trojans: Vec::new(),
            homing: HomingDetector::new(),
            rng: SeedSplitter::new(seed).stream("offramps-trojans"),
            trace: None,
            control_events: 0,
            feedback_events: 0,
            injected_events: 0,
            modified_events: 0,
        }
    }

    /// Arms a Trojan (effective only when the path has `modify` set).
    pub(crate) fn add_trojan(&mut self, trojan: Box<dyn Trojan>) {
        self.trojans.push(trojan);
    }

    /// Enables raw signal tracing (the logic-analyzer role).
    pub(crate) fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(SignalTrace::new());
        }
    }

    /// The recorded trace so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&SignalTrace> {
        self.trace.as_ref()
    }

    /// The monitor, if the capture path is active.
    pub fn monitor(&self) -> Option<&Monitor> {
        self.monitor.as_ref()
    }

    /// Consumes the interceptor, returning `(capture, trace)`.
    pub(crate) fn into_outputs(self) -> (Option<crate::Capture>, Option<SignalTrace>) {
        (self.monitor.map(Monitor::into_capture), self.trace)
    }

    /// The configuration.
    pub fn config(&self) -> &MitmConfig {
        &self.config
    }

    /// Routes one control-direction event (firmware → plant).
    pub fn on_control(
        &mut self,
        now: Tick,
        event: SignalEvent,
        sink: &mut ActionSink<SignalEvent>,
    ) {
        self.control_events += 1;

        if let SignalEvent::Logic(logic) = event {
            if let Some(trace) = self.trace.as_mut() {
                trace.record(now, logic);
            }
        }

        // Monitoring observes the controller's stream (§V counts the
        // steps the Arduino sends).
        if let Some(monitor) = self.monitor.as_mut() {
            if let SignalEvent::Logic(logic) = event {
                if let Some(wake) = monitor.on_control(now, logic, self.homing.is_homed()) {
                    sink.wake_at(wake);
                }
            }
        }

        // Trojan pipeline.
        let mut forwarded = Some(event);
        if self.config.path.modify {
            forwarded = self.run_trojans(now, forwarded, Hook::Control, sink);
        }

        if let Some(ev) = forwarded {
            sink.send_at(PORT_TO_PLANT, now + self.config.pipeline_delay, ev);
        }
    }

    /// The FPGA's homing detector taps one feedback event; completing
    /// the homing cycle re-zeroes the monitor's counters.
    fn tap_feedback(&mut self, logic: LogicEvent) {
        if self.homing.observe(logic) {
            if let Some(monitor) = self.monitor.as_mut() {
                monitor.on_homed();
            }
        }
    }

    /// Runs one `hook` through every armed Trojan, emitting injections
    /// and wake requests; returns what of `forwarded` survives the mux
    /// (a wake-up forwards nothing).
    fn run_trojans(
        &mut self,
        now: Tick,
        mut forwarded: Option<SignalEvent>,
        hook: Hook,
        sink: &mut ActionSink<SignalEvent>,
    ) -> Option<SignalEvent> {
        let mut injections = Vec::new();
        let mut feedback_injections = Vec::new();
        let mut wake = None;
        let homed = self.homing.is_homed();
        for trojan in &mut self.trojans {
            let mut ctx = TrojanCtx {
                now,
                homed,
                rng: &mut self.rng,
                injections: &mut injections,
                feedback_injections: &mut feedback_injections,
                wake: &mut wake,
            };
            let disposition = match (hook, forwarded) {
                (Hook::Wake, _) => {
                    trojan.on_wake(&mut ctx);
                    Disposition::Pass
                }
                (_, None) => break,
                (Hook::Control, Some(ev)) => trojan.on_control(&mut ctx, &ev),
                (Hook::Feedback, Some(ev)) => trojan.on_feedback(&mut ctx, &ev),
            };
            match disposition {
                Disposition::Pass => {}
                Disposition::Drop => {
                    self.modified_events += 1;
                    forwarded = None;
                }
                Disposition::Replace(new_ev) => {
                    self.modified_events += 1;
                    forwarded = Some(new_ev);
                }
            }
        }
        self.injected_events += (injections.len() + feedback_injections.len()) as u64;
        for (at, ev) in injections {
            sink.send_at(PORT_TO_PLANT, at + self.config.pipeline_delay, ev);
        }
        for (at, ev) in feedback_injections {
            // Spoofed feedback is what the *firmware* experiences; the
            // FPGA's own homing detector taps the output mux, so it sees
            // the spoof too.
            if let SignalEvent::Logic(logic) = ev {
                self.tap_feedback(logic);
            }
            sink.send_at(PORT_TO_FIRMWARE, at + self.config.pipeline_delay, ev);
        }
        if let Some(w) = wake {
            sink.wake_at(w);
        }
        forwarded
    }

    /// Routes one feedback-direction event (plant → firmware).
    pub fn on_feedback(
        &mut self,
        now: Tick,
        event: SignalEvent,
        sink: &mut ActionSink<SignalEvent>,
    ) {
        self.feedback_events += 1;
        if let SignalEvent::Logic(logic) = event {
            debug_assert_eq!(
                logic.pin.class(),
                PinClass::Feedback,
                "control pins must not arrive on the feedback path"
            );
            // Homing detection observes the *true* feedback (the FPGA
            // taps the wire before its own mux).
            self.tap_feedback(logic);
            if let Some(trace) = self.trace.as_mut() {
                trace.record(now, logic);
            }
        }
        let mut forwarded = Some(event);
        if self.config.path.modify {
            forwarded = self.run_trojans(now, forwarded, Hook::Feedback, sink);
        }
        if let Some(ev) = forwarded {
            sink.send_at(PORT_TO_FIRMWARE, now + self.config.pipeline_delay, ev);
        }
    }

    /// Timer wake-up: runs the monitor's exporter and the Trojans'
    /// timed behaviour.
    pub fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        if let Some(monitor) = self.monitor.as_mut() {
            if let Some(next) = monitor.on_tick(now) {
                sink.wake_at(next);
            }
        }
        if self.config.path.modify {
            self.run_trojans(now, None, Hook::Wake, sink);
        }
    }
}

impl SimComponent for Offramps {
    type Payload = SignalEvent;

    fn on_event(
        &mut self,
        now: Tick,
        port: InPort,
        payload: SignalEvent,
        sink: &mut ActionSink<SignalEvent>,
    ) {
        match port {
            PORT_CTRL_IN => self.on_control(now, payload, sink),
            PORT_FEEDBACK_IN => self.on_feedback(now, payload, sink),
            other => panic!("Offramps has no input port {other:?}"),
        }
    }

    fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        Offramps::on_tick(self, now, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SignalPath;
    use crate::trojans::FlowReductionTrojan;
    use offramps_des::{SimDuration, SinkAction};
    use offramps_signals::{Level, Pin};
    use std::cell::Cell;
    use std::rc::Rc;

    fn bypass() -> Offramps {
        Offramps::new(MitmConfig::default(), 1)
    }

    /// Drives one control event through a fresh sink.
    fn on_control(m: &mut Offramps, t: Tick, ev: SignalEvent) -> Vec<SinkAction<SignalEvent>> {
        let mut sink = ActionSink::new();
        sink.begin(t);
        m.on_control(t, ev, &mut sink);
        sink.drain().collect()
    }

    fn on_feedback(m: &mut Offramps, t: Tick, ev: SignalEvent) -> Vec<SinkAction<SignalEvent>> {
        let mut sink = ActionSink::new();
        sink.begin(t);
        m.on_feedback(t, ev, &mut sink);
        sink.drain().collect()
    }

    fn on_tick(m: &mut Offramps, t: Tick) -> Vec<SinkAction<SignalEvent>> {
        let mut sink = ActionSink::new();
        sink.begin(t);
        m.on_tick(t, &mut sink);
        sink.drain().collect()
    }

    #[test]
    fn bypass_forwards_with_pipeline_delay() {
        let mut m = bypass();
        let ev = SignalEvent::logic(Pin::XStep, Level::High);
        let acts = on_control(&mut m, Tick::from_micros(10), ev);
        assert_eq!(
            acts,
            vec![SinkAction::Send {
                port: PORT_TO_PLANT,
                at: Tick::from_micros(10) + SimDuration::from_nanos(13),
                payload: ev,
            }]
        );
        assert_eq!(m.control_events, 1);
    }

    #[test]
    fn feedback_forwards_to_firmware() {
        let mut m = bypass();
        let ev = SignalEvent::logic(Pin::XMin, Level::High);
        let acts = on_feedback(&mut m, Tick::from_micros(5), ev);
        assert!(
            matches!(acts[0], SinkAction::Send { port: PORT_TO_FIRMWARE, payload: e, .. } if e == ev)
        );
    }

    #[test]
    fn modify_path_applies_trojans() {
        let cfg = MitmConfig {
            path: SignalPath::modify(),
            ..MitmConfig::default()
        };
        let mut m = Offramps::new(cfg, 1);
        m.add_trojan(Box::new(FlowReductionTrojan::half()));
        // Extruding forward during XY motion: E DIR high, X pulses keep
        // the motion window hot, then E pulses.
        on_control(
            &mut m,
            Tick::ZERO,
            SignalEvent::logic(Pin::EDir, Level::High),
        );
        let mut e_edges_forwarded = 0;
        for i in 0..4u64 {
            let t = Tick::from_micros(100 * i);
            on_control(&mut m, t, SignalEvent::logic(Pin::XStep, Level::High));
            on_control(&mut m, t, SignalEvent::logic(Pin::XStep, Level::Low));
            let a = on_control(&mut m, t, SignalEvent::logic(Pin::EStep, Level::High));
            let b = on_control(&mut m, t, SignalEvent::logic(Pin::EStep, Level::Low));
            e_edges_forwarded += a.len() + b.len();
        }
        assert_eq!(
            e_edges_forwarded, 4,
            "half the E pulses (2 of 4) = 4 edges forwarded"
        );
        assert_eq!(m.modified_events, 4);
    }

    #[test]
    fn trojans_inactive_on_bypass_path() {
        let mut m = bypass();
        m.add_trojan(Box::new(FlowReductionTrojan::half()));
        on_control(
            &mut m,
            Tick::ZERO,
            SignalEvent::logic(Pin::EDir, Level::High),
        );
        let mut forwarded = 0;
        for i in 0..4u64 {
            let t = Tick::from_micros(100 * i);
            forwarded += on_control(&mut m, t, SignalEvent::logic(Pin::EStep, Level::High)).len();
            forwarded += on_control(&mut m, t, SignalEvent::logic(Pin::EStep, Level::Low)).len();
        }
        assert_eq!(forwarded, 8, "bypass must not mask pulses");
    }

    #[test]
    fn capture_path_builds_transactions() {
        let cfg = MitmConfig {
            path: SignalPath::capture(),
            ..MitmConfig::default()
        };
        let mut m = Offramps::new(cfg, 1);
        // Home (feedback), then step, then tick past the period.
        for pin in [
            Pin::XMin,
            Pin::XMin,
            Pin::YMin,
            Pin::YMin,
            Pin::ZMin,
            Pin::ZMin,
        ] {
            on_feedback(
                &mut m,
                Tick::from_millis(1),
                SignalEvent::logic(pin, Level::High),
            );
            on_feedback(
                &mut m,
                Tick::from_millis(1),
                SignalEvent::logic(pin, Level::Low),
            );
        }
        on_control(
            &mut m,
            Tick::from_millis(10),
            SignalEvent::logic(Pin::XDir, Level::High),
        );
        let acts = on_control(
            &mut m,
            Tick::from_millis(10),
            SignalEvent::logic(Pin::XStep, Level::High),
        );
        assert!(
            acts.iter().any(|a| matches!(a, SinkAction::WakeAt(_))),
            "first step after homing arms the export clock"
        );
        on_control(
            &mut m,
            Tick::from_millis(10),
            SignalEvent::logic(Pin::XStep, Level::Low),
        );
        let acts = on_tick(&mut m, Tick::from_millis(110));
        assert!(acts.iter().any(|a| matches!(a, SinkAction::WakeAt(_))));
        let cap = m.monitor().unwrap().capture();
        assert_eq!(cap.len(), 1);
        assert_eq!(cap.transactions()[0].counts[0], 1);
    }

    /// Spoofs a full X → Y → Z endstop homing cycle (two touches per
    /// axis) from its first wake-up, and records the homed state every
    /// wake-up sees.
    #[derive(Debug)]
    struct WakeHomingSpoof {
        spoofed: bool,
        homed_seen: Rc<Cell<bool>>,
    }

    impl Trojan for WakeHomingSpoof {
        fn id(&self) -> &'static str {
            "TEST"
        }
        fn kind(&self) -> &'static str {
            "PM"
        }
        fn scenario(&self) -> &'static str {
            "homing spoofed from a timer"
        }
        fn effect(&self) -> &'static str {
            "the interceptor believes the printer homed"
        }
        fn on_control(&mut self, _ctx: &mut TrojanCtx<'_>, _event: &SignalEvent) -> Disposition {
            Disposition::Pass
        }
        fn on_wake(&mut self, ctx: &mut TrojanCtx<'_>) {
            self.homed_seen.set(ctx.homed);
            if !self.spoofed {
                self.spoofed = true;
                for pin in [Pin::XMin, Pin::YMin, Pin::ZMin] {
                    for _ in 0..2 {
                        ctx.inject_feedback(ctx.now, SignalEvent::logic(pin, Level::High));
                        ctx.inject_feedback(ctx.now, SignalEvent::logic(pin, Level::Low));
                    }
                }
            }
        }
    }

    #[test]
    fn wake_spoofed_feedback_reaches_homing_detection() {
        let cfg = MitmConfig {
            path: SignalPath::modify_and_capture(),
            ..MitmConfig::default()
        };
        let mut m = Offramps::new(cfg, 1);
        let homed_seen = Rc::new(Cell::new(false));
        m.add_trojan(Box::new(WakeHomingSpoof {
            spoofed: false,
            homed_seen: Rc::clone(&homed_seen),
        }));
        let acts = on_tick(&mut m, Tick::from_millis(1));
        let spoofed = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    SinkAction::Send {
                        port: PORT_TO_FIRMWARE,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(spoofed, 12, "six spoofed touches reach the firmware");
        assert_eq!(m.injected_events, 12);
        on_tick(&mut m, Tick::from_millis(2));
        assert!(homed_seen.get(), "the Trojans see the interceptor homed");
        let acts = on_control(
            &mut m,
            Tick::from_millis(10),
            SignalEvent::logic(Pin::XStep, Level::High),
        );
        assert!(
            acts.iter().any(|a| matches!(a, SinkAction::WakeAt(_))),
            "the first step after the spoofed homing arms the export clock"
        );
    }

    #[test]
    fn trace_records_logic_events() {
        let mut m = bypass();
        m.enable_trace();
        on_control(
            &mut m,
            Tick::from_micros(1),
            SignalEvent::logic(Pin::XStep, Level::High),
        );
        on_control(
            &mut m,
            Tick::from_micros(3),
            SignalEvent::logic(Pin::XStep, Level::Low),
        );
        assert_eq!(m.trace().unwrap().len(), 2);
        let (cap, trace) = m.into_outputs();
        assert!(cap.is_none());
        assert_eq!(trace.unwrap().len(), 2);
    }
}
