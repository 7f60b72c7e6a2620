//! The firmware state machine: G-code in, signals out.

use std::sync::Arc;

use offramps_des::{
    ActionSink, DetRng, InPort, OutPort, SeedSplitter, SimComponent, SimDuration, Tick,
};
use offramps_gcode::{GCommand, Positioning, Program};
use offramps_signals::{AnalogChannel, Axis, Level, Pin, SignalEvent, UartDirection};

use crate::config::FirmwareConfig;
use crate::error::{ConfigError, FirmwareError, HeaterId};
use crate::heaters::HeaterControl;
use crate::motion::{cap_feedrate, MoveExec};
use crate::thermistor_table::ThermistorTable;

/// The firmware's single output port: control-direction signals that
/// flow through the interceptor to the plant.
pub const PORT_CTRL: OutPort = OutPort(0);

/// The firmware's single input port: feedback-direction signals
/// (endstops, thermistor ADC samples).
pub const PORT_FEEDBACK: InPort = InPort(0);

/// Lifecycle state of the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FwState {
    /// Executing the program.
    Running,
    /// Program completed normally.
    Finished,
    /// Killed by a protection fault (heaters off, steppers disabled).
    Halted(FirmwareError),
}

/// PWM-driven output devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Device {
    Hotend,
    Bed,
    Fan,
}

impl Device {
    const ALL: [Device; 3] = [Device::Hotend, Device::Bed, Device::Fan];

    fn pin(self) -> Pin {
        match self {
            Device::Hotend => Pin::HotendHeat,
            Device::Bed => Pin::BedHeat,
            Device::Fan => Pin::FanPwm,
        }
    }

    fn index(self) -> usize {
        match self {
            Device::Hotend => 0,
            Device::Bed => 1,
            Device::Fan => 2,
        }
    }
}

// The firmware's timers, one slot per Marlin hardware timer. An armed
// slot holds one packed key, `tick << 64 | seq << 4 | slot`; the
// smallest key is the next timer due, and keys sort in `(tick, seq)`
// order, so timers due together run in the order they were armed.

/// Execute program commands until blocked.
const ADVANCE: usize = 0;
/// The live move's next step pulse, or its completion once the steps
/// have run out.
const MOTION: usize = 1;
/// The pending steps of aborted moves, two slots: a wake that does
/// nothing.
const STALE: usize = 2;
/// Drive the STEP pins of `step_low_mask` low.
const STEP_LOW: usize = 4;
/// Temperature control-loop iteration.
const TEMP_LOOP: usize = 5;
/// Periodic display-UART status report.
const STATUS: usize = 6;
/// Start of a soft-PWM period, one slot per [`Device`].
const PWM_PERIOD: usize = 7;
/// Mid-period gate-off, one slot per [`Device`].
const PWM_OFF: usize = 10;
const TIMERS: usize = 13;
const SLOT_BITS: u128 = 0xF;
const UNARMED: u128 = u128::MAX;

fn key_tick(key: u128) -> Tick {
    Tick::new((key >> 64) as u64)
}

/// Homing sub-state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HomingPhase {
    FastApproach,
    Backoff,
    SlowApproach,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct HomingState {
    /// Axes still to home, in X, Y, Z order.
    pending: [bool; 3],
    current: Axis,
    phase: HomingPhase,
}

/// What move completion continues into.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ExecContext {
    Program,
    Homing(HomingState),
}

/// Why the program is not advancing right now.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Block {
    None,
    Move,
    WaitTemp(HeaterId),
}

/// The Marlin-like firmware simulator. See the crate docs for an
/// overview; drive it with [`Firmware::start`], [`Firmware::on_tick`] and
/// [`Firmware::on_feedback`] — or let a [`Scheduler`] do it through the
/// [`SimComponent`] impl.
///
/// [`Scheduler`]: offramps_des::Scheduler
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use offramps_firmware::{Firmware, FirmwareConfig};
/// use offramps_des::{ActionSink, SinkAction, Tick};
/// use offramps_gcode::parse;
///
/// let program = Arc::new(parse("G90\nM83\nG1 X1 F600\n")?);
/// let mut fw = Firmware::new(FirmwareConfig::default(), program, 1)?;
/// let mut sink = ActionSink::new();
/// sink.begin(Tick::ZERO);
/// fw.start(Tick::ZERO, &mut sink);
/// assert!(sink.actions().iter().any(|a| matches!(a, SinkAction::WakeAt(_))));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Firmware {
    config: FirmwareConfig,
    program: Arc<Program>,
    pc: usize,
    state: FwState,
    /// Armed timer keys by slot, `UNARMED` when idle.
    timers: [u128; TIMERS],
    /// The smallest key in `timers`: the next timer due.
    next_key: u128,
    timer_seq: u64,
    step_low_mask: [bool; 4],

    // Positioning. Logical coordinates zero per axis as its homing
    // completes, not at `G28`: the status report reads them mid-homing.
    positioning: Positioning,
    feedrate_mm_s: f64,
    /// Physical microsteps since the last home, per axis.
    pos_steps: [i64; 4],
    /// Physical steps corresponding to logical zero, per axis.
    origin_steps: [f64; 4],
    /// Last DIR level emitted per axis (None = never emitted).
    dir_emitted: [Option<Level>; 4],
    /// Last EN level emitted per axis.
    en_emitted: [Option<Level>; 4],
    current_move: Option<MoveExec>,
    context: ExecContext,
    block: Block,
    homed: bool,

    // Heaters / fan.
    hotend: HeaterControl,
    bed: HeaterControl,
    hotend_table: ThermistorTable,
    bed_table: ThermistorTable,
    adc_counts: [Option<u16>; 2],
    pwm_duty: [u8; 3],
    gate_emitted: [Option<Level>; 3],

    // Feedback.
    endstop_high: [bool; 3],

    // Time noise.
    jitter_rng: DetRng,
}

impl Firmware {
    /// Creates the firmware with a parsed program. The program is shared
    /// by reference — a campaign fanning one job across many scenarios
    /// never copies the command list. `seed` drives the per-move time
    /// noise.
    ///
    /// # Errors
    ///
    /// [`ConfigError::StepPulseTooWide`] if `config.step_pulse_us` is not
    /// shorter than the shortest step interval the config allows: each
    /// STEP pulse must end before the next one starts.
    pub fn new(
        config: FirmwareConfig,
        program: Arc<Program>,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        let interval_us = config.shortest_step_interval_s() * 1e6;
        let pulse_fits = (config.step_pulse_us as f64) < interval_us.floor();
        if !pulse_fits {
            return Err(ConfigError::StepPulseTooWide {
                pulse_us: config.step_pulse_us,
                interval_us,
            });
        }
        let split = SeedSplitter::new(seed);
        Ok(Firmware {
            hotend: HeaterControl::new_hotend(HeaterId::Hotend, &config),
            bed: HeaterControl::new_bed(HeaterId::Bed, &config),
            hotend_table: ThermistorTable::semitec_104gt2(),
            bed_table: ThermistorTable::epcos_100k(),
            config,
            program,
            pc: 0,
            state: FwState::Running,
            timers: [UNARMED; TIMERS],
            next_key: UNARMED,
            timer_seq: 0,
            step_low_mask: [false; 4],
            positioning: Positioning::default(),
            feedrate_mm_s: 0.0,
            pos_steps: [0; 4],
            origin_steps: [0.0; 4],
            dir_emitted: [None; 4],
            en_emitted: [None; 4],
            current_move: None,
            context: ExecContext::Program,
            block: Block::None,
            homed: false,
            adc_counts: [None; 2],
            pwm_duty: [0; 3],
            gate_emitted: [None; 3],
            endstop_high: [false; 3],
            jitter_rng: split.stream("firmware-jitter"),
        })
    }

    /// Boot: arms the periodic loops and begins executing the program.
    /// Call once; initial signals and the first wake-up land in `sink`.
    pub fn start(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        self.schedule(
            now + SimDuration::from_millis(self.config.temp_loop_ms),
            TEMP_LOOP,
        );
        for i in 0..Device::ALL.len() {
            self.schedule(
                now + SimDuration::from_millis(self.config.pwm_period_ms + i as u64),
                PWM_PERIOD + i,
            );
        }
        if self.config.status_period_ms > 0 {
            self.schedule(
                now + SimDuration::from_millis(self.config.status_period_ms),
                STATUS,
            );
        }
        // Small boot delay before the first command, like a real reset.
        self.schedule(now + SimDuration::from_millis(10), ADVANCE);
        self.arm_wake(sink);
    }

    /// The current lifecycle state.
    pub fn state(&self) -> FwState {
        self.state
    }

    /// Physical step counters (microsteps since home), [`Axis::ALL`]
    /// order.
    pub fn step_counts(&self) -> [i64; 4] {
        self.pos_steps
    }

    /// True once G28 has completed at least once.
    pub fn is_homed(&self) -> bool {
        self.homed
    }

    /// Arms the idle timer `slot` to fire at `tick`.
    fn schedule(&mut self, tick: Tick, slot: usize) {
        assert!(
            self.timers[slot] == UNARMED,
            "timer slot {slot} armed twice"
        );
        let key = u128::from(tick.ticks()) << 64 | u128::from(self.timer_seq) << 4 | slot as u128;
        self.timers[slot] = key;
        self.next_key = self.next_key.min(key);
        self.timer_seq += 1;
    }

    /// Disarms the armed `slot`, rescanning for the next timer only when
    /// it was the one due first.
    fn disarm(&mut self, slot: usize) {
        let key = std::mem::replace(&mut self.timers[slot], UNARMED);
        if key == self.next_key {
            self.next_key = *self
                .timers
                .iter()
                .min()
                .expect("the timer set is not empty");
        }
    }

    fn arm_wake(&self, sink: &mut ActionSink<SignalEvent>) {
        debug_assert_eq!(
            Some(&self.next_key),
            self.timers.iter().min(),
            "the cached next key is the smallest armed key"
        );
        if self.next_key != UNARMED {
            sink.wake_at(key_tick(self.next_key));
        }
    }

    /// Handles a scheduler wake-up: runs every timer due at or before
    /// `now`.
    pub fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        loop {
            let key = self.next_key;
            if key == UNARMED || key_tick(key) > now {
                break;
            }
            let slot = (key & SLOT_BITS) as usize;
            self.disarm(slot);
            self.run_timer(key_tick(key), slot, sink);
        }
        self.arm_wake(sink);
    }

    /// Handles a feedback-direction event (endstops, thermistor ADC).
    pub fn on_feedback(
        &mut self,
        now: Tick,
        event: SignalEvent,
        sink: &mut ActionSink<SignalEvent>,
    ) {
        match event {
            SignalEvent::Adc { channel, counts } => {
                self.adc_counts[adc_index(channel)] = Some(counts);
            }
            SignalEvent::Logic(ev) => {
                if let Some(axis) = ev.pin.axis() {
                    if ev.pin == axis.min_endstop_pin().unwrap_or(ev.pin)
                        && matches!(ev.pin, Pin::XMin | Pin::YMin | Pin::ZMin)
                    {
                        let rising = ev.level.is_high() && !self.endstop_high[axis.index()];
                        self.endstop_high[axis.index()] = ev.level.is_high();
                        if rising {
                            self.on_endstop_hit(now, axis, sink);
                        }
                    }
                }
            }
            SignalEvent::Uart { .. } => {}
        }
        self.arm_wake(sink);
    }

    // ------------------------------------------------------------------
    // Timer dispatch
    // ------------------------------------------------------------------

    fn run_timer(&mut self, now: Tick, slot: usize, sink: &mut ActionSink<SignalEvent>) {
        match slot {
            ADVANCE => self.advance_program(now, sink),
            MOTION => self.motion_timer(now, sink),
            STALE..STEP_LOW => {}
            STEP_LOW => {
                for axis in Axis::ALL {
                    if self.step_low_mask[axis.index()] {
                        sink.send(PORT_CTRL, SignalEvent::logic(axis.step_pin(), Level::Low));
                    }
                }
            }
            TEMP_LOOP => self.temp_loop(now, sink),
            STATUS => {
                self.emit_status(sink);
                if !matches!(self.state, FwState::Finished) {
                    self.schedule(
                        now + SimDuration::from_millis(self.config.status_period_ms),
                        STATUS,
                    );
                }
            }
            PWM_PERIOD..PWM_OFF => self.pwm_period(now, Device::ALL[slot - PWM_PERIOD], sink),
            _ => self.set_gate(Device::ALL[slot - PWM_OFF], Level::Low, sink),
        }
    }

    // ------------------------------------------------------------------
    // Program execution
    // ------------------------------------------------------------------

    fn advance_program(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        if self.block != Block::None || !matches!(self.state, FwState::Running) {
            return;
        }
        loop {
            let Some(cmd) = self.program.commands().get(self.pc).cloned() else {
                self.state = FwState::Finished;
                return;
            };
            self.pc += 1;
            match cmd {
                GCommand::Move {
                    rapid: _,
                    x,
                    y,
                    z,
                    e,
                    feedrate,
                } => {
                    if let Some(f) = feedrate {
                        self.feedrate_mm_s = f / 60.0;
                    }
                    if self.begin_move(now, [x, y, z, e], sink) {
                        self.block = Block::Move;
                        return;
                    }
                    // Zero-length move: keep going.
                }
                GCommand::Dwell { milliseconds } => {
                    self.block = Block::Move;
                    self.schedule(
                        now + SimDuration::from_secs_f64(milliseconds.max(0.0) / 1000.0),
                        MOTION,
                    );
                    // A dwell is an empty move: its motion timer fires once,
                    // at the end, and completes it.
                    self.current_move = Some(MoveExec::new([0; 4], 0.0, 1.0, 1.0, now, 1.0));
                    return;
                }
                GCommand::Home { x, y, z } => {
                    if !(x || y || z) {
                        continue;
                    }
                    self.block = Block::Move;
                    self.start_homing(now, [x, y, z], sink);
                    return;
                }
                GCommand::AbsolutePositioning
                | GCommand::RelativePositioning
                | GCommand::AbsoluteExtrusion
                | GCommand::RelativeExtrusion => self.positioning.apply(&cmd),
                GCommand::SetPosition { x, y, z, e } => {
                    for (i, v) in [x, y, z, e].into_iter().enumerate() {
                        if let Some(v) = v {
                            self.origin_steps[i] =
                                self.pos_steps[i] as f64 - v * self.config.steps_per_mm[i];
                        }
                    }
                    self.positioning.apply(&cmd);
                }
                GCommand::SetHotendTemp { celsius, wait } => {
                    let current = self.read_temp(HeaterId::Hotend);
                    self.hotend.set_target(now, celsius, current);
                    if wait && celsius > 0.0 {
                        self.block = Block::WaitTemp(HeaterId::Hotend);
                        return;
                    }
                }
                GCommand::SetBedTemp { celsius, wait } => {
                    let current = self.read_temp(HeaterId::Bed);
                    self.bed.set_target(now, celsius, current);
                    if wait && celsius > 0.0 {
                        self.block = Block::WaitTemp(HeaterId::Bed);
                        return;
                    }
                }
                GCommand::FanOn { duty } => self.pwm_duty[Device::Fan.index()] = duty,
                GCommand::FanOff => self.pwm_duty[Device::Fan.index()] = 0,
                GCommand::EnableSteppers => {
                    for axis in Axis::ALL {
                        self.set_enable(axis, true, sink);
                    }
                }
                GCommand::DisableSteppers => {
                    for axis in Axis::ALL {
                        self.set_enable(axis, false, sink);
                    }
                }
                GCommand::Raw { .. } => {}
            }
        }
    }

    /// Computes and starts a motion segment. Returns `false` when the
    /// segment has no steps.
    fn begin_move(
        &mut self,
        now: Tick,
        words: [Option<f64>; 4],
        sink: &mut ActionSink<SignalEvent>,
    ) -> bool {
        let axis_mm = self.positioning.advance(words);
        let target = self.positioning.logical;
        let dist_xyz = (axis_mm[0].powi(2) + axis_mm[1].powi(2) + axis_mm[2].powi(2)).sqrt();
        let dist = if dist_xyz > 1e-9 {
            dist_xyz
        } else {
            axis_mm[3].abs()
        };

        let mut steps = [0i64; 4];
        for i in 0..4 {
            let target_steps =
                (self.origin_steps[i] + target[i] * self.config.steps_per_mm[i]).round() as i64;
            steps[i] = target_steps - self.pos_steps[i];
        }
        if steps.iter().all(|s| *s == 0) {
            return false;
        }

        let v_req = if self.feedrate_mm_s > 0.0 {
            self.feedrate_mm_s
        } else {
            self.config.default_feedrate_mm_s
        };
        let v = cap_feedrate(dist, axis_mm, v_req, self.config.max_speed_mm_s).max(0.1);

        self.launch_move(now, steps, dist.max(1e-6), v, sink);
        true
    }

    /// Low-level move launch shared by program moves and homing.
    fn launch_move(
        &mut self,
        now: Tick,
        steps: [i64; 4],
        dist_mm: f64,
        v_mm_s: f64,
        sink: &mut ActionSink<SignalEvent>,
    ) {
        // Auto-enable drivers for moving axes (Marlin behaviour).
        for axis in Axis::ALL {
            if steps[axis.index()] != 0 {
                self.set_enable(axis, true, sink);
            }
        }
        // DIR setup.
        let mut dir_changed = false;
        for axis in Axis::ALL {
            let i = axis.index();
            if steps[i] == 0 {
                continue;
            }
            let level = Level::from(steps[i] > 0);
            if self.dir_emitted[i] != Some(level) {
                self.dir_emitted[i] = Some(level);
                sink.send(PORT_CTRL, SignalEvent::logic(axis.dir_pin(), level));
                dir_changed = true;
            }
        }
        let start = now
            + SimDuration::from_micros(if dir_changed {
                self.config.dir_setup_us
            } else {
                0
            });
        let jitter = self.next_jitter();
        let exec = MoveExec::new(
            steps,
            dist_mm,
            v_mm_s,
            self.config.acceleration_mm_s2,
            start,
            jitter,
        );
        self.schedule(exec.peek_tick().unwrap_or_else(|| exec.end_tick()), MOTION);
        self.current_move = Some(exec);
    }

    fn next_jitter(&mut self) -> f64 {
        let sigma = self.config.jitter_sigma;
        if sigma <= 0.0 {
            return 1.0;
        }
        let g = self
            .jitter_rng
            .gaussian(sigma)
            .clamp(-3.0 * sigma, 3.0 * sigma);
        (1.0 + g).max(0.5)
    }

    /// The live move's timer: emits its next step pulse, or completes
    /// the move once the steps have run out.
    fn motion_timer(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        let exec = self
            .current_move
            .as_mut()
            .expect("the motion timer is armed only for a live move");
        let Some((tick, mask)) = exec.next_step() else {
            self.current_move = None;
            self.move_completed(now, sink);
            return;
        };
        // The timer was armed for exactly this step's tick.
        debug_assert!(tick <= now, "step timer fired before its tick");
        let directions = exec.directions;
        let next = exec.peek_tick().unwrap_or_else(|| exec.end_tick().max(now));
        for axis in Axis::ALL {
            let i = axis.index();
            if mask[i] {
                sink.send(PORT_CTRL, SignalEvent::logic(axis.step_pin(), Level::High));
                self.pos_steps[i] += i64::from(directions[i]);
            }
        }
        self.step_low_mask = mask;
        self.schedule(
            now + SimDuration::from_micros(self.config.step_pulse_us),
            STEP_LOW,
        );
        self.schedule(next, MOTION);
    }

    fn move_completed(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        match self.context {
            ExecContext::Program => {
                self.block = Block::None;
                self.schedule(now, ADVANCE);
            }
            ExecContext::Homing(h) => match h.phase {
                HomingPhase::Backoff => self.homing_begin_rebump(now, h.current, sink),
                HomingPhase::FastApproach | HomingPhase::SlowApproach => {
                    // Ran the whole travel without touching the switch.
                    self.kill(FirmwareError::EndstopNotFound(h.current), sink);
                }
            },
        }
    }

    // ------------------------------------------------------------------
    // Homing
    // ------------------------------------------------------------------

    fn start_homing(
        &mut self,
        now: Tick,
        mut pending: [bool; 3],
        sink: &mut ActionSink<SignalEvent>,
    ) {
        let Some(i) = pending.iter().position(|&p| p) else {
            // All axes done.
            self.homed = true;
            self.block = Block::None;
            self.context = ExecContext::Program;
            self.schedule(now, ADVANCE);
            return;
        };
        pending[i] = false;
        let axis = Axis::MOTION[i];
        self.context = ExecContext::Homing(HomingState {
            pending,
            current: axis,
            phase: HomingPhase::FastApproach,
        });
        if self.endstop_high[i] {
            // Already pressed: skip straight to back-off.
            self.homing_begin_backoff(now, axis, sink);
        } else {
            self.homing_begin_approach(now, axis, self.config.homing_speed_mm_s, sink);
        }
    }

    fn homing_begin_approach(
        &mut self,
        now: Tick,
        axis: Axis,
        speed: f64,
        sink: &mut ActionSink<SignalEvent>,
    ) {
        let i = axis.index();
        let travel = self.config.homing_max_travel_mm;
        let steps_count = (travel * self.config.steps_per_mm[i]).round() as i64;
        let mut steps = [0i64; 4];
        steps[i] = -steps_count;
        self.launch_move(now, steps, travel, speed, sink);
    }

    fn homing_begin_backoff(&mut self, now: Tick, axis: Axis, sink: &mut ActionSink<SignalEvent>) {
        if let ExecContext::Homing(h) = &mut self.context {
            h.phase = HomingPhase::Backoff;
        }
        let i = axis.index();
        let d = self.config.homing_backoff_mm;
        let mut steps = [0i64; 4];
        steps[i] = (d * self.config.steps_per_mm[i]).round() as i64;
        let speed = self.config.homing_speed_mm_s / 2.0;
        self.launch_move(now, steps, d, speed, sink);
    }

    fn homing_begin_rebump(&mut self, now: Tick, axis: Axis, sink: &mut ActionSink<SignalEvent>) {
        if let ExecContext::Homing(h) = &mut self.context {
            h.phase = HomingPhase::SlowApproach;
        }
        let i = axis.index();
        let d = self.config.homing_backoff_mm * 2.0;
        let mut steps = [0i64; 4];
        steps[i] = -((d * self.config.steps_per_mm[i]).round() as i64);
        self.launch_move(now, steps, d, self.config.homing_bump_speed_mm_s, sink);
    }

    /// Endstop rising edge observed.
    fn on_endstop_hit(&mut self, now: Tick, axis: Axis, sink: &mut ActionSink<SignalEvent>) {
        let ExecContext::Homing(h) = self.context else {
            return; // endstop chatter outside homing is ignored
        };
        if h.current != axis {
            return;
        }
        match h.phase {
            HomingPhase::FastApproach => {
                self.abort_move();
                self.homing_begin_backoff(now, axis, sink);
            }
            HomingPhase::SlowApproach => {
                self.abort_move();
                self.zero_axis(axis);
                self.start_homing(now, h.pending, sink);
            }
            HomingPhase::Backoff => {}
        }
    }

    /// Drops the live move. Its pending timer moves to a free stale
    /// slot: the firmware still wakes at that tick, and does nothing.
    ///
    /// Homing aborts at most twice between back-offs: an axis's re-bump
    /// and the next axis's fast approach, whose first step may trip a
    /// switch it starts one microstep above. An aborted step is due
    /// within one step interval, before the next back-off ends.
    fn abort_move(&mut self) {
        self.current_move = None;
        let key = std::mem::replace(&mut self.timers[MOTION], UNARMED);
        if key != UNARMED {
            let slot = (STALE..STEP_LOW)
                .find(|&s| self.timers[s] == UNARMED)
                .expect("at most two aborted moves pending");
            // Same tick and sequence number: the key keeps its rank.
            let moved = key & !SLOT_BITS | slot as u128;
            self.timers[slot] = moved;
            if self.next_key == key {
                self.next_key = moved;
            }
        }
    }

    fn zero_axis(&mut self, axis: Axis) {
        let i = axis.index();
        self.pos_steps[i] = 0;
        self.origin_steps[i] = 0.0;
        self.positioning.logical[i] = 0.0;
    }

    // ------------------------------------------------------------------
    // Heaters, fan, PWM
    // ------------------------------------------------------------------

    fn read_temp(&self, heater: HeaterId) -> f64 {
        match heater {
            HeaterId::Hotend => self.adc_counts[0]
                .map(|c| self.hotend_table.counts_to_celsius(c))
                .unwrap_or(25.0),
            HeaterId::Bed => self.adc_counts[1]
                .map(|c| self.bed_table.counts_to_celsius(c))
                .unwrap_or(25.0),
        }
    }

    fn temp_loop(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        // Run the two control loops if we have ADC data.
        let mut fault = None;
        if self.adc_counts[0].is_some() {
            let t = self.read_temp(HeaterId::Hotend);
            match self.hotend.update(now, t) {
                Ok(duty) => self.pwm_duty[Device::Hotend.index()] = duty,
                Err(e) => fault = Some(e),
            }
        }
        if fault.is_none() && self.adc_counts[1].is_some() {
            let t = self.read_temp(HeaterId::Bed);
            match self.bed.update(now, t) {
                Ok(duty) => self.pwm_duty[Device::Bed.index()] = duty,
                Err(e) => fault = Some(e),
            }
        }
        if let Some(e) = fault {
            self.kill(e, sink);
            return;
        }
        // Release M109/M190 waits.
        if let Block::WaitTemp(h) = self.block {
            let reached = match h {
                HeaterId::Hotend => self.hotend.reached(),
                HeaterId::Bed => self.bed.reached(),
            };
            if reached {
                self.block = Block::None;
                self.schedule(now, ADVANCE);
            }
        }
        // Marlin keeps regulating and protecting after the print ends
        // (until a kill); the harness's drain window bounds the run.
        self.schedule(
            now + SimDuration::from_millis(self.config.temp_loop_ms),
            TEMP_LOOP,
        );
    }

    fn pwm_period(&mut self, now: Tick, device: Device, sink: &mut ActionSink<SignalEvent>) {
        let duty = self.pwm_duty[device.index()];
        let period = SimDuration::from_millis(self.config.pwm_period_ms);
        match duty {
            0 => self.set_gate(device, Level::Low, sink),
            255 => self.set_gate(device, Level::High, sink),
            d => {
                self.set_gate(device, Level::High, sink);
                let high = period.mul_f64(f64::from(d) / 255.0);
                self.schedule(now + high, PWM_OFF + device.index());
            }
        }
        self.schedule(now + period, PWM_PERIOD + device.index());
    }

    fn set_gate(&mut self, device: Device, level: Level, sink: &mut ActionSink<SignalEvent>) {
        if self.gate_emitted[device.index()] != Some(level) {
            self.gate_emitted[device.index()] = Some(level);
            sink.send(PORT_CTRL, SignalEvent::logic(device.pin(), level));
        }
    }

    fn set_enable(&mut self, axis: Axis, enabled: bool, sink: &mut ActionSink<SignalEvent>) {
        let level = if enabled { Level::Low } else { Level::High };
        let i = axis.index();
        if self.en_emitted[i] != Some(level) {
            self.en_emitted[i] = Some(level);
            sink.send(PORT_CTRL, SignalEvent::logic(axis.enable_pin(), level));
        }
    }

    fn emit_status(&mut self, sink: &mut ActionSink<SignalEvent>) {
        let line = format!(
            "T:{:.1} B:{:.1} X:{:.2} Y:{:.2} Z:{:.2}\n",
            self.read_temp(HeaterId::Hotend),
            self.read_temp(HeaterId::Bed),
            self.positioning.logical[0],
            self.positioning.logical[1],
            self.positioning.logical[2],
        );
        for byte in line.bytes() {
            sink.send(
                PORT_CTRL,
                SignalEvent::Uart {
                    direction: UartDirection::ControllerToDisplay,
                    byte,
                },
            );
        }
    }

    /// Marlin `kill()`: heaters off, steppers disabled, machine halted.
    fn kill(&mut self, error: FirmwareError, sink: &mut ActionSink<SignalEvent>) {
        for d in Device::ALL {
            self.pwm_duty[d.index()] = 0;
            self.set_gate(d, Level::Low, sink);
        }
        for axis in Axis::ALL {
            self.set_enable(axis, false, sink);
        }
        self.current_move = None;
        self.timers = [UNARMED; TIMERS];
        self.next_key = UNARMED;
        // Endstop edges after the kill must not resume homing.
        self.context = ExecContext::Program;
        self.state = FwState::Halted(error);
    }
}

impl SimComponent for Firmware {
    type Payload = SignalEvent;

    fn start(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        Firmware::start(self, now, sink);
    }

    fn on_event(
        &mut self,
        now: Tick,
        _port: InPort,
        payload: SignalEvent,
        sink: &mut ActionSink<SignalEvent>,
    ) {
        self.on_feedback(now, payload, sink);
    }

    fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<SignalEvent>) {
        Firmware::on_tick(self, now, sink);
    }
}

/// Maps an analog channel to its slot in `adc_counts`.
fn adc_index(channel: AnalogChannel) -> usize {
    match channel {
        AnalogChannel::HotendTherm => 0,
        AnalogChannel::BedTherm => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_des::SinkAction;
    use offramps_gcode::parse;

    fn fw(src: &str) -> Firmware {
        Firmware::new(
            FirmwareConfig::deterministic(),
            Arc::new(parse(src).unwrap()),
            42,
        )
        .expect("valid config")
    }

    /// Drains `sink`, appending emitted events to `events` and returning
    /// the earliest requested wake time, if any.
    fn drain(
        sink: &mut ActionSink<SignalEvent>,
        events: &mut Vec<(Tick, SignalEvent)>,
    ) -> Option<Tick> {
        let mut next_wake: Option<Tick> = None;
        for a in sink.drain() {
            match a {
                SinkAction::Send { at, payload, .. } => events.push((at, payload)),
                SinkAction::WakeAt(t) => next_wake = Some(next_wake.map_or(t, |w: Tick| w.min(t))),
            }
        }
        next_wake
    }

    /// Runs the firmware open-loop (no plant): feeds wake-ups until it
    /// finishes, collecting all emitted events. Panics after too many
    /// iterations (a stuck machine).
    pub(crate) fn run_open_loop(fw: &mut Firmware) -> Vec<(Tick, SignalEvent)> {
        let mut events = Vec::new();
        let mut sink = ActionSink::new();
        sink.begin(Tick::ZERO);
        fw.start(Tick::ZERO, &mut sink);
        let mut guard = 0u64;
        loop {
            let next_wake = drain(&mut sink, &mut events);
            match fw.state() {
                FwState::Running => {}
                _ => break,
            }
            let Some(t) = next_wake else { break };
            sink.begin(t);
            fw.on_tick(t, &mut sink);
            guard += 1;
            assert!(guard < 10_000_000, "firmware stuck");
        }
        events
    }

    fn count_rising(events: &[(Tick, SignalEvent)], pin: Pin) -> usize {
        let mut last = Level::Low;
        let mut n = 0;
        for (_, ev) in events {
            if let SignalEvent::Logic(l) = ev {
                if l.pin == pin {
                    if l.level == Level::High && last == Level::Low {
                        n += 1;
                    }
                    last = l.level;
                }
            }
        }
        n
    }

    #[test]
    fn simple_move_emits_exact_steps() {
        let mut f = fw("G90\nM83\nG1 X5 F600\n");
        let events = run_open_loop(&mut f);
        assert!(matches!(f.state(), FwState::Finished));
        // 5mm * 100 steps/mm = 500 rising edges on X_STEP.
        assert_eq!(count_rising(&events, Pin::XStep), 500);
        assert_eq!(f.step_counts()[0], 500);
    }

    #[test]
    fn relative_and_absolute_mix() {
        let mut f = fw("G90\nG1 X5 F600\nG91\nG1 X-2\nG90\nG1 X10\n");
        let _ = run_open_loop(&mut f);
        assert_eq!(f.step_counts()[0], 1000, "final logical X=10 -> 1000 steps");
        assert_eq!(f.positioning.logical[0], 10.0);
    }

    #[test]
    fn diagonal_move_steps_both_axes() {
        let mut f = fw("G90\nG1 X3 Y4 F1200\n");
        let events = run_open_loop(&mut f);
        assert_eq!(count_rising(&events, Pin::XStep), 300);
        assert_eq!(count_rising(&events, Pin::YStep), 400);
    }

    #[test]
    fn g92_rebases_extrusion() {
        let mut f = fw("G90\nM82\nG1 E2 F300\nG92 E0\nG1 E2 F300\n");
        let _ = run_open_loop(&mut f);
        // 2mm then re-zeroed then 2mm more: 4mm total * 280 = 1120 steps.
        assert_eq!(f.step_counts()[3], 1120);
    }

    #[test]
    fn dir_pin_reflects_sign() {
        let mut f = fw("G90\nG1 X5 F600\nG1 X2 F600\n");
        let events = run_open_loop(&mut f);
        let dirs: Vec<Level> = events
            .iter()
            .filter_map(|(_, e)| e.as_logic())
            .filter(|l| l.pin == Pin::XDir)
            .map(|l| l.level)
            .collect();
        assert_eq!(dirs, vec![Level::High, Level::Low]);
    }

    #[test]
    fn steppers_enabled_on_move_disabled_on_m84() {
        let mut f = fw("G90\nG1 X1 F600\nM84\n");
        let events = run_open_loop(&mut f);
        let en: Vec<Level> = events
            .iter()
            .filter_map(|(_, e)| e.as_logic())
            .filter(|l| l.pin == Pin::XEnable)
            .map(|l| l.level)
            .collect();
        assert_eq!(en, vec![Level::Low, Level::High]);
    }

    #[test]
    fn fan_pwm_duty() {
        let mut f = fw("M106 S128\nG4 P100\nM107\nG4 P50\n");
        let events = run_open_loop(&mut f);
        assert!(
            count_rising(&events, Pin::FanPwm) >= 3,
            "several PWM periods"
        );
    }

    #[test]
    fn dwell_blocks_then_finishes() {
        let mut f = fw("G4 P250\n");
        let _ = run_open_loop(&mut f);
        assert!(matches!(f.state(), FwState::Finished));
    }

    #[test]
    fn status_reports_on_uart() {
        let mut f = fw("G4 P2500\n");
        let events = run_open_loop(&mut f);
        let uart_bytes = events
            .iter()
            .filter(|(_, e)| matches!(e, SignalEvent::Uart { .. }))
            .count();
        assert!(
            uart_bytes > 30,
            "two status lines expected, got {uart_bytes}"
        );
    }

    #[test]
    fn m109_waits_for_adc_driven_temperature() {
        let mut f = fw("M109 S210\n");
        let mut sink = ActionSink::new();
        sink.begin(Tick::ZERO);
        f.start(Tick::ZERO, &mut sink);
        // Loop: respond to every wake; feed hot ADC counts after 1s.
        let hot_counts = {
            // ~210C on the Semitec table.
            let t_k = 210.0 + 273.15;
            let r = 100_000.0 * (4267.0_f64 * (1.0 / t_k - 1.0 / 298.15)).exp();
            (r / (r + 4_700.0) * 1023.0).round() as u16
        };
        let cold_counts = 1000u16;
        let mut now = Tick::ZERO;
        let mut guard = 0;
        let mut scratch = Vec::new();
        while matches!(f.state(), FwState::Running) && guard < 100_000 {
            guard += 1;
            let wake = drain(&mut sink, &mut scratch);
            let Some(t) = wake else { break };
            now = t;
            // Feed ADC before each tick.
            let counts = if now < Tick::from_secs(1) {
                cold_counts
            } else {
                hot_counts
            };
            sink.begin(now);
            f.on_feedback(
                now,
                SignalEvent::Adc {
                    channel: AnalogChannel::HotendTherm,
                    counts,
                },
                &mut sink,
            );
            f.on_feedback(
                now,
                SignalEvent::Adc {
                    channel: AnalogChannel::BedTherm,
                    counts: 1000,
                },
                &mut sink,
            );
            f.on_tick(now, &mut sink);
        }
        assert!(
            matches!(f.state(), FwState::Finished),
            "M109 must complete once hot: {:?}",
            f.state()
        );
        assert!(now >= Tick::from_secs(1), "must not finish while cold");
    }

    #[test]
    fn heating_failure_kills_machine() {
        // M109 but the ADC always reads ambient: watchdog must kill.
        let mut f = fw("M109 S210\nG1 X5 F600\n");
        let mut sink = ActionSink::new();
        sink.begin(Tick::ZERO);
        f.start(Tick::ZERO, &mut sink);
        let mut guard = 0;
        let mut scratch = Vec::new();
        while matches!(f.state(), FwState::Running) && guard < 100_000 {
            guard += 1;
            let wake = drain(&mut sink, &mut scratch);
            let Some(t) = wake else { break };
            sink.begin(t);
            f.on_feedback(
                t,
                SignalEvent::Adc {
                    channel: AnalogChannel::HotendTherm,
                    counts: 1000,
                },
                &mut sink,
            );
            f.on_feedback(
                t,
                SignalEvent::Adc {
                    channel: AnalogChannel::BedTherm,
                    counts: 1000,
                },
                &mut sink,
            );
            f.on_tick(t, &mut sink);
        }
        assert!(
            matches!(
                f.state(),
                FwState::Halted(FirmwareError::HeatingFailed(HeaterId::Hotend))
            ),
            "got {:?}",
            f.state()
        );
        // No motion should have happened after the kill.
        assert_eq!(f.step_counts()[0], 0);
    }

    /// Presses and releases an endstop switch at `now`.
    fn tap(f: &mut Firmware, now: Tick, pin: Pin, sink: &mut ActionSink<SignalEvent>) {
        f.on_feedback(now, SignalEvent::logic(pin, Level::High), sink);
        f.on_feedback(now, SignalEvent::logic(pin, Level::Low), sink);
    }

    #[test]
    fn halted_firmware_ignores_endstop_edges() {
        let mut f = fw("G28 Z\n");
        let mut sink = ActionSink::new();
        sink.begin(Tick::ZERO);
        f.start(Tick::ZERO, &mut sink);
        let mut events = Vec::new();
        let mut now = Tick::ZERO;
        while !matches!(f.context, ExecContext::Homing(_)) {
            now = drain(&mut sink, &mut events).expect("the boot delay arms a timer");
            sink.begin(now);
            f.on_tick(now, &mut sink);
        }
        f.kill(FirmwareError::HeatingFailed(HeaterId::Hotend), &mut sink);
        drain(&mut sink, &mut events);
        sink.begin(now);
        f.on_feedback(now, SignalEvent::logic(Pin::ZMin, Level::High), &mut sink);
        let mut after = Vec::new();
        let wake = drain(&mut sink, &mut after);
        assert!(
            after.is_empty() && wake.is_none(),
            "halted firmware sent {after:?} and asked for a wake at {wake:?}"
        );
    }

    #[test]
    fn rehoming_one_step_above_the_z_switch_completes() {
        // After the first G28 every axis rests on its switch, and the G1
        // lifts Z one microstep. The second G28 aborts Y's re-bump; Z's
        // first fast-approach step then trips its switch while Y's aborted
        // step is still pending, so two aborted moves are pending at once.
        let mut f = fw("G28\nG1 Z0.0025\nG28\n");
        let mut sink = ActionSink::new();
        sink.begin(Tick::ZERO);
        f.start(Tick::ZERO, &mut sink);
        // A minimal plant: each axis starts 5 mm above its switch, which
        // reads pressed at or below zero.
        let mut pos = [500i64, 500, 2000];
        let mut dir_up = [false; 3];
        let mut pressed = [false; 3];
        let mut now = Tick::ZERO;
        while matches!(f.state(), FwState::Running) {
            let mut sent = Vec::new();
            let wake = drain(&mut sink, &mut sent);
            for (_, ev) in sent {
                let Some(l) = ev.as_logic() else { continue };
                for (i, axis) in Axis::MOTION.into_iter().enumerate() {
                    if l.pin == axis.dir_pin() {
                        dir_up[i] = l.level.is_high();
                    } else if l.pin == axis.step_pin() && l.level.is_high() {
                        pos[i] += if dir_up[i] { 1 } else { -1 };
                    }
                }
            }
            let edges: Vec<usize> = (0..3).filter(|&i| (pos[i] <= 0) != pressed[i]).collect();
            sink.begin(now);
            for &i in &edges {
                pressed[i] = !pressed[i];
                let pin = Axis::MOTION[i]
                    .min_endstop_pin()
                    .expect("motion axes have switches");
                f.on_feedback(
                    now,
                    SignalEvent::logic(pin, Level::from(pressed[i])),
                    &mut sink,
                );
            }
            if edges.is_empty() {
                now = wake.expect("a running firmware keeps a timer armed");
                sink.begin(now);
                f.on_tick(now, &mut sink);
            }
        }
        assert_eq!(f.state(), FwState::Finished);
        assert!(f.is_homed());
        assert_eq!(pos, [0, 0, 0]);
    }

    #[test]
    fn aborted_homing_step_still_wakes_and_emits_nothing() {
        let mut f = fw("G28 X\n");
        let mut sink = ActionSink::new();
        sink.begin(Tick::ZERO);
        f.start(Tick::ZERO, &mut sink);
        let mut events = Vec::new();
        let mut now = Tick::ZERO;
        while now < Tick::from_millis(500) {
            now = drain(&mut sink, &mut events).expect("homing keeps a timer armed");
            sink.begin(now);
            f.on_tick(now, &mut sink);
        }
        drain(&mut sink, &mut events);
        let aborted = f
            .current_move
            .as_ref()
            .and_then(MoveExec::peek_tick)
            .expect("the fast approach has a step pending");
        // The switch closes between two steps of the fast approach.
        sink.begin(now);
        tap(&mut f, now, Pin::XMin, &mut sink);
        let mut next = drain(&mut sink, &mut events);
        let mut woke = false;
        while let Some(t) = next.filter(|&t| t <= aborted) {
            sink.begin(t);
            f.on_tick(t, &mut sink);
            let mut sent = Vec::new();
            next = drain(&mut sink, &mut sent);
            if t == aborted {
                woke = true;
                assert!(sent.is_empty(), "the aborted step's wake sent {sent:?}");
            }
        }
        assert!(woke, "no wake at the aborted step's tick {aborted:?}");
    }

    #[test]
    fn feedrate_is_sticky() {
        let mut f = fw("G90\nG1 X1 F600\nG1 X2\n");
        let _ = run_open_loop(&mut f);
        assert!(matches!(f.state(), FwState::Finished));
    }

    #[test]
    fn unknown_commands_skipped() {
        let mut f = fw("M115\nM73 P10\nG1 X1 F600\n");
        let _ = run_open_loop(&mut f);
        assert!(matches!(f.state(), FwState::Finished));
        assert_eq!(f.step_counts()[0], 100);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use offramps_des::DetRng;
    use offramps_gcode::parse;

    /// For any sequence of absolute in-range moves, the firmware's
    /// final step counters equal the last target times steps/mm —
    /// no steps are ever lost or duplicated in open loop.
    #[test]
    fn step_count_equals_target_over_random_programs() {
        for seed in 0u64..24 {
            let mut rng = DetRng::from_seed(seed);
            let n = rng.uniform_u64(1, 6) as usize;
            let targets: Vec<(u32, u32)> = (0..n)
                .map(|_| {
                    (
                        rng.uniform_u64(0, 200) as u32,
                        rng.uniform_u64(0, 200) as u32,
                    )
                })
                .collect();
            let mut src = String::from("G90\nM83\n");
            for (x, y) in &targets {
                src.push_str(&format!(
                    "G1 X{} Y{} F6000\n",
                    *x as f64 / 10.0,
                    *y as f64 / 10.0
                ));
            }
            let mut fw = Firmware::new(
                crate::FirmwareConfig::deterministic(),
                std::sync::Arc::new(parse(&src).unwrap()),
                1,
            )
            .expect("valid config");
            let events = super::tests::run_open_loop(&mut fw);
            drop(events);
            let (lx, ly) = *targets.last().unwrap();
            assert_eq!(
                fw.step_counts()[0],
                (lx as f64 / 10.0 * 100.0).round() as i64,
                "seed {seed}"
            );
            assert_eq!(
                fw.step_counts()[1],
                (ly as f64 / 10.0 * 100.0).round() as i64,
                "seed {seed}"
            );
        }
    }
}
