//! Full-loop co-simulation harness.
//!
//! [`TestBench`] wires the three components of the paper's test
//! environment — Marlin-like firmware, the OFFRAMPS interceptor, and the
//! RAMPS/printer plant — onto one deterministic [`Scheduler`] and runs a
//! G-code program to completion, returning everything an experiment
//! needs: the capture, the deposited part, firmware status, plant
//! damage indicators, and (optionally) the raw signal trace.
//!
//! The bench itself is a thin composition: all queueing, wake-slot
//! deduplication and routing lives in [`offramps_des::Scheduler`]; the
//! components speak the uniform [`SimComponent`] interface. Programs are
//! passed as [`Arc<Program>`] so fanning one job across a whole campaign
//! of scenarios never copies the command list.

use std::fmt;
use std::sync::Arc;

use offramps_des::{
    CompId, ComponentSet, KernelStats, Scheduler, SimComponent, SimDuration, StepKind, Tick,
};
use offramps_firmware::{Firmware, FirmwareConfig, FwState};
use offramps_gcode::Program;
use offramps_printer::{PartModel, PlantConfig, PlantStatus, PrinterPlant};
use offramps_signals::{SignalEvent, SignalTrace};

use crate::capture::Capture;
use crate::config::{MitmConfig, SignalPath};
use crate::mitm::Offramps;
use crate::trojans::Trojan;

/// Errors from a bench run.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// The simulation exceeded the wall-time limit while the firmware
    /// was still running.
    SimTimeLimit {
        /// The limit that was hit.
        limit: SimDuration,
    },
    /// The event queue drained while the firmware still reported
    /// `Running` — a deadlock in the co-simulation.
    Stalled {
        /// Simulated time at the stall.
        at: Tick,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::SimTimeLimit { limit } => {
                write!(f, "simulation exceeded the {limit} time limit")
            }
            BenchError::Stalled { at } => {
                write!(f, "co-simulation stalled at {at} with the firmware running")
            }
        }
    }
}

impl std::error::Error for BenchError {}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunArtifacts {
    /// Final firmware state.
    pub fw_state: FwState,
    /// The monitor's capture (present when the capture path was active).
    pub capture: Option<Capture>,
    /// The deposited part.
    pub part: PartModel,
    /// Final plant status (positions, temperatures, damage counters).
    pub plant: PlantStatus,
    /// Raw control/feedback signal trace as seen at the *controller*
    /// side of the interceptor (present when tracing enabled).
    pub trace: Option<SignalTrace>,
    /// Control signals the plant actually received — the driver-board
    /// rail, downstream of any Trojan modification (present when
    /// [`TestBench::record_plant_trace`] was enabled). This is the tap
    /// point of a physical power side-channel sensor.
    pub plant_trace: Option<SignalTrace>,
    /// Simulated duration of the job.
    pub sim_time: Tick,
    /// Total events processed.
    pub events: u64,
    /// Kernel hot-path counters for the run (wake-slot dedups, spill
    /// hits) — the observability plane's per-run rollup;
    /// `kernel.events` equals `events`.
    pub kernel: KernelStats,
    /// `(time, hotend °C, bed °C)` sampled at the ADC period.
    pub temps: Vec<(Tick, f64, f64)>,
    /// Firmware step counters at the end, [`offramps_signals::Axis::ALL`]
    /// order.
    pub fw_steps: [i64; 4],
}

/// Builder/harness for one co-simulated print job.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use offramps::{TestBench, SignalPath};
/// use offramps_gcode::parse;
///
/// let program = Arc::new(parse("G28\nG1 X5 Y5 F3000\nM84\n")?);
/// let run = TestBench::new(7).run(&program)?;
/// assert!(matches!(run.fw_state, offramps_firmware::FwState::Finished));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TestBench {
    firmware_config: FirmwareConfig,
    plant_config: PlantConfig,
    mitm_config: MitmConfig,
    trojans: Vec<Box<dyn Trojan>>,
    seed: u64,
    record_trace: bool,
    record_plant_trace: bool,
    max_sim_time: SimDuration,
    drain_time: SimDuration,
}

/// The three components of the loop, presented to the scheduler in a
/// fixed registration order.
struct Rig {
    fw: Firmware,
    mitm: Offramps,
    plant: PrinterPlant,
}

/// Registration order inside [`Rig`].
const FW: usize = 0;
const MITM: usize = 1;
const PLANT: usize = 2;

impl ComponentSet<SignalEvent> for Rig {
    fn len(&self) -> usize {
        3
    }

    fn component(&mut self, id: CompId) -> &mut dyn SimComponent<Payload = SignalEvent> {
        match id.index() {
            FW => &mut self.fw,
            MITM => &mut self.mitm,
            PLANT => &mut self.plant,
            other => panic!("the bench has no component {other}"),
        }
    }
}

impl TestBench {
    /// Creates a bench with default configs and the given master seed
    /// (drives firmware time-noise, plant ADC noise and Trojan
    /// randomness).
    pub fn new(seed: u64) -> Self {
        TestBench {
            firmware_config: FirmwareConfig::default(),
            plant_config: PlantConfig::default(),
            mitm_config: MitmConfig::default(),
            trojans: Vec::new(),
            seed,
            record_trace: false,
            record_plant_trace: false,
            max_sim_time: SimDuration::from_secs(4 * 3600),
            drain_time: SimDuration::from_secs(1),
        }
    }

    /// Overrides the firmware configuration.
    pub fn firmware_config(mut self, config: FirmwareConfig) -> Self {
        self.firmware_config = config;
        self
    }

    /// Overrides the plant configuration.
    pub fn plant_config(mut self, config: PlantConfig) -> Self {
        self.plant_config = config;
        self
    }

    /// Selects the interceptor's signal path (Figure 3).
    pub fn signal_path(mut self, path: SignalPath) -> Self {
        self.mitm_config.path = path;
        self
    }

    /// Overrides the whole interceptor configuration.
    pub fn mitm_config(mut self, config: MitmConfig) -> Self {
        self.mitm_config = config;
        self
    }

    /// Arms a Trojan and switches the path to include modification.
    pub fn with_trojan(mut self, trojan: Box<dyn Trojan>) -> Self {
        self.mitm_config.path.modify = true;
        self.trojans.push(trojan);
        self
    }

    /// Enables raw signal tracing (slows large prints; great for VCD
    /// export and overhead analysis).
    pub fn record_trace(mut self, enable: bool) -> Self {
        self.record_trace = enable;
        self
    }

    /// Enables plant-side signal tracing: the control events the driver
    /// board actually received, downstream of the interceptor's Trojan
    /// mux. Power side-channel synthesis uses this tap — a shunt sensor
    /// measures what the motors really drew, modifications included.
    pub fn record_plant_trace(mut self, enable: bool) -> Self {
        self.record_plant_trace = enable;
        self
    }

    /// Sets the simulated-time safety limit.
    pub fn max_sim_time(mut self, limit: SimDuration) -> Self {
        self.max_sim_time = limit;
        self
    }

    /// Sets how long the simulation keeps running after the firmware
    /// finishes or halts (default 1 s). Destructive-Trojan experiments
    /// lengthen this to watch the plant keep heating after the firmware
    /// killed itself (T7).
    pub fn drain_time(mut self, drain: SimDuration) -> Self {
        self.drain_time = drain;
        self
    }

    /// Wires the three components onto a fresh scheduler (paper
    /// Figure 3: every signal flows through the interceptor, both
    /// directions).
    fn wire() -> Scheduler<SignalEvent> {
        let mut sched = Scheduler::new();
        let fw = sched.add_component();
        let mitm = sched.add_component();
        let plant = sched.add_component();
        debug_assert_eq!((fw.index(), mitm.index(), plant.index()), (FW, MITM, PLANT));
        sched.connect(
            fw,
            offramps_firmware::PORT_CTRL,
            mitm,
            crate::mitm::PORT_CTRL_IN,
        );
        sched.connect(
            plant,
            offramps_printer::PORT_FEEDBACK,
            mitm,
            crate::mitm::PORT_FEEDBACK_IN,
        );
        sched.connect(
            mitm,
            crate::mitm::PORT_TO_PLANT,
            plant,
            offramps_printer::PORT_CTRL,
        );
        sched.connect(
            mitm,
            crate::mitm::PORT_TO_FIRMWARE,
            fw,
            offramps_firmware::PORT_FEEDBACK,
        );
        sched
    }

    /// Runs `program` to completion.
    ///
    /// # Errors
    ///
    /// [`BenchError::SimTimeLimit`] if the job exceeds the simulated time
    /// limit; [`BenchError::Stalled`] if the co-simulation deadlocks.
    pub fn run(self, program: &Arc<Program>) -> Result<RunArtifacts, BenchError> {
        let max_sim_time = self.max_sim_time;
        let drain_time = self.drain_time;
        let mut rig = self.build_rig(program);

        let mut sched = Self::wire();
        let mut temps: Vec<(Tick, f64, f64)> = Vec::new();
        let limit_tick = Tick::ZERO + max_sim_time;
        let mut stop_deadline: Option<Tick> = None;

        sched.start(&mut rig);

        while let Some(next) = sched.peek_tick() {
            if next > limit_tick {
                if matches!(rig.fw.state(), FwState::Running) {
                    return Err(BenchError::SimTimeLimit {
                        limit: max_sim_time,
                    });
                }
                break;
            }
            let step = sched.step(&mut rig).expect("peeked event exists");

            if step.comp.index() == PLANT && step.kind == StepKind::Wake {
                let s = rig.plant.status(step.tick);
                temps.push((step.tick, s.hotend_c, s.bed_c));
            }

            // Termination: once the firmware is done (or dead), drain for
            // a grace period so in-flight signals settle, then stop.
            if !matches!(rig.fw.state(), FwState::Running) {
                match stop_deadline {
                    None => stop_deadline = Some(step.tick + drain_time),
                    Some(deadline) if step.tick >= deadline => break,
                    Some(_) => {}
                }
            }
        }

        let now = sched.now();
        if matches!(rig.fw.state(), FwState::Running) && sched.is_empty() {
            return Err(BenchError::Stalled { at: now });
        }

        let plant_status = rig.plant.status(now);
        let plant_trace = rig.plant.take_trace();
        let (capture, trace) = rig.mitm.into_outputs();
        Ok(RunArtifacts {
            fw_state: rig.fw.state(),
            capture,
            part: rig.plant.into_part(),
            plant: plant_status,
            trace,
            plant_trace,
            sim_time: now,
            events: sched.events(),
            kernel: sched.stats(),
            temps,
            fw_steps: rig.fw.step_counts(),
        })
    }

    /// Consumes the builder into the component rig [`TestBench::run`]
    /// steps.
    fn build_rig(self, program: &Arc<Program>) -> Rig {
        let mut mitm = Offramps::new(self.mitm_config, self.seed);
        for trojan in self.trojans {
            mitm.add_trojan(trojan);
        }
        if self.record_trace {
            mitm.enable_trace();
        }
        let mut rig = Rig {
            fw: Firmware::new(self.firmware_config, Arc::clone(program), self.seed),
            mitm,
            plant: PrinterPlant::new(self.plant_config, self.seed),
        };
        if self.record_plant_trace {
            rig.plant.enable_trace();
        }
        rig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_gcode::parse;

    fn program(src: &str) -> Arc<Program> {
        Arc::new(parse(src).unwrap())
    }

    #[test]
    fn homing_and_motion_complete() {
        let run = TestBench::new(1)
            .run(&program("G28\nG90\nG1 X10 Y5 F3000\nM84\n"))
            .unwrap();
        assert!(matches!(run.fw_state, FwState::Finished));
        // Firmware thinks it is at (10, 5): 1000/500 steps.
        assert_eq!(run.fw_steps[0], 1000);
        assert_eq!(run.fw_steps[1], 500);
        // The physical carriage agrees (endstop trigger offset is ~0.1mm).
        assert!(
            (run.plant.positions_mm[0] - 10.0).abs() < 0.2,
            "{}",
            run.plant.positions_mm[0]
        );
        assert!((run.plant.positions_mm[1] - 5.0).abs() < 0.2);
    }

    #[test]
    fn capture_path_produces_transactions() {
        let run = TestBench::new(2)
            .signal_path(SignalPath::capture())
            .run(&program("G28\nG90\nG1 X20 F1200\nG1 X0 F1200\nM84\n"))
            .unwrap();
        let cap = run.capture.expect("capture path");
        assert!(
            cap.len() >= 5,
            "a couple of seconds of motion: {} txns",
            cap.len()
        );
        // X ends back at 0.
        assert_eq!(cap.final_counts().unwrap()[0], 0);
    }

    #[test]
    fn bypass_has_no_capture() {
        let run = TestBench::new(3).run(&program("G28\nM84\n")).unwrap();
        assert!(run.capture.is_none());
        assert!(run.trace.is_none());
    }

    #[test]
    fn trace_recording_works() {
        let run = TestBench::new(4)
            .record_trace(true)
            .run(&program("G28\nG1 X1 F600\nM84\n"))
            .unwrap();
        let trace = run.trace.expect("trace enabled");
        assert!(trace.len() > 100, "homing generates plenty of edges");
        assert!(run.plant_trace.is_none(), "plant tracing is separate");
    }

    #[test]
    fn plant_trace_sees_trojan_modifications_controller_trace_does_not() {
        // A flow-reduction Trojan masks half the E pulses downstream of
        // the controller tap: the controller-side trace keeps every
        // pulse, the plant-side trace loses the masked ones.
        let job = program("G28\nG90\nG92 E0\nG1 X10 E5 F1200\nM84\n");
        let clean = TestBench::new(9)
            .record_trace(true)
            .record_plant_trace(true)
            .run(&job)
            .unwrap();
        let attacked = TestBench::new(9)
            .record_trace(true)
            .record_plant_trace(true)
            .with_trojan(crate::trojans::by_name("t2").unwrap())
            .run(&job)
            .unwrap();
        let e_edges = |t: &SignalTrace| {
            t.entries()
                .iter()
                .filter(|e| e.event.pin == offramps_signals::Pin::EStep)
                .count()
        };
        let clean_plant = clean.plant_trace.expect("plant trace enabled");
        let attacked_plant = attacked.plant_trace.expect("plant trace enabled");
        assert_eq!(
            e_edges(&clean.trace.unwrap()),
            e_edges(attacked.trace.as_ref().unwrap()),
            "controller tap is upstream of the Trojan mux"
        );
        assert!(
            e_edges(&attacked_plant) < e_edges(&clean_plant),
            "plant tap must see the masked pulses disappear"
        );
    }

    #[test]
    fn heated_print_reaches_temperature() {
        let run = TestBench::new(5)
            .run(&program(
                "M140 S60\nM104 S210\nG28\nM190 S60\nM109 S210\nM104 S0\nM140 S0\nM84\n",
            ))
            .unwrap();
        assert!(matches!(run.fw_state, FwState::Finished));
        let max_hotend = run.temps.iter().map(|(_, h, _)| *h).fold(0.0, f64::max);
        assert!(max_hotend > 205.0, "hotend peaked at {max_hotend}");
    }

    #[test]
    fn sim_time_limit_enforced() {
        // A dwell longer than the limit.
        let err = TestBench::new(6)
            .max_sim_time(SimDuration::from_secs(2))
            .run(&program("G4 P10000\n"))
            .unwrap_err();
        assert!(matches!(err, BenchError::SimTimeLimit { .. }));
        assert!(err.to_string().contains("time limit"));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let job = program("G28\nG90\nG1 X8 Y3 F3000\nG1 X0 Y0 F3000\nM84\n");
        let a = TestBench::new(11)
            .signal_path(SignalPath::capture())
            .run(&job)
            .unwrap();
        let b = TestBench::new(11)
            .signal_path(SignalPath::capture())
            .run(&job)
            .unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.fw_steps, b.fw_steps);
        assert_eq!(
            a.capture.unwrap().transactions(),
            b.capture.unwrap().transactions()
        );
    }
}
