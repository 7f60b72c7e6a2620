//! Marlin-like 3D-printer firmware simulator.
//!
//! The paper's Arduino Mega runs Marlin: it "receives g-code generated by
//! a slicer … and sends signals to drive components on the connected 3D
//! printer", namely STEP/DIR/ENABLE for the four steppers, PWM for the
//! heaters and part fan, and UART for the display — while consuming
//! endstop switches and thermistor ADC readings, and enforcing safety
//! features "such as checks for thermal runaway".
//!
//! [`Firmware`] reproduces that controller at the signal level:
//!
//! * G-code dispatch over the [`offramps_gcode`] AST,
//! * trapezoidal velocity profiles with per-axis speed caps and
//!   multi-axis Bresenham step generation ([`motion`]),
//! * endstop-driven homing (fast approach, back-off, slow re-bump),
//! * PID hotend / hysteresis bed control through soft PWM, with Marlin's
//!   protection suite: heating-failed watchdog, thermal-runaway monitor,
//!   MINTEMP/MAXTEMP cutoffs ([`HeaterControl`]),
//! * deterministic per-move "time noise" (the print-to-print variation
//!   the paper's 5 % detection margin exists to absorb),
//! * periodic status reporting over the display UART,
//! * Marlin-style fixed timers — step, step-low, temperature loop,
//!   per-device PWM period and gate-off, status — held in one slot
//!   each and feeding the component's one kernel wake slot, with no
//!   private event queue.
//!
//! The firmware is a DES component: the harness feeds it wake-ups and
//! feedback events; it emits [`SignalEvent`]s that flow *through* the
//! OFFRAMPS interceptor to the plant.
//!
//! [`SignalEvent`]: offramps_signals::SignalEvent

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod heaters;
mod machine;
pub mod motion;
mod thermistor_table;

pub use config::FirmwareConfig;
pub use error::{ConfigError, FirmwareError, HeaterId};
pub use heaters::{HeaterControl, HeaterProtection};
pub use machine::{Firmware, FwState, PORT_CTRL, PORT_FEEDBACK};
pub use thermistor_table::ThermistorTable;
