//! RAMPS 1.4 driver board and printer physical plant.
//!
//! In the paper's setup the RAMPS board "controls the actuator functions
//! of the printer directly with stepper motor drivers, fan control
//! circuitry, and heating element circuitry — all driven by the
//! aforementioned signals sent from the Arduino. In turn this board sends
//! back signals for the endstops of the axes and the thermistors".
//!
//! This crate simulates that whole downstream half:
//!
//! * [`A4988Driver`] — the stepper driver modules shipped with RAMPS
//!   (microstepping, active-low enable, minimum pulse width),
//! * [`AxisMechanism`] — carriage kinematics, travel limits and the
//!   mechanical MIN endstops,
//! * [`HeaterPlant`] / [`Thermistor`] — lumped-RC heater thermodynamics
//!   with NTC thermistor read-out through a 10-bit ADC divider,
//! * [`FanPlant`] — part-cooling fan response to PWM,
//! * [`DepositionModel`] / [`PartModel`] — where plastic actually lands,
//!   layer by layer, so Trojan effects become measurable geometry,
//! * [`PrinterPlant`] — the composite component wired into the
//!   co-simulation, consuming control [`SignalEvent`]s, producing
//!   endstop/thermistor feedback and recording the true heater
//!   temperatures at every thermistor sample,
//! * [`quality`] — part-quality comparison against a golden print
//!   (the in-simulation stand-in for the paper's part photographs).
//!
//! [`SignalEvent`]: offramps_signals::SignalEvent

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod deposition;
mod driver;
mod fan;
mod mechanism;
mod plant;
pub mod quality;
mod thermal;

pub use config::{AxisConfig, PlantConfig, ThermalConfig};
pub use deposition::{DepositionModel, LayerSummary, PartModel, Segment};
pub use driver::A4988Driver;
pub use fan::FanPlant;
pub use mechanism::AxisMechanism;
pub use plant::{PlantStatus, PrinterPlant, PORT_CTRL, PORT_FEEDBACK};
pub use thermal::{HeaterPlant, Thermistor};
