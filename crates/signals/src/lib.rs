//! Wire-level model of the Arduino Mega ↔ RAMPS 1.4 interface.
//!
//! The OFFRAMPS board physically interposes on every signal between the
//! controller (Arduino Mega running Marlin) and the driver board
//! (RAMPS 1.4). This crate defines that signal vocabulary for the
//! simulation:
//!
//! * [`Pin`] — every digital line of the interface, with its real Arduino
//!   Mega pin number from the RAMPS 1.4 pin map,
//! * [`Level`], [`Edge`], [`LogicEvent`] — digital levels and transitions,
//! * [`SignalEvent`] — the full event vocabulary that flows between the
//!   firmware, the interceptor and the plant (logic edges, thermistor ADC
//!   samples, UART bytes),
//! * [`SignalTrace`] — a recording of events with logic-analyzer style
//!   queries (pulse counts, widths, frequencies) and VCD export,
//! * [`EdgeSink`] — the per-edge hook a trace, or a fold that keeps no
//!   trace, takes edges through as they are delivered,
//! * [`EdgeDetector`] — the edge-detection primitive the paper's FPGA
//!   modules are built from; it starts at the boards' reset levels.
//!
//! # Example
//!
//! ```
//! use offramps_signals::{Edge, EdgeDetector, Level, LogicEvent, Pin};
//!
//! let mut edges = EdgeDetector::new();
//! let step = LogicEvent::new(Pin::XStep, Level::High);
//! assert_eq!(edges.observe(step), Some(Edge::Rising));
//! assert_eq!(Pin::XStep.arduino_pin(), 54); // A0 on the Mega
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod edge;
mod event;
mod pin;
mod trace;
mod vcd;

pub use edge::EdgeDetector;
pub use event::{AnalogChannel, Edge, Level, LogicEvent, SignalEvent, UartDirection};
pub use pin::{Axis, Pin, PinClass, ALL_PINS, CONTROL_PINS, FEEDBACK_PINS};
pub use trace::{EdgeSink, PinStats, SignalTrace, TraceSummary};
pub use vcd::write_vcd;
