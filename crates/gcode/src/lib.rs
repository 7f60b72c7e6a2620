//! G-code toolchain for the OFFRAMPS reproduction.
//!
//! Additive-manufacturing control flows from a slicer, through G-code,
//! into the printer firmware (paper Figure 1). This crate provides that
//! front half of the pipeline:
//!
//! * [`parse`] / [`Program`] — a Marlin-dialect G-code parser producing a
//!   typed AST ([`GCommand`]) that round-trips through [`Program::to_gcode`],
//! * [`Positioning`] — the positioning model (`G90`/`G91`/`M82`/`M83`/
//!   `G92`/`G28`) that the firmware, the statistics pass and the attack
//!   transformers step through; its module docs state the rules,
//! * [`ProgramStats`] — geometric statistics (extruded filament, path
//!   lengths, bounding box, layers) used to build golden references,
//! * [`slicer`] — a small slicer that turns solids (calibration cube,
//!   prisms, cylinders, vases) into realistic multi-layer toolpaths, the
//!   workloads every experiment in the paper prints.
//!
//! # Example
//!
//! ```
//! use offramps_gcode::{parse, GCommand};
//!
//! let program = parse("G28 ; home\nG1 X10 Y5 E0.4 F1200\n")?;
//! assert_eq!(program.commands().len(), 2);
//! assert!(matches!(program.commands()[0], GCommand::Home { .. }));
//! # Ok::<(), offramps_gcode::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod parser;
mod positioning;
pub mod slicer;
pub mod spec;
mod stats;
mod writer;

pub use ast::{GCommand, Program};
pub use parser::{parse, parse_line, ParseError};
pub use positioning::Positioning;
pub use spec::WorkloadSpec;
pub use stats::ProgramStats;
pub use writer::snap5;
