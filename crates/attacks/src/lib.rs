//! Pre-firmware attack emulation.
//!
//! The paper's detection evaluation (§V-D, Table II) re-creates the
//! Flaw3D \[14\] bootloader Trojans "using a Python script which modifies
//! given g-code in the same way the malicious bootloader does". This
//! crate is that script: [`flaw3d`] — extrusion **reduction** (factor
//! 0.5 / 0.85 / 0.9 / 0.98) and filament **relocation** (every 5 / 10 /
//! 20 / 100 moves).
//!
//! The transformers rewrite E words under the program's own positioning
//! modes, stepping through [`offramps_gcode::Positioning`] (whose docs
//! state the `G90`/`G91`/`M82`/`M83`/`G92` rules) exactly as the
//! firmware does. They are pure `Program → Program` functions: apply them
//! to sliced G-code and print the result through a bypass-configured
//! OFFRAMPS to emulate an upstream (pre-firmware) compromise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flaw3d;

pub use flaw3d::{Flaw3dTrojan, TABLE_II_CASES};
