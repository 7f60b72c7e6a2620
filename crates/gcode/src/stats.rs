//! Geometric statistics over a G-code program.
//!
//! Detection in the paper compares a print against a "golden" reference
//! that "can come from simulation" (§VII). [`ProgramStats`] is the first
//! step of that simulation: it steps the program through the
//! [`Positioning`] model (the firmware's positioning modes and `G92`
//! re-zeroing) and yields the quantities the detector and the
//! experiments reason about.

use crate::ast::{GCommand, Program};
use crate::positioning::Positioning;

/// Two Z values closer than this count as the same layer (mm).
const LAYER_EPSILON: f64 = 1e-6;

/// Aggregate geometric statistics of a program.
///
/// # Example
///
/// ```
/// use offramps_gcode::{parse, ProgramStats};
/// let p = parse("G90\nM83\nG28\nG1 X10 Y0 E0.5 F1200\nG1 X10 Y10 E0.5\n")?;
/// let s = ProgramStats::analyze(&p);
/// assert_eq!(s.total_extruded_mm, 1.0);
/// assert_eq!(s.extrusion_path_mm, 20.0);
/// # Ok::<(), offramps_gcode::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramStats {
    /// Net filament pushed forward, mm (retracts subtract).
    pub net_extruded_mm: f64,
    /// Total forward filament, mm (retracts do not subtract).
    pub total_extruded_mm: f64,
    /// Total filament pulled back by retracts, mm.
    pub retracted_mm: f64,
    /// XY path length of extruding moves, mm.
    pub extrusion_path_mm: f64,
    /// XY path length of travel (non-extruding) moves, mm.
    pub travel_path_mm: f64,
    /// Number of motion commands.
    pub moves: usize,
    /// Number of extruding motion commands.
    pub extruding_moves: usize,
    /// Smallest visited X/Y/Z of extruding moves, mm.
    pub min_corner: [f64; 3],
    /// Largest visited X/Y/Z of extruding moves, mm.
    pub max_corner: [f64; 3],
    /// Distinct Z heights at which extrusion occurred, ascending.
    pub layers: Vec<f64>,
    /// Total commanded dwell time, milliseconds.
    pub dwell_ms: f64,
    /// Highest commanded hotend target, °C.
    pub max_hotend_target: f64,
    /// Highest commanded bed target, °C.
    pub max_bed_target: f64,
}

impl ProgramStats {
    /// Analyzes `program`.
    pub fn analyze(program: &Program) -> Self {
        let mut pos = Positioning::default();
        let mut out = ProgramStats {
            net_extruded_mm: 0.0,
            total_extruded_mm: 0.0,
            retracted_mm: 0.0,
            extrusion_path_mm: 0.0,
            travel_path_mm: 0.0,
            moves: 0,
            extruding_moves: 0,
            min_corner: [f64::INFINITY; 3],
            max_corner: [f64::NEG_INFINITY; 3],
            layers: Vec::new(),
            dwell_ms: 0.0,
            max_hotend_target: 0.0,
            max_bed_target: 0.0,
        };
        for cmd in program.commands() {
            match cmd {
                GCommand::Move { x, y, z, e, .. } => {
                    let [dx, dy, _, de] = pos.advance([*x, *y, *z, *e]);
                    let xy = (dx * dx + dy * dy).sqrt();
                    out.moves += 1;
                    if de > 0.0 {
                        out.extruding_moves += 1;
                        out.total_extruded_mm += de;
                        out.extrusion_path_mm += xy;
                        let corners = out.min_corner.iter_mut().zip(&mut out.max_corner);
                        for ((lo, hi), v) in corners.zip(pos.logical) {
                            *lo = lo.min(v);
                            *hi = hi.max(v);
                        }
                        let z_now = pos.logical[2];
                        if !out
                            .layers
                            .iter()
                            .any(|l| (l - z_now).abs() <= LAYER_EPSILON)
                        {
                            out.layers.push(z_now);
                        }
                    } else {
                        out.travel_path_mm += xy;
                        if de < 0.0 {
                            out.retracted_mm += -de;
                        }
                    }
                    out.net_extruded_mm += de;
                }
                GCommand::Dwell { milliseconds } => out.dwell_ms += milliseconds,
                GCommand::SetHotendTemp { celsius, .. } => {
                    out.max_hotend_target = out.max_hotend_target.max(*celsius);
                }
                GCommand::SetBedTemp { celsius, .. } => {
                    out.max_bed_target = out.max_bed_target.max(*celsius);
                }
                other => pos.apply(other),
            }
        }
        out.layers
            .sort_by(|a, b| a.partial_cmp(b).expect("layer z is never NaN"));
        out
    }

    /// Number of distinct extruded layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn stats(src: &str) -> ProgramStats {
        ProgramStats::analyze(&parse(src).unwrap())
    }

    #[test]
    fn absolute_extrusion_accumulates() {
        let s = stats("G90\nM82\nG1 X10 E1\nG1 X20 E3\n");
        assert_eq!(s.total_extruded_mm, 3.0);
        assert_eq!(s.net_extruded_mm, 3.0);
        assert_eq!(s.extruding_moves, 2);
        assert_eq!(s.extrusion_path_mm, 20.0);
    }

    #[test]
    fn relative_extrusion_and_retract() {
        let s = stats("G90\nM83\nG1 X10 E2\nG1 E-0.8\nG1 X0 E2.8\n");
        assert!((s.total_extruded_mm - 4.8).abs() < 1e-12);
        assert!((s.retracted_mm - 0.8).abs() < 1e-12);
        assert!((s.net_extruded_mm - 4.0).abs() < 1e-12);
    }

    #[test]
    fn g92_rezeroing() {
        let s = stats("G90\nM82\nG1 X10 E5\nG92 E0\nG1 X20 E5\n");
        assert_eq!(s.total_extruded_mm, 10.0);
    }

    #[test]
    fn relative_positioning_path() {
        let s = stats("G91\nM83\nG1 X3 Y4 E0.1\nG1 X3 Y4 E0.1\n");
        assert_eq!(s.extrusion_path_mm, 10.0);
        assert_eq!(s.max_corner[0], 6.0);
    }

    #[test]
    fn travel_vs_extrusion_split() {
        let s = stats("G90\nM83\nG0 X10\nG1 X20 E0.5\nG0 Y10\n");
        assert_eq!(s.travel_path_mm, 20.0);
        assert_eq!(s.extrusion_path_mm, 10.0);
        assert_eq!(s.moves, 3);
    }

    #[test]
    fn layers_detected() {
        let s = stats("G90\nM83\nG1 Z0.2\nG1 X10 E1\nG1 Z0.4\nG1 X0 E1\nG1 Z0.4\nG1 Y5 E0.5\n");
        assert_eq!(s.layer_count(), 2);
        assert_eq!(s.layers, vec![0.2, 0.4]);
    }

    #[test]
    fn homing_resets_position() {
        let s = stats("G90\nM83\nG1 X10 Y10\nG28\nG1 X3 Y4 E0.1\n");
        // After home, the extruding move runs 0,0 -> 3,4 = 5mm.
        assert_eq!(s.extrusion_path_mm, 5.0);
    }

    #[test]
    fn temperature_targets_tracked() {
        let s = stats("M140 S60\nM109 S215\nM104 S0\n");
        assert_eq!(s.max_hotend_target, 215.0);
        assert_eq!(s.max_bed_target, 60.0);
    }

    #[test]
    fn dwell_accumulates() {
        let s = stats("G4 P250\nG4 S1\n");
        assert_eq!(s.dwell_ms, 1250.0);
    }
}
