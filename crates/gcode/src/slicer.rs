//! A small slicer: solids → multi-layer G-code toolpaths.
//!
//! The paper slices its test parts with Ultimaker Cura and prints them on
//! a Prusa i3 MK3S+. A full slicer is out of scope, but the experiments
//! need realistic workloads: multi-layer prints with perimeters, infill,
//! travel moves, retraction, heating and fan control. This module slices
//! **convex** solids (boxes, cylinders/prisms) into exactly that command
//! vocabulary.
//!
//! # Example
//!
//! ```
//! use offramps_gcode::slicer::{SlicerConfig, Solid, slice};
//! use offramps_gcode::ProgramStats;
//!
//! let cfg = SlicerConfig::default();
//! let program = slice(&Solid::rect_prism(10.0, 10.0, 1.0), &cfg);
//! let stats = ProgramStats::analyze(&program);
//! assert!(stats.total_extruded_mm > 0.0);
//! assert_eq!(stats.layer_count(), 5); // 1.0mm at 0.2mm layers
//! ```

use crate::ast::{GCommand, Program};

/// How infill scanlines are oriented from layer to layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InfillPattern {
    /// Alternate the scan direction 90° every layer (the classic
    /// rectilinear grid; the default and the behaviour of every paper
    /// workload).
    #[default]
    Crosshatch,
    /// Keep every layer's scanlines parallel — weaker parts, but a
    /// distinct motion signature (long runs of same-axis moves).
    Aligned,
}

/// Slicing parameters (defaults match a common 0.4 mm-nozzle PLA profile).
#[derive(Debug, Clone, PartialEq)]
pub struct SlicerConfig {
    /// Layer height, mm.
    pub layer_height: f64,
    /// Extrusion width, mm (usually a bit wider than the nozzle).
    pub extrusion_width: f64,
    /// Filament diameter, mm.
    pub filament_diameter: f64,
    /// Number of perimeter loops per layer.
    pub perimeters: u32,
    /// Spacing between infill lines, mm (0 disables infill).
    pub infill_spacing: f64,
    /// Layer-to-layer infill orientation.
    pub infill_pattern: InfillPattern,
    /// Print-move speed, mm/s.
    pub print_speed: f64,
    /// First-layer print speed, mm/s.
    pub first_layer_speed: f64,
    /// Travel speed, mm/s.
    pub travel_speed: f64,
    /// Retraction length, mm (0 disables retraction).
    pub retract_len: f64,
    /// Retraction speed, mm/s.
    pub retract_speed: f64,
    /// Hotend temperature, °C.
    pub hotend_temp: f64,
    /// Bed temperature, °C.
    pub bed_temp: f64,
    /// Part-fan duty (0–255) from `fan_from_layer` onward.
    pub fan_duty: u8,
    /// First layer index (0-based) with the fan on.
    pub fan_from_layer: usize,
    /// Extrusion multiplier ("flow").
    pub flow: f64,
    /// Part centre on the bed, mm.
    pub center: (f64, f64),
}

impl Default for SlicerConfig {
    fn default() -> Self {
        SlicerConfig {
            layer_height: 0.2,
            extrusion_width: 0.45,
            filament_diameter: 1.75,
            perimeters: 2,
            infill_spacing: 2.0,
            infill_pattern: InfillPattern::Crosshatch,
            print_speed: 40.0,
            first_layer_speed: 20.0,
            travel_speed: 120.0,
            retract_len: 0.8,
            retract_speed: 35.0,
            hotend_temp: 215.0,
            bed_temp: 60.0,
            fan_duty: 255,
            fan_from_layer: 1,
            flow: 1.0,
            center: (125.0, 105.0),
        }
    }
}

impl SlicerConfig {
    /// A small, fast profile for unit tests and quick simulations:
    /// thicker layers, single perimeter, sparse infill, near origin.
    pub fn fast() -> Self {
        SlicerConfig {
            layer_height: 0.3,
            perimeters: 1,
            infill_spacing: 3.0,
            center: (30.0, 30.0),
            ..SlicerConfig::default()
        }
    }

    /// Filament millimetres pushed per millimetre of XY path.
    pub(crate) fn e_per_mm(&self) -> f64 {
        let bead_area = self.extrusion_width * self.layer_height;
        let filament_area =
            std::f64::consts::FRAC_PI_4 * self.filament_diameter * self.filament_diameter;
        bead_area * self.flow / filament_area
    }
}

/// A convex solid the slicer understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Solid {
    /// Axis-aligned rectangular prism, centred on `SlicerConfig::center`.
    RectPrism {
        /// X size, mm.
        width: f64,
        /// Y size, mm.
        depth: f64,
        /// Z size, mm.
        height: f64,
    },
    /// Right prism over a regular polygon (`segments` ≥ 3); approximates a
    /// cylinder for large `segments`.
    Prism {
        /// Circumscribed radius, mm.
        radius: f64,
        /// Z size, mm.
        height: f64,
        /// Number of polygon vertices.
        segments: u32,
    },
}

impl Solid {
    /// Convenience constructor for a rectangular prism.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is not strictly positive.
    pub fn rect_prism(width: f64, depth: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && depth > 0.0 && height > 0.0,
            "solid dimensions must be positive"
        );
        Solid::RectPrism {
            width,
            depth,
            height,
        }
    }

    /// Convenience constructor for a cylinder-like prism.
    ///
    /// # Panics
    ///
    /// Panics if `radius`/`height` are not positive or `segments < 3`.
    pub fn cylinder(radius: f64, height: f64, segments: u32) -> Self {
        assert!(
            radius > 0.0 && height > 0.0,
            "solid dimensions must be positive"
        );
        assert!(segments >= 3, "a prism needs at least 3 segments");
        Solid::Prism {
            radius,
            height,
            segments,
        }
    }

    /// The 20 mm calibration cube used throughout the paper's Table I.
    pub fn calibration_cube() -> Self {
        Solid::rect_prism(20.0, 20.0, 20.0)
    }

    /// Part height, mm.
    pub fn height(&self) -> f64 {
        match self {
            Solid::RectPrism { height, .. } | Solid::Prism { height, .. } => *height,
        }
    }

    /// The outline polygon at a given layer, centred at `center`,
    /// counter-clockwise.
    fn outline(&self, center: (f64, f64)) -> Vec<(f64, f64)> {
        match self {
            Solid::RectPrism { width, depth, .. } => {
                let (hw, hd) = (width / 2.0, depth / 2.0);
                vec![
                    (center.0 - hw, center.1 - hd),
                    (center.0 + hw, center.1 - hd),
                    (center.0 + hw, center.1 + hd),
                    (center.0 - hw, center.1 + hd),
                ]
            }
            Solid::Prism {
                radius, segments, ..
            } => (0..*segments)
                .map(|i| {
                    let a = 2.0 * std::f64::consts::PI * f64::from(i) / f64::from(*segments);
                    (center.0 + radius * a.cos(), center.1 + radius * a.sin())
                })
                .collect(),
        }
    }
}

/// Insets a convex CCW polygon by distance `d` (positive = inward).
/// Returns `None` if the polygon collapses.
fn inset_convex(poly: &[(f64, f64)], d: f64) -> Option<Vec<(f64, f64)>> {
    let n = poly.len();
    if n < 3 {
        return None;
    }
    // Shift every edge inward along its inner normal, then intersect
    // consecutive edges.
    let mut lines = Vec::with_capacity(n); // (point on line, direction)
    for i in 0..n {
        let a = poly[i];
        let b = poly[(i + 1) % n];
        let (dx, dy) = (b.0 - a.0, b.1 - a.1);
        let len = (dx * dx + dy * dy).sqrt();
        if len == 0.0 {
            return None;
        }
        // CCW polygon: the inward normal of edge (dx,dy) is (-dy,dx)/len.
        let nx = -dy / len;
        let ny = dx / len;
        lines.push(((a.0 + nx * d, a.1 + ny * d), (dx, dy)));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (p1, d1) = lines[(i + n - 1) % n];
        let (p2, d2) = lines[i];
        let denom = d1.0 * d2.1 - d1.1 * d2.0;
        if denom.abs() < 1e-12 {
            return None; // parallel edges (degenerate)
        }
        let t = ((p2.0 - p1.0) * d2.1 - (p2.1 - p1.1) * d2.0) / denom;
        out.push((p1.0 + d1.0 * t, p1.1 + d1.1 * t));
    }
    // Validate: the polygon collapses when any edge flips direction
    // (vertices crossed over the centre), and must keep positive area.
    for i in 0..n {
        let v0 = out[i];
        let v1 = out[(i + 1) % n];
        // Segment v_i → v_{i+1} lies on inset line i; compare with that
        // edge's original direction.
        let d_orig = lines[i].1;
        let dot = (v1.0 - v0.0) * d_orig.0 + (v1.1 - v0.1) * d_orig.1;
        if dot <= 1e-12 {
            return None;
        }
    }
    if signed_area(&out) <= 1e-9 {
        return None;
    }
    Some(out)
}

fn signed_area(poly: &[(f64, f64)]) -> f64 {
    let n = poly.len();
    let mut a = 0.0;
    for i in 0..n {
        let p = poly[i];
        let q = poly[(i + 1) % n];
        a += p.0 * q.1 - q.0 * p.1;
    }
    a / 2.0
}

/// Intersects a horizontal scanline `y` with a convex polygon; returns the
/// x-range covered, if any.
fn scanline_range(poly: &[(f64, f64)], y: f64) -> Option<(f64, f64)> {
    let n = poly.len();
    let mut xs: Vec<f64> = Vec::with_capacity(2);
    for i in 0..n {
        let a = poly[i];
        let b = poly[(i + 1) % n];
        let (y0, y1) = (a.1, b.1);
        if (y0 - y).abs() < 1e-12 && (y1 - y).abs() < 1e-12 {
            // Horizontal edge on the scanline: take both ends.
            xs.push(a.0);
            xs.push(b.0);
        } else if (y0 <= y && y1 > y) || (y1 <= y && y0 > y) {
            let t = (y - y0) / (y1 - y0);
            xs.push(a.0 + t * (b.0 - a.0));
        }
    }
    if xs.len() < 2 {
        return None;
    }
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo > 1e-9).then_some((lo, hi))
}

/// Emitter that tracks position and produces travel/print/retract moves.
struct Emitter<'a> {
    cfg: &'a SlicerConfig,
    program: Program,
    pos: Option<(f64, f64)>,
    retracted: bool,
}

impl<'a> Emitter<'a> {
    fn new(cfg: &'a SlicerConfig) -> Self {
        Emitter {
            cfg,
            program: Program::new(),
            pos: None,
            retracted: false,
        }
    }

    fn push(&mut self, cmd: GCommand) {
        self.program.push(cmd);
    }

    fn travel_to(&mut self, x: f64, y: f64) {
        if self.pos == Some((x, y)) {
            return;
        }
        let far = self
            .pos
            .map(|(px, py)| ((x - px).powi(2) + (y - py).powi(2)).sqrt() > 2.0)
            .unwrap_or(true);
        if far && self.cfg.retract_len > 0.0 && !self.retracted {
            self.push(GCommand::Move {
                rapid: false,
                x: None,
                y: None,
                z: None,
                e: Some(-self.cfg.retract_len),
                feedrate: Some(self.cfg.retract_speed * 60.0),
            });
            self.retracted = true;
        }
        self.push(GCommand::Move {
            rapid: true,
            x: Some(round5(x)),
            y: Some(round5(y)),
            z: None,
            e: None,
            feedrate: Some(self.cfg.travel_speed * 60.0),
        });
        self.pos = Some((x, y));
    }

    fn print_to(&mut self, x: f64, y: f64, speed_mm_s: f64) {
        let (px, py) = self.pos.expect("print move requires a prior position");
        let dist = ((x - px).powi(2) + (y - py).powi(2)).sqrt();
        if dist < 1e-9 {
            return;
        }
        if self.retracted {
            self.push(GCommand::Move {
                rapid: false,
                x: None,
                y: None,
                z: None,
                e: Some(self.cfg.retract_len),
                feedrate: Some(self.cfg.retract_speed * 60.0),
            });
            self.retracted = false;
        }
        let e = dist * self.cfg.e_per_mm();
        self.push(GCommand::Move {
            rapid: false,
            x: Some(round5(x)),
            y: Some(round5(y)),
            z: None,
            e: Some(round5(e)),
            feedrate: Some(speed_mm_s * 60.0),
        });
        self.pos = Some((x, y));
    }

    fn polygon(&mut self, poly: &[(f64, f64)], speed: f64) {
        if poly.is_empty() {
            return;
        }
        self.travel_to(poly[0].0, poly[0].1);
        for p in poly.iter().skip(1).chain(std::iter::once(&poly[0])) {
            self.print_to(p.0, p.1, speed);
        }
    }
}

use crate::writer::snap5 as round5;

/// Slices `solid` with `cfg` into a complete printable program
/// (heat-up, homing, layers, cool-down). The part is centred on
/// `cfg.center`; multi-part plates go through
/// [`WorkloadSpec::slice`](crate::spec::WorkloadSpec::slice).
///
/// # Panics
///
/// Panics if `cfg.layer_height` or geometric parameters are not positive.
pub fn slice(solid: &Solid, cfg: &SlicerConfig) -> Program {
    slice_plate(std::slice::from_ref(&(solid.clone(), cfg.center)), cfg)
}

/// Slices a whole build plate: each `(solid, centre)` island is printed
/// in order within every layer, so multi-island plates produce the long
/// inter-part travels (with retraction) that make a workload
/// travel-heavy. A single-island plate emits exactly the same program as
/// [`slice()`]. Layers continue until the tallest island is finished;
/// shorter islands simply stop contributing.
///
/// # Panics
///
/// Panics if `parts` is empty, or if `cfg.layer_height` or geometric
/// parameters are not positive.
pub(crate) fn slice_plate(parts: &[(Solid, (f64, f64))], cfg: &SlicerConfig) -> Program {
    assert!(!parts.is_empty(), "a plate needs at least one part");
    assert!(cfg.layer_height > 0.0, "layer height must be positive");
    assert!(
        cfg.extrusion_width > 0.0,
        "extrusion width must be positive"
    );
    let mut em = Emitter::new(cfg);

    // ---- start sequence (heat, home, positioning modes) ----
    em.push(GCommand::AbsolutePositioning);
    em.push(GCommand::RelativeExtrusion);
    em.push(GCommand::SetBedTemp {
        celsius: cfg.bed_temp,
        wait: false,
    });
    em.push(GCommand::SetHotendTemp {
        celsius: cfg.hotend_temp,
        wait: false,
    });
    em.push(GCommand::Home {
        x: true,
        y: true,
        z: true,
    });
    em.push(GCommand::SetBedTemp {
        celsius: cfg.bed_temp,
        wait: true,
    });
    em.push(GCommand::SetHotendTemp {
        celsius: cfg.hotend_temp,
        wait: true,
    });
    em.push(GCommand::EnableSteppers);
    em.push(GCommand::SetPosition {
        x: None,
        y: None,
        z: None,
        e: Some(0.0),
    });

    let layer_count = parts
        .iter()
        .map(|(solid, _)| (solid.height() / cfg.layer_height).round().max(1.0) as usize)
        .max()
        .expect("non-empty plate");
    let outlines: Vec<(usize, Vec<(f64, f64)>)> = parts
        .iter()
        .map(|(solid, center)| {
            let layers = (solid.height() / cfg.layer_height).round().max(1.0) as usize;
            (layers, solid.outline(*center))
        })
        .collect();

    for layer in 0..layer_count {
        let z = cfg.layer_height * (layer + 1) as f64;
        // Fan control at the configured layer.
        if layer == cfg.fan_from_layer && cfg.fan_duty > 0 {
            em.push(GCommand::FanOn { duty: cfg.fan_duty });
        }
        em.push(GCommand::Move {
            rapid: false,
            x: None,
            y: None,
            z: Some(round5(z)),
            e: None,
            feedrate: Some(600.0),
        });
        let speed = if layer == 0 {
            cfg.first_layer_speed
        } else {
            cfg.print_speed
        };

        for (part_layers, outline) in &outlines {
            if layer >= *part_layers {
                continue; // this island already topped out
            }

            // Perimeters, outside-in: loop i inset by (i + 0.5) widths.
            let mut innermost = None;
            for i in 0..cfg.perimeters {
                let d = cfg.extrusion_width * (f64::from(i) + 0.5);
                match inset_convex(outline, d) {
                    Some(loop_poly) => {
                        em.polygon(&loop_poly, speed);
                        innermost = Some(loop_poly);
                    }
                    None => break,
                }
            }

            // Infill: scanlines inside the innermost perimeter (inset one
            // more width so infill slightly overlaps the perimeter).
            // Alternate scan direction each line; orientation per layer is
            // the configured pattern's choice.
            if cfg.infill_spacing > 0.0 {
                if let Some(inner) = innermost
                    .as_ref()
                    .and_then(|p| inset_convex(p, cfg.extrusion_width * 0.5))
                {
                    let rotate = match cfg.infill_pattern {
                        InfillPattern::Crosshatch => layer % 2 == 1,
                        InfillPattern::Aligned => false,
                    };
                    let poly: Vec<(f64, f64)> = if rotate {
                        inner.iter().map(|(x, y)| (*y, *x)).collect()
                    } else {
                        inner.clone()
                    };
                    let min_y = poly.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
                    let max_y = poly.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
                    let mut y = min_y + cfg.infill_spacing / 2.0;
                    let mut flip = false;
                    while y < max_y {
                        if let Some((lo, hi)) = scanline_range(&poly, y) {
                            let (sx, ex) = if flip { (hi, lo) } else { (lo, hi) };
                            let (tsx, tsy) = if rotate { (y, sx) } else { (sx, y) };
                            let (tex, tey) = if rotate { (y, ex) } else { (ex, y) };
                            em.travel_to(tsx, tsy);
                            em.print_to(tex, tey, speed);
                            flip = !flip;
                        }
                        y += cfg.infill_spacing;
                    }
                }
            }
        }
    }

    // ---- end sequence ----
    if cfg.retract_len > 0.0 {
        em.push(GCommand::Move {
            rapid: false,
            x: None,
            y: None,
            z: None,
            e: Some(-cfg.retract_len),
            feedrate: Some(cfg.retract_speed * 60.0),
        });
    }
    em.push(GCommand::SetHotendTemp {
        celsius: 0.0,
        wait: false,
    });
    em.push(GCommand::SetBedTemp {
        celsius: 0.0,
        wait: false,
    });
    em.push(GCommand::FanOff);
    em.push(GCommand::Home {
        x: true,
        y: true,
        z: false,
    });
    em.push(GCommand::DisableSteppers);
    em.program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ProgramStats;

    #[test]
    fn inset_square() {
        let sq = vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)];
        let inner = inset_convex(&sq, 1.0).unwrap();
        assert_eq!(inner.len(), 4);
        for (x, y) in &inner {
            assert!(*x >= 0.99 && *x <= 9.01, "x {x}");
            assert!(*y >= 0.99 && *y <= 9.01, "y {y}");
        }
        assert!((signed_area(&inner) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn inset_collapse_returns_none() {
        let sq = vec![(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)];
        assert!(inset_convex(&sq, 2.5).is_none());
    }

    #[test]
    fn scanline_square() {
        let sq = vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)];
        assert_eq!(scanline_range(&sq, 5.0), Some((0.0, 10.0)));
        assert_eq!(scanline_range(&sq, 11.0), None);
    }

    #[test]
    fn sliced_cube_has_expected_layers_and_extrusion() {
        let cfg = SlicerConfig::fast();
        let p = slice(&Solid::rect_prism(10.0, 10.0, 3.0), &cfg);
        let s = ProgramStats::analyze(&p);
        assert_eq!(s.layer_count(), 10, "3mm at 0.3mm layers");
        assert!(
            s.total_extruded_mm > 1.0,
            "extruded {}",
            s.total_extruded_mm
        );
        // Bead volume ~= path length * width * height. Retract/un-retract
        // pairs cancel in `net_extruded_mm`; the final end-of-print retract
        // is never refed, so add it back to get the filament in the part.
        let bead_volume = s.extrusion_path_mm * cfg.extrusion_width * cfg.layer_height;
        let part_filament = s.net_extruded_mm + cfg.retract_len;
        let filament_volume = part_filament
            * std::f64::consts::FRAC_PI_4
            * cfg.filament_diameter
            * cfg.filament_diameter;
        let rel = (bead_volume - filament_volume).abs() / bead_volume;
        assert!(rel < 0.02, "volume mismatch {rel}");
    }

    #[test]
    fn part_fits_within_commanded_bbox() {
        let cfg = SlicerConfig::fast();
        let p = slice(&Solid::rect_prism(10.0, 8.0, 0.6), &cfg);
        let s = ProgramStats::analyze(&p);
        let (cx, cy) = cfg.center;
        assert!(s.min_corner[0] >= cx - 5.0 - 1e-6);
        assert!(s.max_corner[0] <= cx + 5.0 + 1e-6);
        assert!(s.min_corner[1] >= cy - 4.0 - 1e-6);
        assert!(s.max_corner[1] <= cy + 4.0 + 1e-6);
    }

    #[test]
    fn cylinder_slices() {
        let cfg = SlicerConfig::fast();
        let p = slice(&Solid::cylinder(6.0, 0.9, 24), &cfg);
        let s = ProgramStats::analyze(&p);
        assert_eq!(s.layer_count(), 3);
        assert!(s.total_extruded_mm > 0.5);
    }

    #[test]
    fn start_sequence_heats_then_homes_then_waits() {
        let p = slice(&Solid::rect_prism(5.0, 5.0, 0.3), &SlicerConfig::fast());
        let cmds = p.commands();
        let home_idx = cmds
            .iter()
            .position(|c| matches!(c, GCommand::Home { .. }))
            .unwrap();
        let heat_idx = cmds
            .iter()
            .position(|c| matches!(c, GCommand::SetHotendTemp { wait: false, .. }))
            .unwrap();
        let wait_idx = cmds
            .iter()
            .position(|c| matches!(c, GCommand::SetHotendTemp { wait: true, .. }))
            .unwrap();
        assert!(heat_idx < home_idx && home_idx < wait_idx);
    }

    #[test]
    fn fan_turns_on_at_configured_layer() {
        let cfg = SlicerConfig::fast();
        let p = slice(&Solid::rect_prism(8.0, 8.0, 1.2), &cfg);
        let text = p.to_gcode();
        assert!(text.contains("M106 S255"));
        assert!(text.ends_with("M84\n"));
    }

    #[test]
    fn retraction_emitted_for_long_travels() {
        let cfg = SlicerConfig::fast();
        let p = slice(&Solid::rect_prism(12.0, 12.0, 0.3), &cfg);
        let has_retract = p
            .commands()
            .iter()
            .any(|c| matches!(c, GCommand::Move { e: Some(e), x: None, y: None, .. } if *e < 0.0));
        assert!(has_retract, "expected at least one retract");
    }

    #[test]
    fn calibration_cube_matches_paper_workload() {
        let cube = Solid::calibration_cube();
        assert_eq!(cube.height(), 20.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_degenerate_solid() {
        let _ = Solid::rect_prism(0.0, 5.0, 5.0);
    }

    #[test]
    fn single_island_plate_equals_slice() {
        let cfg = SlicerConfig::fast();
        let solid = Solid::rect_prism(7.0, 6.0, 0.9);
        let direct = slice(&solid, &cfg);
        let plated = slice_plate(&[(solid, cfg.center)], &cfg);
        assert_eq!(direct.to_gcode(), plated.to_gcode());
    }

    #[test]
    fn two_island_plate_adds_travel_and_doubles_material() {
        let cfg = SlicerConfig::fast();
        let solid = Solid::rect_prism(5.0, 5.0, 0.6);
        let one = ProgramStats::analyze(&slice(&solid, &cfg));
        let plate = slice_plate(
            &[(solid.clone(), (25.0, 30.0)), (solid.clone(), (40.0, 30.0))],
            &cfg,
        );
        let two = ProgramStats::analyze(&plate);
        assert_eq!(one.layer_count(), two.layer_count());
        let material_ratio = two.total_extruded_mm / one.total_extruded_mm;
        assert!(
            (material_ratio - 2.0).abs() < 0.05,
            "material ratio {material_ratio}"
        );
        assert!(
            two.travel_path_mm > one.travel_path_mm + 10.0,
            "island hops must add travel: {} vs {}",
            two.travel_path_mm,
            one.travel_path_mm
        );
    }

    #[test]
    fn shorter_island_stops_contributing() {
        let cfg = SlicerConfig::fast();
        let plate = slice_plate(
            &[
                (Solid::rect_prism(5.0, 5.0, 1.2), (25.0, 30.0)),
                (Solid::rect_prism(5.0, 5.0, 0.3), (40.0, 30.0)),
            ],
            &cfg,
        );
        let s = ProgramStats::analyze(&plate);
        assert_eq!(s.layer_count(), 4, "tallest island sets the layer count");
    }

    /// Counts extruding XY moves that change Y (vertical strokes). A
    /// square's perimeter contributes exactly two per loop per layer;
    /// horizontal infill contributes none.
    fn vertical_extruding_moves(p: &Program) -> usize {
        let (mut x, mut y) = (f64::NAN, f64::NAN);
        let mut count = 0;
        for cmd in p.commands() {
            if let GCommand::Move {
                x: mx, y: my, e, ..
            } = cmd
            {
                let (nx, ny) = (mx.unwrap_or(x), my.unwrap_or(y));
                if e.is_some_and(|e| e > 0.0) && (ny - y).abs() > 1e-9 {
                    count += 1;
                }
                (x, y) = (nx, ny);
            }
        }
        count
    }

    #[test]
    fn aligned_infill_never_rotates() {
        let solid = Solid::rect_prism(8.0, 8.0, 0.9); // 3 layers
        let crosshatch = slice(&solid, &SlicerConfig::fast());
        let aligned = slice(
            &solid,
            &SlicerConfig {
                infill_pattern: InfillPattern::Aligned,
                ..SlicerConfig::fast()
            },
        );
        assert_ne!(crosshatch.to_gcode(), aligned.to_gcode());
        // Aligned: only perimeter verticals (2 per layer, 1 perimeter).
        assert_eq!(vertical_extruding_moves(&aligned), 6);
        // Crosshatch: the middle layer's infill runs vertically too.
        assert!(vertical_extruding_moves(&crosshatch) > 6);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn rejects_empty_plate() {
        let _ = slice_plate(&[], &SlicerConfig::fast());
    }

    #[test]
    fn e_per_mm_is_physical() {
        let cfg = SlicerConfig::default();
        // 0.45 * 0.2 / (pi/4 * 1.75^2) ~= 0.0374
        assert!((cfg.e_per_mm() - 0.0374).abs() < 0.001);
    }
}
