//! Parametric workload specifications.
//!
//! The paper evaluates over a handful of hand-picked prints; scaling the
//! reproduction to campaign-size scenario matrices needs workloads as
//! *data*. A [`WorkloadSpec`] captures everything the slicer needs —
//! part geometry, plate layout, and the full [`SlicerConfig`] profile —
//! so a corpus generator (see `offramps-bench`'s `corpus` module) can
//! sample thousands of distinct-but-deterministic print jobs, and each
//! spec can describe itself in campaign listings.
//!
//! # Example
//!
//! ```
//! use offramps_gcode::spec::WorkloadSpec;
//! use offramps_gcode::slicer::{SlicerConfig, Solid};
//! use offramps_gcode::ProgramStats;
//!
//! let spec = WorkloadSpec::single(Solid::rect_prism(5.0, 5.0, 0.6), SlicerConfig::fast());
//! let stats = ProgramStats::analyze(&spec.slice());
//! assert_eq!(stats.layer_count(), 2);
//! assert!(spec.summary().contains("5x5x0.6"));
//! ```

use crate::ast::Program;
use crate::slicer::{slice_plate, SlicerConfig, Solid};

/// A complete, serializable description of one print job: what part(s)
/// to print, how they sit on the plate, and the slicing profile.
///
/// The spec is plain data — cloning it is cheap and slicing it is
/// deterministic, so two equal specs always produce byte-identical
/// G-code. `copies > 1` lays the part out in a row and makes the
/// workload travel-heavy (long inter-island hops with retraction);
/// `copies == 1` keeps it extrusion-heavy.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The part printed at every island.
    pub solid: Solid,
    /// Islands on the plate (≥ 1). The row is centred on
    /// `config.center`.
    pub copies: u32,
    /// Centre-to-centre island pitch, mm (ignored for one copy).
    pub spacing: f64,
    /// The full slicing profile: layer height, perimeters, infill
    /// spacing/pattern, speeds, temperatures, fan, retraction, flow.
    pub config: SlicerConfig,
}

impl WorkloadSpec {
    /// A single-island spec — the shape of every canonical paper
    /// workload.
    pub fn single(solid: Solid, config: SlicerConfig) -> Self {
        WorkloadSpec {
            solid,
            copies: 1,
            spacing: 0.0,
            config,
        }
    }

    /// A travel-heavy plate: `copies` islands in a row at `spacing` mm
    /// pitch.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is zero, or if `copies > 1` with a
    /// non-positive `spacing`.
    pub fn plate(solid: Solid, copies: u32, spacing: f64, config: SlicerConfig) -> Self {
        assert!(copies > 0, "a plate needs at least one copy");
        assert!(
            copies == 1 || spacing > 0.0,
            "multi-island plates need positive spacing"
        );
        WorkloadSpec {
            solid,
            copies,
            spacing,
            config,
        }
    }

    /// Number of layers the sliced program will have.
    pub fn layer_count(&self) -> usize {
        (self.solid.height() / self.config.layer_height)
            .round()
            .max(1.0) as usize
    }

    /// The island centres, in print order (a row centred on
    /// `config.center`).
    pub(crate) fn centers(&self) -> Vec<(f64, f64)> {
        let (cx, cy) = self.config.center;
        let n = self.copies.max(1);
        (0..n)
            .map(|i| {
                let offset = (f64::from(i) - f64::from(n - 1) / 2.0) * self.spacing;
                (cx + offset, cy)
            })
            .collect()
    }

    /// Slices the spec into a complete printable program.
    ///
    /// # Panics
    ///
    /// Panics on non-positive geometry, like `slice_plate`.
    pub fn slice(&self) -> Program {
        let parts: Vec<(Solid, (f64, f64))> = self
            .centers()
            .into_iter()
            .map(|c| (self.solid.clone(), c))
            .collect();
        slice_plate(&parts, &self.config)
    }

    /// One-line human description for campaign listings:
    /// geometry × layers × copies plus the profile knobs that matter.
    pub fn summary(&self) -> String {
        let shape = match &self.solid {
            Solid::RectPrism {
                width,
                depth,
                height,
            } => format!("{width}x{depth}x{height}mm box"),
            Solid::Prism {
                radius,
                height,
                segments,
            } => format!("r{radius}x{height}mm cyl/{segments}"),
        };
        let plate = if self.copies > 1 {
            format!(" x{} @{}mm", self.copies, self.spacing)
        } else {
            String::new()
        };
        format!(
            "{shape}{plate}, {} layers @{}mm, {}p infill {}mm {:?}, {}mm/s, {}C/{}C",
            self.layer_count(),
            self.config.layer_height,
            self.config.perimeters,
            self.config.infill_spacing,
            self.config.infill_pattern,
            self.config.print_speed,
            self.config.hotend_temp,
            self.config.bed_temp,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slicer::slice;
    use crate::stats::ProgramStats;

    #[test]
    fn single_spec_matches_direct_slice() {
        let cfg = SlicerConfig::fast();
        let solid = Solid::rect_prism(10.0, 10.0, 1.5);
        let spec = WorkloadSpec::single(solid.clone(), cfg.clone());
        assert_eq!(spec.slice().to_gcode(), slice(&solid, &cfg).to_gcode());
        assert_eq!(spec.layer_count(), 5);
    }

    #[test]
    fn plate_centers_are_symmetric() {
        let spec = WorkloadSpec::plate(
            Solid::rect_prism(5.0, 5.0, 0.3),
            3,
            12.0,
            SlicerConfig::fast(),
        );
        let centers = spec.centers();
        assert_eq!(centers.len(), 3);
        let (cx, cy) = spec.config.center;
        assert_eq!(centers[1], (cx, cy));
        assert!((centers[0].0 - (cx - 12.0)).abs() < 1e-9);
        assert!((centers[2].0 - (cx + 12.0)).abs() < 1e-9);
    }

    #[test]
    fn plate_spec_is_travel_heavy() {
        let cfg = SlicerConfig::fast();
        let solid = Solid::rect_prism(5.0, 5.0, 0.6);
        let one = ProgramStats::analyze(&WorkloadSpec::single(solid.clone(), cfg.clone()).slice());
        let two = ProgramStats::analyze(&WorkloadSpec::plate(solid, 2, 15.0, cfg).slice());
        // Two layers of island hops at 15 mm pitch: ≥ 20 mm extra travel
        // on top of the doubled in-layer travel.
        assert!(
            two.travel_path_mm > one.travel_path_mm + 20.0,
            "{} vs {}",
            two.travel_path_mm,
            one.travel_path_mm
        );
    }

    #[test]
    fn summary_mentions_the_knobs() {
        let spec =
            WorkloadSpec::plate(Solid::cylinder(3.0, 0.9, 12), 2, 10.0, SlicerConfig::fast());
        let s = spec.summary();
        assert!(s.contains("cyl/12"), "{s}");
        assert!(s.contains("x2 @10mm"), "{s}");
        assert!(s.contains("3 layers"), "{s}");
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn rejects_zero_copies() {
        let _ = WorkloadSpec::plate(
            Solid::rect_prism(5.0, 5.0, 0.3),
            0,
            10.0,
            SlicerConfig::fast(),
        );
    }
}
