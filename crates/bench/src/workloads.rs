//! The open workload registry: canonical paper prints plus any number
//! of procedurally generated corpus parts.
//!
//! The paper prints on a Prusa i3 MK3S+; its Table I parts sit on graph
//! paper with ¼-inch ruling, i.e. centimetre-scale test prints. Full
//! 20 mm calibration cubes simulate fine but take tens of millions of
//! events; the standard experiment part is a smaller prism that still
//! has everything the Trojans need (multiple layers, perimeters, infill,
//! travels, retractions, heat-up, fan activation).
//!
//! A [`Workload`] pairs a stable string **label** with a
//! [`WorkloadSpec`]; labels key scenario seeds, golden captures and
//! summaries, so the registry can grow (see [`crate::corpus`]) without
//! perturbing any existing workload's results. The four canonical paper
//! workloads keep their PR-1 labels (`mini`, `standard`, `tall`,
//! `detection`) and slice byte-identically.

use std::sync::Arc;

use offramps_gcode::slicer::{slice, SlicerConfig, Solid};
use offramps_gcode::spec::WorkloadSpec;
use offramps_gcode::Program;

/// A labelled print job: the unit the campaign matrix fans over.
///
/// # Example
///
/// ```
/// use offramps_bench::workloads::Workload;
///
/// let mini = Workload::from_name("mini").unwrap();
/// assert_eq!(mini.label(), "mini");
/// assert!(Workload::from_name("nope").is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    label: String,
    spec: WorkloadSpec,
}

impl Workload {
    /// Registers a workload under `label`. Labels must be non-empty and
    /// contain only lowercase alphanumerics and `-` (they appear in seed
    /// derivation strings, summaries, CLI flags and JSON).
    ///
    /// # Errors
    ///
    /// Rejects an empty or ill-formed label.
    pub fn new(label: impl Into<String>, spec: WorkloadSpec) -> Result<Self, String> {
        let label = label.into();
        let ok = !label.is_empty()
            && label
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
        if !ok {
            return Err(format!(
                "workload label {label:?} must be lowercase alphanumerics/dashes"
            ));
        }
        Ok(Workload { label, spec })
    }

    /// The stable name used in seed labels, summaries and the CLI.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The parametric spec behind this workload.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Slices the workload's program. Each call re-slices — hold on to
    /// the returned `Arc` when running many scenarios (the campaign
    /// runner caches one per label).
    pub fn program(&self) -> Arc<Program> {
        Arc::new(self.spec.slice())
    }

    /// The 5×5×0.6 mm smoke-test part (2 layers).
    pub fn mini() -> Workload {
        Workload {
            label: "mini".into(),
            spec: WorkloadSpec::single(Solid::rect_prism(5.0, 5.0, 0.6), SlicerConfig::fast()),
        }
    }

    /// The standard 10×10×1.5 mm experiment part (5 layers).
    pub(crate) fn standard() -> Workload {
        Workload {
            label: "standard".into(),
            spec: WorkloadSpec::single(Solid::rect_prism(10.0, 10.0, 1.5), SlicerConfig::fast()),
        }
    }

    /// The taller 8×8×3 mm part used by Z-axis Trojans (10 layers).
    pub(crate) fn tall() -> Workload {
        Workload {
            label: "tall".into(),
            spec: WorkloadSpec::single(Solid::rect_prism(8.0, 8.0, 3.0), SlicerConfig::fast()),
        }
    }

    /// The Table II / Figure 4 detection workload: a longer job
    /// (12×12×6 mm, 20 layers, denser infill → several hundred extruding
    /// movements) so even the stealthiest relocation stride (every 100
    /// movements) fires several times, as in the paper's full-size
    /// prints.
    pub(crate) fn detection() -> Workload {
        Workload {
            label: "detection".into(),
            spec: WorkloadSpec::single(
                Solid::rect_prism(12.0, 12.0, 6.0),
                SlicerConfig {
                    infill_spacing: 1.2,
                    ..SlicerConfig::fast()
                },
            ),
        }
    }

    /// Resolves a canonical workload by its CLI name.
    ///
    /// # Errors
    ///
    /// Returns the unknown name back (corpus workloads are minted by
    /// [`crate::corpus::CorpusSpec::expand`], not looked up by name).
    pub fn from_name(name: &str) -> Result<Workload, String> {
        match name.to_ascii_lowercase().as_str() {
            "mini" => Ok(Workload::mini()),
            "standard" => Ok(Workload::standard()),
            "tall" => Ok(Workload::tall()),
            "detection" => Ok(Workload::detection()),
            other => Err(format!(
                "unknown workload {other:?} (canonical: mini, standard, tall, detection)"
            )),
        }
    }
}

/// Slices the `standard` workload: the 10×10×1.5 mm multi-layer
/// experiment part.
pub fn standard_part() -> Arc<Program> {
    Workload::standard().program()
}

/// Slices the minimal smoke-test part — see [`Workload::mini`].
pub fn mini_part() -> Arc<Program> {
    Workload::mini().program()
}

/// Slices the taller Z-axis part — see [`Workload::tall`].
pub(crate) fn tall_part() -> Arc<Program> {
    Workload::tall().program()
}

/// Slices the Table II / Figure 4 `detection` workload.
pub fn detection_part() -> Arc<Program> {
    Workload::detection().program()
}

/// The paper's 20 mm calibration cube with default (0.2 mm) slicing —
/// the heavyweight workload for final validation runs.
pub fn calibration_cube() -> Arc<Program> {
    Arc::new(slice(&Solid::calibration_cube(), &SlicerConfig::default()))
}

/// Z microsteps per layer for the fast profile (0.3 mm × 400 steps/mm),
/// needed by the layer-triggered Trojans.
pub const FAST_LAYER_Z_STEPS: u64 = 120;

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_gcode::ProgramStats;

    #[test]
    fn standard_part_shape() {
        let s = ProgramStats::analyze(&standard_part());
        assert_eq!(s.layer_count(), 5);
        assert!(s.total_extruded_mm > 5.0);
        assert!(s.max_hotend_target > 200.0);
    }

    #[test]
    fn tall_part_layers() {
        let s = ProgramStats::analyze(&tall_part());
        assert_eq!(s.layer_count(), 10);
    }

    #[test]
    fn layer_steps_constant_is_consistent() {
        use offramps_gcode::slicer::SlicerConfig;
        let cfg = SlicerConfig::fast();
        assert_eq!(
            (cfg.layer_height * 400.0).round() as u64,
            FAST_LAYER_Z_STEPS
        );
    }

    #[test]
    fn canonical_names_round_trip() {
        for w in [
            Workload::mini(),
            Workload::standard(),
            Workload::tall(),
            Workload::detection(),
        ] {
            let resolved = Workload::from_name(w.label()).unwrap();
            assert_eq!(resolved, w);
        }
        assert!(Workload::from_name("nope").is_err());
    }

    #[test]
    fn canonical_programs_match_part_functions() {
        assert_eq!(
            Workload::mini().program().to_gcode(),
            mini_part().to_gcode()
        );
        assert_eq!(
            Workload::detection().program().to_gcode(),
            detection_part().to_gcode()
        );
    }

    #[test]
    fn labels_are_validated() {
        let spec = Workload::mini().spec().clone();
        assert!(Workload::new("gen-007", spec.clone()).is_ok());
        assert!(Workload::new("", spec.clone()).is_err());
        assert!(Workload::new("Bad Label", spec.clone()).is_err());
        assert!(Workload::new("under_score", spec).is_err());
    }
}
