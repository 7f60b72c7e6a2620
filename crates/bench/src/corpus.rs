//! Procedural workload corpus: a master seed → N deterministic print
//! jobs.
//!
//! The paper's evaluation fixes four prints; the campaign's "as many
//! scenarios as you can imagine" axis wants thousands. A [`CorpusSpec`]
//! expands a master seed into `count` workloads through
//! [`SeedSplitter`]: each part's parameters are drawn from the stream
//! keyed by its label (`corpus/gen-007`), never from its position, so
//! growing the corpus from 8 to 800 parts leaves the first eight
//! byte-identical — the same stability property the campaign's scenario
//! seeds rely on.
//!
//! Every continuous parameter is snapped to a coarse decimal grid, which
//! keeps the generated G-code on the writer's 5-decimal canonical grid:
//! corpus programs round-trip through `to_gcode` → `parse` exactly (the
//! `gcode_roundtrip` integration test pins this).
//!
//! # Example
//!
//! ```
//! use offramps_bench::corpus::CorpusSpec;
//!
//! let a = CorpusSpec::new(4).expand(42);
//! let b = CorpusSpec::new(8).expand(42);
//! assert_eq!(a.len(), 4);
//! // Prefix stability: a bigger corpus starts with the same workloads.
//! assert_eq!(a[2].spec(), b[2].spec());
//! ```

use offramps_des::{DetRng, SeedSplitter};
use offramps_gcode::slicer::{InfillPattern, SlicerConfig, Solid};
use offramps_gcode::snap5;
use offramps_gcode::spec::WorkloadSpec;

use crate::workloads::Workload;

/// How many generated workloads to mint, and under which label prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Number of workloads to generate.
    pub count: u32,
}

impl CorpusSpec {
    /// A corpus of `count` generated workloads.
    pub fn new(count: u32) -> Self {
        CorpusSpec { count }
    }

    /// The label of the `i`-th generated workload (`gen-007`-style; the
    /// width grows past 999 parts without disturbing earlier labels).
    pub fn label(i: u32) -> String {
        format!("gen-{i:03}")
    }

    /// Expands the corpus deterministically: workload `i` depends only
    /// on `master_seed` and its own label.
    pub fn expand(&self, master_seed: u64) -> Vec<Workload> {
        let split = SeedSplitter::new(master_seed);
        (0..self.count)
            .map(|i| {
                let label = Self::label(i);
                let mut rng = split.stream(&format!("corpus/{label}"));
                Workload::new(label, sample_spec(&mut rng)).expect("generated labels are valid")
            })
            .collect()
    }
}

/// Draws `lo + step * k` with `k` uniform in `[0, steps)` — every
/// continuous knob goes through [`snap5`] so values stay on the
/// writer's exact 5-decimal grid (round-trip-safe, and summaries print
/// clean: `0.3`, not `0.30000000000000004`).
fn gridded(rng: &mut DetRng, lo: f64, step: f64, steps: u64) -> f64 {
    snap5(lo + step * rng.uniform_u64(0, steps) as f64)
}

/// Samples one parametric workload. Parts stay centimetre-scale
/// (campaigns run hundreds of these), but vary every axis the slicer
/// exposes: geometry, layer count, perimeters, infill density and
/// pattern, speed/temperature profile, retraction, flow, and
/// travel-heavy multi-island plates.
// detlint: allow(D7) -- tests/gcode_roundtrip.rs
pub fn sample_spec(rng: &mut DetRng) -> WorkloadSpec {
    let layer_height = gridded(rng, 0.2, 0.05, 3); // 0.2 / 0.25 / 0.3
    let layers = rng.uniform_u64(2, 5); // 2–4 layers
    let height = snap5(layer_height * layers as f64);
    let solid = if rng.chance(0.25) {
        Solid::cylinder(
            gridded(rng, 2.0, 0.5, 5), // r 2.0–4.0
            height,
            rng.uniform_u64(6, 17) as u32, // 6–16 segments
        )
    } else {
        Solid::rect_prism(
            gridded(rng, 4.0, 0.5, 9), // 4.0–8.0
            gridded(rng, 4.0, 0.5, 9),
            height,
        )
    };
    let infill_spacing = if rng.chance(0.2) {
        0.0 // perimeter-only: travel-light, extrusion-light
    } else {
        gridded(rng, 1.5, 0.5, 6) // 1.5–4.0
    };
    let config = SlicerConfig {
        layer_height,
        perimeters: rng.uniform_u64(1, 3) as u32,
        infill_spacing,
        infill_pattern: if rng.chance(0.5) {
            InfillPattern::Crosshatch
        } else {
            InfillPattern::Aligned
        },
        print_speed: rng.uniform_u64(30, 61) as f64,
        first_layer_speed: rng.uniform_u64(15, 26) as f64,
        travel_speed: gridded(rng, 80.0, 10.0, 8), // 80–150
        retract_len: if rng.chance(0.25) {
            0.0
        } else {
            gridded(rng, 0.4, 0.2, 5) // 0.4–1.2
        },
        hotend_temp: gridded(rng, 195.0, 5.0, 9), // 195–235
        bed_temp: gridded(rng, 50.0, 5.0, 5),     // 50–70
        fan_duty: [0u8, 128, 255][rng.uniform_u64(0, 3) as usize],
        fan_from_layer: rng.uniform_u64(1, 3) as usize,
        flow: gridded(rng, 0.9, 0.05, 5), // 0.9–1.1
        center: (30.0, 30.0),
        ..SlicerConfig::fast()
    };
    if rng.chance(0.3) {
        // Travel-heavy plate: two islands, pitch past the part extent.
        let extent = match &solid {
            Solid::RectPrism { width, .. } => *width,
            Solid::Prism { radius, .. } => 2.0 * radius,
        };
        WorkloadSpec::plate(solid, 2, extent + 6.0, config)
    } else {
        WorkloadSpec::single(solid, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_gcode::ProgramStats;

    #[test]
    fn expansion_is_deterministic_and_position_independent() {
        let a = CorpusSpec::new(6).expand(7);
        let b = CorpusSpec::new(6).expand(7);
        assert_eq!(a, b, "same seed, same corpus");
        let wider = CorpusSpec::new(12).expand(7);
        assert_eq!(&wider[..6], &a[..], "prefix stability");
        let other = CorpusSpec::new(6).expand(8);
        assert_ne!(a, other, "different master seed, different corpus");
    }

    #[test]
    fn labels_are_stable_and_ordered() {
        let corpus = CorpusSpec::new(3).expand(1);
        let labels: Vec<&str> = corpus.iter().map(Workload::label).collect();
        assert_eq!(labels, vec!["gen-000", "gen-001", "gen-002"]);
    }

    #[test]
    fn generated_workloads_slice_and_vary() {
        let corpus = CorpusSpec::new(12).expand(2024);
        let mut layer_counts = std::collections::BTreeSet::new();
        let mut travel_heavy = 0;
        for w in &corpus {
            let stats = ProgramStats::analyze(&w.program());
            assert!(stats.layer_count() >= 2, "{}", w.label());
            assert!(stats.total_extruded_mm > 0.1, "{}", w.label());
            layer_counts.insert(stats.layer_count());
            if w.spec().copies > 1 {
                travel_heavy += 1;
            }
        }
        assert!(layer_counts.len() > 1, "corpus must vary layer counts");
        assert!(travel_heavy > 0, "corpus must include multi-island plates");
    }
}
