//! Part-quality comparison against a golden print.
//!
//! Table I of the paper shows Trojaned parts photographed on graph paper;
//! the visible defects are dimensional shifts, flow anomalies and layer
//! misalignment. This module quantifies those defects by comparing the
//! [`PartModel`] of a run against the golden run's.

use std::fmt;

use crate::deposition::PartModel;

/// Thresholds for defect classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityConfig {
    /// Z quantum used to group segments into layers, mm.
    pub z_quantum_mm: f64,
    /// A layer whose centroid moved more than this counts as shifted, mm.
    pub shift_threshold_mm: f64,
    /// Flow ratios outside `1 ± flow_tolerance` count as flow defects.
    pub flow_tolerance: f64,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            z_quantum_mm: 0.02,
            shift_threshold_mm: 0.3,
            flow_tolerance: 0.05,
        }
    }
}

/// Measured geometric differences between a test part and the golden part.
#[derive(Debug, Clone, PartialEq)]
pub struct PartReport {
    /// Test filament volume / golden filament volume.
    pub flow_ratio: f64,
    /// Largest per-layer centroid displacement, mm.
    pub max_centroid_offset_mm: f64,
    /// Number of layers displaced beyond the shift threshold.
    pub shifted_layers: usize,
    /// Largest per-layer-index Z difference, mm.
    pub max_z_deviation_mm: f64,
    /// Largest difference in any bounding-box dimension, mm.
    pub bbox_deviation_mm: f64,
    /// Layers found in the golden part.
    pub golden_layers: usize,
    /// Layers found in the test part.
    pub test_layers: usize,
    /// Largest gap between consecutive layer Z values in the test part,
    /// mm — gaps well above the layer height indicate delamination-scale
    /// Z shifts (Trojan T5).
    pub max_layer_gap_mm: f64,
}

impl PartReport {
    /// Compares `test` against `golden`.
    pub fn compare(golden: &PartModel, test: &PartModel, config: &QualityConfig) -> Self {
        let gl = golden.layers(config.z_quantum_mm);
        let tl = test.layers(config.z_quantum_mm);

        let golden_e = golden.deposited_e_mm();
        let flow_ratio = if golden_e > 0.0 {
            test.deposited_e_mm() / golden_e
        } else if test.deposited_e_mm() > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };

        let mut max_centroid = 0.0_f64;
        let mut shifted = 0;
        let mut max_z_dev = 0.0_f64;
        let mut bbox_dev = 0.0_f64;
        for (g, t) in gl.iter().zip(tl.iter()) {
            let d = ((g.centroid.0 - t.centroid.0).powi(2) + (g.centroid.1 - t.centroid.1).powi(2))
                .sqrt();
            max_centroid = max_centroid.max(d);
            if d > config.shift_threshold_mm {
                shifted += 1;
            }
            max_z_dev = max_z_dev.max((g.z_mm - t.z_mm).abs());
            for i in 0..4 {
                bbox_dev = bbox_dev.max((g.bbox[i] - t.bbox[i]).abs());
            }
        }

        let mut max_gap = 0.0_f64;
        for w in tl.windows(2) {
            max_gap = max_gap.max(w[1].z_mm - w[0].z_mm);
        }

        PartReport {
            flow_ratio,
            max_centroid_offset_mm: max_centroid,
            shifted_layers: shifted,
            max_z_deviation_mm: max_z_dev,
            bbox_deviation_mm: bbox_dev,
            golden_layers: gl.len(),
            test_layers: tl.len(),
            max_layer_gap_mm: max_gap,
        }
    }
}

impl fmt::Display for PartReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "flow ratio:           {:.3}", self.flow_ratio)?;
        writeln!(
            f,
            "max centroid offset:  {:.3} mm",
            self.max_centroid_offset_mm
        )?;
        writeln!(f, "shifted layers:       {}", self.shifted_layers)?;
        writeln!(f, "max Z deviation:      {:.3} mm", self.max_z_deviation_mm)?;
        writeln!(f, "bbox deviation:       {:.3} mm", self.bbox_deviation_mm)?;
        writeln!(
            f,
            "layers (golden/test): {}/{}",
            self.golden_layers, self.test_layers
        )?;
        write!(f, "max layer gap:        {:.3} mm", self.max_layer_gap_mm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deposition::DepositionModel;

    fn straight_part(x_offset: f64, e_scale: f64, layers: usize, layer_h: f64) -> PartModel {
        let mut dep = DepositionModel::new(0.1);
        let mut e = 0.0;
        for l in 0..layers {
            let z = layer_h * (l + 1) as f64;
            dep.update(x_offset, 0.0, z, e);
            for i in 1..=100 {
                let t = i as f64 / 100.0;
                dep.update(x_offset + 10.0 * t, 0.0, z, e + 0.4 * e_scale * t);
            }
            e += 0.4 * e_scale;
        }
        dep.finish()
    }

    #[test]
    fn identical_parts_are_clean() {
        let cfg = QualityConfig::default();
        let g = straight_part(0.0, 1.0, 5, 0.2);
        let t = straight_part(0.0, 1.0, 5, 0.2);
        let r = PartReport::compare(&g, &t, &cfg);
        assert_eq!(r.shifted_layers, 0, "{r}");
        assert!(r.bbox_deviation_mm <= cfg.shift_threshold_mm, "{r}");
        assert!((r.flow_ratio - 1.0).abs() < 1e-9);
        assert_eq!(r.golden_layers, 5);
        assert_eq!(r.test_layers, 5);
    }

    #[test]
    fn under_extrusion_detected() {
        let cfg = QualityConfig::default();
        let g = straight_part(0.0, 1.0, 5, 0.2);
        let t = straight_part(0.0, 0.5, 5, 0.2);
        let r = PartReport::compare(&g, &t, &cfg);
        assert!((r.flow_ratio - 0.5).abs() < 0.02, "{}", r.flow_ratio);
        assert!((r.flow_ratio - 1.0).abs() > cfg.flow_tolerance);
    }

    #[test]
    fn layer_shift_detected() {
        let cfg = QualityConfig::default();
        let g = straight_part(0.0, 1.0, 5, 0.2);
        let t = straight_part(2.0, 1.0, 5, 0.2);
        let r = PartReport::compare(&g, &t, &cfg);
        assert!(r.max_centroid_offset_mm > 1.9);
        assert_eq!(r.shifted_layers, 5);
    }

    #[test]
    fn z_gap_detected() {
        let cfg = QualityConfig::default();
        let g = straight_part(0.0, 1.0, 5, 0.2);
        let t = straight_part(0.0, 1.0, 5, 0.5); // delaminated spacing
        let r = PartReport::compare(&g, &t, &cfg);
        assert!(r.max_layer_gap_mm > 0.45);
        assert!(r.max_z_deviation_mm > 0.25);
    }

    #[test]
    fn empty_golden_handled() {
        let cfg = QualityConfig::default();
        let g = PartModel::default();
        let t = straight_part(0.0, 1.0, 1, 0.2);
        let r = PartReport::compare(&g, &t, &cfg);
        assert!(r.flow_ratio.is_infinite());
        let r2 = PartReport::compare(&g, &PartModel::default(), &cfg);
        assert_eq!(r2.flow_ratio, 1.0);
    }

    #[test]
    fn display_is_informative() {
        let cfg = QualityConfig::default();
        let g = straight_part(0.0, 1.0, 2, 0.2);
        let r = PartReport::compare(&g, &g.clone(), &cfg);
        let text = r.to_string();
        assert!(text.contains("flow ratio"));
        assert!(text.contains("layers (golden/test): 2/2"));
    }
}
