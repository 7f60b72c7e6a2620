//! Deposition model: where the plastic actually lands.
//!
//! The paper demonstrates its Trojans with photographs of printed parts
//! (Table I). The simulation's stand-in is a geometric record of every
//! extruded path segment: enough to measure dimensional inaccuracy,
//! under-/over-extrusion, layer shifts and delamination-scale Z errors —
//! the exact defects T1–T5 and T9 cause.

/// One extruded path segment at a fixed Z.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Layer height of the segment, mm.
    pub z_mm: f64,
    /// Segment start, mm.
    pub from: (f64, f64),
    /// Segment end, mm.
    pub to: (f64, f64),
    /// Filament consumed over the segment, mm.
    pub e_mm: f64,
}

impl Segment {
    /// XY length of the segment, mm.
    pub(crate) fn length_mm(&self) -> f64 {
        let dx = self.to.0 - self.from.0;
        let dy = self.to.1 - self.from.1;
        (dx * dx + dy * dy).sqrt()
    }

    /// Midpoint of the segment.
    pub(crate) fn midpoint(&self) -> (f64, f64) {
        (
            (self.from.0 + self.to.0) / 2.0,
            (self.from.1 + self.to.1) / 2.0,
        )
    }
}

/// Aggregate description of one printed layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSummary {
    /// Layer Z, mm.
    pub z_mm: f64,
    /// Total extruded path length, mm.
    pub path_mm: f64,
    /// Total filament consumed, mm.
    pub e_mm: f64,
    /// Bounding box `[min_x, min_y, max_x, max_y]`, mm.
    pub bbox: [f64; 4],
    /// Path-length-weighted centroid, mm.
    pub centroid: (f64, f64),
    /// Number of recorded segments.
    pub segments: usize,
}

/// The complete deposited part.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartModel {
    segments: Vec<Segment>,
    /// Filament pushed forward over the whole job, mm.
    pub total_forward_e_mm: f64,
    /// Filament retracted over the whole job, mm.
    pub total_reverse_e_mm: f64,
}

impl PartModel {
    /// All recorded segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Filament attributed to actual deposition (segments), mm.
    pub fn deposited_e_mm(&self) -> f64 {
        self.segments.iter().map(|s| s.e_mm).sum()
    }

    /// Groups segments into layers (Z quantized to `z_quantum` mm),
    /// ascending in Z.
    pub fn layers(&self, z_quantum: f64) -> Vec<LayerSummary> {
        assert!(z_quantum > 0.0, "z quantum must be positive");
        let mut keys: Vec<i64> = self
            .segments
            .iter()
            .map(|s| (s.z_mm / z_quantum).round() as i64)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.iter()
            .map(|k| {
                let mut sum = LayerSummary {
                    z_mm: 0.0,
                    path_mm: 0.0,
                    e_mm: 0.0,
                    bbox: [
                        f64::INFINITY,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        f64::NEG_INFINITY,
                    ],
                    centroid: (0.0, 0.0),
                    segments: 0,
                };
                let mut wx = 0.0;
                let mut wy = 0.0;
                for s in self
                    .segments
                    .iter()
                    .filter(|s| (s.z_mm / z_quantum).round() as i64 == *k)
                {
                    let len = s.length_mm();
                    sum.path_mm += len;
                    sum.e_mm += s.e_mm;
                    sum.segments += 1;
                    sum.z_mm = s.z_mm;
                    for p in [s.from, s.to] {
                        sum.bbox[0] = sum.bbox[0].min(p.0);
                        sum.bbox[1] = sum.bbox[1].min(p.1);
                        sum.bbox[2] = sum.bbox[2].max(p.0);
                        sum.bbox[3] = sum.bbox[3].max(p.1);
                    }
                    let mid = s.midpoint();
                    wx += mid.0 * len;
                    wy += mid.1 * len;
                }
                if sum.path_mm > 0.0 {
                    sum.centroid = (wx / sum.path_mm, wy / sum.path_mm);
                }
                sum
            })
            .filter(|l| l.segments > 0)
            .collect()
    }
}

/// Online recorder converting axis positions into [`Segment`]s.
///
/// The plant calls [`DepositionModel::update`] after every committed
/// microstep; the recorder emits a segment whenever filament was fed and
/// the head moved at least `resolution_mm` (or changed layers).
///
/// # Example
///
/// ```
/// use offramps_printer::DepositionModel;
///
/// let mut dep = DepositionModel::new(0.2);
/// dep.update(0.0, 0.0, 0.2, 0.0);
/// dep.update(10.0, 0.0, 0.2, 0.37); // extrude along X
/// let part = dep.finish();
/// assert!((part.deposited_e_mm() - 0.37).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct DepositionModel {
    resolution_mm: f64,
    part: PartModel,
    last: Option<(f64, f64, f64)>,
    /// High-water mark of the E axis attributed to deposition so far.
    /// Retract/un-retract cycles dip below and return to this mark
    /// without creating material; only E beyond it deposits.
    e_hw: f64,
    prev_e: f64,
}

impl DepositionModel {
    /// Creates a recorder with the given XY sampling resolution.
    ///
    /// # Panics
    ///
    /// Panics if `resolution_mm` is not strictly positive.
    pub fn new(resolution_mm: f64) -> Self {
        assert!(resolution_mm > 0.0, "resolution must be positive");
        DepositionModel {
            resolution_mm,
            part: PartModel::default(),
            last: None,
            e_hw: 0.0,
            prev_e: 0.0,
        }
    }

    /// Feeds the current tool position (mm) and cumulative extruder
    /// position (mm, may decrease on retracts).
    pub fn update(&mut self, x: f64, y: f64, z: f64, e: f64) {
        let de_inst = e - self.prev_e;
        if de_inst > 0.0 {
            self.part.total_forward_e_mm += de_inst;
        } else {
            self.part.total_reverse_e_mm += -de_inst;
        }
        self.prev_e = e;

        let Some((lx, ly, lz)) = self.last else {
            self.last = Some((x, y, z));
            self.e_hw = e;
            return;
        };

        let moved = ((x - lx).powi(2) + (y - ly).powi(2)).sqrt();
        let z_changed = (z - lz).abs() > 1e-9;
        // Only filament beyond the high-water mark is new material;
        // retract/un-retract round trips stay below it.
        let de = (e - self.e_hw).max(0.0);

        if moved >= self.resolution_mm || z_changed {
            if de > 0.0 && moved > 1e-9 {
                self.part.segments.push(Segment {
                    z_mm: lz,
                    from: (lx, ly),
                    to: (x, y),
                    e_mm: de,
                });
            }
            self.last = Some((x, y, z));
            self.e_hw = self.e_hw.max(e);
        }
    }

    /// Flushes any pending partial segment and returns the part.
    pub fn finish(mut self) -> PartModel {
        if let Some((lx, ly, lz)) = self.last {
            let de = self.prev_e - self.e_hw;
            if de > 0.0 {
                // Terminal blob at the final position.
                self.part.segments.push(Segment {
                    z_mm: lz,
                    from: (lx, ly),
                    to: (lx, ly),
                    e_mm: de,
                });
            }
        }
        self.part
    }

    /// Read-only view of the part recorded so far.
    pub fn part(&self) -> &PartModel {
        &self.part
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the recorder along a straight line in small increments,
    /// as microstep-resolution updates would.
    fn extrude_line(
        dep: &mut DepositionModel,
        from: (f64, f64),
        to: (f64, f64),
        z: f64,
        e0: f64,
        e1: f64,
        steps: usize,
    ) {
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            dep.update(
                from.0 + (to.0 - from.0) * t,
                from.1 + (to.1 - from.1) * t,
                z,
                e0 + (e1 - e0) * t,
            );
        }
    }

    #[test]
    fn line_attributes_all_filament() {
        let mut dep = DepositionModel::new(0.2);
        extrude_line(&mut dep, (0.0, 0.0), (10.0, 0.0), 0.2, 0.0, 0.5, 1000);
        let part = dep.finish();
        assert!((part.deposited_e_mm() - 0.5).abs() < 1e-9);
        assert!((part.total_forward_e_mm - 0.5).abs() < 1e-9);
        let total_len: f64 = part.segments().iter().map(|s| s.length_mm()).sum();
        assert!((total_len - 10.0).abs() < 0.01);
    }

    #[test]
    fn travel_without_extrusion_records_nothing() {
        let mut dep = DepositionModel::new(0.2);
        extrude_line(&mut dep, (0.0, 0.0), (30.0, 0.0), 0.2, 0.0, 0.0, 100);
        assert!(dep.finish().segments().is_empty());
    }

    #[test]
    fn retraction_is_swallowed() {
        let mut dep = DepositionModel::new(0.2);
        extrude_line(&mut dep, (0.0, 0.0), (5.0, 0.0), 0.2, 0.0, 0.2, 100);
        // Retract in place.
        dep.update(5.0, 0.0, 0.2, -0.6);
        // Travel far, unretract, print again.
        dep.update(20.0, 0.0, 0.2, -0.6);
        dep.update(20.0, 0.0, 0.2, 0.2);
        extrude_line(&mut dep, (20.0, 0.0), (25.0, 0.0), 0.2, 0.2, 0.4, 100);
        let part = dep.finish();
        assert!((part.total_reverse_e_mm - 0.8).abs() < 1e-9);
        // Deposited = 0.2 (first line) + 0.2 (second line); the unretract
        // refill returns to the high-water mark and is not geometry.
        let dep_e = part.deposited_e_mm();
        assert!((dep_e - 0.4).abs() < 0.01, "got {dep_e}");
    }

    #[test]
    fn layers_group_by_z() {
        let mut dep = DepositionModel::new(0.2);
        extrude_line(&mut dep, (0.0, 0.0), (10.0, 0.0), 0.2, 0.0, 0.4, 200);
        dep.update(10.0, 0.0, 0.4, 0.4);
        extrude_line(&mut dep, (10.0, 0.0), (0.0, 0.0), 0.4, 0.4, 0.8, 200);
        let part = dep.finish();
        let layers = part.layers(0.01);
        assert_eq!(layers.len(), 2);
        assert!((layers[0].z_mm - 0.2).abs() < 1e-9);
        assert!((layers[1].z_mm - 0.4).abs() < 1e-9);
        assert!((layers[0].path_mm - 10.0).abs() < 0.2);
        assert!((layers[0].centroid.0 - 5.0).abs() < 0.2);
    }

    #[test]
    fn bbox_covers_square() {
        let mut dep = DepositionModel::new(0.1);
        let sq = [(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0), (0.0, 0.0)];
        let mut e = 0.0;
        for w in sq.windows(2) {
            extrude_line(&mut dep, w[0], w[1], 0.2, e, e + 0.3, 200);
            e += 0.3;
        }
        let layers = dep.finish().layers(0.01);
        assert_eq!(layers.len(), 1);
        let b = layers[0].bbox;
        assert!(b[0] <= 0.01 && b[1] <= 0.01 && b[2] >= 7.99 && b[3] >= 7.99);
        assert!((layers[0].centroid.0 - 4.0).abs() < 0.1);
    }

    #[test]
    fn segment_geometry_helpers() {
        let s = Segment {
            z_mm: 0.2,
            from: (0.0, 0.0),
            to: (3.0, 4.0),
            e_mm: 0.1,
        };
        assert!((s.length_mm() - 5.0).abs() < 1e-12);
        assert_eq!(s.midpoint(), (1.5, 2.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_resolution() {
        let _ = DepositionModel::new(0.0);
    }
}
