//! Trapezoidal motion planning and multi-axis step generation.
//!
//! Marlin plans each G-code segment as a trapezoidal velocity profile and
//! its stepper ISR emits STEP pulses with Bresenham interleaving across
//! axes. [`MoveExec`] reproduces both: it yields, one at a time, the
//! `(time, which-axes-step)` schedule of a segment, with per-axis speed
//! caps and a deterministic per-move duration jitter modelling the "time
//! noise" of real prints.

use offramps_des::{SimDuration, Tick};

/// The velocity profile of one segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trapezoid {
    /// Total path length, mm.
    pub dist_mm: f64,
    /// Cruise velocity actually attainable, mm/s.
    pub v_cruise: f64,
    /// Path acceleration, mm/s².
    pub accel: f64,
    /// Total duration, s.
    pub t_total: f64,
    accel_dist: f64,
}

impl Trapezoid {
    /// Plans a profile over `dist_mm` with requested speed `v_req` and
    /// acceleration `accel`, starting and ending at rest.
    ///
    /// # Panics
    ///
    /// Panics if `dist_mm`, `v_req` or `accel` are not strictly positive.
    pub(crate) fn plan(dist_mm: f64, v_req: f64, accel: f64) -> Self {
        assert!(
            dist_mm > 0.0 && v_req > 0.0 && accel > 0.0,
            "invalid profile inputs"
        );
        // Distance needed to reach v_req from rest.
        let d_acc = v_req * v_req / (2.0 * accel);
        if 2.0 * d_acc <= dist_mm {
            // Trapezoid: accel, cruise, decel.
            let t_ramp = v_req / accel;
            let t_cruise = (dist_mm - 2.0 * d_acc) / v_req;
            Trapezoid {
                dist_mm,
                v_cruise: v_req,
                accel,
                t_total: 2.0 * t_ramp + t_cruise,
                accel_dist: d_acc,
            }
        } else {
            // Triangle: never reaches v_req.
            let v_peak = (accel * dist_mm).sqrt();
            Trapezoid {
                dist_mm,
                v_cruise: v_peak,
                accel,
                t_total: 2.0 * v_peak / accel,
                accel_dist: dist_mm / 2.0,
            }
        }
    }

    /// Time (s from segment start) at which path distance `s` is reached.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `s` is outside `[0, dist_mm]`.
    pub(crate) fn time_at(&self, s: f64) -> f64 {
        debug_assert!((-1e-9..=self.dist_mm + 1e-9).contains(&s));
        let s = s.clamp(0.0, self.dist_mm);
        if s <= self.accel_dist {
            (2.0 * s / self.accel).sqrt()
        } else if s <= self.dist_mm - self.accel_dist {
            let t_ramp = self.v_cruise / self.accel;
            t_ramp + (s - self.accel_dist) / self.v_cruise
        } else {
            self.t_total - (2.0 * (self.dist_mm - s) / self.accel).sqrt()
        }
    }
}

/// Iterator over the step schedule of one planned segment.
///
/// Yields `(tick, mask)` pairs: at `tick`, every axis with `mask[i]` set
/// emits one STEP pulse. The dominant axis steps every iteration; the
/// others interleave by Bresenham, exactly like Marlin's ISR.
///
/// # Example
///
/// ```
/// use offramps_firmware::motion::MoveExec;
/// use offramps_des::Tick;
///
/// // 1 mm of X at 100 steps/mm, 50 E steps alongside.
/// let mut exec = MoveExec::new([100, 0, 0, 50], 1.0, 40.0, 1000.0,
///                              Tick::ZERO, 1.0);
/// let mut x = 0;
/// let mut e = 0;
/// while let Some((_, mask)) = exec.next_step() {
///     if mask[0] { x += 1; }
///     if mask[3] { e += 1; }
/// }
/// assert_eq!((x, e), (100, 50));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MoveExec {
    steps_abs: [u64; 4],
    /// Signed direction of each axis (+1, 0, −1).
    pub directions: [i8; 4],
    dominant: usize,
    n: u64,
    k: u64,
    bres_err: [i64; 4],
    profile: Trapezoid,
    start: Tick,
    jitter: f64,
}

impl MoveExec {
    /// Creates the executor for a segment of signed step deltas.
    ///
    /// * `dist_mm` — geometric path length of the segment,
    /// * `v_mm_s` — planned cruise speed (already capped by the caller),
    /// * `accel` — path acceleration (mm/s²),
    /// * `start` — absolute time of the segment start,
    /// * `jitter` — duration multiplier (1.0 = nominal).
    ///
    /// Returns a no-op executor if every delta is zero.
    ///
    /// # Panics
    ///
    /// Panics if `dist_mm`, `v_mm_s`, `accel` or `jitter` are not
    /// strictly positive while steps are non-zero.
    pub fn new(
        steps: [i64; 4],
        dist_mm: f64,
        v_mm_s: f64,
        accel: f64,
        start: Tick,
        jitter: f64,
    ) -> Self {
        let steps_abs: [u64; 4] = std::array::from_fn(|i| steps[i].unsigned_abs());
        let n = *steps_abs.iter().max().expect("4 axes");
        let dominant = (0..4).max_by_key(|i| steps_abs[*i]).expect("4 axes");
        let profile = if n > 0 {
            assert!(jitter > 0.0, "jitter factor must be positive");
            Trapezoid::plan(dist_mm.max(1e-9), v_mm_s, accel)
        } else {
            // Unused placeholder for the empty move.
            Trapezoid::plan(1.0, 1.0, 1.0)
        };
        MoveExec {
            steps_abs,
            directions: std::array::from_fn(|i| steps[i].signum() as i8),
            dominant,
            n,
            k: 0,
            bres_err: [0; 4],
            profile,
            start,
            jitter,
        }
    }

    /// The absolute time of the upcoming step, without consuming it.
    pub fn peek_tick(&self) -> Option<Tick> {
        if self.k >= self.n {
            return None;
        }
        let s = self.profile.dist_mm * (self.k + 1) as f64 / self.n as f64;
        let t = self.profile.time_at(s) * self.jitter;
        Some(self.start + SimDuration::from_secs_f64(t))
    }

    /// The next `(tick, mask)` step event, or `None` when the segment is
    /// complete.
    pub fn next_step(&mut self) -> Option<(Tick, [bool; 4])> {
        if self.k >= self.n {
            return None;
        }
        self.k += 1;
        let s = self.profile.dist_mm * self.k as f64 / self.n as f64;
        let t = self.profile.time_at(s) * self.jitter;
        let tick = self.start + SimDuration::from_secs_f64(t);
        let mut mask = [false; 4];
        mask[self.dominant] = true;
        for (i, m) in mask.iter_mut().enumerate() {
            if i == self.dominant || self.steps_abs[i] == 0 {
                continue;
            }
            self.bres_err[i] += self.steps_abs[i] as i64;
            if self.bres_err[i] >= self.n as i64 {
                self.bres_err[i] -= self.n as i64;
                *m = true;
            }
        }
        Some((tick, mask))
    }

    /// Absolute end time of the segment.
    pub(crate) fn end_tick(&self) -> Tick {
        if self.n == 0 {
            self.start
        } else {
            self.start + SimDuration::from_secs_f64(self.profile.t_total * self.jitter)
        }
    }

    /// True if the segment has no steps at all.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Caps a requested feedrate by per-axis speed limits for a move with
/// the given axis distances (mm). Returns the attainable path speed.
pub(crate) fn cap_feedrate(path_mm: f64, axis_mm: [f64; 4], v_req: f64, max_axis: [f64; 4]) -> f64 {
    let mut v = v_req;
    if path_mm <= 0.0 {
        return v;
    }
    for i in 0..4 {
        let frac = axis_mm[i].abs() / path_mm;
        if frac > 1e-12 {
            v = v.min(max_axis[i] / frac);
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use offramps_des::DetRng;

    #[test]
    fn trapezoid_phases() {
        // 10 mm at 40 mm/s, 1000 mm/s²: d_acc = 0.8 mm, trapezoid.
        let p = Trapezoid::plan(10.0, 40.0, 1000.0);
        assert!((p.v_cruise - 40.0).abs() < 1e-12);
        let t_expect = 2.0 * 0.04 + (10.0 - 1.6) / 40.0;
        assert!((p.t_total - t_expect).abs() < 1e-12);
        assert_eq!(p.time_at(0.0), 0.0);
        assert!((p.time_at(10.0) - p.t_total).abs() < 1e-12);
    }

    #[test]
    fn triangle_profile_for_short_moves() {
        // 0.5 mm at 40 mm/s can't reach cruise: triangle.
        let p = Trapezoid::plan(0.5, 40.0, 1000.0);
        assert!(p.v_cruise < 40.0);
        assert!((p.v_cruise - (1000.0_f64 * 0.5).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn time_at_is_monotone() {
        let p = Trapezoid::plan(25.0, 60.0, 1500.0);
        let mut last = -1.0;
        for i in 0..=1000 {
            let s = 25.0 * i as f64 / 1000.0;
            let t = p.time_at(s);
            assert!(t > last, "time_at must be strictly increasing");
            last = t;
        }
    }

    #[test]
    fn exec_emits_exact_step_counts() {
        let mut exec = MoveExec::new([100, -37, 0, 12], 1.0, 40.0, 1000.0, Tick::ZERO, 1.0);
        let mut counts = [0i64; 4];
        let mut last_tick = Tick::ZERO;
        while let Some((tick, mask)) = exec.next_step() {
            assert!(tick >= last_tick, "schedule must be monotone");
            last_tick = tick;
            for i in 0..4 {
                if mask[i] {
                    counts[i] += i64::from(exec.directions[i]);
                }
            }
        }
        assert_eq!(counts, [100, -37, 0, 12]);
        assert!(last_tick <= exec.end_tick());
    }

    #[test]
    fn jitter_scales_duration() {
        let nominal = MoveExec::new([1000, 0, 0, 0], 10.0, 40.0, 1000.0, Tick::ZERO, 1.0);
        let slow = MoveExec::new([1000, 0, 0, 0], 10.0, 40.0, 1000.0, Tick::ZERO, 1.01);
        let d0 = nominal.end_tick().ticks() as f64;
        let d1 = slow.end_tick().ticks() as f64;
        assert!((d1 / d0 - 1.01).abs() < 1e-6);
    }

    #[test]
    fn empty_move() {
        let mut exec = MoveExec::new([0, 0, 0, 0], 0.0, 40.0, 1000.0, Tick::ZERO, 1.0);
        assert!(exec.is_empty());
        assert_eq!(exec.next_step(), None);
        assert_eq!(exec.end_tick(), Tick::ZERO);
    }

    #[test]
    fn cap_feedrate_respects_slowest_axis() {
        // Pure Z move at 12 mm/s cap.
        let v = cap_feedrate(
            5.0,
            [0.0, 0.0, 5.0, 0.0],
            100.0,
            [200.0, 200.0, 12.0, 120.0],
        );
        assert!((v - 12.0).abs() < 1e-12);
        // Diagonal XY: no cap below 200/frac.
        let v = cap_feedrate(
            10.0,
            [7.07, 7.07, 0.0, 0.0],
            40.0,
            [200.0, 200.0, 12.0, 120.0],
        );
        assert!((v - 40.0).abs() < 1e-12);
    }

    #[test]
    fn step_rate_matches_cruise_speed() {
        // During cruise, X steps at v * steps_per_mm. 20 mm at 40 mm/s,
        // 100 steps/mm → 4 kHz → 250 us between steps mid-move.
        let mut exec = MoveExec::new([2000, 0, 0, 0], 20.0, 40.0, 1000.0, Tick::ZERO, 1.0);
        let mut times = Vec::new();
        while let Some((t, _)) = exec.next_step() {
            times.push(t.ticks());
        }
        let mid = times.len() / 2;
        let dt_ticks = times[mid + 1] - times[mid];
        let dt_us = dt_ticks as f64 / 100.0;
        assert!((dt_us - 250.0).abs() < 5.0, "got {dt_us} us");
    }

    /// Bresenham delivers exactly |delta| steps per axis, for any mix.
    #[test]
    fn step_conservation_over_random_moves() {
        for seed in 0u64..128 {
            let mut rng = DetRng::from_seed(seed);
            let dx = rng.uniform_u64(0, 1000) as i64 - 500;
            let dy = rng.uniform_u64(0, 1000) as i64 - 500;
            let dz = rng.uniform_u64(0, 200) as i64 - 100;
            let de = rng.uniform_u64(0, 600) as i64 - 300;
            if dx == 0 && dy == 0 && dz == 0 && de == 0 {
                continue;
            }
            let dist = ((dx * dx + dy * dy) as f64).sqrt().max(0.1);
            let mut exec = MoveExec::new([dx, dy, dz, de], dist, 40.0, 1000.0, Tick::ZERO, 1.0);
            let mut counts = [0i64; 4];
            while let Some((_, mask)) = exec.next_step() {
                for i in 0..4 {
                    if mask[i] {
                        counts[i] += i64::from(exec.directions[i]);
                    }
                }
            }
            assert_eq!(counts, [dx, dy, dz, de], "seed {seed}");
        }
    }

    /// The schedule never exceeds the requested cruise speed on the
    /// dominant axis (interval between dominant steps >= 1/(v*spm)).
    #[test]
    fn speed_limit_over_random_moves() {
        for seed in 0u64..32 {
            let mut rng = DetRng::from_seed(seed ^ 0x5151);
            let n = rng.uniform_u64(100, 2000);
            let v = rng.uniform_u64(5_000, 100_000) as f64 / 1000.0;
            let dist = n as f64 / 100.0; // 100 steps/mm
            let mut exec = MoveExec::new([n as i64, 0, 0, 0], dist, v, 1000.0, Tick::ZERO, 1.0);
            let min_interval_s = (1.0 / (v * 100.0)) * 0.999; // tolerance
            let mut last: Option<Tick> = None;
            while let Some((t, _)) = exec.next_step() {
                if let Some(l) = last {
                    let dt = t.saturating_since(l).as_secs_f64();
                    assert!(
                        dt >= min_interval_s - 1e-7,
                        "step interval {dt} below cruise minimum {min_interval_s} (seed {seed})"
                    );
                }
                last = Some(t);
            }
        }
    }
}
