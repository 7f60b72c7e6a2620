//! Simulation time: ticks of the 100 MHz FPGA clock.
//!
//! The Digilent Cmod-A7 used by the paper clocks its Artix-7 at 100 MHz, so
//! one tick is 10 ns. All timestamps in the reproduction are expressed in
//! these ticks; a `u64` tick counter covers more than 5 800 years of
//! simulated time, far beyond any print job.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per tick (100 MHz clock).
pub const TICK_NS: u64 = 10;
/// Ticks per microsecond.
pub const TICKS_PER_MICRO: u64 = 1_000 / TICK_NS;
/// Ticks per millisecond.
pub const TICKS_PER_MILLI: u64 = 1_000_000 / TICK_NS;
/// Ticks per second.
pub const TICKS_PER_SEC: u64 = 1_000_000_000 / TICK_NS;

/// `x.round() as u64`, bit for bit, without a call into libm's `round`
/// (the baseline x86-64 target has no rounding instruction). Below
/// 2^53 every `f64` splits exactly into an `i64` integer part and a
/// fraction, so rounding half away from zero is a truncate and one
/// compare; from 2^53 up every `f64` is already an integer, and the
/// rare large value takes `round` itself. Signed casts, because the
/// `u64` ones are branchy sequences on this target.
fn round_to_u64(x: f64) -> u64 {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if (0.0..EXACT).contains(&x) {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x.round() as u64
    }
}

/// An absolute point in simulated time, measured in 10 ns ticks since the
/// start of the simulation.
///
/// `Tick` is ordered, hashable and cheap to copy. Arithmetic with
/// [`SimDuration`] is checked in debug builds (overflow panics) and wraps
/// never in practice given the 5 800-year range.
///
/// # Example
///
/// ```
/// use offramps_des::{Tick, SimDuration};
/// let t = Tick::from_millis(1) + SimDuration::from_micros(5);
/// assert_eq!(t.as_nanos(), 1_005_000);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tick(u64);

impl Tick {
    /// The start of simulated time.
    pub const ZERO: Tick = Tick(0);
    /// The greatest representable instant.
    pub const MAX: Tick = Tick(u64::MAX);

    /// Creates a tick from a raw 10 ns tick count.
    pub const fn new(ticks: u64) -> Self {
        Tick(ticks)
    }

    /// Creates a tick from nanoseconds (rounded down to tick resolution).
    pub const fn from_nanos(ns: u64) -> Self {
        Tick(ns / TICK_NS)
    }

    /// Creates a tick from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Tick(us * TICKS_PER_MICRO)
    }

    /// Creates a tick from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Tick(ms * TICKS_PER_MILLI)
    }

    /// Creates a tick from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Tick(s * TICKS_PER_SEC)
    }

    /// Creates a tick from fractional seconds (rounded to nearest tick).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "seconds must be finite and non-negative"
        );
        Tick(round_to_u64(s * TICKS_PER_SEC as f64))
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// This instant expressed in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0 * TICK_NS
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// This instant as a duration since time zero.
    pub const fn as_duration(self) -> SimDuration {
        SimDuration(self.0)
    }

    /// Saturating subtraction of another instant, as a duration.
    pub const fn saturating_since(self, earlier: Tick) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for Tick {
    type Output = Tick;
    fn add(self, rhs: SimDuration) -> Tick {
        Tick(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for Tick {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for Tick {
    type Output = Tick;
    fn sub(self, rhs: SimDuration) -> Tick {
        Tick(self.0 - rhs.0)
    }
}

impl SubAssign<SimDuration> for Tick {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Sub<Tick> for Tick {
    type Output = SimDuration;
    fn sub(self, rhs: Tick) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

/// A span of simulated time, measured in 10 ns ticks.
///
/// # Example
///
/// ```
/// use offramps_des::SimDuration;
/// let d = SimDuration::from_millis(100);
/// assert_eq!(d * 3, SimDuration::from_millis(300));
/// assert_eq!(d.as_secs_f64(), 0.1);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from a raw tick count.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Creates a duration from nanoseconds (rounded down to tick resolution).
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns / TICK_NS)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * TICKS_PER_MICRO)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * TICKS_PER_MILLI)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * TICKS_PER_SEC)
    }

    /// Creates a duration from fractional seconds (rounded to nearest tick).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "seconds must be finite and non-negative"
        );
        SimDuration(round_to_u64(s * TICKS_PER_SEC as f64))
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0 * TICK_NS
    }

    /// Duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scales the duration by a non-negative factor, rounding to nearest tick.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be finite and non-negative"
        );
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.as_nanos();
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_conversions_round_trip() {
        assert_eq!(Tick::from_nanos(10).ticks(), 1);
        assert_eq!(Tick::from_micros(1).ticks(), 100);
        assert_eq!(Tick::from_millis(1).ticks(), 100_000);
        assert_eq!(Tick::from_secs(1).ticks(), 100_000_000);
        assert_eq!(Tick::from_secs(2).as_nanos(), 2_000_000_000);
    }

    #[test]
    fn tick_arithmetic() {
        let t = Tick::from_micros(10);
        let d = SimDuration::from_micros(5);
        assert_eq!((t + d).ticks(), 1_500);
        assert_eq!((t - d).ticks(), 500);
        assert_eq!((t + d) - t, d);
        let mut m = t;
        m += d;
        m -= d;
        assert_eq!(m, t);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = Tick::from_micros(1);
        let b = Tick::from_micros(2);
        assert_eq!(b.saturating_since(a), SimDuration::from_micros(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(Tick::from_secs_f64(0.1), Tick::from_millis(100));
        assert_eq!(
            SimDuration::from_secs_f64(1e-6),
            SimDuration::from_micros(1)
        );
    }

    #[test]
    fn round_to_u64_matches_libm_round() {
        let check = |x: f64| assert_eq!(round_to_u64(x), x.round() as u64, "{x:e} ({x})");
        // Every half-way case k + 0.5 that an f64 holds: densely at the
        // bottom, then around every power of two up to 2^52.
        for k in 0..100_000u64 {
            check(k as f64 + 0.5);
        }
        for j in 17..52 {
            for k in [(1u64 << j) - 1, 1 << j, (1 << j) + 1] {
                check(k as f64 + 0.5);
            }
        }
        let two52 = 4_503_599_627_370_496.0;
        for x in [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            2.0 * two52 - 1.0,
            2.0 * two52,
            2.0 * two52 + 2.0,
            9_223_372_036_854_775_808.0, // 2^63
            1e300,                       // saturates
            f64::MAX,
        ] {
            check(x);
        }
        // Random magnitudes across the whole range, and random bit
        // patterns of every non-negative finite f64.
        let mut rng = crate::DetRng::from_seed(0x00dd_5eed);
        for _ in 0..200_000 {
            let scale = 2f64.powi(rng.uniform_u64(0, 70) as i32 - 10);
            let u = rng.next_u64() as f64 / u64::MAX as f64;
            check(u * scale);
            check(rng.uniform_u64(0, 1 << 52) as f64 + 0.5);
            let bits = f64::from_bits(rng.next_u64() >> 1);
            if bits.is_finite() {
                check(bits);
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_secs_f64_rejects_negative() {
        let _ = Tick::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(100);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(50));
        assert_eq!(d * 2, SimDuration::from_micros(200));
        assert_eq!(d / 4, SimDuration::from_micros(25));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_nanos(500).to_string(), "500ns");
        assert_eq!(SimDuration::from_micros(1).to_string(), "1.000us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
        assert_eq!(Tick::from_secs(1).to_string(), "1.000000s");
    }
}
