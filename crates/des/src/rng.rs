//! Deterministic random number generation.
//!
//! Experiments in the paper depend on randomness in two places: Trojan
//! triggers ("randomly changes steps", "random Z layer increments") and the
//! "time noise" that makes two known-good prints differ slightly. For a
//! reproducible artifact every random draw must be derived from an explicit
//! seed; this module provides a self-contained xoshiro256** generator (no
//! external crates, so the byte streams can never drift with a dependency
//! upgrade) with seed-splitting so each subsystem gets an independent,
//! stable stream.

/// A seeded deterministic RNG stream (xoshiro256** behind a SplitMix64
/// seed expander).
///
/// # Example
///
/// ```
/// use offramps_des::DetRng;
/// let mut a = DetRng::from_seed(7);
/// let mut b = DetRng::from_seed(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a stream from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let state = std::array::from_fn(|_| splitmix64(&mut sm));
        DetRng { state }
    }

    /// Next raw 64-bit value (xoshiro256** output function).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next value in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        // 53 uniform mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        // Widening-multiply range reduction (Lemire); the bias over a
        // 64-bit source is immeasurably small for simulation purposes.
        let wide = u128::from(self.next_u64()) * u128::from(span);
        lo + (wide >> 64) as u64
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// A sample from a zero-mean Gaussian with standard deviation `sigma`,
    /// generated with the Box–Muller transform.
    pub fn gaussian(&mut self, sigma: f64) -> f64 {
        // u1 in (0, 1]: never zero, so ln(u1) is finite.
        let u1 = ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
        let u2 = self.next_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mag * (2.0 * std::f64::consts::PI * u2).cos() * sigma
    }
}

/// Splits a master seed into independent named sub-seeds.
///
/// Each subsystem (firmware jitter, each Trojan, the UART sampler) takes a
/// sub-stream keyed by a label, so adding a new consumer never perturbs the
/// streams of existing ones. Campaign runners lean on the same property:
/// a scenario's seed depends only on its label, never on which worker
/// thread happens to execute it.
///
/// # Example
///
/// ```
/// use offramps_des::SeedSplitter;
/// let split = SeedSplitter::new(42);
/// let a = split.stream("firmware-jitter");
/// let b = split.stream("trojan-t1");
/// // Streams are independent and stable across runs.
/// let _ = (a, b);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SeedSplitter {
    master: u64,
}

impl SeedSplitter {
    /// Creates a splitter from a master seed.
    pub fn new(master: u64) -> Self {
        SeedSplitter { master }
    }

    /// Derives the stable 64-bit sub-seed for `label` (FNV-1a mix).
    pub fn derive(&self, label: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.master;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Derives the deterministic sub-stream for `label`.
    pub fn stream(&self, label: &str) -> DetRng {
        DetRng::from_seed(self.derive(label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::from_seed(1);
        let mut b = DetRng::from_seed(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::from_seed(1);
        let mut b = DetRng::from_seed(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn splitter_streams_are_stable_and_independent() {
        let s = SeedSplitter::new(99);
        let mut x1 = s.stream("x");
        let mut x2 = s.stream("x");
        let mut y = s.stream("y");
        assert_eq!(x1.next_u64(), x2.next_u64());
        assert_ne!(s.stream("x").next_u64(), y.next_u64());
        assert_eq!(s.derive("x"), s.derive("x"));
        assert_ne!(s.derive("x"), s.derive("y"));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = DetRng::from_seed(3);
        for _ in 0..1000 {
            let v = r.uniform_u64(5, 10);
            assert!((5..10).contains(&v));
        }
    }

    #[test]
    fn uniform_u64_covers_range() {
        let mut r = DetRng::from_seed(9);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.uniform_u64(0, 5) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut r = DetRng::from_seed(11);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_statistics_plausible() {
        let mut r = DetRng::from_seed(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gaussian(2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean} too far from 0");
        assert!(
            (var.sqrt() - 2.0).abs() < 0.1,
            "sigma {} too far from 2",
            var.sqrt()
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::from_seed(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_rate_tracks_probability() {
        let mut r = DetRng::from_seed(6);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn uniform_rejects_empty_range() {
        DetRng::from_seed(0).uniform_u64(3, 3);
    }
}
