//! Content fingerprints: a canonical key string → a stable 128-bit id.
//!
//! The store is *content-addressed*: a record's identity is a hash of
//! the canonical description of everything that influenced its value
//! (for a campaign scenario: the workload spec JSON, the attack spec,
//! both seeds, the detector policy, and the store format version).
//! Change any input and the fingerprint — and therefore the shard slot
//! — changes, so stale records are never returned; they simply stop
//! being addressed.
//!
//! The hash is two independent 64-bit FNV-1a lanes (the same mix the
//! workspace's `SeedSplitter` uses) with distinct offset bases,
//! advanced together in one pass and concatenated to 128 bits. FNV is not cryptographic, but the store
//! also records the full key with every record and [`crate::Store::get`]
//! verifies it on lookup, so even a collision degrades to a cache miss,
//! never to a wrong value.

use std::fmt;

const FNV_PRIME: u64 = 0x1000_0000_01b3;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Second-lane offset basis: the standard one xored with an arbitrary
/// odd constant so the two lanes disagree from the first byte.
const FNV_OFFSET_B: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// FNV-1a's multiply only carries entropy upward, leaving the top byte
/// poorly dispersed for short keys — and the top byte picks the shard.
/// Each lane finishes with splitmix64's avalanche so every output bit
/// depends on every input byte.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A 128-bit content fingerprint of a canonical key string.
///
/// # Example
///
/// ```
/// use offramps_store::Fingerprint;
///
/// let fp = Fingerprint::of("scenario key v1");
/// assert_eq!(fp, Fingerprint::of("scenario key v1"));
/// assert_ne!(fp, Fingerprint::of("scenario key v2"));
/// assert_eq!(fp.hex().len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    hi: u64,
    lo: u64,
}

impl Fingerprint {
    /// Fingerprints a canonical key string.
    pub fn of(key: &str) -> Fingerprint {
        // Both FNV-1a lanes advance in one pass over the bytes.
        let (mut hi, mut lo) = (FNV_OFFSET, FNV_OFFSET_B);
        for &b in key.as_bytes() {
            hi = (hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            lo = (lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        Fingerprint {
            hi: avalanche(hi),
            lo: avalanche(lo),
        }
    }

    /// The 32-character lowercase hex rendering (shard files store this
    /// form).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`Fingerprint::hex`] rendering back. Anything but 32
    /// ASCII hex digits is rejected (a multibyte character must never
    /// reach the byte slicing below).
    // detlint: allow(D7) -- tests/fuzz_inputs.rs
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint { hi, lo })
    }

    /// The shard this fingerprint lands in: the top byte, so records
    /// spread uniformly over [`crate::SHARD_COUNT`] files.
    pub(crate) fn shard(&self) -> u8 {
        (self.hi >> 56) as u8
    }

    /// The two 64-bit halves, high first (a checkpoint stores this
    /// form).
    pub(crate) fn words(&self) -> [u64; 2] {
        [self.hi, self.lo]
    }

    /// Reverses [`Fingerprint::words`].
    pub(crate) fn from_words([hi, lo]: [u64; 2]) -> Fingerprint {
        Fingerprint { hi, lo }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_input_sensitive() {
        let a = Fingerprint::of("alpha");
        assert_eq!(a, Fingerprint::of("alpha"));
        assert_ne!(a, Fingerprint::of("alphb"));
        assert_ne!(a, Fingerprint::of("alpha "));
        assert_ne!(Fingerprint::of(""), Fingerprint::of("\0"));
    }

    /// Every warmed store is addressed by these values: they must
    /// never move.
    #[test]
    fn fingerprints_are_pinned() {
        for (key, hex) in [
            ("", "f52a15e9a9b5e89be9d327596b869820"),
            ("alpha", "4eded124706281584a16e5d953016b4a"),
            ("unicode 😀 κλειδί", "234eb20a98f8d1c06df2954a291fac26"),
            ("tabs\tand\nnewlines\r", "147c24ed7cc49838ccd52f32322c1c6b"),
        ] {
            assert_eq!(Fingerprint::of(key).hex(), hex, "{key:?}");
        }
    }

    #[test]
    fn hex_round_trips() {
        for key in ["", "x", "a much longer canonical key | with = fields"] {
            let fp = Fingerprint::of(key);
            assert_eq!(Fingerprint::from_hex(&fp.hex()), Some(fp));
            assert_eq!(fp.hex(), fp.to_string());
        }
        assert_eq!(Fingerprint::from_hex("short"), None);
        assert_eq!(Fingerprint::from_hex(&"g".repeat(32)), None);
    }

    #[test]
    fn lanes_are_independent() {
        // A single-lane collision must not imply a full collision: the
        // two bases differ, so hi(k) == hi(k') for k != k' leaves lo to
        // disagree. Spot-check that hi != lo for ordinary keys.
        for key in ["a", "b", "scenario", ""] {
            let fp = Fingerprint::of(key);
            assert_ne!(fp.hi, fp.lo, "{key:?}");
        }
    }

    #[test]
    fn words_round_trip() {
        for i in 0..512 {
            let fp = Fingerprint::of(&format!("key-{i}"));
            assert_eq!(Fingerprint::from_words(fp.words()), fp);
        }
    }

    #[test]
    fn shards_spread() {
        let shards: std::collections::HashSet<u8> = (0..512)
            .map(|i| Fingerprint::of(&format!("key-{i}")).shard())
            .collect();
        assert!(shards.len() > 200, "only {} shards hit", shards.len());
    }
}
