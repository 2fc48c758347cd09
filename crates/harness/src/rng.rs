//! Deterministic xorshift64* pseudo-random number generator.
//!
//! Vigna's xorshift64* has a full 2^64-1 period, passes BigCrush on its
//! high bits, and is four lines of code — exactly the dependency weight a
//! hermetic harness can afford. All harness randomness flows through this
//! type, so a single `u64` seed reproduces any test case or benchmark
//! shuffle bit-for-bit.

/// A xorshift64* generator. The state is never zero.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed` (a zero seed is remapped to a fixed
    /// odd constant — xorshift has no zero state).
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `[lo, hi]` (inclusive). `lo` must be `<= hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_u64() % (span + 1)
    }
}

/// 64-bit FNV-1a, continued from `state` over `bytes`; a zero state
/// starts at the offset basis, so `fnv1a(0, b)` is the plain hash of `b`
/// and a stream can be fed piecewise. The one hash of the workspace:
/// per-test base seeds, VIF text hashes and stamps, snapshot checksums
/// and digests all use it (no cryptographic claims).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = if state == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        state
    };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Reference vectors of 64-bit FNV-1a: stamps on disk, digests and
        // seeds depend on these exact constants.
        assert_eq!(fnv1a(0, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(0, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(0, b"foobar"), 0x8594_4171_f739_67e8);
        // Feeding piecewise is the same as hashing the concatenation.
        assert_eq!(fnv1a(fnv1a(0, b"foo"), b"bar"), fnv1a(0, b"foobar"));
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut a = Rng::new(0);
        assert_ne!(a.next_u64(), 0);
    }

    #[test]
    fn ranges_are_inclusive_and_bounded() {
        let mut r = Rng::new(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.u64_in(2, 5);
            assert!((2..=5).contains(&v));
            seen_lo |= v == 2;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi);
    }
}
