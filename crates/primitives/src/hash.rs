//! Seeded hash families.
//!
//! Two constructions are provided:
//!
//! * [`MultiplyShiftHash`] — the classic multiply–shift scheme mapping 64-bit
//!   keys into a power-of-two range. It is 2-universal and cheap.
//! * [`PolynomialHash`] — degree-(k−1) polynomial hashing over the Mersenne
//!   prime `2^61 − 1`, giving a k-wise independent family. The Count-Min
//!   and Count-Sketch rows (Section 6) use `k = 2`, the pairwise
//!   independence the paper requires; the parallel `buildHist`
//!   (Theorem 2.3) asks for an `O(log µ)`-wise independent family so that
//!   the balls-and-bins argument bounding the per-bucket distinct count
//!   goes through, and uses `k = 8`. The coefficients are stored inline
//!   (`k ≤` [`MAX_INDEPENDENCE`]), so every sketch row evaluates its hash
//!   without a heap indirection.
//!
//! Both families are deterministic functions of their seed, so experiments
//! are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The Mersenne prime `2^61 − 1` used for polynomial hashing.
pub const MERSENNE_61: u64 = (1 << 61) - 1;

/// A seeded hash function from `u64` keys to a bounded range.
pub trait HashFamily: Send + Sync {
    /// Hashes `key` into `0..self.range()`.
    fn hash(&self, key: u64) -> u64;

    /// Exclusive upper bound of the hash output.
    fn range(&self) -> u64;
}

/// 2-universal multiply–shift hashing into a power-of-two range.
#[derive(Debug, Clone)]
pub struct MultiplyShiftHash {
    a: u64,
    b: u64,
    out_bits: u32,
}

impl MultiplyShiftHash {
    /// Creates a hash function into `0..2^out_bits` seeded from `rng`.
    ///
    /// # Panics
    /// Panics if `out_bits` is 0 or greater than 63.
    pub fn new<R: RngCore>(out_bits: u32, rng: &mut R) -> Self {
        assert!(
            (1..=63).contains(&out_bits),
            "MultiplyShiftHash: out_bits must be in 1..=63"
        );
        // `a` must be odd for the multiply-shift family.
        let a = rng.next_u64() | 1;
        let b = rng.next_u64();
        Self { a, b, out_bits }
    }

    /// Creates a hash function into the smallest power of two `>= range`.
    pub fn for_range<R: RngCore>(range: u64, rng: &mut R) -> Self {
        let bits = 64 - range.max(2).saturating_sub(1).leading_zeros();
        Self::new(bits.max(1), rng)
    }

    /// Creates a deterministic instance from an integer seed.
    pub fn from_seed(out_bits: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::new(out_bits, &mut rng)
    }
}

impl HashFamily for MultiplyShiftHash {
    fn hash(&self, key: u64) -> u64 {
        self.a
            .wrapping_mul(key)
            .wrapping_add(self.b)
            .wrapping_shr(64 - self.out_bits)
    }

    fn range(&self) -> u64 {
        1u64 << self.out_bits
    }
}

/// Largest independence `k` a [`PolynomialHash`] supports. The
/// coefficients live inline, so a row hash is one flat value.
pub const MAX_INDEPENDENCE: usize = 8;

/// k-wise independent polynomial hashing over the Mersenne prime `2^61 − 1`,
/// reduced into an arbitrary range.
#[derive(Debug, Clone, Copy)]
pub struct PolynomialHash {
    /// Polynomial coefficients, constant term last; only the first `k` are
    /// used, and the degree is `k − 1`.
    coeffs: [u64; MAX_INDEPENDENCE],
    k: usize,
    range: u64,
}

impl PolynomialHash {
    /// Creates a `k`-wise independent hash function into `0..range`.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ MAX_INDEPENDENCE`, or if `range == 0`.
    pub fn new<R: RngCore>(k: usize, range: u64, rng: &mut R) -> Self {
        assert!(
            (1..=MAX_INDEPENDENCE).contains(&k),
            "PolynomialHash: k must be in 1..=MAX_INDEPENDENCE"
        );
        assert!(range >= 1, "PolynomialHash: range must be at least 1");
        let mut coeffs = [0u64; MAX_INDEPENDENCE];
        for c in &mut coeffs[..k] {
            *c = rng.gen_range(0..MERSENNE_61);
        }
        Self { coeffs, k, range }
    }

    /// Creates a deterministic instance from an integer seed.
    pub fn from_seed(k: usize, range: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::new(k, range, &mut rng)
    }
}

/// Multiplication modulo the Mersenne prime `2^61 − 1` without overflow.
#[inline(always)]
fn mul_mod_m61(a: u64, b: u64) -> u64 {
    let prod = (a as u128) * (b as u128);
    let lo = (prod & MERSENNE_61 as u128) as u64;
    let hi = (prod >> 61) as u64;
    reduce_once(lo + hi)
}

/// Maps `s < 2^62` with `s < 2·(2^61 − 1)` into `0..2^61 − 1`.
#[inline(always)]
fn reduce_once(s: u64) -> u64 {
    if s >= MERSENNE_61 {
        s - MERSENNE_61
    } else {
        s
    }
}

impl HashFamily for PolynomialHash {
    #[inline]
    fn hash(&self, key: u64) -> u64 {
        // key mod 2^61 − 1: 2^61 ≡ 1, so fold the top three bits down.
        let x = reduce_once((key & MERSENNE_61) + (key >> 61));
        // Horner evaluation of the degree-(k−1) polynomial at x.
        let acc = self.coeffs[1..self.k]
            .iter()
            .fold(self.coeffs[0], |acc, &c| {
                reduce_once(mul_mod_m61(acc, x) + c)
            });
        acc % self.range
    }

    fn range(&self) -> u64 {
        self.range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiply_shift_in_range() {
        let h = MultiplyShiftHash::from_seed(10, 42);
        assert_eq!(h.range(), 1024);
        for key in 0..10_000u64 {
            assert!(h.hash(key) < 1024);
        }
    }

    #[test]
    fn multiply_shift_for_range_covers_requested_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = MultiplyShiftHash::for_range(1000, &mut rng);
        assert!(h.range() >= 1000);
        assert!(h.range() <= 2048);
    }

    #[test]
    fn multiply_shift_is_deterministic_per_seed() {
        let h1 = MultiplyShiftHash::from_seed(16, 7);
        let h2 = MultiplyShiftHash::from_seed(16, 7);
        let h3 = MultiplyShiftHash::from_seed(16, 8);
        assert_eq!(h1.hash(12345), h2.hash(12345));
        // Different seeds should (overwhelmingly likely) differ somewhere.
        assert!((0..100).any(|k| h1.hash(k) != h3.hash(k)));
    }

    #[test]
    fn polynomial_in_range_and_deterministic() {
        let h = PolynomialHash::from_seed(8, 977, 3);
        let h2 = PolynomialHash::from_seed(8, 977, 3);
        for key in (0..100_000u64).step_by(97) {
            let v = h.hash(key);
            assert!(v < 977);
            assert_eq!(v, h2.hash(key));
        }
    }

    #[test]
    fn polynomial_spreads_keys_roughly_uniformly() {
        let range = 128u64;
        let h = PolynomialHash::from_seed(8, range, 11);
        let mut buckets = vec![0u32; range as usize];
        let keys = 64_000u64;
        for key in 0..keys {
            buckets[h.hash(key) as usize] += 1;
        }
        let expected = keys / range;
        for (i, &c) in buckets.iter().enumerate() {
            assert!(
                (c as u64) > expected / 4 && (c as u64) < expected * 4,
                "bucket {i} wildly unbalanced: {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn mul_mod_m61_matches_u128_reference() {
        let cases = [
            (0u64, 0u64),
            (1, MERSENNE_61 - 1),
            (MERSENNE_61 - 1, MERSENNE_61 - 1),
            (123456789, 987654321),
            (1 << 60, (1 << 60) + 12345),
        ];
        for &(a, b) in &cases {
            let want = ((a as u128 * b as u128) % MERSENNE_61 as u128) as u64;
            assert_eq!(mul_mod_m61(a, b), want, "a={a} b={b}");
        }
    }

    /// The textbook Horner loop over a heap coefficient list, reducing
    /// with `%` at every step.
    fn reference_hash(coeffs: &[u64], range: u64, key: u64) -> u64 {
        let x = key % MERSENNE_61;
        let mut acc = 0u64;
        for &c in coeffs {
            acc = ((acc as u128 * x as u128 + c as u128) % MERSENNE_61 as u128) as u64;
        }
        acc % range
    }

    #[test]
    fn polynomial_matches_the_generic_horner_loop() {
        let keys = [
            0,
            1,
            MERSENNE_61 - 1,
            MERSENNE_61,
            MERSENNE_61 + 1,
            u64::MAX,
            1 << 63,
        ];
        for k in [1usize, 2, 3, 8] {
            for (seed, range) in [(1u64, 5437u64), (2, 2), (3, 1 << 20), (4, u64::MAX)] {
                let mut rng = StdRng::seed_from_u64(seed);
                let coeffs: Vec<u64> = (0..k).map(|_| rng.gen_range(0..MERSENNE_61)).collect();
                let h = PolynomialHash::from_seed(k, range, seed);
                let mut state = seed;
                let random = (0..2_000).map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state
                });
                for key in keys.into_iter().chain(random) {
                    assert_eq!(
                        h.hash(key),
                        reference_hash(&coeffs, range, key),
                        "k={k} range={range} key={key}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "MAX_INDEPENDENCE")]
    fn polynomial_rejects_independence_above_the_inline_bound() {
        let _ = PolynomialHash::from_seed(MAX_INDEPENDENCE + 1, 16, 0);
    }

    #[test]
    #[should_panic(expected = "out_bits")]
    fn multiply_shift_rejects_zero_bits() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = MultiplyShiftHash::new(0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "range")]
    fn polynomial_rejects_zero_range() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = PolynomialHash::new(4, 0, &mut rng);
    }
}
