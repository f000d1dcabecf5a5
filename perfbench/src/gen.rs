//! Seeded input generation. The benchmark owns its generators so that the
//! same seed gives the same inputs whatever the program under test does.

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The SplitMix64 finalizer: a bijection on `u64`.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(α) over ranks `0..universe` by inversion of the cumulative table.
/// A guide table narrows each binary search to the ranks whose cumulative
/// mass falls in one of `GUIDE` equal slices of `[0, 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

const GUIDE: usize = 1 << 16;

impl Zipf {
    pub fn new(universe: usize, alpha: f64) -> Self {
        let mut cdf = Vec::with_capacity(universe);
        let mut acc = 0.0;
        for rank in 0..universe {
            acc += ((rank + 1) as f64).powf(-alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut guide = Vec::with_capacity(GUIDE + 1);
        let mut rank = 0usize;
        for slice in 0..=GUIDE {
            let u = slice as f64 / GUIDE as f64;
            while rank + 1 < universe && cdf[rank] < u {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Zipf { cdf, guide }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let slice = (u * GUIDE as f64) as usize;
        let lo = self.guide[slice] as usize;
        let hi = self.guide[slice + 1] as usize;
        let within = self.cdf[lo..=hi].partition_point(|&c| c < u);
        (lo + within).min(self.cdf.len() - 1) as u64
    }
}

/// Key distributions of the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// Zipf α = 1.2 over 10⁶ keys. Ranks map to keys by a fixed bijection,
    /// so every seed draws from the same key popularity (the same hot keys,
    /// hence the same shard placement) and only the sampled sequence
    /// changes with the seed.
    Zipf,
    /// Uniform over `0..2³²`.
    Uniform,
}

pub const ZIPF_UNIVERSE: usize = 1_000_000;
pub const ZIPF_ALPHA: f64 = 1.2;
const ZIPF_KEY_SALT: u64 = 0x5053_4641_6265_6e63;

/// `count` batches of `size` keys drawn from `keys`, a pure function of
/// `seed`.
pub fn batches(keys: Keys, seed: u64, count: usize, size: usize) -> Vec<Vec<u64>> {
    let mut rng = Rng::new(seed);
    match keys {
        Keys::Zipf => {
            let zipf = Zipf::new(ZIPF_UNIVERSE, ZIPF_ALPHA);
            (0..count)
                .map(|_| {
                    (0..size)
                        .map(|_| mix(zipf.sample(&mut rng) ^ ZIPF_KEY_SALT))
                        .collect()
                })
                .collect()
        }
        Keys::Uniform => (0..count)
            .map(|_| (0..size).map(|_| rng.next_u64() >> 32).collect())
            .collect(),
    }
}

/// `count` keys drawn from the generated batches, for point queries.
pub fn probe_keys(batches: &[Vec<u64>], seed: u64, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x7072_6f62_6573);
    (0..count)
        .map(|_| {
            let batch = &batches[rng.below(batches.len() as u64) as usize];
            batch[rng.below(batch.len() as u64) as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            batches(Keys::Zipf, 7, 2, 100),
            batches(Keys::Zipf, 7, 2, 100)
        );
        assert_ne!(
            batches(Keys::Uniform, 7, 1, 100),
            batches(Keys::Uniform, 8, 1, 100)
        );
    }

    #[test]
    fn zipf_head_has_the_expected_mass() {
        // Rank 0 of Zipf(1.2) over 10⁶ ranks has probability ≈ 0.18.
        let zipf = Zipf::new(ZIPF_UNIVERSE, ZIPF_ALPHA);
        let mut rng = Rng::new(1);
        let n = 200_000;
        let head = (0..n).filter(|_| zipf.sample(&mut rng) == 0).count();
        let share = head as f64 / n as f64;
        assert!((0.17..0.20).contains(&share), "head share {share}");
    }
}
