//! Count-Sketch (Charikar–Chen–Farach-Colton) with minibatch ingestion.
//!
//! Included as the natural extension of Section 6: the paper's minibatch
//! technique (histogram + per-row column grouping) applies verbatim to any
//! linear sketch, and Count-Sketch is the one the paper cites alongside
//! Count-Min in its related-work discussion. Unlike Count-Min its estimates
//! are unbiased (they can under- as well as over-estimate).

use psfa_primitives::{build_hist, HashFamily, PolynomialHash};
use rayon::prelude::*;

/// A Count-Sketch: `d` rows of `w` signed counters with pairwise-independent
/// bucket and sign hashes; point queries return the median of the per-row
/// signed estimates.
#[derive(Debug, Clone)]
pub struct CountSketch {
    width: usize,
    depth: usize,
    rows: Vec<Vec<i64>>,
    bucket_hashes: Vec<PolynomialHash>,
    sign_hashes: Vec<PolynomialHash>,
    total: u64,
    seed: u64,
}

impl CountSketch {
    /// Creates a Count-Sketch with `3/ε²` columns and `⌈ln(1/δ)⌉` rows.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1` and `0 < δ < 1`.
    pub fn new(epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let width = ((3.0 / (epsilon * epsilon)).ceil() as usize).max(4);
        let depth = ((1.0 / delta).ln().ceil().max(1.0) as usize) | 1; // odd for a clean median
        let bucket_hashes = (0..depth)
            .map(|i| PolynomialHash::from_seed(2, width as u64, seed ^ (0xB0CE + i as u64)))
            .collect();
        let sign_hashes = (0..depth)
            .map(|i| PolynomialHash::from_seed(2, 2, seed ^ (0x51C4 + i as u64)))
            .collect();
        Self {
            width,
            depth,
            rows: vec![vec![0i64; width]; depth],
            bucket_hashes,
            sign_hashes,
            total: 0,
            seed,
        }
    }

    /// Number of columns per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total mass inserted so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    fn sign(&self, row: usize, item: u64) -> i64 {
        if self.sign_hashes[row].hash(item) == 0 {
            -1
        } else {
            1
        }
    }

    /// Adds `count` occurrences of `item`.
    pub fn update(&mut self, item: u64, count: u64) {
        for row in 0..self.depth {
            let col = self.bucket_hashes[row].hash(item) as usize;
            self.rows[row][col] += self.sign(row, item) * count as i64;
        }
        self.total += count;
    }

    /// Incorporates a minibatch using the histogram + per-row parallel update
    /// of Section 6.
    pub fn process_minibatch(&mut self, minibatch: &[u64]) {
        if minibatch.is_empty() {
            return;
        }
        self.seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        let hist = build_hist(minibatch, self.seed);
        // One task per row, so no two tasks write the same counter.
        self.rows
            .par_iter_mut()
            .zip(self.bucket_hashes.iter().zip(&self.sign_hashes))
            .for_each(|(row, (bucket, sign))| {
                for e in &hist {
                    let count = e.count as i64;
                    row[bucket.hash(e.item) as usize] += if sign.hash(e.item) == 0 {
                        -count
                    } else {
                        count
                    };
                }
            });
        self.total += minibatch.len() as u64;
    }

    /// Point query: the median of the per-row signed estimates (may be
    /// negative for items never seen; callers typically clamp at zero).
    pub fn query(&self, item: u64) -> i64 {
        let mut estimates: Vec<i64> = (0..self.depth)
            .map(|row| {
                let col = self.bucket_hashes[row].hash(item) as usize;
                self.sign(row, item) * self.rows[row][col]
            })
            .collect();
        estimates.sort_unstable();
        estimates[estimates.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn sequential_and_minibatch_agree() {
        let mut a = CountSketch::new(0.05, 0.05, 5);
        let mut b = CountSketch::new(0.05, 0.05, 5);
        let mut rng = Lcg(2);
        let stream: Vec<u64> = (0..5000).map(|_| rng.next() % 100).collect();
        for &x in &stream {
            a.update(x, 1);
        }
        for chunk in stream.chunks(512) {
            b.process_minibatch(chunk);
        }
        for item in 0..100u64 {
            assert_eq!(a.query(item), b.query(item));
        }
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn heavy_items_estimated_reasonably() {
        let epsilon = 0.05;
        let mut cs = CountSketch::new(epsilon, 0.01, 9);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = Lcg(7);
        for _ in 0..20 {
            let batch: Vec<u64> = (0..1000)
                .map(|_| {
                    let r = rng.next();
                    if r.is_multiple_of(2) {
                        r % 5
                    } else {
                        5 + r % 2000
                    }
                })
                .collect();
            for &x in &batch {
                *truth.entry(x).or_insert(0) += 1;
            }
            cs.process_minibatch(&batch);
        }
        let m = cs.total() as f64;
        // For the five heavy items the error should be within ~ε·m.
        for item in 0..5u64 {
            let f = truth[&item] as i64;
            let q = cs.query(item);
            let err = (q - f).abs() as f64;
            assert!(
                err <= epsilon * m + 1.0,
                "item {item}: err {err} too large (m={m})"
            );
        }
    }

    #[test]
    fn unseen_item_estimate_is_near_zero() {
        let mut cs = CountSketch::new(0.05, 0.01, 13);
        cs.process_minibatch(&(0..2000u64).collect::<Vec<_>>());
        let q = cs.query(1_000_000);
        assert!(q.abs() <= (0.05 * 2000.0) as i64 + 1);
    }

    #[test]
    fn depth_is_odd_for_median() {
        for delta in [0.5, 0.1, 0.01, 0.001] {
            let cs = CountSketch::new(0.1, delta, 1);
            assert_eq!(cs.depth() % 2, 1);
        }
    }
}
