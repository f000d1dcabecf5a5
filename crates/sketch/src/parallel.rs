//! Parallel Count-Min minibatch ingestion (Theorem 6.1).
//!
//! Instead of touching the sketch once per stream element, the minibatch is
//! first collapsed into a histogram with `buildHist` (Theorem 2.3); then
//! every row, in parallel, adds each distinct item's count to its column —
//! one task per row, so no two tasks write the same counter. Work per
//! minibatch is `O(µ + p·d)` for `p` distinct items; point queries take
//! `O(d)` work with an `O(log d)`-depth parallel min-reduction.

use psfa_primitives::codec::{put_header, ByteReader, ByteWriter, CodecError};
use psfa_primitives::{build_hist, HistogramEntry};
use rayon::prelude::*;

use crate::count_min::CountMinSketch;

/// Type tag for encoded parallel Count-Min sketches (see
/// `psfa_primitives::codec`).
const TAG: u8 = 0x08;
const VERSION: u8 = 1;

/// A Count-Min sketch driven by minibatches, wrapping [`CountMinSketch`] with
/// the parallel update of Section 6.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelCountMin {
    sketch: CountMinSketch,
    seed: u64,
}

impl ParallelCountMin {
    /// Creates a sketch for error `ε` and failure probability `δ`.
    pub fn new(epsilon: f64, delta: f64, seed: u64) -> Self {
        Self {
            sketch: CountMinSketch::new(epsilon, delta, seed),
            seed,
        }
    }

    /// Wraps an existing sequential sketch.
    pub fn from_sketch(sketch: CountMinSketch) -> Self {
        Self {
            sketch,
            seed: 0x1234_5678,
        }
    }

    /// Wraps an existing sequential sketch with an explicit per-minibatch
    /// histogram seed (state rehydration from [`crate::AtomicCountMin`]).
    pub fn from_sketch_with_seed(sketch: CountMinSketch, seed: u64) -> Self {
        Self { sketch, seed }
    }

    /// The per-minibatch histogram seed (advances on every
    /// [`ParallelCountMin::process_minibatch`]; callers feeding pre-built
    /// histograms never advance it).
    pub fn histogram_seed(&self) -> u64 {
        self.seed
    }

    /// Read-only access to the underlying sketch.
    pub fn sketch(&self) -> &CountMinSketch {
        &self.sketch
    }

    /// Incorporates a minibatch of item identifiers.
    pub fn process_minibatch(&mut self, minibatch: &[u64]) {
        if minibatch.is_empty() {
            return;
        }
        self.seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        let hist = build_hist(minibatch, self.seed);
        self.ingest_histogram(&hist);
    }

    /// Incorporates a pre-computed histogram (useful when the caller already
    /// ran `buildHist`, e.g. a pipeline stage shared with other aggregates).
    pub fn ingest_histogram(&mut self, hist: &[HistogramEntry]) {
        self.sketch.add_histogram(hist);
    }

    /// Point query: an overestimate of `item`'s frequency, computed with a
    /// parallel min-reduction over the rows.
    pub fn query(&self, item: u64) -> u64 {
        (0..self.sketch.depth())
            .into_par_iter()
            .map(|row| self.sketch.counters()[row][self.sketch.column(row, item)])
            .min()
            .unwrap_or(0)
    }

    /// Total mass inserted so far.
    pub fn total(&self) -> u64 {
        self.sketch.total()
    }

    /// Merges another sketch (same `(ε, δ, seed)`) into this one; see
    /// [`CountMinSketch::merge`].
    ///
    /// # Panics
    /// Panics if the sketches' dimensions or hash functions differ.
    pub fn merge(&mut self, other: &ParallelCountMin) {
        self.sketch.merge(other.sketch());
    }

    /// Canonical binary encoding, appended to `w`. The per-minibatch
    /// histogram seed is included, so a decoded sketch continues the stream
    /// exactly as the original would have.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        put_header(w, TAG, VERSION);
        w.put_u64(self.seed);
        self.sketch.encode_into(w);
    }

    /// Canonical binary encoding as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a sketch previously written by
    /// [`ParallelCountMin::encode_into`] (never panics on corrupted input).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.expect_header(TAG, VERSION)?;
        let seed = r.get_u64()?;
        let sketch = CountMinSketch::decode_from(r)?;
        Ok(Self { sketch, seed })
    }

    /// Decodes a sketch from a standalone buffer produced by
    /// [`ParallelCountMin::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let out = Self::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(out)
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
    fn parallel_and_sequential_updates_agree_exactly() {
        // Driving the same sketch (same seeds) per-element or per-minibatch
        // must produce identical counter arrays.
        let mut seq = CountMinSketch::new(0.01, 0.02, 42);
        let mut par = ParallelCountMin::from_sketch(CountMinSketch::new(0.01, 0.02, 42));
        let mut rng = Lcg(1);
        for _ in 0..20 {
            let batch: Vec<u64> = (0..500).map(|_| rng.next() % 300).collect();
            for &x in &batch {
                seq.update(x, 1);
            }
            par.process_minibatch(&batch);
        }
        assert_eq!(seq.counters(), par.sketch().counters());
        assert_eq!(seq.total(), par.total());
        for item in 0..300u64 {
            assert_eq!(seq.query(item), par.query(item));
        }
    }

    #[test]
    fn theorem_6_1_accuracy() {
        let epsilon = 0.002;
        let delta = 0.01;
        let mut par = ParallelCountMin::new(epsilon, delta, 7);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = Lcg(3);
        for _ in 0..40 {
            let batch: Vec<u64> = (0..1000)
                .map(|_| {
                    let r = rng.next();
                    if r.is_multiple_of(2) {
                        r % 10
                    } else {
                        10 + r % 5000
                    }
                })
                .collect();
            for &x in &batch {
                *truth.entry(x).or_insert(0) += 1;
            }
            par.process_minibatch(&batch);
        }
        let m = par.total();
        let bound = (epsilon * m as f64).ceil() as u64;
        let mut violations = 0usize;
        for (&item, &f) in &truth {
            let q = par.query(item);
            assert!(q >= f, "Count-Min must never underestimate");
            if q > f + bound {
                violations += 1;
            }
        }
        assert!(
            violations <= truth.len() / 20,
            "{violations}/{} items exceeded εm",
            truth.len()
        );
    }

    #[test]
    fn empty_minibatch_is_noop() {
        let mut par = ParallelCountMin::new(0.1, 0.1, 1);
        par.process_minibatch(&[]);
        assert_eq!(par.total(), 0);
    }

    #[test]
    fn merged_shards_answer_like_one_sketch() {
        // Partition a stream across 4 "shards" with independent sketches
        // (same seed), merge, and compare against one sketch that saw it all.
        let mut whole = ParallelCountMin::new(0.01, 0.01, 77);
        let mut shards: Vec<ParallelCountMin> = (0..4)
            .map(|_| ParallelCountMin::new(0.01, 0.01, 77))
            .collect();
        let mut rng = Lcg(5);
        for _ in 0..10 {
            let batch: Vec<u64> = (0..2000).map(|_| rng.next() % 500).collect();
            whole.process_minibatch(&batch);
            let mut parts: Vec<Vec<u64>> = vec![Vec::new(); 4];
            for &x in &batch {
                parts[(x % 4) as usize].push(x);
            }
            for (shard, part) in shards.iter_mut().zip(&parts) {
                shard.process_minibatch(part);
            }
        }
        let mut merged = shards.swap_remove(0);
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged.total(), whole.total());
        assert_eq!(merged.sketch().counters(), whole.sketch().counters());
        for item in 0..500u64 {
            assert_eq!(merged.query(item), whole.query(item));
        }
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn merge_rejects_mismatched_seeds() {
        let mut a = ParallelCountMin::new(0.01, 0.01, 1);
        let b = ParallelCountMin::new(0.01, 0.01, 2);
        a.merge(&b);
    }

    #[test]
    fn histogram_ingestion_matches_expanded_stream() {
        let mut a = ParallelCountMin::new(0.05, 0.05, 9);
        let mut b = ParallelCountMin::new(0.05, 0.05, 9);
        let hist = vec![
            HistogramEntry { item: 1, count: 5 },
            HistogramEntry { item: 2, count: 3 },
        ];
        a.ingest_histogram(&hist);
        b.process_minibatch(&[1, 1, 1, 1, 1, 2, 2, 2]);
        assert_eq!(a.sketch().counters(), b.sketch().counters());
    }
}
