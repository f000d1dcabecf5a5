//! Lock-free concurrent Count-Min: single-writer relaxed-atomic counters.
//!
//! [`crate::ParallelCountMin`] is a plain-memory sketch: sharing it between
//! an ingesting shard worker and concurrent point queries requires a mutex,
//! which serialises the worker's `O((µ + w)·d)` batch update against every
//! `O(d)` query. [`AtomicCountMin`] removes it by storing the counter
//! matrix as [`AtomicU64`]s:
//!
//! * the **single** writer adds histogram counts with a relaxed load and a
//!   relaxed store per `(row, distinct item)` — no read-modify-write, so no
//!   `lock`-prefixed instruction on the ingest path;
//! * readers take **relaxed** loads and the row-wise minimum, with no
//!   synchronisation against the writer at all.
//!
//! Each sketch has exactly one writer: the shard worker that owns it, or a
//! thread-local producer's own substream. The writer role may pass to
//! another thread only through a happens-before edge (a channel send, a
//! join). Debug builds assert one writer at a time with a flag that every
//! [`AtomicCountMin::ingest_histogram`] sets and clears.
//!
//! ## Why relaxed ordering preserves the Count-Min guarantee
//!
//! Count-Min's contract is one-sided: a point query must **never
//! underestimate** the true frequency of the stream prefix it answers for,
//! and overestimates by at most `ε·m` (w.h.p.). Both sides survive relaxed
//! atomics:
//!
//! * **No increment is lost, because there is one writer.** Only the
//!   writer stores to a counter, and it loads the value it wrote last
//!   (program order on one thread), so load + store never races another
//!   update. Every counter is monotonically non-decreasing, and the
//!   writer's own reads (e.g. a persistence clone on the worker thread)
//!   are exact.
//! * **A read observes some prefix of each counter's updates.** Each
//!   counter is a single atomic word, written only with larger values, so
//!   a reader sees one of those values — never a torn or older-than-seen
//!   one. A concurrent query may see row `i` already updated by a batch
//!   and row `j` not yet; every counter the min inspects holds at least
//!   the mass of the prefix it has seen, and that prefix contains every
//!   batch the reader has synchronised with, so the answer stays an
//!   overestimate of the item's frequency over that prefix.
//! * **The upper bound is inherited.** Counters never exceed what the
//!   plain-memory sketch would hold after the same updates, so
//!   `f̂ ≤ f + ε·m` holds with the same probability once the writer's
//!   updates are visible (e.g. after a queue drain, or via the engine's
//!   snapshot-publication `Release`/`Acquire` edge, which orders the
//!   relaxed stores of every batch at or before the snapshot's epoch
//!   before any reader that loaded that snapshot).

use std::sync::atomic::{AtomicU64, Ordering};

use psfa_primitives::{HashFamily, HistogramEntry, PolynomialHash};

use crate::count_min::CountMinSketch;
use crate::parallel::ParallelCountMin;

/// A Count-Min sketch whose counters are relaxed atomics: one writer
/// ingests minibatch histograms through `&self` while any number of
/// readers run point queries concurrently, lock-free (see the module docs
/// for the memory-ordering argument).
#[derive(Debug)]
pub struct AtomicCountMin {
    epsilon: f64,
    delta: f64,
    seed: u64,
    /// Histogram seed carried for codec continuity with
    /// [`ParallelCountMin`] (this type ingests pre-built histograms, so the
    /// seed is never advanced here).
    hist_seed: u64,
    width: usize,
    depth: usize,
    /// Row-major `depth × width` counter matrix.
    counters: Vec<AtomicU64>,
    hashes: Vec<PolynomialHash>,
    /// Total mass added (`m`); advanced after the counter stores, so it
    /// trails them — a reader never sees a total ahead of the counters.
    total: AtomicU64,
    /// Set while a writer is inside [`AtomicCountMin::ingest_histogram`]
    /// (debug builds only), to catch a second, concurrent writer.
    #[cfg(debug_assertions)]
    writing: std::sync::atomic::AtomicBool,
}

/// Debug-build guard asserting one writer at a time: sets the writer flag
/// on entry and clears it on drop, so an unwinding writer clears it too.
#[cfg(debug_assertions)]
struct SoleWriter<'a>(&'a std::sync::atomic::AtomicBool);

#[cfg(debug_assertions)]
impl<'a> SoleWriter<'a> {
    fn enter(flag: &'a std::sync::atomic::AtomicBool) -> Self {
        assert!(
            !flag.swap(true, Ordering::Acquire),
            "AtomicCountMin: concurrent writers (the sketch is single-writer)"
        );
        Self(flag)
    }
}

#[cfg(debug_assertions)]
impl Drop for SoleWriter<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl AtomicCountMin {
    /// Creates an empty sketch for error `ε` and failure probability `δ`,
    /// dimensioned and hashed exactly like
    /// [`CountMinSketch::new`] with the same arguments (so snapshots taken
    /// with [`AtomicCountMin::to_parallel`] stay mergeable with any sketch
    /// built from the same `(ε, δ, seed)`).
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1` and `0 < δ < 1`.
    pub fn new(epsilon: f64, delta: f64, seed: u64) -> Self {
        Self::from_parallel(&ParallelCountMin::new(epsilon, delta, seed))
    }

    /// Builds an atomic sketch holding exactly the state of `sketch`
    /// (crash recovery: the persisted [`ParallelCountMin`] is rehydrated
    /// into the shared atomic matrix).
    pub fn from_parallel(sketch: &ParallelCountMin) -> Self {
        let inner = sketch.sketch();
        let counters = inner
            .counters()
            .iter()
            .flat_map(|row| row.iter().map(|&c| AtomicU64::new(c)))
            .collect();
        let depth = inner.depth();
        let hashes = (0..depth).map(|row| *inner.row_hash(row)).collect();
        Self {
            epsilon: inner.epsilon(),
            delta: inner.delta(),
            seed: inner.seed(),
            hist_seed: sketch.histogram_seed(),
            width: inner.width(),
            depth,
            counters,
            hashes,
            total: AtomicU64::new(inner.total()),
            #[cfg(debug_assertions)]
            writing: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Snapshots the atomic matrix into a plain [`ParallelCountMin`]
    /// (persistence, cross-shard merging). Called by the single writer, the
    /// snapshot is exact; called concurrently with the writer, it holds
    /// some recent value of every counter — still a valid Count-Min of a
    /// recent prefix per the module docs.
    pub fn to_parallel(&self) -> ParallelCountMin {
        let rows: Vec<Vec<u64>> = (0..self.depth)
            .map(|row| {
                self.row(row)
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect()
            })
            .collect();
        let sketch = CountMinSketch::from_parts(
            self.epsilon,
            self.delta,
            self.seed,
            self.total.load(Ordering::Relaxed),
            rows,
        );
        ParallelCountMin::from_sketch_with_seed(sketch, self.hist_seed)
    }

    fn row(&self, row: usize) -> &[AtomicU64] {
        &self.counters[row * self.width..(row + 1) * self.width]
    }

    /// Adds one minibatch's histogram: one relaxed load + store per
    /// `(row, distinct item)` and no allocation. `&self`, so readers query
    /// concurrently — but there must be only one writer (see the module
    /// docs; debug builds assert it).
    pub fn ingest_histogram(&self, hist: &[HistogramEntry]) {
        if hist.is_empty() {
            return;
        }
        #[cfg(debug_assertions)]
        let _writer = SoleWriter::enter(&self.writing);
        for (row, hash) in self.hashes.iter().enumerate() {
            let counters = self.row(row);
            for entry in hist {
                let counter = &counters[hash.hash(entry.item) as usize];
                counter.store(
                    counter.load(Ordering::Relaxed) + entry.count,
                    Ordering::Relaxed,
                );
            }
        }
        let added: u64 = hist.iter().map(|e| e.count).sum();
        self.total.store(
            self.total.load(Ordering::Relaxed) + added,
            Ordering::Relaxed,
        );
    }

    /// Lock-free point query: the row-wise minimum under relaxed loads —
    /// an overestimate of `item`'s frequency in every fully visible prefix
    /// and never more than `f + ε·m` (w.h.p.) over the whole stream.
    pub fn query(&self, item: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.row(row)[self.hashes[row].hash(item) as usize].load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }

    /// Total mass the writer has recorded so far (trails the counters; see
    /// the field docs).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The failure probability δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The hash seed the rows were derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn hist_of(batch: &[u64]) -> Vec<HistogramEntry> {
        let mut counts = std::collections::HashMap::new();
        for &x in batch {
            *counts.entry(x).or_insert(0u64) += 1;
        }
        counts
            .into_iter()
            .map(|(item, count)| HistogramEntry { item, count })
            .collect()
    }

    #[test]
    fn matches_the_plain_sketch_exactly() {
        let atomic = AtomicCountMin::new(0.01, 0.02, 42);
        let mut plain = ParallelCountMin::new(0.01, 0.02, 42);
        let mut state = 1u64;
        for _ in 0..20 {
            let batch: Vec<u64> = (0..500)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) % 300
                })
                .collect();
            let hist = hist_of(&batch);
            atomic.ingest_histogram(&hist);
            plain.ingest_histogram(&hist);
        }
        assert_eq!(atomic.total(), plain.total());
        for item in 0..300u64 {
            assert_eq!(atomic.query(item), plain.query(item));
        }
        // The snapshot is byte-equal state: same counters, same params.
        assert_eq!(atomic.to_parallel(), plain);
    }

    #[test]
    fn snapshot_equals_a_parallel_sketch_fed_the_same_histograms() {
        // The engine's histograms (first-occurrence order from the shard
        // kernel), several sketch shapes, skewed and distinct-heavy batches.
        let mut scratch = psfa_primitives::HistScratch::new();
        let mut hist = Vec::new();
        for (epsilon, delta, seed) in [(0.0005, 0.01, 3u64), (0.01, 0.2, 11), (0.3, 0.5, 0)] {
            let atomic = AtomicCountMin::new(epsilon, delta, seed);
            let mut plain = ParallelCountMin::new(epsilon, delta, seed);
            let mut state = seed;
            for batch in 0..30u64 {
                let items: Vec<u64> = (0..1_000)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let r = state >> 20;
                        if batch % 2 == 0 {
                            r % 50
                        } else {
                            r
                        }
                    })
                    .collect();
                psfa_primitives::build_hist_into(&items, batch, &mut scratch, &mut hist);
                atomic.ingest_histogram(&hist);
                plain.ingest_histogram(&hist);
            }
            assert_eq!(atomic.to_parallel(), plain);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "concurrent writers")]
    fn a_second_concurrent_writer_is_caught_in_debug_builds() {
        let sketch = AtomicCountMin::new(0.1, 0.1, 1);
        // Another writer is mid-batch.
        let _other = SoleWriter::enter(&sketch.writing);
        sketch.ingest_histogram(&[HistogramEntry { item: 1, count: 1 }]);
    }

    #[test]
    fn roundtrips_through_parallel_for_recovery() {
        let mut plain = ParallelCountMin::new(0.05, 0.05, 9);
        plain.process_minibatch(&[1, 1, 2, 3, 3, 3]);
        let atomic = AtomicCountMin::from_parallel(&plain);
        assert_eq!(atomic.to_parallel(), plain);
        assert_eq!(atomic.query(3), plain.query(3));
        // The rehydrated sketch keeps ingesting correctly.
        atomic.ingest_histogram(&[HistogramEntry { item: 3, count: 4 }]);
        assert_eq!(atomic.query(3), plain.query(3) + 4);
    }

    #[test]
    fn concurrent_queries_never_observe_lost_increments() {
        // One writer, several readers: every reader's estimate of the single
        // hot item must be monotone and end at the exact total.
        let sketch = Arc::new(AtomicCountMin::new(0.01, 0.01, 7));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let sketch = sketch.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let q = sketch.query(77);
                    assert!(q >= last, "estimate went backwards: {q} < {last}");
                    last = q;
                }
            }));
        }
        let rounds = 2_000u64;
        for _ in 0..rounds {
            sketch.ingest_histogram(&[HistogramEntry { item: 77, count: 3 }]);
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(sketch.query(77), 3 * rounds);
        assert_eq!(sketch.total(), 3 * rounds);
    }
}
