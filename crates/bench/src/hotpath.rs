//! Side-by-side simulations of the shard ingest hot path, before and after
//! the PR 5 rebuild — the measurement substrate of experiment E13 and
//! `benches/ingest_hotpath.rs`.
//!
//! The engine's per-batch worker loop cannot be A/B-tested in place (the
//! old path is gone), so these two structs replicate each version's
//! per-batch costs out of the same public library pieces, minus the
//! channel/thread plumbing both versions share:
//!
//! * [`LegacyShardLoop`] — the seed behaviour: an allocating `build_hist`
//!   per batch for the Misra–Gries update, a **second** histogram pass
//!   inside `Mutex<ParallelCountMin>::process_minibatch` (the seed never
//!   shared the histogram with the sketch), and an `O(1/ε)`
//!   `tracked_items()` clone published through an `RwLock` write after
//!   **every** batch.
//! * [`HotShardLoop`] — the rebuilt path: one histogram into reused
//!   scratch shared by both summaries, relaxed-atomic Count-Min adds, and
//!   lazy `ArcCell` publication only when the summary's membership
//!   changes.
//!
//! Both expose the same `ingest` shape so harnesses drive them
//! identically; `finish` publishes any pending snapshot so queries against
//! either see final state.

use psfa::prelude::*;
use psfa::primitives::{build_hist, build_hist_into, HistogramEntry};
use std::sync::{Arc, Mutex, RwLock};

/// Heavy-hitter/Count-Min parameters shared by both loops (the engine's
/// defaults, i.e. what E9 measured the seed with).
#[derive(Debug, Clone, Copy)]
pub struct HotPathParams {
    /// Heavy-hitter threshold φ.
    pub phi: f64,
    /// Misra–Gries error ε.
    pub epsilon: f64,
    /// Count-Min error.
    pub cm_epsilon: f64,
    /// Count-Min failure probability.
    pub cm_delta: f64,
    /// Count-Min hash seed.
    pub cm_seed: u64,
}

impl Default for HotPathParams {
    fn default() -> Self {
        Self {
            phi: 0.01,
            epsilon: 0.001,
            cm_epsilon: 0.0005,
            cm_delta: 0.01,
            cm_seed: 0x00C0_FFEE,
        }
    }
}

/// The seed (pre-PR-5) per-batch shard loop; see the module docs.
pub struct LegacyShardLoop {
    hh: InfiniteHeavyHitters,
    count_min: Mutex<ParallelCountMin>,
    snapshot: RwLock<Arc<Vec<(u64, u64)>>>,
    hist_seed: u64,
}

impl LegacyShardLoop {
    /// Builds a loop for one shard.
    pub fn new(shard: usize, params: HotPathParams) -> Self {
        Self {
            hh: InfiniteHeavyHitters::new(params.phi, params.epsilon),
            count_min: Mutex::new(ParallelCountMin::new(
                params.cm_epsilon,
                params.cm_delta,
                params.cm_seed,
            )),
            snapshot: RwLock::new(Arc::new(Vec::new())),
            hist_seed: 0x5eed_0000 ^ shard as u64,
        }
    }

    /// One batch through the seed path: two histogram passes, a mutex'd
    /// sketch update, and an eager `O(1/ε)` clone + `RwLock` publication.
    pub fn ingest(&mut self, minibatch: &[u64]) {
        self.hist_seed = self
            .hist_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        let hist = build_hist(minibatch, self.hist_seed);
        self.hh.process_histogram(&hist, minibatch.len() as u64);
        self.count_min
            .lock()
            .expect("legacy count-min lock poisoned")
            .process_minibatch(minibatch);
        *self
            .snapshot
            .write()
            .expect("legacy snapshot lock poisoned") =
            Arc::new(self.hh.estimator().tracked_items());
    }

    /// No-op (the legacy loop publishes eagerly); here for drive symmetry.
    pub fn finish(&mut self) {}

    /// The published Misra–Gries estimate for `item`.
    pub fn estimate(&self, item: u64) -> u64 {
        self.snapshot
            .read()
            .expect("legacy snapshot lock poisoned")
            .iter()
            .find(|&&(i, _)| i == item)
            .map_or(0, |&(_, e)| e)
    }
}

/// The rebuilt (PR 5) per-batch shard loop; see the module docs.
pub struct HotShardLoop {
    hh: InfiniteHeavyHitters,
    count_min: AtomicCountMin,
    snapshot: ArcCell<Vec<(u64, u64)>>,
    hist_scratch: HistScratch,
    hist: Vec<HistogramEntry>,
    published_entries: usize,
    dirty: bool,
}

impl HotShardLoop {
    /// Builds a loop for one shard. The shard index is unused (the
    /// histogram kernel needs no per-shard seed); it keeps the signature
    /// of [`LegacyShardLoop::new`].
    pub fn new(_shard: usize, params: HotPathParams) -> Self {
        Self {
            hh: InfiniteHeavyHitters::new(params.phi, params.epsilon),
            count_min: AtomicCountMin::new(params.cm_epsilon, params.cm_delta, params.cm_seed),
            snapshot: ArcCell::new(Arc::new(Vec::new())),
            hist_scratch: HistScratch::new(),
            hist: Vec::new(),
            published_entries: 0,
            dirty: false,
        }
    }

    /// One batch through the rebuilt path: one scratch-reused histogram
    /// shared by both summaries, lock-free sketch adds, lazy publication.
    pub fn ingest(&mut self, minibatch: &[u64]) {
        build_hist_into(minibatch, 0, &mut self.hist_scratch, &mut self.hist);
        let cutoff = self
            .hh
            .process_histogram(&self.hist, minibatch.len() as u64);
        self.count_min.ingest_histogram(&self.hist);
        if cutoff > 0 || self.hh.estimator().num_counters() != self.published_entries {
            self.publish();
        } else {
            self.dirty = true;
        }
    }

    fn publish(&mut self) {
        let entries = self.hh.estimator().tracked_items_sorted();
        self.published_entries = entries.len();
        self.dirty = false;
        self.snapshot.set(Arc::new(entries));
    }

    /// Publishes any deferred snapshot (the worker does this when its queue
    /// runs dry or a drain barrier arrives).
    pub fn finish(&mut self) {
        if self.dirty {
            self.publish();
        }
    }

    /// The published Misra–Gries estimate for `item`.
    pub fn estimate(&self, item: u64) -> u64 {
        let snapshot = self.snapshot.get();
        snapshot
            .binary_search_by_key(&item, |&(i, _)| i)
            .map_or(0, |at| snapshot[at].1)
    }

    /// The live Count-Min overestimate for `item`.
    pub fn cm_estimate(&self, item: u64) -> u64 {
        self.count_min.query(item)
    }
}

/// Pre-splits a batch stream across `shards` by hash ownership: one
/// substream of per-batch sub-batches per shard (what the engine's router
/// does before the per-shard queues — identical input to both loops).
pub fn pre_split(batches: &[Vec<u64>], shards: usize) -> Vec<Vec<Vec<u64>>> {
    let mut per_shard: Vec<Vec<Vec<u64>>> = (0..shards).map(|_| Vec::new()).collect();
    for batch in batches {
        for (shard, part) in partition_by_key(batch, shards).into_iter().enumerate() {
            per_shard[shard].push(part);
        }
    }
    per_shard
}

/// Drives one loop per shard on its pre-split substream, all shards on
/// their own threads, and returns items-per-second over the wall time from
/// first spawn to last join (the same measurement shape E9 uses for the
/// engine).
pub fn drive_shards<L: Send>(
    per_shard: &[Vec<Vec<u64>>],
    build: impl Fn(usize) -> L + Sync,
    ingest: impl Fn(&mut L, &[u64]) + Sync + Copy + Send,
    finish: impl Fn(&mut L) + Sync + Copy + Send,
) -> f64 {
    let items: usize = per_shard.iter().flat_map(|s| s.iter().map(Vec::len)).sum();
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for (shard, substream) in per_shard.iter().enumerate() {
            let mut state = build(shard);
            scope.spawn(move || {
                for batch in substream {
                    ingest(&mut state, batch);
                }
                finish(&mut state);
            });
        }
    });
    items as f64 / start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn both_loops_satisfy_the_one_sided_bound() {
        let params = HotPathParams {
            phi: 0.05,
            epsilon: 0.01,
            cm_epsilon: 0.005,
            ..HotPathParams::default()
        };
        let mut legacy = LegacyShardLoop::new(0, params);
        let mut hot = HotShardLoop::new(0, params);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut generator = ZipfGenerator::new(10_000, 1.3, 5);
        let mut m = 0u64;
        for _ in 0..20 {
            let batch = generator.next_minibatch(3_000);
            for &x in &batch {
                *truth.entry(x).or_insert(0) += 1;
            }
            m += batch.len() as u64;
            legacy.ingest(&batch);
            hot.ingest(&batch);
        }
        legacy.finish();
        hot.finish();
        let slack = (params.epsilon * m as f64).ceil() as u64;
        for (&item, &f) in &truth {
            for est in [legacy.estimate(item), hot.estimate(item)] {
                assert!(est <= f, "estimate {est} above truth {f}");
                assert!(est + slack >= f, "estimate {est} under {f} by more than εm");
            }
            assert!(hot.cm_estimate(item) >= f, "count-min underestimated");
        }
    }

    #[test]
    fn pre_split_covers_every_item() {
        let batches = vec![vec![1u64, 2, 3, 4, 5]; 3];
        let split = pre_split(&batches, 2);
        let total: usize = split.iter().flat_map(|s| s.iter().map(Vec::len)).sum();
        assert_eq!(total, 15);
        assert!(split.iter().all(|s| s.len() == 3));
    }
}
