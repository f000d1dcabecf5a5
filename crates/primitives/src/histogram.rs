//! Histogram construction (`buildHist`, Theorem 2.3).
//!
//! Given a minibatch of item identifiers, `buildHist` returns the distinct
//! items together with their frequencies in `O(µ)` expected work.
//!
//! * [`build_hist`] is Theorem 2.3 as written, with polylogarithmic depth:
//!   items are hashed into a range `R = O(µ)` with an `O(log µ)`-wise
//!   independent family, grouped by hash value using the linear-work
//!   integer sort (Theorem 2.2), and each bucket is then collapsed with the
//!   `collectBin` routine, whose cost is proportional to (bucket size ×
//!   distinct items in the bucket) — `O(µ)` in expectation by the
//!   balls-and-bins argument. The experiments and the tests use it.
//! * [`build_hist_into`] is the sequential kernel every shard worker runs:
//!   one pass over a reused linear-probing table keyed by simple
//!   tabulation hashing, with tables drawn from per-process randomness so
//!   that wire clients cannot aim keys at one probe chain. With simple
//!   tabulation, linear probing takes
//!   `O(1)` expected probes per operation (Pătraşcu–Thorup, "The Power of
//!   Simple Tabulation Hashing"), so the kernel keeps the `O(µ)`
//!   expected-work bound with a much smaller constant factor.
//!
//! [`build_hist_hashmap`] is a fold/reduce hash-map alternative used as the
//! ablation point of the `hist_ablation` bench (README, "Experiments and
//! benchmarks").

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use rayon::prelude::*;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::hash::{HashFamily, PolynomialHash};
use crate::intsort::sort_indices_by_key;
use crate::SEQ_THRESHOLD;

/// One row of a histogram: a distinct item identifier and its frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramEntry {
    /// Item identifier.
    pub item: u64,
    /// Number of occurrences in the input segment.
    pub count: u64,
}

/// Builds the frequency histogram of `items` (Theorem 2.3).
///
/// The output lists each distinct item exactly once, in unspecified order.
/// `seed` drives the internal hash function; any value gives a correct
/// histogram, the seed only matters for reproducibility of the bucket layout.
pub fn build_hist(items: &[u64], seed: u64) -> Vec<HistogramEntry> {
    let mu = items.len();
    if mu == 0 {
        return Vec::new();
    }
    if mu <= SEQ_THRESHOLD {
        return sequential_hist(items);
    }

    // Hash into a range R = O(µ) (next power of two, at least 16).
    let range = (mu as u64).next_power_of_two().max(16);
    let hasher = PolynomialHash::from_seed(8, range, seed);
    let hashes: Vec<u64> = items.par_iter().map(|&x| hasher.hash(x)).collect();

    // Group identical hash values together with the linear-work integer sort.
    let perm = sort_indices_by_key(&hashes, range);

    // Find bucket boundaries in the sorted order.
    let starts: Vec<usize> = (0..perm.len())
        .into_par_iter()
        .filter(|&i| i == 0 || hashes[perm[i] as usize] != hashes[perm[i - 1] as usize])
        .collect();

    // Collapse every bucket in parallel (collectBin).
    let bucket_results: Vec<Vec<HistogramEntry>> = starts
        .par_iter()
        .enumerate()
        .map(|(b, &start)| {
            let end = starts.get(b + 1).copied().unwrap_or(perm.len());
            collect_bin(items, &perm[start..end])
        })
        .collect();

    let mut out = Vec::with_capacity(bucket_results.iter().map(Vec::len).sum());
    for mut v in bucket_results {
        out.append(&mut v);
    }
    out
}

/// `collectBin`: collapses one hash bucket into (item, frequency) pairs.
///
/// The bucket is expected to contain few distinct items (O(log µ) with high
/// probability), so a linear scan per distinct item matches the cost model in
/// the proof of Theorem 2.3.
fn collect_bin(items: &[u64], bucket: &[u32]) -> Vec<HistogramEntry> {
    let mut entries: Vec<HistogramEntry> = Vec::new();
    'outer: for &idx in bucket {
        let item = items[idx as usize];
        for e in entries.iter_mut() {
            if e.item == item {
                e.count += 1;
                continue 'outer;
            }
        }
        entries.push(HistogramEntry { item, count: 1 });
    }
    entries
}

/// Sequential histogram for small inputs.
///
/// The map is sized by a distinct-count guess, not the raw length: a large
/// heavily skewed batch hitting this path (e.g. driven directly by a caller
/// with `SEQ_THRESHOLD`-sized batches of one hot key) holds only a handful
/// of distinct items, and `with_capacity(items.len())` would allocate — and
/// immediately waste — a table for the worst case. The map grows on demand
/// for genuinely distinct-heavy inputs.
fn sequential_hist(items: &[u64]) -> Vec<HistogramEntry> {
    let mut map = std::collections::HashMap::with_capacity(items.len().min(1024));
    for &x in items {
        *map.entry(x).or_insert(0u64) += 1;
    }
    map.into_iter()
        .map(|(item, count)| HistogramEntry { item, count })
        .collect()
}

/// Simple tabulation hashing of a 64-bit key: one table of random words
/// per key byte, XORed together.
type Tabulation = [[u64; 256]; 8];

fn tabulation_hash(tables: &Tabulation, key: u64) -> u64 {
    tables
        .iter()
        .zip(key.to_le_bytes())
        .fold(0, |h, (table, byte)| h ^ table[byte as usize])
}

/// Reusable state for [`build_hist_into`]: the tabulation tables, the
/// linear-probing table and the list of slots the current call filled.
/// Every buffer only grows, so after a warm-up batch of the largest size
/// repeated calls perform **zero heap allocations**.
#[derive(Debug, Default)]
pub struct HistScratch {
    /// Tabulation tables, drawn once, on first use, from per-process
    /// randomness mixed with the first seed passed to [`build_hist_into`].
    tables: Option<Box<Tabulation>>,
    /// Linear-probing table of `1 + index` of the item's row in the
    /// output (`0` = empty), all empty between calls. Its power-of-two
    /// length is the largest batch's; each call probes only the prefix
    /// sized for its own batch.
    slots: Vec<u32>,
    /// Slots filled by the current call, emptied again before it returns.
    /// (Deleting slots one by one in place would break probe chains.)
    used: Vec<u32>,
}

impl HistScratch {
    /// Creates empty scratch; buffers are sized lazily by the first batches.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sequential variant of [`build_hist`] for per-shard ingest: writes the
/// histogram of `items` into `out` (cleared first), drawing every buffer
/// from `scratch`.
///
/// Produces the same multiset of [`HistogramEntry`] rows as [`build_hist`],
/// in **first-occurrence order**, so the output does not depend on any
/// hash function. One pass inserts each item into a linear-probing table
/// of at least `2µ` slots (load ≤ ½) keyed by simple tabulation hashing —
/// `O(1)` expected probes per item, `O(µ)` expected work — and then resets
/// only the slots it filled.
///
/// The tabulation tables are drawn on the first call with a given
/// `scratch`, from per-process randomness mixed with `seed`, and kept for
/// the life of the scratch: re-deriving 2048 random words per batch would
/// cost more than hashing a small batch. Keys arrive over the wire, so the
/// tables must not be computable offline — a client that knew them could
/// send keys that share their slot bits and make every batch cost
/// `O(µ²)` probes. The output never depends on the tables or on `seed`.
///
/// It is deliberately sequential: the sharded engine already runs one
/// worker per core, so intra-batch parallelism inside a shard would only
/// fight the other shards for cores.
///
/// # Panics
/// Panics if `items` holds `2^31` or more items (slots are `u32`).
pub fn build_hist_into(
    items: &[u64],
    seed: u64,
    scratch: &mut HistScratch,
    out: &mut Vec<HistogramEntry>,
) {
    out.clear();
    let mu = items.len();
    assert!(mu < 1 << 31, "build_hist_into: batch too large");
    let tables = scratch.tables.get_or_insert_with(|| {
        let mut rng = StdRng::seed_from_u64(RandomState::new().hash_one(seed));
        let mut tables = Box::new([[0u64; 256]; 8]);
        tables
            .iter_mut()
            .flatten()
            .for_each(|w| *w = rng.next_u64());
        tables
    });
    let size = (2 * mu).next_power_of_two().max(16);
    if scratch.slots.len() < size {
        scratch.slots.resize(size, 0);
    }
    // Every slot is empty between calls, so any prefix is an empty table.
    let slots = &mut scratch.slots[..size];
    let mask = size - 1;
    for &item in items {
        let mut i = tabulation_hash(tables, item) as usize & mask;
        loop {
            match slots[i] {
                0 => {
                    out.push(HistogramEntry { item, count: 1 });
                    slots[i] = out.len() as u32;
                    scratch.used.push(i as u32);
                    break;
                }
                row => {
                    let entry = &mut out[row as usize - 1];
                    if entry.item == item {
                        entry.count += 1;
                        break;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }
    for &i in &scratch.used {
        slots[i as usize] = 0;
    }
    scratch.used.clear();
}

/// Fold/reduce hash-map histogram (ablation baseline for `build_hist`).
///
/// Each rayon worker folds its share of the input into a private `HashMap`
/// and the per-worker maps are merged pairwise. The merge step is a
/// potential sequential bottleneck for very large numbers of distinct items —
/// exactly the effect the ablation experiment measures.
pub fn build_hist_hashmap(items: &[u64]) -> Vec<HistogramEntry> {
    use std::collections::HashMap;
    let map = items
        .par_iter()
        .fold(HashMap::new, |mut acc: HashMap<u64, u64>, &x| {
            *acc.entry(x).or_insert(0) += 1;
            acc
        })
        .reduce(HashMap::new, |a, b| {
            if a.len() < b.len() {
                return merge_into(b, a);
            }
            merge_into(a, b)
        });
    fn merge_into(
        mut big: std::collections::HashMap<u64, u64>,
        small: std::collections::HashMap<u64, u64>,
    ) -> std::collections::HashMap<u64, u64> {
        for (k, v) in small {
            *big.entry(k).or_insert(0) += v;
        }
        big
    }
    map.into_iter()
        .map(|(item, count)| HistogramEntry { item, count })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn reference(items: &[u64]) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for &x in items {
            *m.entry(x).or_insert(0) += 1;
        }
        m
    }

    fn check_against_reference(items: &[u64], hist: &[HistogramEntry]) {
        let want = reference(items);
        assert_eq!(hist.len(), want.len(), "distinct-item count mismatch");
        for e in hist {
            assert_eq!(
                want.get(&e.item).copied(),
                Some(e.count),
                "wrong count for item {}",
                e.item
            );
        }
        let total: u64 = hist.iter().map(|e| e.count).sum();
        assert_eq!(total, items.len() as u64, "histogram total must equal µ");
    }

    #[test]
    fn empty_input() {
        assert!(build_hist(&[], 0).is_empty());
        assert!(build_hist_hashmap(&[]).is_empty());
    }

    #[test]
    fn small_input_sequential_path() {
        let items = vec![5, 5, 2, 9, 2, 5];
        check_against_reference(&items, &build_hist(&items, 1));
    }

    #[test]
    fn large_uniform_input() {
        let items: Vec<u64> = (0..60_000u64).map(|i| (i * 48271) % 500).collect();
        check_against_reference(&items, &build_hist(&items, 7));
    }

    #[test]
    fn large_skewed_input() {
        // 90% of the mass on item 0, the rest spread out.
        let items: Vec<u64> = (0..80_000u64)
            .map(|i| {
                if i % 10 != 0 {
                    0
                } else {
                    1 + (i * 7919) % 10_000
                }
            })
            .collect();
        check_against_reference(&items, &build_hist(&items, 13));
    }

    #[test]
    fn all_distinct_items() {
        let items: Vec<u64> = (0..30_000u64).map(|i| i * 1_000_003).collect();
        check_against_reference(&items, &build_hist(&items, 99));
    }

    #[test]
    fn single_repeated_item() {
        let items = vec![42u64; 50_000];
        let hist = build_hist(&items, 3);
        assert_eq!(hist.len(), 1);
        assert_eq!(
            hist[0],
            HistogramEntry {
                item: 42,
                count: 50_000
            }
        );
    }

    #[test]
    fn different_seeds_agree() {
        let items: Vec<u64> = (0..40_000u64).map(|i| (i * 31) % 1000).collect();
        for seed in 0..4 {
            check_against_reference(&items, &build_hist(&items, seed));
        }
    }

    #[test]
    fn hashmap_variant_matches_reference() {
        let items: Vec<u64> = (0..50_000u64).map(|i| (i * 2654435761) % 3000).collect();
        check_against_reference(&items, &build_hist_hashmap(&items));
    }

    #[test]
    fn scratch_variant_matches_reference_across_reuse() {
        // One scratch reused across wildly different batch shapes: small
        // (sequential path), large uniform, large skewed, all distinct.
        let mut scratch = HistScratch::new();
        let mut out = Vec::new();
        let workloads: Vec<Vec<u64>> = vec![
            vec![5, 5, 2, 9, 2, 5],
            (0..60_000u64).map(|i| (i * 48271) % 500).collect(),
            (0..80_000u64)
                .map(|i| {
                    if i % 10 != 0 {
                        0
                    } else {
                        1 + (i * 7919) % 10_000
                    }
                })
                .collect(),
            (0..30_000u64).map(|i| i * 1_000_003).collect(),
            Vec::new(),
            vec![42u64; 50_000],
        ];
        for (round, items) in workloads.iter().enumerate() {
            build_hist_into(items, round as u64 * 31 + 7, &mut scratch, &mut out);
            check_against_reference(items, &out);
        }
    }

    /// Exact histogram in first-occurrence order.
    fn first_occurrence_reference(items: &[u64]) -> Vec<HistogramEntry> {
        let mut row = HashMap::new();
        let mut out: Vec<HistogramEntry> = Vec::new();
        for &item in items {
            let i = *row.entry(item).or_insert_with(|| {
                out.push(HistogramEntry { item, count: 0 });
                out.len() - 1
            });
            out[i].count += 1;
        }
        out
    }

    /// Batch shapes that stress a byte-keyed linear-probing table.
    fn shaped_batch(shape: u8, mu: usize, param: u64) -> Vec<u64> {
        let mu = mu as u64;
        match shape {
            // Keys equal in their five low bytes.
            0 => (0..mu)
                .map(|j| ((j % 211 + 1) << 40) | (param & 0xFF_FFFF_FFFF))
                .collect(),
            // Power-of-two-stride progressions (wrapping).
            1 => {
                let stride = 1u64 << (param % 64);
                (0..mu)
                    .map(|j| param.wrapping_add(j.wrapping_mul(stride)))
                    .collect()
            }
            // One hot key among a sprinkle of others.
            2 => (0..mu)
                .map(|j| if j % 16 == 5 { j } else { param })
                .collect(),
            // All distinct.
            3 => (0..mu)
                .map(|j| {
                    let mut z = param.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z ^ (z >> 31)
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// µ at the edges where the probing table grows, plus 0 and 1.
    fn growth_edges() -> Vec<usize> {
        let mut edges = vec![0, 1];
        for k in 3..14 {
            edges.extend([(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        }
        edges
    }

    thread_local! {
        /// One scratch reused by every case, so a slot left filled by one
        /// shape corrupts a later one.
        static SHARED: std::cell::RefCell<(HistScratch, Vec<HistogramEntry>)> =
            std::cell::RefCell::new((HistScratch::new(), Vec::new()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn scratch_variant_is_the_exact_first_occurrence_histogram(
            shape in 0u8..5,
            at_edge in proptest::prelude::any::<bool>(),
            edge in 0usize..growth_edges().len(),
            random_mu in 0usize..5000,
            param in proptest::prelude::any::<u64>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mu = if at_edge { growth_edges()[edge] } else { random_mu };
            let items = shaped_batch(shape, mu, param);
            SHARED.with(|shared| {
                let (scratch, out) = &mut *shared.borrow_mut();
                build_hist_into(&items, seed, scratch, out);
                assert_eq!(*out, first_occurrence_reference(&items));
                assert!(scratch.slots.iter().all(|&s| s == 0), "slot left filled");
                assert!(scratch.used.is_empty());
            });
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn small_batches_after_a_large_one_stay_exact(
            large_mu in 20_000usize..70_000,
            smalls in proptest::prop::collection::vec((0usize..600, 0u8..5), 1..8),
            param in proptest::prelude::any::<u64>(),
        ) {
            let mut scratch = HistScratch::new();
            let mut out = Vec::new();
            let large = shaped_batch(3, large_mu, param);
            build_hist_into(&large, 0, &mut scratch, &mut out);
            assert_eq!(out, first_occurrence_reference(&large));
            let grown = scratch.slots.len();
            for &(mu, shape) in &smalls {
                let items = shaped_batch(shape, mu, param ^ mu as u64);
                build_hist_into(&items, 0, &mut scratch, &mut out);
                assert_eq!(out, first_occurrence_reference(&items));
                assert_eq!(scratch.slots.len(), grown, "table must not shrink");
                assert!(scratch.slots.iter().all(|&s| s == 0), "slot left filled");
            }
        }
    }

    #[test]
    fn tables_are_not_a_function_of_the_seed() {
        let mut a = HistScratch::new();
        let mut b = HistScratch::new();
        let mut out = Vec::new();
        build_hist_into(&[1, 2, 3], 42, &mut a, &mut out);
        build_hist_into(&[1, 2, 3], 42, &mut b, &mut out);
        assert_ne!(a.tables, b.tables, "tables must be drawn per process");
    }

    #[test]
    fn scratch_variant_agrees_with_parallel_variant() {
        let items: Vec<u64> = (0..40_000u64).map(|i| (i * 31) % 1000).collect();
        let mut scratch = HistScratch::new();
        let mut out = Vec::new();
        for seed in 0..4 {
            build_hist_into(&items, seed, &mut scratch, &mut out);
            let mut a = out.clone();
            let mut b = build_hist(&items, seed);
            a.sort_unstable_by_key(|e| e.item);
            b.sort_unstable_by_key(|e| e.item);
            assert_eq!(a, b, "seed {seed}");
        }
    }
}
