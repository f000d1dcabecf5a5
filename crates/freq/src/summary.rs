//! The Misra–Gries summary and the parallel `MGaugment` merge (Lemma 5.3).
//!
//! An MG summary of capacity `S = ⌈1/ε⌉` stores at most `S` items with
//! counters. The classic sequential algorithm processes one element at a
//! time; the paper's parallel algorithm instead merges the summary with the
//! *histogram of a whole minibatch* in one shot:
//!
//! 1. add corresponding counters of the summary and the histogram;
//! 2. find the cut-off `ϕ` such that at most `S` combined counters exceed it
//!    (a rank-selection problem, [`psfa_primitives::phi_cutoff`]);
//! 3. subtract `ϕ` from every counter and keep the strictly positive ones.
//!
//! Subtracting `ϕ` is equivalent to `ϕ` rounds of the sequential decrement
//! step, each of which decrements at least `S` distinct counters — so the
//! estimate error after processing `m` elements stays below `m / S ≤ εm`
//! (Lemma 5.1 / Lemma 5.3).

use std::collections::HashMap;

use psfa_primitives::codec::{put_header, ByteReader, ByteWriter, CodecError};
use psfa_primitives::{phi_cutoff_in_place, HistogramEntry};

/// Type tag for encoded MG summaries (see `psfa_primitives::codec`).
const TAG: u8 = 0x03;
const VERSION: u8 = 1;

/// A Misra–Gries summary: at most `capacity` items with approximate counters.
#[derive(Debug)]
pub struct MgSummary {
    capacity: usize,
    /// Never holds more than `capacity` entries. Keyed by the standard
    /// per-process random `RandomState`: MG keys can arrive over the wire,
    /// so the map keeps its HashDoS resistance.
    entries: HashMap<u64, u64>,
    /// Histogram entries that missed the summary in the current
    /// [`MgSummary::augment`]; pure scratch, excluded from equality and
    /// cloning.
    candidates: Vec<HistogramEntry>,
    /// Reusable counter-value buffer for the cut-off selection in
    /// [`MgSummary::augment`]; pure scratch as well.
    scratch: Vec<u64>,
}

/// A map for a summary of capacity `S`, sized once for `2S` so that it
/// never reallocates: the summary holds at most `S` live entries, and a
/// table at most half full reclaims the tombstones `retain` leaves behind
/// by rehashing in place inside its existing allocation.
fn summary_map(capacity: usize) -> HashMap<u64, u64> {
    HashMap::with_capacity(2 * capacity)
}

impl Clone for MgSummary {
    /// Clones the persistent state only — the clone starts with empty
    /// scratch (copying up to `S + p` dead selection values would charge
    /// every state clone, e.g. a persistence cut, for nothing).
    fn clone(&self) -> Self {
        Self {
            capacity: self.capacity,
            entries: self.entries.clone(),
            candidates: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl PartialEq for MgSummary {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.entries == other.entries
    }
}

impl Eq for MgSummary {}

impl MgSummary {
    /// Creates an empty summary with room for `capacity` counters.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "summary capacity must be at least 1");
        Self {
            capacity,
            entries: summary_map(capacity),
            candidates: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Rebuilds a summary from previously published `(item, counter)`
    /// pairs — e.g. the heavy-hitter entries of a shard snapshot. The
    /// entries of an MG summary are one-sided underestimates of the true
    /// frequencies, and this constructor copies them verbatim, so the
    /// rebuilt summary inherits the one-sided guarantee of the summary it
    /// was published from. Zero-count pairs are dropped (an MG summary
    /// never stores a zero counter).
    ///
    /// # Panics
    /// Panics if `capacity == 0` or there are more non-zero entries than
    /// `capacity`.
    pub fn from_entries(capacity: usize, entries: &[(u64, u64)]) -> Self {
        assert!(capacity >= 1, "summary capacity must be at least 1");
        let mut map = summary_map(capacity);
        for &(item, count) in entries {
            if count > 0 {
                map.insert(item, count);
            }
        }
        assert!(
            map.len() <= capacity,
            "more entries than the summary capacity"
        );
        Self {
            capacity,
            entries: map,
            candidates: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The maximum number of counters retained (`S` in the paper).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of counters currently stored (always `≤ capacity`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no counters are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counter value for `item` (`0` when the item is not tracked).
    pub fn estimate(&self, item: u64) -> u64 {
        self.entries.get(&item).copied().unwrap_or(0)
    }

    /// All tracked `(item, counter)` pairs in unspecified order.
    pub fn entries(&self) -> Vec<(u64, u64)> {
        self.entries.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Sequential Misra–Gries update for a single element (Algorithm 1).
    ///
    /// Provided for completeness and for differential testing against the
    /// batch path; the parallel pipeline uses [`MgSummary::augment`].
    pub fn update_sequential(&mut self, item: u64) {
        if let Some(c) = self.entries.get_mut(&item) {
            *c += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(item, 1);
            return;
        }
        // Decrement every counter; drop the ones that reach zero.
        self.entries.retain(|_, c| {
            *c -= 1;
            *c > 0
        });
    }

    /// `MGaugment` (Lemma 5.3): merges a minibatch histogram into the summary.
    ///
    /// Runs in `O(S + p)` work where `p` is the number of distinct items in
    /// the histogram, whose items must be distinct. Returns the cut-off `ϕ`
    /// that was applied (useful for instrumentation; `0` means no counter
    /// was decremented).
    ///
    /// The combined set of step 1 is never materialised in the map: each
    /// histogram entry probes the `≤ S`-entry summary, hits add their
    /// counts in place, and misses are set aside as candidates. `ϕ` is
    /// selected over the `S + p` combined values; the summary then
    /// subtracts `ϕ` and keeps its positive counters, and only the
    /// candidates above `ϕ` are inserted. The result equals combining
    /// everything and then cutting, but the map never holds more than `S`
    /// entries, so it never grows. Once the candidate and selection
    /// buffers have grown to the widest batch seen, an augment performs
    /// **zero** heap allocations — this is the per-minibatch core of the
    /// engine's ingest hot path (asserted by E13's counting-allocator
    /// audit).
    pub fn augment(&mut self, histogram: &[HistogramEntry]) -> u64 {
        // Step 1: combine counters of tracked items; set the rest aside.
        self.candidates.clear();
        for e in histogram {
            match self.entries.get_mut(&e.item) {
                Some(count) => *count += e.count,
                None => self.candidates.push(*e),
            }
        }
        let combined = self.entries.len() + self.candidates.len();
        if combined <= self.capacity {
            // `phi_cutoff` is 0 whenever at most S counters exist.
            for e in &self.candidates {
                let fresh = self.entries.insert(e.item, e.count).is_none();
                debug_assert!(fresh, "augment: histogram item {} repeated", e.item);
            }
            return 0;
        }

        // Step 2: find the cut-off ϕ such that at most S counters exceed it.
        self.scratch.clear();
        self.scratch.reserve(self.capacity + histogram.len());
        self.scratch.extend(self.entries.values().copied());
        self.scratch.extend(self.candidates.iter().map(|e| e.count));
        let phi = phi_cutoff_in_place(&mut self.scratch, self.capacity);

        // Step 3: subtract ϕ and keep the strictly positive counters.
        self.entries.retain(|_, count| {
            *count = count.saturating_sub(phi);
            *count > 0
        });
        for e in &self.candidates {
            if e.count > phi {
                let fresh = self.entries.insert(e.item, e.count - phi).is_none();
                debug_assert!(fresh, "augment: histogram item {} repeated", e.item);
            }
        }
        debug_assert!(self.entries.len() <= self.capacity);
        phi
    }

    /// Merges another summary into this one (mergeable-summaries semantics,
    /// Agarwal et al.): counters are added item-wise, then the combined set
    /// is cut back to `capacity` with the same cut-off rule as
    /// [`MgSummary::augment`]. Returns the applied cut-off `ϕ`.
    ///
    /// If `self` summarises a stream of `m₁` elements with error `m₁/S` and
    /// `other` summarises `m₂` elements with error `m₂/S`, the merged
    /// summary underestimates true frequencies of the concatenated stream by
    /// at most `(m₁ + m₂)/S` — per-shard ε summaries merge into a global ε
    /// summary. This is the query-side primitive behind cross-shard queries
    /// in `psfa-engine`.
    pub fn merge(&mut self, other: &MgSummary) -> u64 {
        let histogram: Vec<HistogramEntry> = other
            .entries
            .iter()
            .map(|(&item, &count)| HistogramEntry { item, count })
            .collect();
        self.augment(&histogram)
    }

    /// Canonical binary encoding, appended to `w`. Entries are written in
    /// ascending item order, so encoding the same logical summary always
    /// produces identical bytes.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        put_header(w, TAG, VERSION);
        w.put_u64(self.capacity as u64);
        let mut entries: Vec<(u64, u64)> = self.entries();
        entries.sort_unstable();
        w.put_u32(entries.len() as u32);
        for (item, count) in entries {
            w.put_u64(item);
            w.put_u64(count);
        }
    }

    /// Canonical binary encoding as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a summary previously written by [`MgSummary::encode_into`],
    /// validating every structural invariant (never panics on corrupted
    /// input, never over-allocates from a corrupted length).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.expect_header(TAG, VERSION)?;
        let capacity = r.get_u64()?;
        if capacity == 0 || capacity > usize::MAX as u64 {
            return Err(CodecError::Invalid("mg-summary: invalid capacity"));
        }
        let len = r.get_len(16)?;
        if len as u64 > capacity {
            return Err(CodecError::Invalid(
                "mg-summary: more entries than capacity",
            ));
        }
        // Sized by the validated entry count, not the untrusted capacity;
        // the map reaches its `2S` steady state within a few augments.
        let mut entries = HashMap::with_capacity(len);
        let mut prev: Option<u64> = None;
        for _ in 0..len {
            let item = r.get_u64()?;
            let count = r.get_u64()?;
            if count == 0 {
                return Err(CodecError::Invalid("mg-summary: zero counter stored"));
            }
            if prev.is_some_and(|p| p >= item) {
                return Err(CodecError::Invalid(
                    "mg-summary: entries must be strictly ascending",
                ));
            }
            prev = Some(item);
            entries.insert(item, count);
        }
        Ok(Self {
            capacity: capacity as usize,
            entries,
            candidates: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Decodes a summary from a standalone buffer produced by
    /// [`MgSummary::encode`].
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

    fn hist(pairs: &[(u64, u64)]) -> Vec<HistogramEntry> {
        pairs
            .iter()
            .map(|&(item, count)| HistogramEntry { item, count })
            .collect()
    }

    #[test]
    fn augment_without_overflow_keeps_exact_counts() {
        let mut s = MgSummary::new(10);
        s.augment(&hist(&[(1, 5), (2, 3)]));
        s.augment(&hist(&[(1, 2), (3, 1)]));
        assert_eq!(s.estimate(1), 7);
        assert_eq!(s.estimate(2), 3);
        assert_eq!(s.estimate(3), 1);
        assert_eq!(s.estimate(99), 0);
    }

    #[test]
    fn augment_respects_capacity() {
        let mut s = MgSummary::new(3);
        let entries: Vec<(u64, u64)> = (0..20).map(|i| (i, 1 + i % 4)).collect();
        s.augment(&hist(&entries));
        assert!(s.len() <= 3);
    }

    #[test]
    fn augment_decrement_preserves_mg_invariant() {
        // After processing m elements, every counter underestimates the true
        // frequency by at most m / S.
        let capacity = 5usize;
        let mut s = MgSummary::new(capacity);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut m = 0u64;
        let mut state = 17u64;
        for batch in 0..50 {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for _ in 0..100 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(batch);
                let item = (state >> 33) % 12;
                *counts.entry(item).or_insert(0) += 1;
                *truth.entry(item).or_insert(0) += 1;
                m += 1;
            }
            let h: Vec<HistogramEntry> = counts
                .into_iter()
                .map(|(item, count)| HistogramEntry { item, count })
                .collect();
            s.augment(&h);
            for (&item, &f) in &truth {
                let c = s.estimate(item);
                assert!(c <= f, "counter {c} above true frequency {f}");
                assert!(
                    c + m / capacity as u64 >= f,
                    "counter {c} under-estimates {f} by more than m/S = {}",
                    m / capacity as u64
                );
            }
        }
    }

    #[test]
    fn sequential_update_matches_classic_behaviour() {
        let mut s = MgSummary::new(2);
        for item in [1, 1, 2, 3] {
            s.update_sequential(item);
        }
        // Classic MG with S = 2 on [1,1,2,3]: the arrival of 3 decrements all.
        assert_eq!(s.estimate(1), 1);
        assert_eq!(s.estimate(2), 0);
        assert_eq!(s.estimate(3), 0);
        assert!(s.len() <= 2);
    }

    #[test]
    fn batch_and_sequential_satisfy_same_error_bound() {
        // Both paths must satisfy f - m/S <= C <= f even if their exact
        // counters differ (the guarantee, not the representation, is shared).
        let capacity = 4usize;
        let stream: Vec<u64> = (0..2000u64).map(|i| (i * 2654435761) % 9).collect();
        let mut seq = MgSummary::new(capacity);
        for &x in &stream {
            seq.update_sequential(x);
        }
        let mut batched = MgSummary::new(capacity);
        for chunk in stream.chunks(173) {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for &x in chunk {
                *counts.entry(x).or_insert(0) += 1;
            }
            let h: Vec<HistogramEntry> = counts
                .into_iter()
                .map(|(item, count)| HistogramEntry { item, count })
                .collect();
            batched.augment(&h);
        }
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &x in &stream {
            *truth.entry(x).or_insert(0) += 1;
        }
        let m = stream.len() as u64;
        for (&item, &f) in &truth {
            for s in [&seq, &batched] {
                let c = s.estimate(item);
                assert!(c <= f);
                assert!(c + m / capacity as u64 >= f);
            }
        }
    }

    #[test]
    fn empty_histogram_is_a_noop() {
        let mut s = MgSummary::new(3);
        s.augment(&hist(&[(7, 2)]));
        let before = s.entries();
        let phi = s.augment(&[]);
        assert_eq!(phi, 0);
        let mut after = s.entries();
        let mut before = before;
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn augment_presizes_for_the_combined_set_and_stops_growing() {
        // The map is reserved once, at construction, for 2S entries and
        // never grows with batch width: it holds at most S live entries.
        // The selection scratch is sized for the combined set S + p by the
        // first batch of width p and then stays put — the allocation-free
        // steady state E13 audits with a counting allocator.
        // `HashMap::capacity()` dips as `retain` leaves tombstones behind,
        // so the map is bounded by its construction-time table, not
        // compared for equality.
        let mut s = MgSummary::new(8);
        let map_cap = s.entries.capacity();
        assert!(map_cap >= 2 * 8, "map not reserved for 2S");
        let batch: Vec<(u64, u64)> = (0..50u64).map(|i| (i, 1 + i % 3)).collect();
        s.augment(&hist(&batch));
        let scratch_cap = s.scratch.capacity();
        let candidates_cap = s.candidates.capacity();
        assert!(scratch_cap >= 8 + 50, "scratch not sized for S + p");
        for round in 1..50u64 {
            // Fresh distinct items every round, same batch width.
            let b: Vec<(u64, u64)> = (0..50u64).map(|i| (i * 31 + round * 1000, 2)).collect();
            s.augment(&hist(&b));
            assert!(s.len() <= 8);
            assert_eq!(s.scratch.capacity(), scratch_cap, "scratch regrew");
            assert_eq!(s.candidates.capacity(), candidates_cap, "candidates regrew");
            assert!(s.entries.capacity() <= map_cap, "map regrew");
        }
        // A wider batch grows the scratch once; the map stays put.
        let wide: Vec<(u64, u64)> = (0..100u64).map(|i| (i + 1_000_000, 1)).collect();
        s.augment(&hist(&wide));
        assert!(s.scratch.capacity() >= 8 + 100);
        assert!(s.entries.capacity() <= map_cap, "map grew with batch width");
    }

    /// The combine-all-then-cut `MGaugment` this module used to run: add
    /// every histogram entry into one map, select ϕ over all of it, cut.
    fn combine_then_cut(
        entries: &mut HashMap<u64, u64>,
        capacity: usize,
        h: &[HistogramEntry],
    ) -> u64 {
        for e in h {
            *entries.entry(e.item).or_insert(0) += e.count;
        }
        if entries.len() <= capacity {
            return 0;
        }
        let values: Vec<u64> = entries.values().copied().collect();
        let phi = psfa_primitives::phi_cutoff(&values, capacity);
        entries.retain(|_, count| {
            *count = count.saturating_sub(phi);
            *count > 0
        });
        phi
    }

    #[test]
    fn augment_is_bit_identical_to_combine_then_cut() {
        let mut state = 0x5EED_u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for capacity in [1usize, 2, 7, 64, 300] {
            let mut summary = MgSummary::new(capacity);
            let mut oracle = HashMap::new();
            for _ in 0..64 {
                // Histograms over a key space a few times the capacity, so
                // batches mix hits, misses, ties and evictions.
                let keys = 1 + next(4 * capacity as u64 + 8);
                let width = next(3 * capacity as u64 + 4);
                let mut counts: HashMap<u64, u64> = HashMap::new();
                for _ in 0..width {
                    *counts.entry(next(keys)).or_insert(0) += 1 + next(5) * next(3);
                }
                let h: Vec<HistogramEntry> = counts
                    .into_iter()
                    .map(|(item, count)| HistogramEntry { item, count })
                    .collect();
                let phi = summary.augment(&h);
                assert_eq!(phi, combine_then_cut(&mut oracle, capacity, &h));
                assert_eq!(summary.entries, oracle, "capacity {capacity}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = MgSummary::new(0);
    }

    #[test]
    fn merge_without_overflow_adds_counters() {
        let mut a = MgSummary::new(10);
        a.augment(&hist(&[(1, 5), (2, 3)]));
        let mut b = MgSummary::new(10);
        b.augment(&hist(&[(1, 2), (3, 4)]));
        a.merge(&b);
        assert_eq!(a.estimate(1), 7);
        assert_eq!(a.estimate(2), 3);
        assert_eq!(a.estimate(3), 4);
    }

    #[test]
    fn merge_preserves_combined_error_bound() {
        // Summarise two halves of a stream independently, merge, and check
        // the merged summary against the (m₁ + m₂)/S bound.
        let capacity = 6usize;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut halves = Vec::new();
        let mut state = 99u64;
        for _ in 0..2 {
            let mut s = MgSummary::new(capacity);
            for batch in 0..20 {
                let mut counts: HashMap<u64, u64> = HashMap::new();
                for _ in 0..150 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(batch);
                    let item = (state >> 33) % 15;
                    *counts.entry(item).or_insert(0) += 1;
                    *truth.entry(item).or_insert(0) += 1;
                }
                let h: Vec<HistogramEntry> = counts
                    .into_iter()
                    .map(|(item, count)| HistogramEntry { item, count })
                    .collect();
                s.augment(&h);
            }
            halves.push(s);
        }
        let mut merged = halves.swap_remove(0);
        merged.merge(&halves[0]);
        let m: u64 = truth.values().sum();
        assert!(merged.len() <= capacity);
        for (&item, &f) in &truth {
            let c = merged.estimate(item);
            assert!(c <= f, "merged counter {c} above true frequency {f}");
            assert!(
                c + m / capacity as u64 >= f,
                "merged counter {c} under-estimates {f} by more than m/S"
            );
        }
    }
}
