//! Shared helpers for the benchmark harness and the `reproduce` experiment
//! binary: canonical workloads, timing utilities, and table printing.
//!
//! Every experiment listed in the README's "Experiments and benchmarks"
//! section (E1–E17, F2) is regenerated either by a Criterion bench in
//! `benches/` (wall-clock comparisons) or by
//! `cargo run --release -p psfa-bench --bin reproduce` (accuracy/space/work
//! tables), or both. The `BENCH_*.json` trajectories record the measured
//! outcomes.

use std::time::Instant;

use psfa::prelude::*;

pub mod alloc_counter;
pub mod bench_json;
pub mod hotpath;
pub mod loadgen;

/// Number of threads rayon is using — recorded in experiment output because
/// the depth/speedup claims are only observable with more than one core.
pub fn threads() -> usize {
    rayon::current_num_threads()
}

/// Times a closure and returns (result, seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// An A/B comparison measured as interleaved pairs of trials: the
/// per-pair ratios `treatment / baseline`, their median with a
/// distribution-free confidence interval, and each arm's median.
#[derive(Debug, Clone, Default)]
pub struct PairedTrials {
    baseline: Vec<f64>,
    treatment: Vec<f64>,
}

impl PairedTrials {
    /// Runs interleaved pairs of trials until the ~95% confidence interval
    /// of the median ratio lies wholly above or below `bar` (after at
    /// least `min_pairs` pairs), or `max_pairs` pairs have run. Each pair
    /// alternates which arm goes first, so drift and warm-up charge both
    /// arms alike. `trial(false)` measures the baseline and `trial(true)`
    /// the treatment; larger is better.
    ///
    /// # Panics
    /// Panics unless `1 ≤ min_pairs ≤ max_pairs`.
    pub fn until_resolved(
        bar: f64,
        min_pairs: usize,
        max_pairs: usize,
        mut trial: impl FnMut(bool) -> f64,
    ) -> Self {
        assert!(
            (1..=max_pairs).contains(&min_pairs),
            "PairedTrials: need 1 <= min_pairs <= max_pairs"
        );
        let mut trials = Self::default();
        while trials.pairs() < max_pairs {
            let treatment_first = trials.pairs() % 2 == 1;
            let first = trial(treatment_first);
            let second = trial(!treatment_first);
            let (b, t) = if treatment_first {
                (second, first)
            } else {
                (first, second)
            };
            trials.baseline.push(b);
            trials.treatment.push(t);
            let (lo, hi) = trials.median_ratio_ci();
            if trials.pairs() >= min_pairs && (lo > bar || hi < bar) {
                break;
            }
        }
        trials
    }

    /// Number of pairs run.
    pub fn pairs(&self) -> usize {
        self.baseline.len()
    }

    /// Median of the baseline trials.
    pub fn baseline(&self) -> f64 {
        quantile(&self.baseline, 0.5)
    }

    /// Median of the treatment trials.
    pub fn treatment(&self) -> f64 {
        quantile(&self.treatment, 0.5)
    }

    fn ratios(&self) -> Vec<f64> {
        let mut r: Vec<f64> = self
            .treatment
            .iter()
            .zip(&self.baseline)
            .map(|(t, b)| t / b)
            .collect();
        r.sort_by(f64::total_cmp);
        r
    }

    /// Median per-pair ratio — the statistic the gates assert on.
    pub fn median_ratio(&self) -> f64 {
        quantile(&self.ratios(), 0.5)
    }

    /// Interquartile range of the per-pair ratios (`q3 − q1`).
    pub fn ratio_iqr(&self) -> f64 {
        let r = self.ratios();
        quantile(&r, 0.75) - quantile(&r, 0.25)
    }

    /// Distribution-free confidence interval of the median ratio: the
    /// order statistics `[r_(j), r_(n+1−j)]` with the largest `j` whose
    /// binomial coverage is at least 95% (the full range when `n < 6`).
    pub fn median_ratio_ci(&self) -> (f64, f64) {
        let r = self.ratios();
        let n = r.len();
        // P(Bin(n, ½) ≤ i), accumulated term by term.
        let mut term = 0.5f64.powi(n as i32);
        let mut below = 0.0;
        let mut j = 1;
        for i in 0..n / 2 {
            below += term;
            if 2.0 * below > 0.05 {
                break;
            }
            j = i + 1;
            term *= (n - i) as f64 / (i + 1) as f64;
        }
        (r[j - 1], r[n - j])
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod paired_tests {
    use super::*;

    #[test]
    fn median_ci_matches_the_binomial_table() {
        // n = 9: P(Bin ≤ 1) = 10/512, so j = 2 (coverage 96.1%).
        let trials = PairedTrials {
            baseline: vec![1.0; 9],
            treatment: (1..=9).map(f64::from).collect(),
        };
        assert_eq!(trials.median_ratio(), 5.0);
        assert_eq!(trials.median_ratio_ci(), (2.0, 8.0));
        // n = 5: no interval reaches 95%; the full range is reported.
        let small = PairedTrials {
            baseline: vec![1.0; 5],
            treatment: (1..=5).map(f64::from).collect(),
        };
        assert_eq!(small.median_ratio_ci(), (1.0, 5.0));
    }

    #[test]
    fn stops_once_the_interval_clears_the_bar() {
        let mut calls = 0;
        let trials = PairedTrials::until_resolved(0.9, 9, 99, |treated| {
            calls += 1;
            if treated {
                2.0
            } else {
                1.0
            }
        });
        assert_eq!(trials.pairs(), 9);
        assert_eq!(calls, 18);
        assert_eq!(trials.median_ratio(), 2.0);
    }
}

/// Renders one row of an aligned table.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders a header row followed by a separator.
pub fn header(cells: &[&str]) -> String {
    let head = row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    let sep = "-".repeat(head.len());
    format!("{head}\n{sep}")
}

/// The canonical skewed workload used across experiments: Zipf(α) over a
/// fixed universe, pre-generated as whole minibatches.
pub fn zipf_minibatches(
    universe: u64,
    alpha: f64,
    batches: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<Vec<u64>> {
    let mut generator = ZipfGenerator::new(universe, alpha, seed);
    (0..batches)
        .map(|_| generator.next_minibatch(batch_size))
        .collect()
}

/// Pre-generated binary minibatches of a given 1-density (experiments E1–E2).
pub fn binary_minibatches(
    density: f64,
    batches: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<Vec<bool>> {
    let mut generator = BinaryStreamGenerator::new(density, seed);
    (0..batches)
        .map(|_| generator.next_bits(batch_size))
        .collect()
}

/// Exact frequencies of the last `n` items of a concatenated stream.
pub fn exact_window_counts(history: &[u64], n: u64) -> std::collections::HashMap<u64, u64> {
    let start = history.len().saturating_sub(n as usize);
    let mut counts = std::collections::HashMap::new();
    for &x in &history[start..] {
        *counts.entry(x).or_insert(0u64) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_helpers_produce_requested_shapes() {
        let batches = zipf_minibatches(1000, 1.1, 3, 500, 1);
        assert_eq!(batches.len(), 3);
        assert!(batches.iter().all(|b| b.len() == 500));
        let bits = binary_minibatches(0.5, 2, 100, 2);
        assert_eq!(bits.len(), 2);
        assert_eq!(bits[0].len(), 100);
    }

    #[test]
    fn table_helpers_align() {
        let h = header(&["a", "b"]);
        assert!(h.contains('a') && h.contains('-'));
        let r = row(&["1".into(), "2".into()]);
        assert!(r.len() >= 29);
    }
}
