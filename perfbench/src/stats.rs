//! Percentile summaries. A timing is reported as its median and the
//! highest percentile that has at least ten samples beyond it, with the
//! sample count; a failed request is an infinite sample, so it misses any
//! latency limit.

/// Nearest-rank quantile of an ascending slice (`q` in `(0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// What a run reports from its per-round set-up times and request medians:
/// the lower quartile, i.e. the value of the fastest quarter of its rounds.
/// Load from other tenants of a shared host slows whole rounds at a time;
/// the lower quartile holds while a quarter of the run's rounds ran
/// undisturbed, where the median needs half.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.25)
}

/// Candidate percentiles, highest last.
const LADDER: [(f64, &str); 5] = [
    (0.5, "p50"),
    (0.9, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
];

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.sorted, q)
    }

    /// Whether percentile `q` has at least ten samples beyond it.
    pub fn supports(&self, q: f64) -> bool {
        let n = self.sorted.len();
        n >= 10 && n - ((q * n as f64).ceil() as usize).min(n) >= 10
    }

    /// The highest percentile of the ladder that the sample supports.
    pub fn highest(&self) -> Option<(&'static str, f64)> {
        LADDER
            .iter()
            .rev()
            .find(|(q, _)| self.supports(*q))
            .map(|&(q, label)| (label, self.quantile(q)))
    }

    /// One line: count, median, p99 and the highest supported percentile,
    /// values multiplied by `scale` into `unit`.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        if self.is_empty() {
            return "n=0".to_string();
        }
        let show = |v: f64| {
            if v.is_finite() {
                format!("{:.3}{unit}", v * scale)
            } else {
                "failed".to_string()
            }
        };
        let mut line = format!(
            "n={} p50={} p99={}",
            self.len(),
            show(self.quantile(0.5)),
            show(self.quantile(0.99)),
        );
        match self.highest() {
            Some((label, value)) => line.push_str(&format!(" highest={label}:{}", show(value))),
            None => line.push_str(" highest=none(<20 samples)"),
        }
        if !self.supports(0.99) {
            line.push_str(" (p99 has fewer than ten samples beyond it)");
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.quantile(0.5), 500.0);
        assert_eq!(s.quantile(0.99), 990.0);
        assert!(s.supports(0.99));
        assert!(!s.supports(0.999));
        assert_eq!(s.highest(), Some(("p99", 990.0)));
    }

    #[test]
    fn failures_sort_last() {
        let mut values: Vec<f64> = (0..99).map(f64::from).collect();
        values.push(f64::INFINITY);
        let s = Samples::new(values);
        assert_eq!(s.quantile(1.0), f64::INFINITY);
        assert_eq!(s.quantile(0.5), 49.0);
    }
}
