//! Exact counts of a generated stream and the correctness gates that hold
//! the engine's answers against them.

use std::collections::{HashMap, HashSet};

use psfa_engine::{EngineHandle, GlobalWindow};

/// Heavy-hitter threshold φ, Misra–Gries error ε and Count-Min error of
/// every workload's engine.
pub const PHI: f64 = 0.01;
pub const EPSILON: f64 = 0.001;
pub const CM_EPSILON: f64 = 0.0005;
pub const CM_DELTA: f64 = 0.01;
pub const CM_SEED: u64 = 0x00C0_FFEE;

/// How many of the most frequent keys every gate checks (more than the
/// at most `1/(φ − ε)` keys a heavy-hitter answer may hold).
const TOP: usize = 2048;

/// Exact key counts: keys ascending, with their counts.
pub struct Truth {
    keys: Vec<u64>,
    counts: Vec<u64>,
    top: Vec<(u64, u64)>,
    len: u64,
}

impl Truth {
    /// Counts every item of `batches`.
    pub fn of_batches<'a>(batches: impl IntoIterator<Item = &'a [u64]>) -> Self {
        let mut keys: Vec<u64> = batches.into_iter().flatten().copied().collect();
        keys.sort_unstable();
        let len = keys.len() as u64;
        let mut counts = Vec::new();
        let mut distinct = 0;
        for i in 0..keys.len() {
            if i > 0 && keys[i] == keys[distinct - 1] {
                counts[distinct - 1] += 1;
            } else {
                keys[distinct] = keys[i];
                counts.push(1);
                distinct += 1;
            }
        }
        keys.truncate(distinct);
        keys.shrink_to_fit();
        Self::finish(keys, counts, len)
    }

    /// Counts from a key → count map.
    pub fn of_counts(map: HashMap<u64, u64>) -> Self {
        let mut pairs: Vec<(u64, u64)> = map.into_iter().collect();
        pairs.sort_unstable();
        let len = pairs.iter().map(|&(_, c)| c).sum();
        let (keys, counts) = pairs.into_iter().unzip();
        Self::finish(keys, counts, len)
    }

    fn finish(keys: Vec<u64>, counts: Vec<u64>, len: u64) -> Self {
        let mut top: Vec<(u64, u64)> = keys.iter().copied().zip(counts.iter().copied()).collect();
        let k = TOP.min(top.len());
        if k > 0 && k < top.len() {
            top.select_nth_unstable_by(k - 1, |a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        top.truncate(k);
        top.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Truth {
            keys,
            counts,
            top,
            len,
        }
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn count(&self, key: u64) -> u64 {
        self.keys
            .binary_search(&key)
            .map_or(0, |at| self.counts[at])
    }

    /// The most frequent keys, most frequent first.
    pub fn top(&self) -> &[(u64, u64)] {
        &self.top
    }

    /// Keys with count at least `threshold`; the top list must reach below
    /// it, which holds for every threshold at or above `(φ − ε)·m`.
    fn at_least(&self, threshold: f64) -> impl Iterator<Item = u64> + '_ {
        assert!(
            self.top.len() == self.keys.len()
                || self
                    .top
                    .last()
                    .is_some_and(|&(_, c)| (c as f64) < threshold),
            "the top list does not reach below the threshold"
        );
        self.top
            .iter()
            .take_while(move |&&(_, c)| c as f64 >= threshold)
            .map(|&(k, _)| k)
    }
}

/// Violations found by the gates.
#[derive(Debug, Default)]
pub struct Gate {
    pub checks: u64,
    pub violations: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn merge(&mut self, other: Gate) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }
}

/// The keys a gate probes: the most frequent keys of `truth`, the given
/// probe keys, and every key the engine reports as tracked or heavy.
fn probe_set(truth: &Truth, probes: &[u64], reported: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut keys: HashSet<u64> = truth.top().iter().map(|&(k, _)| k).collect();
    keys.extend(probes.iter().copied());
    keys.extend(reported);
    let mut keys: Vec<u64> = keys.into_iter().collect();
    keys.sort_unstable();
    keys
}

/// Checks the drained engine against the whole accepted stream: item
/// conservation, the Misra–Gries bound `f − ε·m ≤ f̂ ≤ f`, heavy-hitter
/// coverage, and the Count-Min bound `f ≤ f̂ ≤ f + ε_cm·m`.
pub fn check_stream(handle: &EngineHandle, truth: &Truth, probes: &[u64], accepted: u64) -> Gate {
    let mut gate = Gate::default();
    let m = truth.len();
    gate.check(m == accepted, || {
        format!("truth holds {m} items but {accepted} were accepted")
    });
    let total = handle.total_items();
    gate.check(total == accepted, || {
        format!("total_items {total} != {accepted} accepted")
    });
    let processed = handle.metrics().items_processed();
    gate.check(processed == accepted, || {
        format!("items_processed {processed} != {accepted} accepted")
    });

    let mg_slack = EPSILON * m as f64;
    let cm_slack = CM_EPSILON * m as f64;
    let tracked = handle
        .snapshots()
        .iter()
        .flat_map(|s| s.hh_entries.iter().map(|&(k, _)| k).collect::<Vec<_>>())
        .collect::<Vec<_>>();
    let heavy = handle.heavy_hitters();
    for key in probe_set(
        truth,
        probes,
        tracked.into_iter().chain(heavy.iter().map(|h| h.item)),
    ) {
        let f = truth.count(key);
        let est = handle.estimate(key);
        gate.check(est <= f && (f - est) as f64 <= mg_slack, || {
            format!("estimate({key}) = {est}, truth {f}, slack εm = {mg_slack}")
        });
        let cm = handle.cm_estimate(key);
        gate.check(cm >= f && (cm - f) as f64 <= cm_slack, || {
            format!("cm_estimate({key}) = {cm}, truth {f}, slack ε_cm·m = {cm_slack}")
        });
    }
    let reported: HashSet<u64> = heavy.iter().map(|h| h.item).collect();
    for key in truth.at_least(PHI * m as f64) {
        gate.check(reported.contains(&key), || {
            format!("heavy hitter {key} (f = {}) not reported", truth.count(key))
        });
    }
    for h in &heavy {
        let f = truth.count(h.item);
        gate.check(f as f64 >= (PHI - EPSILON) * m as f64, || {
            format!("reported heavy hitter {} has f = {f} < (φ − ε)m", h.item)
        });
    }
    gate
}

/// Checks the aligned global window against exact window counts. The
/// window must be aligned to boundary `seq` and hold between `items.0` and
/// `items.1` items. `lower` counts the items certainly inside the window
/// and `upper` those possibly inside it (the same counts when the stream
/// order is known): the gate asks `lower − ε·n_W ≤ f̂ ≤ upper` and
/// heavy-hitter coverage at `φ·n_W`.
pub fn check_window(
    handle: &EngineHandle,
    window: Option<GlobalWindow>,
    seq: u64,
    items: (u64, u64),
    lower: &Truth,
    upper: &Truth,
    probes: &[u64],
) -> Gate {
    let mut gate = Gate::default();
    let Some(window) = window else {
        gate.check(seq == 0, || {
            format!("no aligned window, expected boundary {seq}")
        });
        return gate;
    };
    gate.check(window.seq() == seq, || {
        format!(
            "window aligned to boundary {}, expected {seq}",
            window.seq()
        )
    });
    gate.check((items.0..=items.1).contains(&window.items()), || {
        format!(
            "window holds {} items, expected {} to {}",
            window.items(),
            items.0,
            items.1
        )
    });
    let n_w = window.items();
    let slack = EPSILON * n_w as f64;
    let heavy = handle.sliding_heavy_hitters();
    let keys = probe_set(upper, probes, heavy.iter().map(|h| h.item));
    for (i, &key) in keys.iter().enumerate() {
        let est = window.estimate(key);
        if i % 256 == 0 {
            let live = handle.sliding_estimate(key);
            gate.check(live == est, || {
                format!("sliding_estimate({key}) = {live} but the window says {est}")
            });
        }
        let (lo, hi) = (lower.count(key), upper.count(key));
        gate.check(est <= hi && lo.saturating_sub(est) as f64 <= slack, || {
            format!("window estimate({key}) = {est}, truth in [{lo}, {hi}], slack ε·n_W = {slack}")
        });
    }
    let reported: HashSet<u64> = heavy.iter().map(|h| h.item).collect();
    for key in lower.at_least(PHI * n_w as f64) {
        gate.check(reported.contains(&key), || {
            format!("window heavy hitter {key} not reported")
        });
    }
    for h in &heavy {
        let f = upper.count(h.item);
        gate.check(f as f64 >= (PHI - EPSILON) * n_w as f64, || {
            format!(
                "reported window heavy hitter {} has f_W ≤ {f} < (φ − ε)·n_W",
                h.item
            )
        });
    }
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_top_agree() {
        let a = [3u64, 1, 3, 2, 3, 1];
        let t = Truth::of_batches([&a[..]]);
        assert_eq!((t.len(), t.count(3), t.count(1), t.count(9)), (6, 3, 2, 0));
        assert_eq!(t.top()[0], (3, 3));
        let from_map = Truth::of_counts(HashMap::from([(3, 3), (1, 2), (2, 1)]));
        assert_eq!(from_map.top(), t.top());
        assert_eq!(t.at_least(2.0).collect::<Vec<_>>(), vec![3, 1]);
    }
}
