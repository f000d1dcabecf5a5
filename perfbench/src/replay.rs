//! Single-thread replay of a workload's batches through the same public
//! components a shard worker runs: `Router::partition_into` (psfa-stream),
//! then per shard `build_hist_into` (psfa-primitives),
//! `InfiniteHeavyHitters::process_histogram` and `PaneWindow` (psfa-freq),
//! and `AtomicCountMin::ingest_histogram` (psfa-sketch). The worker itself
//! cannot be called from outside, so the traced run times these calls
//! here and reconciles their sum against the engine's wall time.

use std::time::Instant;

use psfa_engine::{EngineMetrics, RoutingPolicy};
use psfa_freq::{InfiniteHeavyHitters, PaneWindow};
use psfa_primitives::{build_hist_into, HistScratch, HistogramEntry};
use psfa_sketch::AtomicCountMin;

use crate::stats::{median, Samples};
use crate::trace::SpanLog;
use crate::truth::{CM_DELTA, CM_EPSILON, CM_SEED, EPSILON, PHI};
use crate::{Report, PANES, PER_LAYER, SHARDS, WINDOW};

/// Summed layer times of one traced replay.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub items: u64,
    /// Non-empty per-shard sub-batches.
    pub sub_batches: u64,
    pub hist_entries: u64,
    pub seals: u64,
    pub route_ns: u64,
    pub hist_ns: u64,
    pub mg_ns: u64,
    pub pane_ns: u64,
    pub cm_ns: u64,
    pub seal_ns: u64,
    /// Replay wall time with spans and without.
    pub traced_ns: u64,
    pub untraced_ns: u64,
}

impl Ledger {
    /// Time of the layers a shard worker runs.
    pub fn worker_ns(&self) -> u64 {
        self.hist_ns + self.mg_ns + self.pane_ns + self.cm_ns + self.seal_ns
    }

    pub fn attributed_ns(&self) -> u64 {
        self.route_ns + self.worker_ns()
    }

    pub fn overhead_share(&self) -> f64 {
        self.traced_ns as f64 / self.untraced_ns.max(1) as f64 - 1.0
    }

    pub fn route_ns_per_item(&self) -> f64 {
        self.route_ns as f64 / self.items.max(1) as f64
    }
}

/// Median duration of the spans called `name`, in nanoseconds (`0` when
/// there are none).
pub fn span_median(log: &SpanLog, name: &str) -> f64 {
    log.by_name().get(name).map_or(0.0, |d| {
        median(&d.iter().map(|&v| v as f64).collect::<Vec<_>>())
    })
}

/// Sets the per-layer metrics every workload shares: the replayed layer
/// times, the engine's counters and spans, and the reader's lateness. Every
/// per-layer name not set yet reads `0` until the workload sets it.
pub fn set_layer_metrics(
    report: &mut Report,
    ledger: &Ledger,
    metrics: &EngineMetrics,
    log: &SpanLog,
    blocked_share: f64,
    drain_ms: f64,
    lateness: &Samples,
) {
    let l = &PER_LAYER;
    for (name, _) in l {
        if !report.metrics.iter().any(|m| m.0 == *name) {
            report.set(l, name, 0.0);
        }
    }
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    report.set(l, "stream.route_ns_per_item", ledger.route_ns_per_item());
    report.set(
        l,
        "stream.shard_imbalance",
        metrics.load_imbalance().unwrap_or(1.0),
    );
    report.set(l, "engine.producer_blocked_share", blocked_share);
    report.set(l, "engine.drain_ms", drain_ms);
    report.set(
        l,
        "primitives.build_hist_ns_per_item",
        per(ledger.hist_ns, ledger.items),
    );
    report.set(
        l,
        "primitives.hist_compression",
        ledger.hist_entries as f64 / ledger.items.max(1) as f64,
    );
    report.set(
        l,
        "freq.mg_augment_ns_per_batch",
        per(ledger.mg_ns, ledger.sub_batches),
    );
    report.set(
        l,
        "freq.work_units_per_item",
        metrics.total_work_units() as f64 / metrics.items_processed().max(1) as f64,
    );
    report.set(
        l,
        "sketch.count_min_ns_per_item",
        per(ledger.cm_ns, ledger.items),
    );
    report.set(
        l,
        "freq.pane_ns_per_batch",
        per(ledger.pane_ns, ledger.sub_batches),
    );
    report.set(l, "freq.seal_us", per(ledger.seal_ns, ledger.seals) / 1e3);
    report.set(
        l,
        "engine.snapshot_load_us",
        span_median(log, "engine.snapshots") / 1e3,
    );
    report.set(
        l,
        "freq.global_window_merge_us",
        span_median(log, "freq.global_window") / 1e3,
    );
    report.set(l, "loadgen.lateness_p99_us", lateness.quantile(0.99) / 1e3);
}

/// The ledger: the engine's core time over one round (wall time × the
/// cores its producer and workers can use at once) against the replayed
/// layer times. What no layer accounts for — lane transport, snapshot
/// publication, waiting, the reader, the persister, other processes — is
/// the `unattributed` line.
pub fn ledger_lines(report: &mut Report, ledger: &Ledger, wall_ns: f64, what: &str) {
    let l = &PER_LAYER;
    let threads = (SHARDS + 1).min(crate::cores()) as f64;
    let capacity = wall_ns * threads;
    let attributed = ledger.attributed_ns() as f64;
    report.set(l, "unattributed", (capacity - attributed) / 1e6);
    report.set(l, "unattributed_share", (capacity - attributed) / capacity);
    report.set(l, "trace.overhead_share", ledger.overhead_share());
    report.lines.push(format!(
        "ledger: {what} wall {:.3} ms x {threads} cores = {:.3} core-ms",
        wall_ns / 1e6,
        capacity / 1e6
    ));
    for (name, ns) in [
        ("stream.partition_into", ledger.route_ns),
        ("primitives.build_hist_into", ledger.hist_ns),
        ("freq.process_histogram", ledger.mg_ns),
        ("freq.pane_process_histogram", ledger.pane_ns),
        ("sketch.ingest_histogram", ledger.cm_ns),
        ("freq.pane_seal", ledger.seal_ns),
    ] {
        report.lines.push(format!(
            "ledger:   {name:<30} {:>10.3} ms {:>6.1}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / capacity
        ));
    }
    report.lines.push(format!(
        "ledger:   {:<30} {:>10.3} ms {:>6.1}%",
        "unattributed",
        (capacity - attributed) / 1e6,
        100.0 * (capacity - attributed) / capacity
    ));
    report.lines.push(format!(
        "tracing overhead: replay {:.3} ms traced vs {:.3} ms untraced ({:+.2}%)",
        ledger.traced_ns as f64 / 1e6,
        ledger.untraced_ns as f64 / 1e6,
        100.0 * ledger.overhead_share()
    ));
}

struct Shard {
    hh: InfiniteHeavyHitters,
    cm: AtomicCountMin,
    window: Option<PaneWindow>,
    scratch: HistScratch,
    hist: Vec<HistogramEntry>,
    hist_seed: u64,
}

impl Shard {
    fn new(shard: usize, windowed: bool) -> Self {
        Shard {
            hh: InfiniteHeavyHitters::new(PHI, EPSILON),
            cm: AtomicCountMin::new(CM_EPSILON, CM_DELTA, CM_SEED),
            window: windowed.then(|| PaneWindow::new(EPSILON, PANES)),
            scratch: HistScratch::new(),
            hist: Vec::new(),
            hist_seed: 0x5eed_0000 ^ shard as u64,
        }
    }
}

/// Replays `batches` through the layers: a bare warm-up, then two rounds
/// of a bare pass (the untraced time) and a pass with a span around every
/// layer call (the traced time), keeping the faster of each — one pass
/// alone is as noisy as the overhead it should show. Returns the faster
/// traced pass's ledger and adds its spans to `log`, one trace per batch.
pub fn replay(
    batches: &[Vec<u64>],
    policy: &RoutingPolicy,
    windowed: bool,
    log: &mut SpanLog,
) -> Ledger {
    let mut bare = SpanLog::new(Instant::now(), false);
    pass(batches, policy, windowed, &mut bare, &mut Ledger::default());
    let mut untraced_ns = u64::MAX;
    let mut best: Option<(Ledger, SpanLog)> = None;
    for _ in 0..2 {
        let started = Instant::now();
        pass(batches, policy, windowed, &mut bare, &mut Ledger::default());
        untraced_ns = untraced_ns.min(started.elapsed().as_nanos() as u64);

        let mut spans = log.empty_like();
        let mut ledger = Ledger::default();
        let started = Instant::now();
        pass(batches, policy, windowed, &mut spans, &mut ledger);
        ledger.traced_ns = started.elapsed().as_nanos() as u64;
        if best
            .as_ref()
            .is_none_or(|(b, _)| ledger.traced_ns < b.traced_ns)
        {
            best = Some((ledger, spans));
        }
    }
    let (mut ledger, spans) = best.expect("two traced passes ran");
    ledger.untraced_ns = untraced_ns;

    let mut sums = std::collections::BTreeMap::<&str, u64>::new();
    for span in spans.spans() {
        *sums.entry(span.name).or_default() += span.ns();
    }
    let sum = |name: &str| sums.get(name).copied().unwrap_or(0);
    ledger.route_ns = sum("stream.partition_into");
    ledger.hist_ns = sum("primitives.build_hist_into");
    ledger.mg_ns = sum("freq.process_histogram");
    ledger.pane_ns = sum("freq.pane_process_histogram");
    ledger.cm_ns = sum("sketch.ingest_histogram");
    ledger.seal_ns = sum("freq.pane_seal");
    log.absorb(spans);
    ledger
}

fn pass(
    batches: &[Vec<u64>],
    policy: &RoutingPolicy,
    windowed: bool,
    log: &mut SpanLog,
    ledger: &mut Ledger,
) {
    let router = policy.build(SHARDS);
    let mut shards: Vec<Shard> = (0..SHARDS).map(|s| Shard::new(s, windowed)).collect();
    let mut parts: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    let slide = WINDOW / PANES as u64;
    let mut position = 0u64;
    for (b, batch) in batches.iter().enumerate() {
        let trace = b as u64;
        let top = log.open("replay.batch", None, trace);
        log.time("stream.partition_into", Some(top), trace, || {
            router.partition_into(batch, &mut parts)
        });
        for (shard, part) in shards.iter_mut().zip(&parts) {
            if part.is_empty() {
                continue;
            }
            let len = part.len() as u64;
            shard.hist_seed = shard
                .hist_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1);
            let parent = log.open("replay.shard_batch", Some(top), trace);
            log.time("primitives.build_hist_into", Some(parent), trace, || {
                build_hist_into(part, shard.hist_seed, &mut shard.scratch, &mut shard.hist)
            });
            log.time("freq.process_histogram", Some(parent), trace, || {
                shard.hh.process_histogram(&shard.hist, len)
            });
            if let Some(window) = &mut shard.window {
                log.time("freq.pane_process_histogram", Some(parent), trace, || {
                    window.process_histogram(&shard.hist, len)
                });
            }
            log.time("sketch.ingest_histogram", Some(parent), trace, || {
                shard.cm.ingest_histogram(&shard.hist)
            });
            log.close(parent);
            ledger.sub_batches += 1;
            ledger.hist_entries += shard.hist.len() as u64;
        }
        let before = position / slide;
        position += batch.len() as u64;
        if windowed {
            for _ in before..position / slide {
                for shard in &mut shards {
                    let window = shard.window.as_mut().expect("windowed replay has panes");
                    std::hint::black_box(
                        log.time("freq.pane_seal", Some(top), trace, || window.seal()),
                    );
                    ledger.seals += 1;
                }
            }
        }
        log.close(top);
        ledger.items += batch.len() as u64;
    }
    std::hint::black_box(shards.iter().map(|s| s.cm.total()).sum::<u64>());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{batches, Keys};

    #[test]
    fn replay_accounts_for_every_item_and_seal() {
        let input = batches(Keys::Zipf, 1, 2 * PANES, 16 * 1024);
        let mut log = SpanLog::new(Instant::now(), true);
        let ledger = replay(&input, &RoutingPolicy::skew_aware(), true, &mut log);
        assert_eq!(ledger.items, 2 * PANES as u64 * 16 * 1024);
        assert_eq!(ledger.seals, 2 * SHARDS as u64);
        assert!(ledger.hist_entries < ledger.items, "zipf batches compress");
        assert!(ledger.route_ns > 0 && ledger.worker_ns() > 0);
        assert!(ledger.attributed_ns() <= ledger.traced_ns);
    }
}
