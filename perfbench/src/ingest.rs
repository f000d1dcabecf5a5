//! The in-process workloads: one producer sends 16 Ki-item minibatches
//! through `EngineHandle::producer()` and ends in `drain`, while one reader
//! thread runs an open-loop 1 kHz schedule of queries and `snapshots()`
//! polls beside it. A run repeats whole rounds (spawn, ingest the generated
//! stream, drain, check, shut down) until its time is used. The first half
//! of the time runs the producer in a closed loop, for throughput; the
//! second half paces it open-loop at a fixed rate well below capacity, for
//! latencies that a saturated queue would otherwise set. Reported values
//! are medians over rounds.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use psfa_engine::{Engine, EngineConfig, EngineHandle, EngineMetrics, Producer, RoutingPolicy};

use crate::gen::{batches, probe_keys, Keys, Rng};
use crate::replay::{ledger_lines, replay, set_layer_metrics, Ledger};
use crate::stats::{lower_quartile, median, Samples};
use crate::trace::SpanLog;
use crate::truth::{check_stream, check_window, Gate, Truth, CM_DELTA, CM_EPSILON, CM_SEED};
use crate::truth::{EPSILON, PHI};
use crate::READER_PERIOD_NS;
use crate::{Args, Latencies, Report, Workload, BATCH, END_TO_END, PANES, PER_LAYER};
use crate::{SHARDS, WINDOW};

/// Fewest rounds a run measures, however short its time.
const MIN_ROUNDS: usize = 3;
/// Set-ups timed alone after every round, so that `setup_s` rests on
/// enough samples spread over the whole run.
const SETUPS_PER_ROUND: usize = 3;

/// Query kinds of the reader, in the order it cycles through them.
pub const KINDS: [&str; 4] = [
    "estimate",
    "heavy_hitters",
    "sliding_estimate",
    "sliding_heavy_hitters",
];

/// What distinguishes the in-process workloads.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub keys: Keys,
    pub skew_aware: bool,
    pub windowed: bool,
    pub durable: bool,
    /// Offered load of the paced rounds, items per second: about a quarter
    /// of what the closed loop sustains on a 2-core host, so that the
    /// latency stays free of queueing even when other tenants take half of
    /// the host.
    pub paced_items_per_s: f64,
}

impl Spec {
    pub fn of(workload: Workload) -> Spec {
        let plain = |keys, paced_items_per_s| Spec {
            keys,
            skew_aware: false,
            windowed: false,
            durable: false,
            paced_items_per_s,
        };
        match workload {
            Workload::ZipfIngest => plain(Keys::Zipf, 4e6),
            Workload::UniformIngest => plain(Keys::Uniform, 2e6),
            Workload::WindowedDurable => Spec {
                keys: Keys::Zipf,
                skew_aware: true,
                windowed: true,
                durable: true,
                paced_items_per_s: 2.5e6,
            },
            Workload::ServeMixed => Spec {
                windowed: true,
                ..plain(Keys::Zipf, 0.0)
            },
        }
    }

    pub fn routing(&self) -> RoutingPolicy {
        if self.skew_aware {
            RoutingPolicy::skew_aware()
        } else {
            RoutingPolicy::Hash
        }
    }

    /// The engine configuration; `store` is the persistence directory of a
    /// durable workload.
    pub fn config(&self, store: &Path) -> EngineConfig {
        let mut config = EngineConfig::with_shards(SHARDS)
            .heavy_hitters(PHI, EPSILON)
            .count_min(CM_EPSILON, CM_DELTA, CM_SEED)
            .routing(self.routing());
        if self.windowed {
            config = config.sliding_window(WINDOW).window_panes(PANES);
        }
        if self.durable {
            config = config.persist_to(store);
        }
        config
    }

    fn kinds(&self) -> usize {
        if self.windowed {
            4
        } else {
            2
        }
    }
}

/// The generated stream and everything the gates need, built before any
/// timing starts.
struct Input {
    batches: Vec<Vec<u64>>,
    truth: Truth,
    probes: Vec<u64>,
    /// Expected `(seq, items)` of the final aligned window, and its counts.
    window: Option<((u64, u64), Truth)>,
}

impl Input {
    fn generate(spec: Spec, seed: u64, count: usize) -> Input {
        let batches = batches(spec.keys, seed, count, BATCH);
        let truth = Truth::of_batches(batches.iter().map(Vec::as_slice));
        let probes = probe_keys(&batches, seed, 512);
        let window = spec.windowed.then(|| {
            let slide = WINDOW / PANES as u64;
            let seq = truth.len() / slide;
            let items = seq.min(PANES as u64) * slide;
            let end = (seq * slide) as usize / BATCH;
            let start = end - items as usize / BATCH;
            let counts = Truth::of_batches(batches[start..end].iter().map(Vec::as_slice));
            ((seq, items), counts)
        });
        Input {
            batches,
            truth,
            probes,
            window,
        }
    }
}

/// What the reader thread saw.
struct ReaderOut {
    query_ns: [Vec<f64>; 4],
    lateness_ns: Vec<f64>,
    /// `(time since epoch, items visible in the snapshots)` per poll.
    polls: Vec<(u64, u64)>,
    queries: u64,
    log: SpanLog,
}

/// The open-loop reader: tick `k` is due at a seeded uniform point of the
/// `k`-th period after the start, so the reader's phase against the
/// producer varies within a run rather than between runs. Each tick issues
/// the next query kind, then polls `snapshots()`. A query's
/// latency counts from its due time when the reader was still busy with an
/// earlier tick at that time (the wait a stall imposes on later queries),
/// and from its send otherwise; how late each send was is recorded as
/// generator lateness. After `stop`, the reader keeps polling until every
/// item is visible (or two seconds pass).
fn read_loop(
    handle: &EngineHandle,
    spec: Spec,
    input: &Input,
    stop: &AtomicBool,
    epoch: Instant,
    trace: bool,
    jitter_seed: u64,
) -> ReaderOut {
    let (kinds, probes) = (spec.kinds(), &input.probes);
    let all_items = (input.batches.len() * BATCH) as u64;
    let mut jitter = Rng::new(jitter_seed);
    let mut out = ReaderOut {
        query_ns: Default::default(),
        lateness_ns: Vec::new(),
        polls: Vec::new(),
        queries: 0,
        log: SpanLog::new(epoch, trace),
    };
    let log = &mut out.log;
    let start = Instant::now();
    let mut prev_done = start;
    let mut stopped_at: Option<Instant> = None;
    for tick in 0u64.. {
        let due =
            start + Duration::from_nanos(tick * READER_PERIOD_NS + jitter.below(READER_PERIOD_NS));
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let sent = Instant::now();
        out.lateness_ns.push((sent - due).as_nanos() as f64);
        let from = if due < prev_done { due } else { sent };
        let kind = tick as usize % kinds;
        let key = probes[(tick as usize / kinds) % probes.len()];
        if trace && kind >= 2 {
            std::hint::black_box(
                log.time("freq.global_window", None, tick, || handle.global_window()),
            );
        }
        let name = [
            "query.estimate",
            "query.heavy_hitters",
            "query.sliding_estimate",
            "query.sliding_heavy_hitters",
        ][kind];
        log.time(name, None, tick, || match kind {
            0 => drop(std::hint::black_box(handle.estimate(key))),
            1 => drop(std::hint::black_box(handle.heavy_hitters())),
            2 => drop(std::hint::black_box(handle.sliding_estimate(key))),
            _ => drop(std::hint::black_box(handle.sliding_heavy_hitters())),
        });
        out.query_ns[kind].push(from.elapsed().as_nanos() as f64);
        out.queries += 1;
        let visible: u64 = log.time("engine.snapshots", None, tick, || {
            handle.snapshots().iter().map(|s| s.stream_len).sum()
        });
        out.polls.push((epoch.elapsed().as_nanos() as u64, visible));
        prev_done = Instant::now();
        if stop.load(Ordering::Acquire) {
            let since = *stopped_at.get_or_insert(prev_done);
            if visible >= all_items || since.elapsed() > Duration::from_secs(2) {
                break;
            }
        }
    }
    out
}

/// Visibility lag of each batch: from its `ingest` returning until the
/// first poll whose summed `stream_len` covers it (`0` when a poll saw it
/// before the call returned). `None` for a batch no poll covered.
pub fn visibility_lags(returned: &[u64], polls: &[(u64, u64)], batch: u64) -> Vec<Option<f64>> {
    let mut p = 0;
    returned
        .iter()
        .enumerate()
        .map(|(j, &ret)| {
            let target = (j as u64 + 1) * batch;
            while p < polls.len() && polls[p].1 < target {
                p += 1;
            }
            polls.get(p).map(|&(t, _)| t.saturating_sub(ret) as f64)
        })
        .collect()
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    items: u64,
    wall_ns: u64,
    drain_ns: u64,
    /// Time the producer spent inside `ingest`.
    in_ingest_ns: u64,
    /// Per batch: from its due time (paced) or its call (closed loop)
    /// until `ingest` returned.
    ingest_ns: Vec<f64>,
    lags_ns: Vec<f64>,
    reader: ReaderOut,
    append_ns: Vec<f64>,
    metrics: EngineMetrics,
    attempted: u64,
    failed: u64,
    gate: Gate,
    log: SpanLog,
}

/// A fresh store directory for round `index` (unused without a store).
fn store_dir(spec: Spec, args: &Args, index: usize) -> Result<PathBuf, String> {
    let store = args.work_dir.join(format!(
        "{}-{}-{index}",
        args.workload.name(),
        std::process::id()
    ));
    if spec.durable {
        let _ = std::fs::remove_dir_all(&store);
        std::fs::create_dir_all(&store).map_err(|e| format!("create {}: {e}", store.display()))?;
    }
    Ok(store)
}

/// Times `SETUPS_PER_ROUND` set-ups alone, each shut down at once.
fn time_setups(spec: Spec, args: &Args, setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUPS_PER_ROUND {
        let store = store_dir(spec, args, usize::MAX - setups.len())?;
        let (engine, producer, setup_s) = set_up(spec, &store)?;
        setups.push(setup_s);
        drop(producer);
        engine
            .shutdown()
            .map_err(|e| format!("shutdown after a set-up: {e:?}"))?;
        if spec.durable {
            let _ = std::fs::remove_dir_all(&store);
        }
    }
    Ok(())
}

/// The set-up: engine spawn (with the store open) and the producer.
fn set_up(spec: Spec, store: &Path) -> Result<(Engine, Producer, f64), String> {
    let began = Instant::now();
    let engine = Engine::builder(spec.config(store))
        .try_spawn()
        .map_err(|e| format!("engine spawn: {e}"))?;
    let producer = engine.handle().producer();
    Ok((engine, producer, began.elapsed().as_secs_f64()))
}

fn round(
    spec: Spec,
    input: &Input,
    args: &Args,
    index: usize,
    epoch: Instant,
    paced: bool,
) -> Result<Round, String> {
    let store = store_dir(spec, args, index)?;
    let (engine, mut producer, setup_s) = set_up(spec, &store)?;
    let handle = engine.handle();

    let all_items = (input.batches.len() * BATCH) as u64;
    let stop = AtomicBool::new(false);
    let mut log = SpanLog::new(epoch, args.trace);
    let mut gate = Gate::default();
    let mut ingest_ns = Vec::with_capacity(input.batches.len());
    let mut returned = Vec::with_capacity(input.batches.len());
    let mut failed = 0u64;
    let mut in_ingest_ns = 0u64;
    let mut append_ns = Vec::new();
    let interval = Duration::from_secs_f64(BATCH as f64 / spec.paced_items_per_s);
    let (reader, wall_ns, drain_ns) = thread::scope(|scope| {
        let reader = scope.spawn(|| {
            read_loop(
                &handle,
                spec,
                input,
                &stop,
                epoch,
                args.trace,
                args.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        });
        let started = Instant::now();
        for (i, batch) in input.batches.iter().enumerate() {
            let due = if paced {
                let due = started + interval * i as u32;
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                due
            } else {
                Instant::now()
            };
            let call = Instant::now();
            let accepted = log.time("engine.producer_ingest", None, i as u64, || {
                producer.ingest(batch)
            });
            in_ingest_ns += call.elapsed().as_nanos() as u64;
            ingest_ns.push(due.elapsed().as_nanos() as f64);
            returned.push(epoch.elapsed().as_nanos() as u64);
            if accepted.is_err() {
                failed += 1;
            }
        }
        let draining = Instant::now();
        let drained = log.time("engine.drain", None, 0, || engine.drain());
        let end = Instant::now();
        gate.check(drained.is_ok(), || format!("drain failed: {drained:?}"));
        stop.store(true, Ordering::Release);
        let reader = reader.join().expect("reader thread panicked");
        (
            reader,
            (end - started).as_nanos() as u64,
            (end - draining).as_nanos() as u64,
        )
    });
    if spec.durable && args.trace {
        for i in 0..3 {
            let started = Instant::now();
            let persisted = log.time("store.snapshot_now", None, i, || handle.snapshot_now());
            append_ns.push(started.elapsed().as_nanos() as f64);
            gate.check(persisted.is_ok(), || {
                format!("snapshot_now failed: {persisted:?}")
            });
        }
    }

    let accepted = all_items - failed * BATCH as u64;
    let lags = visibility_lags(&returned, &reader.polls, BATCH as u64);
    let unseen = lags.iter().filter(|l| l.is_none()).count();
    gate.check(unseen == 0, || {
        format!("{unseen} batches never became visible")
    });
    gate.merge(check_stream(&handle, &input.truth, &input.probes, accepted));
    if let Some(((seq, items), counts)) = &input.window {
        gate.merge(check_window(
            &handle,
            handle.global_window(),
            *seq,
            (*items, *items),
            counts,
            counts,
            &input.probes,
        ));
    }
    let metrics = handle.metrics();
    drop(producer);
    let shutdown = engine.shutdown();
    gate.check(shutdown.is_ok(), || {
        format!("shutdown failed: {:?}", shutdown.err())
    });
    if spec.durable {
        let _ = std::fs::remove_dir_all(&store);
    }
    Ok(Round {
        setup_s,
        items: accepted,
        wall_ns,
        drain_ns,
        in_ingest_ns,
        attempted: input.batches.len() as u64 + reader.queries,
        ingest_ns,
        lags_ns: lags.into_iter().flatten().collect(),
        reader,
        append_ns,
        metrics,
        failed,
        gate,
        log,
    })
}

pub fn run(workload: Workload, args: &Args) -> Result<Report, String> {
    let spec = Spec::of(workload);
    let epoch = Instant::now();
    let input = Input::generate(spec, args.seed, args.batches);
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let measuring = Instant::now();
    let mut rounds = Vec::new();
    let mut setups = Vec::new();
    while rounds.len() < MIN_ROUNDS || measuring.elapsed().as_secs_f64() < budget / 2.0 {
        rounds.push(round(spec, &input, args, rounds.len(), epoch, false)?);
        time_setups(spec, args, &mut setups)?;
    }
    let closed = rounds.len();
    while rounds.len() < closed + MIN_ROUNDS || measuring.elapsed().as_secs_f64() < budget {
        rounds.push(round(spec, &input, args, rounds.len(), epoch, true)?);
        time_setups(spec, args, &mut setups)?;
    }
    let (closed, paced) = rounds.split_at_mut(closed);
    setups.extend(closed.iter().chain(paced.iter()).map(|r| r.setup_s));

    if spec.durable {
        // Only removes the directory when every round's store is gone.
        let _ = std::fs::remove_dir(&args.work_dir);
    }

    let mut report = Report {
        runs: closed.len() + paced.len(),
        ..Report::default()
    };
    for r in closed.iter().chain(paced.iter()) {
        report.attempted += r.attempted;
        report.failed += r.failed;
        report.violations.extend(r.gate.violations.iter().cloned());
    }
    let checks: u64 = closed
        .iter()
        .chain(paced.iter())
        .map(|r| r.gate.checks)
        .sum();
    report.correct = report.violations.is_empty();
    report.lines.push(format!(
        "gates: {checks} checks over {} rounds, {} violations",
        report.runs,
        report.violations.len()
    ));

    let throughput: Vec<f64> = closed
        .iter()
        .map(|r| r.items as f64 / (r.wall_ns as f64 / 1e9))
        .collect();
    report.lines.push(format!(
        "closed loop: ingest_items_per_s per round: {}",
        quartiles(&throughput)
    ));
    report
        .lines
        .push(format!("setup_s: {}", quartiles(&setups)));
    let pooled = |rounds: &[Round], f: &dyn Fn(&Round) -> &Vec<f64>| {
        Samples::new(rounds.iter().flat_map(|r| f(r).iter().copied()).collect())
    };
    for (phase, rounds) in [("closed loop", &*closed), ("paced", &*paced)] {
        let calls = pooled(rounds, &|r| &r.ingest_ns);
        report.lines.push(format!(
            "{phase}: ingest request: {}",
            calls.describe(1e-3, "us")
        ));
        let lags = pooled(rounds, &|r| &r.lags_ns);
        report.lines.push(format!(
            "{phase}: visible lag: {}",
            lags.describe(1e-6, "ms")
        ));
        for (k, kind) in KINDS.iter().enumerate().take(spec.kinds()) {
            let samples = pooled(rounds, &|r: &Round| &r.reader.query_ns[k]);
            report.lines.push(format!(
                "{phase}: query {kind}: {}",
                samples.describe(1e-3, "us")
            ));
        }
    }
    report
        .lines
        .push(format!("paced at {} items/s", spec.paced_items_per_s));
    let lateness = pooled(paced, &|r| &r.reader.lateness_ns);
    report.lines.push(format!(
        "paced: reader lateness: {}",
        lateness.describe(1e-3, "us")
    ));
    let queries: Vec<Samples> = (0..spec.kinds())
        .map(|k| pooled(paced, &|r: &Round| &r.reader.query_ns[k]))
        .collect();

    Latencies {
        request: pooled(paced, &|r| &r.ingest_ns),
        lags: pooled(paced, &|r| &r.lags_ns),
        estimate: queries[0].clone(),
        heavy: queries[1].clone(),
        sliding: spec
            .windowed
            .then(|| (queries[2].clone(), queries[3].clone())),
        failed_ns: f64::INFINITY,
        request_round_p50s: paced.iter().map(|r| median(&r.ingest_ns)).collect(),
    }
    .report(&mut report, args.trace);
    if !args.trace {
        let l = &END_TO_END;
        report.set(l, "setup_s", lower_quartile(&setups));
        report.set(l, "ingest_items_per_s", median(&throughput));
        report.set(
            l,
            "ok_share",
            1.0 - report.failed as f64 / report.attempted as f64,
        );
        return Ok(report);
    }

    // Traced run: the engine rounds above recorded spans around every
    // public call; now the single-thread replay times each layer.
    let mut log = SpanLog::new(epoch, true);
    let mut replay_log = SpanLog::new(epoch, true);
    let ledger = replay(
        &input.batches,
        &spec.routing(),
        spec.windowed,
        &mut replay_log,
    );
    for r in closed.iter_mut().chain(paced.iter_mut()) {
        log.absorb(std::mem::replace(&mut r.log, SpanLog::new(epoch, false)));
        log.absorb(std::mem::replace(
            &mut r.reader.log,
            SpanLog::new(epoch, false),
        ));
    }
    log.absorb(replay_log);
    layer_report(&mut report, closed, &ledger, &log, &lateness);
    let path = args.out_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    log.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.lines.push(format!(
        "spans: {} written to {}",
        log.spans().len(),
        path.display()
    ));
    Ok(report)
}

/// `median [q1, q3] (n)` of per-round values.
pub fn quartiles(values: &[f64]) -> String {
    let s = Samples::new(values.to_vec());
    format!(
        "median {:.6} [q1 {:.6}, q3 {:.6}] over {} runs",
        s.quantile(0.5),
        s.quantile(0.25),
        s.quantile(0.75),
        s.len()
    )
}

fn layer_report(
    report: &mut Report,
    rounds: &[Round],
    ledger: &Ledger,
    log: &SpanLog,
    lateness: &Samples,
) {
    let l = &PER_LAYER;
    let route_per_item = ledger.route_ns_per_item();
    let blocked: Vec<f64> = rounds
        .iter()
        .map(|r| {
            (r.in_ingest_ns as f64 - route_per_item * r.items as f64).max(0.0) / r.wall_ns as f64
        })
        .collect();
    let drain_ns: Vec<f64> = rounds.iter().map(|r| r.drain_ns as f64).collect();
    set_layer_metrics(
        report,
        ledger,
        &rounds.last().expect("at least one round").metrics,
        log,
        median(&blocked),
        median(&drain_ns) / 1e6,
        lateness,
    );

    let stores: Vec<_> = rounds.iter().filter_map(|r| r.metrics.store).collect();
    if !stores.is_empty() {
        let store_median = |f: &dyn Fn(&psfa_engine::StoreMetrics) -> f64| {
            median(&stores.iter().map(f).collect::<Vec<_>>())
        };
        report.set(
            l,
            "store.epochs_persisted",
            store_median(&|s| s.epochs_persisted as f64),
        );
        report.set(
            l,
            "store.bytes_per_epoch",
            store_median(&|s| s.bytes_written as f64 / s.epochs_persisted.max(1) as f64),
        );
        report.set(
            l,
            "store.flush_failures",
            stores.iter().map(|s| s.flush_failures).sum::<u64>() as f64,
        );
    }
    let appends: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.append_ns.iter().copied())
        .collect();
    if !appends.is_empty() {
        report.set(l, "store.append_ms", median(&appends) / 1e6);
    }
    let wall = median(&rounds.iter().map(|r| r.wall_ns as f64).collect::<Vec<_>>());
    ledger_lines(report, ledger, wall, "engine round");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_is_measured_from_return_to_first_covering_poll() {
        let returned = [100, 200, 300];
        let polls = [(150, 10), (250, 20), (260, 30)];
        let lags = visibility_lags(&returned, &polls, 10);
        assert_eq!(lags, vec![Some(50.0), Some(50.0), Some(0.0)]);
        assert_eq!(visibility_lags(&[5], &[(9, 0)], 10), vec![None]);
    }
}
