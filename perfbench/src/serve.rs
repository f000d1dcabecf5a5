//! `serve-mixed`: `psfa-serve` on loopback in front of a 2-shard windowed
//! engine. An open loop over at most two connections (never more than the
//! machine's cores) sends a fixed mix — 6/8 `IngestBatch` of 512 Zipf
//! items, 1/8 `Estimate`, 1/8 `HeavyHitters` — on a schedule fixed in
//! advance. Latency counts from each request's due time. A `Busy` reply is
//! retried after a short pause, as a client of the server would; the
//! request's latency then runs until it is accepted, it counts against
//! `ok_share`, and on the rate ladder it misses the latency limit. An error
//! or a request not sent by the deadline is a failure.
//!
//! After the schedule, the same connections send a fixed number of
//! `IngestBatch` requests in a closed loop, each as soon as the previous
//! reply is in; the items they ingest over the time until the engine has
//! drained them are the step's wire ingest throughput.
//!
//! Untraced runs measure the reference rate only; traced runs climb the
//! rate ladder, time the codec and in-process ingest, and replay the
//! batches through the shard layers.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use psfa_engine::{Engine, EngineHandle, EngineMetrics};
use psfa_serve::{Client, Request, Response, ServeConfig, ServeMetrics, Server};

use crate::gen::{batches, probe_keys, Keys};
use crate::ingest::{quartiles, Spec};
use crate::replay::{ledger_lines, replay, set_layer_metrics};
use crate::stats::{lower_quartile, median, Samples};
use crate::trace::SpanLog;
use crate::truth::{check_stream, check_window, Gate, Truth};
use crate::WINDOW;
use crate::{Args, Latencies, Report, Workload, END_TO_END, PANES, PER_LAYER, READER_PERIOD_NS};

pub const REFERENCE_RPS: f64 = 5_000.0;
pub const LADDER_RPS: [f64; 4] = [2_500.0, 5_000.0, 10_000.0, 20_000.0];
/// Latency limit a ladder rate must keep at p99.
pub const LIMIT_NS: f64 = 2e6;
pub const ITEMS_PER_REQUEST: usize = 512;
/// Distinct generated ingest batches; the schedule cycles through them.
const POOL: usize = 2048;
/// Requests still unsent this long after the schedule ends are failures.
const GRACE_NS: u64 = 250_000_000;
/// Pause before re-sending a request that got `Busy`.
const BUSY_PAUSE: Duration = Duration::from_micros(500);
/// `IngestBatch` requests of each step's closed-loop burst.
const BURST_REQUESTS: u64 = 4096;
/// Burst requests still unsent this long after the burst began are failures.
const BURST_LIMIT_NS: u64 = 20_000_000_000;
/// Reference-rate steps of an untraced run, and set-ups timed alone after
/// every step.
const REFERENCE_STEPS: usize = 10;
const SETUPS_PER_STEP: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ingest(usize),
    Estimate(u64),
    HeavyHitters,
}

struct Input {
    pool: Vec<Vec<u64>>,
    probes: Vec<u64>,
}

impl Input {
    fn kind(&self, slot: u64) -> Kind {
        let (block, pos) = (slot / 8, slot % 8);
        match pos {
            0..=5 => Kind::Ingest(((block * 6 + pos) % self.pool.len() as u64) as usize),
            6 => Kind::Estimate(self.probes[block as usize % self.probes.len()]),
            _ => Kind::HeavyHitters,
        }
    }

    fn request(&self, kind: Kind) -> Request {
        match kind {
            Kind::Ingest(b) => Request::IngestBatch(self.pool[b].clone()),
            Kind::Estimate(key) => Request::Estimate(key),
            Kind::HeavyHitters => Request::HeavyHitters,
        }
    }
}

/// One request as the generator saw it; times are nanoseconds since the
/// step started, `NEVER` for a request not sent.
#[derive(Clone, Copy)]
struct Rec {
    kind: Kind,
    due: u64,
    send: u64,
    done: u64,
    ok: bool,
    /// `Busy` replies before the request was accepted.
    busy: u32,
}

const NEVER: u64 = u64::MAX;

impl Rec {
    fn latency(&self) -> f64 {
        if self.ok {
            self.done.saturating_sub(self.due) as f64
        } else {
            f64::INFINITY
        }
    }

    /// Latency against the ladder's limit: a `Busy` reply misses it.
    fn limit_latency(&self) -> f64 {
        if self.busy > 0 {
            f64::INFINITY
        } else {
            self.latency()
        }
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Sends `kind` and waits for the reply, re-sending after `Busy` until the
/// deadline. A broken connection is reopened for the next request. Returns
/// whether the expected reply came, and the `Busy` replies before it.
#[allow(clippy::too_many_arguments)]
fn exchange(
    client: &mut Option<Client>,
    addr: SocketAddr,
    input: &Input,
    kind: Kind,
    t0: Instant,
    deadline_ns: u64,
    slot: u64,
    log: &mut SpanLog,
) -> (bool, u32) {
    let request = input.request(kind);
    let mut busy = 0;
    let reply = loop {
        let reply = match client.as_mut() {
            Some(c) => log.time("loadgen.request", None, slot, || c.call(&request)),
            None => Err(psfa_serve::ClientError::Unexpected("not connected")),
        };
        if !matches!(reply, Ok(Response::Busy)) || ns_since(t0) > deadline_ns {
            break reply;
        }
        busy += 1;
        thread::sleep(BUSY_PAUSE);
    };
    let ok = match (&kind, &reply) {
        (Kind::Ingest(_), Ok(Response::IngestAck { items })) => *items == ITEMS_PER_REQUEST as u64,
        (Kind::Estimate(_), Ok(Response::Count(_))) => true,
        (Kind::HeavyHitters, Ok(Response::HeavyHitters(_))) => true,
        _ => false,
    };
    if reply.is_err() {
        *client = Client::connect(addr).ok();
    }
    (ok, busy)
}

/// One connection of the open loop: claims the next slot, sleeps until it
/// is due, then sends it.
#[allow(clippy::too_many_arguments)]
fn connection(
    addr: SocketAddr,
    input: &Input,
    t0: Instant,
    interval_ns: f64,
    total: u64,
    deadline_ns: u64,
    next: &AtomicU64,
    log: &mut SpanLog,
) -> Vec<Rec> {
    let mut client = Client::connect(addr).ok();
    let mut recs = Vec::new();
    loop {
        let slot = next.fetch_add(1, Ordering::Relaxed);
        if slot >= total {
            return recs;
        }
        let kind = input.kind(slot);
        let due = (slot as f64 * interval_ns) as u64;
        let now = ns_since(t0);
        if now > deadline_ns {
            recs.push(Rec {
                kind,
                due,
                send: NEVER,
                done: NEVER,
                ok: false,
                busy: 0,
            });
            continue;
        }
        if due > now {
            thread::sleep(Duration::from_nanos(due - now));
        }
        let send = ns_since(t0);
        let (ok, busy) = exchange(&mut client, addr, input, kind, t0, deadline_ns, slot, log);
        recs.push(Rec {
            kind,
            due,
            send,
            done: ns_since(t0),
            ok,
            busy,
        });
    }
}

/// One connection of the closed-loop burst: claims the next of
/// `BURST_REQUESTS` ingest batches and sends it as soon as the previous
/// reply is in.
fn burst(
    addr: SocketAddr,
    input: &Input,
    t0: Instant,
    deadline_ns: u64,
    next: &AtomicU64,
    log: &mut SpanLog,
) -> Vec<Rec> {
    let mut client = Client::connect(addr).ok();
    let mut recs = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= BURST_REQUESTS {
            return recs;
        }
        let kind = Kind::Ingest(i as usize % input.pool.len());
        let send = ns_since(t0);
        let (ok, busy) = if send > deadline_ns {
            (false, 0)
        } else {
            exchange(&mut client, addr, input, kind, t0, deadline_ns, i, log)
        };
        recs.push(Rec {
            kind,
            due: send,
            send,
            done: ns_since(t0),
            ok,
            busy,
        });
    }
}

/// One step: a fresh engine and server, one rate for `secs`, then drain,
/// check and shut down.
struct Step {
    rate: f64,
    setup_s: f64,
    recs: Vec<Rec>,
    /// The closed-loop burst after the schedule.
    burst: Vec<Rec>,
    /// From the burst's first send until the engine had drained it.
    burst_ns: u64,
    /// `(ns since the step started, items visible)` per poll.
    polls: Vec<(u64, u64)>,
    duration_ns: u64,
    deadline_ns: u64,
    drain_ns: u64,
    serve: ServeMetrics,
    metrics: EngineMetrics,
    gate: Gate,
    log: SpanLog,
}

fn spawn(spec: Spec) -> Result<(Engine, Server), String> {
    let engine = Engine::spawn(spec.config(Path::new("")));
    let server =
        Server::spawn(engine.handle(), ServeConfig::default()).map_err(|e| format!("bind: {e}"))?;
    Ok((engine, server))
}

fn step(input: &Input, rate: f64, secs: f64, epoch: Instant, trace: bool) -> Result<Step, String> {
    let spec = Spec::of(Workload::ServeMixed);
    let began = Instant::now();
    let (engine, server) = spawn(spec)?;
    let setup_s = began.elapsed().as_secs_f64();
    let handle = engine.handle();
    let addr = server.local_addr();
    let connections = crate::cores().clamp(1, 2);
    let total = (rate * secs).round().max(8.0) as u64;
    let interval_ns = 1e9 / rate;
    let duration_ns = (total as f64 * interval_ns) as u64;
    let deadline_ns = duration_ns + GRACE_NS;
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut log = SpanLog::new(epoch, trace);
    let t0 = Instant::now();
    let (recs, polls, poll_log) = thread::scope(|scope| {
        let poller = scope.spawn(|| poll_visibility(&handle, t0, &stop, epoch, trace));
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = SpanLog::new(epoch, trace);
                    let recs = connection(
                        addr,
                        input,
                        t0,
                        interval_ns,
                        total,
                        deadline_ns,
                        &next,
                        &mut log,
                    );
                    (recs, log)
                })
            })
            .collect();
        let mut recs = Vec::new();
        for w in workers {
            let (r, l) = w.join().expect("load generator connection panicked");
            recs.extend(r);
            log.absorb(l);
        }
        stop.store(true, Ordering::Release);
        let (polls, poll_log) = poller.join().expect("visibility poller panicked");
        (recs, polls, poll_log)
    });
    log.absorb(poll_log);

    let burst_from = ns_since(t0);
    let burst_deadline = burst_from + BURST_LIMIT_NS;
    let next = AtomicU64::new(0);
    let burst_recs = thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = SpanLog::new(epoch, trace);
                    let recs = burst(addr, input, t0, burst_deadline, &next, &mut log);
                    (recs, log)
                })
            })
            .collect();
        let mut recs = Vec::new();
        for w in workers {
            let (r, l) = w.join().expect("burst connection panicked");
            recs.extend(r);
            log.absorb(l);
        }
        recs
    });
    let draining = Instant::now();
    let drained = engine.drain();
    let drain_ns = draining.elapsed().as_nanos() as u64;
    let burst_ns = ns_since(t0) - burst_from;
    let serve = server.shutdown();
    let mut gate = Gate::default();
    gate.check(drained.is_ok(), || format!("drain failed: {drained:?}"));
    let sent: Vec<Rec> = recs.iter().chain(&burst_recs).copied().collect();
    gate.merge(check_step(input, &handle, &sent, &serve));
    if trace {
        for i in 0..16 {
            std::hint::black_box(
                log.time("freq.global_window", None, i, || handle.global_window()),
            );
        }
    }
    let metrics = handle.metrics();
    let shutdown = engine.shutdown();
    gate.check(shutdown.is_ok(), || {
        format!("shutdown failed: {:?}", shutdown.err())
    });
    Ok(Step {
        rate,
        setup_s,
        recs,
        burst: burst_recs,
        burst_ns,
        polls,
        duration_ns,
        deadline_ns,
        drain_ns,
        serve,
        metrics,
        gate,
        log,
    })
}

/// Polls `snapshots()` at 1 kHz until stopped.
fn poll_visibility(
    handle: &EngineHandle,
    t0: Instant,
    stop: &AtomicBool,
    epoch: Instant,
    trace: bool,
) -> (Vec<(u64, u64)>, SpanLog) {
    let mut log = SpanLog::new(epoch, trace);
    let mut polls = Vec::new();
    for tick in 0u64.. {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let due = tick * READER_PERIOD_NS;
        let now = ns_since(t0);
        if due > now {
            thread::sleep(Duration::from_nanos(due - now));
        }
        let visible: u64 = log.time("engine.snapshots", None, tick, || {
            handle.snapshots().iter().map(|s| s.stream_len).sum()
        });
        polls.push((ns_since(t0), visible));
    }
    (polls, log)
}

/// The step's gates: item conservation against acknowledged batches, the
/// stream bounds over the acknowledged items, and the window bound. Two
/// connections interleave, so a batch's stream position is known only to
/// lie between the batches acknowledged before it was sent and those sent
/// before it was acknowledged. A window boundary, too, is cut only after
/// the claim that crosses it, within that request's call: batches claimed
/// in between land in the earlier pane. The window gate therefore uses the
/// items certainly inside the window as its lower truth and those possibly
/// inside as its upper truth.
fn check_step(input: &Input, handle: &EngineHandle, recs: &[Rec], serve: &ServeMetrics) -> Gate {
    let mut gate = Gate::default();
    let acked: Vec<(u64, u64, usize)> = recs
        .iter()
        .filter(|r| r.ok)
        .filter_map(|r| match r.kind {
            Kind::Ingest(b) => Some((r.send, r.done, b)),
            _ => None,
        })
        .collect();
    let per = ITEMS_PER_REQUEST as u64;
    let accepted = acked.len() as u64 * per;
    gate.check(serve.ingested_items == accepted, || {
        format!(
            "server ingested {} items, {accepted} acknowledged",
            serve.ingested_items
        )
    });
    let truth = pool_truth(&input.pool, acked.iter().map(|a| a.2));
    gate.merge(check_stream(handle, &truth, &input.probes, accepted));

    let slide = WINDOW / PANES as u64;
    let seq = accepted / slide;
    let items = seq.min(PANES as u64) * slide;
    let (w_end, w_start) = (seq * slide, seq * slide - items);
    let mut dones: Vec<u64> = acked.iter().map(|a| a.1).collect();
    let mut sends: Vec<u64> = acked.iter().map(|a| a.0).collect();
    dones.sort_unstable();
    sends.sort_unstable();
    // (first and last possible position, send, done, pool batch)
    let placed: Vec<(u64, u64, u64, u64, usize)> = acked
        .iter()
        .map(|&(send, done, b)| {
            let first = per * dones.partition_point(|&d| d < send) as u64;
            let last = per * (sends.partition_point(|&s| s < done) as u64 - 1);
            (first, last, send, done, b)
        })
        .collect();
    // The boundary at position `p` is cut before the reply to the batch
    // that claimed `[p − per, p)`.
    let cut_by = |p: u64| {
        placed
            .iter()
            .filter(|x| x.0 + per <= p && p <= x.1 + per)
            .map(|x| x.3)
            .max()
            .unwrap_or(NEVER)
    };
    let (start_cut, end_cut) = (cut_by(w_start), cut_by(w_end));
    let (mut certain, mut possible) = (Vec::new(), Vec::new());
    for &(first, last, send, _, b) in &placed {
        let after_start = w_start == 0 || send > start_cut;
        let maybe_after_start = last + per > w_start;
        let before_end = last + per <= w_end;
        let maybe_before_end = first < w_end || send < end_cut;
        if after_start && before_end {
            certain.push(b);
        }
        if maybe_after_start && maybe_before_end {
            possible.push(b);
        }
    }
    let span = (certain.len() as u64 * per, possible.len() as u64 * per);
    let lower = pool_truth(&input.pool, certain);
    let upper = pool_truth(&input.pool, possible);
    gate.merge(check_window(
        handle,
        handle.global_window(),
        seq,
        span,
        &lower,
        &upper,
        &input.probes,
    ));
    gate
}

/// Exact counts of the pool batches named by `batches`, repeats included.
fn pool_truth(pool: &[Vec<u64>], batches: impl IntoIterator<Item = usize>) -> Truth {
    let mut times = vec![0u64; pool.len()];
    for b in batches {
        times[b] += 1;
    }
    let mut map: HashMap<u64, u64> = HashMap::new();
    for (batch, &t) in pool.iter().zip(&times).filter(|(_, &t)| t > 0) {
        for &key in batch {
            *map.entry(key).or_default() += t;
        }
    }
    Truth::of_counts(map)
}

/// Per-step figures derived from the request records.
struct Figures {
    all: Vec<f64>,
    estimate: Vec<f64>,
    heavy: Vec<f64>,
    lateness: Vec<f64>,
    lags: Vec<f64>,
    /// Requests of the schedule and of the burst, and those that failed.
    attempted: u64,
    failed: u64,
    /// Requests of the schedule, and those accepted without a `Busy` reply.
    scheduled: u64,
    first_try: u64,
    /// Items the burst ingested per second, drain included.
    items_per_s: f64,
    backlog_grows: bool,
    passes: bool,
}

fn figures(step: &Step) -> Figures {
    let of = |keep: &dyn Fn(&Rec) -> bool| -> Vec<f64> {
        step.recs
            .iter()
            .filter(|r| keep(r))
            .map(Rec::latency)
            .collect()
    };
    let all = of(&|_| true);
    let estimate = of(&|r| matches!(r.kind, Kind::Estimate(_)));
    let heavy = of(&|r| r.kind == Kind::HeavyHitters);
    let lateness = step
        .recs
        .iter()
        .filter(|r| r.send != NEVER)
        .map(|r| r.send.saturating_sub(r.due) as f64)
        .collect();
    let failed = step
        .recs
        .iter()
        .chain(&step.burst)
        .filter(|r| !r.ok)
        .count() as u64;
    let first_try = step.recs.iter().filter(|r| r.ok && r.busy == 0).count() as u64;

    // Visibility: the j-th acknowledged batch (in acknowledgement order)
    // is visible once the snapshots hold (j + 1) batches of items.
    let mut acks: Vec<u64> = step
        .recs
        .iter()
        .filter(|r| r.ok && matches!(r.kind, Kind::Ingest(_)))
        .map(|r| r.done)
        .collect();
    acks.sort_unstable();
    let lags: Vec<f64> =
        crate::ingest::visibility_lags(&acks, &step.polls, ITEMS_PER_REQUEST as u64)
            .into_iter()
            .flatten()
            .collect();
    let burst_items = step.burst.iter().filter(|r| r.ok).count() * ITEMS_PER_REQUEST;
    let items_per_s = burst_items as f64 / (step.burst_ns as f64 / 1e9);

    // Backlog: requests due but not yet answered, at the middle and at the
    // end of the schedule.
    let mut answered: Vec<u64> = step.recs.iter().map(|r| r.done).collect();
    answered.sort_unstable();
    let interval = step.duration_ns as f64 / step.recs.len() as f64;
    let backlog = |t: u64| {
        let due = ((t as f64 / interval) as usize + 1).min(step.recs.len());
        due.saturating_sub(answered.partition_point(|&d| d <= t))
    };
    let slack = (step.rate * LIMIT_NS / 1e9).max(4.0) as usize;
    let backlog_grows = backlog(step.duration_ns) > backlog(step.duration_ns / 2) + slack;
    let against_limit = Samples::new(step.recs.iter().map(Rec::limit_latency).collect());
    let passes = against_limit.quantile(0.99) <= LIMIT_NS && !backlog_grows;
    Figures {
        all,
        estimate,
        heavy,
        lateness,
        lags,
        attempted: (step.recs.len() + step.burst.len()) as u64,
        failed,
        scheduled: step.recs.len() as u64,
        first_try,
        items_per_s,
        backlog_grows,
        passes,
    }
}

fn describe_step(step: &Step, f: &Figures) -> String {
    format!(
        "step {:.0} req/s over {:.2}s: {} requests, {} failed, {} busy replies, {} frame errors, \
         backlog {}, {} | request {} | lateness {} | burst {:.0} items/s",
        step.rate,
        step.duration_ns as f64 / 1e9,
        f.attempted,
        f.failed,
        step.serve.busy_responses,
        step.serve.frame_errors,
        if f.backlog_grows { "grows" } else { "steady" },
        if f.passes {
            "within limit"
        } else {
            "over limit"
        },
        Samples::new(f.all.clone()).describe(1e-3, "us"),
        Samples::new(f.lateness.clone()).describe(1e-3, "us"),
        f.items_per_s,
    )
}

pub fn run(args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let pool = batches(Keys::Zipf, args.seed, POOL, ITEMS_PER_REQUEST);
    let probes = probe_keys(&pool, args.seed, 512);
    let input = Input { pool, probes };
    let mut report = Report::default();

    let rates: Vec<f64> = if args.trace {
        LADDER_RPS.to_vec()
    } else {
        vec![REFERENCE_RPS; REFERENCE_STEPS]
    };
    let share = if args.trace {
        0.15
    } else {
        1.0 / REFERENCE_STEPS as f64
    };
    let mut steps = Vec::new();
    let mut setups = Vec::new();
    for &rate in &rates {
        let step = step(&input, rate, args.seconds * share, epoch, args.trace)?;
        setups.push(step.setup_s);
        steps.push(step);
        for _ in 0..SETUPS_PER_STEP {
            let began = Instant::now();
            let (engine, server) = spawn(Spec::of(Workload::ServeMixed))?;
            setups.push(began.elapsed().as_secs_f64());
            server.shutdown();
            engine
                .shutdown()
                .map_err(|e| format!("shutdown after a set-up: {e:?}"))?;
        }
    }
    report.runs = steps.len();

    let figs: Vec<Figures> = steps.iter().map(figures).collect();
    for (s, f) in steps.iter().zip(&figs) {
        report.lines.push(describe_step(s, f));
        report.violations.extend(s.gate.violations.iter().cloned());
        // Ladder rates above the reference probe capacity: requests they
        // cannot serve are the measurement, reported above, not failures
        // of the workload.
        if s.rate <= REFERENCE_RPS {
            report.attempted += f.attempted;
            report.failed += f.failed;
        }
    }
    let checks: u64 = steps.iter().map(|s| s.gate.checks).sum();
    report.lines.push(format!(
        "gates: {checks} checks over {} steps, {} violations",
        steps.len(),
        report.violations.len()
    ));
    report
        .lines
        .push(format!("setup_s: {}", quartiles(&setups)));

    let reference: Vec<usize> = (0..steps.len())
        .filter(|&i| steps[i].rate == REFERENCE_RPS)
        .collect();
    let pool_of = |f: &dyn Fn(&Figures) -> &Vec<f64>| {
        Samples::new(
            reference
                .iter()
                .flat_map(|&i| f(&figs[i]).iter().copied())
                .collect(),
        )
    };
    let all = pool_of(&|f| &f.all);
    let estimate = pool_of(&|f| &f.estimate);
    let heavy = pool_of(&|f| &f.heavy);
    let lateness = pool_of(&|f| &f.lateness);
    let lags = pool_of(&|f| &f.lags);
    let throughput: Vec<f64> = reference.iter().map(|&i| figs[i].items_per_s).collect();
    report.lines.push(format!(
        "reference {REFERENCE_RPS} req/s: request {}",
        all.describe(1e-3, "us")
    ));
    report
        .lines
        .push(format!("  estimate {}", estimate.describe(1e-3, "us")));
    report
        .lines
        .push(format!("  heavy_hitters {}", heavy.describe(1e-3, "us")));
    report
        .lines
        .push(format!("  visible lag {}", lags.describe(1e-6, "ms")));
    report
        .lines
        .push(format!("  ingest_items_per_s {}", quartiles(&throughput)));
    let step_p99 = |f: &dyn Fn(&Figures) -> &Vec<f64>| {
        let p99s: Vec<f64> = reference
            .iter()
            .map(|&i| Samples::new(f(&figs[i]).clone()).quantile(0.99))
            .collect();
        quartiles(&p99s)
    };
    report.lines.push(format!(
        "  p99 per step: request {} | lag {} | estimate {} | heavy_hitters {}",
        step_p99(&|f| &f.all),
        step_p99(&|f| &f.lags),
        step_p99(&|f| &f.estimate),
        step_p99(&|f| &f.heavy),
    ));

    Latencies {
        request: all,
        lags,
        estimate,
        heavy,
        sliding: None,
        failed_ns: steps[reference[0]].deadline_ns as f64,
        request_round_p50s: reference.iter().map(|&i| median(&figs[i].all)).collect(),
    }
    .report(&mut report, args.trace);
    if !args.trace {
        let first_try: u64 = reference.iter().map(|&i| figs[i].first_try).sum();
        let scheduled: u64 = reference.iter().map(|&i| figs[i].scheduled).sum();
        let l = &END_TO_END;
        report.set(l, "setup_s", lower_quartile(&setups));
        report.set(l, "ingest_items_per_s", median(&throughput));
        report.set(l, "ok_share", first_try as f64 / scheduled as f64);
        report.correct = report.violations.is_empty();
        return Ok(report);
    }

    let max_rate = steps
        .iter()
        .zip(&figs)
        .filter(|(_, f)| f.passes)
        .map(|(s, _)| s.rate)
        .fold(0.0, f64::max);
    report.lines.push(format!(
        "max_rate_rps: {max_rate} (p99 within {} ms and no growing backlog)",
        LIMIT_NS / 1e6
    ));
    let mut log = SpanLog::new(epoch, true);
    for s in &mut steps {
        log.absorb(std::mem::replace(&mut s.log, SpanLog::new(epoch, false)));
    }
    layers(
        &mut report,
        &input,
        &steps,
        &reference,
        max_rate,
        &lateness,
        &mut log,
        epoch,
    )?;
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
    report.correct = report.violations.is_empty();
    Ok(report)
}

/// The traced run's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn layers(
    report: &mut Report,
    input: &Input,
    steps: &[Step],
    reference: &[usize],
    max_rate: f64,
    lateness: &Samples,
    log: &mut SpanLog,
    epoch: Instant,
) -> Result<(), String> {
    let l = &PER_LAYER;
    let spec = Spec::of(Workload::ServeMixed);
    let at_reference = &steps[reference[0]];

    // The workload's own frames: every request kind of one schedule cycle
    // over the pool, with the reply the server gives it.
    let (engine, server) = spawn(spec)?;
    server.shutdown();
    let handle = engine.handle();
    let slots = (input.pool.len() / 6 * 8) as u64;
    let mut ingest_wall = Instant::now();
    let mut ingests = 0u64;
    let mut in_ingest_ns = 0u64;
    let mut codec = (0u64, 0u64, 0u64); // (decode ns, encode ns, bytes)
    for slot in 0..slots {
        let kind = input.kind(slot);
        let request = input.request(kind);
        if slot == 0 {
            ingest_wall = Instant::now();
        }
        let reply = match kind {
            Kind::Ingest(b) => {
                let started = Instant::now();
                let ok = log.time("engine.ingest", None, slot, || {
                    handle.ingest(&input.pool[b])
                });
                in_ingest_ns += started.elapsed().as_nanos() as u64;
                ingests += 1;
                ok.map_err(|e| format!("in-process ingest: {e}"))?;
                Response::IngestAck {
                    items: ITEMS_PER_REQUEST as u64,
                }
            }
            Kind::Estimate(key) => Response::Count(handle.estimate(key)),
            Kind::HeavyHitters => Response::HeavyHitters(handle.heavy_hitters()),
        };
        let t = Instant::now();
        let req_bytes = log.time("serve.request_encode", None, slot, || request.encode());
        let resp_bytes = log.time("serve.response_encode", None, slot, || reply.encode());
        codec.1 += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let req_back = log.time("serve.request_decode", None, slot, || {
            Request::decode(&req_bytes)
        });
        let resp_back = log.time("serve.response_decode", None, slot, || {
            Response::decode(&resp_bytes)
        });
        codec.0 += t.elapsed().as_nanos() as u64;
        if req_back.as_ref() != Ok(&request) || resp_back.as_ref() != Ok(&reply) {
            report
                .violations
                .push(format!("codec round trip changed slot {slot}"));
        }
        codec.2 += (req_bytes.len() + resp_bytes.len()) as u64;
    }
    let drained = log.time("engine.drain", None, 0, || engine.drain());
    let wall_ns = ingest_wall.elapsed().as_nanos() as f64;
    drained.map_err(|e| format!("drain: {e:?}"))?;
    engine.shutdown().map_err(|e| format!("shutdown: {e:?}"))?;

    // The same batches, in schedule order, through the shard layers.
    let replayed: Vec<Vec<u64>> = (0..slots)
        .filter_map(|slot| match input.kind(slot) {
            Kind::Ingest(b) => Some(input.pool[b].clone()),
            _ => None,
        })
        .collect();
    let mut replay_log = SpanLog::new(epoch, true);
    let ledger = replay(&replayed, &spec.routing(), spec.windowed, &mut replay_log);
    log.absorb(replay_log);

    let blocked_ns = in_ingest_ns as f64 - ledger.route_ns_per_item() * ledger.items as f64;
    set_layer_metrics(
        report,
        &ledger,
        &at_reference.metrics,
        log,
        blocked_ns.max(0.0) / wall_ns,
        at_reference.drain_ns as f64 / 1e6,
        lateness,
    );
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    report.set(l, "serve.decode_ns", per(codec.0, slots));
    report.set(l, "serve.encode_ns", per(codec.1, slots));
    report.set(l, "serve.bytes_per_request", per(codec.2, slots));
    report.set(l, "serve.engine_ns_per_ingest", per(in_ingest_ns, ingests));
    report.set(
        l,
        "serve.busy_responses",
        steps.iter().map(|s| s.serve.busy_responses).sum::<u64>() as f64,
    );
    report.set(
        l,
        "serve.frame_errors",
        steps.iter().map(|s| s.serve.frame_errors).sum::<u64>() as f64,
    );
    report.set(l, "serve.max_rate_rps", max_rate);
    ledger_lines(
        report,
        &ledger,
        wall_ns,
        "in-process ingest of the served batches",
    );
    Ok(())
}
