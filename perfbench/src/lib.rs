//! The PSFA benchmark: four workloads that drive the engine, store and
//! server through their public APIs, check every answer against exact
//! counts, and report end-to-end metrics (untraced runs) or a per-layer
//! ledger (traced runs). See `README.md` in this directory.

pub mod gen;
pub mod ingest;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod truth;

use std::fmt::Write as _;
use std::path::PathBuf;

use stats::Samples;

/// Shards of every workload's engine.
pub const SHARDS: usize = 2;
/// Items per minibatch of the in-process workloads.
pub const BATCH: usize = 16 * 1024;
/// Global sliding window (items) and its panes, where a workload has one.
pub const WINDOW: u64 = 1 << 20;
pub const PANES: usize = 8;
/// Period of the open-loop reader that runs beside every ingest.
pub const READER_PERIOD_NS: u64 = 1_000_000;
/// Minibatches in the generated stream of the in-process workloads.
pub const BATCHES: usize = 512;

/// End-to-end metrics: every untraced run reports each one.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ingest_items_per_s", "items/s"),
    ("ok_share", "share"),
    ("request_p50_us", "us"),
];

/// Per-layer metrics: every traced run reports each one; a layer the
/// workload does not exercise reads `0`. The `tail.*`, `lag.*` and
/// `query.*` entries record end-to-end percentiles too unsteady on a small
/// shared host to bound (see `README.md`), measured in the traced run.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("stream.route_ns_per_item", "ns"),
    ("stream.shard_imbalance", "ratio"),
    ("engine.producer_blocked_share", "share"),
    ("engine.drain_ms", "ms"),
    ("primitives.build_hist_ns_per_item", "ns"),
    ("primitives.hist_compression", "ratio"),
    ("freq.mg_augment_ns_per_batch", "ns"),
    ("freq.work_units_per_item", "count"),
    ("sketch.count_min_ns_per_item", "ns"),
    ("freq.pane_ns_per_batch", "ns"),
    ("freq.seal_us", "us"),
    ("engine.snapshot_load_us", "us"),
    ("freq.global_window_merge_us", "us"),
    ("store.epochs_persisted", "count"),
    ("store.bytes_per_epoch", "bytes"),
    ("store.flush_failures", "count"),
    ("store.append_ms", "ms"),
    ("serve.decode_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.bytes_per_request", "bytes"),
    ("serve.engine_ns_per_ingest", "ns"),
    ("serve.busy_responses", "count"),
    ("serve.frame_errors", "count"),
    ("serve.max_rate_rps", "1/s"),
    ("loadgen.lateness_p99_us", "us"),
    ("tail.request_p99_us", "us"),
    ("lag.visible_p50_ms", "ms"),
    ("lag.visible_p99_ms", "ms"),
    ("tail.query_p99_us.estimate", "us"),
    ("tail.query_p99_us.heavy_hitters", "us"),
    ("query.estimate_p50_us", "us"),
    ("query.heavy_hitters_p50_us", "us"),
    ("query.sliding_estimate_p50_us", "us"),
    ("query.sliding_heavy_hitters_p50_us", "us"),
    ("unattributed", "ms"),
    ("unattributed_share", "share"),
    ("trace.overhead_share", "share"),
];

/// The latency samples every workload collects, pooled over the run, and
/// the request median of each round or step. Untraced runs report the
/// lower quartile of the per-round request medians (see
/// [`stats::lower_quartile`]); traced runs record the pooled percentiles.
pub struct Latencies {
    pub request: Samples,
    pub lags: Samples,
    pub estimate: Samples,
    pub heavy: Samples,
    /// `sliding_estimate` and `sliding_heavy_hitters`, where the engine
    /// has a window and the workload issues them.
    pub sliding: Option<(Samples, Samples)>,
    /// What a failed request reads as in a percentile (the step deadline).
    pub failed_ns: f64,
    pub request_round_p50s: Vec<f64>,
}

impl Latencies {
    fn at(&self, samples: &Samples, q: f64) -> f64 {
        let v = samples.quantile(q);
        if v.is_finite() {
            v
        } else {
            self.failed_ns
        }
    }

    pub fn report(&self, report: &mut Report, trace: bool) {
        if !trace {
            let v = stats::lower_quartile(&self.request_round_p50s);
            let v = if v.is_finite() { v } else { self.failed_ns };
            report.set(&END_TO_END, "request_p50_us", v / 1e3);
            return;
        }
        let l = &PER_LAYER;
        let us = |samples: &Samples, q: f64| self.at(samples, q) / 1e3;
        report.set(l, "tail.request_p99_us", us(&self.request, 0.99));
        report.set(l, "lag.visible_p50_ms", self.lags.quantile(0.5) / 1e6);
        report.set(l, "lag.visible_p99_ms", self.lags.quantile(0.99) / 1e6);
        report.set(l, "tail.query_p99_us.estimate", us(&self.estimate, 0.99));
        report.set(l, "tail.query_p99_us.heavy_hitters", us(&self.heavy, 0.99));
        report.set(l, "query.estimate_p50_us", us(&self.estimate, 0.5));
        report.set(l, "query.heavy_hitters_p50_us", us(&self.heavy, 0.5));
        let (est, hh) = self
            .sliding
            .as_ref()
            .map_or((0.0, 0.0), |(e, h)| (us(e, 0.5), us(h, 0.5)));
        report.set(l, "query.sliding_estimate_p50_us", est);
        report.set(l, "query.sliding_heavy_hitters_p50_us", hh);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZipfIngest,
    UniformIngest,
    WindowedDurable,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ZipfIngest,
        Workload::UniformIngest,
        Workload::WindowedDurable,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfIngest => "zipf-ingest",
            Workload::UniformIngest => "uniform-ingest",
            Workload::WindowedDurable => "windowed-durable",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Minibatches in the generated stream of the in-process workloads:
    /// [`BATCHES`] from the command line, fewer in tests.
    pub batches: usize,
    /// Where durable workloads put their stores (removed after each round).
    pub work_dir: PathBuf,
    /// Where traced runs write their spans.
    pub out_dir: PathBuf,
}

impl Args {
    pub const USAGE: &'static str = "usage: perfbench --workload <zipf-ingest|uniform-ingest|\
windowed-durable|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            batches: BATCHES,
            work_dir: PathBuf::from(".bench_tmp"),
            out_dir: PathBuf::from(".bench_out"),
        })
    }
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of the metric list.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable detail printed before the result line.
    pub lines: Vec<String>,
    /// Repetitions (engine rounds or serve steps) the run measured.
    pub runs: usize,
    pub violations: Vec<String>,
}

impl Report {
    /// Records `value` under `name`, which must be one of `list`.
    pub fn set(&mut self, list: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = list
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a listed metric"));
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// Puts the metrics in list order and fails on a missing or
    /// non-finite one.
    pub fn finish(&mut self, list: &[(&'static str, &'static str)]) -> Result<(), String> {
        let mut ordered = Vec::with_capacity(list.len());
        for &(name, _) in list {
            let found = self
                .metrics
                .iter()
                .find(|(n, _, _)| *n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !found.1.is_finite() {
                return Err(format!("metric {name} is not finite: {}", found.1));
            }
            ordered.push(*found);
        }
        self.metrics = ordered;
        Ok(())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#);
        }
        out.push_str("}}");
        out
    }
}

/// The commit under test, when the checkout can tell: `PSFA_BENCH_COMMIT`,
/// else `.git/HEAD` resolved through its ref, else `unknown`.
pub fn commit() -> String {
    if let Ok(commit) = std::env::var("PSFA_BENCH_COMMIT") {
        return commit;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host and run metadata, printed as one JSON line with every record.
pub fn meta_json(args: &Args, runs: usize) -> String {
    format!(
        r#"{{"meta": {{"workload": "{}", "cores": {}, "commit": "{}", "seed": {}, "seconds": {}, "trace": {}, "runs": {}, "batches": {}}}}}"#,
        args.workload.name(),
        cores(),
        commit(),
        args.seed,
        args.seconds,
        args.trace,
        runs,
        args.batches
    )
}

/// Runs one workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload {
        Workload::ServeMixed => serve::run(args)?,
        w => ingest::run(w, args)?,
    };
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    report.finish(list)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_the_command_line() {
        let argv = "--workload serve-mixed --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from);
        let args = Args::parse(argv).unwrap();
        assert_eq!(args.workload, Workload::ServeMixed);
        assert_eq!((args.seed, args.seconds, args.trace), (3, 10.0, true));
        assert!(Args::parse(["--workload", "nope"].map(String::from).into_iter()).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.set(&END_TO_END, "setup_s", 0.5);
        assert_eq!(
            r.result_json(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
        assert!(
            r.finish(&END_TO_END).is_err(),
            "missing metrics are refused"
        );
    }
}
