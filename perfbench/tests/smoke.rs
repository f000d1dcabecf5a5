//! The benchmark's own tests: every workload at minimum size passes its
//! correctness gates and reports every end-to-end metric; a traced run
//! reports every per-layer metric, `unattributed` among them; and
//! `BENCHMARK.json` lists exactly the metrics the program emits.

use std::path::PathBuf;

use perfbench::{run, Args, Report, Workload, END_TO_END, PER_LAYER};

fn args(workload: Workload, trace: bool) -> Args {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}",
        workload.name(),
        if trace { "traced" } else { "plain" }
    ));
    Args {
        workload,
        seed: 5,
        seconds: 0.2,
        trace,
        batches: 16,
        work_dir: scratch.join("work"),
        out_dir: scratch.join("out"),
    }
}

fn names(report: &Report) -> Vec<&str> {
    report.metrics.iter().map(|m| m.0).collect()
}

fn listed(list: &[(&'static str, &'static str)]) -> Vec<&'static str> {
    list.iter().map(|m| m.0).collect()
}

#[test]
fn every_workload_passes_its_gates_at_minimum_size() {
    for workload in Workload::ALL {
        let report = run(&args(workload, false)).expect("run");
        assert!(
            report.correct,
            "{}: {:?}",
            workload.name(),
            report.violations
        );
        assert!(report.attempted > 0);
        assert_eq!(names(&report), listed(&END_TO_END));
        assert!(
            report.metrics.iter().all(|m| m.1 > 0.0),
            "{:?}",
            report.metrics
        );
        let line = report.result_json();
        assert!(
            line.starts_with(r#"{"correct": true, "attempted": "#),
            "{line}"
        );
    }
}

#[test]
fn traced_runs_report_every_layer_and_the_unattributed_remainder() {
    for workload in [Workload::WindowedDurable, Workload::ServeMixed] {
        let a = args(workload, true);
        let report = run(&a).expect("traced run");
        assert!(
            report.correct,
            "{}: {:?}",
            workload.name(),
            report.violations
        );
        assert_eq!(names(&report), listed(&PER_LAYER));
        assert!(names(&report).contains(&"unattributed"));
        let value = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert!(value("stream.route_ns_per_item") > 0.0);
        assert!(value("freq.seal_us") > 0.0);
        // Set before the layer ledger, and not reset by it.
        assert!(value("tail.request_p99_us") > 0.0);
        assert!(value("query.estimate_p50_us") > 0.0);
        assert!(report.lines.iter().any(|l| l.contains("tracing overhead")));
        let spans = std::fs::read_to_string(a.out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            workload.name(),
            a.seed
        )))
        .expect("span file");
        assert!(spans
            .lines()
            .any(|l| l.contains(r#""name":"stream.partition_into""#)));
        assert!(spans
            .lines()
            .any(|l| l.contains(r#""name":"engine.snapshots""#)));
    }
}

/// The `"name"` values of one list in `BENCHMARK.json`.
fn benchmark_names(json: &str, list: &str) -> Vec<String> {
    let start = json.find(&format!(r#""{list}""#)).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split(r#""name": ""#)
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics_and_workloads() {
    let json = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json");
    assert_eq!(benchmark_names(&json, "end_to_end"), listed(&END_TO_END));
    assert_eq!(benchmark_names(&json, "per_layer"), listed(&PER_LAYER));
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(benchmark_names(&json, "workloads"), workloads);
}
