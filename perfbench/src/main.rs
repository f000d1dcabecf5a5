//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable detail, then one metadata line, then the result
//! line: `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero,
//! without a result line, when the run cannot be made.

use std::process::ExitCode;

use perfbench::{meta_json, run, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", Args::USAGE);
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in &report.lines {
                println!("# {line}");
            }
            for v in report.violations.iter().take(20) {
                eprintln!("violation: {v}");
            }
            if report.violations.len() > 20 {
                eprintln!("... {} more violations", report.violations.len() - 20);
            }
            println!("{}", meta_json(&args, report.runs));
            println!("{}", report.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
