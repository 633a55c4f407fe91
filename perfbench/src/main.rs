//! `hesgx-perfbench`: the wall-clock serving benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) records spans around the public calls, writes them to
//! `perfbench/out/`, and prints the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Any logit that differs from `QuantizedCnn::forward_ints` makes
//! `correct` false and the exit code 1.

mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Metric, Report, Workload};

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut it = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.wrong == 0,
        report.attempted,
        report.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} was not measured ({})", m.name, m.note));
        }
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<28} {:>14.4} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// Writes the spans of a traced run under `perfbench/out/`.
fn write_trace(report: &Report, args: &Args) -> Result<Option<PathBuf>, String> {
    let Some(tracer) = &report.tracer else {
        return Ok(None);
    };
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Some(path))
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = Workload::named(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; known: {}",
            args.workload,
            Workload::NAMES.join(", ")
        )
    })?;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = workload.run(args.seed, args.seconds, args.trace)?;
    println!("warm-up: {}", report.warmup);
    let metrics = if args.trace {
        let tracer = report
            .tracer
            .as_ref()
            .expect("a traced run keeps its spans");
        println!(
            "per-layer span table ({} spans; stage spans placed from reported walls)",
            tracer.spans().len()
        );
        println!(
            "  {:<24} {:>7} {:>12} {:>12} {:>14}",
            "span", "calls", "total ms", "self ms", "self ms/call"
        );
        for (name, row) in tracer.table() {
            println!(
                "  {:<24} {:>7} {:>12.3} {:>12.3} {:>14.3}",
                name,
                row.calls,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6 / row.calls as f64
            );
        }
        print_metrics("request accounting:", &report.printed_only);
        print_metrics("per-layer metrics:", &report.per_layer);
        if let Some(path) = write_trace(&report, args)? {
            println!("spans written to {}", path.display());
        }
        &report.per_layer
    } else {
        print_metrics("end-to-end metrics:", &report.end_to_end);
        print_metrics("also reported:", &report.printed_only);
        &report.end_to_end
    };
    let line = result_json(&report, metrics)?;
    if report.wrong > 0 {
        eprintln!(
            "perfbench: {} request(s) answered logits that differ from forward_ints",
            report.wrong
        );
    }
    println!("{line}");
    Ok(report.wrong == 0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> \
                 --seconds <s> [--trace <0|1>]",
                Workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(strings(&[
            "--workload",
            "edge_single_tc",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "edge_single_tc".into(),
                seed: 7,
                seconds: 20,
                trace: true
            }
        );
        assert!(parse_args(strings(&["--workload", "x"])).is_err());
        assert!(parse_args(strings(&["--workload", "x", "--seed", "1"])).is_err());
        assert!(parse_args(strings(&["--workload", "x", "--seed", "-1"])).is_err());
        let x = ["--workload", "x", "--seed", "1", "--seconds", "5"];
        assert!(parse_args(strings(&[&x[..], &["--trace", "2"]].concat())).is_err());
        assert!(parse_args(strings(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 4,
            failed: 1,
            wrong: 1,
            warmup: String::new(),
            end_to_end: Vec::new(),
            printed_only: Vec::new(),
            per_layer: Vec::new(),
            tracer: None,
        };
        let m = |value| Metric {
            name: "latency_p50_ms",
            value,
            unit: "ms",
            note: String::new(),
        };
        assert_eq!(
            result_json(&report, &[m(1.25)]).unwrap(),
            "{\"correct\":false,\"attempted\":4,\"failed\":1,\
             \"metrics\":{\"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        assert!(result_json(&report, &[m(f64::NAN)]).is_err());
    }
}
