//! Seconds-long smoke runs of every workload, traced and untraced: each
//! must pass its correctness check and print every catalogue metric with
//! its unit, and `BENCHMARK.json` must list exactly the catalogue.

use std::path::PathBuf;
use std::process::Command;

use oneperc_perfbench::json::{self, Value};
use oneperc_perfbench::metrics::{MetricSpec, END_TO_END, PER_LAYER};
use oneperc_perfbench::WORKLOADS;

/// Runs one smoke run; returns the provenance header and the result line.
fn smoke(workload: &str, trace: u8) -> (Value, Value) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_oneperc-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} trace {trace} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected a header and a result line"
    );
    let header = json::parse(lines[lines.len() - 2]).expect("header is JSON");
    let result = json::parse(lines[lines.len() - 1]).expect("result is JSON");
    (header, result)
}

fn assert_result(workload: &str, header: &Value, result: &Value, catalogue: &[MetricSpec]) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload} failed its correctness check: {:?}",
        header.get("failures")
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "{workload}: printed metrics");
    for (spec, (_, metric)) in catalogue.iter().zip(metrics) {
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(spec.unit),
            "{}",
            spec.name
        );
        let value = metric.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {} = {value:?}",
            spec.name
        );
    }
    let host = header.get("host").expect("host facts");
    for key in ["nproc", "load_start", "load_end", "commit"] {
        assert!(host.get(key).is_some(), "{workload}: host.{key}");
    }
    assert!(header
        .get("samples")
        .and_then(Value::as_object)
        .is_some_and(|s| !s.is_empty()));
}

#[test]
fn untraced_smoke_runs_print_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let (header, result) = smoke(workload, 0);
        assert_result(workload, &header, &result, END_TO_END);
    }
}

#[test]
fn traced_smoke_runs_print_every_per_layer_metric_and_a_trace() {
    for workload in WORKLOADS {
        let (header, result) = smoke(workload, 1);
        assert_result(workload, &header, &result, PER_LAYER);
        let path = header
            .get("notes")
            .and_then(|n| n.get("trace.jsonl"))
            .and_then(Value::as_str)
            .expect("traced runs name their JSONL trace");
        let trace = std::fs::read_to_string(path).expect("read the JSONL trace");
        let first = json::parse(trace.lines().next().expect("a traced layer")).expect("JSONL");
        for key in [
            "layer",
            "merged_layers",
            "renorm_failures",
            "timelike_failures",
            "raw_rsl",
            "advance_us",
        ] {
            assert!(
                first.get(key).is_some(),
                "{workload}: trace line lacks {key}"
            );
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = spec.get(key).and_then(Value::as_array).expect(key);
        assert_eq!(listed.len(), catalogue.len(), "{key}");
        for (entry, m) in listed.iter().zip(catalogue) {
            let field = |k: &str| entry.get(k).and_then(Value::as_str);
            assert_eq!(field("name"), Some(m.name), "{key}");
            assert_eq!(field("unit"), Some(m.unit), "{}", m.name);
            assert_eq!(field("better"), Some(m.better), "{}", m.name);
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
    }
}
