//! Tiny-length runs of the built benchmark: every metric `BENCHMARK.json`
//! declares prints with its unit, the checks pass, deterministic counts
//! repeat across processes, and bad input is refused without a result.

use std::process::{Command, Output};

use simcore::obs::json::{parse, JsonValue};

fn spec() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list, in order.
fn declared(list: &str) -> Vec<(String, String)> {
    let spec = spec();
    spec.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn bench(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args.split_whitespace())
        .output()
        .expect("benchmark binary runs")
}

/// Runs a tiny workload and returns the parsed result line, after
/// checking its shape against `BENCHMARK.json`.
fn run(workload: &str, extra: &str, trace: u8) -> JsonValue {
    let out = bench(&format!(
        "--workload {workload} --seed 3 --seconds 0 --trace {trace} {extra}"
    ));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("result line is JSON");
    let keys: Vec<&str> = match &result {
        JsonValue::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{stdout}"
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));

    let metrics = match result.get("metrics") {
        Some(JsonValue::Object(pairs)) => pairs.clone(),
        _ => panic!("metrics is not an object"),
    };
    let expected = declared(if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    });
    let names: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name} value"
            );
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(
        names, expected,
        "{workload}: metrics differ from BENCHMARK.json"
    );
    result
}

fn value(result: &JsonValue, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("metric {name}"))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for (workload, extra) in [
        ("storage", "--ms 2"),
        ("database", "--ms 1"),
        ("observed", "--ms 1"),
        ("sweep", "--ms 1"),
    ] {
        let e2e = run(workload, extra, 0);
        for name in ["req_per_s", "setup_s", "peak_rss_mb", "energy_saving_pct"] {
            assert!(value(&e2e, name) != 0.0, "{workload}: {name} is 0");
        }
        let layers = run(workload, extra, 1);
        assert!(
            value(&layers, "ledger.op_traced_ns_per_req") > 0.0,
            "{workload}"
        );
        assert!(value(&layers, "iobus.requests") > 0.0, "{workload}");
    }
}

#[test]
fn counts_repeat_exactly_across_processes() {
    let count_units = ["count", "ev/req", "ops/req", "req/xfer", "1/req"];
    let a = run("observed", "--ms 1", 1);
    let b = run("observed", "--ms 1", 1);
    for (name, unit) in declared("per_layer") {
        if count_units.contains(&unit.as_str()) || name == "ta.uf" {
            assert_eq!(value(&a, &name), value(&b, &name), "{name}");
        }
    }
    let a = run("storage", "--ms 2", 0);
    let b = run("storage", "--ms 2", 0);
    assert_eq!(
        value(&a, "energy_saving_pct"),
        value(&b, "energy_saving_pct")
    );
}

#[test]
fn empty_traces_are_refused_with_a_message() {
    for workload in ["storage", "database", "observed", "sweep"] {
        let out = bench(&format!(
            "--workload {workload} --seed 1 --seconds 1 --trace 0 --ms 0"
        ));
        assert_eq!(out.status.code(), Some(2), "{workload}");
        assert!(out.stdout.is_empty(), "{workload} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("no DMA transfers"), "{workload}: {stderr}");
    }
}

#[test]
fn bad_flags_are_refused_without_a_result() {
    let out = bench("--workload storage --seed 1 --seconds 1");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
