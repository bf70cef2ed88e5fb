//! A tiny-scale run of every workload, untraced and traced: each must
//! pass its checks and print exactly the metrics `BENCHMARK.json` lists
//! for its mode, with their units.

use rbpc_obs::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::process::Command;

/// `name → unit` of the metrics listed under `section` of BENCHMARK.json.
fn listed(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("read")).expect("parse");
    doc.get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_rbpc-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", trace, "--scale", "tiny"])
        .output()
        .expect("run the benchmark binary");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("output");
    parse(last).unwrap_or_else(|e| panic!("{workload}: result line {last:?}: {e}"))
}

fn assert_metrics(workload: &str, trace: &str, section: &str) {
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{workload}: {result:?}"
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
    let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let got: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name}"
            );
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(got, listed(section), "{workload} --trace {trace}");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in workloads() {
        assert_metrics(&w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in workloads() {
        assert_metrics(&w, "1", "per_layer");
    }
}
