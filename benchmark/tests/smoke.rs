//! Runs the built binary on every workload, in both modes, for two short
//! timed rounds (an unoptimised build shortens its own rounds), and holds
//! its output to the contract: the last line parses, carries every name
//! `BENCHMARK.json` declares for that mode and no other, and reports no
//! failed operation.

use embrace_obs::json::{self, Value};
use std::process::Command;

const DECLARATION: &str = include_str!("../../BENCHMARK.json");

fn declared(key: &str) -> Vec<String> {
    json::parse(DECLARATION)
        .expect("BENCHMARK.json parses")
        .get(key)
        .and_then(Value::as_arr)
        .expect("metric array")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("name").to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0", "--trace", trace])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("result line parses")
}

fn check(workload: &str) {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        let keys: Vec<&str> =
            result.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload} {key}");
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "{workload} {key}");
        assert!(result.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0);
        let metrics = result.get("metrics").and_then(Value::as_obj).expect("metrics");
        let mut emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let mut want = declared(key);
        emitted.sort_unstable();
        want.sort_unstable();
        assert_eq!(emitted, want, "{workload} --trace {trace}: names differ from BENCHMARK.json");
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{workload} {name}: {value:?}");
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{workload} {name}: unit");
        }
    }
    // The traced run left a Chrome trace with complete events in it.
    let path = format!("{}/target/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
    let doc = json::parse(&std::fs::read_to_string(&path).expect("trace file")).expect("trace");
    let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents");
    assert!(events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("X")));
}

#[test]
fn train_sparse() {
    check("train_sparse");
}

#[test]
fn train_dense() {
    check("train_dense");
}

#[test]
fn serve_read() {
    check("serve_read");
}

#[test]
fn serve_mixed() {
    check("serve_mixed");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "train_sched", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "serve_read", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "serve_read", "--seed", "1", "--seconds", "1"],
        &["compare", "only-one-dir"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark")).args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
