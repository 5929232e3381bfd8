//! Smoke test: every workload runs at reduced size in both modes, and
//! each run emits exactly the metrics `BENCHMARK.json` names, with their
//! units, and passes its correctness checks. No timing thresholds.

use std::path::{Path, PathBuf};
use std::process::Command;

use traj_obs::json::{parse, Json};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str, out: &Path) -> Json {
    let o = Command::new(env!("CARGO_BIN_EXE_trajc-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
            "--out",
        ])
        .arg(out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(
        o.status.success(),
        "{workload} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&o.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("result line is JSON ({e}): {last}"))
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["paper_grid", "fleet_cone", "fleet_raw"]);
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace, &out);
            let keys: Vec<&str> = result
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload} trace {trace}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload} trace {trace}"
            );
            assert!(result
                .get("attempted")
                .and_then(Json::as_u64)
                .is_some_and(|n| n >= 1));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics object");
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value")
                            .and_then(Json::as_f64)
                            .is_some_and(f64::is_finite),
                        "{name}"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(emitted, declared(&doc, key), "{workload} trace {trace}");
        }
    }
}

#[test]
fn list_prints_every_declared_metric_with_its_unit() {
    let o = Command::new(env!("CARGO_BIN_EXE_trajc-perfbench"))
        .arg("--list")
        .output()
        .expect("runs");
    assert!(o.status.success());
    let text = String::from_utf8_lossy(&o.stdout);
    let doc = benchmark_json();
    for key in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(&doc, key) {
            assert!(
                text.lines().any(|l| l == format!("{key} {name} {unit}")),
                "{key} {name} {unit}"
            );
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper_grid", "--trace", "2"],
        &[],
    ] {
        let o = Command::new(env!("CARGO_BIN_EXE_trajc-perfbench"))
            .args(args)
            .output()
            .expect("runs");
        assert!(!o.status.success(), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?}");
    }
}
