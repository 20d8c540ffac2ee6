//! Smoke-size runs of all three workloads through the benchmark binary and
//! the real server binary: every metric `BENCHMARK.json` names must be
//! printed with its unit, untraced and traced, and a doctored label or
//! response must fail the run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use serde::Value;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map(|p| {
            if p.is_absolute() {
                p
            } else {
                manifest_dir().join(p)
            }
        })
        .unwrap_or_else(|| manifest_dir().join("target"))
}

/// The `multiclust` binary, built once in this test's profile.
fn server() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let release = !cfg!(debug_assertions);
        let mut cmd = Command::new(env!("CARGO"));
        cmd.args([
            "build",
            "--offline",
            "--quiet",
            "-p",
            "multiclust",
            "--bin",
            "multiclust",
        ])
        .arg("--manifest-path")
        .arg(manifest_dir().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target_dir());
        if release {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("cargo runs");
        assert!(status.success(), "building the multiclust binary failed");
        target_dir()
            .join(if release { "release" } else { "debug" })
            .join("multiclust")
    })
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let root = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = field(&root, list) else {
        panic!("BENCHMARK.json has no {list}")
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                field(m, k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    let dir = target_dir().join(format!(
        "perfbench-smoke-{workload}-{trace}-{}",
        extra.join("-")
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--smoke",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .arg("--server")
        .arg(server())
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("perfbench runs")
}

fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::parse_value(last)
        .unwrap_or_else(|e| panic!("last line is not JSON ({e}): {stdout}"))
}

fn assert_prints_every_metric(workload: &str) {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = run(workload, trace, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{workload} trace={trace} failed: {stderr}"
        );
        let r = result(&out);
        assert_eq!(field(&r, "correct"), Some(&Value::Bool(true)), "{stderr}");
        let Some(Value::Object(metrics)) = field(&r, "metrics") else {
            panic!("no metrics")
        };
        let declared = declared(list);
        assert_eq!(
            metrics.len(),
            declared.len(),
            "{workload}: printed {metrics:?}"
        );
        for (name, unit) in declared {
            let m = field(field(&r, "metrics").unwrap(), &name)
                .unwrap_or_else(|| panic!("{workload} trace={trace} does not print {name}"));
            assert_eq!(
                field(m, "unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            assert!(
                matches!(field(m, "value"), Some(Value::Float(_) | Value::Int(_))),
                "{name}"
            );
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("\"provenance\""),
            "provenance block missing"
        );
    }
}

#[test]
fn every_per_layer_metric_has_a_prediction() {
    let text = std::fs::read_to_string(manifest_dir().join("bench.json")).expect("bench.json");
    let config = serde_json::parse_value(&text).expect("bench.json parses");
    let Some(Value::Array(rows)) = field(&config, "predictions") else {
        panic!("no predictions")
    };
    let predicted: Vec<&str> = rows
        .iter()
        .filter_map(|r| field(r, "layer").and_then(Value::as_str))
        .collect();
    for (name, _) in declared("per_layer") {
        assert!(
            predicted.contains(&name.as_str()),
            "{name} has no prediction row"
        );
    }
    assert_eq!(predicted.len(), declared("per_layer").len());
}

#[test]
fn paper_batch_prints_every_metric() {
    assert_prints_every_metric("paper-batch");
}

#[test]
fn serve_reads_prints_every_metric() {
    assert_prints_every_metric("serve-reads");
}

#[test]
fn serve_fits_prints_every_metric() {
    assert_prints_every_metric("serve-fits");
}

#[test]
fn doctored_outputs_fail_the_run() {
    for (workload, doctor) in [
        ("paper-batch", "label"),
        ("serve-reads", "response"),
        ("serve-fits", "response"),
    ] {
        let out = run(workload, false, &["--doctor", doctor]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{workload} --doctor {doctor} must exit 1"
        );
        let r = result(&out);
        assert_eq!(field(&r, "correct"), Some(&Value::Bool(false)));
        assert!(matches!(field(&r, "failed"), Some(Value::Int(n)) if *n > 0));
    }
}
