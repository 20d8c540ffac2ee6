//! Pins the bytes of every line type in the three telemetry JSONL files —
//! the `multiclust-trace/v1` sink, the `multiclust-flight/v1` dump and
//! the `multiclust-metrics/v1` stream. Key order is pinned always, exact
//! bytes wherever the values are deterministic; timing values (span `ns`,
//! flight `us`, metrics `elapsed_ms`, span-duration quantiles) and
//! allocator tallies are masked to their JSON type, so a changed type
//! still fails.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use multiclust_telemetry::{self as telemetry, flight, metrics, trace};
use serde::Value;

/// Telemetry state is process-global; the cases must not interleave.
static LOCK: Mutex<()> = Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("multiclust-jsonl-lines-{}-{name}", std::process::id()))
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "<null>",
        Value::Bool(_) => "<bool>",
        Value::Int(_) => "<int>",
        Value::Float(_) => "<float>",
        Value::String(_) => "<string>",
        Value::Array(_) => "<array>",
        Value::Object(_) => "<object>",
    }
}

/// Replaces the value at each dotted key path with its type name.
fn mask_value(v: &mut Value, prefix: &str, masked: &[&str]) {
    if let Value::Object(fields) = v {
        for (k, item) in fields.iter_mut() {
            let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
            if masked.contains(&path.as_str()) {
                *item = Value::String(type_name(item).to_string());
            } else {
                mask_value(item, &path, masked);
            }
        }
    }
}

/// One line with the given key paths masked. Also checks that the line is
/// exactly the compact serialization of what it parses to, so spacing and
/// number formatting stay pinned where the values are masked.
fn mask(line: &str, masked: &[&str]) -> String {
    let mut v: Value = serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(serde_json::to_string(&v).unwrap(), line, "line is not compact JSON");
    mask_value(&mut v, "", masked);
    serde_json::to_string(&v).unwrap()
}

#[test]
fn trace_lines_keep_their_keys_and_bytes() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::set_enabled(true);
    telemetry::reset();
    let path = tmp("trace.jsonl");
    trace::set_trace_path(Some(&path)).unwrap();
    trace::trace_meta(&[
        ("command", Value::String("kmeans".into())),
        ("seed", Value::Int(42)),
    ]);
    {
        let _s = telemetry::span("fit");
    }
    flight::set_request("t3", 2);
    {
        let _s = telemetry::span("serve.fit");
    }
    flight::clear_request();
    telemetry::event("kmeans.iter", &[("sse", 1.5), ("delta", f64::NAN)]);
    telemetry::counter_add("kernels.exact", 9);
    telemetry::histogram_record("h", 3);
    telemetry::histogram_record("h", 4);
    telemetry::alloc::set_alloc_enabled(true);
    {
        let _s = telemetry::span("alloc.phase");
        drop(std::hint::black_box(Vec::<u8>::with_capacity(4096)));
    }
    telemetry::alloc::set_alloc_enabled(false);
    trace::flush_trace();
    telemetry::reset();
    telemetry::set_enabled(false);
    let body = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let lines: Vec<&str> = body.lines().collect();
    let (alloc, rest): (Vec<&str>, Vec<&str>) =
        lines.iter().partition(|l| l.starts_with(r#"{"type":"alloc""#));
    // Which slots hold allocations depends on the allocator, so the alloc
    // lines are pinned by shape, plus the one phase that must be present.
    assert!(!alloc.is_empty(), "{body}");
    for line in &alloc {
        assert_eq!(
            mask(line, &["path", "count", "bytes", "peak"]),
            r#"{"type":"alloc","path":"<string>","count":"<int>","bytes":"<int>","peak":"<int>"}"#
        );
    }
    assert!(alloc.iter().any(|l| l.contains(r#""path":"alloc.phase""#)), "{body}");

    let masked: Vec<String> = rest.iter().map(|l| mask(l, &["ns"])).collect();
    let end = format!(
        r#"{{"type":"end","events_dropped":0,"write_errors":0,"lines":{}}}"#,
        lines.len()
    );
    let expected = [
        r#"{"type":"meta","schema":"multiclust-trace/v1"}"#,
        r#"{"type":"meta","command":"kmeans","seed":42}"#,
        r#"{"type":"span","path":"fit","ns":"<int>"}"#,
        r#"{"type":"span","path":"serve.fit","ns":"<int>","request_id":"t3","conn":2}"#,
        r#"{"type":"event","seq":0,"name":"kmeans.iter","fields":{"sse":1.5,"delta":null}}"#,
        r#"{"type":"span","path":"alloc.phase","ns":"<int>"}"#,
        r#"{"type":"counter","name":"kernels.exact","value":9}"#,
        r#"{"type":"hist","name":"h","count":2,"sum":7,"p50":3,"p90":4,"p99":4,"max":4}"#,
        end.as_str(),
    ];
    assert_eq!(masked, expected, "{body}");
    assert_eq!(lines.last(), Some(&end.as_str()));
}

#[test]
fn flight_lines_keep_their_keys_and_bytes() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    flight::set_flight(Some(16));
    flight::set_request("t3", 2);
    flight::record_span("serve.fit", 1234);
    flight::clear_request();
    flight::record_error("internal", None);
    let dump = flight::dump_to_string().expect("recorder enabled");
    flight::set_flight(Some(flight::DEFAULT_CAPACITY));

    let masked: Vec<String> = dump.lines().map(|l| mask(l, &["us"])).collect();
    assert_eq!(
        masked,
        [
            r#"{"type":"meta","schema":"multiclust-flight/v1","capacity":16,"segments":1}"#,
            r#"{"type":"record","seq":1,"thread":0,"kind":"span","us":"<int>","dur_ns":1234,"name":"serve.fit","request_id":"t3","conn":2}"#,
            r#"{"type":"record","seq":2,"thread":0,"kind":"error","us":"<int>","dur_ns":0,"name":"internal","request_id":null,"conn":null}"#,
            r#"{"type":"end","records":2,"overwritten":0}"#,
        ],
        "{dump}"
    );
    assert!(dump.ends_with('\n'));
}

#[test]
fn metrics_lines_keep_their_keys_and_bytes() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::set_enabled(true);
    telemetry::reset();
    telemetry::alloc::set_alloc_enabled(false);
    telemetry::counter_add("c", 3);
    telemetry::histogram_record("h", 5);
    {
        let _s = telemetry::span("fit");
    }
    let path = tmp("metrics.jsonl");
    // An interval far longer than the run: exactly the immediate snapshot
    // and the one written on stop.
    metrics::start_metrics(&path, Duration::from_secs(60)).unwrap();
    metrics::stop_metrics();
    telemetry::reset();
    telemetry::set_enabled(false);
    let body = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let timing = [
        "elapsed_ms",
        "quantiles.span:fit.mean",
        "quantiles.span:fit.p50",
        "quantiles.span:fit.p90",
        "quantiles.span:fit.p99",
        "quantiles.span:fit.max",
        "alloc.count",
        "alloc.bytes",
        "alloc.live",
        "alloc.peak",
    ];
    let masked: Vec<String> = body.lines().map(|l| mask(l, &timing)).collect();
    let snapshot = |seq: u64| {
        format!(
            concat!(
                r#"{{"type":"snapshot","seq":{},"elapsed_ms":"<int>","counters":{{"c":3}},"#,
                r#""quantiles":{{"span:fit":{{"count":1,"mean":"<float>","p50":"<int>","p90":"<int>","p99":"<int>","max":"<int>"}},"#,
                r#""h":{{"count":1,"mean":5.0,"p50":5,"p90":5,"p99":5,"max":5}}}},"#,
                r#""alloc":{{"enabled":false,"count":"<int>","bytes":"<int>","live":"<int>","peak":"<int>"}},"#,
                r#""events_dropped":0}}"#
            ),
            seq
        )
    };
    assert_eq!(
        masked,
        [
            r#"{"type":"meta","schema":"multiclust-metrics/v1","interval_ms":60000}"#.to_string(),
            snapshot(0),
            snapshot(1),
            r#"{"type":"end","snapshots":2}"#.to_string(),
        ],
        "{body}"
    );
}
