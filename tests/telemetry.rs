//! Workspace-level telemetry contracts:
//!
//! 1. the registry is thread-safe — counters bumped from pool worker
//!    threads sum exactly;
//! 2. the JSON exporter emits text the vendored `serde_json` parses;
//! 3. telemetry never perturbs results — k-means and COALA outputs are
//!    bit-identical with the switch on or off;
//! 4. the trace sink streams parseable `multiclust-trace/v1` JSONL and
//!    never perturbs results either;
//! 5. events past the in-memory cap are counted, not silently lost;
//! 6. the counting allocator attributes heap traffic to spans without
//!    moving a single label;
//! 7. the `--metrics` sampler streams parseable `multiclust-metrics/v1`
//!    snapshots with at least two data points per run.

use std::sync::Mutex;

use multiclust::alternative::Coala;
use multiclust::base::KMeans;
use multiclust::core::Clustering;
use multiclust::data::synthetic::four_blob_square;
use multiclust::data::seeded_rng;
use multiclust::{parallel, telemetry};

/// The switch, the registry and the thread override are process-global;
/// every test in this binary serializes on this lock and leaves telemetry
/// off and empty behind itself.
fn serialized<T>(f: impl FnOnce() -> T) -> T {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::set_enabled(true);
    telemetry::reset();
    let out = f();
    telemetry::reset();
    telemetry::set_enabled(false);
    let _ = telemetry::trace::set_trace_path(None);
    parallel::set_threads(0);
    out
}

#[test]
fn counters_from_pool_threads_sum_exactly() {
    serialized(|| {
        parallel::set_threads(4);
        let n = 10_000;
        let out = parallel::par_map_indexed(n, 1, |i| {
            telemetry::counter_add("test.pool.counter", 1);
            i
        });
        assert_eq!(out.len(), n);
        let snap = telemetry::snapshot();
        assert_eq!(
            snap.counters["test.pool.counter"], n as u64,
            "every increment from every worker thread lands exactly once"
        );
        // The pool reported its own task counters alongside.
        assert!(snap.counters["parallel.tasks"] >= 64);
    });
}

#[test]
fn json_export_parses_with_vendored_serde_json() {
    serialized(|| {
        telemetry::counter_add("needs\"escaping\\here", 3);
        telemetry::histogram_record("h", 1023);
        telemetry::event("e", &[("value", 0.125), ("weird", f64::INFINITY)]);
        {
            let _outer = telemetry::span("outer");
            let _inner = telemetry::span("inner");
        }
        let json = telemetry::snapshot().to_json();
        let parsed: serde_json::Value =
            serde_json::from_str(&json).expect("telemetry JSON must parse");
        let serde_json::Value::Object(fields) = parsed else {
            panic!("telemetry JSON root must be an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["spans", "counters", "histograms", "alloc", "events", "dropped_events"]);
        // The nested span path made it through.
        assert!(json.contains("outer/inner"), "{json}");
        // Non-finite field values must degrade to null, not break the JSON.
        assert!(json.contains("\"weird\":null"), "{json}");
    });
}

/// Runs k-means and COALA with fixed seeds, returning everything
/// bit-comparable about the results.
fn fit_both() -> (Vec<Option<usize>>, u64, Clustering) {
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(901));
    let km = KMeans::new(4).with_restarts(3).fit(&fb.dataset, &mut seeded_rng(902));
    let given = Clustering::from_labels(&fb.horizontal);
    let coala = Coala::new(2, 0.8).fit(&fb.dataset, &given);
    let labels: Vec<Option<usize>> =
        (0..km.clustering.len()).map(|i| km.clustering.assignment(i)).collect();
    (labels, km.sse.to_bits(), coala.clustering)
}

#[test]
fn results_bit_identical_with_telemetry_on_and_off() {
    let (off, on) = serialized(|| {
        telemetry::set_enabled(false);
        let off = fit_both();
        telemetry::set_enabled(true);
        telemetry::reset();
        let on = fit_both();
        // Telemetry actually recorded during the "on" run…
        let snap = telemetry::snapshot();
        assert!(snap.events.iter().any(|e| e.name == "kmeans.iter"));
        assert!(snap.events.iter().any(|e| e.name == "coala.merge"));
        assert!(snap.spans.contains_key("kmeans.fit"));
        (off, on)
    });
    // …and changed nothing: same labels, same SSE bits, same partition.
    assert_eq!(off.0, on.0, "k-means labels");
    assert_eq!(off.1, on.1, "k-means SSE bits");
    assert_eq!(off.2, on.2, "COALA partition");
}

/// The PR-5 trace sink: every line of the streamed file is standalone
/// JSON, the first line carries the schema version, spans and events from
/// a real fit land in the file, and results stay bit-identical whether a
/// sink is attached or not.
#[test]
fn trace_sink_streams_parseable_jsonl_without_perturbing_results() {
    use multiclust::telemetry::trace;

    let path = std::env::temp_dir()
        .join(format!("multiclust-test-trace-{}.jsonl", std::process::id()));
    let (untraced, traced, parsed) = serialized(|| {
        // Baseline fit with no sink.
        let untraced = fit_both();
        telemetry::reset();

        // Same fit streamed to a trace file.
        trace::open_trace(Some(&path), false).expect("open trace sink");
        let traced = fit_both();
        trace::flush_trace();

        let parsed = trace::read_trace(&path).expect("trace parses");
        (untraced, traced, parsed)
    });
    let raw = std::fs::read_to_string(&path).expect("trace file exists");
    let _ = std::fs::remove_file(&path);

    // Every line is a standalone JSON object.
    for (i, line) in raw.lines().enumerate() {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        assert!(matches!(v, serde_json::Value::Object(_)), "line {}", i + 1);
    }
    // The first line announces the schema (the reader rejects any other).
    assert!(raw.starts_with(r#"{"type":"meta","schema":"multiclust-trace/v1"}"#), "{raw}");
    assert!(parsed.ended, "end line written by flush");
    assert_eq!(parsed.events_dropped, 0);

    // Real instrumentation made it into the stream.
    assert!(parsed.spans.iter().any(|(p, _)| p == "kmeans.fit"), "spans: {:?}", parsed.spans);
    assert!(parsed.events.iter().any(|e| e.name == "kmeans.iter"));
    assert!(parsed.events.iter().any(|e| e.name == "coala.merge"));

    // And the sink observed without perturbing: identical results.
    assert_eq!(untraced.0, traced.0, "k-means labels");
    assert_eq!(untraced.1, traced.1, "k-means SSE bits");
    assert_eq!(untraced.2, traced.2, "COALA partition");
}

/// Overflowing the in-memory event cap increments the
/// `telemetry.events_dropped` counter (no more silent truncation) and
/// both exporters surface it — while an attached trace sink still streams
/// every event past the cap.
#[test]
fn event_cap_overflow_is_counted_and_streamed() {
    use multiclust::telemetry::trace;

    let overflow = 10u64;
    let path = std::env::temp_dir()
        .join(format!("multiclust-test-cap-{}.jsonl", std::process::id()));
    let (snap, parsed) = serialized(|| {
        trace::open_trace(Some(&path), false).expect("open trace sink");
        for i in 0..(telemetry::MAX_EVENTS as u64 + overflow) {
            telemetry::event("cap.test", &[("i", i as f64)]);
        }
        let snap = telemetry::snapshot();
        trace::flush_trace();
        let parsed = trace::read_trace(&path).expect("trace parses");
        (snap, parsed)
    });
    let _ = std::fs::remove_file(&path);

    assert_eq!(snap.events.len(), telemetry::MAX_EVENTS, "registry capped");
    assert_eq!(snap.dropped_events, overflow);
    assert_eq!(snap.counters["telemetry.events_dropped"], overflow);
    assert!(snap.to_text().contains("telemetry.events_dropped"), "{}", snap.to_text());
    assert!(snap.to_json().contains("telemetry.events_dropped"), "{}", snap.to_json());

    // The sink is the durable record: nothing dropped there.
    let streamed = parsed.events.iter().filter(|e| e.name == "cap.test").count() as u64;
    assert_eq!(streamed, telemetry::MAX_EVENTS as u64 + overflow);
    assert_eq!(parsed.events_dropped, overflow, "end line reports the drop count");
    assert_eq!(parsed.counters["telemetry.events_dropped"], overflow);
}

/// The PR-7 counting allocator: switching accounting on attributes heap
/// traffic to the span that was active at allocation time, shows up in
/// both exporters, and reproduces every result bit-for-bit.
#[test]
fn alloc_accounting_attributes_spans_without_perturbing_results() {
    use multiclust::telemetry::alloc;

    let (off, on, snap) = serialized(|| {
        alloc::set_alloc_enabled(false);
        let off = fit_both();
        telemetry::reset();

        alloc::set_alloc_enabled(true);
        let on = fit_both();
        let snap = telemetry::snapshot();
        alloc::set_alloc_enabled(false);
        (off, on, snap)
    });

    // Accounting observed without perturbing: identical results.
    assert_eq!(off.0, on.0, "k-means labels");
    assert_eq!(off.1, on.1, "k-means SSE bits");
    assert_eq!(off.2, on.2, "COALA partition");

    // The fit's allocations were attributed to its spans.
    let kmeans = snap
        .alloc
        .get("kmeans.fit")
        .unwrap_or_else(|| panic!("no alloc stats for kmeans.fit: {:?}", snap.alloc.keys()));
    assert!(kmeans.count > 0, "k-means fit must allocate");
    assert!(kmeans.bytes > 0 && kmeans.peak > 0);
    assert!(snap.to_text().contains("alloc (path"), "{}", snap.to_text());
    assert!(snap.to_json().contains("\"alloc\""), "{}", snap.to_json());
}

/// The PR-7 metrics stream: a sampler attached for the duration of a fit
/// leaves behind a parseable `multiclust-metrics/v1` JSONL file — a meta
/// line, at least two snapshots (first immediate, last at stop), and an
/// end line whose snapshot count matches.
#[test]
fn metrics_stream_emits_parseable_snapshots() {
    use multiclust::telemetry::metrics;

    let path = std::env::temp_dir()
        .join(format!("multiclust-test-metrics-{}.jsonl", std::process::id()));
    serialized(|| {
        metrics::start_metrics(&path, std::time::Duration::from_millis(5))
            .expect("open metrics stream");
        let _ = fit_both();
        // No sleep: the sampler writes one snapshot immediately on start
        // and a final one on stop, so ≥2 snapshots hold by construction
        // rather than by winning a wall-clock race.
        metrics::stop_metrics();
    });
    let raw = std::fs::read_to_string(&path).expect("metrics file exists");
    let _ = std::fs::remove_file(&path);

    let mut snapshots = 0u64;
    let mut declared = None;
    for (i, line) in raw.lines().enumerate() {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        let serde_json::Value::Object(fields) = v else {
            panic!("line {} is not an object", i + 1)
        };
        let ty = fields.iter().find(|(k, _)| k == "type").map(|(_, v)| v.clone());
        match ty {
            Some(serde_json::Value::String(s)) if s == "snapshot" => {
                snapshots += 1;
                for key in ["seq", "counters", "quantiles", "alloc", "events_dropped"] {
                    assert!(
                        fields.iter().any(|(k, _)| k == key),
                        "snapshot line {} missing {key:?}",
                        i + 1
                    );
                }
            }
            Some(serde_json::Value::String(s)) if s == "end" => {
                declared = fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("snapshots", serde_json::Value::Int(n)) => Some(*n as u64),
                    _ => None,
                });
            }
            _ => {}
        }
    }
    assert!(
        raw.starts_with(r#"{"type":"meta","schema":"multiclust-metrics/v1""#),
        "{raw}"
    );
    assert!(snapshots >= 2, "expected at least 2 snapshots, got {snapshots}:\n{raw}");
    assert_eq!(declared, Some(snapshots), "end line snapshot count");
}
