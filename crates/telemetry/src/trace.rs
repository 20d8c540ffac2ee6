//! Structured trace export: the `multiclust-trace/v1` JSONL sink.
//!
//! When a sink is open (via [`set_trace_path`], the CLI's `--trace`, or
//! the `MULTICLUST_TRACE` environment variable) every completed span and
//! every structured event is streamed to disk as one JSON object per
//! line, ahead of the in-memory registry's [`crate::MAX_EVENTS`] cap —
//! the file is the durable record, the registry only the live summary.
//! Counters and histograms are *not* streamed per update (they are hot);
//! their final values are appended by [`flush_trace`] together with an
//! `end` line.
//!
//! ## Line types
//!
//! ```text
//! {"type":"meta","schema":"multiclust-trace/v1"}      // always first
//! {"type":"meta","command":"kmeans","seed":42,...}    // optional, repeatable
//! {"type":"span","path":"kmeans.fit","ns":81234}      // one per completion
//! {"type":"span","path":"serve.fit","ns":91234,"request_id":"t3","conn":2}
//! {"type":"event","seq":0,"name":"kmeans.iter","fields":{...}}
//! {"type":"counter","name":"kernels.exact","value":9} // at flush
//! {"type":"hist","name":"...","count":3,"sum":7,"p50":2,"p90":3,"p99":3,"max":3}
//! {"type":"alloc","path":"kmeans.fit","count":12,"bytes":4096,"peak":2048}
//! {"type":"end","events_dropped":0,"write_errors":0,"lines":17} // always last
//! ```
//!
//! `hist` and `alloc` lines are written at flush too; `alloc` lines only
//! when `MULTICLUST_ALLOC` was on. The framing — line shape, writer and
//! reader — is shared with the flight dump and the metrics stream
//! (`jsonl.rs`).
//!
//! The determinism contract of the parent crate extends to the sink:
//! writing a trace never consumes randomness or changes control flow, so
//! clustering output — and the process's stdout — is byte-identical with
//! the sink on or off (enforced by `tests/cli.rs` and the harness's
//! `trace-invariance` invariant).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use serde::Value;

use crate::jsonl::{self, field_str, field_u64};
use crate::{int, AllocStat, Event};

pub use crate::jsonl::trace_write_errors;

/// Schema identifier written as the first line of every trace file.
pub const TRACE_SCHEMA: &str = "multiclust-trace/v1";

/// 0 = no sink, 1 = sink open. Checked with one relaxed load on the hot
/// path before touching the sink mutex.
static TRACE_STATE: AtomicU8 = AtomicU8::new(0);

struct Sink {
    writer: jsonl::Writer<BufWriter<File>>,
    path: PathBuf,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Whether a trace sink is currently open.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_STATE.load(Ordering::Relaxed) == 1
}

/// Runs `f` on the sink slot, surviving lock poisoning.
fn with_sink<T>(f: impl FnOnce(&mut Option<Sink>) -> T) -> T {
    let mut guard = SINK.lock().unwrap_or_else(|p| p.into_inner());
    f(&mut guard)
}

fn write_line(line: Value) {
    with_sink(|s| {
        if let Some(sink) = s {
            sink.writer.write(&line);
        }
    });
}

/// Opens (`Some`) or closes (`None`) the trace sink. Opening truncates
/// the file and writes the schema line; closing discards the sink
/// without an `end` line — use [`flush_trace`] for a well-formed finish.
pub fn set_trace_path(path: Option<&Path>) -> std::io::Result<()> {
    open_trace(path, false)
}

/// Path of the currently open sink, if any.
pub fn trace_path() -> Option<PathBuf> {
    with_sink(|s| s.as_ref().map(|s| s.path.clone()))
}

/// Like [`set_trace_path`], but `append = true` reopens an existing file
/// without truncating or rewriting the schema line (used to restore an
/// outer sink after a nested redirect, e.g. the harness's
/// trace-invariance check running under `--trace`). The lines already in
/// the file count towards the `end` line's total.
pub fn open_trace(path: Option<&Path>, append: bool) -> std::io::Result<()> {
    let Some(p) = path else {
        TRACE_STATE.store(0, Ordering::Relaxed);
        with_sink(|s| *s = None);
        return Ok(());
    };
    let (file, lines) = if append {
        // A sink still open on this file must land its buffered lines
        // before they are counted.
        with_sink(|s| s.as_mut().map(|old| old.writer.flush()));
        let file = File::options().read(true).append(true).create(true).open(p)?;
        let lines = BufReader::new(&file).split(b'\n').count() as u64;
        (file, lines)
    } else {
        (File::create(p)?, 0)
    };
    let mut writer = jsonl::Writer::new(BufWriter::new(file), lines);
    if !append {
        writer.write(&jsonl::line("meta", [("schema", Value::String(TRACE_SCHEMA.into()))]));
    }
    with_sink(|s| *s = Some(Sink { writer, path: p.to_path_buf() }));
    TRACE_STATE.store(1, Ordering::Relaxed);
    Ok(())
}

/// Appends a free-form metadata line (`{"type":"meta", ...fields}`) —
/// run context such as command, seed, thread count, kernel mode, dataset
/// shape. No-op without an open sink.
pub fn trace_meta(fields: &[(&str, Value)]) {
    if trace_enabled() {
        write_line(jsonl::line("meta", fields.iter().map(|(k, v)| (*k, v.clone()))));
    }
}

/// Streams one completed span. Called from `SpanGuard::drop` after the
/// registry lock has been released — the two locks are never nested.
/// Spans completed inside a request context (see [`crate::flight`])
/// additionally carry `request_id`/`conn` fields, so a trace line joins
/// the same correlation key as the flight ring and the client transcript.
pub(crate) fn write_span(path: &str, ns: u64, ctx: Option<(&str, u64)>) {
    let mut fields = vec![("path", Value::String(path.to_string())), ("ns", int(ns))];
    if let Some((request_id, conn)) = ctx {
        fields.push(("request_id", Value::String(request_id.to_string())));
        fields.push(("conn", int(conn)));
    }
    write_line(jsonl::line("span", fields));
}

/// Streams one structured event (including those past the in-memory cap).
pub(crate) fn write_event(seq: u64, name: &str, fields: &[(&str, f64)]) {
    let fields = fields.iter().map(|(k, v)| (k.to_string(), crate::float(*v))).collect();
    write_line(jsonl::line(
        "event",
        [
            ("seq", int(seq)),
            ("name", Value::String(name.to_string())),
            ("fields", Value::Object(fields)),
        ],
    ));
}

/// Appends final counter and histogram values plus the `end` line, flushes
/// and closes the sink. No-op without an open sink. Call once, at the end
/// of the run being traced.
pub fn flush_trace() {
    if !trace_enabled() {
        return;
    }
    // Snapshot first (registry lock), then take the sink (sink lock) and
    // write — sequential, never nested.
    let snap = crate::snapshot();
    TRACE_STATE.store(0, Ordering::Relaxed);
    let Some(Sink { mut writer, .. }) = with_sink(Option::take) else { return };
    for (name, v) in &snap.counters {
        writer.write(&jsonl::line(
            "counter",
            [("name", Value::String(name.clone())), ("value", int(*v))],
        ));
    }
    for (name, h) in &snap.histograms {
        writer.write(&jsonl::line(
            "hist",
            [
                ("name", Value::String(name.clone())),
                ("count", int(h.count)),
                ("sum", int(h.sum)),
                ("p50", int(h.p50())),
                ("p90", int(h.p90())),
                ("p99", int(h.p99())),
                ("max", int(h.max)),
            ],
        ));
    }
    // Per-phase allocation accounting (present only when
    // `MULTICLUST_ALLOC` was on and something allocated).
    for (path, a) in &snap.alloc {
        let path = ("path".to_string(), Value::String(path.clone()));
        writer.write(&jsonl::line("alloc", std::iter::once(path).chain(jsonl::fields(a))));
    }
    let lines = writer.lines + 1;
    writer.write(&jsonl::line(
        "end",
        [
            ("events_dropped", int(snap.dropped_events)),
            ("write_errors", int(trace_write_errors())),
            ("lines", int(lines)),
        ],
    ));
    writer.flush();
}

// ---- reading ---------------------------------------------------------------

/// A parsed trace file.
#[derive(Debug, Default)]
pub struct TraceFile {
    /// All metadata fields, merged across meta lines in order.
    pub meta: Vec<(String, Value)>,
    /// Individual span completions in stream order.
    pub spans: Vec<(String, u64)>,
    /// Structured events in stream order.
    pub events: Vec<Event>,
    /// Final counter values from the flush.
    pub counters: BTreeMap<String, u64>,
    /// Per-span-path allocation accounting from the flush (empty unless
    /// the run had `MULTICLUST_ALLOC=1`).
    pub alloc: BTreeMap<String, AllocStat>,
    /// Whether the `end` line was present (the run flushed cleanly).
    pub ended: bool,
    /// Events dropped from the in-memory registry (the trace itself keeps
    /// streaming past the cap).
    pub events_dropped: u64,
    /// Sink write failures reported on the `end` line.
    pub write_errors: u64,
    /// Total parsed lines.
    pub lines: usize,
}

/// Parses a `multiclust-trace/v1` JSONL file. Every line must be a JSON
/// object with a known `type`; the error message carries the 1-based line
/// number of the first offence.
pub fn read_trace(path: &Path) -> Result<TraceFile, String> {
    let mut out = TraceFile::default();
    out.lines = jsonl::read(path, TRACE_SCHEMA, |ty, obj| {
        let str_of = |key| field_str(&obj, key).ok_or(format!("{ty} without {key:?}"));
        let u64_of = |key| field_u64(&obj, key).ok_or(format!("{ty} without {key:?}"));
        match ty {
            "meta" => out.meta.extend(obj.iter().cloned()),
            "span" => out.spans.push((str_of("path")?.to_string(), u64_of("ns")?)),
            "event" => {
                let name = str_of("name")?.to_string();
                let seq = field_u64(&obj, "seq").unwrap_or(out.events.len() as u64);
                let Some((_, Value::Object(fields))) = obj.iter().find(|(k, _)| k == "fields")
                else {
                    return Err("event without \"fields\"".to_string());
                };
                let fields = fields
                    .iter()
                    .map(|(k, v)| match v {
                        Value::Int(i) => Ok((k.clone(), *i as f64)),
                        Value::Float(f) => Ok((k.clone(), *f)),
                        Value::Null => Ok((k.clone(), f64::NAN)),
                        _ => Err(format!("event field {k:?} is not numeric")),
                    })
                    .collect::<Result<_, String>>()?;
                out.events.push(Event { seq, name, fields });
            }
            "counter" => {
                out.counters.insert(str_of("name")?.to_string(), u64_of("value")?);
            }
            "hist" => {} // summary only; nothing to accumulate
            "alloc" => {
                let stat = AllocStat {
                    count: field_u64(&obj, "count").unwrap_or(0),
                    bytes: field_u64(&obj, "bytes").unwrap_or(0),
                    peak: field_u64(&obj, "peak").unwrap_or(0),
                };
                out.alloc.insert(str_of("path")?.to_string(), stat);
            }
            "end" => {
                out.ended = true;
                out.events_dropped = field_u64(&obj, "events_dropped").unwrap_or(0);
                out.write_errors = field_u64(&obj, "write_errors").unwrap_or(0);
            }
            other => return Err(format!("unknown line type {other:?}")),
        }
        Ok(())
    })?;
    Ok(out)
}

// ---- span-tree exporters ---------------------------------------------------

/// Aggregated totals per span path plus the self-time (total minus the
/// total of direct children), computed from individual completions.
fn span_totals(trace: &TraceFile) -> BTreeMap<String, (u64, u64, u64)> {
    // path → (count, total_ns, self_ns)
    let mut totals: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (path, ns) in &trace.spans {
        let e = totals.entry(path.clone()).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += ns;
    }
    let keys: Vec<String> = totals.keys().cloned().collect();
    for path in &keys {
        let child_total: u64 = keys
            .iter()
            .filter(|k| {
                k.len() > path.len()
                    && k.starts_with(path.as_str())
                    && k.as_bytes()[path.len()] == b'/'
                    && !k[path.len() + 1..].contains('/')
            })
            .map(|k| totals[k].1)
            .sum();
        let e = totals.get_mut(path).unwrap();
        e.2 = e.1.saturating_sub(child_total);
    }
    totals
}

/// Collapsed-stack export over the span tree: one `a;b;c <self_us>` line
/// per path, the input format of standard flamegraph tooling. Self time
/// is in integer microseconds; zero-self-time pure parents are kept so
/// the stack structure survives.
pub fn collapse_spans(trace: &TraceFile) -> String {
    let mut out = String::new();
    for (path, (_, _, self_ns)) in span_totals(trace) {
        let stack = path.replace('/', ";");
        out.push_str(&format!("{stack} {}\n", self_ns / 1_000));
    }
    out
}

/// Per-phase time attribution: a fixed-width table of span paths with
/// call counts, total and self milliseconds, and self-time share of the
/// trace's total self time. Traces written under `MULTICLUST_ALLOC=1`
/// additionally get per-phase `alloc.{count,bytes,peak}` columns
/// (allocations charged while the phase was innermost on its thread).
pub fn phase_summary(trace: &TraceFile) -> String {
    let totals = span_totals(trace);
    let all_self: u64 = totals.values().map(|t| t.2).sum();
    let with_alloc = !trace.alloc.is_empty();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44}  {:>6}  {:>10}  {:>10}  {:>6}",
        "phase (span path)", "count", "total_ms", "self_ms", "self%"
    ));
    if with_alloc {
        out.push_str(&format!(
            "  {:>11}  {:>12}  {:>12}",
            "alloc.count", "alloc.bytes", "alloc.peak"
        ));
    }
    out.push('\n');
    for (path, (count, total_ns, self_ns)) in &totals {
        let pct = if all_self == 0 {
            0.0
        } else {
            *self_ns as f64 * 100.0 / all_self as f64
        };
        out.push_str(&format!(
            "{:<44}  {:>6}  {:>10.3}  {:>10.3}  {:>5.1}%",
            path,
            count,
            *total_ns as f64 / 1e6,
            *self_ns as f64 / 1e6,
            pct
        ));
        if with_alloc {
            let a = trace.alloc.get(path).copied().unwrap_or_default();
            out.push_str(&format!("  {:>11}  {:>12}  {:>12}", a.count, a.bytes, a.peak));
        }
        out.push('\n');
    }
    // Allocations charged outside any span (worker threads idling, setup
    // before the first span) have no time row; list them after the table.
    if with_alloc {
        for (path, a) in &trace.alloc {
            if !totals.contains_key(path) {
                out.push_str(&format!(
                    "{:<44}  {:>6}  {:>10}  {:>10}  {:>6}  {:>11}  {:>12}  {:>12}\n",
                    path, "-", "-", "-", "-", a.count, a.bytes, a.peak
                ));
            }
        }
    }
    if totals.is_empty() && trace.alloc.is_empty() {
        out.push_str("(no spans recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("multiclust-trace-test-{}-{name}", std::process::id()))
    }

    /// Sink and registry are process-global; serialize trace tests (on
    /// the same lock as the lib tests — shared state, shared lock).
    fn serialized<T>(f: impl FnOnce() -> T) -> T {
        let _guard = crate::TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_enabled(true);
        crate::reset();
        let out = f();
        let _ = set_trace_path(None);
        crate::reset();
        crate::set_enabled(false);
        out
    }

    #[test]
    fn sink_round_trips_spans_events_and_counters() {
        serialized(|| {
            let path = tmp("roundtrip.jsonl");
            set_trace_path(Some(&path)).unwrap();
            trace_meta(&[("command", Value::String("test".into()))]);
            {
                let _outer = crate::span("outer");
                let _inner = crate::span("inner");
            }
            crate::event("e", &[("x", 1.5)]);
            crate::counter_add("c", 7);
            flush_trace();
            let trace = read_trace(&path).expect("parseable trace");
            assert!(trace.ended);
            assert_eq!(trace.counters["c"], 7);
            assert_eq!(trace.events.len(), 1);
            assert_eq!(trace.events[0].fields[0], ("x".to_string(), 1.5));
            let paths: Vec<&str> = trace.spans.iter().map(|(p, _)| p.as_str()).collect();
            assert!(paths.contains(&"outer"));
            assert!(paths.contains(&"outer/inner"));
            assert_eq!(field_str(&trace.meta, "command"), Some("test"));
            let _ = std::fs::remove_file(&path);
        });
    }

    #[test]
    fn collapse_and_summary_attribute_self_time() {
        let mut trace = TraceFile::default();
        trace.spans = vec![
            ("fit".into(), 10_000_000),
            ("fit/assign".into(), 6_000_000),
            ("fit/assign".into(), 2_000_000),
        ];
        let collapsed = collapse_spans(&trace);
        assert!(collapsed.contains("fit 2000\n"), "{collapsed}");
        assert!(collapsed.contains("fit;assign 8000\n"), "{collapsed}");
        let summary = phase_summary(&trace);
        assert!(summary.contains("fit/assign"), "{summary}");
        assert!(summary.contains("2"), "{summary}");
    }

    #[test]
    fn write_failures_are_counted_not_swallowed() {
        // `/dev/full` accepts opens but fails every write with ENOSPC —
        // the canonical "full sink". Skip where it doesn't exist.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        serialized(|| {
            set_trace_path(Some(full)).expect("/dev/full opens");
            // Push well past BufWriter's internal buffer so the failure
            // surfaces mid-stream, not only at the final flush.
            for i in 0..2_000 {
                crate::event("e", &[("i", i as f64)]);
            }
            flush_trace();
            assert!(trace_write_errors() > 0, "full sink must be counted");
            let snap = crate::snapshot();
            assert!(
                snap.counters.get("trace.write_errors").copied().unwrap_or(0) > 0,
                "write errors must surface as a registry counter"
            );
        });
    }

    #[test]
    fn reopened_sink_counts_the_lines_already_in_the_file() {
        serialized(|| {
            let path = tmp("append.jsonl");
            set_trace_path(Some(&path)).unwrap();
            {
                let _s = crate::span("before_redirect");
            }
            open_trace(Some(&path), true).unwrap();
            flush_trace();
            let body = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            let end: Value = serde_json::from_str(body.lines().last().unwrap()).unwrap();
            let Value::Object(end) = end else { panic!("end line is not an object") };
            assert_eq!(field_u64(&end, "lines"), Some(body.lines().count() as u64), "{body}");
        });
    }

    #[test]
    fn end_line_round_trips_write_errors_and_alloc() {
        let path = tmp("endline.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"type\":\"meta\",\"schema\":\"multiclust-trace/v1\"}\n",
                "{\"type\":\"span\",\"path\":\"fit\",\"ns\":1000}\n",
                "{\"type\":\"alloc\",\"path\":\"fit\",\"count\":3,\"bytes\":4096,\"peak\":2048}\n",
                "{\"type\":\"end\",\"events_dropped\":0,\"write_errors\":7,\"lines\":4}\n",
            ),
        )
        .unwrap();
        let trace = read_trace(&path).expect("parseable");
        assert_eq!(trace.write_errors, 7);
        assert_eq!(trace.alloc["fit"].bytes, 4096);
        assert_eq!(trace.alloc["fit"].peak, 2048);
        let summary = phase_summary(&trace);
        assert!(summary.contains("alloc.peak"), "{summary}");
        assert!(summary.contains("2048"), "{summary}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_streams_past_the_registry_event_cap() {
        serialized(|| {
            let path = tmp("cap.jsonl");
            set_trace_path(Some(&path)).unwrap();
            for i in 0..(crate::MAX_EVENTS + 10) {
                crate::event("e", &[("i", i as f64)]);
            }
            flush_trace();
            let trace = read_trace(&path).expect("parseable");
            assert_eq!(trace.events.len(), crate::MAX_EVENTS + 10);
            assert_eq!(trace.events_dropped, 10);
            let _ = std::fs::remove_file(&path);
        });
    }
}
