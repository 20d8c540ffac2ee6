//! Periodic metrics snapshots: the `multiclust-metrics/v1` JSONL stream.
//!
//! [`start_metrics`] spawns one telemetry-owned sampler thread that
//! writes a snapshot line to the given file on a wall-clock interval —
//! counters, quantiles from the duration/histogram sketches, allocator
//! gauges, and the dropped-event count — so a long fit (or, later, the
//! resident service) has a live, dashboardable signal without waiting for
//! the end-of-run trace flush. The stream is observational only: the
//! sampler reads the registry under its lock but never writes to it,
//! never touches stdout, and never consumes randomness, so output stays
//! byte-identical with the stream on or off.
//!
//! ## Line types
//!
//! ```text
//! {"type":"meta","schema":"multiclust-metrics/v1","interval_ms":200}
//! {"type":"snapshot","seq":0,"elapsed_ms":0,"counters":{...},
//!  "quantiles":{"span:kmeans.fit":{"count":1,"mean":...,"p50":...,"p90":...,"p99":...,"max":...}},
//!  "alloc":{"enabled":true,"count":...,"bytes":...,"live":...,"peak":...},
//!  "events_dropped":0}
//! {"type":"end","snapshots":4}                      // on stop
//! ```
//!
//! A snapshot is written immediately on start and a final one on
//! [`stop_metrics`], so even a run shorter than the interval yields at
//! least two snapshot lines. Span-duration sketches are keyed
//! `span:<path>`, plain histograms by their own name. Lines go through
//! the writer shared with the trace sink (`jsonl.rs`), so a failed write
//! or flush counts towards `trace.write_errors` like a trace sink's.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;

use crate::alloc::{alloc_enabled, alloc_totals};
use crate::jsonl;
use crate::sketch::Sketch;
use crate::{float, int};

/// Schema identifier on the stream's first line.
pub const METRICS_SCHEMA: &str = "multiclust-metrics/v1";

/// Default wall-clock sampling interval (`MULTICLUST_METRICS_INTERVAL_MS`
/// overrides).
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(200);

struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

static SAMPLER: Mutex<Option<Sampler>> = Mutex::new(None);

/// Whether a metrics stream is currently running.
pub fn metrics_enabled() -> bool {
    SAMPLER.lock().unwrap_or_else(|p| p.into_inner()).is_some()
}

fn quantile_obj(s: &Sketch) -> Value {
    Value::Object(vec![
        ("count".into(), int(s.count)),
        ("mean".into(), float(s.mean())),
        ("p50".into(), int(s.p50())),
        ("p90".into(), int(s.p90())),
        ("p99".into(), int(s.p99())),
        ("max".into(), int(s.max)),
    ])
}

fn snapshot_line(seq: u64, started: Instant) -> Value {
    let snap = crate::snapshot();
    let counters = Value::Object(
        snap.counters.iter().map(|(k, &v)| (k.clone(), int(v))).collect(),
    );
    let mut quantiles: Vec<(String, Value)> = snap
        .durations
        .iter()
        .map(|(path, s)| (format!("span:{path}"), quantile_obj(s)))
        .collect();
    quantiles.extend(snap.histograms.iter().map(|(name, s)| (name.clone(), quantile_obj(s))));
    let mut alloc = vec![("enabled".to_string(), Value::Bool(alloc_enabled()))];
    alloc.extend(jsonl::fields(&alloc_totals()));
    jsonl::line(
        "snapshot",
        [
            ("seq", int(seq)),
            ("elapsed_ms", int(started.elapsed().as_millis() as u64)),
            ("counters", counters),
            ("quantiles", Value::Object(quantiles)),
            ("alloc", Value::Object(alloc)),
            ("events_dropped", int(snap.dropped_events)),
        ],
    )
}

/// Opens `path` (truncating), writes the schema meta line, and spawns the
/// sampler thread. Any previously running stream is stopped first. Does
/// not flip the main telemetry switch — callers that want content in the
/// snapshots should also call [`crate::set_enabled`] (the CLI's
/// `--metrics` does both).
pub fn start_metrics(path: &Path, interval: Duration) -> std::io::Result<()> {
    stop_metrics();
    let mut writer = jsonl::Writer::new(BufWriter::new(File::create(path)?), 0);
    writer.write(&jsonl::line(
        "meta",
        [
            ("schema", Value::String(METRICS_SCHEMA.into())),
            ("interval_ms", int(interval.as_millis() as u64)),
        ],
    ));
    writer.flush();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_seen = Arc::clone(&stop);
    let interval = interval.max(Duration::from_millis(1));
    let handle = std::thread::Builder::new()
        .name("multiclust-metrics".into())
        .spawn(move || {
            let started = Instant::now();
            let mut seq = 0u64;
            loop {
                writer.write(&snapshot_line(seq, started));
                writer.flush();
                seq += 1;
                // Sleep in short slices so stop latency stays low even at
                // long intervals; on stop, emit one final snapshot so the
                // stream always ends with the run's complete totals.
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if stop_seen.load(Ordering::Acquire) {
                        writer.write(&snapshot_line(seq, started));
                        writer.write(&jsonl::line("end", [("snapshots", int(seq + 1))]));
                        writer.flush();
                        return;
                    }
                    let step = (interval - slept).min(Duration::from_millis(20));
                    std::thread::sleep(step);
                    slept += step;
                }
            }
        })?;
    let mut guard = SAMPLER.lock().unwrap_or_else(|p| p.into_inner());
    *guard = Some(Sampler { stop, handle });
    Ok(())
}

/// Signals the sampler to write its final snapshot and `end` line, then
/// joins it. No-op when no stream is running.
pub fn stop_metrics() {
    let sampler = SAMPLER.lock().unwrap_or_else(|p| p.into_inner()).take();
    if let Some(s) = sampler {
        s.stop.store(true, Ordering::Release);
        let _ = s.handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_write_failures_are_counted() {
        // `/dev/full` accepts opens but fails every write with ENOSPC.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let _guard = crate::TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::reset();
        start_metrics(full, Duration::from_millis(5)).expect("/dev/full opens");
        stop_metrics();
        assert!(crate::trace::trace_write_errors() > 0, "failed metrics writes must be counted");
        crate::reset();
    }

    #[test]
    fn stream_yields_meta_two_snapshots_and_end() {
        let path = std::env::temp_dir()
            .join(format!("multiclust-metrics-test-{}.jsonl", std::process::id()));
        start_metrics(&path, Duration::from_millis(5)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        stop_metrics();
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines.len() >= 4, "expected meta + ≥2 snapshots + end:\n{body}");
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        let Value::Object(obj) = &first else { panic!("meta not an object") };
        assert!(obj.iter().any(|(k, v)| {
            k == "schema" && matches!(v, Value::String(s) if s == METRICS_SCHEMA)
        }));
        let snapshots = lines
            .iter()
            .filter(|l| {
                let v: Value = serde_json::from_str(l).expect("every line parses");
                let Value::Object(o) = v else { return false };
                o.iter().any(|(k, v)| {
                    k == "type" && matches!(v, Value::String(s) if s == "snapshot")
                })
            })
            .count();
        assert!(snapshots >= 2, "only {snapshots} snapshot lines:\n{body}");
        assert!(body.contains("\"type\":\"end\"") || body.contains("\"type\": \"end\""));
        let _ = std::fs::remove_file(&path);
    }
}
