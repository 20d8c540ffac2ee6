//! Std-only telemetry for the `multiclust` workspace: hierarchical spans
//! with wall-clock timing, monotonic counters, log-scale histograms and
//! structured per-iteration events, collected into a process-global,
//! thread-safe registry with human-readable and JSON exporters.
//!
//! ## Overhead policy
//!
//! Telemetry is **disabled by default**. Every recording entry point
//! begins with [`enabled`] — a single relaxed atomic load — and returns
//! immediately when the switch is off, so instrumentation in hot kernels
//! compiles down to a branch on a cached flag. Call sites that must
//! *compute* something telemetry-only (an objective value, an inertia
//! sum) guard that computation behind `enabled()` themselves.
//!
//! ## Determinism contract
//!
//! Telemetry only ever *observes*: it never consumes randomness, never
//! mutates algorithm state and never influences control flow. Clustering
//! results are bit-identical with the switch on or off (enforced by
//! `tests/telemetry.rs` at the workspace root).
//!
//! ## Enabling
//!
//! * programmatically, via [`set_enabled`] (what the CLI's `--telemetry`
//!   flag does), or
//! * through the environment: `MULTICLUST_TELEMETRY=1` (any value other
//!   than `0`/`false`/`off`/empty), read once on first use.
//!
//! ## Model
//!
//! * **Spans** ([`span`]) aggregate wall-clock time by hierarchical path:
//!   a span opened while another span is open on the *same thread* nests
//!   under it (`"coala.fit/merge_scan"`). Aggregation records call count,
//!   total and maximum duration per path.
//! * **Counters** ([`counter_add`]) are monotonic `u64` sums.
//! * **Histograms** ([`histogram_record`]) record `u64` samples into
//!   mergeable log-bucketed quantile sketches ([`Sketch`]: p50/p90/p99/
//!   max with ≤ 1/16 relative bucket error). Span durations feed the
//!   same sketch type, keyed by span path.
//! * **Events** ([`event`]) are ordered structured records — a name plus
//!   named `f64` fields — for convergence traces (per-iteration
//!   objectives, merge decisions, lattice level sizes). The registry
//!   retains up to [`MAX_EVENTS`] events and counts the overflow instead
//!   of growing without bound.
//! * **Allocation accounting** ([`alloc`]) attributes heap traffic to the
//!   active span via a counting global allocator, off by default
//!   (`MULTICLUST_ALLOC=1`).
//! * **Metrics stream** ([`metrics`]) samples counters, quantiles and
//!   alloc gauges to a JSONL file on a wall-clock interval
//!   (`--metrics` / `MULTICLUST_METRICS`).

// `deny`, not `forbid`: the `alloc` module implements the unsafe
// `GlobalAlloc` trait and opts out locally; everything else stays safe.
#![deny(unsafe_code)]

pub mod alloc;
pub mod diagnose;
pub mod flight;
mod jsonl;
pub mod metrics;
pub mod sketch;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Serialize, Value};

pub use alloc::AllocStat;
pub use sketch::Sketch;

/// Maximum number of structured events retained in the registry; later
/// events are dropped and counted in `dropped_events`.
pub const MAX_EVENTS: usize = 1 << 16;

// ---- global switch ---------------------------------------------------------

/// 0 = uninitialised (read env on first use), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is currently recording. One relaxed atomic load on
/// the fast path; the first call reads `MULTICLUST_TELEMETRY` once.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let mut on = std::env::var("MULTICLUST_TELEMETRY").is_ok_and(|v| {
        let v = v.trim().to_ascii_lowercase();
        !(v.is_empty() || v == "0" || v == "false" || v == "off")
    });
    // Arm the counting allocator here — this is ordinary (cold) code,
    // where reading an env var is safe; the allocator itself never is.
    alloc::init_from_env();
    // `MULTICLUST_TRACE=<path>` implies recording: open the sink and turn
    // telemetry on so the trace actually has content.
    if let Ok(path) = std::env::var("MULTICLUST_TRACE") {
        let path = path.trim();
        if !path.is_empty() && !trace::trace_enabled() {
            match trace::set_trace_path(Some(std::path::Path::new(path))) {
                Ok(()) => on = true,
                Err(e) => eprintln!("multiclust: cannot open MULTICLUST_TRACE={path}: {e}"),
            }
        }
    }
    // `MULTICLUST_METRICS=<path>` likewise implies recording: start the
    // sampler so the snapshots have content.
    if let Ok(path) = std::env::var("MULTICLUST_METRICS") {
        let path = path.trim();
        if !path.is_empty() && !metrics::metrics_enabled() {
            let interval = std::env::var("MULTICLUST_METRICS_INTERVAL_MS")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(std::time::Duration::from_millis)
                .unwrap_or(metrics::DEFAULT_INTERVAL);
            match metrics::start_metrics(std::path::Path::new(path), interval) {
                Ok(()) => on = true,
                Err(e) => eprintln!("multiclust: cannot open MULTICLUST_METRICS={path}: {e}"),
            }
        }
    }
    // Only flip from "uninitialised" so a racing `set_enabled` wins.
    let _ = STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == 2
}

/// Turns telemetry on or off for the whole process, overriding the
/// environment. Flipping the switch does not clear already-recorded data
/// — use [`reset`] for that.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// ---- registry --------------------------------------------------------------

/// Aggregated statistics of one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times a span with this path completed.
    pub count: u64,
    /// Total wall-clock nanoseconds across completions.
    pub total_ns: u64,
    /// Longest single completion in nanoseconds.
    pub max_ns: u64,
}

/// One structured event: an ordered record with named numeric fields.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Global sequence number (registry insertion order).
    pub seq: u64,
    /// Event name, e.g. `"kmeans.iter"`.
    pub name: String,
    /// Named `f64` payload fields in call order.
    pub fields: Vec<(String, f64)>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Sketch>,
    /// Per-span-path duration sketches (nanoseconds), recorded alongside
    /// the scalar [`SpanStat`] so readers get p50/p90/p99 per phase.
    durations: BTreeMap<String, Sketch>,
    events: Vec<Event>,
    dropped_events: u64,
    seq: u64,
}

static REGISTRY: Mutex<Option<Inner>> = Mutex::new(None);

/// Runs `f` on the registry, creating it on first use and surviving lock
/// poisoning (a panicking instrumented thread must not kill telemetry).
fn with_registry<T>(f: impl FnOnce(&mut Inner) -> T) -> T {
    let mut guard = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    f(guard.get_or_insert_with(Inner::default))
}

thread_local! {
    /// Open span paths on this thread, innermost last — the source of
    /// span hierarchy. Worker threads have their own stacks, so spans
    /// opened inside a parallel region root at that worker.
    static SPAN_STACK: std::cell::RefCell<Vec<String>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

// ---- recording API ---------------------------------------------------------

/// RAII guard returned by [`span`]; records the span on drop. Inactive
/// (and free) when telemetry is disabled.
#[must_use = "a span records its duration when the guard drops"]
pub struct SpanGuard {
    active: Option<(String, Instant)>,
    /// Allocation slot to restore on drop; `None` when allocation
    /// accounting was off at open time.
    prev_slot: Option<usize>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Restore the allocation charge target first, so the bookkeeping
        // below is charged to the parent span, not this one.
        if let Some(prev) = self.prev_slot.take() {
            alloc::set_current_slot(prev);
        }
        let Some((path, start)) = self.active.take() else {
            return;
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        with_registry(|r| {
            let stat = r.spans.entry(path.clone()).or_default();
            stat.count += 1;
            stat.total_ns += ns;
            stat.max_ns = stat.max_ns.max(ns);
            r.durations.entry(path.clone()).or_default().record(ns);
        });
        // Registry lock released before the sink lock is taken. The span
        // also lands in the flight ring, and both carry the thread's
        // request/connection correlation context when one is installed.
        if flight::flight_enabled() {
            flight::record_span(&path, ns);
        }
        if trace::trace_enabled() {
            let ctx = flight::current_request();
            trace::write_span(&path, ns, ctx.as_ref().map(|(r, c)| (r.as_str(), *c)));
        }
    }
}

/// Opens a timed span named `name`, nested under any span already open on
/// this thread. Hold the returned guard for the duration of the work.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None, prev_slot: None };
    }
    let path = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        stack.push(path.clone());
        path
    });
    // With allocation accounting on, this span becomes the thread's
    // charge target until the guard drops.
    let prev_slot = if alloc::alloc_enabled() {
        Some(alloc::swap_current_slot(alloc::slot_for_path(&path)))
    } else {
        None
    };
    SpanGuard { active: Some((path, Instant::now())), prev_slot }
}

/// Adds `delta` to the monotonic counter `name`.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| match r.counters.get_mut(name) {
        Some(c) => *c += delta,
        None => {
            r.counters.insert(name.to_string(), delta);
        }
    });
}

/// Records `value` into the quantile sketch `name`.
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        r.histograms.entry(name.to_string()).or_default().record(value);
    });
}

/// Records a structured event `name` with named `f64` fields. Events past
/// [`MAX_EVENTS`] are dropped (and counted) rather than retained.
#[inline]
pub fn event(name: &str, fields: &[(&str, f64)]) {
    if !enabled() {
        return;
    }
    let seq = with_registry(|r| {
        let seq = r.seq;
        r.seq += 1;
        if r.events.len() >= MAX_EVENTS {
            r.dropped_events += 1;
            // Truncation is data, not a silent loss: surface it as a
            // counter so both exporters show it alongside everything else.
            *r.counters.entry("telemetry.events_dropped".to_string()).or_insert(0) += 1;
            return seq;
        }
        r.events.push(Event {
            seq,
            name: name.to_string(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
        seq
    });
    // The sink is the durable record: it keeps streaming past the
    // in-memory cap. Registry lock released before the sink lock.
    if flight::flight_enabled() {
        flight::record_event(name);
    }
    if trace::trace_enabled() {
        trace::write_event(seq, name, fields);
    }
}

/// Clears all recorded data (spans, counters, histograms, events,
/// allocation tallies, trace write-error count). The on/off switches are
/// untouched.
pub fn reset() {
    with_registry(|r| *r = Inner::default());
    alloc::reset_alloc();
    jsonl::reset_write_errors();
}

// ---- snapshot & export -----------------------------------------------------

/// A point-in-time copy of everything the registry recorded.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Span statistics by hierarchical path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Quantile sketches by name.
    pub histograms: BTreeMap<String, Sketch>,
    /// Span-duration sketches by path (nanoseconds).
    pub durations: BTreeMap<String, Sketch>,
    /// Allocation accounting per span path (empty when `MULTICLUST_ALLOC`
    /// is off or nothing allocated).
    pub alloc: BTreeMap<String, AllocStat>,
    /// Retained events in sequence order.
    pub events: Vec<Event>,
    /// Events dropped after [`MAX_EVENTS`] was reached.
    pub dropped_events: u64,
}

/// Copies the current registry contents, folding in the allocator's slot
/// table and the trace sink's write-error count (as `trace.write_errors`,
/// so both exporters surface sink failures alongside everything else).
pub fn snapshot() -> Snapshot {
    let mut snap = with_registry(|r| Snapshot {
        spans: r.spans.clone(),
        counters: r.counters.clone(),
        histograms: r.histograms.clone(),
        durations: r.durations.clone(),
        alloc: BTreeMap::new(),
        events: r.events.clone(),
        dropped_events: r.dropped_events,
    });
    let write_errors = jsonl::trace_write_errors();
    if write_errors > 0 {
        snap.counters.insert("trace.write_errors".to_string(), write_errors);
    }
    snap.alloc = alloc::alloc_by_path().into_iter().collect();
    snap
}

impl Snapshot {
    /// Human-readable report: spans, counters, histogram summaries and
    /// per-event-name digests.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans (path  count  total_ms  p50_ms  p99_ms  max_ms):\n");
            for (path, s) in &self.spans {
                let q = self.durations.get(path);
                let p50 = q.map_or(0, |d| d.p50());
                let p99 = q.map_or(0, |d| d.p99());
                let _ = writeln!(
                    out,
                    "  {path}  {}  {:.3}  {:.3}  {:.3}  {:.3}",
                    s.count,
                    s.total_ns as f64 / 1e6,
                    p50 as f64 / 1e6,
                    p99 as f64 / 1e6,
                    s.max_ns as f64 / 1e6,
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (name  count  mean  p50  p90  p99  max):\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name}  {}  {:.1}  {}  {}  {}  {}",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max,
                );
            }
        }
        if !self.alloc.is_empty() {
            out.push_str("alloc (path  count  bytes  peak):\n");
            for (path, a) in &self.alloc {
                let _ = writeln!(out, "  {path}  {}  {}  {}", a.count, a.bytes, a.peak);
            }
        }
        if !self.events.is_empty() || self.dropped_events > 0 {
            out.push_str("events (name  count  last):\n");
            let mut by_name: BTreeMap<&str, (u64, &Event)> = BTreeMap::new();
            for e in &self.events {
                by_name
                    .entry(&e.name)
                    .and_modify(|(n, last)| {
                        *n += 1;
                        *last = e;
                    })
                    .or_insert((1, e));
            }
            for (name, (count, last)) in &by_name {
                let fields: Vec<String> = last
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k}={v:.4}"))
                    .collect();
                let _ = writeln!(out, "  {name}  {count}  {{{}}}", fields.join(", "));
            }
            if self.dropped_events > 0 {
                let _ = writeln!(out, "  (dropped {} events)", self.dropped_events);
            }
        }
        if out.is_empty() {
            out.push_str("(no telemetry recorded)\n");
        }
        out
    }

    /// Compact JSON report (parses with the vendored `serde_json`).
    /// Non-finite floats are emitted as `null` so the output is always
    /// valid JSON.
    pub fn to_json(&self) -> String {
        let spans = Value::Array(
            self.spans
                .iter()
                .map(|(path, s)| {
                    let q = self.durations.get(path);
                    Value::Object(vec![
                        ("path".into(), Value::String(path.clone())),
                        ("count".into(), int(s.count)),
                        ("total_ns".into(), int(s.total_ns)),
                        ("p50_ns".into(), int(q.map_or(0, |d| d.p50()))),
                        ("p90_ns".into(), int(q.map_or(0, |d| d.p90()))),
                        ("p99_ns".into(), int(q.map_or(0, |d| d.p99()))),
                        ("max_ns".into(), int(s.max_ns)),
                    ])
                })
                .collect(),
        );
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(name, &v)| (name.clone(), int(v)))
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(name, h)| {
                    let buckets = Value::Array(
                        h.occupied()
                            .map(|(lo, c)| Value::Array(vec![int(lo), int(c)]))
                            .collect(),
                    );
                    let body = Value::Object(vec![
                        ("count".into(), int(h.count)),
                        ("sum".into(), int(h.sum)),
                        ("p50".into(), int(h.p50())),
                        ("p90".into(), int(h.p90())),
                        ("p99".into(), int(h.p99())),
                        ("max".into(), int(h.max)),
                        ("buckets".into(), buckets),
                    ]);
                    (name.clone(), body)
                })
                .collect(),
        );
        let alloc = Value::Object(
            self.alloc.iter().map(|(path, a)| (path.clone(), a.serialize_value())).collect(),
        );
        let events = Value::Array(
            self.events
                .iter()
                .map(|e| {
                    let fields = Value::Object(
                        e.fields.iter().map(|(k, v)| (k.clone(), float(*v))).collect(),
                    );
                    Value::Object(vec![
                        ("seq".into(), int(e.seq)),
                        ("name".into(), Value::String(e.name.clone())),
                        ("fields".into(), fields),
                    ])
                })
                .collect(),
        );
        let root = Value::Object(vec![
            ("spans".into(), spans),
            ("counters".into(), counters),
            ("histograms".into(), histograms),
            ("alloc".into(), alloc),
            ("events".into(), events),
            ("dropped_events".into(), int(self.dropped_events)),
        ]);
        serde_json::to_string(&root).expect("value tree serialization is infallible")
    }
}

/// `u64` → JSON integer, clamped into `i64` (the vendored value model's
/// integer type).
pub(crate) fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// `f64` → JSON number, with non-finite values mapped to `null`.
pub(crate) fn float(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

/// One lock for every in-crate test that flips the global switch or
/// mutates the registry — the lib and trace test modules share state, so
/// they must share the lock too.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// The switch and registry are process-global; serialize tests.
    fn serialized<T>(f: impl FnOnce() -> T) -> T {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        reset();
        let out = f();
        reset();
        set_enabled(false);
        out
    }

    #[test]
    fn disabled_records_nothing() {
        serialized(|| {
            set_enabled(false);
            counter_add("c", 1);
            histogram_record("h", 5);
            event("e", &[("x", 1.0)]);
            let _s = span("s");
            drop(_s);
            set_enabled(true);
            let snap = snapshot();
            assert!(snap.counters.is_empty());
            assert!(snap.histograms.is_empty());
            assert!(snap.events.is_empty());
            assert!(snap.spans.is_empty());
        });
    }

    #[test]
    fn counters_accumulate() {
        serialized(|| {
            counter_add("a", 2);
            counter_add("a", 3);
            counter_add("b", 1);
            let snap = snapshot();
            assert_eq!(snap.counters["a"], 5);
            assert_eq!(snap.counters["b"], 1);
        });
    }

    #[test]
    fn spans_nest_by_thread_stack() {
        serialized(|| {
            {
                let _outer = span("outer");
                let _inner = span("inner");
            }
            let snap = snapshot();
            assert_eq!(snap.spans["outer"].count, 1);
            assert_eq!(snap.spans["outer/inner"].count, 1);
            assert!(snap.spans["outer"].total_ns >= snap.spans["outer/inner"].total_ns);
        });
    }

    #[test]
    fn histograms_are_quantile_sketches() {
        serialized(|| {
            for v in 1..=100u64 {
                histogram_record("h", v);
            }
            let snap = snapshot();
            let h = &snap.histograms["h"];
            assert_eq!(h.count, 100);
            assert_eq!(h.sum, 5050);
            assert_eq!(h.min, 1);
            assert_eq!(h.max, 100);
            // Sketch quantiles overestimate by at most one bucket (1/16).
            for (q, truth) in [(0.5, 50u64), (0.9, 90), (0.99, 99)] {
                let est = h.quantile(q);
                assert!(est >= truth && est <= truth + truth / 16 + 1, "q={q}: {est}");
            }
        });
    }

    #[test]
    fn span_durations_feed_quantile_sketches() {
        serialized(|| {
            for _ in 0..5 {
                let _s = span("timed");
            }
            let snap = snapshot();
            let d = &snap.durations["timed"];
            assert_eq!(d.count, 5);
            assert!(d.p99() >= d.p50());
            assert!(snap.spans["timed"].max_ns >= d.p50());
        });
    }

    #[test]
    fn events_keep_order_and_cap() {
        serialized(|| {
            event("e", &[("i", 0.0)]);
            event("e", &[("i", 1.0)]);
            let snap = snapshot();
            assert_eq!(snap.events.len(), 2);
            assert!(snap.events[0].seq < snap.events[1].seq);
            assert_eq!(snap.events[1].fields[0], ("i".to_string(), 1.0));
        });
    }

    #[test]
    fn json_round_trips_through_vendored_serde_json() {
        serialized(|| {
            counter_add("quotes\"and\\slashes", 7);
            event("e", &[("nan", f64::NAN), ("v", 1.5)]);
            let _s = span("s");
            drop(_s);
            let json = snapshot().to_json();
            let parsed: Value = serde_json::from_str(&json).expect("valid JSON");
            let Value::Object(fields) = parsed else {
                panic!("root must be an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["spans", "counters", "histograms", "alloc", "events", "dropped_events"]
            );
        });
    }

    #[test]
    fn alloc_attribution_reaches_the_snapshot() {
        serialized(|| {
            alloc::set_alloc_enabled(true);
            alloc::reset_alloc();
            {
                let _s = span("alloc_test.phase");
                let v: Vec<u8> = Vec::with_capacity(50_000);
                drop(v);
            }
            alloc::set_alloc_enabled(false);
            let snap = snapshot();
            let stat = snap
                .alloc
                .get("alloc_test.phase")
                .expect("span path appears in alloc accounting");
            assert!(stat.count >= 1);
            assert!(stat.bytes >= 50_000, "bytes = {}", stat.bytes);
            assert!(stat.peak >= 50_000, "peak = {}", stat.peak);
            let json = snap.to_json();
            assert!(json.contains("alloc_test.phase"), "{json}");
            alloc::reset_alloc();
        });
    }

    #[test]
    fn text_report_mentions_everything() {
        serialized(|| {
            counter_add("c", 1);
            histogram_record("h", 9);
            event("e", &[("x", 2.0)]);
            let _s = span("s");
            drop(_s);
            let text = snapshot().to_text();
            for needle in ["spans", "counters", "histograms", "events", "c = 1"] {
                assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
            }
        });
    }
}
