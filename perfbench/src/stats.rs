//! Order statistics, metric records and the benchmark-side span log.

use std::time::Instant;

/// Nearest-rank percentile of `values` (`p` in `0..=1`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[m]
    } else {
        (sorted[m - 1] + sorted[m]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// How many samples lie strictly above the `p` percentile.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&v| v > cut).count()
}

/// The values of `(at_s, value)` samples split into `windows` equal
/// slices of `[0, span_s)` by `at_s`; samples outside the span are left out.
pub fn slices(samples: &[(f64, f64)], span_s: f64, windows: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); windows];
    for &(at, v) in samples {
        let w = (at / span_s * windows as f64).floor();
        if w >= 0.0 && (w as usize) < windows {
            out[w as usize].push(v);
        }
    }
    out
}

/// The median over time slices of a per-slice statistic: outside load
/// that spoils a few slices of a run does not move it.
pub fn windowed(slices: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| stat(s))
        .collect();
    median(&per)
}

/// The sample-count record of a windowed percentile: slices, and the
/// fewest samples in, and beyond the percentile of, any slice.
pub fn window_samples(slices: &[Vec<f64>], p: f64) -> serde::Value {
    use serde::Value;
    let fewest = slices.iter().map(Vec::len).min().unwrap_or(0);
    let beyond_min = slices.iter().map(|s| beyond(s, p)).min().unwrap_or(0);
    let total: usize = slices.iter().map(Vec::len).sum();
    Value::Object(vec![
        ("percentile".into(), Value::Float(p)),
        ("samples".into(), Value::Int(total as i64)),
        ("windows".into(), Value::Int(slices.len() as i64)),
        ("fewest_per_window".into(), Value::Int(fewest as i64)),
        (
            "fewest_beyond_per_window".into(),
            Value::Int(beyond_min as i64),
        ),
    ])
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metric list builder.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Times `reps` calls of `f` and returns the median seconds per call.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    median(&secs)
}

/// Times batches of `inner` calls until `budget_s` seconds are used
/// (at least 5 batches) and returns the median seconds per call — for
/// calls too short to time one at a time.
pub fn time_per_call<T>(inner: usize, budget_s: f64, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..inner {
            std::hint::black_box(f());
        }
        per_call.push(t.elapsed().as_secs_f64() / inner as f64);
    }
    median(&per_call)
}

/// One completed benchmark-side span. Spans of one request share `id`;
/// `parent` indexes the enclosing span in the same log.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub id: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span log; written out once, when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span from `start` to `end`; returns its index for use as
    /// a parent.
    pub fn between(
        &mut self,
        name: &str,
        id: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.push(Span {
            name: name.to_string(),
            id: id.to_string(),
            parent,
            start_ns,
            dur_ns,
        })
    }

    /// Records a span that started at `start` and ends now.
    pub fn record(&mut self, name: &str, id: &str, parent: Option<usize>, start: Instant) -> usize {
        self.between(name, id, parent, start, Instant::now())
    }

    /// Opens a span now; [`SpanLog::close`] sets its duration.
    pub fn open(&mut self, name: &str, id: &str, parent: Option<usize>) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.push(Span {
            name: name.to_string(),
            id: id.to_string(),
            parent,
            start_ns,
            dur_ns: 0,
        })
    }

    pub fn close(&mut self, index: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[index].dur_ns = now.saturating_sub(self.spans[index].start_ns);
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` under a span named `name`; returns its result.
    pub fn time<T>(
        &mut self,
        name: &str,
        id: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, id, parent, start);
        out
    }

    /// Appends another log's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Per-name `(count, total_ns, self_ns)`, sorted by self time: a
    /// span's self time is its duration minus that of its children.
    pub fn self_times(&self) -> Vec<(String, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 += s.dur_ns.saturating_sub(child_ns[i]);
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n.to_string(), c, t, s))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.3));
        rows
    }

    /// The log as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{:?},\"id\":{:?},\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{}}}\n",
                s.name, s.id, s.start_ns, s.dur_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_median_ignores_a_spoiled_slice() {
        let samples: Vec<(f64, f64)> = (0..300)
            .map(|i| (i as f64 / 100.0, if i >= 200 { 50.0 } else { 1.0 }))
            .collect();
        let s = slices(&samples, 3.0, 3);
        assert_eq!(
            s.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![100, 100, 100]
        );
        assert_eq!(windowed(&s, |v| percentile(v, 0.99)), 1.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push(Span {
            name: "req".into(),
            id: "1".into(),
            parent: None,
            start_ns: 0,
            dur_ns: 100,
        });
        log.push(Span {
            name: "server".into(),
            id: "1".into(),
            parent: Some(root),
            start_ns: 10,
            dur_ns: 70,
        });
        let rows = log.self_times();
        let req = rows.iter().find(|r| r.0 == "req").unwrap();
        assert_eq!((req.1, req.2, req.3), (1, 100, 30));
    }
}
