//! The `multiclust-serve/v1` wire protocol: one JSON object per line in
//! both directions, spelled in this module only. Requests are decoded by
//! [`parse_request`] and encoded by [`Request::encode`]; responses are
//! encoded and decoded by [`Response`]. The server, the verification
//! harness and the load-test driver build and read these typed values and
//! never touch the JSON keys themselves.
//!
//! Requests carry an `op` (`fit`, `assign`, `compare`, `list`, `evict`,
//! `stats`, `dump`, `shutdown`) plus op-specific fields, and an optional `id`
//! that is echoed verbatim in the response. Responses always carry
//! `schema`, the echoed `id`, and `ok`; failures carry a structured
//! `error: {code, message}` object instead of op output — a malformed
//! request never terminates the connection, let alone the server.
//!
//! Response field order is fixed (the vendored `serde` `Value` object
//! preserves insertion order, and the reply structs serialize their fields
//! in declaration order) and floats print shortest-roundtrip, so a
//! response body is byte-stable for byte-identical requests.

use std::collections::BTreeMap;
use std::io::{BufRead, ErrorKind};

use multiclust_telemetry::AllocStat;
use serde::{object_field, Deserialize, Error, Serialize, Value};

/// Protocol schema identifier, stamped on every response.
pub const SCHEMA: &str = "multiclust-serve/v1";

/// Default cap on one request line, overridable via
/// `MULTICLUST_SERVE_MAX_LINE` (bytes).
pub const DEFAULT_MAX_LINE: usize = 32 * 1024 * 1024;

/// Every `error.code` the server sends.
const ERROR_CODES: [&str; 7] = [
    "bad-json",
    "bad-request",
    "unknown-op",
    "unknown-model",
    "line-too-long",
    "io",
    "internal",
];

/// A structured protocol failure: machine-readable code plus a one-line
/// human message. Rendered as the response's `error` object.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ProtocolError {
    /// Stable machine-readable code (`bad-json`, `bad-request`,
    /// `unknown-op`, `unknown-model`, `line-too-long`, `io`, `internal`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// A `bad-request` error (shape/validation problems).
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self { code: "bad-request", message: message.into() }
    }
}

impl Deserialize for ProtocolError {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let Value::Object(fields) = v else {
            return Err(Error::custom("\"error\" is not an object"));
        };
        let code: String = get(fields, "code")?;
        let code = ERROR_CODES
            .into_iter()
            .find(|known| *known == code)
            .ok_or_else(|| Error::custom(format!("unknown error code {code:?}")))?;
        Ok(Self { code, message: get(fields, "message")? })
    }
}

/// Where a request's dataset comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum DataSource {
    /// Inline row-major matrix.
    Inline(Vec<Vec<f64>>),
    /// Server-side CSV path.
    Path {
        /// CSV file path, resolved on the server's filesystem.
        path: String,
        /// Whether the first CSV line is a header row.
        header: bool,
    },
}

/// A parsed request, one variant per op.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Fit a family and register the solutions as a model.
    Fit {
        /// Registry name for the fitted model (auto-assigned if absent).
        model: Option<String>,
        /// Family name (resolved by the dispatch closure).
        family: String,
        /// The objects to cluster.
        source: DataSource,
        /// Cluster count (default 2).
        k: usize,
        /// RNG seed (default 42).
        seed: u64,
        /// Optional reference labels (`-1` = noise) for the
        /// alternative/orthogonal paradigms.
        given: Option<Vec<Option<usize>>>,
        /// Optional attribute groups for the multi-view paradigm.
        views: Option<Vec<Vec<usize>>>,
    },
    /// Predict labels for new objects against a registered model.
    Assign {
        /// Registered model name.
        model: String,
        /// The objects to label.
        source: DataSource,
    },
    /// Dissimilarity measures between two registered solutions.
    Compare {
        /// First model name.
        a: String,
        /// Second model name.
        b: String,
        /// Solution index within `a` (default 0).
        sa: usize,
        /// Solution index within `b` (default 0).
        sb: usize,
    },
    /// List registered models in insertion order.
    List,
    /// Drop one model from the registry.
    Evict {
        /// Registered model name.
        model: String,
    },
    /// Server statistics (uptime, per-op latency sketches, gauges).
    Stats,
    /// Dump the flight recorder to a server-side file and return its
    /// path — the forensics hook for remote clients.
    Dump,
    /// Stop accepting, drain, flush, exit.
    Shutdown,
}

impl Request {
    /// The op name (span label, stats key).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Fit { .. } => "fit",
            Request::Assign { .. } => "assign",
            Request::Compare { .. } => "compare",
            Request::List => "list",
            Request::Evict { .. } => "evict",
            Request::Stats => "stats",
            Request::Dump => "dump",
            Request::Shutdown => "shutdown",
        }
    }

    /// Renders the request as one protocol line echoing `id`: the inverse
    /// of [`parse_request`], which gives back `id` and this request for
    /// every request it can produce. Absent optional fields are left out.
    pub fn encode(&self, id: &Value) -> String {
        let mut fields = vec![entry("id", id), entry("op", &self.op())];
        let source_fields = |source: &DataSource| match source {
            DataSource::Inline(rows) => vec![entry("data", rows)],
            DataSource::Path { path, header } => vec![entry("path", path), entry("header", header)],
        };
        match self {
            Request::Fit { model, family, source, k, seed, given, views } => {
                fields.extend(model.as_ref().map(|m| entry("model", m)));
                fields.extend([entry("family", family), entry("k", k), entry("seed", seed)]);
                fields.extend(source_fields(source));
                fields.extend(given.as_ref().map(|g| ("given".to_string(), label_values(g))));
                fields.extend(views.as_ref().map(|v| entry("views", v)));
            }
            Request::Assign { model, source } => {
                fields.push(entry("model", model));
                fields.extend(source_fields(source));
            }
            Request::Compare { a, b, sa, sb } => {
                fields.extend([entry("a", a), entry("b", b), entry("sa", sa), entry("sb", sb)]);
            }
            Request::Evict { model } => fields.push(entry("model", model)),
            Request::List | Request::Stats | Request::Dump | Request::Shutdown => {}
        }
        serde_json::to_string(&Value::Object(fields)).expect("a value tree always serializes")
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// One solution's labels on the wire: an integer per object, `-1` for
/// noise (any negative label decodes as noise).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Labels(pub Vec<Option<usize>>);

fn label_values(labels: &[Option<usize>]) -> Value {
    Value::Array(labels.iter().map(|l| Value::Int(l.map_or(-1, |l| l as i64))).collect())
}

impl Serialize for Labels {
    fn serialize_value(&self) -> Value {
        label_values(&self.0)
    }
}

impl Deserialize for Labels {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let labels = Vec::<i64>::deserialize_value(v)?;
        Ok(Labels(labels.into_iter().map(|l| usize::try_from(l).ok()).collect()))
    }
}

/// `fit`: the registered model, its solutions and any LRU victims.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FitReply {
    /// Registry name.
    pub model: String,
    /// Family that produced it.
    pub family: String,
    /// Training objects.
    pub n: usize,
    /// Training dimensionality.
    pub d: usize,
    /// Requested cluster count.
    pub k: usize,
    /// RNG seed of the fit.
    pub seed: u64,
    /// The solution set, in the family's deterministic order.
    pub solutions: Vec<Labels>,
    /// Models evicted to make room, least recently used first.
    pub evicted: Vec<String>,
}

/// `assign`: nearest-centroid labels under every solution of a model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AssignReply {
    /// Registered model name.
    pub model: String,
    /// Objects labelled.
    pub n: usize,
    /// One label array per solution.
    pub solutions: Vec<Labels>,
}

/// Named measure values in report order, rendered as one JSON object.
#[derive(Clone, Debug, PartialEq)]
pub struct Measures(pub Vec<(String, f64)>);

impl Serialize for Measures {
    fn serialize_value(&self) -> Value {
        Value::Object(self.0.iter().map(|(name, x)| entry(name, x)).collect())
    }
}

impl Deserialize for Measures {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let Value::Object(fields) = v else {
            return Err(Error::custom("\"measures\" is not an object"));
        };
        let named = fields.iter().map(|(name, x)| Ok((name.clone(), f64::deserialize_value(x)?)));
        named.collect::<Result<_, Error>>().map(Measures)
    }
}

/// `compare`: the `Diss` measures between two registered solutions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompareReply {
    /// First model name.
    pub a: String,
    /// Second model name.
    pub b: String,
    /// Solution index within `a`.
    pub sa: usize,
    /// Solution index within `b`.
    pub sb: usize,
    /// The measures, by name.
    pub measures: Measures,
}

/// One `list` entry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Registry name.
    pub model: String,
    /// Family that produced it.
    pub family: String,
    /// Training objects.
    pub n: usize,
    /// Training dimensionality.
    pub d: usize,
    /// Requested cluster count.
    pub k: usize,
    /// RNG seed of the fit.
    pub seed: u64,
    /// Number of solutions.
    pub solutions: usize,
}

/// `list`: registry capacity and the live models in insertion order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ListReply {
    /// Registry capacity.
    pub capacity: usize,
    /// Live models.
    pub models: Vec<ModelInfo>,
}

/// `evict`: the dropped model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvictReply {
    /// Registry name.
    pub model: String,
}

/// `dump`: where the flight ring was written on the server.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DumpReply {
    /// Server-side dump path.
    pub path: String,
    /// Records written.
    pub records: u64,
}

/// One op's latency quantiles (microseconds).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

/// The chaos configuration and how often it fired.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosStats {
    /// `key=value` spec, `off` when disabled.
    pub config: String,
    /// Workload ops slowed.
    pub slowed: u64,
    /// Connections dropped.
    pub dropped: u64,
}

/// `stats`: uptime, per-op counters and latency, registry occupancy and
/// observability health gauges.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReply {
    /// Milliseconds since bind.
    pub uptime_ms: u64,
    /// Requests answered per op (`invalid` for unparseable lines).
    pub requests: BTreeMap<String, u64>,
    /// Error responses plus dropped connections.
    pub errors: u64,
    /// Server-side latency per op.
    pub latency_us: BTreeMap<String, LatencySummary>,
    /// Live models.
    pub models: usize,
    /// Registry capacity.
    pub capacity: usize,
    /// LRU evictions so far.
    pub evictions: u64,
    /// Chaos configuration and counters.
    pub chaos: ChaosStats,
    /// `telemetry.events_dropped`.
    pub events_dropped: u64,
    /// Failed trace writes (`trace.write_errors` on the wire).
    pub trace_write_errors: u64,
    /// Process allocation totals when `MULTICLUST_ALLOC=1`.
    pub alloc: Option<AllocStat>,
}

// Hand-coded: the `trace.write_errors` key is not a Rust identifier.
impl Serialize for StatsReply {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            entry("uptime_ms", &self.uptime_ms),
            entry("requests", &self.requests),
            entry("errors", &self.errors),
            entry("latency_us", &self.latency_us),
            entry("models", &self.models),
            entry("capacity", &self.capacity),
            entry("evictions", &self.evictions),
            entry("chaos", &self.chaos),
            entry("events_dropped", &self.events_dropped),
            entry("trace.write_errors", &self.trace_write_errors),
            entry("alloc", &self.alloc),
        ])
    }
}

impl Deserialize for StatsReply {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let Value::Object(fields) = v else {
            return Err(Error::custom("stats reply is not an object"));
        };
        Ok(StatsReply {
            uptime_ms: get(fields, "uptime_ms")?,
            requests: get(fields, "requests")?,
            errors: get(fields, "errors")?,
            latency_us: get(fields, "latency_us")?,
            models: get(fields, "models")?,
            capacity: get(fields, "capacity")?,
            evictions: get(fields, "evictions")?,
            chaos: get(fields, "chaos")?,
            events_dropped: get(fields, "events_dropped")?,
            trace_write_errors: get(fields, "trace.write_errors")?,
            alloc: get(fields, "alloc")?,
        })
    }
}

/// A successful op's output, one variant per op.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// See [`FitReply`].
    Fit(FitReply),
    /// See [`AssignReply`].
    Assign(AssignReply),
    /// See [`CompareReply`].
    Compare(CompareReply),
    /// See [`ListReply`].
    List(ListReply),
    /// See [`EvictReply`].
    Evict(EvictReply),
    /// See [`StatsReply`].
    Stats(StatsReply),
    /// See [`DumpReply`].
    Dump(DumpReply),
    /// The server stops after answering.
    Shutdown,
}

impl Reply {
    /// The op name and the reply's own fields.
    fn encode(&self) -> (&'static str, Value) {
        match self {
            Reply::Fit(r) => ("fit", r.serialize_value()),
            Reply::Assign(r) => ("assign", r.serialize_value()),
            Reply::Compare(r) => ("compare", r.serialize_value()),
            Reply::List(r) => ("list", r.serialize_value()),
            Reply::Evict(r) => ("evict", r.serialize_value()),
            Reply::Stats(r) => ("stats", r.serialize_value()),
            Reply::Dump(r) => ("dump", r.serialize_value()),
            Reply::Shutdown => ("shutdown", Value::Object(Vec::new())),
        }
    }

    fn decode(op: &str, v: &Value) -> Result<Reply, Error> {
        Ok(match op {
            "fit" => Reply::Fit(FitReply::deserialize_value(v)?),
            "assign" => Reply::Assign(AssignReply::deserialize_value(v)?),
            "compare" => Reply::Compare(CompareReply::deserialize_value(v)?),
            "list" => Reply::List(ListReply::deserialize_value(v)?),
            "evict" => Reply::Evict(EvictReply::deserialize_value(v)?),
            "stats" => Reply::Stats(StatsReply::deserialize_value(v)?),
            "dump" => Reply::Dump(DumpReply::deserialize_value(v)?),
            "shutdown" => Reply::Shutdown,
            other => return Err(Error::custom(format!("unknown op {other:?} in response"))),
        })
    }
}

/// One response line: the echoed request `id` plus the op's reply or a
/// typed error.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request's `id`, echoed verbatim (Null when absent).
    pub id: Value,
    /// What the op produced.
    pub result: Result<Reply, ProtocolError>,
}

impl Response {
    /// The response line, without its newline: the server's one encoder.
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("a value tree always serializes")
    }

    /// Parses one response line: the clients' one decoder.
    pub fn decode(line: &str) -> Result<Response, Error> {
        serde_json::from_str(line)
    }
}

impl Serialize for Response {
    fn serialize_value(&self) -> Value {
        let mut fields = vec![
            entry("schema", &SCHEMA),
            entry("id", &self.id),
            entry("ok", &self.result.is_ok()),
        ];
        match &self.result {
            Ok(reply) => {
                let (op, body) = reply.encode();
                fields.push(entry("op", &op));
                if let Value::Object(body) = body {
                    fields.extend(body);
                }
            }
            Err(e) => fields.push(entry("error", e)),
        }
        Value::Object(fields)
    }
}

impl Deserialize for Response {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let Value::Object(fields) = v else {
            return Err(Error::custom("response is not a JSON object"));
        };
        let schema: String = get(fields, "schema")?;
        if schema != SCHEMA {
            return Err(Error::custom(format!("unsupported response schema {schema:?}")));
        }
        let id = field(fields, "id").cloned().unwrap_or(Value::Null);
        let result = if get(fields, "ok")? {
            Ok(Reply::decode(&get::<String>(fields, "op")?, v)?)
        } else {
            Err(get(fields, "error")?)
        };
        Ok(Response { id, result })
    }
}

fn entry<T: Serialize + ?Sized>(key: &str, value: &T) -> (String, Value) {
    (key.to_string(), value.serialize_value())
}

fn get<T: Deserialize>(fields: &[(String, Value)], key: &str) -> Result<T, Error> {
    T::deserialize_value(object_field(fields, key)?)
}

// ---------------------------------------------------------------------
// Request validation (the input boundary)
// ---------------------------------------------------------------------

fn field<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn field_str(obj: &[(String, Value)], key: &str) -> Result<Option<String>, ProtocolError> {
    match field(obj, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field {key:?} must be a string, got {other:?}"
        ))),
    }
}

fn field_usize(obj: &[(String, Value)], key: &str) -> Result<Option<usize>, ProtocolError> {
    match field(obj, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as usize)),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field {key:?} must be a non-negative integer, got {other:?}"
        ))),
    }
}

fn field_bool(obj: &[(String, Value)], key: &str) -> Result<bool, ProtocolError> {
    match field(obj, key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field {key:?} must be a bool, got {other:?}"
        ))),
    }
}

/// Parses the `data`/`path` pair of a request. Ragged or empty inline
/// matrices are rejected here — `Dataset::from_rows` would panic — and so
/// are non-finite cells (`1e999` parses to infinity), which no family can
/// cluster.
fn parse_source(obj: &[(String, Value)]) -> Result<DataSource, ProtocolError> {
    match (field(obj, "data"), field_str(obj, "path")?) {
        (Some(_), Some(_)) => Err(ProtocolError::bad_request(
            "give either inline \"data\" or a \"path\", not both",
        )),
        (None, None) => Err(ProtocolError::bad_request(
            "missing dataset: give inline \"data\" (array of rows) or a \"path\"",
        )),
        (None, Some(path)) => {
            Ok(DataSource::Path { path, header: field_bool(obj, "header")? })
        }
        (Some(Value::Array(rows)), None) => {
            if rows.is_empty() {
                return Err(ProtocolError::bad_request("\"data\" has no rows"));
            }
            let mut out = Vec::with_capacity(rows.len());
            let mut width = None;
            for (i, row) in rows.iter().enumerate() {
                let Value::Array(cells) = row else {
                    return Err(ProtocolError::bad_request(format!(
                        "\"data\" row {i} is not an array"
                    )));
                };
                let mut parsed = Vec::with_capacity(cells.len());
                for (j, cell) in cells.iter().enumerate() {
                    let x = match cell {
                        Value::Int(i) => *i as f64,
                        Value::Float(f) => *f,
                        _ => {
                            return Err(ProtocolError::bad_request(format!(
                                "\"data\" row {i} cell {j} is not a number"
                            )));
                        }
                    };
                    if !x.is_finite() {
                        return Err(ProtocolError::bad_request(format!(
                            "\"data\" row {i} cell {j} is not finite"
                        )));
                    }
                    parsed.push(x);
                }
                match width {
                    None if parsed.is_empty() => {
                        return Err(ProtocolError::bad_request(format!(
                            "\"data\" row {i} is empty"
                        )));
                    }
                    None => width = Some(parsed.len()),
                    Some(w) if parsed.len() != w => {
                        return Err(ProtocolError::bad_request(format!(
                            "ragged \"data\": row {i} has {} cells, expected {w}",
                            parsed.len()
                        )));
                    }
                    Some(_) => {}
                }
                out.push(parsed);
            }
            Ok(DataSource::Inline(out))
        }
        (Some(other), None) => Err(ProtocolError::bad_request(format!(
            "\"data\" must be an array of rows, got {other:?}"
        ))),
    }
}

fn parse_given(obj: &[(String, Value)]) -> Result<Option<Vec<Option<usize>>>, ProtocolError> {
    match field(obj, "given") {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Array(labels)) => {
            let mut out = Vec::with_capacity(labels.len());
            for (i, l) in labels.iter().enumerate() {
                match l {
                    Value::Int(v) if *v >= 0 => out.push(Some(*v as usize)),
                    Value::Int(_) => out.push(None),
                    other => {
                        return Err(ProtocolError::bad_request(format!(
                            "\"given\" label {i} must be an integer, got {other:?}"
                        )));
                    }
                }
            }
            Ok(Some(out))
        }
        Some(other) => Err(ProtocolError::bad_request(format!(
            "\"given\" must be an array of integer labels, got {other:?}"
        ))),
    }
}

fn parse_views(obj: &[(String, Value)]) -> Result<Option<Vec<Vec<usize>>>, ProtocolError> {
    match field(obj, "views") {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Array(groups)) => {
            let mut out = Vec::with_capacity(groups.len());
            for (g, group) in groups.iter().enumerate() {
                let Value::Array(dims) = group else {
                    return Err(ProtocolError::bad_request(format!(
                        "\"views\" group {g} is not an array of dimension indices"
                    )));
                };
                let mut parsed = Vec::with_capacity(dims.len());
                for d in dims {
                    match d {
                        Value::Int(v) if *v >= 0 => parsed.push(*v as usize),
                        other => {
                            return Err(ProtocolError::bad_request(format!(
                                "\"views\" group {g} holds a non-index {other:?}"
                            )));
                        }
                    }
                }
                if parsed.is_empty() {
                    return Err(ProtocolError::bad_request(format!(
                        "\"views\" group {g} is empty"
                    )));
                }
                out.push(parsed);
            }
            Ok(Some(out))
        }
        Some(other) => Err(ProtocolError::bad_request(format!(
            "\"views\" must be an array of dimension-index groups, got {other:?}"
        ))),
    }
}

/// Parses one request line. Returns the echoed `id` (Null when absent or
/// unparseable) alongside the request or error, so error responses still
/// correlate.
pub fn parse_request(line: &str) -> (Value, Result<Request, ProtocolError>) {
    let value = match serde_json::parse_value(line) {
        Ok(v) => v,
        Err(e) => {
            return (
                Value::Null,
                Err(ProtocolError { code: "bad-json", message: e.to_string() }),
            );
        }
    };
    let Value::Object(obj) = value else {
        return (
            Value::Null,
            Err(ProtocolError::bad_request("request must be a JSON object")),
        );
    };
    let id = field(&obj, "id").cloned().unwrap_or(Value::Null);
    let parsed = parse_request_fields(&obj);
    (id, parsed)
}

fn parse_request_fields(obj: &[(String, Value)]) -> Result<Request, ProtocolError> {
    let op = field_str(obj, "op")?
        .ok_or_else(|| ProtocolError::bad_request("missing \"op\" field"))?;
    match op.as_str() {
        "fit" => {
            let family = field_str(obj, "family")?.ok_or_else(|| {
                ProtocolError::bad_request("fit needs a \"family\" field")
            })?;
            Ok(Request::Fit {
                model: field_str(obj, "model")?,
                family,
                source: parse_source(obj)?,
                k: field_usize(obj, "k")?.unwrap_or(2),
                seed: field_usize(obj, "seed")?.map_or(42, |s| s as u64),
                given: parse_given(obj)?,
                views: parse_views(obj)?,
            })
        }
        "assign" => Ok(Request::Assign {
            model: field_str(obj, "model")?.ok_or_else(|| {
                ProtocolError::bad_request("assign needs a \"model\" field")
            })?,
            source: parse_source(obj)?,
        }),
        "compare" => Ok(Request::Compare {
            a: field_str(obj, "a")?.ok_or_else(|| {
                ProtocolError::bad_request("compare needs an \"a\" model field")
            })?,
            b: field_str(obj, "b")?.ok_or_else(|| {
                ProtocolError::bad_request("compare needs a \"b\" model field")
            })?,
            sa: field_usize(obj, "sa")?.unwrap_or(0),
            sb: field_usize(obj, "sb")?.unwrap_or(0),
        }),
        "list" => Ok(Request::List),
        "evict" => Ok(Request::Evict {
            model: field_str(obj, "model")?.ok_or_else(|| {
                ProtocolError::bad_request("evict needs a \"model\" field")
            })?,
        }),
        "stats" => Ok(Request::Stats),
        "dump" => Ok(Request::Dump),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError {
            code: "unknown-op",
            message: format!(
                "unknown op {other:?} (expected fit, assign, compare, list, evict, stats, dump or shutdown)"
            ),
        }),
    }
}

// ---------------------------------------------------------------------
// Bounded line codec
// ---------------------------------------------------------------------

/// Outcome of one bounded line read.
pub enum BoundedLine {
    /// A complete line (newline stripped) within the cap.
    Line(Vec<u8>),
    /// The line exceeded the cap; its bytes were drained up to and
    /// including the newline, so the connection stays usable.
    TooLong,
    /// Clean end of stream.
    Eof,
    /// The stop callback fired while waiting for bytes.
    Stopped,
}

/// Reads one newline-terminated line, capping it at `max` bytes. On a
/// read timeout (`WouldBlock`/`TimedOut`) the `should_stop` callback
/// decides between giving up ([`BoundedLine::Stopped`]) and retrying —
/// that is how handler threads stay joinable through a server shutdown
/// while a client holds its connection open.
pub fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    max: usize,
    should_stop: &dyn Fn() -> bool,
) -> std::io::Result<BoundedLine> {
    let mut buf = Vec::new();
    let mut overflow = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if should_stop() {
                    return Ok(BoundedLine::Stopped);
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF. A trailing unterminated fragment counts as a line so a
            // client that forgets the final newline still gets an answer.
            return Ok(if overflow {
                BoundedLine::TooLong
            } else if buf.is_empty() {
                BoundedLine::Eof
            } else {
                BoundedLine::Line(buf)
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflow && buf.len() + pos > max {
                    overflow = true;
                    buf.clear();
                }
                if !overflow {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                reader.consume(pos + 1);
                return Ok(if overflow { BoundedLine::TooLong } else { BoundedLine::Line(buf) });
            }
            None => {
                let len = chunk.len();
                if !overflow && buf.len() + len > max {
                    overflow = true;
                    buf.clear();
                }
                if !overflow {
                    buf.extend_from_slice(chunk);
                }
                reader.consume(len);
            }
        }
    }
}

/// The configured request-line cap: `MULTICLUST_SERVE_MAX_LINE` in bytes,
/// else [`DEFAULT_MAX_LINE`].
pub fn max_line_bytes() -> usize {
    std::env::var("MULTICLUST_SERVE_MAX_LINE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(DEFAULT_MAX_LINE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(line: &str) -> Request {
        let (_, r) = parse_request(line);
        r.expect("request should parse")
    }

    fn parse_err(line: &str) -> ProtocolError {
        let (_, r) = parse_request(line);
        r.expect_err("request should be rejected")
    }

    #[test]
    fn fit_request_round_trips() {
        let r = parse_ok(
            r#"{"id":1,"op":"fit","family":"kmeans","k":3,"seed":7,
               "data":[[1,2],[3,4]],"given":[0,-1],"views":[[0],[1]]}"#,
        );
        let Request::Fit { family, source, k, seed, given, views, model } = r else {
            panic!("not a fit");
        };
        assert_eq!(family, "kmeans");
        assert_eq!(k, 3);
        assert_eq!(seed, 7);
        assert_eq!(model, None);
        assert_eq!(given, Some(vec![Some(0), None]));
        assert_eq!(views, Some(vec![vec![0], vec![1]]));
        let DataSource::Inline(rows) = source else { panic!("not inline") };
        assert_eq!(rows, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
    }

    #[test]
    fn ragged_data_is_rejected_before_dataset_construction() {
        let e = parse_err(r#"{"op":"fit","family":"kmeans","data":[[1,2],[3]]}"#);
        assert_eq!(e.code, "bad-request");
        assert!(e.message.contains("ragged"), "{}", e.message);
    }

    #[test]
    fn non_finite_data_is_rejected_naming_the_cell() {
        let e = parse_err(r#"{"op":"fit","family":"kmeans","data":[[1,2],[3,1e999]]}"#);
        assert_eq!(e.code, "bad-request");
        assert!(e.message.contains("row 1 cell 1 is not finite"), "{}", e.message);
    }

    #[test]
    fn deep_nesting_is_bad_json_not_a_stack_overflow() {
        let e = parse_err(&"[".repeat(100_000));
        assert_eq!(e.code, "bad-json");
        assert!(e.message.contains("nesting"), "{}", e.message);
    }

    #[test]
    fn responses_round_trip_through_the_codec() {
        let fit = Reply::Fit(FitReply {
            model: "m".into(),
            family: "kmeans".into(),
            n: 3,
            d: 2,
            k: 2,
            seed: 7,
            solutions: vec![Labels(vec![Some(0), None, Some(1)])],
            evicted: vec!["old".into()],
        });
        let line = Response { id: Value::String("1".into()), result: Ok(fit.clone()) }.encode();
        assert_eq!(
            line,
            r#"{"schema":"multiclust-serve/v1","id":"1","ok":true,"op":"fit","model":"m","family":"kmeans","n":3,"d":2,"k":2,"seed":7,"solutions":[[0,-1,1]],"evicted":["old"]}"#
        );
        let stats = Reply::Stats(StatsReply {
            uptime_ms: 5,
            requests: [("fit".to_string(), 1)].into(),
            errors: 0,
            latency_us: BTreeMap::new(),
            models: 1,
            capacity: 4,
            evictions: 0,
            chaos: ChaosStats { config: "off".into(), slowed: 0, dropped: 0 },
            events_dropped: 0,
            trace_write_errors: 3,
            alloc: None,
        });
        let compare = Reply::Compare(CompareReply {
            a: "a".into(),
            b: "b".into(),
            sa: 0,
            sb: 1,
            measures: Measures(vec![("rand_index".into(), 0.5)]),
        });
        let err = ProtocolError { code: "unknown-model", message: "no model".into() };
        for result in [Ok(fit), Ok(stats), Ok(compare), Ok(Reply::Shutdown), Err(err)] {
            let response = Response { id: Value::Int(9), result };
            assert_eq!(Response::decode(&response.encode()).unwrap(), response);
        }
    }

    #[test]
    fn decoder_rejects_foreign_schemas_and_codes() {
        let line = r#"{"schema":"multiclust-serve/v2","id":null,"ok":true,"op":"shutdown"}"#;
        assert!(Response::decode(line).is_err());
        let line = r#"{"schema":"multiclust-serve/v1","id":null,"ok":false,"error":{"code":"nope","message":""}}"#;
        assert!(Response::decode(line).is_err());
    }

    #[test]
    fn truncated_json_is_bad_json() {
        let e = parse_err(r#"{"op":"fit","family""#);
        assert_eq!(e.code, "bad-json");
    }

    #[test]
    fn unknown_op_is_flagged() {
        let e = parse_err(r#"{"op":"transmogrify"}"#);
        assert_eq!(e.code, "unknown-op");
    }

    #[test]
    fn id_is_recovered_even_from_invalid_requests() {
        let (id, r) = parse_request(r#"{"id":"req-9","op":"nope"}"#);
        assert_eq!(id, serde::Value::String("req-9".to_string()));
        assert!(r.is_err());
    }

    #[test]
    fn bounded_reader_caps_and_drains() {
        let data = format!("{}\nshort\n", "x".repeat(100));
        let mut r = std::io::BufReader::new(data.as_bytes());
        let never = || false;
        match read_line_bounded(&mut r, 10, &never).unwrap() {
            BoundedLine::TooLong => {}
            _ => panic!("expected TooLong"),
        }
        match read_line_bounded(&mut r, 10, &never).unwrap() {
            BoundedLine::Line(l) => assert_eq!(l, b"short"),
            _ => panic!("expected the next line to survive"),
        }
        match read_line_bounded(&mut r, 10, &never).unwrap() {
            BoundedLine::Eof => {}
            _ => panic!("expected EOF"),
        }
    }
}
