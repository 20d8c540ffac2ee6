//! The accept/dispatch loop: binds a [`Listen`] address, serves the
//! wire protocol through the typed codec in [`crate::protocol`], and keeps
//! every fitted model in a bounded LRU [`ModelRegistry`].
//!
//! Each connection gets a handler thread with a short read timeout, so a
//! `shutdown` request drains cleanly even while other clients hold their
//! connections open: handlers observe the stop flag on the next timeout
//! and exit, and [`Server::run`] joins them all before returning — no
//! leaked threads. Every request executes under a `serve.<op>` telemetry
//! span, feeding the `multiclust-trace/v1` sink and the `--metrics`
//! stream exactly like a CLI run; independently of the telemetry switch
//! the server keeps its own per-op counters and latency quantile
//! sketches for the `stats` op.

use std::io::{BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use multiclust_core::measures::diss::DISS_MEASURES;
use multiclust_core::Clustering;
use multiclust_data::io::read_csv;
use multiclust_data::Dataset;
use multiclust_telemetry::{AllocStat, Sketch};
use serde::Value;

use crate::protocol::{
    self, AssignReply, BoundedLine, ChaosStats, CompareReply, DataSource, DumpReply, EvictReply,
    FitReply, Labels, LatencySummary, ListReply, Measures, ModelInfo, ProtocolError, Reply,
    Request, Response, StatsReply,
};
use crate::registry::{FittedModel, ModelRegistry};
use crate::{ChaosConfig, FitDispatch, FitSpec, Listen};

/// Server construction parameters.
pub struct ServerConfig {
    /// Model-registry capacity (LRU bound, min 1).
    pub capacity: usize,
    /// Executes `fit` requests (supplied by the harness layer).
    pub dispatch: FitDispatch,
    /// Deterministic degradation for the load-test harness
    /// (default: disabled).
    pub chaos: ChaosConfig,
}

/// What a completed [`Server::run`] reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerSummary {
    /// Total requests answered (including error responses).
    pub requests: u64,
    /// How many of them were error responses.
    pub errors: u64,
}

#[derive(Default)]
struct Stats {
    requests: std::collections::BTreeMap<String, u64>,
    errors: u64,
    latency_us: std::collections::BTreeMap<String, Sketch>,
    chaos_slowed: u64,
    chaos_dropped: u64,
}

struct Shared {
    dispatch: FitDispatch,
    registry: Mutex<ModelRegistry>,
    stats: Mutex<Stats>,
    stop: AtomicBool,
    start: Instant,
    max_line: usize,
    chaos: ChaosConfig,
    // Global workload-op sequence the chaos knobs count on; `stats` and
    // `shutdown` are exempt so observers and teardown stay reliable.
    chaos_seq: AtomicU64,
    // Connection ids for request correlation: every record a request
    // leaves behind (span fields, flight ring, trace lines) carries the
    // accepting connection's id alongside the request id.
    conn_seq: AtomicU64,
}

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// A bound, not-yet-running protocol server.
pub struct Server {
    listener: ListenerKind,
    shared: Arc<Shared>,
    unix_path: Option<PathBuf>,
    addr: String,
}

impl Server {
    /// Binds the address and prepares the shared state. The request-line
    /// cap is read from `MULTICLUST_SERVE_MAX_LINE` at bind time.
    pub fn bind(listen: &Listen, config: ServerConfig) -> std::io::Result<Server> {
        let (listener, unix_path, addr) = match listen {
            Listen::Tcp(a) => {
                let l = TcpListener::bind(a.as_str())?;
                let bound = l.local_addr()?;
                (ListenerKind::Tcp(l), None, format!("tcp:{bound}"))
            }
            Listen::Unix(p) => {
                // A stale socket file from a dead server blocks the bind;
                // remove it (a live server would still hold the listener).
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                (ListenerKind::Unix(l), Some(p.clone()), format!("unix:{}", p.display()))
            }
        };
        let shared = Arc::new(Shared {
            dispatch: config.dispatch,
            registry: Mutex::new(ModelRegistry::new(config.capacity)),
            stats: Mutex::new(Stats::default()),
            stop: AtomicBool::new(false),
            start: Instant::now(),
            max_line: protocol::max_line_bytes(),
            chaos: config.chaos,
            chaos_seq: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
        });
        Ok(Server { listener, shared, unix_path, addr })
    }

    /// The bound address in `tcp:host:port` / `unix:path` form — feed it
    /// back to [`Listen::parse`] to connect (port 0 resolves here).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Serves until a `shutdown` request, then joins every handler
    /// thread and removes a Unix socket file if one was bound.
    pub fn run(self) -> std::io::Result<ServerSummary> {
        match &self.listener {
            ListenerKind::Tcp(l) => l.set_nonblocking(true)?,
            ListenerKind::Unix(l) => l.set_nonblocking(true)?,
        }
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.stop.load(Ordering::SeqCst) {
            let conn = match &self.listener {
                ListenerKind::Tcp(l) => match l.accept() {
                    Ok((s, _)) => {
                        s.set_nodelay(true).ok();
                        s.set_read_timeout(Some(Duration::from_millis(50)))?;
                        let reader = s.try_clone()?;
                        Some((boxed_read(reader), boxed_write(s)))
                    }
                    Err(e) if would_block(&e) => None,
                    Err(e) => return Err(e),
                },
                ListenerKind::Unix(l) => match l.accept() {
                    Ok((s, _)) => {
                        s.set_read_timeout(Some(Duration::from_millis(50)))?;
                        let reader = s.try_clone()?;
                        Some((boxed_read(reader), boxed_write(s)))
                    }
                    Err(e) if would_block(&e) => None,
                    Err(e) => return Err(e),
                },
            };
            match conn {
                Some((reader, writer)) => {
                    let shared = Arc::clone(&self.shared);
                    handlers.push(
                        std::thread::Builder::new()
                            .name("serve-conn".to_string())
                            .spawn(move || handle_connection(&shared, reader, writer))
                            .expect("spawn connection handler"),
                    );
                    handlers.retain(|h| !h.is_finished());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        for h in handlers {
            let _ = h.join();
        }
        if let Some(p) = &self.unix_path {
            let _ = std::fs::remove_file(p);
        }
        let stats = self.shared.stats.lock().unwrap_or_else(|e| e.into_inner());
        Ok(ServerSummary {
            requests: stats.requests.values().sum(),
            errors: stats.errors,
        })
    }
}

fn boxed_read(r: impl Read + Send + 'static) -> Box<dyn Read + Send> {
    Box::new(r)
}

fn boxed_write(w: impl Write + Send + 'static) -> Box<dyn Write + Send> {
    Box::new(w)
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn handle_connection(
    shared: &Shared,
    reader: Box<dyn Read + Send>,
    mut writer: Box<dyn Write + Send>,
) {
    use multiclust_telemetry::flight;
    let mut reader = BufReader::new(reader);
    let stop = || shared.stop.load(Ordering::SeqCst);
    let conn = shared.conn_seq.fetch_add(1, Ordering::SeqCst) + 1;
    loop {
        let line = match protocol::read_line_bounded(&mut reader, shared.max_line, &stop) {
            Ok(BoundedLine::Line(bytes)) if bytes.iter().all(u8::is_ascii_whitespace) => continue,
            Ok(BoundedLine::Line(bytes)) => String::from_utf8(bytes).map_err(|_| ProtocolError {
                code: "bad-json",
                message: "request line is not UTF-8".to_string(),
            }),
            Ok(BoundedLine::TooLong) => Err(ProtocolError {
                code: "line-too-long",
                message: format!(
                    "request line exceeds {} bytes (MULTICLUST_SERVE_MAX_LINE)",
                    shared.max_line
                ),
            }),
            Ok(BoundedLine::Eof) | Ok(BoundedLine::Stopped) | Err(_) => return,
        };
        // Every line, oversized and undecodable ones too, takes the one
        // path below: span, stats, flight record, one encoded response.
        let started = Instant::now();
        let (id, parsed) = match line {
            Ok(text) => protocol::parse_request(&text),
            Err(e) => (Value::Null, Err(e)),
        };
        let op = parsed.as_ref().map_or("invalid", Request::op);
        let shutdown = matches!(parsed, Ok(Request::Shutdown));
        // Correlation context: the echoed request id plus this
        // connection's id tag every span, trace line and flight record
        // made while the request executes — including chaos decisions.
        let req_id = id_text(&id);
        flight::set_request(req_id.as_deref().unwrap_or(""), conn);
        // Chaos fires on workload ops only: `stats` answers the load-test
        // driver's final probe, `dump` is the forensics hook and
        // `shutdown` tears the rig down, so all three must stay reliable
        // even under full degradation.
        let exempt = matches!(
            parsed,
            Ok(Request::Stats) | Ok(Request::Dump) | Ok(Request::Shutdown) | Err(_)
        );
        if !shared.chaos.disabled() && !exempt {
            let seq = shared.chaos_seq.fetch_add(1, Ordering::SeqCst) + 1;
            if shared.chaos.drop_every > 0 && seq % shared.chaos.drop_every == 0 {
                // Close the connection without a response line: the
                // client observes an unexpected EOF mid-request — the
                // transport failure the drivers must survive.
                let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
                stats.chaos_dropped += 1;
                *stats.requests.entry(op.to_string()).or_insert(0) += 1;
                stats.errors += 1;
                drop(stats);
                multiclust_telemetry::counter_add("serve.chaos.dropped", 1);
                flight::record_event("serve.chaos.dropped");
                return;
            }
            if shared.chaos.slow_every > 0 && seq % shared.chaos.slow_every == 0 {
                std::thread::sleep(Duration::from_millis(shared.chaos.slow_ms));
                let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
                stats.chaos_slowed += 1;
                drop(stats);
                multiclust_telemetry::counter_add("serve.chaos.slowed", 1);
                flight::record_event("serve.chaos.slowed");
            }
        }
        // The span covers parse-to-response execution; it lands in the
        // trace sink and the duration sketches exactly like a CLI phase.
        let result = {
            let _span = multiclust_telemetry::span(&format!("serve.{op}"));
            parsed.and_then(|req| execute(shared, req))
        };
        let micros = started.elapsed().as_micros() as u64;
        record(shared, op, micros, result.is_err());
        // The telemetry span above only exists when telemetry is on; the
        // flight ring is on regardless, so mirror the request into it
        // directly when the span could not.
        if !multiclust_telemetry::enabled() {
            flight::record_span(&format!("serve.{op}"), micros.saturating_mul(1000));
        }
        if let Err(ProtocolError { code, .. }) = &result {
            flight::record_error(&format!("serve.{op}.{code}"), req_id.as_deref());
            // An `internal` failure (a caught family panic) is exactly
            // the moment the flight recorder exists for: dump it now,
            // while the evidence is still in the ring.
            if *code == "internal" {
                auto_dump(op, req_id.as_deref());
            }
        }
        flight::clear_request();
        if write_response(&mut writer, &Response { id, result }).is_err() {
            return;
        }
        if shutdown {
            shared.stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// The request `id` as a correlation string: JSON strings unquoted, any
/// other non-null id in its JSON rendering.
fn id_text(id: &Value) -> Option<String> {
    match id {
        Value::Null => None,
        Value::String(s) => Some(s.clone()),
        other => serde_json::to_string(other).ok(),
    }
}

/// Dumps the flight ring after an `internal` error. The stderr line is
/// the machine-readable trail (`scripts/check.sh` and the load-test
/// driver grep it): path, record count, failing op and request id.
fn auto_dump(op: &str, request: Option<&str>) {
    use multiclust_telemetry::flight;
    let path = flight::default_dump_path("serve");
    if let Ok(Some(records)) = flight::dump_to_file(&path) {
        eprintln!(
            "serve: flight dump: {} ({records} records; op {op}; request {})",
            path.display(),
            request.unwrap_or("-"),
        );
    }
}

fn record(shared: &Shared, op: &str, micros: u64, failed: bool) {
    let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
    *stats.requests.entry(op.to_string()).or_insert(0) += 1;
    stats.latency_us.entry(op.to_string()).or_default().record(micros);
    if failed {
        stats.errors += 1;
    }
}

fn write_response(writer: &mut dyn Write, response: &Response) -> std::io::Result<()> {
    writer.write_all(response.encode().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

// ---------------------------------------------------------------------
// Op execution
// ---------------------------------------------------------------------

fn execute(shared: &Shared, req: Request) -> Result<Reply, ProtocolError> {
    Ok(match req {
        Request::Fit { model, family, source, k, seed, given, views } => {
            Reply::Fit(op_fit(shared, model, family, &source, k, seed, given, views)?)
        }
        Request::Assign { model, source } => Reply::Assign(op_assign(shared, model, &source)?),
        Request::Compare { a, b, sa, sb } => Reply::Compare(op_compare(shared, a, b, sa, sb)?),
        Request::List => Reply::List(op_list(shared)),
        Request::Evict { model } => Reply::Evict(op_evict(shared, model)?),
        Request::Stats => Reply::Stats(op_stats(shared)),
        Request::Dump => Reply::Dump(op_dump()?),
        Request::Shutdown => Reply::Shutdown,
    })
}

fn load_source(source: &DataSource) -> Result<Dataset, ProtocolError> {
    match source {
        DataSource::Inline(rows) => Ok(Dataset::from_rows(rows)),
        DataSource::Path { path, header } => read_csv(Path::new(path), *header)
            .map_err(|e| ProtocolError {
                code: "io",
                message: format!("reading {path}: {e}"),
            }),
    }
}

#[allow(clippy::too_many_arguments)]
fn op_fit(
    shared: &Shared,
    model: Option<String>,
    family: String,
    source: &DataSource,
    k: usize,
    seed: u64,
    given: Option<Vec<Option<usize>>>,
    views: Option<Vec<Vec<usize>>>,
) -> Result<FitReply, ProtocolError> {
    let data = load_source(source)?;
    let (n, d) = (data.len(), data.dims());
    if n == 0 || d == 0 {
        return Err(ProtocolError::bad_request("dataset is empty"));
    }
    if k == 0 || k > n {
        return Err(ProtocolError::bad_request(format!(
            "k = {k} out of range for {n} objects"
        )));
    }
    let given = match given {
        Some(labels) if labels.len() != n => {
            return Err(ProtocolError::bad_request(format!(
                "\"given\" has {} labels, dataset has {n} objects",
                labels.len()
            )));
        }
        Some(labels) => Clustering::from_options(labels),
        // Default reference: one all-encompassing cluster, the neutral
        // "no prior structure" input for the alternative paradigms.
        None => Clustering::from_labels(&vec![0usize; n]),
    };
    let view_groups = match views {
        Some(groups) => {
            for (g, group) in groups.iter().enumerate() {
                if let Some(&bad) = group.iter().find(|&&dim| dim >= d) {
                    return Err(ProtocolError::bad_request(format!(
                        "\"views\" group {g} names dimension {bad}, dataset has {d}"
                    )));
                }
            }
            groups
        }
        None => vec![(0..d).collect()],
    };
    let spec = FitSpec { family, data, given, view_groups, k, seed };
    // A panicking family (adversarial input the adapter did not gate)
    // must cost one error response, not the process: same contract as
    // every other malformed request.
    let fitted = match catch_unwind(AssertUnwindSafe(|| (shared.dispatch)(&spec))) {
        Ok(result) => result.map_err(ProtocolError::bad_request)?,
        Err(_) => {
            return Err(ProtocolError {
                code: "internal",
                message: format!("fit of family {:?} panicked", spec.family),
            });
        }
    };
    let solutions = fitted.iter().map(|c| Labels(c.assignments().to_vec())).collect();
    let mut registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    let name = model.unwrap_or_else(|| registry.auto_name());
    let fitted_model =
        FittedModel::new(name.clone(), spec.family.clone(), k, seed, &spec.data, fitted);
    let evicted = registry.insert(fitted_model);
    Ok(FitReply { model: name, family: spec.family, n, d, k, seed, solutions, evicted })
}

fn unknown_model(name: &str) -> ProtocolError {
    ProtocolError {
        code: "unknown-model",
        message: format!("no model {name:?} registered (fit one first, or list what is live)"),
    }
}

fn op_assign(
    shared: &Shared,
    model: String,
    source: &DataSource,
) -> Result<AssignReply, ProtocolError> {
    let data = load_source(source)?;
    let mut registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    let m = registry.touch(&model).ok_or_else(|| unknown_model(&model))?;
    if data.dims() != m.d {
        return Err(ProtocolError::bad_request(format!(
            "dataset has {} dims, model {model:?} was fitted on {}",
            data.dims(),
            m.d
        )));
    }
    let solutions = m.assign(&data).into_iter().map(Labels).collect();
    Ok(AssignReply { model, n: data.len(), solutions })
}

fn op_compare(
    shared: &Shared,
    a: String,
    b: String,
    sa: usize,
    sb: usize,
) -> Result<CompareReply, ProtocolError> {
    let mut registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    let mut solution = |name: &str, index: usize| {
        let m = registry.touch(name).ok_or_else(|| unknown_model(name))?;
        let c = m.solutions.get(index).ok_or_else(|| {
            ProtocolError::bad_request(format!(
                "model {name:?} has {} solutions, no index {index}",
                m.solutions.len()
            ))
        })?;
        Ok::<_, ProtocolError>((c.clone(), m.n))
    };
    let (ca, na) = solution(&a, sa)?;
    let (cb, nb) = solution(&b, sb)?;
    if na != nb {
        return Err(ProtocolError::bad_request(format!(
            "models cover different object counts: {a:?} has {na}, {b:?} has {nb}"
        )));
    }
    let measures = DISS_MEASURES.iter().map(|(name, diss)| (name.to_string(), diss(&ca, &cb)));
    Ok(CompareReply { a, b, sa, sb, measures: Measures(measures.collect()) })
}

fn op_list(shared: &Shared) -> ListReply {
    let registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    let models = registry.list().iter().map(|m| ModelInfo {
        model: m.name.clone(),
        family: m.family.clone(),
        n: m.n,
        d: m.d,
        k: m.k,
        seed: m.seed,
        solutions: m.solutions.len(),
    }).collect();
    ListReply { capacity: registry.capacity(), models }
}

fn op_evict(shared: &Shared, model: String) -> Result<EvictReply, ProtocolError> {
    let mut registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    if !registry.remove(&model) {
        return Err(unknown_model(&model));
    }
    Ok(EvictReply { model })
}

/// `dump`: serialize the flight ring to a server-side file and return
/// its path and record count, so a remote client can trigger forensics
/// without shell access to the server host.
fn op_dump() -> Result<DumpReply, ProtocolError> {
    use multiclust_telemetry::flight;
    let path = flight::default_dump_path("serve");
    match flight::dump_to_file(&path) {
        Ok(Some(records)) => Ok(DumpReply { path: path.display().to_string(), records }),
        Ok(None) => Err(ProtocolError::bad_request(
            "flight recorder is disabled (MULTICLUST_FLIGHT=0)",
        )),
        Err(e) => Err(ProtocolError {
            code: "io",
            message: format!("writing flight dump {}: {e}", path.display()),
        }),
    }
}

fn op_stats(shared: &Shared) -> StatsReply {
    use multiclust_telemetry::alloc;
    let stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
    let registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
    let latency = stats.latency_us.iter().map(|(op, s)| {
        let summary =
            LatencySummary { count: s.count, p50: s.p50(), p90: s.p90(), p99: s.p99(), max: s.max };
        (op.clone(), summary)
    });
    StatsReply {
        uptime_ms: shared.start.elapsed().as_millis() as u64,
        requests: stats.requests.clone(),
        errors: stats.errors,
        latency_us: latency.collect(),
        models: registry.len(),
        capacity: registry.capacity(),
        evictions: registry.evictions(),
        chaos: ChaosStats {
            config: shared.chaos.display(),
            slowed: stats.chaos_slowed,
            dropped: stats.chaos_dropped,
        },
        // Observability health gauges: a client can detect silent
        // telemetry loss (event-cap truncation, a full trace sink)
        // without shell access to the server's stderr.
        events_dropped: multiclust_telemetry::snapshot().dropped_events,
        trace_write_errors: multiclust_telemetry::trace::trace_write_errors(),
        alloc: alloc::alloc_enabled().then(|| {
            let t = alloc::alloc_totals();
            AllocStat { count: t.count, bytes: t.bytes, peak: t.peak }
        }),
    }
}
