//! The server side shared by the served workloads: booting the real
//! `multiclust serve` binary as a child process on a Unix socket inside
//! the run's scratch directory, persistent protocol connections, request
//! lines, response checks, the server's `stats` and `--trace` output, and
//! a probe session that runs every op.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use multiclust::core::Clustering;
use multiclust::data::Dataset;
use multiclust::serve::protocol::{parse_request, DataSource};
use multiclust::serve::{FitSpec, Request};
use serde::Value;

use crate::data::{Planted, D};
use crate::gates::{from_wire, Gates};
use crate::stats::{median, Span, SpanLog};
use crate::{layers, Ctx};

// ---------------------------------------------------------------------
// Server child and connections
// ---------------------------------------------------------------------

static BOOTS: AtomicUsize = AtomicUsize::new(0);

/// A `multiclust serve` child process. Dropping it kills and reaps the
/// child if [`ServerProc::shutdown`] did not already stop it.
pub struct ServerProc {
    child: Option<Child>,
    sock: PathBuf,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    /// Boots the server and waits for its ready line.
    pub fn boot(ctx: &Ctx, capacity: usize, trace: Option<&Path>) -> Result<Self, String> {
        let bin = ctx
            .server
            .as_ref()
            .ok_or("--server <multiclust binary> is required")?;
        let boot = BOOTS.fetch_add(1, Ordering::Relaxed);
        let sock = ctx.out.join(format!(
            "{}-{}-{boot}.sock",
            ctx.workload,
            std::process::id()
        ));
        let _ = std::fs::remove_file(&sock);
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .arg("--capacity")
            .arg(capacity.to_string());
        if let Some(t) = trace {
            cmd.arg("--trace").arg(t);
        }
        cmd.env("MULTICLUST_FLIGHT_DIR", &ctx.out)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let out = child.stdout.take().ok_or("server stdout is not piped")?;
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            let mut reader = BufReader::new(out);
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            let _ = tx.send(line);
            let mut rest = String::new();
            while reader.read_line(&mut rest).is_ok_and(|n| n > 0) {
                rest.clear();
            }
        });
        let mut server = Self {
            child: Some(child),
            sock,
            stdout: Some(stdout),
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(line) if line.contains("\"type\":\"ready\"") => Ok(server),
            Ok(line) => {
                server.kill();
                Err(format!("server did not report ready: {line:?}"))
            }
            Err(_) => {
                server.kill();
                Err("server did not report ready within 60 s".into())
            }
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.sock)
            .map_err(|e| format!("connecting to {}: {e}", self.sock.display()))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Peak resident set of the server process (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.child.as_ref().map_or(0.0, |c| {
            layers::peak_rss_mb(&format!("/proc/{}/status", c.id()))
        })
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let result = self
            .connect()
            .and_then(|mut c| c.call("{\"op\":\"shutdown\"}").map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(60);
        if let Some(child) = self.child.as_mut() {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => {
                        self.child = None;
                        return Err(format!("server exited with {status}"));
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        self.kill();
                        return Err("server did not exit after shutdown".into());
                    }
                }
            }
        }
        self.child = None;
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        result
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One persistent, lock-step protocol connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    /// Sends one request line and returns the response line.
    pub fn call(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(self.line.trim_end())
    }
}

// ---------------------------------------------------------------------
// Request lines and response checks
// ---------------------------------------------------------------------

pub fn push_row(out: &mut String, row: &[f64]) {
    out.push('[');
    for (i, x) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_string());
    }
    out.push(']');
}

/// A `data` array of rows, floats in shortest round-trip form.
pub fn rows_json(rows: &[Vec<f64>]) -> String {
    let mut out = String::with_capacity(rows.len() * D * 20);
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_row(&mut out, row);
    }
    out.push(']');
    out
}

pub fn ints_json<T: ToString>(v: impl IntoIterator<Item = T>) -> String {
    let parts: Vec<String> = v.into_iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(","))
}

/// Solutions rendered as the protocol renders labels (`-1` for noise).
pub fn solutions_json(solutions: &[Vec<Option<usize>>]) -> String {
    let parts: Vec<String> = solutions
        .iter()
        .map(|s| ints_json(s.iter().map(|l| l.map_or(-1, |x| x as i64))))
        .collect();
    format!("[{}]", parts.join(","))
}

/// One fit request of a workload, serialized once with everything but
/// the trailing `model`/`id` fields.
pub struct FitReq {
    pub family: &'static str,
    pub planted: Planted,
    /// The line up to (and including) the comma before `"model"`.
    pub body: String,
}

impl FitReq {
    pub fn new(family: &'static str, k: usize, seed: u64, planted: Planted, given_a: bool) -> Self {
        let mut body =
            format!("{{\"op\":\"fit\",\"family\":\"{family}\",\"k\":{k},\"seed\":{seed},");
        if given_a {
            body.push_str(&format!("\"given\":{},", ints_json(planted.truth_a.iter())));
        }
        body.push_str("\"data\":");
        body.push_str(&rows_json(&planted.rows));
        body.push(',');
        Self {
            family,
            planted,
            body,
        }
    }

    pub fn line(&self, model: &str, id: &str) -> String {
        format!("{}\"model\":\"{model}\",\"id\":\"{id}\"}}", self.body)
    }

    /// The labeling served fits of this request are scored against.
    pub fn target(&self) -> &[usize] {
        &self.planted.truth_b
    }
}

/// What the server is expected to compute for a fit line: the request
/// decoded by the protocol's own parser, then resolved exactly as the
/// server resolves it and run through the harness dispatch in process.
pub fn reference_fit(line: &str) -> Result<(Dataset, Vec<Clustering>), String> {
    let (_, parsed) = parse_request(line);
    let Ok(Request::Fit {
        family,
        source: DataSource::Inline(rows),
        k,
        seed,
        given,
        views,
        ..
    }) = parsed
    else {
        return Err("reference: not an inline fit request".into());
    };
    let data = Dataset::from_rows(&rows);
    let n = data.len();
    let given = match given {
        Some(labels) => Clustering::from_options(labels),
        None => Clustering::from_labels(&vec![0usize; n]),
    };
    let view_groups = views.unwrap_or_else(|| vec![(0..data.dims()).collect()]);
    let spec = FitSpec {
        family,
        data,
        given,
        view_groups,
        k,
        seed,
    };
    let solutions = multiclust::harness::fit_dispatch()(&spec)?;
    Ok((spec.data, solutions))
}

pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// The `solutions` array of a response, as labels.
pub fn wire_solutions(v: &Value) -> Option<Vec<Vec<Option<usize>>>> {
    let Value::Array(sols) = field(v, "solutions")? else {
        return None;
    };
    sols.iter()
        .map(|s| match s {
            Value::Array(ls) => {
                let ints: Option<Vec<i64>> = ls
                    .iter()
                    .map(|l| {
                        if let Value::Int(i) = l {
                            Some(*i)
                        } else {
                            None
                        }
                    })
                    .collect();
                ints.map(|i| from_wire(&i))
            }
            _ => None,
        })
        .collect()
}

/// The raw text of the response's `"solutions":[...]` value.
pub fn solutions_text(resp: &str) -> Option<&str> {
    let start = resp.find("\"solutions\":")? + "\"solutions\":".len();
    let bytes = resp.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&resp[start..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

pub fn is_ok(resp: &str) -> bool {
    resp.contains("\"ok\":true")
}

/// The response with its echoed id blanked, for byte comparison of
/// responses to identical requests.
pub fn without_id(resp: &str) -> String {
    if let Some(p) = resp.find("\"id\":\"") {
        let from = p + "\"id\":\"".len();
        if let Some(len) = resp[from..].find('"') {
            return format!("{}{}", &resp[..from], &resp[from + len..]);
        }
    }
    resp.to_string()
}

/// Flips the first label digit of a response: the `--doctor response`
/// fault.
pub fn doctor_response(resp: &str) -> String {
    let Some(start) = resp
        .find("\"solutions\":[[")
        .map(|p| p + "\"solutions\":[[".len())
        .or_else(|| {
            resp.find("\"rand_index\":")
                .map(|p| p + "\"rand_index\":".len())
        })
    else {
        return resp.to_string();
    };
    let mut bytes = resp.as_bytes().to_vec();
    if let Some(b) = bytes.get_mut(start).filter(|b| b.is_ascii_digit()) {
        *b = if *b == b'1' { b'2' } else { b'1' };
    }
    String::from_utf8(bytes).unwrap_or_default()
}

/// Server-side per-op p50 (ms) with its sample count, and the eviction
/// count, from the `stats` op.
pub struct ServerStats {
    pub p50_ms: BTreeMap<String, (f64, u64)>,
    pub evictions: u64,
}

pub fn server_stats(conn: &mut Conn) -> Result<ServerStats, String> {
    let resp = conn.call("{\"op\":\"stats\",\"id\":\"stats\"}")?;
    let v = serde_json::parse_value(resp).map_err(|e| format!("stats response: {e}"))?;
    let mut p50_ms = BTreeMap::new();
    if let Some(Value::Object(ops)) = field(&v, "latency_us") {
        for (op, s) in ops {
            let p50 = field(s, "p50").and_then(num).unwrap_or(0.0);
            let count = field(s, "count").and_then(num).unwrap_or(0.0);
            p50_ms.insert(op.clone(), (p50 / 1e3, count as u64));
        }
    }
    let evictions = field(&v, "evictions").and_then(num).unwrap_or(0.0) as u64;
    Ok(ServerStats { p50_ms, evictions })
}

/// Server trace contents: root `serve.<op>` span durations by request id,
/// and the counters flushed at shutdown.
pub struct ServerTrace {
    pub spans: HashMap<String, (String, u64)>,
    pub counters: BTreeMap<String, u64>,
}

pub fn read_server_trace(path: &Path) -> Result<ServerTrace, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut out = ServerTrace {
        spans: HashMap::new(),
        counters: BTreeMap::new(),
    };
    for line in text.lines() {
        if line.contains("\"type\":\"span\"") && line.contains("\"request_id\"") {
            let v = serde_json::parse_value(line).map_err(|e| format!("trace line: {e}"))?;
            let (Some(Value::String(p)), Some(ns), Some(Value::String(id))) = (
                field(&v, "path"),
                field(&v, "ns").and_then(num),
                field(&v, "request_id"),
            ) else {
                continue;
            };
            if !p.contains('/') {
                out.spans.insert(id.clone(), (p.clone(), ns as u64));
            }
        } else if line.contains("\"type\":\"counter\"") {
            let v = serde_json::parse_value(line).map_err(|e| format!("trace line: {e}"))?;
            if let (Some(Value::String(name)), Some(value)) =
                (field(&v, "name"), field(&v, "value").and_then(num))
            {
                out.counters.insert(name.clone(), value as u64);
            }
        }
    }
    Ok(out)
}

/// Hangs each server span under the client span of the same request id;
/// returns `1 − server time ÷ client time` over the joined requests.
pub fn join_server_spans(log: &mut SpanLog, client: &[usize], trace: &ServerTrace) -> f64 {
    let (mut server_ns, mut client_ns) = (0u64, 0u64);
    for &i in client {
        let s = &log.spans[i];
        if let Some((path, ns)) = trace.spans.get(&s.id) {
            let span = Span {
                name: format!("server.{path}"),
                id: s.id.clone(),
                parent: Some(i),
                start_ns: s.start_ns,
                dur_ns: *ns,
            };
            client_ns += s.dur_ns;
            server_ns += ns;
            log.push(span);
        }
    }
    if client_ns == 0 {
        return 0.0;
    }
    1.0 - server_ns as f64 / client_ns as f64
}

/// Rows per `assign` request.
pub const ASSIGN_ROWS: usize = 16;

/// A short session against a fresh server that runs every op at least
/// ten times, for the server-side p50 of ops a workload does not run.
pub fn probe_session(ctx: &Ctx, gates: &mut Gates) -> Result<(ServerStats, f64), String> {
    let server = ServerProc::boot(ctx, 4, None)?;
    let mut conn = server.connect()?;
    let n = if ctx.smoke { 200 } else { 2000 };
    let req = FitReq::new(
        "kmeans",
        3,
        1,
        Planted::generate(n, ctx.seed, "probe"),
        false,
    );
    let block = rows_json(&Planted::generate(ASSIGN_ROWS, ctx.seed, "probe-assign").rows);
    let mut client_assign = Vec::new();
    for i in 0..12 {
        let resp = conn.call(&req.line(&format!("p{i}"), &format!("p{i}")))?;
        gates.op(is_ok(resp), || format!("probe fit {i} failed"));
    }
    for i in 0..40 {
        let lines = [
            format!("{{\"op\":\"assign\",\"model\":\"p11\",\"data\":{block},\"id\":\"a{i}\"}}"),
            format!("{{\"op\":\"compare\",\"a\":\"p10\",\"b\":\"p11\",\"id\":\"c{i}\"}}"),
            format!("{{\"op\":\"list\",\"id\":\"l{i}\"}}"),
        ];
        for (j, line) in lines.iter().enumerate() {
            let t = Instant::now();
            let resp = conn.call(line)?;
            if j == 0 {
                client_assign.push(t.elapsed().as_secs_f64() * 1e3);
            }
            gates.op(is_ok(resp), || format!("probe request {line:.60} failed"));
        }
    }
    for i in 0..12 {
        let resp = conn
            .call(&req.line(&format!("e{i}"), &format!("e{i}")))?
            .to_string();
        gates.op(is_ok(&resp), || format!("probe refit {i} failed"));
        let resp = conn.call(&format!(
            "{{\"op\":\"evict\",\"model\":\"e{i}\",\"id\":\"e{i}\"}}"
        ))?;
        gates.op(is_ok(resp), || format!("probe evict {i} failed"));
    }
    let stats = server_stats(&mut conn)?;
    server.shutdown()?;
    let server_assign = stats.p50_ms.get("assign").map_or(0.0, |s| s.0);
    let outside = 1.0 - server_assign / median(&client_assign);
    Ok((stats, outside))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solutions_text_and_id_blanking() {
        let resp =
            r#"{"schema":"s","id":"t0-5","ok":true,"solutions":[[0,1],[1,-1]],"evicted":[]}"#;
        assert_eq!(solutions_text(resp), Some("[[0,1],[1,-1]]"));
        assert_eq!(
            solutions_json(&[vec![Some(0), Some(1)], vec![Some(1), None]]),
            "[[0,1],[1,-1]]"
        );
        assert_eq!(without_id(resp), without_id(&resp.replace("t0-5", "t1-99")));
    }

    #[test]
    fn a_doctored_response_changes_its_labels() {
        let resp = r#"{"ok":true,"solutions":[[0,1]]}"#;
        assert_ne!(solutions_text(&doctor_response(resp)), solutions_text(resp));
        let cmp = r#"{"ok":true,"measures":{"rand_index":0.5}}"#;
        assert_ne!(doctor_response(cmp), cmp);
    }

    #[test]
    fn reference_fit_reads_the_line_the_server_reads() {
        let req = FitReq::new("kmeans", 3, 4, Planted::generate(120, 2, "ref"), false);
        let (data, solutions) = reference_fit(&req.line("m", "i")).unwrap();
        assert_eq!(data.len(), 120);
        for (i, row) in req.planted.rows.iter().enumerate() {
            assert_eq!(
                data.row(i),
                row.as_slice(),
                "row {i} must round-trip exactly"
            );
        }
        assert_eq!(solutions.len(), 1);
    }
}
