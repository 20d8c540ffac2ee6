//! End-to-end rig for `multiclust serve`: boots the server (in-process
//! and as the real binary), drives concurrent clients with a mixed
//! fit/assign/compare workload, and pins down the protocol contract —
//! conformance, LRU registry behaviour, served-vs-in-process bit
//! identity, malformed-request robustness, concurrency determinism and
//! clean shutdown.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};

use multiclust::harness::{all_families, catalog, fit_dispatch, FitInput};
use multiclust::serve::{client, Listen, Server, ServerConfig};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_multiclust"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("multiclust-serve-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Boots an in-process server over the harness dispatch on an ephemeral
/// TCP port; the join handle returns the run summary on clean shutdown.
fn boot(
    capacity: usize,
) -> (Listen, std::thread::JoinHandle<multiclust::serve::ServerSummary>) {
    let listen = Listen::parse("127.0.0.1:0").unwrap();
    let config = ServerConfig {
        capacity,
        dispatch: fit_dispatch(),
        chaos: multiclust::serve::ChaosConfig::default(),
    };
    let server = Server::bind(&listen, config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (Listen::parse(&addr).unwrap(), handle)
}

/// Spawns the real binary's `serve` command and parses the ready line
/// for the bound address.
fn spawn_serve(extra_args: &[&str], envs: &[(&str, &str)]) -> (Child, Listen) {
    let mut cmd = bin();
    cmd.args(["serve", "--listen", "127.0.0.1:0"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("serve spawns");
    let mut ready = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut ready)
        .expect("ready line");
    assert!(
        ready.starts_with(r#"{"type":"ready","schema":"multiclust-serve/v1""#),
        "ready line announces the schema: {ready}"
    );
    let addr = ready
        .split(r#""addr":""#)
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("ready line carries the address: {ready}"))
        .to_string();
    (child, Listen::parse(&addr).unwrap())
}

/// Sends `shutdown` and asserts the child exits cleanly with the
/// shutdown summary on stderr and no panic output.
fn shutdown_clean(mut child: Child, listen: &Listen) {
    let resp = client::roundtrip(listen, r#"{"id":"bye","op":"shutdown"}"#)
        .expect("shutdown roundtrip");
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "clean shutdown must exit 0: {status:?}");
    let mut stderr = String::new();
    use std::io::Read as _;
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).unwrap();
    assert!(stderr.contains("shut down cleanly"), "summary on stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "no panic output: {stderr}");
}

/// A tiny two-blob inline dataset, written straight into request JSON.
const BLOBS: &str = "[[0,0],[0.2,0.1],[0.1,0.3],[0.3,0.2],[9,9],[9.2,9.1],[9.1,9.3],[9.3,9.2]]";

/// The mixed workload one client plays: two fits (single- and
/// multi-solution families), an assign against the first model, and a
/// cross-model compare — all ids and model names namespaced per client,
/// so responses are independent of cross-client interleaving.
fn client_script(i: usize) -> Vec<String> {
    vec![
        format!(
            r#"{{"id":"c{i}-fit-a","op":"fit","model":"c{i}-a","family":"kmeans","k":2,"seed":{seed},"data":{BLOBS}}}"#,
            seed = 100 + i
        ),
        format!(
            r#"{{"id":"c{i}-fit-b","op":"fit","model":"c{i}-b","family":"dec-kmeans","k":2,"seed":{seed},"data":{BLOBS}}}"#,
            seed = 200 + i
        ),
        format!(
            r#"{{"id":"c{i}-assign","op":"assign","model":"c{i}-a","data":[[0.1,0.1],[9.1,9.1]]}}"#
        ),
        format!(r#"{{"id":"c{i}-cmp","op":"compare","a":"c{i}-a","b":"c{i}-b","sa":0,"sb":1}}"#),
    ]
}

/// Plays `clients` concurrent sessions (released together through a
/// barrier) and returns each client's responses in request order.
fn play_concurrent(listen: &Listen, clients: usize) -> Vec<Vec<String>> {
    let barrier = Arc::new(Barrier::new(clients));
    let mut handles = Vec::new();
    for i in 0..clients {
        let listen = listen.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let script = client_script(i);
            barrier.wait();
            client::session(&listen, &script).expect("client session")
        }));
    }
    handles.into_iter().map(|h| h.join().expect("client thread")).collect()
}

/// The headline rig: the real binary, three simultaneous clients with a
/// mixed workload, protocol conformance on every response, and a clean
/// shutdown that flushes the final metrics snapshot.
#[test]
fn concurrent_clients_mixed_workload_clean_shutdown() {
    let dir = workdir("rig");
    let metrics = dir.join("serve.metrics.jsonl");
    let trace = dir.join("serve.trace.jsonl");
    let (child, listen) = spawn_serve(
        &[
            "--metrics",
            metrics.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ],
        &[],
    );

    let all = play_concurrent(&listen, 3);
    for (i, responses) in all.iter().enumerate() {
        let script = client_script(i);
        assert_eq!(responses.len(), script.len());
        for (req, resp) in script.iter().zip(responses) {
            // Conformance: schema header, id echo, success.
            assert!(
                resp.starts_with(r#"{"schema":"multiclust-serve/v1""#),
                "schema leads every response: {resp}"
            );
            let id = req.split(r#""id":""#).nth(1).unwrap().split('"').next().unwrap();
            assert!(resp.contains(&format!(r#""id":"{id}""#)), "id echo: {resp}");
            assert!(resp.contains(r#""ok":true"#), "workload succeeds: {resp}");
        }
        // The compare response carries all five agreement measures.
        let cmp = &responses[3];
        for measure in ["rand_index", "adjusted_rand_index", "variation_of_information"] {
            assert!(cmp.contains(measure), "{cmp}");
        }
    }

    // The server saw all 3 clients' models.
    let stats = client::roundtrip(&listen, r#"{"id":"st","op":"stats"}"#).unwrap();
    assert!(stats.contains(r#""fit":6"#), "6 fits recorded: {stats}");
    assert!(stats.contains(r#""models":6"#), "6 models live: {stats}");
    assert!(stats.contains(r#""uptime_ms""#), "{stats}");
    assert!(stats.contains(r#""events_dropped""#), "{stats}");

    shutdown_clean(child, &listen);

    // Clean shutdown flushed the telemetry: the trace carries a span per
    // request and the metrics stream its final snapshot plus end line.
    let trace_raw = fs::read_to_string(&trace).expect("trace written");
    assert!(trace_raw.contains(r#""path":"serve.fit""#), "{trace_raw}");
    assert!(trace_raw.contains(r#""path":"serve.assign""#), "{trace_raw}");
    assert!(trace_raw.contains(r#""path":"serve.compare""#), "{trace_raw}");
    assert!(trace_raw.contains(r#""type":"end""#), "flushed end line: {trace_raw}");
    let metrics_raw = fs::read_to_string(&metrics).expect("metrics written");
    let snapshots = metrics_raw
        .lines()
        .filter(|l| l.starts_with(r#"{"type":"snapshot""#))
        .count();
    assert!(snapshots >= 2, "≥ 2 snapshots, got {snapshots}: {metrics_raw}");
    assert!(metrics_raw.contains(r#""type":"end""#), "final snapshot flushed: {metrics_raw}");
}

/// A served `fit` must be bit-identical to the in-process fit for every
/// one of the eight algorithm families at the same seed.
#[test]
fn served_fit_is_bit_identical_for_all_families() {
    let scenario = &catalog(42)[0]; // planted-two-views: every family supports it
    let (listen, handle) = boot(16);
    for family in all_families() {
        let baseline = family.fit(&FitInput {
            data: &scenario.dataset,
            given: &scenario.given,
            view_groups: &scenario.view_groups,
            k: scenario.k,
            seed: 42,
        });
        let rows: Vec<String> = scenario
            .dataset
            .rows()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|x| format!("{x:?}")).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let given: Vec<String> = scenario
            .given
            .assignments()
            .iter()
            .map(|a| a.map_or(-1i64, |l| l as i64).to_string())
            .collect();
        let views: Vec<String> = scenario
            .view_groups
            .iter()
            .map(|g| {
                let dims: Vec<String> = g.iter().map(ToString::to_string).collect();
                format!("[{}]", dims.join(","))
            })
            .collect();
        let request = format!(
            r#"{{"id":"{f}","op":"fit","model":"{f}","family":"{f}","k":{k},"seed":42,"data":[{data}],"given":[{given}],"views":[{views}]}}"#,
            f = family.name(),
            k = scenario.k,
            data = rows.join(","),
            given = given.join(","),
            views = views.join(","),
        );
        let resp = client::roundtrip(&listen, &request).expect("fit roundtrip");
        assert!(resp.contains(r#""ok":true"#), "{}: {resp}", family.name());
        // Rebuild the exact solutions JSON from the in-process fit and
        // demand it appears verbatim in the response: bit identity.
        let expected: Vec<String> = baseline
            .iter()
            .map(|c| {
                let labels: Vec<String> = c
                    .assignments()
                    .iter()
                    .map(|a| a.map_or(-1i64, |l| l as i64).to_string())
                    .collect();
                format!("[{}]", labels.join(","))
            })
            .collect();
        let expected = format!(r#""solutions":[{}]"#, expected.join(","));
        assert!(
            resp.contains(&expected),
            "{}: served labels diverge\nwanted {expected}\nin {resp}",
            family.name()
        );
    }
    client::roundtrip(&listen, r#"{"id":"bye","op":"shutdown"}"#).unwrap();
    let summary = handle.join().expect("server thread joins");
    assert_eq!(summary.errors, 0, "no error responses in this test");
}

/// The registry is a bounded LRU: the oldest untouched model is evicted
/// at capacity, eviction is reported in the `fit` response, and evicted
/// models answer `unknown-model` afterwards.
#[test]
fn registry_evicts_least_recently_used() {
    let (listen, handle) = boot(2);
    let fit = |name: &str, seed: u64| {
        format!(
            r#"{{"id":"fit-{name}","op":"fit","model":"{name}","family":"kmeans","k":2,"seed":{seed},"data":{BLOBS}}}"#
        )
    };
    let mut conn = client::Connection::open(&listen).unwrap();
    assert!(conn.roundtrip(&fit("a", 1)).unwrap().contains(r#""evicted":[]"#));
    assert!(conn.roundtrip(&fit("b", 2)).unwrap().contains(r#""evicted":[]"#));

    // Touch `a` so `b` becomes the LRU victim for the third fit.
    let touch = conn
        .roundtrip(r#"{"id":"touch","op":"assign","model":"a","data":[[1,1]]}"#)
        .unwrap();
    assert!(touch.contains(r#""ok":true"#), "{touch}");
    let third = conn.roundtrip(&fit("c", 3)).unwrap();
    assert!(third.contains(r#""evicted":["b"]"#), "LRU victim is b: {third}");

    let list = conn.roundtrip(r#"{"id":"ls","op":"list"}"#).unwrap();
    assert!(list.contains(r#""model":"a""#) && list.contains(r#""model":"c""#), "{list}");
    assert!(!list.contains(r#""model":"b""#), "{list}");

    let gone = conn
        .roundtrip(r#"{"id":"gone","op":"assign","model":"b","data":[[1,1]]}"#)
        .unwrap();
    assert!(gone.contains(r#""code":"unknown-model""#), "{gone}");

    // Explicit evict frees a slot and reports double-eviction cleanly.
    let evict = conn.roundtrip(r#"{"id":"ev","op":"evict","model":"a"}"#).unwrap();
    assert!(evict.contains(r#""ok":true"#), "{evict}");
    let again = conn.roundtrip(r#"{"id":"ev2","op":"evict","model":"a"}"#).unwrap();
    assert!(again.contains(r#""code":"unknown-model""#), "{again}");

    let stats = conn.roundtrip(r#"{"id":"st","op":"stats"}"#).unwrap();
    assert!(stats.contains(r#""evictions":1"#), "{stats}");
    assert!(stats.contains(r#""capacity":2"#), "{stats}");

    conn.roundtrip(r#"{"id":"bye","op":"shutdown"}"#).unwrap();
    handle.join().expect("server thread joins");
}

/// Malformed requests each earn a structured error response — never a
/// process exit, a usage dump or a dropped connection — and the server
/// keeps serving afterwards, on the same connection and on new ones.
#[test]
fn malformed_requests_get_structured_errors_and_server_survives() {
    let (child, listen) = spawn_serve(&[], &[("MULTICLUST_SERVE_MAX_LINE", "1024")]);
    let mut conn = client::Connection::open(&listen).unwrap();

    // Oversized line: drained and rejected, connection still usable.
    let huge = format!(r#"{{"id":"big","op":"fit","pad":"{}"}}"#, "x".repeat(2000));
    let resp = conn.roundtrip(&huge).unwrap();
    assert!(resp.contains(r#""ok":false"#), "{resp}");
    assert!(resp.contains(r#""code":"line-too-long""#), "{resp}");
    assert!(resp.contains("1024"), "names the cap: {resp}");

    // Truncated JSON.
    let resp = conn.roundtrip(r#"{"id":"t","op":"fit""#).unwrap();
    assert!(resp.contains(r#""code":"bad-json""#), "{resp}");

    // Unknown op, id still echoed.
    let resp = conn.roundtrip(r#"{"id":"u","op":"frobnicate"}"#).unwrap();
    assert!(resp.contains(r#""code":"unknown-op""#), "{resp}");
    assert!(resp.contains(r#""id":"u""#), "{resp}");
    assert!(resp.contains("frobnicate"), "names the op: {resp}");

    // Bad model id.
    let resp = conn
        .roundtrip(r#"{"id":"m","op":"assign","model":"nope","data":[[1,1]]}"#)
        .unwrap();
    assert!(resp.contains(r#""code":"unknown-model""#), "{resp}");

    // Ragged dataset: caught by validation, not a panic.
    let resp = conn
        .roundtrip(r#"{"id":"r","op":"fit","family":"kmeans","k":2,"data":[[1,2],[3]]}"#)
        .unwrap();
    assert!(resp.contains(r#""code":"bad-request""#), "{resp}");
    assert!(resp.contains("ragged"), "{resp}");

    // Out-of-range k and unknown family are bad requests too.
    let resp = conn
        .roundtrip(r#"{"id":"k","op":"fit","family":"kmeans","k":99,"data":[[1,2],[3,4]]}"#)
        .unwrap();
    assert!(resp.contains(r#""code":"bad-request""#), "{resp}");
    let resp = conn
        .roundtrip(r#"{"id":"f","op":"fit","family":"astrology","k":2,"data":[[1,2],[3,4]]}"#)
        .unwrap();
    assert!(resp.contains(r#""code":"bad-request""#), "{resp}");
    assert!(resp.contains("kmeans"), "error names known families: {resp}");

    // After all of that, a well-formed request still works — same
    // connection and a fresh one.
    let good = format!(
        r#"{{"id":"ok","op":"fit","model":"ok","family":"kmeans","k":2,"seed":5,"data":{BLOBS}}}"#
    );
    assert!(conn.roundtrip(&good).unwrap().contains(r#""ok":true"#));
    let fresh = client::roundtrip(&listen, r#"{"id":"ls","op":"list"}"#).unwrap();
    assert!(fresh.contains(r#""model":"ok""#), "{fresh}");

    shutdown_clean(child, &listen);
}

/// A panicking fit handler earns a structured `internal` error, and the
/// flight recorder's dump — fetched through the `dump` protocol op —
/// names the failing request id, closing the correlation loop the
/// recorder exists for.
#[test]
fn panicking_dispatch_leaves_request_id_in_flight_dump() {
    let listen = Listen::parse("127.0.0.1:0").unwrap();
    let config = ServerConfig {
        capacity: 4,
        dispatch: Arc::new(|spec: &multiclust::serve::FitSpec| {
            panic!("injected dispatch panic: family {:?}", spec.family)
        }),
        chaos: multiclust::serve::ChaosConfig::default(),
    };
    let server = Server::bind(&listen, config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let listen = Listen::parse(&addr).unwrap();

    let fit = format!(
        r#"{{"id":"boom-req-7","op":"fit","model":"m","family":"kmeans","k":2,"seed":1,"data":{BLOBS}}}"#
    );
    let resp = client::roundtrip(&listen, &fit).expect("panic becomes a response");
    assert!(resp.contains(r#""ok":false"#), "{resp}");
    assert!(resp.contains(r#""code":"internal""#), "{resp}");
    assert!(resp.contains(r#""id":"boom-req-7""#), "id echoed even on panic: {resp}");

    // The recorder is on by default (MULTICLUST_FLIGHT unset in tests);
    // `dump` snapshots it and answers with the file path.
    let dump = client::roundtrip(&listen, r#"{"id":"d","op":"dump"}"#).unwrap();
    assert!(dump.contains(r#""ok":true"#), "{dump}");
    let path = dump
        .split(r#""path":""#)
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("dump response carries the path: {dump}"));
    let raw = fs::read_to_string(path).expect("dump file written");
    assert!(
        raw.contains("boom-req-7"),
        "dump correlates the failing request id:\n{raw}"
    );
    assert!(raw.contains("serve.fit.internal"), "error record names the op: {raw}");
    let _ = fs::remove_file(path);

    client::roundtrip(&listen, r#"{"id":"bye","op":"shutdown"}"#).unwrap();
    let summary = handle.join().expect("server thread joins");
    assert_eq!(summary.errors, 1, "exactly the panicked fit errored");
}

/// Determinism: the same 3-client script replayed against a fresh server
/// yields byte-identical response bodies per request id — and so does
/// running the server under `MULTICLUST_THREADS=1` vs `=4`.
#[test]
fn concurrent_replay_is_byte_identical_across_runs_and_thread_counts() {
    let mut runs = Vec::new();
    for threads in ["1", "1", "4"] {
        let (child, listen) = spawn_serve(&[], &[("MULTICLUST_THREADS", threads)]);
        let responses = play_concurrent(&listen, 3);
        shutdown_clean(child, &listen);
        runs.push(responses);
    }
    assert_eq!(
        runs[0], runs[1],
        "replaying the same script against a fresh server must be byte-identical"
    );
    assert_eq!(
        runs[0], runs[2],
        "server thread count must not leak into response bytes"
    );
}

/// `MULTICLUST_LISTEN` is honoured when `--listen` is absent, including
/// the Unix-socket form, and the socket file is removed on shutdown.
#[test]
fn unix_socket_via_env_cleans_up_on_shutdown() {
    let dir = workdir("unix-env");
    let sock = dir.join("serve.sock");
    let addr = format!("unix:{}", sock.display());
    let mut cmd = bin();
    cmd.arg("serve")
        .env("MULTICLUST_LISTEN", &addr)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("serve spawns");
    let mut ready = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut ready).unwrap();
    assert!(ready.contains(&addr), "ready line echoes the env address: {ready}");

    let listen = Listen::parse(&addr).unwrap();
    let resp = client::roundtrip(&listen, r#"{"id":"1","op":"list"}"#).unwrap();
    assert!(resp.contains(r#""ok":true"#), "{resp}");

    client::roundtrip(&listen, r#"{"id":"2","op":"shutdown"}"#).unwrap();
    assert!(child.wait().unwrap().success());
    assert!(!sock.exists(), "socket file removed on clean shutdown");
}

/// A served COALA fit above the link matrix's object limit is refused
/// as a `bad-request` before any quadratic work, and the connection
/// keeps serving.
#[test]
fn oversized_coala_fit_is_a_bad_request() {
    let (listen, handle) = boot(2);
    let mut conn = client::Connection::open(&listen).unwrap();
    let n = multiclust::base::hierarchical::MAX_OBJECTS + 1;
    let rows: Vec<String> = (0..n).map(|i| format!("[{i}]")).collect();
    let fit = format!(
        r#"{{"id":"big","op":"fit","family":"coala","k":2,"data":[{}]}}"#,
        rows.join(",")
    );
    let resp = conn.roundtrip(&fit).unwrap();
    assert!(resp.contains(r#""code":"bad-request""#), "{resp}");
    assert!(resp.contains(&format!("at most {} objects, dataset has {n}", n - 1)), "{resp}");

    let good = format!(
        r#"{{"id":"ok","op":"fit","model":"ok","family":"coala","k":2,"seed":5,"data":{BLOBS}}}"#
    );
    let resp = conn.roundtrip(&good).unwrap();
    assert!(resp.contains(r#""ok":true"#), "{resp}");

    conn.roundtrip(r#"{"id":"bye","op":"shutdown"}"#).unwrap();
    handle.join().expect("server thread joins");
}
