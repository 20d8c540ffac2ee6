//! `multiclust` — command-line front end for the library.
//!
//! Reads numeric CSV tables, runs a selected (multiple-)clustering method
//! and prints the resulting labelling(s) as CSV on stdout (one column per
//! solution, `-1` for noise), so results pipe straight into other tools.
//!
//! ```text
//! multiclust kmeans       --input data.csv --k 3
//! multiclust dbscan       --input data.csv --eps 0.5 --min-pts 5
//! multiclust dec-kmeans   --input data.csv --ks 2,2 --lambda 4
//! multiclust alternative  --input data.csv --given labels.csv --k 2 --method coala
//! multiclust subspace     --input data.csv --xi 6 --tau 0.05 --select osclu
//! multiclust compare      --a labels_a.csv --b labels_b.csv
//! multiclust verify       --golden-dir tests/golden
//! ```
//!
//! Common flags: `--header` (first CSV line is a header), `--seed <u64>`
//! (default 42).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use multiclust::alternative::{Coala, DecKMeans, MinCEntropy};
use multiclust::base::hierarchical::MAX_OBJECTS;
use multiclust::base::{Dbscan, KMeans};
use multiclust::core::measures::diss::DISS_MEASURES;
use multiclust::core::Clustering;
use multiclust::data::io::read_csv;
use multiclust::data::{seeded_rng, Dataset};
use multiclust::harness::{verify, Fault, VerifyOptions};
use multiclust::orthogonal::{MetricFlip, QiDavidson};
use multiclust::subspace::osclu::size_times_dims;
use multiclust::subspace::redundancy::{rescu_select, statpc_select};
use multiclust::subspace::{Clique, Osclu};
use serde::Value;

const USAGE: &str = "\
multiclust — discovering multiple clustering solutions

usage: multiclust <command> [flags]

commands:
  kmeans       --input <csv> --k <n>
  dbscan       --input <csv> --eps <f> --min-pts <n>
  dec-kmeans   --input <csv> --ks <n,n[,n..]> [--lambda <f>]
  alternative  --input <csv> --given <labels.csv> --k <n>
               [--method coala|mincentropy|metricflip|qidavidson] [--w <f>]
  subspace     --input <csv> --xi <n> --tau <f>
               [--select none|osclu|rescu|statpc] [--beta <f>] [--alpha <f>]
  compare      --a <labels.csv> --b <labels.csv>
  verify       [--family <name>] [--inject <fault>] [--seed <n>]
               [--golden-dir <dir>|none] [--bless]
  bench        [--smoke] [--out <file>] [--seed <n>]
               [--compare <BENCH_*.json>] [--inject-naive]
               [--check-floors <BENCH_*.json>]
  trace        <trace.jsonl> | --collapse <trace.jsonl>
  diagnose     <trace.jsonl> [--json]
  flight       <flight.jsonl>
  trend        [--dir <dir>] [--slo <report.json>]
  serve        [--listen tcp:<host:port>|unix:<path>] [--capacity <n>]
               (default 127.0.0.1:0; env MULTICLUST_LISTEN)
  client       [--connect <addr>] [--request <json> | --script <file>]
               (reads request lines from stdin when neither flag is given;
                env MULTICLUST_LISTEN when --connect is omitted)
  loadtest     <scenario.json> [--boot in-process|binary]
               [--inject <fault>] [--canonical] [--out <file>]
               [--golden <file> [--bless]]
               | --judge <report.json> | --doctor-report <report.json>

common flags: --header            first CSV line is a header row
              --seed <n>          RNG seed (default 42)
              --telemetry[=json]  report spans/counters/convergence traces
                                  on stderr (stdout stays pipeable CSV)
              --trace <file>      stream a multiclust-trace/v1 JSONL trace
                                  of the run to <file> (implies telemetry;
                                  stdout stays byte-identical)
              --metrics <file>    stream periodic multiclust-metrics/v1
                                  JSONL snapshots (counters, quantiles,
                                  allocation gauges) to <file> while the
                                  run executes (implies telemetry);
                                  MULTICLUST_METRICS_INTERVAL_MS sets the
                                  sampling interval (default 200)

environment:  MULTICLUST_ALLOC=1  attribute heap allocations (count/bytes/
                                  peak) to the active span; surfaced by
                                  --telemetry, --trace and --metrics;
                                  stdout stays byte-identical

output: CSV on stdout — one column per solution, label per object,
        -1 for noise; `subspace` prints one cluster per line instead;
        `compare` prints agreement measures; `verify` prints the
        invariant × family matrix and exits non-zero on any violation;
        `bench` prints a distance-kernel benchmark report as JSON
        (timings/progress go to stderr, `--out` also writes a file;
        `--compare` gates against a baseline report and exits non-zero
        on regression; `--check-floors` audits a frozen report against
        the per-family speedup floors instead of running the suite);
        `trace` prints a per-phase time attribution (or
        collapsed flamegraph stacks with --collapse); `diagnose` prints
        convergence findings and exits non-zero on a violated objective
        contract; `flight` summarizes a multiclust-flight/v1 recorder
        dump (record counts, hottest names, last errors with their
        request ids); `trend` tabulates all BENCH_*.json trajectories
        plus per-op latency quantiles from LOADTEST_*.json reports
        (--slo gates a candidate report's p99 against those baselines
        and exits non-zero on a regression);
        `serve` prints one `{\"type\":\"ready\",...}` line with the bound
        address, then answers multiclust-serve/v1 request lines (fit/
        assign/compare/list/evict/stats/dump — `dump` writes the flight
        recorder to a server-side file) until a shutdown request;
        `client` prints one response line per request; `loadtest` runs a
        multiclust-loadtest/v1 scenario against the resident service and
        prints a multiclust-loadtest-report/v1 verdict on stdout (the
        human summary goes to stderr; exit code mirrors the verdict;
        --canonical nulls the wall-clock sections so the bytes replay
        identically across MULTICLUST_THREADS; --judge re-rules a stored
        report and --doctor-report proves a corrupted one fails).
";

fn main() -> ExitCode {
    // Allocation accounting must be live before the command allocates
    // anything worth attributing (no-op unless MULTICLUST_ALLOC=1).
    multiclust::telemetry::alloc::init_from_env();
    let result = run(std::env::args().skip(1).collect());
    // Finalize the trace sink (counters, end line) whether the command
    // succeeded or not; no-op when no sink is open. The metrics sampler
    // stops afterwards so its final snapshot sees the flushed counters.
    multiclust::telemetry::trace::flush_trace();
    multiclust::telemetry::metrics::stop_metrics();
    match result {
        Ok(Outcome { output, passed }) => {
            print!("{output}");
            if passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            // Usage errors (bad flags, unknown commands) get the full
            // usage text; runtime errors (unreadable input, corrupt
            // trace) stay one clean line so the cause isn't buried.
            if e.usage {
                eprintln!("error: {}\n\n{USAGE}", e.message);
            } else {
                eprintln!("error: {}", e.message);
            }
            ExitCode::FAILURE
        }
    }
}

/// A command-line failure: the message plus whether it is the user's
/// flag spelling (print usage) or a runtime problem with their files
/// (don't bury the cause under the usage dump).
struct CliError {
    message: String,
    usage: bool,
}

impl CliError {
    /// A runtime error: printed as a single clean line, no usage text.
    fn plain(message: String) -> Self {
        Self { message, usage: false }
    }
}

/// Bare-`String` errors are flag/command mistakes and keep the usage dump.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self { message, usage: true }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        message.to_string().into()
    }
}

/// What a command produced: stdout text plus whether it succeeded.
///
/// `verify` can run to completion and still *fail* (violations found);
/// that is not a usage error, so the report goes to stdout and only the
/// exit code turns red.
struct Outcome {
    output: String,
    passed: bool,
}

impl Outcome {
    fn ok(output: String) -> Self {
        Self { output, passed: true }
    }
}

/// Parsed flag map: `--key value` pairs plus boolean `--header`, plus
/// positional arguments (only `trace` and `diagnose` accept them).
struct Flags {
    map: HashMap<String, String>,
    positional: Vec<String>,
}

/// Flags taking no value: bare `--flag` means "true".
const BOOLEAN_FLAGS: &[&str] =
    &["header", "telemetry", "bless", "smoke", "json", "inject-naive", "canonical"];

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                positional.push(args[i].clone());
                i += 1;
                continue;
            };
            if let Some((key, value)) = key.split_once('=') {
                // `--key=value` form.
                map.insert(key.to_string(), value.to_string());
                i += 1;
            } else if BOOLEAN_FLAGS.contains(&key) {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                map.insert(key.to_string(), value.clone());
                i += 2;
            }
        }
        Ok(Self { map, positional })
    }

    fn get(&self, key: &str) -> Option<&String> {
        self.map.get(key)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("flag --{key}: cannot parse {:?}", self.str(key).unwrap()))
    }

    fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse {v:?}")),
        }
    }

    fn bool(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

/// How `--telemetry` wants its stderr report rendered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TelemetryMode {
    Text,
    Json,
}

fn telemetry_mode(flags: &Flags) -> Result<Option<TelemetryMode>, String> {
    match flags.get("telemetry").map(String::as_str) {
        None => Ok(None),
        Some("true") | Some("text") => Ok(Some(TelemetryMode::Text)),
        Some("json") => Ok(Some(TelemetryMode::Json)),
        Some(other) => Err(format!(
            "flag --telemetry: unknown mode {other:?} (expected nothing, `text` or `json`)"
        )),
    }
}

fn run(args: Vec<String>) -> Result<Outcome, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::from("no command given".to_string()));
    };
    let flags = Flags::parse(rest)?;
    if !matches!(command.as_str(), "trace" | "diagnose" | "flight" | "loadtest") {
        if let Some(stray) = flags.positional.first() {
            return Err(format!("unexpected argument {stray:?} (expected a --flag)").into());
        }
    }
    let telemetry = telemetry_mode(&flags)?;
    if telemetry.is_some() {
        multiclust::telemetry::set_enabled(true);
    }
    if let Some(path) = flags.get("trace") {
        setup_trace(path, command, &flags)?;
    }
    if let Some(path) = flags.get("metrics") {
        setup_metrics(path, &flags)?;
    }
    let outcome = match command.as_str() {
        "kmeans" => cmd_kmeans(&flags).map(Outcome::ok),
        "dbscan" => cmd_dbscan(&flags).map(Outcome::ok),
        "dec-kmeans" => cmd_dec_kmeans(&flags).map(Outcome::ok),
        "alternative" => cmd_alternative(&flags).map(Outcome::ok),
        "subspace" => cmd_subspace(&flags).map(Outcome::ok),
        "compare" => cmd_compare(&flags).map(Outcome::ok),
        "verify" => cmd_verify(&flags).map_err(CliError::from),
        "bench" => cmd_bench(&flags).map_err(CliError::from),
        "trace" => cmd_trace(&flags).map(Outcome::ok),
        "diagnose" => cmd_diagnose(&flags),
        "flight" => cmd_flight(&flags),
        "trend" => cmd_trend(&flags),
        "serve" => cmd_serve(&flags),
        "client" => cmd_client(&flags),
        "loadtest" => cmd_loadtest(&flags),
        "help" | "--help" | "-h" => Ok(Outcome::ok(USAGE.to_string())),
        other => Err(format!("unknown command {other:?}").into()),
    }?;
    // Telemetry goes to stderr so stdout CSV stays byte-identical to a run
    // without the flag and keeps piping cleanly.
    match telemetry {
        Some(TelemetryMode::Json) => {
            eprintln!("{}", multiclust::telemetry::snapshot().to_json());
        }
        Some(TelemetryMode::Text) => {
            eprint!("{}", multiclust::telemetry::snapshot().to_text());
        }
        None => {}
    }
    Ok(outcome)
}

/// Opens the `--trace` sink and stamps the run metadata line: command,
/// seed, thread count, kernel mode. Dataset shape follows from
/// [`load_data`] once the input is read.
fn setup_trace(path: &str, command: &str, flags: &Flags) -> Result<(), String> {
    use multiclust::telemetry::trace;
    trace::set_trace_path(Some(Path::new(path)))
        .map_err(|e| format!("flag --trace: cannot open {path}: {e}"))?;
    multiclust::telemetry::set_enabled(true);
    let kernel_mode = match multiclust::linalg::kernels::kernel_mode() {
        multiclust::linalg::kernels::KernelMode::Blocked => "blocked",
        multiclust::linalg::kernels::KernelMode::Naive => "naive",
    };
    trace::trace_meta(&[
        ("command", Value::String(command.to_string())),
        ("seed", Value::Int(flags.parsed_or("seed", 42i64)?)),
        ("threads", Value::Int(multiclust::parallel::current_threads() as i64)),
        ("kernel_mode", Value::String(kernel_mode.to_string())),
    ]);
    Ok(())
}

/// Opens the `--metrics` snapshot stream. Implies telemetry (there is
/// nothing to sample otherwise); stdout stays byte-identical because
/// snapshots go to their own file from the sampler thread.
fn setup_metrics(path: &str, flags: &Flags) -> Result<(), String> {
    use multiclust::telemetry::metrics;
    let interval_ms: u64 = match std::env::var("MULTICLUST_METRICS_INTERVAL_MS") {
        Ok(v) => v.parse().map_err(|_| {
            format!("MULTICLUST_METRICS_INTERVAL_MS: cannot parse {v:?} as milliseconds")
        })?,
        Err(_) => flags.parsed_or("metrics-interval-ms", 200u64)?,
    };
    metrics::start_metrics(
        Path::new(path),
        std::time::Duration::from_millis(interval_ms.max(1)),
    )
    .map_err(|e| format!("flag --metrics: cannot open {path}: {e}"))?;
    multiclust::telemetry::set_enabled(true);
    Ok(())
}

/// A bad input file is a data error, not a flag mistake: one clean line,
/// no usage dump.
fn load_data(flags: &Flags) -> Result<Dataset, CliError> {
    let path = flags.str("input")?;
    let data = read_csv(Path::new(path), flags.bool("header"))
        .map_err(|e| CliError::plain(format!("reading {path}: {e}")))?;
    // Dataset shape into the run metadata (no-op without a sink).
    multiclust::telemetry::trace::trace_meta(&[
        ("dataset_n", Value::Int(data.len() as i64)),
        ("dataset_d", Value::Int(data.dims() as i64)),
    ]);
    Ok(data)
}

/// Loads a single-column integer label file into a `Clustering`
/// (`-1` = noise).
fn load_labels(path: &str) -> Result<Clustering, CliError> {
    let ds = read_csv(Path::new(path), false)
        .map_err(|e| CliError::plain(format!("reading {path}: {e}")))?;
    if ds.dims() != 1 {
        return Err(CliError::plain(format!(
            "label file {path} must have exactly one column"
        )));
    }
    let assignments: Vec<Option<usize>> = ds
        .rows()
        .map(|r| {
            let v = r[0];
            if v < 0.0 {
                None
            } else {
                Some(v as usize)
            }
        })
        .collect();
    Ok(Clustering::from_options(assignments))
}

/// Renders solutions as CSV: one column per solution, `-1` for noise.
fn render_solutions(solutions: &[&Clustering]) -> String {
    let n = solutions.first().map_or(0, |s| s.len());
    let mut out = String::new();
    for i in 0..n {
        for (c, s) in solutions.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            match s.assignment(i) {
                Some(l) => out.push_str(&l.to_string()),
                None => out.push_str("-1"),
            }
        }
        out.push('\n');
    }
    out
}

/// Rejects cluster counts the fitters would panic on.
fn check_k(k: usize, n: usize) -> Result<(), String> {
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    if k > n {
        return Err(format!("--k is {k} but the input has only {n} objects"));
    }
    Ok(())
}

fn cmd_kmeans(flags: &Flags) -> Result<String, CliError> {
    let data = load_data(flags)?;
    let k: usize = flags.parsed("k")?;
    check_k(k, data.len())?;
    let mut rng = seeded_rng(flags.parsed_or("seed", 42u64)?);
    let res = KMeans::new(k).with_restarts(4).fit(&data, &mut rng);
    Ok(render_solutions(&[&res.clustering]))
}

fn cmd_dbscan(flags: &Flags) -> Result<String, CliError> {
    let data = load_data(flags)?;
    let eps: f64 = flags.parsed("eps")?;
    let min_pts: usize = flags.parsed("min-pts")?;
    let c = Dbscan::new(eps, min_pts).fit(&data);
    Ok(render_solutions(&[&c]))
}

fn cmd_dec_kmeans(flags: &Flags) -> Result<String, CliError> {
    let data = load_data(flags)?;
    let ks: Vec<usize> = flags
        .str("ks")?
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad k {s:?} in --ks")))
        .collect::<Result<_, _>>()?;
    if ks.len() < 2 {
        return Err("--ks needs at least two comma-separated cluster counts".into());
    }
    for &k in &ks {
        check_k(k, data.len())?;
    }
    let lambda: f64 = flags.parsed_or("lambda", 1.0)?;
    if lambda < 0.0 {
        return Err("--lambda must be non-negative".into());
    }
    let mut rng = seeded_rng(flags.parsed_or("seed", 42u64)?);
    let res = DecKMeans::new(&ks).with_lambda(lambda).fit(&data, &mut rng);
    let refs: Vec<&Clustering> = res.clusterings.iter().collect();
    Ok(render_solutions(&refs))
}

fn cmd_alternative(flags: &Flags) -> Result<String, CliError> {
    let data = load_data(flags)?;
    let given = load_labels(flags.str("given")?)?;
    if given.len() != data.len() {
        return Err(CliError::plain(format!(
            "label file has {} rows, data has {}",
            given.len(),
            data.len()
        )));
    }
    let k: usize = flags.parsed("k")?;
    check_k(k, data.len())?;
    let mut rng = seeded_rng(flags.parsed_or("seed", 42u64)?);
    let method = flags.parsed_or("method", "coala".to_string())?;
    let alternative = match method.as_str() {
        "coala" => {
            let w: f64 = flags.parsed_or("w", 1.0)?;
            if w <= 0.0 {
                return Err("--w must be positive".into());
            }
            if data.len() > MAX_OBJECTS {
                return Err(CliError::plain(format!(
                    "coala fits at most {MAX_OBJECTS} objects, data has {}",
                    data.len()
                )));
            }
            Coala::new(k, w).fit(&data, &given).clustering
        }
        "mincentropy" => {
            let w: f64 = flags.parsed_or("w", 2.0)?;
            MinCEntropy::new(k, w).fit(&data, &[&given], &mut rng)
        }
        "metricflip" => {
            let km = KMeans::new(k).with_restarts(4);
            MetricFlip::new().fit(&data, &given, &km, &mut rng).clustering
        }
        "qidavidson" => {
            let km = KMeans::new(k).with_restarts(4);
            QiDavidson::new().fit(&data, &given, &km, &mut rng).clustering
        }
        other => return Err(format!("unknown alternative method {other:?}").into()),
    };
    Ok(render_solutions(&[&given, &alternative]))
}

fn cmd_subspace(flags: &Flags) -> Result<String, CliError> {
    let data = load_data(flags)?.min_max_normalized();
    let xi: u32 = flags.parsed("xi")?;
    let tau: f64 = flags.parsed("tau")?;
    let mined = Clique::new(xi, tau).fit(&data);
    let select = flags.parsed_or("select", "osclu".to_string())?;
    let kept: Vec<usize> = match select.as_str() {
        "none" => (0..mined.clusters.len()).collect(),
        "osclu" => {
            let beta: f64 = flags.parsed_or("beta", 0.75)?;
            let alpha: f64 = flags.parsed_or("alpha", 0.5)?;
            Osclu::new(beta, alpha).select_greedy(&mined.clusters).selected
        }
        "rescu" => rescu_select(&mined.clusters, size_times_dims, 0.9),
        "statpc" => statpc_select(&mined.clusters, data.len(), 0.01),
        other => return Err(format!("unknown selection {other:?}").into()),
    };
    let mut out = String::new();
    out.push_str("# cluster_id, dims, objects\n");
    for (row, &idx) in kept.iter().enumerate() {
        let c = &mined.clusters[idx];
        out.push_str(&format!(
            "{},\"{}\",\"{}\"\n",
            row,
            c.dims()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" "),
            c.objects()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    Ok(out)
}

fn cmd_verify(flags: &Flags) -> Result<Outcome, String> {
    let fault = match flags.get("inject") {
        None => None,
        Some(name) => {
            Some(Fault::parse(name).map_err(|e| format!("flag --inject: {e}"))?)
        }
    };
    // `--golden-dir none` skips the fixture layer, e.g. when probing a
    // single family or an injected fault away from the repo checkout.
    let golden_dir = match flags.get("golden-dir").map(String::as_str) {
        Some("none") => None,
        Some(dir) => Some(PathBuf::from(dir)),
        None => Some(PathBuf::from("tests/golden")),
    };
    let bless = flags.bool("bless")
        || std::env::var("MULTICLUST_BLESS").map_or(false, |v| v == "1");
    let opts = VerifyOptions {
        seed: flags.parsed_or("seed", 42u64)?,
        family: flags.get("family").cloned(),
        fault,
        golden_dir,
        bless,
    };
    let report = verify(&opts)?;
    Ok(Outcome { output: report.render_text(), passed: report.passed() })
}

fn cmd_bench(flags: &Flags) -> Result<Outcome, String> {
    // `--check-floors <file>` audits a frozen checked-in report against the
    // per-family speedup floors without re-measuring anything: the numbers
    // are in the file, so the verdict is deterministic on any machine.
    if let Some(path) = flags.get("check-floors") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("flag --check-floors: reading {path}: {e}"))?;
        let frozen = multiclust::bench::report::BenchReport::from_json(&text)
            .map_err(|e| format!("flag --check-floors: {path}: {e}"))?;
        let verdict = multiclust::bench::compare::check_floors(
            &frozen,
            multiclust::bench::compare::FAMILY_FLOORS,
        );
        let passed = verdict.passed();
        return Ok(Outcome { output: verdict.text, passed });
    }
    let smoke = flags.bool("smoke");
    let seed = flags.parsed_or("seed", 42u64)?;
    let report =
        multiclust::bench::perf::run_suite_opts(smoke, seed, flags.bool("inject-naive"));
    // The aligned table goes to stderr with the progress lines; stdout is
    // the JSON contract (`BenchReport::from_json` parses it back).
    eprint!("{}", report.render_text());
    let json = format!("{}\n", report.to_json());
    if let Some(path) = flags.get("out") {
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    // The regression gate: delta table to stderr, exit code carries the
    // verdict, stdout stays the parseable report JSON.
    let mut passed = true;
    if let Some(path) = flags.get("compare") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("flag --compare: reading {path}: {e}"))?;
        let baseline = multiclust::bench::report::BenchReport::from_json(&text)
            .map_err(|e| format!("flag --compare: {path}: {e}"))?;
        let noise = flags.parsed_or("noise", multiclust::bench::compare::DEFAULT_NOISE)?;
        let comparison = multiclust::bench::compare::compare(&report, &baseline, noise);
        eprint!("{}", comparison.text);
        passed = comparison.passed();
    }
    Ok(Outcome { output: json, passed })
}

fn cmd_trace(flags: &Flags) -> Result<String, CliError> {
    use multiclust::telemetry::trace;
    let (path, collapse) = match flags.get("collapse") {
        Some(p) => (p.as_str(), true),
        None => {
            let p = flags.positional.first().ok_or_else(|| {
                "trace needs a <trace.jsonl> argument (or --collapse <file>)".to_string()
            })?;
            (p.as_str(), false)
        }
    };
    // A trace file that won't open or parse is a data problem, not a
    // usage mistake: report the named line cleanly, skip the usage dump.
    let parsed = trace::read_trace(Path::new(path))
        .map_err(|e| CliError::plain(format!("trace {path}: {e}")))?;
    if collapse {
        Ok(trace::collapse_spans(&parsed))
    } else {
        let mut out = format!(
            "trace {path}: {} lines, {} span completions, {} events{}\n",
            parsed.lines,
            parsed.spans.len(),
            parsed.events.len(),
            if parsed.ended { "" } else { " (NO end line — run did not flush)" }
        );
        out.push_str(&trace::phase_summary(&parsed));
        Ok(out)
    }
}

fn cmd_diagnose(flags: &Flags) -> Result<Outcome, CliError> {
    use multiclust::telemetry::{diagnose, trace};
    let path = flags
        .positional
        .first()
        .ok_or_else(|| "diagnose needs a <trace.jsonl> argument".to_string())?;
    // Truncated or corrupt traces (a crashed or still-running producer)
    // are expected inputs here: fail with the offending line number, not
    // a panic or a usage dump.
    let parsed = trace::read_trace(Path::new(path))
        .map_err(|e| CliError::plain(format!("diagnose {path}: {e}")))?;
    let report = diagnose::analyze(&parsed, &diagnose::DiagnoseOptions::default());
    let output = if flags.bool("json") {
        format!("{}\n", report.to_json())
    } else {
        report.render_text()
    };
    Ok(Outcome { output, passed: !report.has_errors() })
}

/// Reads a flight-recorder dump and prints its human summary: record
/// counts by kind, the hottest names, and the last errors with their
/// correlated request ids.
fn cmd_flight(flags: &Flags) -> Result<Outcome, CliError> {
    use multiclust::telemetry::flight;
    let path = flags
        .positional
        .first()
        .ok_or_else(|| "flight needs a <flight.jsonl> argument".to_string())?;
    // A dump that won't parse is a data problem, not a usage mistake.
    let parsed = flight::read_flight(Path::new(path))
        .map_err(|e| CliError::plain(format!("flight {path}: {e}")))?;
    Ok(Outcome::ok(flight::summary(&parsed)))
}

/// Sorted `<PREFIX>_*.json` paths in `dir`, with the prefix stripped off
/// the file stem as the report label.
fn trend_inputs(dir: &str, prefix: &str) -> Result<Vec<(String, PathBuf)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    Ok(paths
        .into_iter()
        .map(|p| {
            let label = p
                .file_stem()
                .and_then(|n| n.to_str())
                .unwrap_or("?")
                .trim_start_matches(prefix)
                .to_string();
            (label, p)
        })
        .collect())
}

fn load_loadtest_reports(
    inputs: &[(String, PathBuf)],
) -> Result<Vec<(String, multiclust::loadtest::ParsedReport)>, String> {
    let mut reports = Vec::with_capacity(inputs.len());
    for (label, p) in inputs {
        let text = std::fs::read_to_string(p)
            .map_err(|e| format!("reading {}: {e}", p.display()))?;
        let report = multiclust::loadtest::report::parse(&text)
            .map_err(|e| format!("{}: {e}", p.display()))?;
        reports.push((label.clone(), report));
    }
    Ok(reports)
}

/// Tabulates every checked-in trajectory: kernel throughput across
/// `BENCH_*.json` reports and per-op latency quantiles across
/// `LOADTEST_*.json` reports. `--slo <report.json>` additionally gates
/// the named report's p99s against the LOADTEST baselines and carries
/// the verdict in the exit code.
fn cmd_trend(flags: &Flags) -> Result<Outcome, CliError> {
    let dir = flags.get("dir").map_or(".", String::as_str);
    let bench_inputs = trend_inputs(dir, "BENCH_").map_err(CliError::plain)?;
    let loadtest_inputs = trend_inputs(dir, "LOADTEST_").map_err(CliError::plain)?;
    if bench_inputs.is_empty() && loadtest_inputs.is_empty() {
        return Err(CliError::plain(format!(
            "no BENCH_*.json or LOADTEST_*.json files found in {dir}"
        )));
    }
    let mut out = String::new();
    if !bench_inputs.is_empty() {
        let mut reports = Vec::new();
        for (label, p) in &bench_inputs {
            let text = std::fs::read_to_string(p)
                .map_err(|e| CliError::plain(format!("reading {}: {e}", p.display())))?;
            let report = multiclust::bench::report::BenchReport::from_json(&text)
                .map_err(|e| CliError::plain(format!("{}: {e}", p.display())))?;
            reports.push((label.clone(), report));
        }
        out.push_str(&multiclust::bench::compare::trend(&reports));
    }
    let loadtest_reports = load_loadtest_reports(&loadtest_inputs).map_err(CliError::plain)?;
    if !loadtest_reports.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&multiclust::loadtest::trend::trend(&loadtest_reports));
    }
    let mut passed = true;
    if let Some(candidate_path) = flags.get("slo") {
        let text = std::fs::read_to_string(candidate_path)
            .map_err(|e| CliError::plain(format!("flag --slo: reading {candidate_path}: {e}")))?;
        let candidate = multiclust::loadtest::report::parse(&text)
            .map_err(|e| CliError::plain(format!("flag --slo: {candidate_path}: {e}")))?;
        if loadtest_reports.is_empty() {
            return Err(CliError::plain(format!(
                "flag --slo: no LOADTEST_*.json baselines found in {dir}"
            )));
        }
        let label = Path::new(candidate_path)
            .file_stem()
            .and_then(|n| n.to_str())
            .unwrap_or(candidate_path);
        let (text, ok) =
            multiclust::loadtest::trend::slo_gate(&loadtest_reports, label, &candidate)
                .map_err(CliError::plain)?;
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&text);
        passed = ok;
    }
    Ok(Outcome { output: out, passed })
}

fn cmd_serve(flags: &Flags) -> Result<Outcome, CliError> {
    use multiclust::serve::{Listen, Server, ServerConfig};
    let addr = match flags.get("listen") {
        Some(a) => a.clone(),
        None => std::env::var("MULTICLUST_LISTEN")
            .unwrap_or_else(|_| "127.0.0.1:0".to_string()),
    };
    let listen = Listen::parse(&addr).map_err(CliError::from)?;
    let capacity: usize = flags.parsed_or("capacity", 64)?;
    if capacity == 0 {
        return Err(CliError::from("--capacity must be at least 1".to_string()));
    }
    // Chaos is opt-in via the environment so the load-test harness can
    // degrade a binary-booted server; production boots leave it unset.
    let chaos = multiclust::serve::ChaosConfig::from_env().map_err(CliError::plain)?;
    let config = ServerConfig {
        capacity,
        dispatch: multiclust::harness::fit_dispatch(),
        chaos,
    };
    let server = Server::bind(&listen, config)
        .map_err(|e| CliError::plain(format!("cannot listen on {}: {e}", listen.display())))?;
    // The ready line must reach the caller before the accept loop blocks:
    // with `--listen 127.0.0.1:0` it is the only way to learn the port.
    println!(
        "{{\"type\":\"ready\",\"schema\":\"{}\",\"addr\":\"{}\"}}",
        multiclust::serve::SCHEMA,
        server.local_addr()
    );
    use std::io::Write as _;
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::plain(format!("stdout: {e}")))?;
    let summary = server
        .run()
        .map_err(|e| CliError::plain(format!("serve: {e}")))?;
    // Summary on stderr: stdout stays a pure protocol stream.
    eprintln!(
        "serve: shut down cleanly after {} requests ({} errors)",
        summary.requests, summary.errors
    );
    Ok(Outcome::ok(String::new()))
}

fn cmd_client(flags: &Flags) -> Result<Outcome, CliError> {
    use multiclust::serve::{client, Listen};
    let addr = match flags.get("connect") {
        Some(a) => a.clone(),
        None => std::env::var("MULTICLUST_LISTEN").map_err(|_| {
            "client needs --connect <addr> (or MULTICLUST_LISTEN)".to_string()
        })?,
    };
    let listen = Listen::parse(&addr).map_err(CliError::from)?;
    let requests: Vec<String> = if let Some(request) = flags.get("request") {
        vec![request.clone()]
    } else {
        let text = match flags.get("script") {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| CliError::plain(format!("reading {path}: {e}")))?,
            None => {
                let mut buf = String::new();
                use std::io::Read as _;
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| CliError::plain(format!("stdin: {e}")))?;
                buf
            }
        };
        // Blank lines and `#` comments let scripts document themselves.
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect()
    };
    if requests.is_empty() {
        return Err(CliError::plain(
            "client: no requests (use --request, --script or stdin)".to_string(),
        ));
    }
    // Transport failures are runtime errors; protocol-level errors come
    // back as response lines (`"ok":false`) and are the caller's to read.
    let responses = client::session(&listen, &requests)
        .map_err(|e| CliError::plain(format!("client: {} — {e}", listen.display())))?;
    let mut out = String::new();
    for response in &responses {
        out.push_str(response);
        out.push('\n');
    }
    Ok(Outcome::ok(out))
}

fn cmd_loadtest(flags: &Flags) -> Result<Outcome, CliError> {
    use multiclust::loadtest::{driver, judge, report, ScenarioSpec};

    // --judge / --doctor-report re-rule a stored report without running
    // anything; --doctor-report corrupts the measured summary first and
    // is expected to FAIL (negated in check.sh — the judge proving it
    // actually reads the numbers).
    if flags.get("judge").is_some() || flags.get("doctor-report").is_some() {
        let doctor = flags.get("doctor-report").is_some();
        let path = flags
            .get("doctor-report")
            .or_else(|| flags.get("judge"))
            .expect("checked above");
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::plain(format!("reading {path}: {e}")))?;
        let mut parsed = report::parse(&text).map_err(CliError::plain)?;
        if doctor {
            judge::doctor(&mut parsed.measured);
        }
        let judged = judge::judge(&parsed.expectations, &parsed.measured);
        let passed = judge::verdict(&judged);
        print_judgements(&parsed.scenario, &judged);
        let verdict = if passed { "PASS" } else { "FAIL" };
        return Ok(Outcome { output: format!("{verdict}\n"), passed });
    }

    let Some(path) = flags.positional.first() else {
        return Err("loadtest needs a scenario file (e.g. scenarios/smoke.json)"
            .to_string()
            .into());
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::plain(format!("reading {path}: {e}")))?;
    let spec = ScenarioSpec::parse(&text).map_err(CliError::plain)?;
    let boot = match flags.get("boot").map(String::as_str) {
        None | Some("in-process") => driver::BootMode::InProcess,
        Some("binary") => driver::BootMode::Binary,
        Some(other) => {
            return Err(format!("flag --boot: expected in-process or binary, got {other:?}").into())
        }
    };
    let inject = match flags.get("inject") {
        None => None,
        Some(name) => Some(driver::Inject::parse(name)?),
    };
    let record =
        driver::run_scenario(&spec, &driver::RunOptions { boot, inject }).map_err(CliError::plain)?;
    let judged = judge::judge(&spec.expectations, &judge::Measured::from_record(&record));
    let mut passed = judge::verdict(&judged);
    let rendered = report::render(&report::build(&record, &judged, flags.bool("canonical")));
    if let Some(out) = flags.get("out") {
        // The file always carries the full report (timing included) so
        // it can be re-judged on latency later.
        std::fs::write(out, report::render(&report::build(&record, &judged, false)))
            .map_err(|e| CliError::plain(format!("writing {out}: {e}")))?;
    }
    eprintln!(
        "loadtest {}: {} planned, {} responded, {} errors, {} ms wall",
        spec.name,
        record.planned,
        record.responded,
        record.errors_by_code.values().sum::<u64>(),
        record.wall_ms
    );
    print_judgements(&spec.name, &judged);
    if !passed {
        // Point the operator straight at the evidence: the server-side
        // flight dump plus a request id that appears in it.
        let first_failed = record
            .error_samples
            .first()
            .map(|(_, id)| id.as_str())
            .unwrap_or("-");
        match &record.flight_dump {
            Some(dump) => eprintln!(
                "loadtest: flight dump: {dump} (first failing request {first_failed})"
            ),
            None => eprintln!(
                "loadtest: no flight dump (recorder disabled; unset MULTICLUST_FLIGHT to re-enable)"
            ),
        }
    }
    if let Some(golden) = flags.get("golden") {
        let bless =
            flags.bool("bless") || std::env::var("MULTICLUST_BLESS").as_deref() == Ok("1");
        if bless {
            std::fs::write(golden, &rendered)
                .map_err(|e| CliError::plain(format!("writing {golden}: {e}")))?;
            eprintln!("loadtest: blessed {golden}");
        } else {
            let expected = std::fs::read_to_string(golden)
                .map_err(|e| CliError::plain(format!("reading {golden}: {e}")))?;
            if expected != rendered {
                eprintln!("loadtest: report diverges from golden {golden} (--bless to refresh)");
                passed = false;
            }
        }
    }
    Ok(Outcome { output: rendered, passed })
}

/// One judgement line per expectation, stderr — stdout stays the JSON
/// contract (the bench convention).
fn print_judgements(scenario: &str, judged: &[multiclust::loadtest::Judged]) {
    for j in judged {
        eprintln!(
            "  {} {:<17} {}",
            if j.pass { "PASS" } else { "FAIL" },
            j.expectation.kind(),
            j.measured
        );
    }
    let failed = judged.iter().filter(|j| !j.pass).count();
    if failed == 0 {
        eprintln!("loadtest {scenario}: PASS ({} expectations)", judged.len());
    } else {
        eprintln!("loadtest {scenario}: FAIL ({failed} of {} expectations)", judged.len());
    }
}

fn cmd_compare(flags: &Flags) -> Result<String, CliError> {
    let a = load_labels(flags.str("a")?)?;
    let b = load_labels(flags.str("b")?)?;
    if a.len() != b.len() {
        return Err(CliError::plain(format!(
            "label files differ in length: {} vs {}",
            a.len(),
            b.len()
        )));
    }
    Ok(DISS_MEASURES
        .iter()
        .map(|(name, diss)| format!("{name},{:.6}\n", diss(&a, &b)))
        .collect())
}
