//! Workload drivers: turn a parsed scenario into a deterministic request
//! plan, boot the real server (in-process over the harness dispatch or as
//! the shipped binary), pump barrier-released concurrent clients through
//! the serve protocol's codec, and collect the run record the judge rules
//! on.
//!
//! Determinism is the design constraint everything here bends around: the
//! plan (which worker sends which request, in which order) is a pure
//! function of the scenario seed; every worker owns a private namespace
//! of models (`w<i>-m<j>`) and only ever assigns/compares/evicts its own,
//! so each response body is independent of cross-worker interleaving; the
//! open-loop "tick clock" is a barrier, not a wall clock. The run record
//! therefore splits cleanly into a deterministic part (op counts, error
//! codes, quality, the FNV-1a transcript digest) and a wall-clock part
//! (latency sketches) the report keeps in a separate `timing` section.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use multiclust_core::measures::diss::{adjusted_rand_index, normalized_mutual_information};
use multiclust_core::Clustering;
use multiclust_data::seeded_rng;
use multiclust_data::synthetic::{planted_views, PlantedData, ViewSpec};
use multiclust_harness::{fit_dispatch, Fault};
use multiclust_serve::protocol::{DataSource, Labels, Reply, Request, Response};
use multiclust_serve::{
    client, ChaosConfig, FitDispatch, FitSpec, Listen, Server, ServerConfig,
};
use multiclust_telemetry::Sketch;
use rand::Rng;
use serde::Value;

use crate::spec::{Arrival, Expectation, ScenarioSpec};

// ---------------------------------------------------------------------
// Fault injection (the known-bad self-test registry)
// ---------------------------------------------------------------------

/// A deliberate corruption of the run that the scenario's expectations
/// **must** catch — the loadtest testing itself, mirroring
/// `bench --inject-naive` and `verify --inject`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Reseeds every served fit (`seed + 1`) — the harness registry's
    /// `serve-perturbs-rng`: a serving layer that desynchronises the
    /// deterministic pipeline. Caught by `serve-equivalence`.
    ServePerturbsRng,
    /// Reseeds served fits with a different delta (`seed + 2`) — the
    /// registry's `trace-perturbs-rng`: instrumentation that consumes
    /// randomness. Caught by `serve-equivalence`.
    TracePerturbsRng,
    /// Flips the first label of every fit's first solution after
    /// dispatch — the registry's `desync-kernels`. Caught by
    /// `serve-equivalence` (and usually the quality floors).
    DesyncKernels,
    /// Chaos: sleep on every workload op, sized to double the tightest
    /// latency ceiling in the scenario. Caught by the latency
    /// percentile expectations.
    SlowHandler,
    /// Chaos: close the connection without responding on every second
    /// workload op. Caught by the `transport` error budget.
    DropConnection,
    /// Wraps the in-process dispatch to panic on every fit — the handler
    /// catches the unwind, answers an `internal` error and auto-dumps the
    /// flight recorder. Caught by the error-rate ceiling; the failed
    /// verdict must name a request id that appears in the dump.
    PanicFit,
}

impl Inject {
    /// All injectable faults, in documentation order.
    pub fn all() -> &'static [Inject] {
        &[
            Inject::ServePerturbsRng,
            Inject::TracePerturbsRng,
            Inject::DesyncKernels,
            Inject::SlowHandler,
            Inject::DropConnection,
            Inject::PanicFit,
        ]
    }

    /// CLI name (the first three reuse the harness fault registry's
    /// names, validated through it).
    pub fn name(self) -> &'static str {
        match self {
            Inject::ServePerturbsRng => Fault::ServePerturbsRng.name(),
            Inject::TracePerturbsRng => Fault::TracePerturbsRng.name(),
            Inject::DesyncKernels => Fault::DesyncKernels.name(),
            Inject::SlowHandler => "slow-handler",
            Inject::DropConnection => "drop-connection",
            Inject::PanicFit => "panic-fit",
        }
    }

    /// Parses a CLI fault name.
    pub fn parse(s: &str) -> Result<Inject, String> {
        // Harness-registry names resolve through the registry itself so
        // the two stay in sync; the chaos faults are loadtest-local.
        if let Ok(fault) = Fault::parse(s) {
            match fault {
                Fault::ServePerturbsRng => return Ok(Inject::ServePerturbsRng),
                Fault::TracePerturbsRng => return Ok(Inject::TracePerturbsRng),
                Fault::DesyncKernels => return Ok(Inject::DesyncKernels),
                _ => {}
            }
        }
        Inject::all()
            .iter()
            .copied()
            .find(|f| f.name() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = Inject::all().iter().map(|f| f.name()).collect();
                format!("unknown loadtest fault {s:?} (expected one of: {})", known.join(", "))
            })
    }

    fn needs_in_process(self) -> bool {
        matches!(
            self,
            Inject::ServePerturbsRng
                | Inject::TracePerturbsRng
                | Inject::DesyncKernels
                | Inject::PanicFit
        )
    }
}

/// How the driver boots the system under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BootMode {
    /// Bind a [`Server`] in this process over the harness dispatch.
    InProcess,
    /// Spawn the shipped binary's `serve` command (chaos travels via
    /// `MULTICLUST_CHAOS`, the thread budget via `MULTICLUST_THREADS`).
    Binary,
}

impl BootMode {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            BootMode::InProcess => "in-process",
            BootMode::Binary => "binary",
        }
    }
}

/// Driver options beyond the scenario file.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Boot mode (default in-process).
    pub boot: BootMode,
    /// Optional known-bad fault.
    pub inject: Option<Inject>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { boot: BootMode::InProcess, inject: None }
    }
}

// ---------------------------------------------------------------------
// Request plan
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct PlannedOp {
    tick: usize,
    op: &'static str,
    /// Protocol request id (`t<j>`) — the correlation key the server
    /// echoes, threads through its `serve.<op>` spans and writes into
    /// flight-recorder dumps.
    id: String,
    family: Option<String>,
    request: String,
    /// `list` responses depend on cross-worker LRU order, so they stay
    /// out of the transcript digest.
    digest: bool,
}

#[derive(Debug)]
struct Plan {
    /// `per_worker[i]` is worker `i`'s ops in send order.
    per_worker: Vec<Vec<PlannedOp>>,
    by_op: BTreeMap<String, u64>,
    by_family: BTreeMap<String, u64>,
    families: Vec<String>,
    ticks: usize,
}

/// One request line carrying the string id `id`.
fn encode(request: &Request, id: &str) -> String {
    request.encode(&Value::String(id.to_string()))
}

/// The scenario's planted dataset, shared by every fit request.
fn build_case(spec: &ScenarioSpec) -> PlantedData {
    let mut rng = seeded_rng(spec.seed);
    let views: Vec<ViewSpec> = spec
        .dataset
        .views
        .iter()
        .map(|v| ViewSpec {
            dims: v.dims,
            clusters: v.clusters,
            separation: v.separation,
            noise: v.noise,
        })
        .collect();
    planted_views(spec.dataset.n, &views, spec.dataset.noise_dims, &mut rng)
}

/// Expands the scenario into each worker's request list. Ops that need
/// models the worker does not own yet (assign/compare/evict) are
/// resolved into fits at plan time, so the plan — and with it every
/// per-worker response sequence — is a pure function of the seed.
fn build_plan(spec: &ScenarioSpec, planted: &PlantedData) -> Result<Plan, String> {
    let workers = spec.arrival.workers();
    let total = spec.arrival.total_requests();
    let mix = &spec.mix;
    let fit_weight: u64 = mix.fit.iter().map(|(_, w)| *w).sum();
    let total_weight = mix.total_weight();
    let mut rng = seeded_rng(spec.seed ^ 0x9e37_79b9_7f4a_7c15);

    let mut per_worker: Vec<Vec<PlannedOp>> = vec![Vec::new(); workers];
    let mut models: Vec<VecDeque<String>> = vec![VecDeque::new(); workers];
    let mut fit_count = vec![0usize; workers];
    let mut by_op: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_family: BTreeMap<String, u64> = BTreeMap::new();
    let mut families: Vec<String> = Vec::new();
    let mut live = 0usize;
    let mut max_live = 0usize;
    let rows: Vec<Vec<f64>> = planted.dataset.rows().map(<[f64]>::to_vec).collect();
    let given: Vec<Option<usize>> = planted.truths[0].iter().copied().map(Some).collect();
    let probe = &rows[..rows.len().min(2)];

    let draw_family = |rng: &mut rand::rngs::StdRng| -> String {
        let mut r = rng.gen_range(0..fit_weight);
        for (family, w) in &mix.fit {
            if r < *w {
                return family.clone();
            }
            r -= *w;
        }
        unreachable!("weights sum to fit_weight")
    };

    for j in 0..total {
        let w = j % workers;
        let tick = match spec.arrival {
            Arrival::Closed { .. } => 0,
            Arrival::Open { rate, .. } => j / rate,
        };
        // Weighted draw over the whole mix, then resolve against worker
        // `w`'s model inventory.
        let mut r = rng.gen_range(0..total_weight);
        let mut op = if r < fit_weight {
            "fit"
        } else {
            r -= fit_weight;
            if r < mix.assign {
                "assign"
            } else if r < mix.assign + mix.compare {
                "compare"
            } else if r < mix.assign + mix.compare + mix.list {
                "list"
            } else {
                "evict"
            }
        };
        op = match op {
            "assign" if models[w].is_empty() => "fit",
            "compare" | "evict" if models[w].len() < 2 => "fit",
            other => other,
        };
        let id = format!("t{j}");
        let (family, request, digest) = match op {
            "fit" => {
                let family = draw_family(&mut rng);
                let name = format!("w{w}-m{}", fit_count[w]);
                fit_count[w] += 1;
                models[w].push_back(name.clone());
                live += 1;
                max_live = max_live.max(live);
                let request = Request::Fit {
                    model: Some(name),
                    family: family.clone(),
                    source: DataSource::Inline(rows.clone()),
                    k: spec.fit.k,
                    seed: spec.fit.seed,
                    given: Some(given.clone()),
                    views: Some(planted.view_dims.clone()),
                };
                (Some(family), request, true)
            }
            "assign" => {
                let model = models[w].back().expect("resolved above").clone();
                (None, Request::Assign { model, source: DataSource::Inline(probe.to_vec()) }, true)
            }
            "compare" => {
                let b = models[w].back().expect("resolved above").clone();
                let a = models[w][models[w].len() - 2].clone();
                (None, Request::Compare { a, b, sa: 0, sb: 0 }, true)
            }
            "list" => (None, Request::List, false),
            "evict" => {
                let model = models[w].pop_front().expect("resolved above");
                live -= 1;
                (None, Request::Evict { model }, true)
            }
            _ => unreachable!(),
        };
        let request = encode(&request, &id);
        *by_op.entry(op.to_string()).or_insert(0) += 1;
        if let Some(f) = &family {
            *by_family.entry(f.clone()).or_insert(0) += 1;
            if !families.contains(f) {
                families.push(f.clone());
            }
        }
        per_worker[w].push(PlannedOp { tick, op, id, family, request, digest });
    }

    if max_live > spec.server.capacity {
        return Err(format!(
            "scenario plans up to {max_live} live models but server.capacity is {} — \
             raise the capacity (evictions would make the transcript depend on timing)",
            spec.server.capacity
        ));
    }
    let ticks = match spec.arrival {
        Arrival::Closed { .. } => 1,
        Arrival::Open { rate, ticks, .. } => {
            let _ = rate;
            ticks
        }
    };
    Ok(Plan { per_worker, by_op, by_family, families, ticks })
}

// ---------------------------------------------------------------------
// Reference fits (serve-equivalence) and quality
// ---------------------------------------------------------------------

/// In-process reference solutions per family — the labels every served
/// fit must reproduce.
fn reference_solutions(
    spec: &ScenarioSpec,
    planted: &PlantedData,
    families: &[String],
) -> Result<BTreeMap<String, Vec<Labels>>, String> {
    let dispatch = fit_dispatch();
    let mut out = BTreeMap::new();
    for family in families {
        let fit_spec = FitSpec {
            family: family.clone(),
            data: planted.dataset.clone(),
            given: Clustering::from_labels(&planted.truths[0]),
            view_groups: planted.view_dims.clone(),
            k: spec.fit.k,
            seed: spec.fit.seed,
        };
        let solutions = dispatch(&fit_spec)
            .map_err(|e| format!("reference fit of family {family:?} failed: {e}"))?;
        let labels = solutions.iter().map(|c| Labels(c.assignments().to_vec()));
        out.insert(family.clone(), labels.collect());
    }
    Ok(out)
}

/// Best agreement of any served solution against any planted truth:
/// the paper's framing is that *each* planted view is a valid answer, so
/// a family passes its floor by recovering any one of them.
fn best_quality(solutions: &[Clustering], truths: &[Vec<usize>]) -> (f64, f64) {
    let mut best_ari = f64::NEG_INFINITY;
    let mut best_nmi = f64::NEG_INFINITY;
    for s in solutions {
        for t in truths {
            let truth = Clustering::from_labels(t);
            best_ari = best_ari.max(adjusted_rand_index(s, &truth));
            best_nmi = best_nmi.max(normalized_mutual_information(s, &truth));
        }
    }
    (best_ari, best_nmi)
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// How many failed request ids each worker (and the merged record) keeps
/// as correlation samples — enough to grep a flight dump, small enough to
/// never bloat a report.
const ERROR_SAMPLE_CAP: usize = 8;

#[derive(Default)]
struct WorkerOut {
    latency: BTreeMap<String, Sketch>,
    errors_by_code: BTreeMap<String, u64>,
    /// First few failed ops as `(code, request_id)` pairs, in send order.
    error_samples: Vec<(String, String)>,
    responded: u64,
    digest: u64,
    first_fits: BTreeMap<String, Vec<Labels>>,
    checked: u64,
    mismatches: u64,
}

fn run_worker(
    listen: &Listen,
    ops: &[PlannedOp],
    barrier: &Barrier,
    ticks: usize,
    expected: &BTreeMap<String, Vec<Labels>>,
) -> Result<WorkerOut, String> {
    let mut out = WorkerOut { digest: FNV_OFFSET, ..WorkerOut::default() };
    let mut conn = client::Connection::open(listen)
        .map_err(|e| format!("cannot connect to {}: {e}", listen.display()))?;
    let mut cursor = 0usize;
    for tick in 0..ticks {
        // The logical tick clock: a barrier, not a wall clock. Closed
        // loops have one tick, i.e. one synchronized release.
        barrier.wait();
        while cursor < ops.len() && ops[cursor].tick <= tick {
            let op = &ops[cursor];
            cursor += 1;
            let started = Instant::now();
            let response = match conn.roundtrip(&op.request) {
                Ok(r) => r,
                Err(_) => {
                    // Chaos (or a real outage) ate the response: count
                    // the transport error, reconnect, move on — the op
                    // is NOT retried, so op counts stay deterministic.
                    *out.errors_by_code.entry("transport".to_string()).or_insert(0) += 1;
                    if out.error_samples.len() < ERROR_SAMPLE_CAP {
                        out.error_samples.push(("transport".to_string(), op.id.clone()));
                    }
                    conn = client::Connection::open(listen)
                        .map_err(|e| format!("reconnect to {}: {e}", listen.display()))?;
                    continue;
                }
            };
            let micros = started.elapsed().as_micros() as u64;
            out.latency.entry(op.op.to_string()).or_default().record(micros);
            out.responded += 1;
            if op.digest {
                out.digest = fnv1a(out.digest, response.as_bytes());
            }
            let parsed = Response::decode(&response)
                .map_err(|e| format!("unparseable response line: {e}: {response}"))?;
            match parsed.result {
                Err(e) => {
                    if out.error_samples.len() < ERROR_SAMPLE_CAP {
                        out.error_samples.push((e.code.to_string(), op.id.clone()));
                    }
                    *out.errors_by_code.entry(e.code.to_string()).or_insert(0) += 1;
                }
                Ok(Reply::Fit(fit)) => {
                    let family = op.family.clone().unwrap_or_default();
                    out.checked += 1;
                    if expected.get(&family) != Some(&fit.solutions) {
                        out.mismatches += 1;
                    }
                    out.first_fits.entry(family).or_insert(fit.solutions);
                }
                Ok(_) => {}
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Booting the system under test
// ---------------------------------------------------------------------

fn wrap_dispatch(inject: Option<Inject>) -> FitDispatch {
    let inner = fit_dispatch();
    match inject {
        Some(Inject::ServePerturbsRng) | Some(Inject::TracePerturbsRng) => {
            let delta = if inject == Some(Inject::ServePerturbsRng) { 1 } else { 2 };
            Arc::new(move |spec: &FitSpec| {
                let mut perturbed = spec.clone();
                perturbed.seed = perturbed.seed.wrapping_add(delta);
                inner(&perturbed)
            })
        }
        Some(Inject::PanicFit) => Arc::new(move |spec: &FitSpec| {
            panic!("injected panic-fit: family {:?}", spec.family)
        }),
        Some(Inject::DesyncKernels) => Arc::new(move |spec: &FitSpec| {
            let mut solutions = inner(spec)?;
            if let Some(first) = solutions.first_mut() {
                let mut labels = first.assignments().to_vec();
                if let Some(l) = labels.first_mut() {
                    *l = Some(l.map_or(0, |x| x + 1));
                }
                *first = Clustering::from_options(labels);
            }
            Ok(solutions)
        }),
        _ => inner,
    }
}

/// The chaos the server actually boots with: the scenario's knobs, with
/// the chaos faults layered on top.
fn effective_chaos(spec: &ScenarioSpec, inject: Option<Inject>) -> ChaosConfig {
    let mut chaos = ChaosConfig {
        slow_every: spec.chaos.slow_every,
        slow_ms: spec.chaos.slow_ms,
        drop_every: spec.chaos.drop_every,
    };
    match inject {
        Some(Inject::SlowHandler) => {
            // Sized to deterministically breach the tightest latency
            // ceiling (doubled), capped so a generous scenario cannot
            // stall the rig for minutes.
            let tightest = spec
                .expectations
                .iter()
                .filter_map(|e| match e {
                    Expectation::Latency { max_ms, .. } => Some(*max_ms),
                    _ => None,
                })
                .min()
                .unwrap_or(25);
            chaos.slow_every = 1;
            chaos.slow_ms = (tightest * 2).clamp(1, 5_000);
        }
        Some(Inject::DropConnection) => chaos.drop_every = 2,
        _ => {}
    }
    chaos
}

enum Booted {
    InProcess {
        listen: Listen,
        handle: std::thread::JoinHandle<std::io::Result<multiclust_serve::ServerSummary>>,
    },
    Binary {
        listen: Listen,
        child: Child,
    },
}

impl Booted {
    fn listen(&self) -> &Listen {
        match self {
            Booted::InProcess { listen, .. } | Booted::Binary { listen, .. } => listen,
        }
    }

    fn shutdown(self) -> Result<(), String> {
        let listen = self.listen().clone();
        client::roundtrip(&listen, &encode(&Request::Shutdown, "bye"))
            .map_err(|e| format!("shutdown roundtrip: {e}"))?;
        match self {
            Booted::InProcess { handle, .. } => {
                handle
                    .join()
                    .map_err(|_| "server thread panicked".to_string())?
                    .map_err(|e| format!("server run: {e}"))?;
            }
            Booted::Binary { mut child, .. } => {
                let status = child.wait().map_err(|e| format!("serve child: {e}"))?;
                if !status.success() {
                    return Err(format!("serve child exited with {status}"));
                }
            }
        }
        Ok(())
    }
}

fn boot(spec: &ScenarioSpec, options: &RunOptions) -> Result<Booted, String> {
    let chaos = effective_chaos(spec, options.inject);
    match options.boot {
        BootMode::InProcess => {
            if spec.server.threads > 0 {
                multiclust_parallel::set_threads(spec.server.threads);
            }
            let listen = Listen::parse("127.0.0.1:0")?;
            let config = ServerConfig {
                capacity: spec.server.capacity,
                dispatch: wrap_dispatch(options.inject),
                chaos,
            };
            let server = Server::bind(&listen, config)
                .map_err(|e| format!("cannot bind loadtest server: {e}"))?;
            let addr = server.local_addr().to_string();
            let handle = std::thread::Builder::new()
                .name("loadtest-serve".to_string())
                .spawn(move || server.run())
                .map_err(|e| format!("cannot spawn loadtest server: {e}"))?;
            Ok(Booted::InProcess { listen: Listen::parse(&addr)?, handle })
        }
        BootMode::Binary => {
            if let Some(inject) = options.inject {
                if inject.needs_in_process() {
                    return Err(format!(
                        "fault {:?} wraps the in-process dispatch and cannot reach a \
                         binary-booted server (drop --boot binary)",
                        inject.name()
                    ));
                }
            }
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot locate the multiclust binary: {e}"))?;
            let mut cmd = Command::new(exe);
            cmd.args(["serve", "--listen", "127.0.0.1:0"])
                .arg("--capacity")
                .arg(spec.server.capacity.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null());
            if !chaos.disabled() {
                cmd.env("MULTICLUST_CHAOS", chaos.display());
            }
            if spec.server.threads > 0 {
                cmd.env("MULTICLUST_THREADS", spec.server.threads.to_string());
            }
            let mut child = cmd.spawn().map_err(|e| format!("cannot spawn serve: {e}"))?;
            let mut ready = String::new();
            BufReader::new(child.stdout.take().expect("piped stdout"))
                .read_line(&mut ready)
                .map_err(|e| format!("reading serve ready line: {e}"))?;
            let addr = ready
                .split(r#""addr":""#)
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .ok_or_else(|| format!("serve printed no ready address: {ready:?}"))?;
            Ok(Booted::Binary { listen: Listen::parse(addr)?, child })
        }
    }
}

// ---------------------------------------------------------------------
// The run record
// ---------------------------------------------------------------------

/// Everything one load-test run produced, before judgement.
pub struct RunRecord {
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Boot mode label.
    pub boot: &'static str,
    /// Injected fault name, if any.
    pub inject: Option<&'static str>,
    /// Planned operations.
    pub planned: u64,
    /// Operations that received a response line.
    pub responded: u64,
    /// Planned operations per protocol op.
    pub by_op: BTreeMap<String, u64>,
    /// Planned fits per family.
    pub by_family: BTreeMap<String, u64>,
    /// Driver-observed errors per structured code (`transport` for
    /// connections dropped mid-request).
    pub errors_by_code: BTreeMap<String, u64>,
    /// First few failed ops as `(code, request_id)` pairs, merged in
    /// worker order — the ids to grep for in the server's flight dump.
    pub error_samples: Vec<(String, String)>,
    /// Server-side flight-recorder dump, captured by a `dump` probe just
    /// before shutdown (`None` when the recorder is disabled).
    pub flight_dump: Option<String>,
    /// Server-side chaos counters (from the final `stats` probe).
    pub chaos_slowed: u64,
    /// Connections the server deliberately dropped.
    pub chaos_dropped: u64,
    /// Models resident at the end of the run.
    pub registry_models: u64,
    /// LRU evictions (0 in a well-capacitied scenario).
    pub registry_evictions: u64,
    /// Registry capacity.
    pub capacity: u64,
    /// Best (ARI, NMI) vs any planted truth, per family.
    pub quality: BTreeMap<String, (f64, f64)>,
    /// Served fits compared against the in-process reference.
    pub serve_checked: u64,
    /// Served fits whose solution bytes diverged from the reference.
    pub serve_mismatches: u64,
    /// `telemetry.events_dropped` at the end of the run.
    pub events_dropped: u64,
    /// Allocation peak (bytes) when `MULTICLUST_ALLOC=1`, else `None`.
    pub alloc_peak: Option<u64>,
    /// FNV-1a digest over every deterministic response body, combined in
    /// worker order.
    pub digest: u64,
    /// Per-op latency sketches, merged across workers.
    pub latency: BTreeMap<String, Sketch>,
    /// Wall-clock duration of the workload phase.
    pub wall_ms: u64,
    /// Thread count the driver process ran at.
    pub threads: usize,
}

/// Runs a parsed scenario end to end and returns the record the judge
/// rules on.
pub fn run_scenario(spec: &ScenarioSpec, options: &RunOptions) -> Result<RunRecord, String> {
    let planted = build_case(spec);
    let plan = build_plan(spec, &planted)?;
    let expected = Arc::new(reference_solutions(spec, &planted, &plan.families)?);
    let booted = boot(spec, options)?;
    let listen = booted.listen().clone();

    let workers = spec.arrival.workers();
    let barrier = Arc::new(Barrier::new(workers));
    let started = Instant::now();
    let mut handles = Vec::with_capacity(workers);
    for ops in plan.per_worker.iter().cloned() {
        let listen = listen.clone();
        let barrier = Arc::clone(&barrier);
        let expected = Arc::clone(&expected);
        let ticks = plan.ticks;
        handles.push(std::thread::spawn(move || {
            run_worker(&listen, &ops, &barrier, ticks, &expected)
        }));
    }
    let mut outs = Vec::with_capacity(workers);
    for handle in handles {
        outs.push(handle.join().map_err(|_| "worker thread panicked".to_string())??);
    }
    let wall_ms = started.elapsed().as_millis() as u64;

    // Merge worker records: sketches merge losslessly, the digest folds
    // per-worker digests in worker order, first-captured fits win in
    // worker order (they are byte-identical anyway under no fault).
    let mut latency: BTreeMap<String, Sketch> = BTreeMap::new();
    let mut errors_by_code: BTreeMap<String, u64> = BTreeMap::new();
    let mut error_samples: Vec<(String, String)> = Vec::new();
    let mut responded = 0u64;
    let mut digest = FNV_OFFSET;
    let mut first_fits: BTreeMap<String, Vec<Labels>> = BTreeMap::new();
    let mut checked = 0u64;
    let mut mismatches = 0u64;
    for out in &outs {
        for (op, sketch) in &out.latency {
            latency.entry(op.clone()).or_default().merge(sketch);
        }
        for (code, n) in &out.errors_by_code {
            *errors_by_code.entry(code.clone()).or_insert(0) += n;
        }
        for sample in &out.error_samples {
            if error_samples.len() < ERROR_SAMPLE_CAP {
                error_samples.push(sample.clone());
            }
        }
        responded += out.responded;
        digest = fnv1a(digest, &out.digest.to_be_bytes());
        for (family, served) in &out.first_fits {
            first_fits.entry(family.clone()).or_insert_with(|| served.clone());
        }
        checked += out.checked;
        mismatches += out.mismatches;
    }

    // Final stats probe (exempt from chaos), then clean shutdown.
    let stats_line = client::roundtrip(&listen, &encode(&Request::Stats, "stats"))
        .map_err(|e| format!("stats probe: {e}"))?;
    let stats = Response::decode(&stats_line)
        .map_err(|e| format!("unparseable stats response: {e}"))?;
    let Ok(Reply::Stats(stats)) = stats.result else {
        return Err(format!("stats probe failed: {stats_line}"));
    };

    // Flight-recorder probe (also chaos-exempt): capture the server-side
    // dump path so a failed verdict can point straight at the evidence.
    // A `bad-request` answer just means the recorder is off.
    let flight_dump = client::roundtrip(&listen, &encode(&Request::Dump, "dump"))
        .ok()
        .and_then(|line| Response::decode(&line).ok())
        .and_then(|response| match response.result {
            Ok(Reply::Dump(dump)) => Some(dump.path),
            _ => None,
        });
    booted.shutdown()?;

    let mut quality = BTreeMap::new();
    for (family, served) in first_fits {
        let solutions: Vec<Clustering> =
            served.into_iter().map(|l| Clustering::from_options(l.0)).collect();
        quality.insert(family, best_quality(&solutions, &planted.truths));
    }

    Ok(RunRecord {
        scenario: spec.name.clone(),
        seed: spec.seed,
        boot: options.boot.label(),
        inject: options.inject.map(Inject::name),
        planned: spec.arrival.total_requests() as u64,
        responded,
        by_op: plan.by_op,
        by_family: plan.by_family,
        errors_by_code,
        error_samples,
        flight_dump,
        chaos_slowed: stats.chaos.slowed,
        chaos_dropped: stats.chaos.dropped,
        registry_models: stats.models as u64,
        registry_evictions: stats.evictions,
        capacity: spec.server.capacity as u64,
        quality,
        serve_checked: checked,
        serve_mismatches: mismatches,
        events_dropped: stats.events_dropped,
        alloc_peak: stats.alloc.map(|a| a.peak),
        digest,
        latency,
        wall_ms,
        threads: multiclust_parallel::current_threads(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn tiny_spec(extra_mix: &str) -> ScenarioSpec {
        ScenarioSpec::parse(&format!(
            r#"{{
                "schema": "multiclust-loadtest/v1",
                "name": "tiny",
                "seed": 9,
                "dataset": {{"n": 12, "views": [{{"dims": 2, "clusters": 2, "separation": 12.0, "noise": 0.5}}]}},
                "arrival": {{"mode": "closed", "workers": 2, "requests": 10}},
                "mix": {{"fit": {{"kmeans": 2}}{extra_mix}}},
                "fit": {{"k": 2, "seed": 5}},
                "server": {{"capacity": 16}},
                "expectations": [{{"kind": "error-rate", "max": 0.0}}]
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn plan_is_deterministic_and_respects_worker_ownership() {
        let spec = tiny_spec(r#", "assign": 2, "compare": 1, "evict": 1, "list": 1"#);
        let case = build_case(&spec);
        let a = build_plan(&spec, &case).unwrap();
        let b = build_plan(&spec, &case).unwrap();
        for (wa, wb) in a.per_worker.iter().zip(&b.per_worker) {
            let ra: Vec<&str> = wa.iter().map(|o| o.request.as_str()).collect();
            let rb: Vec<&str> = wb.iter().map(|o| o.request.as_str()).collect();
            assert_eq!(ra, rb, "same seed, same plan");
        }
        assert_eq!(a.by_op.values().sum::<u64>(), 10);
        // Every assign/compare/evict names only the issuing worker's
        // models.
        for (w, ops) in a.per_worker.iter().enumerate() {
            for op in ops {
                if op.op != "fit" && op.op != "list" {
                    assert!(
                        op.request.contains(&format!("w{w}-m")),
                        "worker {w} touches only its own models: {}",
                        op.request
                    );
                }
            }
        }
    }

    #[test]
    fn plan_rejects_under_capacitied_scenarios() {
        let mut spec = tiny_spec("");
        spec.server.capacity = 1;
        let case = build_case(&spec);
        let e = build_plan(&spec, &case).unwrap_err();
        assert!(e.contains("server.capacity"), "{e}");
    }

    #[test]
    fn inject_parse_covers_registry_and_chaos_names() {
        for &f in Inject::all() {
            assert_eq!(Inject::parse(f.name()), Ok(f));
        }
        let e = Inject::parse("nope").unwrap_err();
        assert!(e.contains("slow-handler") && e.contains("serve-perturbs-rng"), "{e}");
        // Registry faults with no loadtest mapping are rejected, naming
        // the valid set.
        assert!(Inject::parse("truncate-output").is_err());
    }
}
