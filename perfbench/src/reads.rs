//! `serve-reads`: closed loop, one persistent connection per client
//! thread (`nproc` of them), a seeded mix of `assign` (16 rows) 70%,
//! `compare` 20% and `list` 10% against eight models preloaded on n=2000
//! data. Protocol codec, registry reads and measures dominate; fits and
//! kernels do almost nothing.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use multiclust::core::measures::diss::{
    adjusted_rand_index, jaccard_index, normalized_mutual_information, rand_index,
    variation_of_information,
};
use multiclust::data::Dataset;
use multiclust::serve::FittedModel;
use serde::Value;

use crate::data::{Planted, Rng};
use crate::gates::{ari, family_mean, quality, Gates};
use crate::served::{
    doctor_response, field, is_ok, join_server_spans, num, read_server_trace, reference_fit,
    rows_json, server_stats, solutions_json, solutions_text, wire_solutions, without_id, Conn,
    FitReq, ServerProc, ASSIGN_ROWS,
};
use crate::stats::{median, percentile, slices, window_samples, windowed, Metrics, SpanLog};
use crate::{config, layers, steal, Ctx, Doctor, Outcome};

/// The preloaded models: `(family, k, fit seed, given = view A)`.
const PRELOAD: [(&str, usize, u64, bool); 8] = [
    ("kmeans", 3, 1, false),
    ("kmeans", 3, 2, false),
    ("kmeans", 3, 3, false),
    ("dec-kmeans", 3, 4, false),
    ("dec-kmeans", 3, 5, false),
    ("orthogonal", 3, 6, true),
    ("orthogonal", 3, 7, true),
    ("kmeans", 3, 8, false),
];
const ASSIGN_BLOCKS: usize = 64;
/// Time windows of a run; the latency and throughput metrics are medians
/// over the least-stolen half of them.
const WINDOWS: usize = 20;
/// The tail percentile of read latency. p99 was measured at 0.23 ms in
/// quiet minutes and 0.5–3 ms in minutes when other tenants loaded this
/// 2-vCPU host: it tracks host scheduling stalls, not the server. p90
/// moved from about 0.12 to 0.19 ms over the same minutes.
const TAIL: f64 = 0.9;

/// A preloaded model as the benchmark expects the server to hold it.
struct Preloaded {
    name: String,
    /// The fit request line.
    line: String,
    /// The in-process fit's `solutions`, rendered as the protocol does.
    solutions: String,
    model: FittedModel,
    ari: f64,
}

/// Reads-workload inputs and expectations, computed once per run.
struct ReadInputs {
    models: Vec<Preloaded>,
    blocks: Vec<Dataset>,
    block_json: Vec<String>,
}

fn read_inputs(ctx: &Ctx) -> Result<ReadInputs, String> {
    let n = if ctx.smoke { 300 } else { 2000 };
    let data = Planted::generate(n, ctx.seed, "preload");
    let mut models = Vec::new();
    for (i, &(family, k, seed, given_a)) in PRELOAD.iter().enumerate() {
        let req = FitReq::new(family, k, seed, data.clone(), given_a);
        let name = format!("m{i}");
        let line = req.line(&name, &format!("preload-{i}"));
        let (parsed, solutions) = reference_fit(&line)?;
        let labels: Vec<Vec<Option<usize>>> =
            solutions.iter().map(|c| c.assignments().to_vec()).collect();
        let ari = labels
            .iter()
            .map(|l| ari(l, req.target()))
            .fold(f64::NEG_INFINITY, f64::max);
        let model = FittedModel::new(name.clone(), family.into(), k, seed, &parsed, solutions);
        models.push(Preloaded {
            name,
            line,
            solutions: solutions_json(&labels),
            model,
            ari,
        });
    }
    let pool = Planted::generate(ASSIGN_ROWS * ASSIGN_BLOCKS, ctx.seed, "assign");
    let blocks: Vec<Vec<Vec<f64>>> = pool.rows.chunks(ASSIGN_ROWS).map(|c| c.to_vec()).collect();
    Ok(ReadInputs {
        models,
        block_json: blocks.iter().map(|b| rows_json(b)).collect(),
        blocks: blocks.iter().map(|b| Dataset::from_rows(b)).collect(),
    })
}

/// Fits the preload models on one connection; each served fit must equal
/// the in-process dispatch byte for byte and clear its quality floor.
fn preload(conn: &mut Conn, inputs: &ReadInputs, gates: &mut Gates) -> Result<(), String> {
    for m in &inputs.models {
        let resp = conn.call(&m.line)?;
        gates.op(is_ok(resp), || {
            format!("preload fit {} failed: {resp:.200}", m.name)
        });
        gates.op(solutions_text(resp) == Some(m.solutions.as_str()), || {
            format!("served fit {} differs from the in-process fit", m.name)
        });
        quality(
            gates,
            &m.model.family,
            m.ari,
            &format!("preloaded model {}", m.name),
        );
    }
    Ok(())
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum ReadOp {
    Assign {
        model: usize,
        block: usize,
    },
    Compare {
        a: usize,
        b: usize,
        sa: usize,
        sb: usize,
    },
    List,
}

impl ReadOp {
    fn name(self) -> &'static str {
        match self {
            ReadOp::Assign { .. } => "assign",
            ReadOp::Compare { .. } => "compare",
            ReadOp::List => "list",
        }
    }
}

/// The seeded read mix: 70% assign, 20% compare, 10% list.
fn pick(rng: &mut Rng, models: &[Preloaded]) -> ReadOp {
    let r = rng.uniform();
    if r < 0.7 {
        ReadOp::Assign {
            model: rng.below(models.len()),
            block: rng.below(ASSIGN_BLOCKS),
        }
    } else if r < 0.9 {
        let a = rng.below(models.len());
        let b = rng.below(models.len());
        let sa = rng.below(models[a].model.solutions.len());
        let sb = rng.below(models[b].model.solutions.len());
        ReadOp::Compare { a, b, sa, sb }
    } else {
        ReadOp::List
    }
}

fn read_line_for(op: ReadOp, inputs: &ReadInputs, id: &str) -> String {
    let models = &inputs.models;
    match op {
        ReadOp::Assign { model, block } => format!(
            "{{\"op\":\"assign\",\"model\":\"{}\",\"data\":{},\"id\":\"{id}\"}}",
            models[model].name, inputs.block_json[block]
        ),
        ReadOp::Compare { a, b, sa, sb } => format!(
            "{{\"op\":\"compare\",\"a\":\"{}\",\"b\":\"{}\",\"sa\":{sa},\"sb\":{sb},\"id\":\"{id}\"}}",
            models[a].name, models[b].name
        ),
        ReadOp::List => format!("{{\"op\":\"list\",\"id\":\"{id}\"}}"),
    }
}

/// Full check of a read response against in-process results.
fn check_read(op: ReadOp, resp: &str, inputs: &ReadInputs) -> Result<(), String> {
    let models = &inputs.models;
    if !is_ok(resp) {
        return Err(format!(
            "{} not ok: {}",
            op.name(),
            &resp[..resp.len().min(200)]
        ));
    }
    let v = serde_json::parse_value(resp).map_err(|e| format!("{} response: {e}", op.name()))?;
    match op {
        ReadOp::Assign { model, block } => {
            let expected = models[model].model.assign(&inputs.blocks[block]);
            if wire_solutions(&v).as_ref() != Some(&expected) {
                return Err(format!(
                    "assign to {} differs from in-process FittedModel::assign",
                    models[model].name
                ));
            }
        }
        ReadOp::Compare { a, b, sa, sb } => {
            let ca = &models[a].model.solutions[sa];
            let cb = &models[b].model.solutions[sb];
            let expected = [
                ("rand_index", rand_index(ca, cb)),
                ("adjusted_rand_index", adjusted_rand_index(ca, cb)),
                ("jaccard_index", jaccard_index(ca, cb)),
                (
                    "normalized_mutual_information",
                    normalized_mutual_information(ca, cb),
                ),
                ("variation_of_information", variation_of_information(ca, cb)),
            ];
            let measures = field(&v, "measures").ok_or("compare response has no measures")?;
            for (name, want) in expected {
                let got = field(measures, name).and_then(num);
                if got.map(f64::to_bits) != Some(want.to_bits()) {
                    return Err(format!("compare {name}: served {got:?}, in-process {want}"));
                }
            }
        }
        ReadOp::List => {
            let Some(Value::Array(listed)) = field(&v, "models") else {
                return Err("list response has no models".into());
            };
            let names: Vec<Option<&str>> = listed
                .iter()
                .map(|m| field(m, "model").and_then(Value::as_str))
                .collect();
            let want: Vec<Option<&str>> = models.iter().map(|m| Some(m.name.as_str())).collect();
            if names != want {
                return Err(format!("list returned {names:?}"));
            }
        }
    }
    Ok(())
}

/// One completed read.
struct Sample {
    /// Completion, in seconds since the phase started.
    done_s: f64,
    latency_s: f64,
    ok: bool,
}

/// What one measured phase of a workload produced.
struct Phase {
    samples: Vec<Sample>,
    /// Seconds each send ran behind its schedule.
    late: Vec<f64>,
    wall_s: f64,
    /// When the clients started.
    start: Instant,
    gates: Gates,
    spans: Option<SpanLog>,
    client_spans: Vec<usize>,
}

fn reads_phase(
    ctx: &Ctx,
    server: &ServerProc,
    inputs: &ReadInputs,
    seconds: f64,
    origin: Option<Instant>,
) -> Result<Phase, String> {
    let clients = ctx.threads;
    let barrier = Barrier::new(clients + 1);
    let conns: Vec<Conn> = (0..clients)
        .map(|_| server.connect())
        .collect::<Result<_, _>>()?;
    let start_cell = std::sync::OnceLock::new();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(t, mut conn)| {
                let barrier = &barrier;
                let start_cell = &start_cell;
                s.spawn(move || {
                    let mut rng = Rng::new(ctx.seed, &format!("mix-{t}"));
                    let mut gates = Gates::default();
                    let mut latencies = Vec::new();
                    let mut late = Vec::new();
                    let mut log = origin.map(SpanLog::new);
                    let mut canon: HashMap<ReadOp, String> = HashMap::new();
                    let mut doctor = ctx.doctor == Some(Doctor::Response) && t == 0;
                    barrier.wait();
                    let start: Instant = *start_cell.get_or_init(Instant::now);
                    let end = start + Duration::from_secs_f64(seconds);
                    let mut prev_end = Instant::now();
                    let mut i = 0u64;
                    while Instant::now() < end {
                        let op = pick(&mut rng, &inputs.models);
                        let id = format!("t{t}-{i}");
                        i += 1;
                        let line = read_line_for(op, inputs, &id);
                        let t0 = Instant::now();
                        late.push(t0.duration_since(prev_end).as_secs_f64());
                        let resp = match conn.call(&line) {
                            Ok(r) => r.to_string(),
                            Err(e) => {
                                gates.op(false, || format!("{} request failed: {e}", op.name()));
                                latencies.push(Sample {
                                    done_s: start.elapsed().as_secs_f64(),
                                    latency_s: t0.elapsed().as_secs_f64(),
                                    ok: false,
                                });
                                break;
                            }
                        };
                        let t1 = Instant::now();
                        prev_end = t1;
                        if let Some(log) = log.as_mut() {
                            log.between(&format!("client.{}", op.name()), &id, None, t0, t1);
                        }
                        let resp = if doctor && matches!(op, ReadOp::Compare { .. }) {
                            doctor = false;
                            doctor_response(&resp)
                        } else {
                            resp
                        };
                        let bare = without_id(&resp);
                        let verdict = match canon.get(&op) {
                            Some(c) if *c == bare => Ok(()),
                            Some(_) => Err(format!(
                                "{} response differs from an earlier identical request",
                                op.name()
                            )),
                            None => check_read(op, &resp, inputs).map(|()| {
                                canon.insert(op, bare);
                            }),
                        };
                        let ok = verdict.is_ok();
                        gates.op(ok, || verdict.unwrap_err());
                        latencies.push(Sample {
                            done_s: t1.duration_since(start).as_secs_f64(),
                            latency_s: t1.duration_since(t0).as_secs_f64(),
                            ok,
                        });
                    }
                    (latencies, late, gates, log, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = *start_cell.get().ok_or("no client started")?;
    let mut phase = Phase {
        samples: Vec::new(),
        late: Vec::new(),
        wall_s: 0.0,
        start,
        gates: Gates::default(),
        spans: origin.map(SpanLog::new),
        client_spans: Vec::new(),
    };
    for (lat, late, gates, log, done) in results {
        phase.samples.extend(lat);
        phase.late.extend(late);
        phase.gates.merge(gates);
        phase.wall_s = phase.wall_s.max(done.duration_since(start).as_secs_f64());
        if let (Some(all), Some(log)) = (phase.spans.as_mut(), log) {
            let base = all.spans.len();
            let n = log.spans.len();
            all.absorb(log);
            phase.client_spans.extend(base..base + n);
        }
    }
    Ok(phase)
}

fn boot_reads(
    ctx: &Ctx,
    inputs: &ReadInputs,
    trace: Option<&Path>,
    gates: &mut Gates,
) -> Result<ServerProc, String> {
    let server = ServerProc::boot(ctx, 16, trace)?;
    preload(&mut server.connect()?, inputs, gates)?;
    Ok(server)
}

/// Throughput and latency as medians over the least-stolen half of the
/// phase's time windows, goodput over the whole phase; returns the
/// sample-count records.
fn read_latency_metrics(
    e2e: &mut Metrics,
    phase: &Phase,
    steal: &[u64],
    seconds: f64,
    limit_ms: f64,
) -> Vec<(String, Value)> {
    let windows = steal.len();
    let points: Vec<(f64, f64)> = phase
        .samples
        .iter()
        .map(|s| (s.done_s, s.latency_s * 1e3))
        .collect();
    let slices = steal::keep_quiet(&slices(&points, seconds, windows), steal);
    let width = seconds / windows as f64;
    let within = phase
        .samples
        .iter()
        .filter(|s| s.ok && s.latency_s * 1e3 <= limit_ms)
        .count();
    // Achieved reads per second, as the median over windows so that a
    // burst of outside load in a few windows does not move it.
    e2e.put(
        "ops_per_s",
        "1/s",
        windowed(&slices, |v| v.len() as f64 / width),
    );
    e2e.put(
        "latency_ms_p50",
        "ms",
        windowed(&slices, |v| percentile(v, 0.5)),
    );
    e2e.put(
        "latency_ms_tail",
        "ms",
        windowed(&slices, |v| percentile(v, TAIL)),
    );
    e2e.put(
        "goodput",
        "share",
        within as f64 / phase.samples.len().max(1) as f64,
    );
    vec![
        ("latency_ms_p50".into(), window_samples(&slices, 0.5)),
        ("latency_ms_tail".into(), window_samples(&slices, TAIL)),
        ("window_steal_ticks".into(), steal::value(steal)),
    ]
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut gates = Gates::default();
    let limit_ms = config::workload("serve-reads", &["limit_ms"]);
    let inputs = read_inputs(ctx)?;
    if !ctx.trace {
        let setups = if ctx.smoke { 2 } else { 15 };
        let mut setup_s = Vec::new();
        let mut booted = None;
        for _ in 0..setups {
            if let Some(server) = booted.take() {
                ServerProc::shutdown(server)?;
            }
            let t = Instant::now();
            booted = Some(boot_reads(ctx, &inputs, None, &mut gates)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let server = booted.ok_or("no set-up ran")?;
        let sampler = steal::Sampler::start();
        let mut phase = reads_phase(ctx, &server, &inputs, ctx.seconds, None)?;
        let windows = if ctx.smoke { 2 } else { WINDOWS };
        let steal = sampler.per_window(phase.start, ctx.seconds, windows);
        gates.merge(std::mem::take(&mut phase.gates));
        let rss = server.peak_rss_mb();
        server.shutdown()?;
        let mut e2e = Metrics::default();
        e2e.put("setup_s", "s", median(&setup_s));
        e2e.put("peak_rss_mb", "MB", rss);
        let scores: Vec<(&str, f64)> = inputs
            .models
            .iter()
            .map(|m| (m.model.family.as_str(), m.ari))
            .collect();
        e2e.put("quality_ari_mean", "ari", family_mean(&scores));
        let samples = read_latency_metrics(&mut e2e, &phase, &steal, ctx.seconds, limit_ms);
        return Ok(Outcome {
            gates,
            e2e,
            layers: Metrics::default(),
            spans: None,
            samples,
        });
    }

    // Traced run: an untraced half, then a half against a server under
    // its `--trace` sink with a client span per request.
    let half = ctx.seconds / 2.0;
    let server = boot_reads(ctx, &inputs, None, &mut gates)?;
    let mut plain = reads_phase(ctx, &server, &inputs, half, None)?;
    server.shutdown()?;
    gates.merge(std::mem::take(&mut plain.gates));
    let trace_path = ctx.out.join("server-trace-serve-reads.jsonl");
    let origin = Instant::now();
    let server = boot_reads(ctx, &inputs, Some(&trace_path), &mut gates)?;
    let mut traced = reads_phase(ctx, &server, &inputs, half, Some(origin))?;
    let stats = server_stats(&mut server.connect()?)?;
    server.shutdown()?;
    gates.merge(std::mem::take(&mut traced.gates));
    let trace = read_server_trace(&trace_path)?;
    let mut log = traced.spans.take().unwrap_or_else(|| SpanLog::new(origin));
    let outside = join_server_spans(&mut log, &traced.client_spans, &trace);
    let mut layer = Metrics::default();
    layers::counters(&mut layer, &trace.counters, traced.wall_s, ctx.threads);
    layer.put("serve.outside_share", "share", outside);
    layer.put("serve.evictions", "count", stats.evictions as f64);
    layer.put(
        "loadgen.late_ms_p99",
        "ms",
        percentile(&traced.late, 0.99) * 1e3,
    );
    let mean = |p: &Phase| p.wall_s / p.samples.len().max(1) as f64;
    layer.put(
        "telemetry.trace_overhead",
        "ratio",
        mean(&traced) / mean(&plain) - 1.0,
    );
    layers::probes(ctx, &mut layer, &mut log, Some(&stats), &mut gates)?;
    Ok(Outcome {
        gates,
        e2e: Metrics::default(),
        layers: layer,
        spans: Some(log),
        samples: Vec::new(),
    })
}
