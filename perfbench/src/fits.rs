//! `serve-fits`: open loop at a frozen rate over two connections, inline
//! `fit`s of 2k–8k rows with occasional `evict`s into a small, full
//! registry, so every insert evicts. Line read, JSON decode,
//! `Dataset::from_rows` and registry writes dominate. Latency runs from
//! each request's due time.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use serde::Value;

use crate::data::{Planted, Rng};
use crate::gates::{ari, family_mean, quality, Gates};
use crate::served::{
    doctor_response, is_ok, join_server_spans, read_server_trace, reference_fit, server_stats,
    solutions_json, solutions_text, wire_solutions, Conn, FitReq, ServerProc,
};
use crate::stats::{beyond, median, percentile, slices, Metrics, SpanLog};
use crate::{config, layers, steal, Ctx, Doctor, Outcome};

const FIT_FAMILIES: [&str; 3] = ["kmeans", "dec-kmeans", "orthogonal"];

/// Windows of the schedule (1.5 s each in a 30 s run). Latency
/// percentiles are taken over the fits due in the least-stolen half of
/// them: steal comes in bursts of about a second, and windows this
/// short find the gaps between bursts even when a run's steal is high.
/// A window holds about 40 fits at the frozen rate, too few for a p90 of
/// its own, so the kept windows are pooled (400 or more fits).
const WINDOWS: usize = 20;

/// Distinct datasets per family and size in the fit pool: enough that one
/// seed's iteration counts do not set a run's latency.
const POOL_VARIANTS: usize = 4;

/// The pool of distinct fit requests: every family at four sizes, each
/// on several datasets.
fn fit_pool(ctx: &Ctx) -> Vec<FitReq> {
    let sizes: [usize; 4] = if ctx.smoke {
        [200, 300, 400, 500]
    } else {
        [2000, 4000, 6000, 8000]
    };
    let mut pool = Vec::new();
    for family in FIT_FAMILIES {
        for &n in &sizes {
            for _ in 0..POOL_VARIANTS {
                let i = pool.len();
                let planted = Planted::generate(n, ctx.seed, &format!("fitpool-{i}"));
                pool.push(FitReq::new(
                    family,
                    3,
                    100 + i as u64,
                    planted,
                    family == "orthogonal",
                ));
            }
        }
    }
    pool
}

/// One scheduled request of the open loop.
#[derive(Clone, Debug)]
enum Planned {
    Fit { spec: usize, model: String },
    Evict { model: String },
}

/// The schedule: request `i` is due at `i / rate` seconds and goes out on
/// connection `i % 2`; one in ten is an `evict` of the model that
/// connection fitted last, when it has one live. Fits walk the pool in a
/// seeded order, so every run sends the same mix of families and sizes.
fn plan(seed: u64, count: usize, pool: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed, "schedule");
    let mut order: Vec<usize> = (0..pool).collect();
    for i in (1..pool).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut fits = 0;
    let mut live: [Option<String>; 2] = [None, None];
    (0..count)
        .map(|i| {
            let conn = i % 2;
            if rng.uniform() < 0.1 {
                if let Some(model) = live[conn].take() {
                    return Planned::Evict { model };
                }
            }
            let model = format!("c{conn}-{i}");
            live[conn] = Some(model.clone());
            fits += 1;
            Planned::Fit {
                spec: order[(fits - 1) % pool],
                model,
            }
        })
        .collect()
}

/// One request's timeline and response.
struct Sent {
    index: usize,
    late_s: f64,
    latency_s: f64,
    response: Result<String, String>,
}

/// What one open-loop phase scheduled, sent and traced.
struct FitsPhase {
    schedule: Vec<Planned>,
    /// Every request sent, in schedule order.
    sent: Vec<Sent>,
    /// From the first due time to the last completion.
    wall_s: f64,
    /// The first due time.
    start: Instant,
    spans: Option<SpanLog>,
    /// Indices of the `client.<op>` spans in `spans`.
    client_spans: Vec<usize>,
}

/// The sample-count record of a percentile over pooled windows.
fn pooled_samples(pooled: &[f64], p: f64, windows: usize) -> Value {
    Value::Object(vec![
        ("percentile".into(), Value::Float(p)),
        ("samples".into(), Value::Int(pooled.len() as i64)),
        ("beyond".into(), Value::Int(beyond(pooled, p) as i64)),
        ("windows_kept".into(), Value::Int(windows as i64)),
    ])
}

fn fits_phase(
    ctx: &Ctx,
    server: &ServerProc,
    pool: &[FitReq],
    rate: f64,
    seconds: f64,
    origin: Option<Instant>,
) -> Result<FitsPhase, String> {
    let count = ((rate * seconds).floor() as usize).max(2);
    let schedule = plan(ctx.seed, count, pool.len());
    let conns: Vec<Conn> = (0..2).map(|_| server.connect()).collect::<Result<_, _>>()?;
    let barrier = Barrier::new(3);
    let start_cell = std::sync::OnceLock::new();
    let results: Vec<(Vec<Sent>, Option<SpanLog>)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let (barrier, start_cell, schedule) = (&barrier, &start_cell, &schedule);
                s.spawn(move || {
                    let mut sent = Vec::new();
                    let mut log = origin.map(SpanLog::new);
                    barrier.wait();
                    let start: Instant = *start_cell.get_or_init(Instant::now);
                    for (i, planned) in schedule.iter().enumerate().skip(c).step_by(2) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let id = format!("f{i}");
                        let (line, op) = match planned {
                            Planned::Fit { spec, model } => (pool[*spec].line(model, &id), "fit"),
                            Planned::Evict { model } => (
                                format!(
                                    "{{\"op\":\"evict\",\"model\":\"{model}\",\"id\":\"{id}\"}}"
                                ),
                                "evict",
                            ),
                        };
                        let sent_at = Instant::now();
                        let response = conn.call(&line).map(str::to_string);
                        let done = Instant::now();
                        if let Some(log) = log.as_mut() {
                            let request =
                                log.between(&format!("request.{op}"), &id, None, due, done);
                            log.between(&format!("client.{op}"), &id, Some(request), sent_at, done);
                        }
                        let failed = response.is_err();
                        sent.push(Sent {
                            index: i,
                            late_s: sent_at.saturating_duration_since(due).as_secs_f64(),
                            latency_s: done.duration_since(due).as_secs_f64(),
                            response,
                        });
                        if failed {
                            break;
                        }
                    }
                    (sent, log)
                })
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let start = *start_cell.get().ok_or("no connection started")?;
    let mut all = Vec::new();
    let mut log = origin.map(SpanLog::new);
    let mut client_spans = Vec::new();
    for (sent, l) in results {
        all.extend(sent);
        if let (Some(all_log), Some(l)) = (log.as_mut(), l) {
            let base = all_log.spans.len();
            client_spans.extend(
                l.spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.name.starts_with("client."))
                    .map(|(i, _)| base + i),
            );
            all_log.absorb(l);
        }
    }
    all.sort_by_key(|s| s.index);
    // From the first due time to the last completion.
    let wall = all
        .iter()
        .map(|s| s.index as f64 / rate + s.latency_s)
        .fold(0.0, f64::max);
    Ok(FitsPhase {
        schedule,
        sent: all,
        wall_s: wall,
        start,
        spans: log,
        client_spans,
    })
}

/// Checks every response of a fits phase: each must be `ok`; the first
/// served fit of each pool request must match the in-process dispatch
/// byte for byte, and later ones the first, and clear its family's
/// quality floor. Returns the served ARI of each pool request seen.
fn check_fits(
    ctx: &Ctx,
    pool: &[FitReq],
    schedule: &[Planned],
    sent: &[Sent],
    gates: &mut Gates,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut first: HashMap<usize, String> = HashMap::new();
    let mut aris = Vec::new();
    let mut doctor = ctx.doctor == Some(Doctor::Response);
    for s in sent {
        let resp = match &s.response {
            Ok(r) => r,
            Err(e) => {
                gates.op(false, || format!("request {} failed: {e}", s.index));
                continue;
            }
        };
        match &schedule[s.index] {
            Planned::Evict { model } => gates.op(is_ok(resp), || {
                format!("evict of {model} failed: {}", &resp[..resp.len().min(200)])
            }),
            Planned::Fit { spec, .. } => {
                let doctored;
                let resp = if doctor {
                    doctor = false;
                    doctored = doctor_response(resp);
                    &doctored
                } else {
                    resp
                };
                if !is_ok(resp) {
                    gates.op(false, || {
                        format!("fit {} failed: {}", s.index, &resp[..resp.len().min(200)])
                    });
                    continue;
                }
                let text = solutions_text(resp).unwrap_or_default().to_string();
                match first.get(spec) {
                    Some(f) => gates.op(*f == text, || {
                        format!(
                            "fit {} labels differ from an earlier fit of the same request",
                            s.index
                        )
                    }),
                    None => {
                        let (_, reference) = reference_fit(&pool[*spec].line("ref", "ref"))?;
                        let expected: Vec<Vec<Option<usize>>> =
                            reference.iter().map(|c| c.assignments().to_vec()).collect();
                        gates.op(text == solutions_json(&expected), || {
                            format!("served fit of pool request {spec} differs from the in-process dispatch")
                        });
                        let v = serde_json::parse_value(resp)
                            .map_err(|e| format!("fit response: {e}"))?;
                        let labels = wire_solutions(&v).unwrap_or_default();
                        let score = labels
                            .iter()
                            .map(|l| ari(l, pool[*spec].target()))
                            .fold(f64::NEG_INFINITY, f64::max);
                        quality(
                            gates,
                            pool[*spec].family,
                            score,
                            &format!("served fit {}", s.index),
                        );
                        aris.push((pool[*spec].family, score));
                        first.insert(*spec, text);
                    }
                }
            }
        }
    }
    Ok(aris)
}

/// Boots the fits server and fills its registry, so every measured
/// insert evicts.
fn boot_fits(
    ctx: &Ctx,
    pool: &[FitReq],
    trace: Option<&Path>,
    gates: &mut Gates,
) -> Result<ServerProc, String> {
    let capacity = config::workload("serve-fits", &["capacity"]) as usize;
    let server = ServerProc::boot(ctx, capacity, trace)?;
    let mut conn = server.connect()?;
    for i in 0..capacity {
        let resp =
            conn.call(&pool[i % pool.len()].line(&format!("fill-{i}"), &format!("fill-{i}")))?;
        gates.op(is_ok(resp), || format!("registry fill {i} failed"));
    }
    Ok(server)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut gates = Gates::default();
    let limit_ms = config::workload("serve-fits", &["limit_ms"]);
    let rate = config::workload("serve-fits", &["rate_per_s"]);
    if !ctx.trace {
        let setups = if ctx.smoke { 2 } else { 7 };
        let mut setup_s = Vec::new();
        let mut booted = None;
        for _ in 0..setups {
            if let Some((server, _)) = booted.take() {
                ServerProc::shutdown(server)?;
            }
            let t = Instant::now();
            let pool = fit_pool(ctx);
            let server = boot_fits(ctx, &pool, None, &mut gates)?;
            setup_s.push(t.elapsed().as_secs_f64());
            booted = Some((server, pool));
        }
        let (server, pool) = booted.ok_or("no set-up ran")?;
        let sampler = steal::Sampler::start();
        let FitsPhase {
            schedule,
            sent,
            wall_s: wall,
            start,
            ..
        } = fits_phase(ctx, &server, &pool, rate, ctx.seconds, None)?;
        let rss = server.peak_rss_mb();
        server.shutdown()?;
        let aris = check_fits(ctx, &pool, &schedule, &sent, &mut gates)?;
        // Latency by due time, over the least-stolen half of the
        // schedule's windows.
        let fit_lat: Vec<(f64, f64)> = sent
            .iter()
            .filter(|s| matches!(schedule[s.index], Planned::Fit { .. }))
            .map(|s| (s.index as f64 / rate, s.latency_s * 1e3))
            .collect();
        let windows = if ctx.smoke { 2 } else { WINDOWS };
        let span_s = schedule.len() as f64 / rate;
        let steal = sampler.per_window(start, span_s, windows);
        let kept = steal::keep_quiet(&slices(&fit_lat, span_s, windows), &steal);
        let pooled = kept.concat();
        let within = sent
            .iter()
            .filter(|s| {
                s.response.as_ref().is_ok_and(|r| is_ok(r)) && s.latency_s * 1e3 <= limit_ms
            })
            .count();
        let mut e2e = Metrics::default();
        e2e.put("setup_s", "s", median(&setup_s));
        e2e.put("peak_rss_mb", "MB", rss);
        e2e.put("quality_ari_mean", "ari", family_mean(&aris));
        // Achieved rate: successful completions from the first due time to
        // the last response. It equals the offered rate while the server
        // keeps up and falls below it once the server saturates or fails,
        // so on this open loop it is a saturation check.
        let completed = sent
            .iter()
            .filter(|s| s.response.as_ref().is_ok_and(|r| is_ok(r)))
            .count();
        e2e.put("ops_per_s", "1/s", completed as f64 / wall);
        e2e.put("latency_ms_p50", "ms", percentile(&pooled, 0.5));
        e2e.put("latency_ms_tail", "ms", percentile(&pooled, 0.9));
        e2e.put("goodput", "share", within as f64 / schedule.len() as f64);
        gates.op(sent.len() == schedule.len(), || {
            format!(
                "{} of {} scheduled requests sent",
                sent.len(),
                schedule.len()
            )
        });
        let late: Vec<f64> = sent.iter().map(|s| s.late_s * 1e3).collect();
        let samples = vec![
            (
                "latency_ms_p50".into(),
                pooled_samples(&pooled, 0.5, kept.len()),
            ),
            (
                "latency_ms_tail".into(),
                pooled_samples(&pooled, 0.9, kept.len()),
            ),
            ("rate_per_s".into(), Value::Float(rate)),
            ("window_steal_ticks".into(), steal::value(&steal)),
            (
                "loadgen_late_ms_p99".into(),
                Value::Float(percentile(&late, 0.99)),
            ),
        ];
        return Ok(Outcome {
            gates,
            e2e,
            layers: Metrics::default(),
            spans: None,
            samples,
        });
    }

    let half = ctx.seconds / 2.0;
    let pool = fit_pool(ctx);
    let server = boot_fits(ctx, &pool, None, &mut gates)?;
    let plain = fits_phase(ctx, &server, &pool, rate, half, None)?;
    server.shutdown()?;
    check_fits(ctx, &pool, &plain.schedule, &plain.sent, &mut gates)?;
    let trace_path = ctx.out.join("server-trace-serve-fits.jsonl");
    let origin = Instant::now();
    let server = boot_fits(ctx, &pool, Some(&trace_path), &mut gates)?;
    let FitsPhase {
        schedule,
        sent: traced,
        wall_s: wall,
        spans: log,
        client_spans,
        ..
    } = fits_phase(ctx, &server, &pool, rate, half, Some(origin))?;
    let stats = server_stats(&mut server.connect()?)?;
    server.shutdown()?;
    check_fits(ctx, &pool, &schedule, &traced, &mut gates)?;
    let trace = read_server_trace(&trace_path)?;
    let mut log = log.unwrap_or_else(|| SpanLog::new(origin));
    let outside = join_server_spans(&mut log, &client_spans, &trace);
    let mut layer = Metrics::default();
    layers::counters(&mut layer, &trace.counters, wall, ctx.threads);
    layer.put("serve.outside_share", "share", outside);
    layer.put("serve.evictions", "count", stats.evictions as f64);
    let late: Vec<f64> = traced.iter().map(|s| s.late_s).collect();
    layer.put("loadgen.late_ms_p99", "ms", percentile(&late, 0.99) * 1e3);
    let p50 = |v: &[Sent]| median(&v.iter().map(|s| s.latency_s).collect::<Vec<_>>());
    layer.put(
        "telemetry.trace_overhead",
        "ratio",
        p50(&traced) / p50(&plain.sent) - 1.0,
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

/// Single-connection closed-loop capacity of the serve-fits mix, and the
/// open-loop rate at 60% of it: how `rate_per_s` in bench.json is chosen.
pub fn calibrate(ctx: &Ctx) -> Result<String, String> {
    let mut gates = Gates::default();
    let pool = fit_pool(ctx);
    let server = boot_fits(ctx, &pool, None, &mut gates)?;
    let mut conn = server.connect()?;
    let schedule = plan(ctx.seed, 100_000, pool.len());
    let start = Instant::now();
    let mut done = 0usize;
    let mut lat = Vec::new();
    for (i, planned) in schedule.iter().enumerate().step_by(2) {
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let line = match planned {
            Planned::Fit { spec, model } => pool[*spec].line(model, &format!("c{i}")),
            Planned::Evict { model } => {
                format!("{{\"op\":\"evict\",\"model\":\"{model}\",\"id\":\"c{i}\"}}")
            }
        };
        let t = Instant::now();
        let resp = conn.call(&line)?;
        gates.op(is_ok(resp), || format!("calibration request {i} failed"));
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        done += 1;
    }
    let capacity = done as f64 / start.elapsed().as_secs_f64();
    server.shutdown()?;
    if gates.failed > 0 {
        return Err(gates.reasons.join("; "));
    }
    Ok(format!(
        "{{\"single_connection_per_s\":{capacity},\"rate_at_60pct\":{},\"closed_loop_ms_p50\":{},\"closed_loop_ms_p90\":{}}}",
        0.6 * capacity,
        percentile(&lat, 0.5),
        percentile(&lat, 0.9)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_seeded_and_evicts_only_live_models() {
        let a = plan(3, 500, 12);
        let b = plan(3, 500, 12);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let mut live: [Option<String>; 2] = [None, None];
        let mut evicts = 0;
        for (i, p) in a.iter().enumerate() {
            match p {
                Planned::Fit { model, .. } => live[i % 2] = Some(model.clone()),
                Planned::Evict { model } => {
                    assert_eq!(live[i % 2].take().as_deref(), Some(model.as_str()));
                    evicts += 1;
                }
            }
        }
        assert!(evicts > 20 && evicts < 80, "{evicts} evicts");
    }
}
