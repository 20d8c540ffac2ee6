//! Per-layer measurements for traced runs: the program's own telemetry
//! counters from the workload, plus timed calls into each layer's public
//! functions at the shapes the workloads use. Every call runs under a
//! benchmark-side span.

use std::collections::BTreeMap;
use std::io::Cursor;

use multiclust::alternative::Coala;
use multiclust::core::measures::diss::{
    adjusted_rand_index, jaccard_index, normalized_mutual_information, rand_index,
    variation_of_information,
};
use multiclust::core::{Clustering, ConstraintSet};
use multiclust::data::Dataset;
use multiclust::linalg::kernels::{self, NearestAssign};
use multiclust::linalg::{Matrix, SymmetricEigen};
use multiclust::serve::protocol::{parse_request, read_line_bounded, BoundedLine};
use multiclust::serve::{FitSpec, FittedModel, ModelRegistry};
use serde::Value;

use crate::data::{Planted, D, VIEW_A, VIEW_B};
use crate::gates::Gates;
use crate::served::{self, FitReq, ServerStats};
use crate::stats::{median, time_median, time_per_call, Metrics, SpanLog};
use crate::Ctx;

/// VmHWM of the process whose `/proc/<pid>/status` is at `path`, in MB.
pub fn peak_rss_mb(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn self_peak_rss_mb() -> f64 {
    peak_rss_mb("/proc/self/status")
}

/// Layer counters from a workload's telemetry: kernel work, solver
/// iterations, assignment pruning and worker busy time.
pub fn counters(layer: &mut Metrics, c: &BTreeMap<String, u64>, wall_s: f64, threads: usize) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    layer.put("kernels.exact", "count", get("kernels.exact"));
    layer.put("kernels.flops", "count", get("kernels.flops"));
    layer.put(
        "kernels.bytes_touched",
        "bytes",
        get("kernels.bytes_touched"),
    );
    let (skipped, scanned) = (get("kernels.assign.skipped"), get("kernels.assign.scanned"));
    let attempts = skipped + scanned;
    layer.put(
        "linalg.assign.prune_ratio",
        "ratio",
        if attempts > 0.0 {
            skipped / attempts
        } else {
            0.0
        },
    );
    layer.put("kmeans.iterations", "count", get("kmeans.iterations"));
    layer.put(
        "dec_kmeans.iterations",
        "count",
        get("dec_kmeans.iterations"),
    );
    layer.put("power.iterations", "count", get("power.iterations"));
    let busy: u64 = c
        .iter()
        .filter(|(k, _)| k.starts_with("parallel.worker.") && k.ends_with(".busy_ns"))
        .map(|(_, v)| *v)
        .sum();
    layer.put(
        "parallel.busy_share",
        "share",
        busy as f64 / (wall_s * 1e9 * threads as f64),
    );
}

/// Mean pairwise distance over a 32-row prefix: the bandwidth rule the
/// harness adapters use for spectral affinities.
fn sigma(rows: &[Vec<f64>]) -> f64 {
    let m = rows.len().min(32);
    let (mut sum, mut count) = (0.0, 0u32);
    for i in 0..m {
        for j in (i + 1)..m {
            sum += rows[i]
                .iter()
                .zip(&rows[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            count += 1;
        }
    }
    if count == 0 || sum == 0.0 {
        1.0
    } else {
        sum / f64::from(count)
    }
}

/// The matrix multi-view spectral clustering decomposes for views A and
/// B: the mean of each view's degree-normalised Gaussian affinity.
fn combined_affinity(p: &Planted) -> Matrix {
    let n = p.len();
    let mut combined = Matrix::zeros(n, n);
    for view in [VIEW_A, VIEW_B] {
        let rows: Vec<Vec<f64>> = p
            .rows
            .iter()
            .map(|r| view.iter().map(|&d| r[d]).collect())
            .collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let w = kernels::gaussian_affinity_matrix(view.len(), &flat, 2.0 * sigma(&rows).powi(2));
        let dinv: Vec<f64> = (0..n)
            .map(|i| {
                let deg: f64 = (0..n).map(|j| w[(i, j)]).sum();
                if deg > 0.0 {
                    1.0 / deg.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        for i in 0..n {
            for j in 0..n {
                combined[(i, j)] += 0.5 * dinv[i] * w[(i, j)] * dinv[j];
            }
        }
    }
    combined
}

/// Rows of 16 dims: two planted rows side by side.
fn wide_rows(p: &Planted) -> Vec<f64> {
    p.rows
        .chunks(2)
        .filter(|c| c.len() == 2)
        .flat_map(|c| c[0].iter().chain(&c[1]).copied())
        .collect()
}

fn assign_pass_us(d: usize, flat: &[f64], reps: usize) -> f64 {
    let n = flat.len() / d;
    let norms = kernels::sq_norms(d, flat);
    let centers: Vec<Vec<f64>> = (0..3)
        .map(|c| flat[c * 97 * d..(c * 97 + 1) * d].to_vec())
        .collect();
    time_median(reps, || {
        let mut a = NearestAssign::new(n);
        a.assign(d, flat, &norms, &centers)
    }) * 1e6
}

/// Runs every layer probe and appends its metric; `workload_stats` are the
/// workload server's own `stats`, preferred over the probe session for
/// ops the workload ran at least ten times.
pub fn probes(
    ctx: &Ctx,
    layer: &mut Metrics,
    log: &mut SpanLog,
    workload_stats: Option<&ServerStats>,
    gates: &mut Gates,
) -> Result<(), String> {
    let small = ctx.smoke;
    let reps = if small { 3 } else { 9 };
    let budget = if small { 0.02 } else { 0.2 };

    // linalg
    let coala_p = Planted::generate(if small { 60 } else { 400 }, ctx.seed, "coala-0");
    let coala_flat = coala_p.flat();
    let t = log.time("probe.linalg.sq_dist_matrix", "probe", None, || {
        time_median(reps, || kernels::sq_dist_matrix(D, &coala_flat))
    });
    layer.put("linalg.sq_dist_matrix_ms", "ms", t * 1e3);
    let spectral_p = Planted::generate(if small { 150 } else { 2000 }, ctx.seed, "spectral-0");
    let spectral_flat = spectral_p.flat();
    let denom = 2.0 * sigma(&spectral_p.rows).powi(2);
    let t = log.time("probe.linalg.affinity", "probe", None, || {
        time_median(reps.min(5), || {
            kernels::gaussian_affinity_matrix(D, &spectral_flat, denom)
        })
    });
    layer.put("linalg.affinity_ms", "ms", t * 1e3);
    let mv_p = Planted::generate(if small { 60 } else { 400 }, ctx.seed, "multiview-0");
    let combined = combined_affinity(&mv_p);
    let t = log.time("probe.linalg.eigen", "probe", None, || {
        time_median(if small { 1 } else { 3 }, || SymmetricEigen::new(&combined))
    });
    layer.put("linalg.eigen_ms", "ms", t * 1e3);
    let km_p = Planted::generate(if small { 2000 } else { 50_000 }, ctx.seed, "kmeans-0");
    let km_flat = km_p.flat();
    let t = log.time("probe.linalg.assign_d8", "probe", None, || {
        assign_pass_us(D, &km_flat, reps + 2)
    });
    layer.put("linalg.assign_pass_us.d8", "us", t);
    let wide = wide_rows(&km_p);
    let t = log.time("probe.linalg.assign_d16", "probe", None, || {
        assign_pass_us(2 * D, &wide, reps + 2)
    });
    layer.put("linalg.assign_pass_us.d16", "us", t);

    // parallel
    let speedup = log.time("probe.parallel.speedup", "probe", None, || {
        multiclust::parallel::set_threads(1);
        let one = time_median(reps.min(5), || kernels::sq_dist_matrix(D, &spectral_flat));
        multiclust::parallel::set_threads(ctx.threads);
        let all = time_median(reps.min(5), || kernels::sq_dist_matrix(D, &spectral_flat));
        one / all
    });
    layer.put("parallel.speedup", "x", speedup);

    // alternative / core
    let coala_data = Dataset::from_rows(&coala_p.rows);
    let given = Clustering::from_labels(&coala_p.truth_a);
    let (secs, result) = log.time("probe.coala.fit", "probe", None, || {
        let t = std::time::Instant::now();
        let r = Coala::new(3, 1.0).fit(&coala_data, &given);
        (t.elapsed().as_secs_f64(), r)
    });
    let merges = (result.quality_merges + result.dissimilarity_merges) as f64;
    layer.put("coala.merges", "count", merges);
    layer.put("coala.ms_per_merge", "ms", secs * 1e3 / merges.max(1.0));
    let constraints = ConstraintSet::cannot_links_from(&given);
    layer.put(
        "constraints.cannot_links",
        "count",
        constraints.num_cannot() as f64,
    );
    // Two groups from different view-A clusters: no cannot-link spans
    // them, so the check visits all |a|·|b| pairs, as an allowed merge does.
    let group = |label: usize| -> Vec<usize> {
        coala_p
            .truth_a
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == label)
            .map(|(i, _)| i)
            .take(20)
            .collect()
    };
    let (ga, gb) = (group(0), group(1));
    gates.op(constraints.allows_merge(&ga, &gb), || {
        "probe groups must be mergeable".into()
    });
    let t = log.time("probe.constraints.allows_merge", "probe", None, || {
        time_per_call(200, budget, || constraints.allows_merge(&ga, &gb))
    });
    layer.put("constraints.allows_merge_ns", "ns", t * 1e9);
    let reads_p = Planted::generate(if small { 300 } else { 2000 }, ctx.seed, "preload");
    let (ca, cb) = (
        Clustering::from_labels(&reads_p.truth_a),
        Clustering::from_labels(&reads_p.truth_b),
    );
    let t = log.time("probe.measures.compare", "probe", None, || {
        time_per_call(10, budget, || {
            [
                rand_index(&ca, &cb),
                adjusted_rand_index(&ca, &cb),
                jaccard_index(&ca, &cb),
                normalized_mutual_information(&ca, &cb),
                variation_of_information(&ca, &cb),
            ]
        })
    });
    layer.put("measures.compare_us", "us", t * 1e6);

    // data
    let fit_p = Planted::generate(if small { 500 } else { 8000 }, ctx.seed, "fitpool-12");
    let mb = (fit_p.len() * D * 8) as f64 / 1e6;
    let t = log.time("probe.data.from_rows", "probe", None, || {
        time_median(reps, || Dataset::from_rows(&fit_p.rows))
    });
    layer.put("data.from_rows_ms_per_mb", "ms/MB", t * 1e3 / mb);

    // serve: codec, registry and model, in process
    let fit_line = FitReq::new("kmeans", 3, 1, fit_p.clone(), false).line("m", "probe");
    let line_mb = fit_line.len() as f64 / 1e6;
    let framed = format!("{fit_line}\n");
    let t = log.time("probe.serve.read", "probe", None, || {
        time_median(reps, || {
            let mut cursor = Cursor::new(framed.as_bytes());
            matches!(
                read_line_bounded(&mut cursor, usize::MAX, &|| false),
                Ok(BoundedLine::Line(_))
            )
        })
    });
    layer.put("serve.read_ms_per_mb", "ms/MB", t * 1e3 / line_mb);
    let t = log.time("probe.serve.decode_fit", "probe", None, || {
        time_median(reps, || parse_request(&fit_line))
    });
    layer.put("serve.decode_ms_per_mb", "ms/MB", t * 1e3 / line_mb);
    let block = Planted::generate(16, ctx.seed, "probe-assign");
    let block_data = Dataset::from_rows(&block.rows);
    let assign_line = {
        let rows: Vec<String> = block
            .rows
            .iter()
            .map(|r| {
                format!(
                    "[{}]",
                    r.iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect();
        format!(
            "{{\"op\":\"assign\",\"model\":\"m3\",\"data\":[{}],\"id\":\"t0-1\"}}",
            rows.join(",")
        )
    };
    let t = log.time("probe.serve.decode_assign", "probe", None, || {
        time_per_call(20, budget, || parse_request(&assign_line))
    });
    layer.put("serve.decode_us", "us", t * 1e6);
    let reads_data = Dataset::from_rows(&reads_p.rows);
    let model = |i: usize| {
        FittedModel::new(
            format!("m{i}"),
            "kmeans".into(),
            3,
            i as u64,
            &reads_data,
            vec![cb.clone()],
        )
    };
    let assigned = model(3).assign(&block_data);
    let response = Value::Object(vec![
        (
            "schema".into(),
            Value::String(multiclust::serve::SCHEMA.into()),
        ),
        ("id".into(), Value::String("t0-1".into())),
        ("ok".into(), Value::Bool(true)),
        ("op".into(), Value::String("assign".into())),
        ("model".into(), Value::String("m3".into())),
        ("n".into(), Value::Int(16)),
        (
            "solutions".into(),
            Value::Array(
                assigned
                    .iter()
                    .map(|s| {
                        Value::Array(
                            s.iter()
                                .map(|l| Value::Int(l.map_or(-1, |x| x as i64)))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let t = log.time("probe.serve.encode", "probe", None, || {
        time_per_call(20, budget, || {
            serde_json::to_string(&response)
                .map(|s| s.len())
                .unwrap_or(0)
        })
    });
    layer.put("serve.encode_us", "us", t * 1e6);
    let mut registry = ModelRegistry::new(16);
    for i in 0..8 {
        registry.insert(model(i));
    }
    let t = log.time("probe.serve.registry_touch", "probe", None, || {
        time_per_call(100, budget, || registry.touch("m3").map(|m| m.n))
    });
    layer.put("serve.registry_touch_us", "us", t * 1e6);
    let mut full = ModelRegistry::new(4);
    for i in 0..4 {
        full.insert(model(i));
    }
    let spare = model(9);
    let batch = 32;
    let mut insert_s = Vec::new();
    log.time("probe.serve.registry_insert", "probe", None, || {
        for round in 0..if small { 3 } else { 9 } {
            let mut fresh: Vec<FittedModel> = (0..batch)
                .map(|i| {
                    let mut m = spare.clone();
                    m.name = format!("x{round}-{i}");
                    m
                })
                .collect();
            let t = std::time::Instant::now();
            for m in fresh.drain(..) {
                std::hint::black_box(full.insert(m));
            }
            insert_s.push(t.elapsed().as_secs_f64() / batch as f64);
        }
    });
    layer.put("serve.registry_insert_us", "us", median(&insert_s) * 1e6);
    let m3 = model(3);
    let t = log.time("probe.serve.model_assign", "probe", None, || {
        time_per_call(50, budget, || m3.assign(&block_data))
    });
    layer.put("serve.model_assign_us", "us", t * 1e6);

    // harness: the served fit dispatch at a mid served shape
    let dispatch = multiclust::harness::fit_dispatch();
    let served_p = Planted::generate(if small { 300 } else { 5000 }, ctx.seed, "dispatch");
    for family in ["kmeans", "dec-kmeans", "orthogonal"] {
        let n = served_p.len();
        let spec = FitSpec {
            family: family.to_string(),
            data: Dataset::from_rows(&served_p.rows),
            given: if family == "orthogonal" {
                Clustering::from_labels(&served_p.truth_a)
            } else {
                Clustering::from_labels(&vec![0; n])
            },
            view_groups: vec![(0..D).collect()],
            k: 3,
            seed: 5,
        };
        let t = log.time(
            &format!("probe.harness.dispatch.{family}"),
            "probe",
            None,
            || {
                time_median(if small { 1 } else { 5 }, || {
                    dispatch(&spec).map(|s| s.len())
                })
            },
        );
        layer.put(format!("harness.dispatch_ms.{family}"), "ms", t * 1e3);
    }

    // serve: server-side per-op time
    let (probe_stats, probe_outside) = log.time("probe.serve.session", "probe", None, || {
        served::probe_session(ctx, gates)
    })?;
    for op in ["fit", "assign", "compare", "list", "evict"] {
        let own = workload_stats
            .and_then(|s| s.p50_ms.get(op))
            .filter(|s| s.1 >= 10);
        let p50 = own
            .or_else(|| probe_stats.p50_ms.get(op))
            .map_or(0.0, |s| s.0);
        layer.put(format!("serve.server_ms_p50.{op}"), "ms", p50);
    }
    if layer.get("serve.outside_share").is_none() {
        layer.put("serve.outside_share", "share", probe_outside);
    }
    if layer.get("serve.evictions").is_none() {
        layer.put("serve.evictions", "count", 0.0);
    }
    Ok(())
}
