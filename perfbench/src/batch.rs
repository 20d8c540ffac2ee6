//! `paper-batch`: one in-process caller fits each family of the paper's
//! workloads through the same `multiclust_harness::families` adapters that
//! `serve` dispatches to. The algorithm and kernel layers do the work here;
//! the service layers do none.

use std::time::Instant;

use multiclust::core::Clustering;
use multiclust::data::Dataset;
use multiclust::harness::{all_families, AlgorithmFamily, FitInput};
use serde::Value;

use crate::data::{Planted, D, VIEW_A, VIEW_B};
use crate::gates::{ari, family_mean, quality, Gates};
use crate::stats::{beyond, geomean, median, percentile, Metrics, SpanLog};
use crate::{config, layers, steal, Ctx, Doctor, Outcome};

/// Which planted labeling a family's output is scored against.
#[derive(Clone, Copy, Debug)]
pub enum Target {
    /// View B, the dominant view; for alternative methods given A it is
    /// also the alternative.
    B,
    /// Views A and B combined (3 × 3 = 9 clusters).
    Joint,
}

/// One family of the batch at its paper shape.
pub struct Job {
    pub family: &'static str,
    pub n: usize,
    pub smoke_n: usize,
    pub k: usize,
    /// Fit against view A's truth as the given clustering.
    pub given_a: bool,
    /// Fit with views A and B as attribute groups.
    pub views: bool,
    pub target: Target,
    /// Distinct datasets per run: several for the fast families, so one
    /// seed's iteration count does not set the whole run's time.
    pub datasets: usize,
    /// Fits per dataset per round.
    pub reps: usize,
    /// Counted in the workload's tail. Only the fast families fit often
    /// enough for their p75 to have 10 or more fits beyond it in a run;
    /// one fit of the others takes seconds.
    pub tail: bool,
}

pub const JOBS: [Job; 6] = [
    Job {
        family: "coala",
        n: 400,
        smoke_n: 60,
        k: 3,
        given_a: true,
        views: false,
        target: Target::B,
        datasets: 1,
        reps: 1,
        tail: false,
    },
    Job {
        family: "multiview",
        n: 400,
        smoke_n: 60,
        k: 9,
        given_a: false,
        views: true,
        target: Target::Joint,
        datasets: 1,
        reps: 1,
        tail: false,
    },
    Job {
        family: "spectral",
        n: 2000,
        smoke_n: 150,
        k: 3,
        given_a: false,
        views: false,
        target: Target::B,
        datasets: 1,
        reps: 1,
        tail: false,
    },
    Job {
        family: "kmeans",
        n: 50_000,
        smoke_n: 2000,
        k: 3,
        given_a: false,
        views: false,
        target: Target::B,
        datasets: 16,
        reps: 2,
        tail: true,
    },
    Job {
        family: "dec-kmeans",
        n: 30_000,
        smoke_n: 2000,
        k: 3,
        given_a: false,
        views: false,
        target: Target::B,
        datasets: 16,
        reps: 2,
        tail: true,
    },
    Job {
        family: "orthogonal",
        n: 10_000,
        smoke_n: 1000,
        k: 3,
        given_a: true,
        views: false,
        target: Target::B,
        datasets: 16,
        reps: 2,
        tail: true,
    },
];

/// Rounds every run makes, whatever its length: enough that each heavy
/// family's median is over three fits and each tail family's p75, over
/// its least-stolen half of 96 fits, has at least 12 fits beyond it.
const MIN_ROUNDS: usize = 3;

/// The percentile of the workload's tail metric.
const TAIL: f64 = 0.75;

/// One generated input of a job.
pub struct Input {
    pub planted: Planted,
    pub data: Dataset,
    pub given: Clustering,
    pub views: Vec<Vec<usize>>,
}

impl Input {
    pub fn new(job: &Job, n: usize, seed: u64, stream: &str) -> Self {
        let planted = Planted::generate(n, seed, stream);
        let data = Dataset::from_rows(&planted.rows);
        let given = if job.given_a {
            Clustering::from_labels(&planted.truth_a)
        } else {
            Clustering::from_labels(&vec![0; n])
        };
        let views = if job.views {
            vec![VIEW_A.to_vec(), VIEW_B.to_vec()]
        } else {
            vec![(0..D).collect()]
        };
        Self {
            planted,
            data,
            given,
            views,
        }
    }

    pub fn target(&self, t: Target) -> Vec<usize> {
        match t {
            Target::B => self.planted.truth_b.clone(),
            Target::Joint => self
                .planted
                .truth_a
                .iter()
                .zip(&self.planted.truth_b)
                .map(|(a, b)| a * 3 + b)
                .collect(),
        }
    }
}

/// Generates every input of the batch: the workload's set-up.
fn setup(ctx: &Ctx) -> Vec<Vec<Input>> {
    JOBS.iter()
        .map(|job| {
            let n = if ctx.smoke { job.smoke_n } else { job.n };
            (0..job.datasets)
                .map(|d| Input::new(job, n, ctx.seed, &format!("{}-{d}", job.family)))
                .collect()
        })
        .collect()
}

/// The fit seed of a job's dataset: fixed per run, so repetitions must
/// reproduce their labels exactly.
fn fit_seed(seed: u64, dataset: usize) -> u64 {
    seed.wrapping_mul(31).wrapping_add(dataset as u64 + 7)
}

/// Best ARI of any solution of a fit against the target labeling.
pub fn best_ari(solutions: &[Clustering], target: &[usize]) -> f64 {
    solutions
        .iter()
        .map(|c| ari(c.assignments(), target))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// One fit's solutions as labels.
type Labels = Vec<Vec<Option<usize>>>;

/// Per-family fit times and the gates of a sequence of rounds.
struct Rounds {
    times: Vec<Vec<f64>>,
    /// Host steal ticks during each fit of `times`.
    steal: Vec<Vec<u64>>,
    round_s: Vec<f64>,
    /// Gap between one fit's end and the next one's start.
    gaps: Vec<f64>,
    ari: Vec<(&'static str, f64)>,
}

impl Rounds {
    /// Each family's fit times over the least-stolen half of its fits.
    fn quiet_times(&self) -> Vec<Vec<f64>> {
        self.times
            .iter()
            .zip(&self.steal)
            .map(|(times, steal)| steal::keep_quiet(times, steal))
            .collect()
    }
}

fn fit_rounds(
    ctx: &Ctx,
    inputs: &[Vec<Input>],
    families: &[Box<dyn AlgorithmFamily>],
    seconds: f64,
    min_rounds: usize,
    gates: &mut Gates,
    mut spans: Option<&mut SpanLog>,
) -> Rounds {
    let mut out = Rounds {
        times: vec![Vec::new(); JOBS.len()],
        steal: vec![Vec::new(); JOBS.len()],
        round_s: Vec::new(),
        gaps: Vec::new(),
        ari: Vec::new(),
    };
    let mut first: Vec<Vec<Option<Labels>>> =
        inputs.iter().map(|ins| vec![None; ins.len()]).collect();
    let start = Instant::now();
    let mut last_end: Option<Instant> = None;
    let mut round = 0;
    // After `min_rounds`, a round starts only if a round of the median
    // length so far still ends within `seconds`.
    while round < min_rounds || start.elapsed().as_secs_f64() + median(&out.round_s) <= seconds {
        let round_start = Instant::now();
        let round_span = spans
            .as_deref_mut()
            .map(|log| log.open("round", &format!("r{round}"), None));
        for (j, job) in JOBS.iter().enumerate() {
            let family = families
                .iter()
                .find(|f| f.name() == job.family)
                .expect("family is registered");
            for rep in 0..job.reps {
                for (d, input) in inputs[j].iter().enumerate() {
                    let fit_input = FitInput {
                        data: &input.data,
                        given: &input.given,
                        view_groups: &input.views,
                        k: job.k,
                        seed: fit_seed(ctx.seed, d),
                    };
                    let stolen = steal::ticks();
                    let t = Instant::now();
                    if let Some(end) = last_end {
                        out.gaps.push(t.duration_since(end).as_secs_f64());
                    }
                    let solutions = family.fit(&fit_input);
                    let secs = t.elapsed().as_secs_f64();
                    last_end = Some(Instant::now());
                    out.times[j].push(secs);
                    out.steal[j].push(steal::ticks().zip(stolen).map_or(0, |(b, a)| b - a));
                    let id = format!("r{round}/{}/{d}/{rep}", job.family);
                    if let Some(log) = spans.as_deref_mut() {
                        log.record(&format!("fit.{}", job.family), &id, round_span, t);
                    }
                    let mut labels: Labels =
                        solutions.iter().map(|c| c.assignments().to_vec()).collect();
                    if ctx.doctor == Some(Doctor::Label)
                        && job.family == "kmeans"
                        && rep == 1
                        && d == 0
                    {
                        if let Some(l) = labels[0].first_mut() {
                            *l = l.map(|x| (x + 1) % job.k);
                        }
                    }
                    match &first[j][d] {
                        None => {
                            let target = input.target(job.target);
                            let score = best_ari(&solutions, &target);
                            out.ari.push((job.family, score));
                            quality(gates, job.family, score, &format!("dataset {d}"));
                            first[j][d] = Some(labels);
                        }
                        Some(reference) => gates.op(*reference == labels, || {
                            format!(
                                "{} dataset {d}: labels differ between repetitions",
                                job.family
                            )
                        }),
                    }
                }
            }
        }
        let secs = round_start.elapsed().as_secs_f64();
        if let (Some(log), Some(i)) = (spans.as_deref_mut(), round_span) {
            log.close(i);
        }
        out.round_s.push(secs);
        round += 1;
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let families = all_families();
    let mut gates = Gates::default();
    let setups = if ctx.smoke { 2 } else { 5 };
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..setups {
        let t = Instant::now();
        inputs = setup(ctx);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let min_rounds = if ctx.smoke { 1 } else { MIN_ROUNDS };
    let mut samples = Vec::new();
    if !ctx.trace {
        let r = fit_rounds(
            ctx,
            &inputs,
            &families,
            ctx.seconds,
            min_rounds,
            &mut gates,
            None,
        );
        let quiet = r.quiet_times();
        let med: Vec<f64> = quiet.iter().map(|t| median(t)).collect();
        let p75: Vec<f64> = JOBS
            .iter()
            .zip(&quiet)
            .filter(|(job, _)| job.tail)
            .map(|(_, t)| percentile(t, TAIL))
            .collect();
        let mut within = 0usize;
        let mut total = 0usize;
        for ((job, times), kept) in JOBS.iter().zip(&r.times).zip(&quiet) {
            let limit_s = config::workload("paper-batch", &["limit_ms", job.family]) / 1e3;
            within += times.iter().filter(|&&t| t <= limit_s).count();
            total += times.len();
            samples.push((
                format!("fit.{}", job.family),
                Value::Object(vec![
                    ("fits".into(), Value::Int(times.len() as i64)),
                    ("least_stolen".into(), Value::Int(kept.len() as i64)),
                    ("median_s".into(), Value::Float(median(kept))),
                    ("p75_s".into(), Value::Float(percentile(kept, TAIL))),
                    ("beyond_p75".into(), Value::Int(beyond(kept, TAIL) as i64)),
                    ("in_tail".into(), Value::Bool(job.tail)),
                    (
                        "ari_min".into(),
                        Value::Float(
                            r.ari
                                .iter()
                                .filter(|(f, _)| *f == job.family)
                                .map(|(_, a)| *a)
                                .fold(f64::INFINITY, f64::min),
                        ),
                    ),
                ]),
            ));
        }
        let mut e2e = Metrics::default();
        e2e.put("setup_s", "s", median(&setup_s));
        e2e.put("peak_rss_mb", "MB", layers::self_peak_rss_mb());
        e2e.put("quality_ari_mean", "ari", family_mean(&r.ari));
        e2e.put(
            "ops_per_s",
            "1/s",
            JOBS.len() as f64 / med.iter().sum::<f64>(),
        );
        e2e.put("latency_ms_p50", "ms", geomean(&med) * 1e3);
        e2e.put("latency_ms_tail", "ms", geomean(&p75) * 1e3);
        e2e.put("goodput", "share", within as f64 / total as f64);
        samples.push(("rounds".into(), Value::Int(r.round_s.len() as i64)));
        return Ok(Outcome {
            gates,
            e2e,
            layers: Metrics::default(),
            spans: None,
            samples,
        });
    }

    // Traced run: half the time untraced, half with the program's
    // telemetry on and benchmark spans around every fit.
    let origin = Instant::now();
    let plain = fit_rounds(
        ctx,
        &inputs,
        &families,
        ctx.seconds / 2.0,
        1,
        &mut gates,
        None,
    );
    multiclust::telemetry::reset();
    multiclust::telemetry::set_enabled(true);
    let mut log = SpanLog::new(origin);
    let traced_start = Instant::now();
    let traced = fit_rounds(
        ctx,
        &inputs,
        &families,
        ctx.seconds / 2.0,
        1,
        &mut gates,
        Some(&mut log),
    );
    let traced_wall = traced_start.elapsed().as_secs_f64();
    multiclust::telemetry::set_enabled(false);
    let snap = multiclust::telemetry::snapshot();
    let mut layer = Metrics::default();
    layers::counters(&mut layer, &snap.counters, traced_wall, ctx.threads);
    layer.put(
        "loadgen.late_ms_p99",
        "ms",
        percentile(&traced.gaps, 0.99) * 1e3,
    );
    let typical = |r: &Rounds| {
        geomean(
            &r.quiet_times()
                .iter()
                .map(|t| median(t))
                .collect::<Vec<_>>(),
        )
    };
    layer.put(
        "telemetry.trace_overhead",
        "ratio",
        typical(&traced) / typical(&plain) - 1.0,
    );
    layers::probes(ctx, &mut layer, &mut log, None, &mut gates)?;
    samples.push((
        "traced_rounds".into(),
        Value::Int(traced.round_s.len() as i64),
    ));
    samples.push((
        "loadgen.late_ms_p99".into(),
        Value::Int(traced.gaps.len() as i64),
    ));
    samples.push((
        "untraced_rounds".into(),
        Value::Int(plain.round_s.len() as i64),
    ));
    Ok(Outcome {
        gates,
        e2e: Metrics::default(),
        layers: layer,
        spans: Some(log),
        samples,
    })
}
