//! The repository benchmark: three workloads run against the real code,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! traced run, with every output checked for correctness.
//!
//! ```text
//! perfbench --workload <paper-batch|serve-reads|serve-fits> --seed <n>
//!           --seconds <s> --trace <0|1> --server <multiclust binary>
//!           [--smoke] [--doctor <label|response>] [--calibrate]
//! ```
//!
//! The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! carry the provenance block and the sample counts. A failed correctness
//! gate exits with code 1.

mod batch;
mod config;
mod data;
mod fits;
mod gates;
mod layers;
mod reads;
mod served;
mod stats;
mod steal;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde::Value;

use crate::gates::Gates;
use crate::stats::{Metrics, SpanLog};

/// The three workloads, by the names later changes refer to.
pub const WORKLOADS: [&str; 3] = ["paper-batch", "serve-reads", "serve-fits"];

/// Which correctness gate `--doctor` falsifies, to prove the gates bite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Doctor {
    Label,
    Response,
}

/// Everything a workload run needs to know.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub doctor: Option<Doctor>,
    pub server: Option<PathBuf>,
    /// Scratch directory for sockets, traces and span logs.
    pub out: PathBuf,
    pub threads: usize,
}

/// What a workload run returns.
pub struct Outcome {
    pub gates: Gates,
    /// End-to-end metrics (untraced runs).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Benchmark-side spans of a traced run.
    pub spans: Option<SpanLog>,
    /// Sample counts behind each reported percentile, by metric.
    pub samples: Vec<(String, Value)>,
}

fn usage() -> String {
    "usage: perfbench --workload <paper-batch|serve-reads|serve-fits> --seed <n> \
     --seconds <s> --trace <0|1> --server <multiclust binary> [--smoke] \
     [--doctor <label|response>] [--calibrate]"
        .to_string()
}

fn parse_args() -> Result<(Ctx, bool), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut smoke = false;
    let mut calibrate = false;
    let mut doctor = None;
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--server" => server = Some(PathBuf::from(value("--server")?)),
            "--smoke" => smoke = true,
            "--calibrate" => calibrate = true,
            "--doctor" => {
                doctor = Some(match value("--doctor")?.as_str() {
                    "label" => Doctor::Label,
                    "response" => Doctor::Response,
                    other => {
                        return Err(format!("--doctor must be label or response, got {other:?}"))
                    }
                })
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let threads = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let ctx = Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        doctor,
        server,
        out: PathBuf::from(".perfbench-out"),
        threads,
    };
    Ok((ctx, calibrate))
}

/// Machine and build facts stamped on every output.
fn provenance(ctx: &Ctx) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let commit = git_head().map_or(Value::Null, Value::String);
    let s = |v: &str| Value::String(v.to_string());
    Value::Object(vec![
        ("git_commit".into(), commit),
        ("source_hash".into(), s(&source_hash())),
        ("cpu_model".into(), s(&cpu)),
        ("avx2".into(), Value::Bool(avx2)),
        ("nproc".into(), Value::Int(ctx.threads as i64)),
        (
            "pool_threads".into(),
            Value::Int(multiclust::parallel::current_threads() as i64),
        ),
        (
            "kernel_mode".into(),
            s(&format!("{:?}", multiclust::linalg::kernels::kernel_mode())),
        ),
        (
            "build_profile".into(),
            s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload".into(), s(&ctx.workload)),
        ("seed".into(), Value::Int(ctx.seed as i64)),
        ("seconds".into(), Value::Float(ctx.seconds)),
        ("trace".into(), Value::Bool(ctx.trace)),
        ("smoke".into(), Value::Bool(ctx.smoke)),
    ])
}

/// The commit checked out in the working directory, read from `.git`
/// there (not searched for upwards, so a run reads only its checkout).
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| {
            let (hash, name) = l.split_once(' ')?;
            (name == reference).then(|| hash.to_string())
        })
}

/// FNV-1a over the program's sources (path and bytes, in sorted path
/// order): names the code measured where no git metadata exists.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "vendor"] {
        walk(std::path::Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    };
    let mut seen = 0;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f.to_string_lossy().as_bytes());
            eat(&bytes);
            seen += 1;
        }
    }
    if seen == 0 {
        "unknown".to_string()
    } else {
        format!("fnv1a64:{h:016x}")
    }
}

fn metrics_value(m: &Metrics) -> Result<Value, String> {
    let mut fields = Vec::new();
    for metric in &m.0 {
        if !metric.value.is_finite() {
            return Err(format!(
                "metric {} is not finite ({})",
                metric.name, metric.value
            ));
        }
        fields.push((
            metric.name.clone(),
            Value::Object(vec![
                ("value".into(), Value::Float(metric.value)),
                ("unit".into(), Value::String(metric.unit.to_string())),
            ]),
        ));
    }
    Ok(Value::Object(fields))
}

fn print_layer_table(spans: &SpanLog, layers: &Metrics) {
    eprintln!("perfbench: per-layer self time (benchmark-side spans, joined server spans)");
    eprintln!(
        "  {:<34} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, count, total, own) in spans.self_times() {
        eprintln!(
            "  {:<34} {:>9} {:>12.3} {:>12.3}",
            name,
            count,
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    eprintln!("perfbench: per-layer metrics");
    for m in &layers.0 {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.out)
        .map_err(|e| format!("creating {}: {e}", ctx.out.display()))?;
    multiclust::parallel::set_threads(ctx.threads);
    match ctx.workload.as_str() {
        "paper-batch" => batch::run(ctx),
        "serve-reads" => reads::run(ctx),
        _ => fits::run(ctx),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let (ctx, calibrate) = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if calibrate {
        return match fits::calibrate(&ctx) {
            Ok(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: calibration failed: {e}");
                ExitCode::from(2)
            }
        };
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(vec![(
            "provenance".into(),
            provenance(&ctx)
        )]))
        .unwrap_or_default()
    );
    let steal_before = steal::ticks();
    let run_start = Instant::now();
    let mut outcome = match run(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::from(2);
        }
    };
    // CPU time the hypervisor withheld from the benchmark's CPUs during
    // the run: noise these numbers carry that the program did not cause.
    if let (Some(a), Some(b)) = (steal_before, steal::ticks()) {
        let share =
            (b - a) as f64 / 100.0 / (run_start.elapsed().as_secs_f64() * ctx.threads as f64);
        outcome
            .samples
            .push(("host_steal_share".into(), Value::Float(share)));
    }
    let metrics = if ctx.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    if let Some(spans) = &outcome.spans {
        print_layer_table(spans, &outcome.layers);
        let path = ctx.out.join(format!("spans-{}.jsonl", ctx.workload));
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let metrics = match metrics_value(metrics) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        serde_json::to_string(&Value::Object(vec![(
            "samples".into(),
            Value::Object(outcome.samples)
        )]))
        .unwrap_or_default()
    );
    let g = &outcome.gates;
    for r in &g.reasons {
        eprintln!("perfbench: correctness gate failed: {r}");
    }
    let correct = g.failed == 0;
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(g.attempted as i64)),
        ("failed".into(), Value::Int(g.failed as i64)),
        ("metrics".into(), metrics),
    ]);
    eprintln!(
        "perfbench: {} seed {} done in {:.1}s: {} ops attempted, {} failed",
        ctx.workload,
        ctx.seed,
        started.elapsed().as_secs_f64(),
        g.attempted,
        g.failed
    );
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
