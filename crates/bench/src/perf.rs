//! End-to-end performance workloads for the distance-kernel engine.
//!
//! One seeded workload per algorithm family that the engine rewired
//! (k-means, spectral affinity, COALA, Dec-kMeans, meta clustering,
//! PROCLUS localities), each timed twice — once through the optimized
//! engine and once through the naive reference kernels
//! ([`multiclust_linalg::kernels::KernelMode`]) — plus a third engine run
//! with telemetry on to harvest the kernel counters. Both modes produce
//! bit-identical clusterings (the `kernel-equivalence` invariant checks
//! this), so the timing comparison is between two implementations of the
//! same function.
//!
//! `multiclust bench` drives this module and writes the shared
//! [`BenchReport`] JSON; the checked-in `BENCH_PR4.json` is one such run.

use crate::report::{BenchEntry, BenchReport};
use multiclust_alternative::coala::Coala;
use multiclust_alternative::dec_kmeans::DecKMeans;
use multiclust_alternative::meta::MetaClustering;
use multiclust_base::kmeans::KMeans;
use multiclust_base::spectral::SpectralClustering;
use multiclust_core::ConstraintSet;
use multiclust_data::rng::derive_seed;
use multiclust_data::seeded_rng;
use multiclust_data::synthetic::gaussian_blobs;
use multiclust_data::Dataset;
use multiclust_linalg::kernels::{set_kernel_mode, KernelMode};
use multiclust_subspace::proclus::Proclus;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// The benchmarked families, in report order.
pub const FAMILIES: &[&str] =
    &["kmeans", "spectral", "coala", "dec-kmeans", "meta", "proclus"];

/// Object counts per workload tier. Spectral is capped below the generic
/// large tier: its affinity stage materializes a dense `n x n` matrix and
/// the eigen stage costs `O(n^2)` per sweep, so 10k objects would dwarf
/// every other entry without telling us anything new about the kernels.
const SMALL_N: usize = 1_000;
const LARGE_N: usize = 10_000;
const SPECTRAL_LARGE_N: usize = 2_000;
const SMOKE_N: usize = 160;

/// A named, seeded, ready-to-run workload.
struct Workload {
    family: &'static str,
    n: usize,
    run: Box<dyn Fn()>,
}

/// Gaussian blobs around `centers` jittered hypercube corners `spread`
/// apart — well-separated clusters, the regime where bound pruning earns
/// its keep (and the regime every tutorial experiment uses).
fn grid_blobs(n: usize, d: usize, centers: usize, spread: f64, seed: u64) -> Dataset {
    let mut rng = seeded_rng(seed);
    let bits = centers.next_power_of_two().trailing_zeros().max(1) as usize;
    let centres: Vec<Vec<f64>> = (0..centers)
        .map(|c| {
            (0..d)
                .map(|dim| {
                    let bit = (c >> (dim % bits)) & 1;
                    bit as f64 * spread + rng.gen_range(-0.5..0.5)
                })
                .collect()
        })
        .collect();
    let (ds, _) = gaussian_blobs(&centres, 0.6, n / centers + 1, &mut rng);
    // Trim to exactly n objects so entry sizes are honest.
    Dataset::from_flat(d, ds.as_slice()[..n * d].to_vec())
}

/// Builds one family workload at `n` objects.
fn build(family: &'static str, n: usize, seed: u64) -> Workload {
    let data_seed = derive_seed(seed, &format!("bench.{family}.data"));
    let fit_seed = derive_seed(seed, &format!("bench.{family}.fit"));
    let run: Box<dyn Fn()> = match family {
        // Lloyd iterations dominated by the assignment step: the
        // Hamerly-style bound pruning is the whole story here.
        "kmeans" => {
            let data = grid_blobs(n, 16, 32, 8.0, data_seed);
            Box::new(move || {
                let mut rng = seeded_rng(fit_seed);
                black_box(KMeans::new(32).with_restarts(2).fit(&data, &mut rng));
            })
        }
        // Affinity matrix + embedding + k-means on the embedding; the
        // engine shares the condensed pairwise-distance triangle.
        "spectral" => {
            let data = grid_blobs(n, 4, 2, 6.0, data_seed);
            Box::new(move || {
                let mut rng = seeded_rng(fit_seed);
                black_box(SpectralClustering::new(2, 2.0).fit(&data, &mut rng));
            })
        }
        // Bounded merge run on the Lance–Williams link matrix: both tiers
        // merge identically, so the blocked-vs-naive speedup measures only
        // how the pairwise distance matrix is built. Stopping a fixed
        // number of merges above k keeps the workload O(steps * n^2)
        // instead of O(n^3) at the 10k tier.
        "coala" => {
            let data = grid_blobs(n, 48, 16, 6.0, data_seed);
            let merges = if n >= 4_000 { 12 } else { (n / 8).min(96) };
            Box::new(move || {
                let coala = Coala::new(data.len() - merges, 1.0);
                black_box(coala.fit_with_constraints(&data, &ConstraintSet::new()));
            })
        }
        // Two coupled k-means problems; every view runs its own pruned
        // assigner against the shared cached norms.
        "dec-kmeans" => {
            let data = grid_blobs(n, 8, 16, 8.0, data_seed);
            Box::new(move || {
                let mut rng = seeded_rng(fit_seed);
                black_box(
                    DecKMeans::new(&[12, 12]).with_max_iter(20).fit(&data, &mut rng),
                );
            })
        }
        // Repeated blind k-means runs + a Rand-index pairwise matrix over
        // the solutions (built through the shared symmetric builder).
        "meta" => {
            let data = grid_blobs(n, 8, 16, 8.0, data_seed);
            Box::new(move || {
                let mut rng = seeded_rng(fit_seed);
                black_box(
                    MetaClustering::new(6, vec![8, 12, 16], 0.9).fit(&data, &mut rng),
                );
            })
        }
        // Medoid localities assigned through the pruned distance-space
        // scan each refinement round.
        "proclus" => {
            let data = grid_blobs(n, 32, 16, 8.0, data_seed);
            Box::new(move || {
                let mut rng = seeded_rng(fit_seed);
                black_box(Proclus::new(12, 8).with_max_iter(5).fit(&data, &mut rng));
            })
        }
        other => unreachable!("unknown bench family {other}"),
    };
    Workload { family, n, run }
}

/// The object counts a family runs at.
fn sizes(family: &str, smoke: bool) -> Vec<usize> {
    if smoke {
        vec![SMOKE_N]
    } else if family == "spectral" {
        vec![SMALL_N, SPECTRAL_LARGE_N]
    } else {
        vec![SMALL_N, LARGE_N]
    }
}

/// Times one execution of `run` under the given kernel mode, in
/// milliseconds. The caller is responsible for telemetry being off so the
/// event stream does not distort timings.
fn time_mode(mode: KernelMode, run: &dyn Fn()) -> f64 {
    set_kernel_mode(Some(mode));
    let t = Instant::now();
    run();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    set_kernel_mode(None);
    ms
}

/// Kernel counters from one telemetry-instrumented run under `mode`.
fn harvest_counters(mode: KernelMode, run: &dyn Fn()) -> std::collections::BTreeMap<String, u64> {
    multiclust_telemetry::reset();
    multiclust_telemetry::set_enabled(true);
    set_kernel_mode(Some(mode));
    run();
    set_kernel_mode(None);
    multiclust_telemetry::set_enabled(false);
    let snap = multiclust_telemetry::snapshot();
    multiclust_telemetry::reset();
    snap.counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("kernels."))
        .collect()
}

/// Runs the full suite (or the smoke tier) and returns the report.
///
/// Manages the process-global telemetry switch itself: timing runs execute
/// with telemetry off (recording would distort them), the counter run with
/// it on, and the previous on/off state is restored afterwards.
pub fn run_suite(smoke: bool, seed: u64) -> BenchReport {
    run_suite_opts(smoke, seed, false)
}

/// [`run_suite`] with a deliberate-regression switch: `inject_naive`
/// times and harvests the "engine" side under the naive kernels instead,
/// so the `bench --compare` gate has a known-bad input to prove it fires
/// (`scripts/check.sh` runs it negated).
pub fn run_suite_opts(smoke: bool, seed: u64, inject_naive: bool) -> BenchReport {
    let telemetry_was = multiclust_telemetry::enabled();
    multiclust_telemetry::set_enabled(false);
    // The "engine" side times the cache-blocked SIMD tier — the default
    // production mode — so checked-in reports gate what users actually run.
    let engine_mode = if inject_naive { KernelMode::Naive } else { KernelMode::Blocked };
    let mut report = BenchReport::new(if smoke { "bench --smoke" } else { "bench" });
    for &family in FAMILIES {
        for n in sizes(family, smoke) {
            let w = build(family, n, seed);
            let wall_ms = time_mode(engine_mode, w.run.as_ref());
            let baseline_ms = time_mode(KernelMode::Naive, w.run.as_ref());
            let speedup = baseline_ms / wall_ms;
            let counters = harvest_counters(engine_mode, w.run.as_ref());
            eprintln!(
                "bench: {}-n{n}  engine {wall_ms:.1} ms  naive {baseline_ms:.1} ms  ({speedup:.2}x)",
                w.family
            );
            report.entries.push(BenchEntry {
                id: format!("{}-n{n}", w.family),
                family: w.family.to_string(),
                n: w.n,
                wall_ms,
                baseline_ms: Some(baseline_ms),
                speedup: Some(speedup),
                counters,
            });
        }
    }
    multiclust_telemetry::set_enabled(telemetry_was);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_covers_every_family_once() {
        let report = run_suite(true, 7);
        let families: Vec<&str> =
            report.entries.iter().map(|e| e.family.as_str()).collect();
        assert_eq!(families, FAMILIES);
        for e in &report.entries {
            assert_eq!(e.n, SMOKE_N, "{}", e.id);
            assert!(e.wall_ms > 0.0 && e.baseline_ms.unwrap() > 0.0, "{}", e.id);
            assert!(
                e.counters.keys().any(|k| k.starts_with("kernels.")),
                "{} harvested no kernel counters",
                e.id
            );
        }
    }
}
