//! Micro-benchmarks of the shared distance-kernel engine against its
//! naive reference: the condensed pairwise matrix builder and the
//! bound-pruned nearest-centre assignment (cold scan and warm
//! drift-tracking rounds). Results are bit-identical between the two
//! sides — see the `kernel-equivalence` invariant — so this measures two
//! implementations of the same function.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use multiclust_data::seeded_rng;
use multiclust_linalg::kernels::{
    reference, set_kernel_mode, sq_dist_matrix, sq_norms, KernelMode, NearestAssign,
};
use rand::Rng;

/// Flat row-major blob-ish data: `k` jittered hypercube-corner centres.
fn flat_blobs(n: usize, d: usize, k: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut rng = seeded_rng(seed);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|c| {
            (0..d)
                .map(|dim| (((c >> (dim % 4)) & 1) as f64) * 8.0 + rng.gen_range(-0.5..0.5))
                .collect()
        })
        .collect();
    let mut flat = Vec::with_capacity(n * d);
    for i in 0..n {
        let c = &centers[i % k];
        flat.extend(c.iter().map(|&mu| mu + 0.6 * rng.gen_range(-1.0..1.0)));
    }
    (flat, centers)
}

fn bench_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_matrix");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for &n in &[256usize, 768] {
        let (flat, _) = flat_blobs(n, 8, 16, 7001);
        group.bench_with_input(BenchmarkId::new("blocked", n), &flat, |b, flat| {
            b.iter(|| black_box(sq_dist_matrix(8, black_box(flat))))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &flat, |b, flat| {
            b.iter(|| black_box(reference::sq_dist_matrix(8, black_box(flat))))
        });
    }
    group.finish();
}

fn bench_assignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("nearest_assign");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for &n in &[2048usize, 8192] {
        let (flat, centers) = flat_blobs(n, 8, 16, 7002);
        let norms = sq_norms(8, &flat);
        // Warm rounds: centres drift slightly, the regime Lloyd iterations
        // live in once past the first pass.
        group.bench_with_input(BenchmarkId::new("blocked_pruned", n), &flat, |b, flat| {
            b.iter(|| {
                let mut assigner = NearestAssign::new(n);
                let mut cs = centers.clone();
                for round in 0..4 {
                    black_box(assigner.assign(8, flat, &norms, &cs));
                    for c in cs.iter_mut() {
                        for x in c.iter_mut() {
                            *x += 1e-3 * (round as f64 + 1.0);
                        }
                    }
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("naive_exhaustive", n), &flat, |b, flat| {
            b.iter(|| {
                let mut cs = centers.clone();
                for round in 0..4 {
                    for i in 0..n {
                        black_box(reference::nearest(&flat[i * 8..(i + 1) * 8], &cs));
                    }
                    for c in cs.iter_mut() {
                        for x in c.iter_mut() {
                            *x += 1e-3 * (round as f64 + 1.0);
                        }
                    }
                }
            })
        });
    }
    group.finish();
}

/// Kernel-tier sweep at several dimensionalities: the cache-blocked SIMD
/// tier against the scalar naive reference, for both the matrix builder
/// and the warm assignment loop. `d = 8` is the bench-suite shape, `d = 32`
/// matches PROCLUS/COALA-scale features, `d = 128` stresses the panel
/// packing when a single row spans multiple cache lines.
fn bench_kernel_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_tiers");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let n = 2048;
    let k = 16;
    for &d in &[8usize, 32, 128] {
        let (flat, centers) = flat_blobs(n, d, k, 7003 + d as u64);
        let norms = sq_norms(d, &flat);
        for (label, mode) in [("blocked", KernelMode::Blocked), ("naive", KernelMode::Naive)] {
            set_kernel_mode(Some(mode));
            group.bench_with_input(
                BenchmarkId::new(format!("matrix_{label}"), format!("d{d}")),
                &flat,
                |b, flat| b.iter(|| black_box(sq_dist_matrix(d, black_box(flat)))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("assign_{label}"), format!("d{d}")),
                &flat,
                |b, flat| {
                    b.iter(|| {
                        let mut assigner = NearestAssign::new(n);
                        let mut cs = centers.clone();
                        for round in 0..4 {
                            black_box(assigner.assign(d, flat, &norms, &cs));
                            for c in cs.iter_mut() {
                                for x in c.iter_mut() {
                                    *x += 1e-3 * (round as f64 + 1.0);
                                }
                            }
                        }
                    })
                },
            );
        }
        set_kernel_mode(None);
    }
    group.finish();
}

criterion_group!(benches, bench_matrix, bench_assignment, bench_kernel_tiers);
criterion_main!(benches);
