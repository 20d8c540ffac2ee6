//! Work accounting of the Gaussian affinity builder. The telemetry
//! registry is process-global, so this file holds a single test: nothing
//! else in its process records `kernels.*` counters concurrently.

use multiclust_linalg::kernels::{gaussian_affinity_matrix, SCREEN_CUT};
use multiclust_linalg::vector::sq_dist;

/// Every pair costs one exact panel distance (3d flops over two f64 rows,
/// 16d bytes) plus one `exp` unless the underflow screen zeroed it; the
/// builder computes no dot-form estimates, but still ticks
/// `kernels.estimates` once per pair for its screening test. Packing the
/// `n × d` input streams it once in and once out (16·n·d bytes).
#[test]
fn affinity_roofline_counts_exact_distances_only() {
    let d = 3;
    // Two clusters 10⁴ apart: with denom 2 every cross pair is past the
    // screen, every within-cluster pair survives.
    let flat: Vec<f64> = (0..10)
        .flat_map(|i| {
            let base = if i < 6 { 0.0 } else { 1e4 };
            [base + i as f64 * 0.1, base - 0.2 * i as f64, base + 0.05]
        })
        .collect();
    let n = flat.len() / d;
    let denom = 2.0;

    multiclust_telemetry::set_enabled(true);
    multiclust_telemetry::reset();
    gaussian_affinity_matrix(d, &flat, denom);
    let counters = multiclust_telemetry::snapshot().counters;
    multiclust_telemetry::set_enabled(false);

    let pairs = (n * (n - 1) / 2) as u64;
    let screened = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .filter(|&(i, j)| {
            sq_dist(&flat[i * d..(i + 1) * d], &flat[j * d..(j + 1) * d]) > SCREEN_CUT * denom
        })
        .count() as u64;
    assert_eq!(screened, 6 * 4, "the cross-cluster pairs are screened");
    let d = d as u64;
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(get("kernels.screen.pruned"), screened);
    assert_eq!(get("kernels.estimates"), pairs);
    assert_eq!(get("kernels.flops"), 3 * d * pairs + (pairs - screened));
    assert_eq!(
        get("kernels.bytes_touched"),
        16 * d * pairs + 16 * n as u64 * d
    );
}
