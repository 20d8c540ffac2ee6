//! The shared distance-kernel engine.
//!
//! Every paradigm in the workspace bottoms out in pairwise Euclidean
//! geometry: k-means assignment, COALA's average-link merge scan, spectral
//! affinities, PROCLUS medoid localities and meta-clustering's pairwise
//! solution matrix. This module centralises that substrate:
//!
//! * **Cached squared row norms** ([`sq_norms`]) feeding the dot-product
//!   estimate `d²(x, c) ≈ ‖x‖² + ‖c‖² − 2·x·c` that prunes assignment
//!   scans, with a *cancellation guard*: when the estimate is below
//!   [`GUARD_REL`] of the norm mass `‖x‖² + ‖c‖²`, most significant bits
//!   have cancelled and the scan verifies with the naive per-pair form.
//! * **A reusable symmetric matrix builder** ([`SymmetricMatrix`]):
//!   the strict upper triangle computed once (in parallel via
//!   `multiclust-parallel`, bit-identical at any thread count) and shared —
//!   agglomeration (COALA included) updates one Euclidean matrix in place,
//!   spectral affinity halves its distance evaluations, meta-clustering
//!   builds its pairwise Rand matrix through the same machinery.
//! * **Hamerly-style bound-pruned nearest-centre assignment**
//!   ([`NearestAssign`]): per-point upper/lower distance bounds maintained
//!   across Lloyd iterations skip whole inner loops, and the dot-product
//!   estimate prunes candidate centres inside full scans. Every pruning
//!   decision is backed by a certified floating-point error margin, so the
//!   produced labels are **bit-identical** to the exhaustive naive scan —
//!   the engine is a pure refactor of results (see DESIGN.md, "Distance
//!   engine", for the proof sketch).
//!
//! * **Cache-blocked SIMD kernels** under all of the above: row panels
//!   are packed transposed into L1-sized tiles ([`block`]) and the inner
//!   loops run *across pairs* — each lane accumulates its own pair's sum
//!   in the same index order as the scalar kernel, so every produced value
//!   is bit-identical to [`sq_dist`]/[`dot`] while the loop vectorizes
//!   (via `core::arch` AVX2 behind a runtime feature check, with a
//!   portable autovectorization-friendly fallback).
//!
//! There are two tiers: the fast path above ([`KernelMode::Blocked`], the
//! default) and the naive reference kernels in [`reference`].
//! `MULTICLUST_KERNELS=naive|blocked` or [`set_kernel_mode`] routes all
//! call sites through either, for A/B testing and benchmarking.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::block;
use crate::matrix::Matrix;
use crate::vector::{dist, dot, sq_dist};

/// Relative cancellation-guard threshold: when the dot-product estimate of
/// `d²` is below this fraction of the norm mass `‖x‖² + ‖y‖²`, roughly
/// seven decimal digits have cancelled and the kernel recomputes the
/// distance with the naive per-pair form instead.
pub const GUARD_REL: f64 = 1e-2;

/// Minimum centre count for bound pruning to engage. Below this the
/// pruned scan costs more than it saves — per centre it computes an
/// estimate (`d` flops) plus bookkeeping, and at least one exact distance
/// is always verified — so the engine uses the exhaustive reference scan
/// instead. Either path returns identical labels, so the threshold is a
/// pure speed heuristic.
pub const PRUNE_MIN_K: usize = 4;

/// Certified relative error slack of the dot-product formulation and of
/// bound maintenance, as a multiple of `f64::EPSILON` per dimension.
/// `slack(d) · mass` upper-bounds `|est − sq_dist(x, y)|` for any inputs
/// with `‖x‖² + ‖y‖² = mass` (both values as computed in IEEE arithmetic,
/// summation in index order), with a factor ≥ 2 of headroom.
#[inline]
fn slack(d: usize) -> f64 {
    4.0 * (d as f64 + 2.0) * f64::EPSILON
}

#[inline]
fn inflate(x: f64, d: usize) -> f64 {
    x * (1.0 + slack(d))
}

#[inline]
fn deflate(x: f64, d: usize) -> f64 {
    (x * (1.0 - slack(d))).max(0.0)
}

/// Underflow screen for Gaussian affinities, in units of the exponent
/// `d²/denom`. A correctly rounded `exp(-x)` is `+0.0` for `x ≳ 745.2`;
/// entries whose *certified lower bound* on the exponent exceeds this cut
/// are written as `+0.0` without computing the exact distance or the
/// `exp`. The cut sits far above the true threshold (≈ 7% headroom, i.e.
/// dozens of orders of magnitude below the smallest subnormal), so the
/// short-circuit is bit-identical to the naive result on any libm.
pub const SCREEN_CUT: f64 = 800.0;

// ---------------------------------------------------------------------
// Kernel mode
// ---------------------------------------------------------------------

/// Which kernel implementation the call sites route through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// The fast path: cached norms, shared matrices, bound pruning and
    /// packed-panel SIMD kernels (see [`crate::block`]) under the matrix
    /// builders and assignment scans, with the adaptive Hamerly bypass.
    /// The default.
    Blocked,
    /// The naive reference: per-pair distances recomputed at every call,
    /// exhaustive assignment scans. Bit-identical results, no caching.
    Naive,
}

/// 0 = no override, 1 = naive, 2 = blocked.
static MODE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn mode_from_env() -> Option<KernelMode> {
    static ENV: OnceLock<Option<KernelMode>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("MULTICLUST_KERNELS").as_deref() {
        Ok("naive") => Some(KernelMode::Naive),
        Ok("blocked") => Some(KernelMode::Blocked),
        _ => None,
    })
}

/// The active kernel mode: a [`set_kernel_mode`] override wins, then the
/// `MULTICLUST_KERNELS` environment variable (`naive` / `blocked`, read
/// once; any other value is ignored), then [`KernelMode::Blocked`].
pub fn kernel_mode() -> KernelMode {
    match MODE_OVERRIDE.load(Ordering::Relaxed) {
        1 => KernelMode::Naive,
        2 => KernelMode::Blocked,
        _ => mode_from_env().unwrap_or(KernelMode::Blocked),
    }
}

/// Overrides (or with `None` restores) the process-wide kernel mode.
///
/// Every mode produces bit-identical results — the override only changes
/// *how* they are computed, so flipping it is always safe; it exists for
/// the equivalence invariant and the benchmark runner.
pub fn set_kernel_mode(mode: Option<KernelMode>) {
    let v = match mode {
        None => 0,
        Some(KernelMode::Naive) => 1,
        Some(KernelMode::Blocked) => 2,
    };
    MODE_OVERRIDE.store(v, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Cached norms
// ---------------------------------------------------------------------

/// Squared Euclidean norm of every row of a flat row-major `n × d` buffer,
/// computed in parallel. Entry `i` equals `dot(row_i, row_i)` bit-for-bit.
pub fn sq_norms(d: usize, flat: &[f64]) -> Vec<f64> {
    assert!(d > 0, "dimensionality must be positive");
    debug_assert_eq!(flat.len() % d, 0);
    let n = flat.len() / d;
    let chunk = (1usize << 14) / d.max(1) + 1;
    multiclust_parallel::par_map_indexed(n, chunk, |i| {
        let row = &flat[i * d..(i + 1) * d];
        dot(row, row)
    })
}

// ---------------------------------------------------------------------
// The reusable symmetric matrix builder
// ---------------------------------------------------------------------

/// A symmetric `n × n` matrix with zero diagonal, stored as the condensed
/// strict upper triangle (`n·(n−1)/2` values). Built once, shared by every
/// consumer: the agglomeration link matrix, spectral affinity,
/// meta-clustering's pairwise solution matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct SymmetricMatrix {
    n: usize,
    vals: Vec<f64>,
}

impl SymmetricMatrix {
    /// Builds the matrix from an entry function over `i < j` pairs.
    ///
    /// Rows of the strict upper triangle are independent, so they compute
    /// in parallel with bit-identical values at any thread count; the
    /// entry function is only ever called with `i < j`.
    pub fn build<F>(n: usize, f: F) -> Self
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        let rows: Vec<Vec<f64>> = multiclust_parallel::par_map_indexed(n, 1, |i| {
            ((i + 1)..n).map(|j| f(i, j)).collect()
        });
        let mut vals = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for r in &rows {
            vals.extend_from_slice(r);
        }
        multiclust_telemetry::counter_add("kernels.matrix.builds", 1);
        multiclust_telemetry::counter_add("kernels.matrix.entries", vals.len() as u64);
        Self { n, vals }
    }

    /// Matrix order `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The condensed strict-upper-triangle values, row-major
    /// (`(0,1) … (0,n−1), (1,2) … `).
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// The condensed values by value, in [`Self::values`] order.
    pub fn into_values(self) -> Vec<f64> {
        self.vals
    }

    /// Entry `(i, j)`; the diagonal is zero by construction.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        if i == j {
            return 0.0;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        // Row i of the strict upper triangle starts after the first i rows,
        // which hold (n−1) + (n−2) + … + (n−i) entries.
        let row_start = i * (2 * self.n - i - 1) / 2;
        self.vals[row_start + (j - i - 1)]
    }

    /// A new matrix with `f` applied to every stored entry (in parallel).
    #[must_use]
    pub fn map<F>(&self, f: F) -> Self
    where
        F: Fn(f64) -> f64 + Sync,
    {
        let chunks =
            multiclust_parallel::par_chunks(&self.vals, 1 << 12, |_, c| -> Vec<f64> {
                c.iter().map(|&v| f(v)).collect()
            });
        let mut vals = Vec::with_capacity(self.vals.len());
        for c in &chunks {
            vals.extend_from_slice(c);
        }
        Self { n: self.n, vals }
    }
}

/// Builds the condensed strict upper triangle through the packed-panel
/// kernels: one `pack` of the whole buffer, then each row streamed against
/// the L1-sized panels covering its `j > i` columns. Values are
/// bit-identical to the scalar kernels per entry (the panel lanes
/// accumulate in the same index order).
fn blocked_condensed(d: usize, flat: &[f64], take_sqrt: bool) -> SymmetricMatrix {
    let n = flat.len() / d;
    let packed = block::PackedPanels::pack(d, flat);
    let rows: Vec<Vec<f64>> = multiclust_parallel::par_map_indexed(n, 1, |i| {
        let row = &flat[i * d..(i + 1) * d];
        let mut out = vec![0.0; n - i - 1];
        packed.sq_dist_row(row, i + 1, &mut out);
        if take_sqrt {
            for v in &mut out {
                *v = v.sqrt();
            }
        }
        out
    });
    let mut vals = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for r in &rows {
        vals.extend_from_slice(r);
    }
    multiclust_telemetry::counter_add("kernels.matrix.builds", 1);
    multiclust_telemetry::counter_add("kernels.matrix.entries", vals.len() as u64);
    // Work accounting (roofline model): each condensed entry is one exact
    // d-coordinate distance — ~3d flops (+1 for the sqrt variant) over
    // two d-length f64 rows.
    let entries = vals.len() as u64;
    let per_entry = 3 * d as u64 + u64::from(take_sqrt);
    multiclust_telemetry::counter_add("kernels.flops", per_entry * entries);
    multiclust_telemetry::counter_add("kernels.bytes_touched", 16 * d as u64 * entries);
    multiclust_telemetry::histogram_record("kernels.matrix.batch", entries);
    SymmetricMatrix { n, vals }
}

/// The squared-Euclidean-distance matrix of a flat row-major `n × d`
/// buffer. Entries are bit-identical to [`sq_dist`] on the row pair; in
/// the blocked tier the triangle is computed through the cache-blocked
/// panel kernels instead of per-pair scalar arithmetic.
pub fn sq_dist_matrix(d: usize, flat: &[f64]) -> SymmetricMatrix {
    assert!(d > 0, "dimensionality must be positive");
    let n = flat.len() / d;
    if kernel_mode() == KernelMode::Blocked {
        return blocked_condensed(d, flat, false);
    }
    SymmetricMatrix::build(n, |i, j| {
        sq_dist(&flat[i * d..(i + 1) * d], &flat[j * d..(j + 1) * d])
    })
}

/// The Euclidean-distance matrix of a flat row-major `n × d` buffer.
/// Entries are bit-identical to [`dist`] on the row pair; in the blocked
/// tier the triangle goes through the cache-blocked panel kernels.
pub fn dist_matrix(d: usize, flat: &[f64]) -> SymmetricMatrix {
    assert!(d > 0, "dimensionality must be positive");
    let n = flat.len() / d;
    if kernel_mode() == KernelMode::Blocked {
        return blocked_condensed(d, flat, true);
    }
    SymmetricMatrix::build(n, |i, j| {
        dist(&flat[i * d..(i + 1) * d], &flat[j * d..(j + 1) * d])
    })
}

/// The full `n × n` Gaussian affinity matrix
/// `w_ij = exp(−sq_dist(x_i, x_j)/denom)` with zero diagonal, built
/// through the blocked panel kernels.
///
/// Per strict-upper-triangle entry the default path computes the exact
/// squared distance with the panel-vectorized kernel (bit-identical to
/// [`sq_dist`]) and screens it against [`SCREEN_CUT`]: an exponent that
/// far past the underflow threshold makes `exp` return exactly `+0.0` on
/// any libm, so the entry is written without the `exp` call. Every entry
/// is bit-identical to the naive per-pair build, and each pair ticks
/// `kernels.estimates` for its screening test. The lower triangle is
/// mirrored in cache-sized tiles at the end.
pub fn gaussian_affinity_matrix(d: usize, flat: &[f64], denom: f64) -> Matrix {
    assert!(d > 0, "dimensionality must be positive");
    assert!(denom > 0.0, "denominator must be positive");
    let n = flat.len() / d;
    let packed = block::PackedPanels::pack(d, flat);
    let cut = SCREEN_CUT * denom;
    let screened = AtomicU64::new(0);

    let mut w = Matrix::zeros(n, n);
    // Fill the strict upper triangle row-block by row-block; each chunk
    // owns whole output rows, so blocks parallelise without aliasing and
    // the values are identical at any thread count.
    let chunk_rows = multiclust_parallel::block_rows(n * d);
    multiclust_parallel::par_chunks_mut(w.as_mut_slice(), chunk_rows * n, |start, buf| {
        let i0 = start / n;
        let mut d2 = vec![0.0f64; n];
        let mut screen_count = 0u64;
        for (r, wrow) in buf.chunks_mut(n).enumerate() {
            let i = i0 + r;
            let lo = i + 1;
            if lo >= n {
                continue;
            }
            let m = n - lo;
            // Exact panel-vectorized distances, screened directly —
            // `d² > cut` certifies the exponent is far past the libm
            // underflow threshold, so `exp` is skipped.
            packed.sq_dist_row(&flat[i * d..(i + 1) * d], lo, &mut d2[..m]);
            for (dst, &v) in wrow[lo..].iter_mut().zip(&d2[..m]) {
                *dst = if v > cut {
                    screen_count += 1;
                    0.0
                } else {
                    (-v / denom).exp()
                };
            }
        }
        screened.fetch_add(screen_count, Ordering::Relaxed);
    });

    // Mirror the triangle in cache-sized tiles (transpose-style blocking
    // keeps both the read rows and the written columns resident).
    let data = w.as_mut_slice();
    const TB: usize = 64;
    let mut ib = 0;
    while ib < n {
        let imax = (ib + TB).min(n);
        let mut jb = ib;
        while jb < n {
            let jmax = (jb + TB).min(n);
            for i in ib..imax {
                for j in (jb.max(i + 1))..jmax {
                    data[j * n + i] = data[i * n + j];
                }
            }
            jb += TB;
        }
        ib += TB;
    }

    let screened = screened.into_inner();
    let pairs = (n * n.saturating_sub(1) / 2) as u64;
    multiclust_telemetry::counter_add("kernels.matrix.builds", 1);
    multiclust_telemetry::counter_add("kernels.matrix.entries", pairs);
    // One screening test per pair; `bench --compare` reads this counter as
    // the spectral family's kernel activity.
    multiclust_telemetry::counter_add("kernels.estimates", pairs);
    multiclust_telemetry::counter_add("kernels.screen.pruned", screened);
    // Work accounting (roofline model): every pair costs one exact panel
    // distance (~3d flops over two f64 rows) plus one `exp` for the pairs
    // the underflow screen did not zero out.
    let d64 = d as u64;
    multiclust_telemetry::counter_add("kernels.flops", 3 * d64 * pairs + pairs - screened);
    multiclust_telemetry::counter_add("kernels.bytes_touched", 16 * d64 * pairs);
    multiclust_telemetry::histogram_record("kernels.matrix.batch", pairs);
    w
}

// ---------------------------------------------------------------------
// Naive reference kernels
// ---------------------------------------------------------------------

/// The naive reference implementations: what every call site computed
/// before the engine existed, kept for equivalence testing and as the
/// speedup baseline of `multiclust bench`.
pub mod reference {
    use super::SymmetricMatrix;
    use crate::vector::{dist, sq_dist};

    /// Index and squared distance of the nearest centre to `row`:
    /// an exhaustive scan with strict `<`, so the first minimum in index
    /// order wins ties.
    #[inline]
    pub fn nearest(row: &[f64], centers: &[Vec<f64>]) -> (usize, f64) {
        let mut best = (0, f64::INFINITY);
        for (c, center) in centers.iter().enumerate() {
            let d2 = sq_dist(row, center);
            if d2 < best.1 {
                best = (c, d2);
            }
        }
        best
    }

    /// Index of the centre minimising the *computed Euclidean distance*
    /// (not its square), first minimum on ties — the comparison PROCLUS
    /// historically used for medoid localities.
    #[inline]
    pub fn nearest_by_dist(row: &[f64], centers: &[Vec<f64>]) -> usize {
        let mut best = (0, f64::INFINITY);
        for (c, center) in centers.iter().enumerate() {
            let dc = dist(row, center);
            if dc < best.1 {
                best = (c, dc);
            }
        }
        best.0
    }

    /// The squared-distance matrix by the naive double loop (serial).
    pub fn sq_dist_matrix(d: usize, flat: &[f64]) -> SymmetricMatrix {
        let n = flat.len() / d.max(1);
        let mut vals = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                vals.push(sq_dist(&flat[i * d..(i + 1) * d], &flat[j * d..(j + 1) * d]));
            }
        }
        SymmetricMatrix { n, vals }
    }
}

// ---------------------------------------------------------------------
// Bound-pruned nearest-centre assignment
// ---------------------------------------------------------------------

/// Kernel-call statistics of one assignment pass (also mirrored into the
/// telemetry counters `kernels.*` when telemetry records).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Points whose Hamerly test passed without computing any distance.
    pub skipped: u64,
    /// Points resolved after recomputing only the assigned-centre distance.
    pub tightened: u64,
    /// Points that needed a full (est-pruned) scan over all centres.
    pub scanned: u64,
    /// Exact naive `sq_dist` evaluations.
    pub exact: u64,
    /// Dot-product-form estimates.
    pub estimates: u64,
    /// Cancellation-guard trips (estimate discarded, naive form used).
    pub guard_trips: u64,
    /// Passes where the adaptive bypass dropped Hamerly bookkeeping and
    /// took the vectorized full scan instead (blocked tier only).
    pub bypass: u64,
}

impl AssignStats {
    fn add(&mut self, o: &AssignStats) {
        self.skipped += o.skipped;
        self.tightened += o.tightened;
        self.scanned += o.scanned;
        self.exact += o.exact;
        self.estimates += o.estimates;
        self.guard_trips += o.guard_trips;
        self.bypass += o.bypass;
    }

    /// Mirrors the pass into the telemetry counters, deriving the work
    /// accounting (`kernels.flops`, `kernels.bytes_touched`) from the
    /// kernel-call tallies analytically: an exact `sq_dist` over `d`
    /// coordinates costs ~3d flops (sub, mul, add per lane), a dot-form
    /// estimate ~2d, and either reads two `d`-length `f64` rows (16d
    /// bytes). Coarse by design — the counters are a roofline model for
    /// `multiclust bench`, not a hardware profile — and aggregated once
    /// per pass so the hot loops stay counter-free.
    fn record(&self, d: usize) {
        let d = d as u64;
        multiclust_telemetry::counter_add("kernels.assign.skipped", self.skipped);
        multiclust_telemetry::counter_add("kernels.assign.tightened", self.tightened);
        multiclust_telemetry::counter_add("kernels.assign.scanned", self.scanned);
        multiclust_telemetry::counter_add("kernels.exact", self.exact);
        multiclust_telemetry::counter_add("kernels.estimates", self.estimates);
        multiclust_telemetry::counter_add("kernels.guard_trips", self.guard_trips);
        multiclust_telemetry::counter_add("kernels.assign.bypass", self.bypass);
        multiclust_telemetry::counter_add(
            "kernels.flops",
            3 * d * self.exact + 2 * d * self.estimates,
        );
        multiclust_telemetry::counter_add(
            "kernels.bytes_touched",
            16 * d * (self.exact + self.estimates),
        );
    }
}

/// Panel-vectorized exact exhaustive sweep: every point against every
/// centre, vectorized across *points* (so the SIMD lanes are full for any
/// centre count, unlike the per-centre dot panels which need at least one
/// full stripe of centres). Points are packed once; per cache-sized block
/// of points each centre's exact squared-distance row is computed by the
/// panel kernel — per-lane ascending-coordinate accumulation, bit-identical
/// to [`sq_dist`] — then `per_point` receives each point's distance column.
/// No estimates, no margins: every value is exact, so downstream
/// first-minimum decisions replicate the naive scan bit-for-bit.
fn exact_block_sweep<T, F>(d: usize, points: &[f64], centers: &[Vec<f64>], per_point: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[f64]) -> T + Sync,
{
    let n = points.len() / d.max(1);
    let k = centers.len();
    let packed = block::PackedPanels::pack(d, points);
    // Point-block size: keep the k × block d² tile around 32 KiB (L1).
    let blk = (4096 / k.max(1)).clamp(16, block::MAX_TILE_COLS);
    let n_blocks = n.div_ceil(blk);
    let out: Vec<Vec<T>> = multiclust_parallel::par_map_indexed(n_blocks, 1, |b| {
        let lo = b * blk;
        let m = blk.min(n - lo);
        let mut d2 = vec![0.0f64; k * m];
        for (ci, center) in centers.iter().enumerate() {
            packed.sq_dist_row(center, lo, &mut d2[ci * m..ci * m + m]);
        }
        let mut col = vec![0.0f64; k];
        (0..m)
            .map(|j| {
                for (ci, slot) in col.iter_mut().enumerate() {
                    *slot = d2[ci * m + j];
                }
                per_point(lo + j, &col)
            })
            .collect()
    });
    out.into_iter().flatten().collect()
}

/// [`PointOut`] from a point's exact squared-distance column: first
/// minimum for the label (identical comparisons to [`reference::nearest`])
/// and the exact second-closest distance for the lower bound.
fn exact_point_out(d: usize, col: &[f64]) -> PointOut {
    let mut best = (0usize, f64::INFINITY);
    let mut second = f64::INFINITY;
    for (c, &v) in col.iter().enumerate() {
        if v < best.1 {
            second = best.1;
            best = (c, v);
        } else if v < second {
            second = v;
        }
    }
    PointOut {
        label: best.0,
        ub: best.1.sqrt(),
        lb: deflate(second.sqrt(), d),
        stats: AssignStats {
            scanned: 1,
            exact: col.len() as u64,
            ..AssignStats::default()
        },
    }
}

/// Outcome of one point in an assignment pass.
struct PointOut {
    label: usize,
    ub: f64,
    lb: f64,
    stats: AssignStats,
}

/// Hamerly-style bound-pruned nearest-centre assignment with state carried
/// across iterations.
///
/// Each point keeps an upper bound `ub` on its distance to its assigned
/// centre and a lower bound `lb` on the distance to its second-closest
/// centre. After the centres move, the bounds are updated by the centre
/// drifts (inflated/deflated by a certified error slack); when
/// `ub < max(s(a), lb)` — with `s(a)` half the distance from the assigned
/// centre to its closest other centre — the assigned centre is *provably*
/// the unique nearest and the whole inner loop is skipped. Points that
/// fail the test recompute the assigned distance, and only then fall back
/// to a full scan where the dot-product estimate prunes candidates and
/// survivors are verified with the exact naive kernel. Cold passes, and
/// warm passes whose bounds have gone stale, run the exact across-points
/// panel sweep instead.
///
/// The produced labels are bit-identical to
/// [`reference::nearest`] per point at any thread count and in either
/// [`KernelMode`] (in [`KernelMode::Naive`] the exhaustive scan runs
/// directly).
pub struct NearestAssign {
    n: usize,
    labels: Vec<usize>,
    ub: Vec<f64>,
    lb: Vec<f64>,
    prev: Vec<Vec<f64>>,
    ready: bool,
}

impl NearestAssign {
    /// An assigner for `n` points with no history.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            labels: vec![0; n],
            ub: vec![0.0; n],
            lb: vec![0.0; n],
            prev: Vec::new(),
            ready: false,
        }
    }

    /// The labels of the most recent [`NearestAssign::assign`] call.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Assigns every row of the flat `n × d` buffer `points` to its
    /// nearest centre (`norms` must be [`sq_norms`] of `points`), and
    /// returns this pass's kernel statistics.
    ///
    /// # Panics
    /// Panics when `centers` is empty or the buffer sizes disagree with
    /// the `n` the assigner was built for.
    pub fn assign(
        &mut self,
        d: usize,
        points: &[f64],
        norms: &[f64],
        centers: &[Vec<f64>],
    ) -> AssignStats {
        assert!(!centers.is_empty(), "at least one centre required");
        assert_eq!(points.len(), self.n * d, "points buffer size mismatch");
        assert_eq!(norms.len(), self.n, "norms cache size mismatch");
        let k = centers.len();
        let chunk = (1usize << 14) / (k * d.max(1)).max(1) + 1;

        let naive = kernel_mode() == KernelMode::Naive;
        if naive || k < PRUNE_MIN_K {
            // Exhaustive scan (naive mode, or too few centres for bound
            // pruning to pay); bounds are not maintained, so a later
            // pruned call re-initialises from scratch. The blocked tier
            // still vectorizes the exhaustive scan across points — the
            // values and first-minimum choices are exact either way.
            self.ready = false;
            self.labels = if naive {
                multiclust_parallel::par_map_indexed(self.n, chunk, |i| {
                    reference::nearest(&points[i * d..(i + 1) * d], centers).0
                })
            } else {
                exact_block_sweep(d, points, centers, |_, col| {
                    let mut best = (0usize, f64::INFINITY);
                    for (c, &v) in col.iter().enumerate() {
                        if v < best.1 {
                            best = (c, v);
                        }
                    }
                    best.0
                })
            };
            let stats = AssignStats {
                scanned: self.n as u64,
                exact: (self.n * k) as u64,
                ..AssignStats::default()
            };
            multiclust_telemetry::histogram_record("kernels.assign.batch", self.n as u64);
            stats.record(d);
            return stats;
        }

        let out: Vec<PointOut> = if self.ready && self.prev.len() == k {
            // Upper bound on each centre's drift since the last pass.
            let drift: Vec<f64> = (0..k)
                .map(|c| inflate(dist(&self.prev[c], &centers[c]), d))
                .collect();
            let max_drift = drift.iter().cloned().fold(0.0f64, f64::max);
            // s(c): half the (deflated) distance to the closest other
            // centre — a certified lower bound, so `ub < s(a)` proves the
            // assigned centre is the unique nearest.
            let s: Vec<f64> = (0..k)
                .map(|c| {
                    let mind = (0..k)
                        .filter(|&o| o != c)
                        .map(|o| deflate(dist(&centers[c], &centers[o]), d))
                        .fold(f64::INFINITY, f64::min);
                    deflate(0.5 * mind, d)
                })
                .collect();
            // Adaptive bypass: replay the Hamerly test on the stored
            // bounds — an O(n) pretest with no distance computations — and
            // when fewer than half the points would skip, drop the bound
            // bookkeeping for this pass and run the vectorized full scan
            // instead. Small-k workloads with large drifts (Dec-kMeans'
            // per-view passes) are exactly where drift-inflated bounds stop
            // paying. The full scan recomputes exact bounds, so the next
            // pass can re-enter the test.
            let would_skip = (0..self.n)
                .filter(|&i| {
                    let a = self.labels[i];
                    let ub = inflate(self.ub[i] + drift[a], d);
                    let lb = deflate(self.lb[i] - max_drift, d);
                    ub < s[a].max(lb)
                })
                .count();
            if 2 * would_skip < self.n {
                let mut out =
                    exact_block_sweep(d, points, centers, |_, col| exact_point_out(d, col));
                if let Some(first) = out.first_mut() {
                    first.stats.bypass = 1;
                }
                out
            } else {
                let cnorms: Vec<f64> = centers.iter().map(|c| dot(c, c)).collect();
                // Large centre counts: pack the centres once per pass and
                // feed the per-point scan from vectorized panel dots. Below
                // a full SIMD stripe of centres the panel dots degenerate
                // to scalar tails plus packing overhead, so small-k scans
                // compute their dot estimates one centre at a time.
                let packed = (block::STRIPE..=block::MAX_TILE_COLS)
                    .contains(&k)
                    .then(|| block::PackedPanels::pack_rows(d, centers));
                multiclust_parallel::par_map_indexed(self.n, chunk, |i| {
                    let row = &points[i * d..(i + 1) * d];
                    let a = self.labels[i];
                    let ub = inflate(self.ub[i] + drift[a], d);
                    let lb = deflate(self.lb[i] - max_drift, d);
                    let thresh = s[a].max(lb);
                    if ub < thresh {
                        return PointOut {
                            label: a,
                            ub,
                            lb,
                            stats: AssignStats { skipped: 1, ..AssignStats::default() },
                        };
                    }
                    // Tighten: the exact assigned-centre distance may
                    // already pass the test.
                    let da = sq_dist(row, &centers[a]).sqrt();
                    if da < thresh {
                        return PointOut {
                            label: a,
                            ub: da,
                            lb,
                            stats: AssignStats {
                                tightened: 1,
                                exact: 1,
                                ..AssignStats::default()
                            },
                        };
                    }
                    let mut stats = AssignStats {
                        scanned: 1,
                        exact: 1,
                        ..Default::default()
                    };
                    let mut dots = [0.0f64; block::MAX_TILE_COLS];
                    let dots = packed.as_ref().map(|p| {
                        p.dot_row(row, 0, &mut dots[..k]);
                        &dots[..k]
                    });
                    scan_point(row, norms[i], centers, &cnorms, dots, &mut stats)
                })
            }
        } else {
            // Cold pass: exact across-points sweep (full SIMD lanes at any
            // centre count) seeds exact bounds for the warm passes.
            exact_block_sweep(d, points, centers, |_, col| exact_point_out(d, col))
        };

        let mut stats = AssignStats::default();
        for (i, p) in out.into_iter().enumerate() {
            self.labels[i] = p.label;
            self.ub[i] = p.ub;
            self.lb[i] = p.lb;
            stats.add(&p.stats);
        }
        self.prev = centers.to_vec();
        self.ready = true;
        multiclust_telemetry::histogram_record("kernels.assign.batch", self.n as u64);
        stats.record(d);
        stats
    }
}

/// Full est-pruned scan of one point over all centres.
///
/// For each centre the dot-product estimate with certified margin either
/// *proves* the centre loses to the best exact distance found so far
/// (`est − margin > best`, in which case the naive kernel would also
/// reject it) or the exact distance is computed and compared with strict
/// `<` — so the result is the first minimum of the exhaustive scan,
/// bit-for-bit. The returned lower bound on the second-closest distance
/// uses exact values where computed and `est − margin` elsewhere.
///
/// `dots` optionally supplies precomputed per-centre dot products (the
/// panel sweep); they are bit-identical to [`dot`], so the produced label
/// is the same either way.
fn scan_point(
    row: &[f64],
    nx: f64,
    centers: &[Vec<f64>],
    cnorms: &[f64],
    dots: Option<&[f64]>,
    stats: &mut AssignStats,
) -> PointOut {
    let d = row.len();
    let eps = slack(d);
    let mut best = (0usize, f64::INFINITY);
    // Two smallest certified lower bounds (value, centre) across all
    // centres, for the second-closest bound.
    let mut lo1 = (f64::INFINITY, usize::MAX);
    let mut lo2 = f64::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let mass = nx + cnorms[c];
        let dotv = match dots {
            Some(ds) => ds[c],
            None => dot(row, center),
        };
        let est = mass - 2.0 * dotv;
        let margin = eps * mass;
        stats.estimates += 1;
        let guarded = est < GUARD_REL * mass;
        let lo = if guarded || est - margin <= best.1 {
            // Candidate (or numerically untrustworthy estimate): verify
            // with the exact naive kernel.
            stats.exact += 1;
            if guarded {
                stats.guard_trips += 1;
            }
            let d2 = sq_dist(row, center);
            if d2 < best.1 {
                best = (c, d2);
            }
            d2
        } else {
            // Certified: the exact d² is at least est − margin > best.
            (est - margin).max(0.0)
        };
        if lo < lo1.0 {
            lo2 = lo1.0;
            lo1 = (lo, c);
        } else if lo < lo2 {
            lo2 = lo;
        }
    }
    let second_lo = if lo1.1 == best.0 { lo2 } else { lo1.0 };
    PointOut {
        label: best.0,
        ub: best.1.sqrt(),
        lb: deflate(second_lo.sqrt(), d),
        stats: *stats,
    }
}

/// One-shot parallel nearest-centre assignment comparing *computed
/// Euclidean distances* (first minimum on ties) — the comparison PROCLUS
/// uses for medoid localities. The blocked tier runs the exact
/// across-points panel sweep, whose `d²` equals [`sq_dist`] bit-for-bit,
/// so the comparisons replicate [`reference::nearest_by_dist`] exactly.
pub fn assign_by_dist(d: usize, points: &[f64], centers: &[Vec<f64>]) -> Vec<usize> {
    assert!(!centers.is_empty(), "at least one centre required");
    let n = points.len() / d.max(1);
    let k = centers.len();
    let chunk = (1usize << 14) / (k * d.max(1)).max(1) + 1;
    if kernel_mode() == KernelMode::Naive || k < PRUNE_MIN_K {
        return multiclust_parallel::par_map_indexed(n, chunk, |i| {
            reference::nearest_by_dist(&points[i * d..(i + 1) * d], centers)
        });
    }
    // Exact across-points sweep; the per-point comparison replays
    // [`reference::nearest_by_dist`] on the same bits (the panel d²
    // equals `sq_dist` exactly, so its square root equals [`dist`]).
    let labels = exact_block_sweep(d, points, centers, |_, col| {
        let mut best = (0usize, f64::INFINITY);
        for (c, &v) in col.iter().enumerate() {
            let dc = v.sqrt();
            if dc < best.1 {
                best = (c, dc);
            }
        }
        best.0
    });
    let stats = AssignStats {
        scanned: n as u64,
        exact: (n * k) as u64,
        ..AssignStats::default()
    };
    multiclust_telemetry::histogram_record("kernels.assign.batch", n as u64);
    stats.record(d);
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_flat(n: usize, d: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d).map(|_| rng.gen_range(-5.0..5.0)).collect()
    }

    /// Runs `f` under a fixed kernel-mode override. The override is
    /// process-global and tests run concurrently, so every test that sets
    /// or *asserts on* mode-dependent statistics goes through this lock;
    /// the mode is restored even on panic.
    fn with_mode<T>(mode: KernelMode, f: impl FnOnce() -> T) -> T {
        use std::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_kernel_mode(Some(mode));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        set_kernel_mode(None);
        match out {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    #[test]
    fn norms_match_recomputation() {
        let flat = random_flat(40, 7, 1);
        let norms = sq_norms(7, &flat);
        for i in 0..40 {
            let row = &flat[i * 7..(i + 1) * 7];
            assert_eq!(norms[i], dot(row, row), "bit-identity of cached norm {i}");
        }
    }

    #[test]
    fn symmetric_matrix_matches_naive() {
        let flat = random_flat(23, 5, 2);
        let m = sq_dist_matrix(5, &flat);
        let naive = reference::sq_dist_matrix(5, &flat);
        assert_eq!(m, naive);
        for i in 0..23 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..23 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn condensed_indexing_round_trips() {
        let n = 9;
        let m = SymmetricMatrix::build(n, |i, j| (i * 100 + j) as f64);
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(m.get(i, j), (i * 100 + j) as f64);
            }
        }
    }

    /// The cancellation guard on the live path: blobs far from the origin
    /// (so `‖x‖² + ‖c‖²` dwarfs every same-blob `d²`), with the first
    /// centre duplicated as the last. Points of that blob can never pass
    /// the Hamerly test (their assigned centre is zero away from another
    /// one), so the warm pass sends them through `scan_point`, whose
    /// dot-form estimates cancel and must trip the guard. The other blobs
    /// keep skipping, so the pass does not bypass to the exact sweep. Both
    /// warm estimate sources are driven: per-centre scalar dots (k below
    /// `block::STRIPE`) and the packed panel dots (k at or above it).
    #[test]
    fn guard_fires_on_warm_scan_of_far_duplicates() {
        let d = 3;
        for blobs in [4, block::STRIPE] {
            let mut rng = StdRng::seed_from_u64(9);
            let mut centers: Vec<Vec<f64>> = (0..blobs)
                .map(|b| vec![1e8 + 1e3 * b as f64, -1e8, 3e7])
                .collect();
            centers.push(centers[0].clone());
            let flat: Vec<f64> = (0..blobs * 10)
                .flat_map(|i| {
                    let c = &centers[i % blobs];
                    c.iter().map(|&x| x + rng.gen_range(-1.0..1.0)).collect::<Vec<_>>()
                })
                .collect();
            let n = flat.len() / d;
            let norms = sq_norms(d, &flat);
            let k = centers.len();
            with_mode(KernelMode::Blocked, || {
                let mut assigner = NearestAssign::new(n);
                assigner.assign(d, &flat, &norms, &centers);
                let stats = assigner.assign(d, &flat, &norms, &centers);
                assert_eq!(stats.bypass, 0, "k={k}: {stats:?}");
                assert!(stats.scanned > 0, "k={k}: {stats:?}");
                assert!(stats.guard_trips > 0, "k={k}: guard never fired: {stats:?}");
                for i in 0..n {
                    assert_eq!(
                        assigner.labels()[i],
                        reference::nearest(&flat[i * d..(i + 1) * d], &centers).0,
                        "k={k} point {i}"
                    );
                }
            });
        }
    }

    #[test]
    fn pruned_assignment_matches_reference_across_iterations() {
        let n = 120;
        let d = 6;
        let flat = random_flat(n, d, 3);
        let norms = sq_norms(d, &flat);
        with_mode(KernelMode::Blocked, || {
            let mut rng = StdRng::seed_from_u64(4);
            let mut centers: Vec<Vec<f64>> = (0..5)
                .map(|_| (0..d).map(|_| rng.gen_range(-5.0..5.0)).collect())
                .collect();
            let mut assigner = NearestAssign::new(n);
            // Drift the centres over several rounds; every round must
            // match the exhaustive scan bit-for-bit.
            for round in 0..6 {
                assigner.assign(d, &flat, &norms, &centers);
                for i in 0..n {
                    let want = reference::nearest(&flat[i * d..(i + 1) * d], &centers).0;
                    assert_eq!(
                        assigner.labels()[i],
                        want,
                        "round {round}, point {i} diverged from the naive scan"
                    );
                }
                for c in &mut centers {
                    for x in c.iter_mut() {
                        *x += rng.gen_range(-0.3..0.3);
                    }
                }
            }
        });
    }

    /// Two tight blobs at 0 and 50 on every coordinate, plus four
    /// well-separated centres (≥ `PRUNE_MIN_K`, so pruning engages).
    fn blobs_and_centers(n: usize, d: usize) -> (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(5);
        let flat: Vec<f64> = (0..n)
            .flat_map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 50.0 };
                (0..d)
                    .map(|_| base + rng.gen_range(-0.5..0.5))
                    .collect::<Vec<_>>()
            })
            .collect();
        let norms = sq_norms(d, &flat);
        let centers = vec![
            vec![0.0; d],
            vec![50.0; d],
            vec![100.0; d],
            vec![150.0; d],
        ];
        (flat, norms, centers)
    }

    #[test]
    fn later_rounds_skip_most_points() {
        let n = 200;
        let d = 4;
        let (flat, norms, centers) = blobs_and_centers(n, d);
        with_mode(KernelMode::Blocked, || {
            let mut assigner = NearestAssign::new(n);
            assigner.assign(d, &flat, &norms, &centers);
            // Stationary centres: the Hamerly test must skip everything
            // (and the pretest must NOT bypass it).
            let stats = assigner.assign(d, &flat, &norms, &centers);
            assert_eq!(stats.skipped, n as u64, "all skipped: {stats:?}");
            assert_eq!(stats.exact, 0);
            assert_eq!(stats.bypass, 0);
        });
    }

    #[test]
    fn adaptive_bypass_engages_then_reenters_hamerly() {
        let n = 200;
        let d = 4;
        let (flat, norms, centers) = blobs_and_centers(n, d);
        with_mode(KernelMode::Blocked, || {
            let mut assigner = NearestAssign::new(n);
            assigner.assign(d, &flat, &norms, &centers);
            // Shift every centre by 45 per coordinate: the drift (90 in
            // distance) inflates every upper bound past the separation
            // threshold, so the pretest predicts ~0 skips and the pass
            // must bypass the bound bookkeeping entirely.
            let moved: Vec<Vec<f64>> =
                centers.iter().map(|c| c.iter().map(|x| x + 45.0).collect()).collect();
            let stats = assigner.assign(d, &flat, &norms, &moved);
            assert_eq!(stats.bypass, 1, "bypass engaged: {stats:?}");
            assert_eq!(stats.skipped, 0);
            assert_eq!(stats.tightened, 0);
            assert_eq!(stats.scanned, n as u64);
            for i in 0..n {
                assert_eq!(
                    assigner.labels()[i],
                    reference::nearest(&flat[i * d..(i + 1) * d], &moved).0,
                    "bypassed pass stays bit-identical (point {i})"
                );
            }
            // The bypassed scan refreshed exact bounds: with the centres
            // now stationary, the next pass re-enters Hamerly and skips
            // every point instead of bypassing again.
            let stats = assigner.assign(d, &flat, &norms, &moved);
            assert_eq!(stats.bypass, 0, "{stats:?}");
            assert_eq!(stats.skipped, n as u64, "{stats:?}");
        });
    }

    #[test]
    fn blocked_matrix_builders_bit_identical() {
        let flat = random_flat(37, 5, 12);
        let naive_sq = reference::sq_dist_matrix(5, &flat);
        with_mode(KernelMode::Blocked, || {
            assert_eq!(sq_dist_matrix(5, &flat), naive_sq);
            let dm = dist_matrix(5, &flat);
            for i in 0..37 {
                for j in (i + 1)..37 {
                    let want = dist(&flat[i * 5..(i + 1) * 5], &flat[j * 5..(j + 1) * 5]);
                    assert_eq!(dm.get(i, j).to_bits(), want.to_bits(), "({i},{j})");
                }
            }
        });
    }

    #[test]
    fn gaussian_affinity_matches_naive_bits() {
        let n = 41;
        let d = 3;
        let flat = random_flat(n, d, 13);
        let denom = 2.0 * 1.3 * 1.3;
        let w = gaussian_affinity_matrix(d, &flat, denom);
        for i in 0..n {
            for j in 0..n {
                let want = if i == j {
                    0.0
                } else {
                    (-sq_dist(&flat[i * d..(i + 1) * d], &flat[j * d..(j + 1) * d]) / denom)
                        .exp()
                };
                assert_eq!(w[(i, j)].to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn gaussian_affinity_screen_underflows_to_exact_zero() {
        // Two clusters 10⁶ apart: cross-pair exponents are ~2.5·10¹¹ —
        // astronomically past SCREEN_CUT — so the screen must fire and the
        // written +0.0 must equal the naive exp's underflow bit-for-bit.
        let d = 2;
        let flat = vec![0.0, 0.0, 1.0, 0.5, 1e6, 1e6, 1e6 + 1.0, 1e6 - 0.5];
        let denom = 2.0;
        let w = gaussian_affinity_matrix(d, &flat, denom);
        for (i, j) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
            let want =
                (-sq_dist(&flat[i * d..(i + 1) * d], &flat[j * d..(j + 1) * d]) / denom).exp();
            assert_eq!(want.to_bits(), 0.0f64.to_bits(), "naive underflows to +0.0");
            assert_eq!(w[(i, j)].to_bits(), want.to_bits(), "({i},{j})");
            assert_eq!(w[(j, i)].to_bits(), want.to_bits(), "mirror ({j},{i})");
        }
        // Near pairs survive the screen and carry the exact value.
        let want01 = (-sq_dist(&flat[0..2], &flat[2..4]) / denom).exp();
        assert!(want01 > 0.0);
        assert_eq!(w[(0, 1)].to_bits(), want01.to_bits());
    }

    #[test]
    fn assign_by_dist_matches_reference() {
        let n = 80;
        let d = 5;
        let flat = random_flat(n, d, 6);
        let centers: Vec<Vec<f64>> =
            (0..4).map(|c| flat[c * d..(c + 1) * d].to_vec()).collect();
        with_mode(KernelMode::Blocked, || {
            let labels = assign_by_dist(d, &flat, &centers);
            for i in 0..n {
                assert_eq!(
                    labels[i],
                    reference::nearest_by_dist(&flat[i * d..(i + 1) * d], &centers),
                    "point {i}"
                );
            }
        });
    }

    #[test]
    fn naive_mode_produces_identical_labels() {
        let n = 60;
        let d = 3;
        let flat = random_flat(n, d, 7);
        let norms = sq_norms(d, &flat);
        let centers: Vec<Vec<f64>> =
            (0..3).map(|c| flat[c * d..(c + 1) * d].to_vec()).collect();
        let labels_in = |mode: KernelMode| {
            with_mode(mode, || {
                let mut a = NearestAssign::new(n);
                a.assign(d, &flat, &norms, &centers);
                a.labels().to_vec()
            })
        };
        let naive = labels_in(KernelMode::Naive);
        assert_eq!(labels_in(KernelMode::Blocked), naive);
    }

    #[test]
    fn below_prune_min_k_takes_exhaustive_path() {
        let n = 30;
        let d = 2;
        let flat = random_flat(n, d, 8);
        let norms = sq_norms(d, &flat);
        let centers = vec![vec![0.25, -0.5]];
        assert!(centers.len() < PRUNE_MIN_K);
        let mut assigner = NearestAssign::new(n);
        assigner.assign(d, &flat, &norms, &centers);
        let stats = assigner.assign(d, &flat, &norms, &centers);
        // With so few centres pruning cannot pay for its bookkeeping, so
        // every point is scanned exactly — nothing skipped, no estimates.
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.scanned, n as u64);
        assert_eq!(stats.exact, (n * centers.len()) as u64);
        assert!(assigner.labels().iter().all(|&l| l == 0));
    }
}
