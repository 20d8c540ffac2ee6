//! Seeded inputs for every workload: planted two-view data generated by
//! the benchmark itself, so a change to the program cannot change what
//! the program is asked to do.
//!
//! Each object has a label in view A (dims 0–2, 3 clusters) and an
//! independent label in view B (dims 3–5, 3 clusters), plus 2 pure-noise
//! dims: d = 8. View B is the more separated one, so a single clustering
//! finds it; the alternative methods are given A and must find B, and
//! multi-view clustering of views A and B together targets their 9
//! combinations.
//!
//! View B's cluster centres sit at different distances from the origin.
//! In a symmetric layout (equal distances) its two leading
//! non-trivial affinity eigenvalues coincide, and the spectral family's
//! power iteration, which stops when each vector's Rayleigh quotient
//! settles, spends its whole sweep budget rotating inside that
//! degenerate subspace: the fit time would measure the budget, not
//! convergence.

/// Dimensionality of every generated row.
pub const D: usize = 8;
/// View A's attribute indices.
pub const VIEW_A: [usize; 3] = [0, 1, 2];
/// View B's attribute indices.
pub const VIEW_B: [usize; 3] = [3, 4, 5];
/// Clusters planted per view.
pub const K: usize = 3;

/// Distance of each view-A centre from the view's origin.
const SEP_A: f64 = 6.0;
/// Distance of each view-B centre from the view's origin, by cluster.
const SEP_B: [f64; K] = [6.0, 10.0, 14.0];
/// Standard deviation of the within-cluster and noise-dim scatter.
const SPREAD: f64 = 1.0;

/// SplitMix64: a small, fixed generator owned by the benchmark.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` and a stream name, so independent
    /// inputs of one run never share a stream.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        Self(h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// One planted two-view dataset.
#[derive(Clone, Debug)]
pub struct Planted {
    /// Row-major objects, `D` values each.
    pub rows: Vec<Vec<f64>>,
    /// View-A truth.
    pub truth_a: Vec<usize>,
    /// View-B truth.
    pub truth_b: Vec<usize>,
}

impl Planted {
    /// `n` objects drawn from the stream named `stream` of `seed`.
    pub fn generate(n: usize, seed: u64, stream: &str) -> Self {
        let mut rng = Rng::new(seed, stream);
        let mut rows = Vec::with_capacity(n);
        let mut truth_a = Vec::with_capacity(n);
        let mut truth_b = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.below(K);
            let b = rng.below(K);
            let mut row = vec![0.0; D];
            for (axis, &dim) in VIEW_A.iter().enumerate() {
                let centre = if axis == a { SEP_A } else { 0.0 };
                row[dim] = centre + SPREAD * rng.normal();
            }
            for (axis, &dim) in VIEW_B.iter().enumerate() {
                let centre = if axis == b { SEP_B[b] } else { 0.0 };
                row[dim] = centre + SPREAD * rng.normal();
            }
            for x in row.iter_mut().skip(6) {
                *x = SPREAD * rng.normal();
            }
            rows.push(row);
            truth_a.push(a);
            truth_b.push(b);
        }
        Self {
            rows,
            truth_a,
            truth_b,
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The rows flattened row-major.
    pub fn flat(&self) -> Vec<f64> {
        self.rows.iter().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_differ() {
        let a = Planted::generate(50, 7, "x");
        let b = Planted::generate(50, 7, "x");
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.truth_a, b.truth_a);
        let c = Planted::generate(50, 7, "y");
        assert_ne!(a.rows, c.rows);
        let e = Planted::generate(50, 8, "x");
        assert_ne!(a.rows, e.rows);
    }

    #[test]
    fn every_planted_cluster_is_populated() {
        let p = Planted::generate(300, 1, "pop");
        for k in 0..K {
            assert!(p.truth_a.iter().filter(|&&l| l == k).count() > 50);
            assert!(p.truth_b.iter().filter(|&&l| l == k).count() > 50);
        }
        assert!(p
            .rows
            .iter()
            .all(|r| r.len() == D && r.iter().all(|x| x.is_finite())));
    }
}
