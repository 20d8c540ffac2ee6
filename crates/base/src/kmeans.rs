//! Lloyd's k-means with k-means++ seeding and multiple restarts.

use multiclust_core::measures::quality::sum_of_squared_errors;
use multiclust_core::Clustering;
use multiclust_data::Dataset;
use multiclust_linalg::kernels::{sq_norms, NearestAssign};
use multiclust_linalg::vector::sq_dist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Clusterer;

/// Configuration for k-means.
///
/// ```
/// use multiclust_base::KMeans;
/// use multiclust_data::{seeded_rng, Dataset};
/// let data = Dataset::from_rows(&[vec![0.0], vec![0.1], vec![9.0], vec![9.1]]);
/// let res = KMeans::new(2).fit(&data, &mut seeded_rng(1));
/// assert!(res.clustering.same_cluster(0, 1));
/// assert!(!res.clustering.same_cluster(0, 2));
/// ```
#[derive(Clone, Debug)]
pub struct KMeans {
    k: usize,
    max_iter: usize,
    n_init: usize,
    tol: f64,
}

/// The output of a k-means run.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// The hard partition (no noise).
    pub clustering: Clustering,
    /// Final cluster centroids (`k` rows, dataset dimensionality columns).
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared errors of the final partition.
    pub sse: f64,
    /// Lloyd iterations of the best restart.
    pub iterations: usize,
}

impl KMeans {
    /// k-means with `k` clusters and default settings
    /// (100 iterations, 1 restart, tolerance `1e-8`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self { k, max_iter: 100, n_init: 1, tol: 1e-8 }
    }

    /// Sets the maximum Lloyd iterations per restart.
    #[must_use]
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Sets the number of restarts (best SSE wins).
    #[must_use]
    pub fn with_restarts(mut self, n_init: usize) -> Self {
        assert!(n_init >= 1, "at least one initialisation required");
        self.n_init = n_init;
        self
    }

    /// Sets the centroid-movement convergence tolerance.
    #[must_use]
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Runs k-means, returning the best of the configured restarts.
    ///
    /// Each restart draws a seed from `rng` up front and runs on its own
    /// generator, so restarts are independent and can execute in parallel;
    /// the winner (lowest SSE, earliest restart on ties) is identical at
    /// any thread count.
    ///
    /// # Panics
    /// Panics when the dataset has fewer objects than `k`.
    pub fn fit(&self, data: &Dataset, rng: &mut StdRng) -> KMeansResult {
        assert!(data.len() >= self.k, "need at least k objects");
        let _span = multiclust_telemetry::span("kmeans.fit");
        multiclust_telemetry::counter_add("kmeans.restarts", self.n_init as u64);
        let seeds: Vec<u64> = (0..self.n_init).map(|_| rng.gen()).collect();
        // Row norms are shared by every restart's bound-pruned assignment.
        let norms = sq_norms(data.dims(), data.as_slice());
        let runs = multiclust_parallel::par_map_indexed(self.n_init, 1, |r| {
            self.fit_once(data, &norms, &mut StdRng::seed_from_u64(seeds[r]), r)
        });
        let best = runs
            .into_iter()
            .reduce(|best, run| if run.sse < best.sse { run } else { best })
            .expect("n_init >= 1");
        multiclust_telemetry::counter_add("kmeans.iterations", best.iterations as u64);
        if multiclust_telemetry::enabled() {
            multiclust_telemetry::event(
                "kmeans.done",
                &[
                    ("sse", best.sse),
                    ("iterations", best.iterations as f64),
                    ("budget", self.max_iter as f64),
                ],
            );
        }
        best
    }

    fn fit_once(
        &self,
        data: &Dataset,
        norms: &[f64],
        rng: &mut StdRng,
        restart: usize,
    ) -> KMeansResult {
        let mut centroids = plus_plus_init(data, self.k, rng);
        let n = data.len();
        let d = data.dims();
        let mut iterations = 0;
        // Bound-pruned assignment through the shared distance kernels:
        // labels are bit-identical to the exhaustive `nearest` scan at any
        // thread count and in either kernel tier — cache-blocked SIMD
        // `blocked` or `naive` (see DESIGN.md, "Distance-kernel engine" and
        // "SIMD and blocking").
        let mut assigner = NearestAssign::new(n);
        for it in 0..self.max_iter {
            iterations = it + 1;
            // Assignment step.
            assigner.assign(d, data.as_slice(), norms, &centroids);
            let labels = assigner.labels();
            // Convergence trace: the k-means objective (inertia) of the
            // fresh assignment against the centroids it was made with.
            // Computed only when telemetry records — it reads state, never
            // changes it, so results are identical either way.
            if multiclust_telemetry::enabled() {
                let inertia: f64 = (0..n)
                    .map(|i| sq_dist(data.row(i), &centroids[labels[i]]))
                    .sum();
                multiclust_telemetry::event(
                    "kmeans.iter",
                    &[
                        ("restart", restart as f64),
                        ("iter", it as f64),
                        ("inertia", inertia),
                    ],
                );
            }
            // Update step.
            let mut sums = vec![vec![0.0; d]; self.k];
            let mut counts = vec![0usize; self.k];
            for (i, row) in data.rows().enumerate() {
                counts[labels[i]] += 1;
                for (s, &x) in sums[labels[i]].iter_mut().zip(row) {
                    *s += x;
                }
            }
            let mut moved: f64 = 0.0;
            for c in 0..self.k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster on a random object — keeps k
                    // clusters alive, matching standard practice.
                    let pick = rng.gen_range(0..n);
                    sums[c] = data.row(pick).to_vec();
                    counts[c] = 1;
                }
                for s in &mut sums[c] {
                    *s /= counts[c] as f64;
                }
                moved = moved.max(sq_dist(&sums[c], &centroids[c]));
                centroids[c] = std::mem::take(&mut sums[c]);
            }
            if moved <= self.tol {
                break;
            }
        }
        // Final assignment against the last centroids.
        assigner.assign(d, data.as_slice(), norms, &centroids);
        let clustering = Clustering::from_labels(assigner.labels());
        let sse = sum_of_squared_errors(data, &clustering);
        KMeansResult { clustering, centroids, sse, iterations }
    }
}

impl Clusterer for KMeans {
    fn cluster(&self, data: &Dataset, rng: &mut StdRng) -> Clustering {
        self.fit(data, rng).clustering
    }

    fn name(&self) -> &'static str {
        "k-means"
    }
}

/// Index and squared distance of the nearest centre to `row`.
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

/// k-means++ seeding: the first centre uniform, subsequent centres sampled
/// proportionally to squared distance from the nearest chosen centre.
pub fn plus_plus_init(data: &Dataset, k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let n = data.len();
    let d = data.dims();
    // Per-object distance updates are elementwise, so they parallelise
    // without changing any value; the weighted pick below stays serial
    // (it is a cumulative scan).
    let chunk = (1usize << 14) / d.max(1) + 1;
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    centers.push(data.row(rng.gen_range(0..n)).to_vec());
    let mut d2: Vec<f64> = multiclust_parallel::par_map_indexed(n, chunk, |i| {
        sq_dist(data.row(i), &centers[0])
    });
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining mass at distance zero (duplicate points):
            // fall back to uniform sampling.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    pick = i;
                    break;
                }
                target -= w;
            }
            pick
        };
        centers.push(data.row(next).to_vec());
        let latest = centers.last().expect("just pushed");
        d2 = multiclust_parallel::par_map_indexed(n, chunk, |i| {
            d2[i].min(sq_dist(data.row(i), latest))
        });
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiclust_core::measures::diss::adjusted_rand_index;
    use multiclust_data::synthetic::gaussian_blobs;
    use multiclust_data::seeded_rng;

    #[test]
    fn recovers_well_separated_blobs() {
        let mut rng = seeded_rng(21);
        let centers = vec![vec![0.0, 0.0], vec![20.0, 0.0], vec![0.0, 20.0]];
        let (data, truth) = gaussian_blobs(&centers, 1.0, 40, &mut rng);
        let res = KMeans::new(3).with_restarts(4).fit(&data, &mut rng);
        let truth_c = Clustering::from_labels(&truth);
        assert!(adjusted_rand_index(&res.clustering, &truth_c) > 0.99);
        assert_eq!(res.clustering.num_clusters(), 3);
    }

    #[test]
    fn sse_decreases_with_more_clusters() {
        let mut rng = seeded_rng(22);
        let (data, _) = gaussian_blobs(
            &[vec![0.0, 0.0], vec![10.0, 10.0]],
            2.0,
            50,
            &mut rng,
        );
        let sse2 = KMeans::new(2).with_restarts(3).fit(&data, &mut rng).sse;
        let sse4 = KMeans::new(4).with_restarts(3).fit(&data, &mut rng).sse;
        assert!(sse4 < sse2);
    }

    #[test]
    fn k_equals_one_groups_everything() {
        let mut rng = seeded_rng(23);
        let data = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![5.0]]);
        let res = KMeans::new(1).fit(&data, &mut rng);
        assert_eq!(res.clustering.sizes(), vec![3]);
        assert!((res.centroids[0][0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_seed() {
        let data = {
            let mut rng = seeded_rng(24);
            gaussian_blobs(&[vec![0.0; 3], vec![8.0; 3]], 1.0, 30, &mut rng).0
        };
        let a = KMeans::new(2).fit(&data, &mut seeded_rng(7)).clustering;
        let b = KMeans::new(2).fit(&data, &mut seeded_rng(7)).clustering;
        assert_eq!(a, b);
    }

    #[test]
    fn plus_plus_spreads_initial_centers() {
        let mut rng = seeded_rng(25);
        let (data, _) = gaussian_blobs(
            &[vec![0.0, 0.0], vec![100.0, 100.0]],
            0.5,
            50,
            &mut rng,
        );
        let centers = plus_plus_init(&data, 2, &mut rng);
        // The two seeds should land in different blobs with overwhelming
        // probability given the separation.
        let d2 = sq_dist(&centers[0], &centers[1]);
        assert!(d2 > 1000.0, "seeds too close: {d2}");
    }

    #[test]
    fn duplicate_points_do_not_panic() {
        let mut rng = seeded_rng(26);
        let data = Dataset::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let res = KMeans::new(2).fit(&data, &mut rng);
        assert_eq!(res.clustering.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least k objects")]
    fn too_few_objects_panics() {
        let mut rng = seeded_rng(27);
        let data = Dataset::from_rows(&[vec![1.0]]);
        let _ = KMeans::new(2).fit(&data, &mut rng);
    }
}
