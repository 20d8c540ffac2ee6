//! Quality measures `Q` for a single clustering on a dataset.

use multiclust_data::Dataset;
use multiclust_linalg::vector::{dist, sq_dist};

use crate::Clustering;

/// Cluster centroids (means); empty clusters yield `None` entries.
pub fn centroids(data: &Dataset, clustering: &Clustering) -> Vec<Option<Vec<f64>>> {
    assert_eq!(data.len(), clustering.len(), "data/clustering size mismatch");
    let d = data.dims();
    let k = clustering.num_clusters();
    let mut sums = vec![vec![0.0; d]; k];
    let mut counts = vec![0usize; k];
    for (i, row) in data.rows().enumerate() {
        if let Some(c) = clustering.assignment(i) {
            counts[c] += 1;
            for (s, &x) in sums[c].iter_mut().zip(row) {
                *s += x;
            }
        }
    }
    sums.into_iter()
        .zip(counts)
        .map(|(mut s, c)| {
            if c == 0 {
                None
            } else {
                for x in &mut s {
                    *x /= c as f64;
                }
                Some(s)
            }
        })
        .collect()
}

/// Sum of squared errors to cluster centroids — the k-means objective
/// ("compactness / total distance", slide 28). Lower is better; noise
/// objects do not contribute.
pub fn sum_of_squared_errors(data: &Dataset, clustering: &Clustering) -> f64 {
    let cent = centroids(data, clustering);
    let mut sse = 0.0;
    for (i, row) in data.rows().enumerate() {
        if let Some(c) = clustering.assignment(i) {
            if let Some(center) = &cent[c] {
                sse += sq_dist(row, center);
            }
        }
    }
    sse
}

/// Mean silhouette coefficient over assigned objects, in `[-1, 1]`
/// (higher = better separated clusters). Objects in singleton clusters get
/// silhouette `0`; returns `0.0` when fewer than two non-empty clusters
/// exist (silhouette is undefined there).
pub fn silhouette(data: &Dataset, clustering: &Clustering) -> f64 {
    assert_eq!(data.len(), clustering.len(), "data/clustering size mismatch");
    let members = clustering.members();
    let non_empty = members.iter().filter(|m| !m.is_empty()).count();
    if non_empty < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    for (i, row) in data.rows().enumerate() {
        let Some(ci) = clustering.assignment(i) else { continue };
        let own = &members[ci];
        if own.len() <= 1 {
            counted += 1; // silhouette 0 contribution
            continue;
        }
        // a(i): mean distance to own cluster (excluding self).
        let a: f64 = own
            .iter()
            .filter(|&&j| j != i)
            .map(|&j| dist(row, data.row(j)))
            .sum::<f64>()
            / (own.len() - 1) as f64;
        // b(i): min over other clusters of mean distance.
        let mut b = f64::INFINITY;
        for (c, m) in members.iter().enumerate() {
            if c == ci || m.is_empty() {
                continue;
            }
            let mean: f64 =
                m.iter().map(|&j| dist(row, data.row(j))).sum::<f64>() / m.len() as f64;
            b = b.min(mean);
        }
        let denom = a.max(b);
        total += if denom > 0.0 { (b - a) / denom } else { 0.0 };
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Dataset, Clustering) {
        let data = Dataset::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![10.0, 10.0],
            vec![10.0, 11.0],
        ]);
        (data, Clustering::from_labels(&[0, 0, 1, 1]))
    }

    #[test]
    fn centroids_are_means() {
        let (data, c) = two_blobs();
        let cent = centroids(&data, &c);
        assert_eq!(cent[0].as_deref(), Some(&[0.0, 0.5][..]));
        assert_eq!(cent[1].as_deref(), Some(&[10.0, 10.5][..]));
    }

    #[test]
    fn empty_cluster_centroid_is_none() {
        let data = Dataset::from_rows(&[vec![1.0]]);
        let c = Clustering::from_options(vec![Some(1)]); // label 0 unused
        let cent = centroids(&data, &c);
        assert!(cent[0].is_none());
        assert!(cent[1].is_some());
    }

    #[test]
    fn sse_of_good_vs_bad_partition() {
        let (data, good) = two_blobs();
        let bad = Clustering::from_labels(&[0, 1, 0, 1]);
        assert!(sum_of_squared_errors(&data, &good) < sum_of_squared_errors(&data, &bad));
        // Good partition: each pair 1 apart ⇒ SSE = 2·(0.5² + 0.5²) = 1.
        assert!((sum_of_squared_errors(&data, &good) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn silhouette_prefers_true_structure() {
        let (data, good) = two_blobs();
        let bad = Clustering::from_labels(&[0, 1, 0, 1]);
        let s_good = silhouette(&data, &good);
        let s_bad = silhouette(&data, &bad);
        assert!(s_good > 0.8, "good split strongly positive: {s_good}");
        assert!(s_bad < 0.0, "bad split negative: {s_bad}");
    }

    #[test]
    fn silhouette_of_single_cluster_is_zero() {
        let data = Dataset::from_rows(&[vec![0.0], vec![1.0]]);
        let c = Clustering::from_labels(&[0, 0]);
        assert_eq!(silhouette(&data, &c), 0.0);
    }

    #[test]
    fn noise_objects_do_not_contribute_to_sse() {
        let data = Dataset::from_rows(&[vec![0.0], vec![100.0], vec![1.0]]);
        let c = Clustering::from_options(vec![Some(0), None, Some(0)]);
        // Centroid of {0, 1.0} is 0.5 → SSE = 0.25 + 0.25.
        assert!((sum_of_squared_errors(&data, &c) - 0.5).abs() < 1e-12);
    }
}
