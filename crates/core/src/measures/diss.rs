//! Dissimilarity / agreement measures between two clusterings.
//!
//! These are the `Diss : Clusterings × Clusterings → R` functions of the
//! abstract problem definition (slide 27). Pair-counting measures (Rand
//! family) and information-theoretic measures (MI family) are both
//! provided because the surveyed methods split along exactly that line:
//! COALA and meta clustering compare by Rand-style agreement, the
//! information-bottleneck and CAMI methods by mutual information.
//!
//! Conventions: agreement indices (Rand, ARI, Jaccard, NMI) are *high for
//! similar* clusterings; to use them as `Diss`, callers take `1 − index`.
//! Variation of information and conditional entropy are *high for
//! dissimilar* clusterings already.

use crate::{Clustering, ContingencyTable};

/// Rand index: fraction of object pairs on which the two clusterings agree
/// (co-clustered in both or separated in both). Range `[0, 1]`, `1` iff the
/// partitions are identical over the shared objects.
pub fn rand_index(a: &Clustering, b: &Clustering) -> f64 {
    let (n11, n10, n01, n00) = ContingencyTable::new(a, b).pair_counts();
    let total = n11 + n10 + n01 + n00;
    if total == 0 {
        return 1.0;
    }
    (n11 + n00) as f64 / total as f64
}

/// Adjusted Rand index: Rand corrected for chance agreement; `≈0` for
/// independent clusterings, `1` for identical ones, can be negative.
///
/// ```
/// use multiclust_core::Clustering;
/// use multiclust_core::measures::diss::adjusted_rand_index;
/// let a = Clustering::from_labels(&[0, 0, 1, 1]);
/// let relabeled = Clustering::from_labels(&[1, 1, 0, 0]);
/// assert_eq!(adjusted_rand_index(&a, &relabeled), 1.0); // labels don't matter
/// ```
pub fn adjusted_rand_index(a: &Clustering, b: &Clustering) -> f64 {
    let t = ContingencyTable::new(a, b);
    let n = t.total();
    if n < 2 {
        return 1.0;
    }
    let choose2 = |x: usize| (x as f64) * (x as f64 - 1.0) / 2.0;
    let (ka, kb) = t.shape();
    let mut index = 0.0;
    for i in 0..ka {
        for j in 0..kb {
            index += choose2(t.count(i, j));
        }
    }
    let sum_a: f64 = t.row_sums().iter().map(|&c| choose2(c)).sum();
    let sum_b: f64 = t.col_sums().iter().map(|&c| choose2(c)).sum();
    let all = choose2(n);
    let expected = sum_a * sum_b / all;
    let max = 0.5 * (sum_a + sum_b);
    if (max - expected).abs() < f64::EPSILON {
        // Degenerate marginals (e.g. both single-cluster): identical ⇒ 1.
        return 1.0;
    }
    (index - expected) / (max - expected)
}

/// Jaccard index over co-clustered pairs: `n11 / (n11 + n10 + n01)`.
pub fn jaccard_index(a: &Clustering, b: &Clustering) -> f64 {
    let (n11, n10, n01, _) = ContingencyTable::new(a, b).pair_counts();
    let denom = n11 + n10 + n01;
    if denom == 0 {
        return 1.0;
    }
    n11 as f64 / denom as f64
}

/// Fowlkes–Mallows index: geometric mean of pairwise precision and recall.
pub fn fowlkes_mallows(a: &Clustering, b: &Clustering) -> f64 {
    let (n11, n10, n01, _) = ContingencyTable::new(a, b).pair_counts();
    if n11 + n10 == 0 || n11 + n01 == 0 {
        return if n11 == 0 { 1.0 } else { 0.0 };
    }
    let p = n11 as f64 / (n11 + n10) as f64;
    let r = n11 as f64 / (n11 + n01) as f64;
    (p * r).sqrt()
}

/// Shannon entropy (nats) of a clustering's label distribution over the
/// objects it assigns.
pub fn clustering_entropy(a: &Clustering) -> f64 {
    let sizes = a.sizes();
    let n: usize = sizes.iter().sum();
    if n == 0 {
        return 0.0;
    }
    sizes
        .iter()
        .filter(|&&s| s > 0)
        .map(|&s| {
            let p = s as f64 / n as f64;
            -p * p.ln()
        })
        .sum()
}

/// Mutual information `I(A; B)` (nats) between the label distributions.
///
/// This is the statistic the information-bottleneck alternatives (slides
/// 35–36) and CAMI's decorrelation penalty are built on.
pub fn mutual_information(a: &Clustering, b: &Clustering) -> f64 {
    let t = ContingencyTable::new(a, b);
    let n = t.total() as f64;
    if t.total() == 0 {
        return 0.0;
    }
    let (ka, kb) = t.shape();
    let mut mi = 0.0;
    for i in 0..ka {
        let pa = t.row_sums()[i] as f64 / n;
        if pa == 0.0 {
            continue;
        }
        for j in 0..kb {
            let pij = t.count(i, j) as f64 / n;
            if pij == 0.0 {
                continue;
            }
            let pb = t.col_sums()[j] as f64 / n;
            mi += pij * (pij / (pa * pb)).ln();
        }
    }
    mi.max(0.0)
}

/// Normalised mutual information `I(A;B) / sqrt(H(A)·H(B))` in `[0, 1]`
/// (`1` for identical partitions, `0` for independent ones). The ensemble
/// consensus objective of Strehl & Ghosh (2002) maximises the average NMI
/// to the input clusterings (slide 110).
pub fn normalized_mutual_information(a: &Clustering, b: &Clustering) -> f64 {
    let ha = clustering_entropy(a);
    let hb = clustering_entropy(b);
    if ha == 0.0 && hb == 0.0 {
        return 1.0; // both trivial ⇒ identical partitions
    }
    if ha == 0.0 || hb == 0.0 {
        return 0.0;
    }
    (mutual_information(a, b) / (ha * hb).sqrt()).clamp(0.0, 1.0)
}

/// Conditional entropy `H(A | B)` (nats): how much uncertainty about `A`
/// remains once `B` is known. The minCEntropy approach of Vinh & Epps
/// (2010) generates alternatives by keeping this *high* w.r.t. given
/// clusterings.
pub fn conditional_entropy(a: &Clustering, b: &Clustering) -> f64 {
    (clustering_entropy(a) - mutual_information(a, b)).max(0.0)
}

/// Variation of information `VI(A,B) = H(A|B) + H(B|A)` — a metric on the
/// space of partitions (Meilă). `0` iff identical.
pub fn variation_of_information(a: &Clustering, b: &Clustering) -> f64 {
    conditional_entropy(a, b) + conditional_entropy(b, a)
}

/// A measure between two clusterings.
pub type Measure = fn(&Clustering, &Clustering) -> f64;

/// The five measures every clustering comparison reports (the served
/// `compare` op, the `compare` command, the harness's measure
/// invariants), by name, in report order.
pub const DISS_MEASURES: [(&str, Measure); 5] = [
    ("rand_index", rand_index),
    ("adjusted_rand_index", adjusted_rand_index),
    ("jaccard_index", jaccard_index),
    ("normalized_mutual_information", normalized_mutual_information),
    ("variation_of_information", variation_of_information),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn identical() -> (Clustering, Clustering) {
        let a = Clustering::from_labels(&[0, 0, 1, 1, 2, 2]);
        (a.clone(), a)
    }

    fn independent() -> (Clustering, Clustering) {
        // 2×2 balanced independent partitions of 8 objects.
        let a = Clustering::from_labels(&[0, 0, 0, 0, 1, 1, 1, 1]);
        let b = Clustering::from_labels(&[0, 0, 1, 1, 0, 0, 1, 1]);
        (a, b)
    }

    #[test]
    fn identical_partitions_max_agreement() {
        let (a, b) = identical();
        assert_eq!(rand_index(&a, &b), 1.0);
        assert_eq!(adjusted_rand_index(&a, &b), 1.0);
        assert_eq!(jaccard_index(&a, &b), 1.0);
        assert_eq!(fowlkes_mallows(&a, &b), 1.0);
        assert!((normalized_mutual_information(&a, &b) - 1.0).abs() < 1e-12);
        assert!(variation_of_information(&a, &b).abs() < 1e-12);
        assert!(conditional_entropy(&a, &b).abs() < 1e-12);
    }

    #[test]
    fn relabeling_is_invisible() {
        let a = Clustering::from_labels(&[0, 0, 1, 1]);
        let b = Clustering::from_labels(&[1, 1, 0, 0]);
        assert_eq!(rand_index(&a, &b), 1.0);
        assert_eq!(adjusted_rand_index(&a, &b), 1.0);
    }

    #[test]
    fn independent_partitions_score_low() {
        let (a, b) = independent();
        assert!(adjusted_rand_index(&a, &b).abs() < 0.2);
        assert!(mutual_information(&a, &b) < 1e-12);
        assert!(normalized_mutual_information(&a, &b) < 1e-12);
        // VI of two independent balanced 2-partitions = H(A)+H(B) = 2 ln 2.
        let vi = variation_of_information(&a, &b);
        assert!((vi - 2.0 * std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn rand_known_value() {
        // Classic example: a = {0,0,0,1,1,1}, b = {0,0,1,1,2,2}.
        let a = Clustering::from_labels(&[0, 0, 0, 1, 1, 1]);
        let b = Clustering::from_labels(&[0, 0, 1, 1, 2, 2]);
        // n11=2, n00=8 of 15 pairs → RI = 10/15.
        assert!((rand_index(&a, &b) - 10.0 / 15.0).abs() < 1e-12);
        assert!((jaccard_index(&a, &b) - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn ari_can_be_negative() {
        // Anti-correlated beyond chance on small n.
        let a = Clustering::from_labels(&[0, 0, 1, 1]);
        let b = Clustering::from_labels(&[0, 1, 0, 1]);
        assert!(adjusted_rand_index(&a, &b) <= 0.0);
    }

    #[test]
    fn entropy_of_balanced_partition() {
        let a = Clustering::from_labels(&[0, 0, 1, 1]);
        assert!((clustering_entropy(&a) - std::f64::consts::LN_2).abs() < 1e-12);
        let trivial = Clustering::from_labels(&[0, 0, 0]);
        assert_eq!(clustering_entropy(&trivial), 0.0);
    }

    #[test]
    fn vi_is_symmetric_and_triangle() {
        let a = Clustering::from_labels(&[0, 0, 1, 1, 2, 2]);
        let b = Clustering::from_labels(&[0, 1, 1, 0, 2, 2]);
        let c = Clustering::from_labels(&[0, 1, 2, 0, 1, 2]);
        assert!((variation_of_information(&a, &b) - variation_of_information(&b, &a)).abs() < 1e-12);
        let ab = variation_of_information(&a, &b);
        let bc = variation_of_information(&b, &c);
        let ac = variation_of_information(&a, &c);
        assert!(ac <= ab + bc + 1e-12);
    }

    #[test]
    fn noise_restricts_comparison() {
        let a = Clustering::from_options(vec![Some(0), Some(0), Some(1), None]);
        let b = Clustering::from_labels(&[0, 0, 1, 1]);
        // Over the three shared objects the partitions agree exactly.
        assert_eq!(rand_index(&a, &b), 1.0);
    }

    #[test]
    fn degenerate_single_cluster_pair() {
        let a = Clustering::from_labels(&[0, 0, 0]);
        let b = Clustering::from_labels(&[0, 0, 0]);
        assert_eq!(adjusted_rand_index(&a, &b), 1.0);
        assert_eq!(normalized_mutual_information(&a, &b), 1.0);
    }

    #[test]
    fn mi_upper_bounded_by_entropies() {
        let a = Clustering::from_labels(&[0, 0, 1, 1, 2, 2, 0, 1]);
        let b = Clustering::from_labels(&[0, 1, 1, 0, 2, 2, 2, 0]);
        let mi = mutual_information(&a, &b);
        assert!(mi <= clustering_entropy(&a) + 1e-12);
        assert!(mi <= clustering_entropy(&b) + 1e-12);
    }
}
