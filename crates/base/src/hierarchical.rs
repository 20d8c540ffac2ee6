//! Agglomerative hierarchical clustering on one Lance–Williams link matrix.
//!
//! [`LinkMatrix`] is the only agglomeration engine (the stored-matrix
//! scheme of Müllner, arXiv:1109.2378): the condensed distance matrix from
//! `kernels::dist_matrix`, updated in place on each merge by the
//! Lance–Williams rule (Lance & Williams 1967) — min for single link, max
//! for complete, the distance sum for average (the link is the sum ÷
//! |a|·|b|) — beside a condensed flag matrix of the group pairs a
//! cannot-link spans. [`Agglomerative`] merges the closest pair; COALA
//! (slides 31–33) picks between the closest pair and the closest
//! unflagged one.

use multiclust_core::constraints::Pair;
use multiclust_core::Clustering;
use multiclust_data::Dataset;
use multiclust_linalg::kernels;
use multiclust_linalg::vector::dist;
use rand::rngs::StdRng;

use crate::Clusterer;

/// Most objects a [`LinkMatrix`] accepts: its condensed `f64` triangle
/// is then 1 GiB, its cannot-link flags another 128 MiB.
pub const MAX_OBJECTS: usize = 16_384;

/// Linkage criterion for merging clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Mean pairwise distance (COALA's choice).
    Average,
}

/// One merge step of the dendrogram: clusters `a` and `b` (indices into the
/// merge history, with `0..n` the singletons) merged at `distance`.
#[derive(Clone, Copy, Debug)]
pub struct Merge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
}

/// A candidate merge: group positions `i < j` and their link.
pub type Candidate = (usize, usize, f64);

/// Active groups plus the link and cannot-link flag of every group pair,
/// both condensed over group positions with row stride `n`. A merge keeps
/// the groups' `swap_remove` order, so only the leading rows stay live.
#[derive(Clone, Debug)]
pub struct LinkMatrix {
    linkage: Linkage,
    n: usize,
    /// The distance sum for average link, else the link itself.
    links: Vec<f64>,
    cannot: Vec<bool>,
    groups: Vec<Vec<usize>>,
}

impl LinkMatrix {
    /// Singleton groups over `data` with every pair of `cannot_links`
    /// flagged (pairs naming an object beyond `data` are ignored).
    ///
    /// # Panics
    /// Panics when `data` has more than [`MAX_OBJECTS`] objects.
    pub fn new(
        data: &Dataset,
        linkage: Linkage,
        cannot_links: impl IntoIterator<Item = Pair>,
    ) -> Self {
        let n = data.len();
        assert!(n <= MAX_OBJECTS, "{n} objects exceed the link-matrix limit of {MAX_OBJECTS}");
        let links = kernels::dist_matrix(data.dims(), data.as_slice()).into_values();
        let cannot = vec![false; links.len()];
        let mut m = Self { linkage, n, links, cannot, groups: (0..n).map(|i| vec![i]).collect() };
        for p in cannot_links.into_iter().filter(|p| p.second() < n) {
            let at = m.index(p.first(), p.second());
            m.cannot[at] = true;
        }
        m
    }

    /// The active groups' members, by position.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The link between the groups at positions `i != j`, and whether a
    /// cannot-link spans them.
    pub fn pair(&self, i: usize, j: usize) -> (f64, bool) {
        let at = self.index(i, j);
        (self.value(self.links[at], i, j), self.cannot[at])
    }

    /// The first minimum-link pair in scan order (`i` ascending, then
    /// `j`), overall and among unflagged pairs; `None` where none exists.
    pub fn closest(&self) -> (Option<Candidate>, Option<Candidate>) {
        let g = self.groups.len();
        let (mut best, mut free): (Option<Candidate>, Option<Candidate>) = (None, None);
        for i in 0..g {
            let row = self.row_start(i)..self.row_start(i) + (g - i - 1);
            let pairs = self.links[row.clone()].iter().zip(&self.cannot[row]);
            for (j, (&stored, &cannot)) in (i + 1..).zip(pairs) {
                let d = self.value(stored, i, j);
                if best.is_none_or(|(_, _, b)| d < b) {
                    best = Some((i, j, d));
                }
                if !cannot && free.is_none_or(|(_, _, b)| d < b) {
                    free = Some((i, j, d));
                }
            }
        }
        (best, free)
    }

    /// Merges the group at position `j` into the one at `i < j`; the last
    /// group then moves into position `j`.
    pub fn merge(&mut self, i: usize, j: usize) {
        assert!(i < j && j < self.groups.len(), "merge needs i < j < groups");
        let last = self.groups.len() - 1;
        for c in (0..=last).filter(|&c| c != i && c != j) {
            let (ic, jc) = (self.index(i, c), self.index(j, c));
            self.links[ic] = match self.linkage {
                Linkage::Single => self.links[ic].min(self.links[jc]),
                Linkage::Complete => self.links[ic].max(self.links[jc]),
                Linkage::Average => self.links[ic] + self.links[jc],
            };
            self.cannot[ic] |= self.cannot[jc];
        }
        // Moving the last row into row `j` (a no-op when `j` is last).
        for c in (0..last).filter(|&c| c != j) {
            let (jc, lc) = (self.index(j, c), self.index(last, c));
            self.links[jc] = self.links[lc];
            self.cannot[jc] = self.cannot[lc];
        }
        let merged = self.groups.swap_remove(j);
        self.groups[i].extend(merged);
    }

    /// The link a stored value stands for between positions `i` and `j`.
    fn value(&self, stored: f64, i: usize, j: usize) -> f64 {
        match self.linkage {
            Linkage::Average => stored / (self.groups[i].len() * self.groups[j].len()) as f64,
            Linkage::Single | Linkage::Complete => stored,
        }
    }

    /// Offset of row `i` in a condensed strict upper triangle.
    fn row_start(&self, i: usize) -> usize {
        i * (2 * self.n - i - 1) / 2
    }

    fn index(&self, i: usize, j: usize) -> usize {
        let (i, j) = (i.min(j), i.max(j));
        self.row_start(i) + (j - i - 1)
    }
}

/// Agglomerative clustering configuration.
#[derive(Clone, Copy, Debug)]
pub struct Agglomerative {
    k: usize,
    linkage: Linkage,
}

impl Agglomerative {
    /// Agglomerates until `k` clusters remain.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, linkage: Linkage) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self { k, linkage }
    }

    /// Runs the agglomeration, returning the flat `k`-clustering and the
    /// merge history (length `n − k`).
    ///
    /// # Panics
    /// Panics when `data` has fewer than `k` or more than
    /// [`MAX_OBJECTS`] objects.
    pub fn fit(&self, data: &Dataset) -> (Clustering, Vec<Merge>) {
        let n = data.len();
        assert!(n >= self.k, "need at least k objects");
        let mut links = LinkMatrix::new(data, self.linkage, []);
        let mut merges = Vec::with_capacity(n - self.k);
        while links.groups().len() > self.k {
            let (i, j, distance) = links.closest().0.expect("at least one pair exists");
            merges.push(Merge { a: i, b: j, distance });
            links.merge(i, j);
        }
        (Clustering::from_members(n, links.groups()), merges)
    }
}

/// Linkage distance between two member lists, recomputed from the data:
/// the reference [`LinkMatrix`] is tested against.
pub fn linkage_distance(
    data: &Dataset,
    a: &[usize],
    b: &[usize],
    linkage: Linkage,
) -> f64 {
    debug_assert!(!a.is_empty() && !b.is_empty());
    match linkage {
        Linkage::Single => {
            let mut best = f64::INFINITY;
            for &i in a {
                for &j in b {
                    best = best.min(dist(data.row(i), data.row(j)));
                }
            }
            best
        }
        Linkage::Complete => {
            let mut worst = 0.0f64;
            for &i in a {
                for &j in b {
                    worst = worst.max(dist(data.row(i), data.row(j)));
                }
            }
            worst
        }
        Linkage::Average => {
            let mut sum = 0.0;
            for &i in a {
                for &j in b {
                    sum += dist(data.row(i), data.row(j));
                }
            }
            sum / (a.len() * b.len()) as f64
        }
    }
}

impl Clusterer for Agglomerative {
    fn cluster(&self, data: &Dataset, _rng: &mut StdRng) -> Clustering {
        self.fit(data).0
    }

    fn name(&self) -> &'static str {
        match self.linkage {
            Linkage::Single => "agglomerative-single",
            Linkage::Complete => "agglomerative-complete",
            Linkage::Average => "agglomerative-average",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiclust_core::measures::diss::adjusted_rand_index;
    use multiclust_data::synthetic::gaussian_blobs;
    use multiclust_data::seeded_rng;

    #[test]
    fn average_link_recovers_blobs() {
        let mut rng = seeded_rng(51);
        let (data, truth) = gaussian_blobs(
            &[vec![0.0, 0.0], vec![15.0, 0.0], vec![0.0, 15.0]],
            1.0,
            20,
            &mut rng,
        );
        let (c, merges) = Agglomerative::new(3, Linkage::Average).fit(&data);
        assert_eq!(merges.len(), 57);
        let truth_c = Clustering::from_labels(&truth);
        assert!(adjusted_rand_index(&c, &truth_c) > 0.99);
    }

    #[test]
    fn single_link_chains_where_complete_does_not() {
        // Two tight pairs bridged by a chain: single-link merges along the
        // chain first; complete-link resists elongated clusters.
        let data = Dataset::from_rows(&[
            vec![0.0],
            vec![1.0],
            vec![2.0],
            vec![3.0],
            vec![4.0],
            vec![10.0],
        ]);
        let (single, _) = Agglomerative::new(2, Linkage::Single).fit(&data);
        // Chain 0..4 becomes one cluster, 10 alone.
        assert!(single.same_cluster(0, 4));
        assert!(!single.same_cluster(0, 5));
    }

    #[test]
    fn k_equals_n_yields_singletons() {
        let data = Dataset::from_rows(&[vec![0.0], vec![5.0], vec![9.0]]);
        let (c, merges) = Agglomerative::new(3, Linkage::Average).fit(&data);
        assert_eq!(c.num_clusters(), 3);
        assert!(merges.is_empty());
        assert_eq!(c.sizes(), vec![1, 1, 1]);
    }

    #[test]
    fn merge_distances_recorded() {
        let data = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![10.0]]);
        let (_, merges) = Agglomerative::new(1, Linkage::Single).fit(&data);
        assert_eq!(merges.len(), 2);
        assert!((merges[0].distance - 1.0).abs() < 1e-12);
        assert!((merges[1].distance - 9.0).abs() < 1e-12);
    }

    #[test]
    fn linkage_distances_ordered() {
        let data = Dataset::from_rows(&[vec![0.0], vec![2.0], vec![10.0], vec![11.0]]);
        let a = [0usize, 1];
        let b = [2usize, 3];
        let s = linkage_distance(&data, &a, &b, Linkage::Single);
        let avg = linkage_distance(&data, &a, &b, Linkage::Average);
        let c = linkage_distance(&data, &a, &b, Linkage::Complete);
        assert!(s <= avg && avg <= c);
        assert_eq!(s, 8.0);
        assert_eq!(c, 11.0);
        assert_eq!(avg, (10.0 + 11.0 + 8.0 + 9.0) / 4.0);
    }
}
