//! COALA (Bae & Bailey 2006) — slides 31–33.
//!
//! Constrained Orthogonal Average Link Clustering: a hierarchical
//! average-link agglomeration steered away from a *given* clustering by
//! cannot-link constraints. Every pair co-clustered in the given solution
//! becomes `cannot(o, p)`; at each step the algorithm computes
//!
//! * the best **quality merge** — smallest average-link distance `d_qual`
//!   over all cluster pairs (constraints ignored), and
//! * the best **dissimilarity merge** — smallest average-link distance
//!   `d_diss` over pairs in `Dissimilar` (no cannot-link spans them),
//!
//! and performs the quality merge iff `d_qual < w · d_diss`. Large `w`
//! prefers quality, small `w` prefers dissimilarity (slide 33). Both
//! minima come from one scan of the shared agglomeration engine,
//! [`LinkMatrix`], whose cannot-link flags track which group pairs a
//! constraint spans.

use multiclust_base::hierarchical::{LinkMatrix, Linkage};
use multiclust_core::constraints::Pair;
use multiclust_core::taxonomy::{
    AlgorithmCard, Flexibility, GivenKnowledge, Processing, SearchSpace, Solutions,
    SubspaceAwareness,
};
use multiclust_core::{Clustering, ConstraintSet};
use multiclust_data::Dataset;
use rand::rngs::StdRng;

use crate::AlternativeClusterer;

/// COALA configuration: target cluster count `k` and trade-off weight `w`.
#[derive(Clone, Copy, Debug)]
pub struct Coala {
    k: usize,
    w: f64,
}

/// COALA output with merge statistics.
#[derive(Clone, Debug)]
pub struct CoalaResult {
    /// The alternative clustering.
    pub clustering: Clustering,
    /// Number of quality merges taken.
    pub quality_merges: usize,
    /// Number of dissimilarity merges taken.
    pub dissimilarity_merges: usize,
}

impl Coala {
    /// COALA with `k` output clusters and trade-off `w`.
    ///
    /// # Panics
    /// Panics unless `k ≥ 1` and `w > 0`.
    pub fn new(k: usize, w: f64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(w > 0.0, "w must be positive");
        Self { k, w }
    }

    /// Runs COALA against the cannot-links induced by `given`.
    ///
    /// # Panics
    /// Panics when the dataset has fewer objects than `k` or more than
    /// [`multiclust_base::hierarchical::MAX_OBJECTS`], or sizes mismatch.
    pub fn fit(&self, data: &Dataset, given: &Clustering) -> CoalaResult {
        assert_eq!(data.len(), given.len(), "data/clustering size mismatch");
        let constraints = ConstraintSet::cannot_links_from(given);
        self.fit_with_constraints(data, &constraints)
    }

    /// Runs COALA against an explicit constraint set (the paper's more
    /// general interface: constraints need not come from a clustering).
    pub fn fit_with_constraints(
        &self,
        data: &Dataset,
        constraints: &ConstraintSet,
    ) -> CoalaResult {
        self.fit_cannot_links(data, constraints.cannot_links())
    }

    /// Agglomerates on one average-link [`LinkMatrix`] that flags every
    /// group pair a cannot-link spans.
    fn fit_cannot_links(
        &self,
        data: &Dataset,
        cannot_links: impl IntoIterator<Item = Pair>,
    ) -> CoalaResult {
        let n = data.len();
        assert!(n >= self.k, "need at least k objects");
        let _span = multiclust_telemetry::span("coala.fit");
        let mut links = LinkMatrix::new(data, Linkage::Average, cannot_links);
        let mut quality_merges = 0;
        let mut dissimilarity_merges = 0;

        while links.groups().len() > self.k {
            // The best quality merge (globally closest pair) and the best
            // dissimilarity merge (closest pair no cannot-link spans).
            let (qual, diss) = links.closest();
            let (qi, qj, d_qual) = qual.expect("at least one pair exists");
            // Choose the merge per slide 32: quality iff d_qual < w·d_diss;
            // if no admissible dissimilarity merge exists, quality merges
            // are all that is left.
            let (i, j, took_quality) = match diss {
                Some((di, dj, d_diss)) if d_qual >= self.w * d_diss => {
                    dissimilarity_merges += 1;
                    (di, dj, false)
                }
                _ => {
                    quality_merges += 1;
                    (qi, qj, true)
                }
            };
            // Merge-decision trace: d_diss is −1 when no admissible
            // dissimilarity merge existed (every pair spans a cannot-link).
            if multiclust_telemetry::enabled() {
                let step = (n - links.groups().len()) as f64;
                let d_diss = diss.map_or(-1.0, |(_, _, d)| d);
                multiclust_telemetry::event(
                    "coala.merge",
                    &[
                        ("step", step),
                        ("d_qual", d_qual),
                        ("d_diss", d_diss),
                        ("w_d_diss", if d_diss < 0.0 { -1.0 } else { self.w * d_diss }),
                        ("quality", f64::from(took_quality)),
                    ],
                );
            }
            links.merge(i, j);
        }
        multiclust_telemetry::counter_add("coala.quality_merges", quality_merges as u64);
        multiclust_telemetry::counter_add(
            "coala.dissimilarity_merges",
            dissimilarity_merges as u64,
        );

        CoalaResult {
            clustering: Clustering::from_members(n, links.groups()),
            quality_merges,
            dissimilarity_merges,
        }
    }

    /// Taxonomy card (slide 116 row "(Bae & Bailey, 2006)").
    pub fn card() -> AlgorithmCard {
        AlgorithmCard {
            name: "COALA",
            reference: "Bae & Bailey 2006",
            space: SearchSpace::Original,
            processing: Processing::Iterative,
            knowledge: GivenKnowledge::GivenClustering,
            solutions: Solutions::Two,
            subspace: SubspaceAwareness::NotApplicable,
            flexibility: Flexibility::Specialized,
        }
    }
}

impl AlternativeClusterer for Coala {
    fn alternative(
        &self,
        data: &Dataset,
        given: &[&Clustering],
        _rng: &mut StdRng,
    ) -> Clustering {
        // Union of cannot-links from every given clustering.
        let sets: Vec<ConstraintSet> =
            given.iter().map(|g| ConstraintSet::cannot_links_from(g)).collect();
        self.fit_cannot_links(data, sets.iter().flat_map(ConstraintSet::cannot_links))
            .clustering
    }

    fn name(&self) -> &'static str {
        "COALA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiclust_core::measures::diss::adjusted_rand_index;
    use multiclust_data::synthetic::four_blob_square;
    use multiclust_data::seeded_rng;

    /// On the four-blob square (slide 26), given the horizontal split,
    /// COALA with dissimilarity-leaning `w` recovers the vertical split.
    #[test]
    fn recovers_orthogonal_split() {
        let mut rng = seeded_rng(81);
        let fb = four_blob_square(15, 10.0, 0.6, &mut rng);
        let given = Clustering::from_labels(&fb.horizontal);
        let res = Coala::new(2, 0.8).fit(&fb.dataset, &given);
        let vertical = Clustering::from_labels(&fb.vertical);
        let ari_alt = adjusted_rand_index(&res.clustering, &vertical);
        let ari_given = adjusted_rand_index(&res.clustering, &given);
        assert!(ari_alt > 0.9, "alternative ≈ vertical split: {ari_alt}");
        assert!(ari_given < 0.1, "alternative ⊥ given split: {ari_given}");
        assert!(res.dissimilarity_merges > 0);
    }

    /// Large `w` makes COALA ignore constraints and reproduce plain
    /// average-link quality (slide 33's trade-off).
    #[test]
    fn w_trades_quality_for_dissimilarity() {
        let mut rng = seeded_rng(82);
        let fb = four_blob_square(12, 10.0, 0.6, &mut rng);
        let given = Clustering::from_labels(&fb.horizontal);

        let quality_leaning = Coala::new(2, 1e6).fit(&fb.dataset, &given);
        let diss_leaning = Coala::new(2, 1e-6).fit(&fb.dataset, &given);
        let ari_quality = adjusted_rand_index(&quality_leaning.clustering, &given);
        let ari_diss = adjusted_rand_index(&diss_leaning.clustering, &given);
        // The quality-leaning run may rediscover the given split; the
        // dissimilarity-leaning run must not.
        assert!(ari_diss < 0.1, "small w avoids the given clustering: {ari_diss}");
        assert!(
            quality_leaning.dissimilarity_merges <= diss_leaning.dissimilarity_merges,
            "larger w ⇒ no more dissimilarity merges"
        );
        let _ = ari_quality; // documented, not asserted: ties possible
    }

    #[test]
    fn unconstrained_reduces_to_average_link() {
        let mut rng = seeded_rng(83);
        let fb = four_blob_square(10, 10.0, 0.5, &mut rng);
        let empty = ConstraintSet::new();
        let coala = Coala::new(4, 1.0).fit_with_constraints(&fb.dataset, &empty);
        let (agg, _) = multiclust_base::Agglomerative::new(
            4,
            multiclust_base::Linkage::Average,
        )
        .fit(&fb.dataset);
        assert_eq!(
            adjusted_rand_index(&coala.clustering, &agg),
            1.0,
            "with no constraints both merges coincide"
        );
    }

    #[test]
    fn produces_exactly_k_clusters() {
        let mut rng = seeded_rng(84);
        let fb = four_blob_square(8, 10.0, 0.5, &mut rng);
        let given = Clustering::from_labels(&fb.horizontal);
        for k in [2, 3, 5] {
            let res = Coala::new(k, 1.0).fit(&fb.dataset, &given);
            assert_eq!(res.clustering.num_clusters(), k);
            assert_eq!(res.quality_merges + res.dissimilarity_merges, 32 - k);
        }
    }
}
