//! One uniform fitting surface over the eight algorithm families of the
//! taxonomy, so every metamorphic invariant can run against every
//! paradigm through a single trait.
//!
//! A family adapts one representative algorithm of its paradigm to the
//! harness: it consumes a [`FitInput`] (data plus the scenario's
//! side-channel inputs) and returns its solution set as plain
//! [`Clustering`]s in a deterministic order. Overlapping subspace results
//! are projected to per-cluster membership partitions so the partition
//! measures apply uniformly.

use multiclust_alternative::{Coala, DecKMeans};
use multiclust_base::hierarchical::MAX_OBJECTS;
use multiclust_base::{KMeans, SpectralClustering};
use multiclust_core::Clustering;
use multiclust_data::{seeded_rng, Dataset, MultiViewDataset};
use multiclust_multiview::MultiViewSpectral;
use multiclust_orthogonal::QiDavidson;
use multiclust_subspace::{Clique, Proclus};

use crate::scenario::Scenario;

/// Everything a family run consumes. Invariants build transformed copies
/// of this (permuted / translated / scaled data with matching side
/// channels) and compare the outputs.
#[derive(Clone, Debug)]
pub struct FitInput<'a> {
    /// The objects.
    pub data: &'a Dataset,
    /// Reference clustering for the alternative/orthogonal paradigms.
    pub given: &'a Clustering,
    /// Attribute groups for the multi-view paradigm.
    pub view_groups: &'a [Vec<usize>],
    /// Cluster count for partitioning families.
    pub k: usize,
    /// RNG seed (every family derives its streams from this).
    pub seed: u64,
}

impl<'a> FitInput<'a> {
    /// Builds the canonical input of a scenario.
    pub fn of(scenario: &'a Scenario, seed: u64) -> Self {
        Self {
            data: &scenario.dataset,
            given: &scenario.given,
            view_groups: &scenario.view_groups,
            k: scenario.k,
            seed,
        }
    }
}

/// The metamorphic contracts a family declares. An invariant only runs
/// against a family when the family guarantees the property; see each
/// flag for the precise claim.
#[derive(Clone, Copy, Debug)]
pub struct Guarantees {
    /// Partition is stable under a permutation of the objects (checked on
    /// well-separated, duplicate-free scenarios only — stochastic
    /// initialisations break bit-level order dependence everywhere, but a
    /// robust method must still recover the same partition).
    pub permutation: bool,
    /// Partition is stable when every object is translated by the same
    /// vector (well-separated scenarios only).
    pub translation: bool,
    /// Partition is *identical* when every coordinate is multiplied by
    /// 2.0 — a power of two scales every IEEE intermediate exactly, so
    /// purely distance-ratio-based methods cannot change a single label.
    pub scaling: bool,
    /// Bit-identical input rows receive identical assignments.
    pub duplicates: bool,
}

/// One algorithm family of the taxonomy, adapted to the harness.
pub trait AlgorithmFamily {
    /// Stable identifier (report + golden-file key).
    fn name(&self) -> &'static str;
    /// The paradigm the family represents (report annotation).
    fn paradigm(&self) -> &'static str;
    /// Declared metamorphic contracts.
    fn guarantees(&self) -> Guarantees;
    /// Whether the family can run the scenario at all.
    fn supports(&self, _scenario: &Scenario) -> bool {
        true
    }
    /// The most objects one fit accepts.
    fn max_objects(&self) -> usize {
        usize::MAX
    }
    /// Runs the family and returns its solutions in deterministic order.
    fn fit(&self, input: &FitInput) -> Vec<Clustering>;
}

/// Scale-cleanly derived Gaussian bandwidth: the mean pairwise distance
/// over a fixed prefix of the data. Every operation (diff, square, sum,
/// sqrt, divide) scales exactly under power-of-two data scaling, so
/// `d²/σ²` ratios — and thus affinities — are bit-identical after `×2`.
fn derived_sigma(data: &Dataset) -> f64 {
    let m = data.len().min(32);
    let mut sum = 0.0;
    let mut count = 0u32;
    for i in 0..m {
        for j in (i + 1)..m {
            let d2: f64 = data
                .row(i)
                .iter()
                .zip(data.row(j))
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            sum += d2.sqrt();
            count += 1;
        }
    }
    let mean = if count == 0 { 0.0 } else { sum / f64::from(count) };
    if mean > 0.0 {
        mean
    } else {
        1.0
    }
}

/// k-means (paradigm: single-solution baseline every other family builds
/// on; slide 26's "one clustering is not enough" starting point).
pub struct KMeansFamily;

impl AlgorithmFamily for KMeansFamily {
    fn name(&self) -> &'static str {
        "kmeans"
    }
    fn paradigm(&self) -> &'static str {
        "baseline"
    }
    fn guarantees(&self) -> Guarantees {
        Guarantees { permutation: true, translation: true, scaling: true, duplicates: true }
    }
    fn fit(&self, input: &FitInput) -> Vec<Clustering> {
        let mut rng = seeded_rng(input.seed);
        let res = KMeans::new(input.k).with_restarts(3).fit(input.data, &mut rng);
        vec![res.clustering]
    }
}

/// Spectral clustering (baseline with a transformed representation; the
/// substrate of the multi-view spectral family).
pub struct SpectralFamily;

impl AlgorithmFamily for SpectralFamily {
    fn name(&self) -> &'static str {
        "spectral"
    }
    fn paradigm(&self) -> &'static str {
        "baseline"
    }
    fn guarantees(&self) -> Guarantees {
        // Eigen decompositions are order-sensitive at the bit level and
        // may flip borderline objects: no permutation/duplicate claims.
        Guarantees { permutation: false, translation: false, scaling: true, duplicates: false }
    }
    fn supports(&self, scenario: &Scenario) -> bool {
        // k == n makes the spectral embedding degenerate (n eigenvectors
        // of an n×n affinity); the paradigm's contract starts at k < n.
        scenario.k < scenario.dataset.len()
    }
    fn fit(&self, input: &FitInput) -> Vec<Clustering> {
        let mut rng = seeded_rng(input.seed);
        let sigma = derived_sigma(input.data);
        vec![SpectralClustering::new(input.k, sigma).fit(input.data, &mut rng)]
    }
}

/// COALA (alternative paradigm: constraint-steered agglomeration away
/// from a given clustering; slides 31–33).
pub struct CoalaFamily;

impl AlgorithmFamily for CoalaFamily {
    fn name(&self) -> &'static str {
        "coala"
    }
    fn paradigm(&self) -> &'static str {
        "alternative"
    }
    fn guarantees(&self) -> Guarantees {
        Guarantees { permutation: true, translation: true, scaling: true, duplicates: true }
    }
    /// COALA's link matrix is quadratic in the object count.
    fn max_objects(&self) -> usize {
        MAX_OBJECTS
    }
    fn fit(&self, input: &FitInput) -> Vec<Clustering> {
        vec![Coala::new(input.k, 1.0).fit(input.data, input.given).clustering]
    }
}

/// Dec-kMeans (alternative paradigm: simultaneous decorrelated
/// clusterings; slides 40–41).
pub struct DecKMeansFamily;

impl AlgorithmFamily for DecKMeansFamily {
    fn name(&self) -> &'static str {
        "dec-kmeans"
    }
    fn paradigm(&self) -> &'static str {
        "alternative"
    }
    fn guarantees(&self) -> Guarantees {
        // The representative solve `(cᵢI + λB) r = cᵢα` mixes polynomial
        // degrees in the data, so ×2 scaling legitimately changes the
        // quality/decorrelation trade-off: no scaling claim. Initial labels
        // are drawn per point index, so reordering points reseeds the
        // alternation and the weaker solution lands in a different local
        // optimum: no permutation claim either.
        Guarantees { permutation: false, translation: true, scaling: false, duplicates: true }
    }
    fn fit(&self, input: &FitInput) -> Vec<Clustering> {
        let mut rng = seeded_rng(input.seed);
        let res = DecKMeans::new(&[input.k, input.k])
            .with_lambda(2.0)
            .fit(input.data, &mut rng);
        res.clusterings
    }
}

/// PROCLUS (subspace paradigm, projected-partition branch; slide 75).
pub struct ProclusFamily;

impl AlgorithmFamily for ProclusFamily {
    fn name(&self) -> &'static str {
        "proclus"
    }
    fn paradigm(&self) -> &'static str {
        "subspace"
    }
    fn guarantees(&self) -> Guarantees {
        // Medoid sampling is index-based: permuting objects changes the
        // candidate pool, and the hill climb may settle elsewhere.
        Guarantees { permutation: false, translation: true, scaling: true, duplicates: true }
    }
    fn fit(&self, input: &FitInput) -> Vec<Clustering> {
        let mut rng = seeded_rng(input.seed);
        let l = 2.min(input.data.dims());
        let res = Proclus::new(input.k, l.max(2)).fit(input.data, &mut rng);
        vec![res.clustering]
    }
}

/// CLIQUE over the subspace lattice (subspace paradigm, grid branch;
/// slides 69–71). Overlapping subspace clusters are projected to binary
/// membership partitions, largest clusters first.
pub struct SubspaceLatticeFamily;

/// How many mined subspace clusters the lattice family reports as
/// membership partitions.
const LATTICE_SOLUTIONS: usize = 3;

impl AlgorithmFamily for SubspaceLatticeFamily {
    fn name(&self) -> &'static str {
        "subspace-lattice"
    }
    fn paradigm(&self) -> &'static str {
        "subspace"
    }
    fn guarantees(&self) -> Guarantees {
        // Counting objects in grid cells is a set operation: permutation
        // cannot change the mined clusters, and min-max normalisation
        // cancels ×2 scaling exactly. The grid is *not* translation
        // invariant pre-normalisation boundaries move with the min.
        Guarantees { permutation: false, translation: false, scaling: true, duplicates: true }
    }
    fn fit(&self, input: &FitInput) -> Vec<Clustering> {
        let normalized = input.data.min_max_normalized();
        let res = Clique::new(4, 0.08).fit(&normalized);
        let n = input.data.len();
        // Deterministic order: biggest object sets first, ties broken by
        // subspace then members.
        let mut clusters: Vec<_> = res.clusters.iter().collect();
        clusters.sort_by(|a, b| {
            b.size()
                .cmp(&a.size())
                .then_with(|| a.dims().cmp(b.dims()))
                .then_with(|| a.objects().cmp(b.objects()))
        });
        clusters
            .iter()
            .take(LATTICE_SOLUTIONS)
            .map(|c| {
                let mut labels = vec![1usize; n];
                for &o in c.objects() {
                    labels[o] = 0;
                }
                Clustering::from_labels(&labels)
            })
            .collect()
    }
}

/// Qi & Davidson (orthogonal/space-transformation paradigm: cluster in
/// `Σ̃^{-1/2}`-transformed space; slides 54–55).
pub struct OrthogonalFamily;

impl AlgorithmFamily for OrthogonalFamily {
    fn name(&self) -> &'static str {
        "orthogonal"
    }
    fn paradigm(&self) -> &'static str {
        "transformed"
    }
    fn guarantees(&self) -> Guarantees {
        // The scatter eigen decomposition is order-sensitive; translation
        // shifts the foreign-mean differences only by rounding but the
        // subsequent k-means runs in a learned metric where borderline
        // flips are possible. Scaling by 2 is exact end to end
        // (Σ ×4 ⇒ Σ^{-1/2} ×½ ⇒ transformed rows bit-identical).
        Guarantees { permutation: false, translation: true, scaling: true, duplicates: true }
    }
    fn fit(&self, input: &FitInput) -> Vec<Clustering> {
        let mut rng = seeded_rng(input.seed);
        let km = KMeans::new(input.k).with_restarts(3);
        let res = QiDavidson::new().fit(input.data, input.given, &km, &mut rng);
        vec![res.clustering]
    }
}

/// Multi-view spectral (multiple-source paradigm: convex combination of
/// per-view normalised affinities; slide 100).
pub struct MultiviewFamily;

impl AlgorithmFamily for MultiviewFamily {
    fn name(&self) -> &'static str {
        "multiview"
    }
    fn paradigm(&self) -> &'static str {
        "multi-view"
    }
    fn guarantees(&self) -> Guarantees {
        Guarantees { permutation: false, translation: false, scaling: true, duplicates: false }
    }
    fn supports(&self, scenario: &Scenario) -> bool {
        scenario.k < scenario.dataset.len()
    }
    fn fit(&self, input: &FitInput) -> Vec<Clustering> {
        let mut rng = seeded_rng(input.seed);
        let mv = MultiViewDataset::from_attribute_groups(input.data, input.view_groups);
        let sigmas: Vec<f64> = mv.views().iter().map(derived_sigma).collect();
        vec![MultiViewSpectral::new(input.k, sigmas).fit(&mv, &mut rng)]
    }
}

/// All eight families in report order.
pub fn all_families() -> Vec<Box<dyn AlgorithmFamily>> {
    vec![
        Box::new(KMeansFamily),
        Box::new(SpectralFamily),
        Box::new(CoalaFamily),
        Box::new(DecKMeansFamily),
        Box::new(ProclusFamily),
        Box::new(SubspaceLatticeFamily),
        Box::new(OrthogonalFamily),
        Box::new(MultiviewFamily),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn every_family_fits_the_base_scenario() {
        let s = scenario::planted_two_views(11);
        for family in all_families() {
            let out = family.fit(&FitInput::of(&s, 1));
            assert!(!out.is_empty(), "{} returned no solutions", family.name());
            for c in &out {
                assert_eq!(c.len(), s.dataset.len(), "{}", family.name());
            }
        }
    }

    #[test]
    fn family_names_are_unique() {
        let mut names: Vec<&str> = all_families().iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn derived_sigma_scales_exactly_by_two() {
        let s = scenario::four_blobs(3);
        let doubled = {
            let mut rows = Vec::new();
            for row in s.dataset.rows() {
                rows.push(row.iter().map(|x| x * 2.0).collect::<Vec<_>>());
            }
            Dataset::from_rows(&rows)
        };
        let a = derived_sigma(&s.dataset);
        let b = derived_sigma(&doubled);
        assert_eq!((a * 2.0).to_bits(), b.to_bits());
    }
}
