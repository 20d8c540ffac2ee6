//! Property tests for the agglomeration engine: after any sequence of
//! merges, every link in the Lance–Williams matrix matches the linkage
//! recomputed from the data, every cannot-link flag matches
//! `ConstraintSet::allows_merge` on the current groups, and `closest`
//! returns the first minimum of a plain scan.

use multiclust_base::hierarchical::{linkage_distance, Candidate, LinkMatrix, Linkage};
use multiclust_core::ConstraintSet;
use multiclust_data::Dataset;
use proptest::prelude::*;

/// The first minimum in scan order, overall and among unflagged pairs,
/// read through the matrix's public accessors.
fn scan(links: &LinkMatrix) -> (Option<Candidate>, Option<Candidate>) {
    let (mut best, mut free): (Option<Candidate>, Option<Candidate>) = (None, None);
    let g = links.groups().len();
    for i in 0..g {
        for j in (i + 1)..g {
            let (d, cannot) = links.pair(i, j);
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

/// Checks every active pair of `links` against the references.
fn check(
    links: &LinkMatrix,
    data: &Dataset,
    linkage: Linkage,
    constraints: &ConstraintSet,
) -> Result<(), TestCaseError> {
    let groups = links.groups();
    for i in 0..groups.len() {
        for j in (i + 1)..groups.len() {
            let (got, cannot) = links.pair(i, j);
            let want = linkage_distance(data, &groups[i], &groups[j], linkage);
            if linkage == Linkage::Average {
                prop_assert!(
                    (got - want).abs() <= 1e-12 * want.abs(),
                    "average link ({i}, {j}): {got} vs {want}"
                );
            } else {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
            prop_assert_eq!(cannot, !constraints.allows_merge(&groups[i], &groups[j]));
        }
    }
    prop_assert_eq!(links.closest(), scan(links));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lance_williams_matrix_matches_the_references(
        rows in prop::collection::vec(prop::collection::vec(-4.0f64..4.0, 3), 2..14),
        dims in 1usize..=3,
        grid in 0u8..2,
        cannot in prop::collection::vec(0usize..1 << 16, 0..24),
        picks in prop::collection::vec(0usize..1 << 16, 13),
    ) {
        // Integer coordinates make exact link ties common.
        let rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r[..dims].iter().map(|&x| if grid == 1 { x.round() } else { x }).collect())
            .collect();
        let data = Dataset::from_rows(&rows);
        let n = data.len();
        let mut constraints = ConstraintSet::new();
        for &c in &cannot {
            let (a, b) = (c % n, (c >> 8) % n);
            if a != b {
                constraints.add_cannot_link(a, b);
            }
        }
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let mut links = LinkMatrix::new(&data, linkage, constraints.cannot_links());
            check(&links, &data, linkage, &constraints)?;
            for &pick in &picks[..n - 1] {
                // A random pair (i < j) of the current groups.
                let g = links.groups().len();
                let (i, j) = (pick % (g - 1), (pick >> 8) % g);
                let (i, j) = if j > i { (i, j) } else { (j, i + 1) };
                links.merge(i, j);
                check(&links, &data, linkage, &constraints)?;
            }
            prop_assert_eq!(links.groups().len(), 1);
            prop_assert_eq!(links.closest(), (None, None));
        }
    }
}
