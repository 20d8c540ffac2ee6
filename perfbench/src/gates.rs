//! Correctness gates: every op is attempted, and it fails if its response
//! is not `ok` or its output is wrong. Run-level checks (quality floors,
//! repeatability) fail as one op each.

/// Tally of attempted and failed ops plus the first few reasons.
#[derive(Debug, Default)]
pub struct Gates {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Gates {
    /// Counts one op, failed unless `ok`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Records a failure of an op already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 16 {
            self.reasons.push(why);
        }
    }

    pub fn merge(&mut self, other: Gates) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 16 {
                self.reasons.push(r);
            }
        }
    }
}

/// Adjusted Rand index of two labelings, computed here rather than by
/// the program so a change to the program's measures cannot move the
/// quality gate. `None` (noise) is a label of its own.
pub fn ari(a: &[Option<usize>], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "labelings cover different objects");
    let mut ids_a = std::collections::HashMap::new();
    let mut ids_b = std::collections::HashMap::new();
    let mut cells: std::collections::HashMap<(usize, usize), u64> = Default::default();
    for (x, &y) in a.iter().zip(b) {
        let na = ids_a.len();
        let ia = *ids_a.entry(*x).or_insert(na);
        let nb = ids_b.len();
        let ib = *ids_b.entry(y).or_insert(nb);
        *cells.entry((ia, ib)).or_default() += 1;
    }
    let pairs = |c: u64| (c * c.saturating_sub(1)) as f64 / 2.0;
    let mut rows = vec![0u64; ids_a.len()];
    let mut cols = vec![0u64; ids_b.len()];
    let mut index = 0.0;
    for (&(i, j), &c) in &cells {
        rows[i] += c;
        cols[j] += c;
        index += pairs(c);
    }
    let sum_rows: f64 = rows.iter().map(|&c| pairs(c)).sum();
    let sum_cols: f64 = cols.iter().map(|&c| pairs(c)).sum();
    let total = pairs(a.len() as u64);
    let expected = sum_rows * sum_cols / total;
    let max = (sum_rows + sum_cols) / 2.0;
    if (max - expected).abs() < f64::EPSILON {
        return if (index - expected).abs() < f64::EPSILON {
            1.0
        } else {
            0.0
        };
    }
    (index - expected) / (max - expected)
}

/// Checks a fit's ARI against its family's floor in `bench.json`.
pub fn quality(gates: &mut Gates, family: &str, score: f64, what: &str) {
    let floor = crate::config::number(&["ari_floor", family]);
    gates.op(score >= floor, || {
        format!("{what}: {family} ARI {score:.4} below floor {floor}")
    });
}

/// Mean over families of each family's mean ARI: every family weighs
/// the same however many fits it ran.
pub fn family_mean(scores: &[(&str, f64)]) -> f64 {
    let mut by: std::collections::BTreeMap<&str, (f64, usize)> = Default::default();
    for &(f, s) in scores {
        let e = by.entry(f).or_default();
        e.0 += s;
        e.1 += 1;
    }
    by.values().map(|(s, n)| s / *n as f64).sum::<f64>() / by.len().max(1) as f64
}

/// Labels as plain options, from served `-1`-for-noise integers.
pub fn from_wire(labels: &[i64]) -> Vec<Option<usize>> {
    labels.iter().map(|&l| usize::try_from(l).ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ari_is_one_on_relabelled_truth_and_near_zero_on_independent_views() {
        let truth = [0, 0, 1, 1, 2, 2];
        let relabelled = [Some(2), Some(2), Some(0), Some(0), Some(1), Some(1)];
        assert!((ari(&relabelled, &truth) - 1.0).abs() < 1e-12);
        let p = crate::data::Planted::generate(3000, 5, "ari");
        let a: Vec<Option<usize>> = p.truth_a.iter().map(|&l| Some(l)).collect();
        assert!(ari(&a, &p.truth_b).abs() < 0.02);
    }

    #[test]
    fn ari_matches_the_program_measure() {
        use multiclust::core::measures::diss::adjusted_rand_index;
        use multiclust::core::Clustering;
        let p = crate::data::Planted::generate(500, 9, "ari2");
        let joint: Vec<usize> = p
            .truth_a
            .iter()
            .zip(&p.truth_b)
            .map(|(a, b)| (a + b) % 4)
            .collect();
        let mine = ari(
            &joint.iter().map(|&l| Some(l)).collect::<Vec<_>>(),
            &p.truth_b,
        );
        let theirs = adjusted_rand_index(
            &Clustering::from_labels(&joint),
            &Clustering::from_labels(&p.truth_b),
        );
        assert!((mine - theirs).abs() < 1e-9, "{mine} vs {theirs}");
    }

    #[test]
    fn a_doctored_label_fails_a_gate() {
        let mut g = Gates::default();
        let fitted = vec![Some(0usize), Some(1), Some(1)];
        let mut doctored = fitted.clone();
        doctored[2] = Some(0);
        g.op(fitted == doctored, || {
            "labels differ across repetitions".into()
        });
        assert_eq!((g.attempted, g.failed), (1, 1));
    }
}
