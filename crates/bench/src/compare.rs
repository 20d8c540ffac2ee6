//! The perf-regression gate: comparing a fresh [`BenchReport`] against a
//! checked-in baseline (`multiclust bench --compare BENCH_PR4.json`), and
//! the longitudinal `multiclust trend` view over every checked-in report.
//!
//! Wall-clock numbers are machine- and tier-dependent — a smoke run on CI
//! hardware shares no entry ids with the full-tier `BENCH_PR4.json` — so
//! the gate layers three rules of increasing portability:
//!
//! 1. **Wall-clock** (same entry id only): the engine run slowed down by
//!    more than the noise threshold.
//! 2. **Speedup** (same entry id only): an entry whose baseline speedup
//!    was solidly above break-even lost more than the noise threshold of
//!    it.
//! 3. **Kernel activity** (per family, any tier): the baseline shows
//!    engine-side counter activity (bound-prune estimates, skipped
//!    candidates, cached matrix builds — everything except raw
//!    `kernels.exact` / `kernels.assign.scanned` work counts) but the new
//!    run shows none. Pruning going dead is invisible to a smoke-tier
//!    wall clock yet is exactly what a silent fallback to the naive path
//!    looks like, and the counters are deterministic, so this rule works
//!    across tiers and machines with zero noise.
//! 4. **Spectral estimates** (new report, any tier): `kernels.estimates`
//!    must tick for the spectral family — the affinity triangle entering
//!    the dot-form path is the whole point of the blocked builder, and a
//!    dead counter is exactly how the PR4-era fallback bug looked.
//!
//! Separately, [`check_floors`] asserts per-family speedup floors
//! ([`FAMILY_FLOORS`], ≥ 1.0× everywhere) against a frozen checked-in
//! report, so a family regressing behind the naive kernels can never land
//! silently.

use std::collections::BTreeMap;

use crate::report::{f3, section, BenchReport, Table};

/// Default relative noise threshold for the wall-clock and speedup rules
/// (0.5 = 50%; generous because CI machines are shared and smoke
/// workloads are sub-millisecond).
pub const DEFAULT_NOISE: f64 = 0.5;

/// Baseline speedups below this are treated as break-even noise and not
/// gated by the speedup rule.
const SPEEDUP_GATE_MIN: f64 = 1.1;

/// Outcome of a baseline comparison.
#[derive(Debug)]
pub struct Comparison {
    /// Aligned delta table plus verdict lines (for stderr).
    pub text: String,
    /// One line per detected regression; empty means the gate passes.
    pub regressions: Vec<String>,
}

impl Comparison {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Sum of a family's engine-side counter activity: every `kernels.*`
/// counter except the raw work counts that the naive path also records.
fn engine_activity(counters: &BTreeMap<String, u64>) -> u64 {
    counters
        .iter()
        .filter(|(name, _)| {
            // Raw work counts (exact distances, scan tallies, and the
            // flops/bytes roofline accounting) are excluded: they are
            // nonzero in *any* mode, so they would mask a silent fallback
            // to the naive kernels — the exact signal this rule exists
            // to catch.
            name.starts_with("kernels.")
                && name.as_str() != "kernels.exact"
                && name.as_str() != "kernels.assign.scanned"
                && name.as_str() != "kernels.flops"
                && name.as_str() != "kernels.bytes_touched"
        })
        .map(|(_, &v)| v)
        .sum()
}

/// Per-family activity totals over a report's entries.
fn family_activity(report: &BenchReport) -> BTreeMap<&str, u64> {
    let mut out: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &report.entries {
        *out.entry(e.family.as_str()).or_insert(0) += engine_activity(&e.counters);
    }
    out
}

/// Compares a fresh report against a baseline under the given noise
/// threshold (relative, e.g. 0.5 = ±50%).
pub fn compare(new: &BenchReport, base: &BenchReport, noise: f64) -> Comparison {
    let mut regressions = Vec::new();
    let mut table = Table::new(&[
        "id", "base_ms", "new_ms", "delta", "base_spd", "new_spd", "verdict",
    ]);

    for e in &new.entries {
        let Some(b) = base.entries.iter().find(|b| b.id == e.id) else {
            table.row(&[
                e.id.clone(),
                "-".into(),
                f3(e.wall_ms),
                "-".into(),
                "-".into(),
                e.speedup.map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
                "no baseline entry (tier mismatch)".into(),
            ]);
            continue;
        };
        let delta = (e.wall_ms - b.wall_ms) / b.wall_ms.max(1e-9);
        let mut verdict = "ok".to_string();
        if e.wall_ms > b.wall_ms * (1.0 + noise) {
            verdict = format!("REGRESSION: wall-clock +{:.0}%", delta * 100.0);
            regressions.push(format!(
                "{}: wall-clock regressed {:.3} ms -> {:.3} ms (+{:.0}%, threshold +{:.0}%)",
                e.id,
                b.wall_ms,
                e.wall_ms,
                delta * 100.0,
                noise * 100.0
            ));
        } else if let (Some(bs), Some(ns)) = (b.speedup, e.speedup) {
            if bs >= SPEEDUP_GATE_MIN && ns < bs * (1.0 - noise) {
                verdict = format!("REGRESSION: speedup {bs:.2}x -> {ns:.2}x");
                regressions.push(format!(
                    "{}: speedup regressed {bs:.2}x -> {ns:.2}x (threshold -{:.0}%)",
                    e.id,
                    noise * 100.0
                ));
            }
        }
        table.row(&[
            e.id.clone(),
            f3(b.wall_ms),
            f3(e.wall_ms),
            format!("{:+.0}%", delta * 100.0),
            b.speedup.map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
            e.speedup.map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
            verdict,
        ]);
    }

    // Family-level engine-activity rule: deterministic across tiers.
    let base_act = family_activity(base);
    let new_act = family_activity(new);
    let mut act_table = Table::new(&["family", "base_activity", "new_activity", "verdict"]);
    for (family, &b) in &base_act {
        let Some(&n) = new_act.get(family) else { continue };
        let mut verdict = "ok".to_string();
        if b > 0 && n == 0 {
            verdict = "REGRESSION: engine counters silent".into();
            regressions.push(format!(
                "{family}: engine pruning/caching activity dropped to zero \
                 (baseline recorded {b} counter events) — naive fallback?"
            ));
        }
        act_table.row(&[family.to_string(), b.to_string(), n.to_string(), verdict]);
    }

    // Spectral estimates subrule: the affinity triangle must go through the
    // dot-form estimate path (`kernels.estimates` ticks once per pair). The
    // counter sitting at zero is precisely the PR4-era bug where the
    // builder silently fell back to per-pair subtractive arithmetic, so it
    // is gated on the *new* report unconditionally — a baseline that also
    // had it dead (like `BENCH_PR4.json`) must not grandfather it in.
    let spectral_estimates: u64 = new
        .entries
        .iter()
        .filter(|e| e.family == "spectral")
        .filter_map(|e| e.counters.get("kernels.estimates"))
        .sum();
    if new.entries.iter().any(|e| e.family == "spectral") && spectral_estimates == 0 {
        regressions.push(
            "spectral: kernels.estimates == 0 — affinity triangle is not entering \
             the dot-form estimate path"
                .to_string(),
        );
    }

    let mut text = section(
        &format!("bench --compare: {} vs baseline {}", new.label, base.label),
        &table.render(),
    );
    text.push_str(&section("engine-activity by family", &act_table.render()));
    if regressions.is_empty() {
        text.push_str("gate: PASS (no regression beyond noise threshold)\n");
    } else {
        text.push_str(&format!("gate: FAIL ({} regression(s)):\n", regressions.len()));
        for r in &regressions {
            text.push_str(&format!("  - {r}\n"));
        }
    }
    Comparison { text, regressions }
}

/// Per-family speedup floors for [`check_floors`]: every family must beat
/// the naive kernels (≥ 1.0×). Spectral and Dec-kMeans are listed
/// explicitly because they are the two families that *regressed* before
/// the blocked tier (0.86× / 0.89× in `BENCH_PR4.json`) — the floor gate
/// exists so that gap can never silently reopen.
pub const FAMILY_FLOORS: &[(&str, f64)] = &[
    ("kmeans", 1.0),
    ("spectral", 1.0),
    ("coala", 1.0),
    ("dec-kmeans", 1.0),
    ("meta", 1.0),
    ("proclus", 1.0),
];

/// Asserts per-entry speedup floors on a (typically checked-in, full-tier)
/// report: every entry of a floored family must show `speedup >= floor`.
/// Run against a frozen `BENCH_*.json` this is fully deterministic — the
/// numbers are in the file, not re-measured.
pub fn check_floors(report: &BenchReport, floors: &[(&str, f64)]) -> Comparison {
    let mut regressions = Vec::new();
    let mut table = Table::new(&["id", "speedup", "floor", "verdict"]);
    for e in &report.entries {
        let Some(&(_, floor)) = floors.iter().find(|(f, _)| *f == e.family) else {
            continue;
        };
        let Some(s) = e.speedup else {
            regressions.push(format!("{}: no speedup recorded (floor {floor:.2}x)", e.id));
            continue;
        };
        let ok = s >= floor;
        if !ok {
            regressions.push(format!(
                "{}: speedup {s:.2}x below family floor {floor:.2}x",
                e.id
            ));
        }
        table.row(&[
            e.id.clone(),
            format!("{s:.2}x"),
            format!("{floor:.2}x"),
            if ok { "ok".into() } else { "BELOW FLOOR".to_string() },
        ]);
    }
    let mut text = section(
        &format!("bench --check-floors: {}", report.label),
        &table.render(),
    );
    if regressions.is_empty() {
        text.push_str("floors: PASS (every family beats the naive kernels)\n");
    } else {
        text.push_str(&format!("floors: FAIL ({} violation(s)):\n", regressions.len()));
        for r in &regressions {
            text.push_str(&format!("  - {r}\n"));
        }
    }
    Comparison { text, regressions }
}

/// Longitudinal trend over a labelled sequence of reports (typically the
/// checked-in `BENCH_*.json` files in filename order): one row per entry
/// id, wall-clock and speedup per report.
pub fn trend(reports: &[(String, BenchReport)]) -> String {
    let mut ids: Vec<&str> = Vec::new();
    for (_, r) in reports {
        for e in &r.entries {
            if !ids.contains(&e.id.as_str()) {
                ids.push(&e.id);
            }
        }
    }
    let mut headers: Vec<String> = vec!["id".to_string()];
    for (label, _) in reports {
        headers.push(format!("{label} ms"));
        headers.push(format!("{label} spd"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    for id in ids {
        let mut row = vec![id.to_string()];
        for (_, r) in reports {
            match r.entries.iter().find(|e| e.id == id) {
                Some(e) => {
                    row.push(f3(e.wall_ms));
                    row.push(e.speedup.map_or_else(|| "-".into(), |s| format!("{s:.2}x")));
                }
                None => {
                    row.push("-".into());
                    row.push("-".into());
                }
            }
        }
        table.row(&row);
    }
    section(
        &format!("bench trend over {} report(s)", reports.len()),
        &table.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BenchEntry;

    fn entry(id: &str, family: &str, wall: f64, speedup: f64, counters: &[(&str, u64)]) -> BenchEntry {
        BenchEntry {
            id: id.into(),
            family: family.into(),
            n: 100,
            wall_ms: wall,
            baseline_ms: Some(wall * speedup),
            speedup: Some(speedup),
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn report(label: &str, entries: Vec<BenchEntry>) -> BenchReport {
        let mut r = BenchReport::new(label);
        r.entries = entries;
        r
    }

    #[test]
    fn identical_reports_pass() {
        let e = entry("kmeans-n100", "kmeans", 10.0, 2.0, &[("kernels.estimates", 500)]);
        let c = compare(&report("new", vec![e.clone()]), &report("base", vec![e]), DEFAULT_NOISE);
        assert!(c.passed(), "{:?}", c.regressions);
        assert!(c.text.contains("gate: PASS"), "{}", c.text);
    }

    #[test]
    fn wall_clock_blowup_fails_same_id() {
        let base = entry("kmeans-n100", "kmeans", 10.0, 2.0, &[("kernels.estimates", 500)]);
        let new = entry("kmeans-n100", "kmeans", 40.0, 2.0, &[("kernels.estimates", 500)]);
        let c = compare(&report("new", vec![new]), &report("base", vec![base]), DEFAULT_NOISE);
        assert!(!c.passed());
        assert!(c.regressions[0].contains("wall-clock"), "{:?}", c.regressions);
    }

    #[test]
    fn wall_clock_within_noise_passes() {
        let base = entry("kmeans-n100", "kmeans", 10.0, 2.0, &[("kernels.estimates", 500)]);
        let new = entry("kmeans-n100", "kmeans", 13.0, 1.8, &[("kernels.estimates", 480)]);
        let c = compare(&report("new", vec![new]), &report("base", vec![base]), DEFAULT_NOISE);
        assert!(c.passed(), "{:?}", c.regressions);
    }

    #[test]
    fn speedup_collapse_fails_same_id() {
        let base = entry("kmeans-n100", "kmeans", 10.0, 3.0, &[("kernels.estimates", 500)]);
        let new = entry("kmeans-n100", "kmeans", 10.0, 0.9, &[("kernels.estimates", 500)]);
        let c = compare(&report("new", vec![new]), &report("base", vec![base]), DEFAULT_NOISE);
        assert!(!c.passed());
        assert!(c.regressions[0].contains("speedup"), "{:?}", c.regressions);
    }

    #[test]
    fn engine_activity_rule_spans_tiers() {
        // Baseline at n=1000 with pruning activity; new smoke run at a
        // different id with dead counters: the family rule still fires.
        let base = entry("kmeans-n1000", "kmeans", 100.0, 2.0, &[("kernels.estimates", 5000)]);
        let new = entry(
            "kmeans-n160",
            "kmeans",
            1.0,
            1.0,
            &[("kernels.exact", 640), ("kernels.assign.scanned", 160)],
        );
        let c = compare(&report("new", vec![new]), &report("base", vec![base]), DEFAULT_NOISE);
        assert!(!c.passed());
        assert!(c.regressions[0].contains("engine"), "{:?}", c.regressions);
    }

    #[test]
    fn smoke_vs_full_tier_with_live_counters_passes() {
        let base = entry("kmeans-n1000", "kmeans", 100.0, 2.0, &[("kernels.estimates", 5000)]);
        let new = entry("kmeans-n160", "kmeans", 1.0, 1.0, &[("kernels.estimates", 90)]);
        let c = compare(&report("new", vec![new]), &report("base", vec![base]), DEFAULT_NOISE);
        assert!(c.passed(), "{:?}", c.regressions);
        assert!(c.text.contains("no baseline entry"), "{}", c.text);
    }

    #[test]
    fn spectral_dead_estimates_fail_even_with_dead_baseline() {
        // PR4-era baseline: spectral activity from matrix builds only,
        // estimates dead in BOTH reports. The subrule must still fire.
        let counters = &[("kernels.matrix.builds", 2u64), ("kernels.estimates", 0)][..];
        let base = entry("spectral-n100", "spectral", 10.0, 0.9, counters);
        let new = entry("spectral-n100", "spectral", 10.0, 0.9, counters);
        let c = compare(&report("new", vec![new]), &report("base", vec![base]), DEFAULT_NOISE);
        assert!(!c.passed());
        assert!(
            c.regressions.iter().any(|r| r.contains("kernels.estimates")),
            "{:?}",
            c.regressions
        );
    }

    #[test]
    fn spectral_live_estimates_pass() {
        let base = entry("spectral-n100", "spectral", 10.0, 0.9, &[("kernels.estimates", 0)]);
        let new = entry("spectral-n100", "spectral", 10.0, 1.2, &[("kernels.estimates", 4950)]);
        let c = compare(&report("new", vec![new]), &report("base", vec![base]), DEFAULT_NOISE);
        assert!(c.passed(), "{:?}", c.regressions);
    }

    #[test]
    fn floors_pass_at_or_above_one() {
        let r = report(
            "r",
            vec![
                entry("spectral-n1000", "spectral", 10.0, 1.0, &[]),
                entry("dec-kmeans-n1000", "dec-kmeans", 10.0, 1.31, &[]),
            ],
        );
        let c = check_floors(&r, FAMILY_FLOORS);
        assert!(c.passed(), "{:?}", c.regressions);
        assert!(c.text.contains("floors: PASS"), "{}", c.text);
    }

    #[test]
    fn floors_fail_below_one() {
        let r = report("r", vec![entry("spectral-n1000", "spectral", 10.0, 0.86, &[])]);
        let c = check_floors(&r, FAMILY_FLOORS);
        assert!(!c.passed());
        assert!(c.regressions[0].contains("below family floor"), "{:?}", c.regressions);
    }

    #[test]
    fn floors_ignore_unlisted_families() {
        let r = report("r", vec![entry("other-n1000", "other", 10.0, 0.5, &[])]);
        assert!(check_floors(&r, FAMILY_FLOORS).passed());
    }

    #[test]
    fn trend_renders_one_row_per_id() {
        let a = report("a", vec![entry("kmeans-n100", "kmeans", 10.0, 2.0, &[])]);
        let b = report("b", vec![entry("kmeans-n100", "kmeans", 9.0, 2.2, &[])]);
        let out = trend(&[("BENCH_A".into(), a), ("BENCH_B".into(), b)]);
        assert!(out.contains("kmeans-n100"), "{out}");
        assert!(out.contains("BENCH_A ms"), "{out}");
        assert!(out.contains("2.20x"), "{out}");
    }
}
