//! Convergence diagnostics over a parsed trace.
//!
//! Every algorithm family logs a per-iteration objective trajectory as
//! structured events (`kmeans.iter`, `dec_kmeans.iter`, `power.iter`,
//! `proclus.iter`, `coala.merge`, …). This module segments those event
//! streams back into trajectories and applies four rules:
//!
//! * **non-monotone** (*error*) — a declared-monotone objective moves the
//!   wrong way beyond numerical tolerance. Only trajectories whose
//!   monotonicity is a proven property are declared: Lloyd's k-means
//!   inertia as logged (the inertia of each fresh assignment against the
//!   centroids it was made with) never increases; hill-climb candidate
//!   costs (PROCLUS) and alternating surrogates (Dec-kMeans) are not
//!   declared and only get the warning rules.
//! * **oscillation** (*warning*) — the objective delta alternates sign
//!   for [`DiagnoseOptions::oscillation_min`]+ consecutive steps.
//! * **stall** (*warning*) — relative improvement stays below
//!   [`DiagnoseOptions::stall_rtol`] for more than
//!   [`DiagnoseOptions::stall_window`] consecutive iterations.
//! * **budget-exhausted** (*warning*) — a `*.done` event reports
//!   `iterations >= budget`: the loop ran out of iterations rather than
//!   converging.
//!
//! Errors make [`DiagnoseReport::has_errors`] true (the CLI `diagnose`
//! command exits non-zero); warnings are advisory.

use serde::Value;

use crate::trace::TraceFile;

/// Monotone direction a trajectory's objective is declared to follow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Monotone {
    /// Objective must never increase (beyond tolerance).
    Decreasing,
    /// No direction declared; only warning rules apply.
    None,
}

/// How one event name maps onto an objective trajectory.
struct TrajectorySpec {
    /// Event name carrying the trajectory.
    event: &'static str,
    /// Field holding the iteration index (segments split when it resets).
    iter_field: &'static str,
    /// Field holding the objective value.
    value_field: &'static str,
    /// Optional field separating interleaved trajectories (k-means logs
    /// all restarts into one stream, keyed by `restart`).
    key_field: Option<&'static str>,
    /// Declared monotonicity.
    monotone: Monotone,
}

/// The trajectory registry: one entry per instrumented family.
const SPECS: &[TrajectorySpec] = &[
    TrajectorySpec {
        event: "kmeans.iter",
        iter_field: "iter",
        value_field: "inertia",
        key_field: Some("restart"),
        monotone: Monotone::Decreasing,
    },
    TrajectorySpec {
        event: "dec_kmeans.iter",
        iter_field: "iter",
        value_field: "objective",
        key_field: None,
        // Alternating minimisation of a regularised surrogate (and empty
        // clusters re-seed randomly): not a declared-monotone sequence.
        monotone: Monotone::None,
    },
    TrajectorySpec {
        event: "power.iter",
        iter_field: "iter",
        value_field: "residual",
        key_field: None,
        monotone: Monotone::None,
    },
    TrajectorySpec {
        event: "proclus.iter",
        iter_field: "iter",
        value_field: "cost",
        key_field: None,
        // Hill-climb candidate cost: probes are allowed to be worse.
        monotone: Monotone::None,
    },
    TrajectorySpec {
        event: "coala.merge",
        iter_field: "step",
        value_field: "quality",
        key_field: None,
        monotone: Monotone::None,
    },
];

/// Tunable thresholds for the rules.
#[derive(Clone, Copy, Debug)]
pub struct DiagnoseOptions {
    /// Relative tolerance for a monotone step going the wrong way.
    pub monotone_rtol: f64,
    /// Relative improvement below which a step counts as stalled.
    pub stall_rtol: f64,
    /// Stalled steps tolerated before the stall warning fires.
    pub stall_window: usize,
    /// Consecutive sign alternations before the oscillation warning fires.
    pub oscillation_min: usize,
}

impl Default for DiagnoseOptions {
    fn default() -> Self {
        Self {
            monotone_rtol: 1e-9,
            stall_rtol: 1e-6,
            stall_window: 8,
            oscillation_min: 6,
        }
    }
}

/// Finding severity: errors fail the `diagnose` command, warnings don't.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Advisory: worth a look, not a contract violation.
    Warning,
    /// A declared property was violated.
    Error,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic finding on one trajectory.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Error or warning.
    pub severity: Severity,
    /// Rule identifier: `non-monotone`, `oscillation`, `stall`,
    /// `budget-exhausted`.
    pub rule: &'static str,
    /// Trajectory label, e.g. `kmeans.iter[restart=1]#0`.
    pub trajectory: String,
    /// Human-readable specifics (iteration, values).
    pub detail: String,
}

/// Summary of one segmented trajectory.
#[derive(Clone, Debug)]
pub struct TrajectorySummary {
    /// Trajectory label.
    pub label: String,
    /// Number of recorded iterations.
    pub points: usize,
    /// First objective value.
    pub first: f64,
    /// Last objective value.
    pub last: f64,
    /// Declared monotonicity.
    pub monotone: Monotone,
}

/// The analyzer's output.
#[derive(Debug, Default)]
pub struct DiagnoseReport {
    /// All findings, in trajectory order.
    pub findings: Vec<Finding>,
    /// Every trajectory seen, including clean ones.
    pub trajectories: Vec<TrajectorySummary>,
}

impl DiagnoseReport {
    /// Whether any finding is an error (CLI exits non-zero).
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "diagnose: {} trajectories, {} findings ({} errors)\n",
            self.trajectories.len(),
            self.findings.len(),
            self.findings.iter().filter(|f| f.severity == Severity::Error).count()
        ));
        for t in &self.trajectories {
            out.push_str(&format!(
                "  trajectory {}  points={}  first={:.6}  last={:.6}{}\n",
                t.label,
                t.points,
                t.first,
                t.last,
                if t.monotone == Monotone::Decreasing { "  (monotone decreasing)" } else { "" }
            ));
        }
        for f in &self.findings {
            out.push_str(&format!(
                "  {}: {} on {}: {}\n",
                f.severity.as_str(),
                f.rule,
                f.trajectory,
                f.detail
            ));
        }
        if self.findings.is_empty() {
            out.push_str("  no findings\n");
        }
        out
    }

    /// Machine-readable JSON report.
    pub fn to_json(&self) -> String {
        let trajectories = Value::Array(
            self.trajectories
                .iter()
                .map(|t| {
                    Value::Object(vec![
                        ("label".into(), Value::String(t.label.clone())),
                        ("points".into(), crate::int(t.points as u64)),
                        ("first".into(), crate::float(t.first)),
                        ("last".into(), crate::float(t.last)),
                        (
                            "monotone".into(),
                            Value::String(
                                match t.monotone {
                                    Monotone::Decreasing => "decreasing",
                                    Monotone::None => "none",
                                }
                                .into(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let findings = Value::Array(
            self.findings
                .iter()
                .map(|f| {
                    Value::Object(vec![
                        ("severity".into(), Value::String(f.severity.as_str().into())),
                        ("rule".into(), Value::String(f.rule.into())),
                        ("trajectory".into(), Value::String(f.trajectory.clone())),
                        ("detail".into(), Value::String(f.detail.clone())),
                    ])
                })
                .collect(),
        );
        let root = Value::Object(vec![
            ("schema".into(), Value::String("multiclust-diagnose/v1".into())),
            ("errors".into(), Value::Bool(self.has_errors())),
            ("trajectories".into(), trajectories),
            ("findings".into(), findings),
        ]);
        serde_json::to_string(&root).expect("value tree serialization is infallible")
    }
}

fn field(fields: &[(String, f64)], name: &str) -> Option<f64> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
}

/// One segmented trajectory: label plus (iter, value) points.
struct Segment {
    label: String,
    monotone: Monotone,
    points: Vec<(f64, f64)>,
}

/// Splits the event stream into trajectories: grouped by (spec, key
/// value), with a fresh segment whenever the iteration index stops
/// increasing (a second fit logging into the same stream).
fn segments(trace: &TraceFile) -> Vec<Segment> {
    let mut out: Vec<Segment> = Vec::new();
    for spec in SPECS {
        // (key bits, segment index into `out`, last iter) per open stream.
        let mut open: Vec<(u64, usize, f64)> = Vec::new();
        let mut seg_count = 0usize;
        for e in trace.events.iter().filter(|e| e.name == spec.event) {
            let (Some(iter), Some(value)) = (
                field(&e.fields, spec.iter_field),
                field(&e.fields, spec.value_field),
            ) else {
                continue;
            };
            let key = spec
                .key_field
                .and_then(|k| field(&e.fields, k))
                .unwrap_or(0.0)
                .to_bits();
            match open.iter_mut().find(|(k, _, _)| *k == key) {
                Some(slot) if iter > slot.2 => {
                    slot.2 = iter;
                    out[slot.1].points.push((iter, value));
                }
                slot => {
                    // New key, or the iteration index reset: a new segment.
                    let label = match spec.key_field {
                        Some(k) => format!(
                            "{}[{}={}]#{}",
                            spec.event,
                            k,
                            f64::from_bits(key),
                            seg_count
                        ),
                        None => format!("{}#{}", spec.event, seg_count),
                    };
                    seg_count += 1;
                    out.push(Segment {
                        label,
                        monotone: spec.monotone,
                        points: vec![(iter, value)],
                    });
                    let idx = out.len() - 1;
                    match slot {
                        Some(s) => {
                            s.1 = idx;
                            s.2 = iter;
                        }
                        None => open.push((key, idx, iter)),
                    }
                }
            }
        }
    }
    out
}

/// Analyzes a parsed trace: segments the objective trajectories and
/// applies the monotonicity, oscillation, stall and budget rules.
pub fn analyze(trace: &TraceFile, opts: &DiagnoseOptions) -> DiagnoseReport {
    let mut report = DiagnoseReport::default();
    for seg in segments(trace) {
        let vals: Vec<f64> = seg.points.iter().map(|&(_, v)| v).collect();
        report.trajectories.push(TrajectorySummary {
            label: seg.label.clone(),
            points: vals.len(),
            first: vals.first().copied().unwrap_or(f64::NAN),
            last: vals.last().copied().unwrap_or(f64::NAN),
            monotone: seg.monotone,
        });

        // Non-monotone steps (errors, first offence reported with count).
        if seg.monotone == Monotone::Decreasing {
            let offences: Vec<usize> = (1..vals.len())
                .filter(|&i| {
                    let tol = opts.monotone_rtol
                        * vals[i - 1].abs().max(vals[i].abs()).max(1.0);
                    vals[i] > vals[i - 1] + tol
                })
                .collect();
            if let Some(&first) = offences.first() {
                report.findings.push(Finding {
                    severity: Severity::Error,
                    rule: "non-monotone",
                    trajectory: seg.label.clone(),
                    detail: format!(
                        "objective rose at iteration {} ({:.6} -> {:.6}); {} offending step(s)",
                        seg.points[first].0,
                        vals[first - 1],
                        vals[first],
                        offences.len()
                    ),
                });
            }
        }

        // Oscillation: alternating delta signs (warning).
        let deltas: Vec<f64> = vals.windows(2).map(|w| w[1] - w[0]).collect();
        let mut alternations = 0usize;
        let mut max_alternations = 0usize;
        for w in deltas.windows(2) {
            let significant = w[0].abs() > 0.0 && w[1].abs() > 0.0;
            if significant && (w[0] > 0.0) != (w[1] > 0.0) {
                alternations += 1;
                max_alternations = max_alternations.max(alternations);
            } else {
                alternations = 0;
            }
        }
        if max_alternations >= opts.oscillation_min {
            report.findings.push(Finding {
                severity: Severity::Warning,
                rule: "oscillation",
                trajectory: seg.label.clone(),
                detail: format!(
                    "objective delta alternated sign {max_alternations} consecutive times"
                ),
            });
        }

        // Stall: relative improvement below tolerance for > window steps
        // (warning). The final converged plateau is exactly what a stall
        // looks like, so only interior plateaus that the loop kept
        // grinding past are flagged: the run must continue after them.
        let mut run = 0usize;
        let mut worst: Option<(usize, f64)> = None;
        for (i, w) in vals.windows(2).enumerate() {
            let rel = (w[1] - w[0]).abs() / w[0].abs().max(1e-300);
            if rel < opts.stall_rtol {
                run += 1;
                // `i + 1` is the last index of this plateau; flag only if
                // the trajectory moves significantly again afterwards.
                if run > opts.stall_window {
                    let resumes = vals[i + 1..].windows(2).any(|w| {
                        (w[1] - w[0]).abs() / w[0].abs().max(1e-300) >= opts.stall_rtol
                    });
                    if resumes && worst.is_none() {
                        worst = Some((i + 1, rel));
                    }
                }
            } else {
                run = 0;
            }
        }
        if let Some((at, _)) = worst {
            report.findings.push(Finding {
                severity: Severity::Warning,
                rule: "stall",
                trajectory: seg.label.clone(),
                detail: format!(
                    "relative improvement stayed below {:.0e} for more than {} iterations (through iteration {})",
                    opts.stall_rtol, opts.stall_window, seg.points[at].0
                ),
            });
        }
    }

    // Budget exhaustion: `*.done` events carrying iterations + budget.
    for e in trace.events.iter().filter(|e| e.name.ends_with(".done")) {
        if let (Some(iterations), Some(budget)) =
            (field(&e.fields, "iterations"), field(&e.fields, "budget"))
        {
            if iterations >= budget {
                report.findings.push(Finding {
                    severity: Severity::Warning,
                    rule: "budget-exhausted",
                    trajectory: e.name.clone(),
                    detail: format!(
                        "ran all {budget:.0} allowed iterations without converging earlier"
                    ),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn trace_with(events: Vec<(&str, Vec<(&str, f64)>)>) -> TraceFile {
        let events = events
            .into_iter()
            .enumerate()
            .map(|(i, (name, fields))| Event {
                seq: i as u64,
                name: name.to_string(),
                fields: fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            })
            .collect();
        TraceFile { events, ..TraceFile::default() }
    }

    fn kmeans_iter(restart: f64, iter: f64, inertia: f64) -> (&'static str, Vec<(&'static str, f64)>) {
        ("kmeans.iter", vec![("restart", restart), ("iter", iter), ("inertia", inertia)])
    }

    #[test]
    fn clean_decreasing_trajectory_has_no_findings() {
        let t = trace_with(vec![
            kmeans_iter(0.0, 0.0, 10.0),
            kmeans_iter(0.0, 1.0, 5.0),
            kmeans_iter(0.0, 2.0, 4.0),
        ]);
        let r = analyze(&t, &DiagnoseOptions::default());
        assert_eq!(r.trajectories.len(), 1);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert!(!r.has_errors());
    }

    #[test]
    fn non_monotone_step_is_an_error() {
        let t = trace_with(vec![
            kmeans_iter(0.0, 0.0, 10.0),
            kmeans_iter(0.0, 1.0, 5.0),
            kmeans_iter(0.0, 2.0, 7.5),
        ]);
        let r = analyze(&t, &DiagnoseOptions::default());
        assert!(r.has_errors());
        assert_eq!(r.findings[0].rule, "non-monotone");
        assert!(r.findings[0].detail.contains("iteration 2"), "{}", r.findings[0].detail);
    }

    #[test]
    fn restarts_are_separate_trajectories() {
        let t = trace_with(vec![
            kmeans_iter(0.0, 0.0, 10.0),
            kmeans_iter(1.0, 0.0, 20.0), // interleaved second restart
            kmeans_iter(0.0, 1.0, 5.0),
            kmeans_iter(1.0, 1.0, 12.0),
        ]);
        let r = analyze(&t, &DiagnoseOptions::default());
        assert_eq!(r.trajectories.len(), 2);
        assert!(!r.has_errors());
    }

    #[test]
    fn iteration_reset_starts_a_new_segment() {
        // Two fits logged into one stream: 10→5, then 8→3. Without
        // segmentation the 5→8 jump would be a false non-monotone error.
        let t = trace_with(vec![
            kmeans_iter(0.0, 0.0, 10.0),
            kmeans_iter(0.0, 1.0, 5.0),
            kmeans_iter(0.0, 0.0, 8.0),
            kmeans_iter(0.0, 1.0, 3.0),
        ]);
        let r = analyze(&t, &DiagnoseOptions::default());
        assert_eq!(r.trajectories.len(), 2);
        assert!(!r.has_errors());
    }

    #[test]
    fn interior_stall_warns_but_final_plateau_does_not() {
        let mut events = vec![kmeans_iter(0.0, 0.0, 100.0)];
        // Interior plateau: 12 near-identical steps, then real movement.
        for i in 1..=12 {
            events.push(kmeans_iter(0.0, i as f64, 50.0 + 1e-12 * i as f64));
        }
        events.push(kmeans_iter(0.0, 13.0, 10.0));
        let t = trace_with(events);
        let r = analyze(&t, &DiagnoseOptions::default());
        assert!(r.findings.iter().any(|f| f.rule == "stall"), "{:?}", r.findings);

        // Converged plateau at the end: no stall warning.
        let mut events = vec![kmeans_iter(0.0, 0.0, 100.0)];
        for i in 1..=12 {
            events.push(kmeans_iter(0.0, i as f64, 50.0));
        }
        let t = trace_with(events);
        let r = analyze(&t, &DiagnoseOptions::default());
        assert!(r.findings.iter().all(|f| f.rule != "stall"), "{:?}", r.findings);
    }

    #[test]
    fn oscillation_warns_on_alternating_deltas() {
        let events: Vec<_> = (0..12)
            .map(|i| {
                ("power.iter", vec![("iter", i as f64), ("residual", if i % 2 == 0 { 1.0 } else { 2.0 })])
            })
            .collect();
        let t = trace_with(events);
        let r = analyze(&t, &DiagnoseOptions::default());
        assert!(r.findings.iter().any(|f| f.rule == "oscillation"), "{:?}", r.findings);
        assert!(!r.has_errors(), "oscillation is a warning");
    }

    #[test]
    fn budget_exhaustion_warns_from_done_events() {
        let t = trace_with(vec![(
            "kmeans.done",
            vec![("sse", 1.0), ("iterations", 100.0), ("budget", 100.0)],
        )]);
        let r = analyze(&t, &DiagnoseOptions::default());
        assert!(r.findings.iter().any(|f| f.rule == "budget-exhausted"), "{:?}", r.findings);
    }

    #[test]
    fn json_report_parses_and_flags_errors() {
        let t = trace_with(vec![
            kmeans_iter(0.0, 0.0, 1.0),
            kmeans_iter(0.0, 1.0, 2.0),
        ]);
        let r = analyze(&t, &DiagnoseOptions::default());
        let json = r.to_json();
        let parsed: Value = serde_json::from_str(&json).expect("valid JSON");
        let Value::Object(fields) = parsed else { panic!("object root") };
        assert!(fields.iter().any(|(k, v)| k == "errors" && *v == Value::Bool(true)));
    }
}
