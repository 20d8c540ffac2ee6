//! End-to-end smoke tests for the `multiclust` CLI binary.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use multiclust::core::measures::diss::adjusted_rand_index;
use multiclust::core::Clustering;
use multiclust::data::io::write_csv;
use multiclust::data::synthetic::four_blob_square;
use multiclust::data::seeded_rng;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_multiclust"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("multiclust-cli-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Parses CLI label output: one row per object, comma-separated columns.
fn parse_labels(stdout: &str, column: usize) -> Clustering {
    let assignments: Vec<Option<usize>> = stdout
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let cell: i64 = l.split(',').nth(column).unwrap().trim().parse().unwrap();
            if cell < 0 {
                None
            } else {
                Some(cell as usize)
            }
        })
        .collect();
    Clustering::from_options(assignments)
}

#[test]
fn kmeans_roundtrip_through_csv() {
    let dir = workdir("kmeans");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(801));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();

    let out = bin()
        .args(["kmeans", "--input", input.to_str().unwrap(), "--k", "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let found = parse_labels(&String::from_utf8_lossy(&out.stdout), 0);
    assert_eq!(found.len(), 80);
    let truth = Clustering::from_labels(&fb.blob);
    assert!(adjusted_rand_index(&found, &truth) > 0.95);
}

#[test]
fn dec_kmeans_emits_two_columns() {
    let dir = workdir("dec");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(802));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();

    let out = bin()
        .args([
            "dec-kmeans",
            "--input",
            input.to_str().unwrap(),
            "--ks",
            "2,2",
            "--lambda",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let a = parse_labels(&stdout, 0);
    let b = parse_labels(&stdout, 1);
    assert_eq!(a.len(), 80);
    assert_eq!(b.len(), 80);
}

#[test]
fn alternative_against_given_labels() {
    let dir = workdir("alt");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(803));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let labels_path = dir.join("given.csv");
    let given_text: String = fb
        .horizontal
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    fs::write(&labels_path, given_text).unwrap();

    let out = bin()
        .args([
            "alternative",
            "--input",
            input.to_str().unwrap(),
            "--given",
            labels_path.to_str().unwrap(),
            "--k",
            "2",
            "--method",
            "qidavidson",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let given = parse_labels(&stdout, 0);
    let alt = parse_labels(&stdout, 1);
    let vertical = Clustering::from_labels(&fb.vertical);
    assert!(adjusted_rand_index(&alt, &vertical) > 0.9);
    assert!(adjusted_rand_index(&alt, &given) < 0.1);
}

#[test]
fn compare_reports_measures() {
    let dir = workdir("compare");
    let a_path = dir.join("a.csv");
    let b_path = dir.join("b.csv");
    fs::write(&a_path, "0\n0\n1\n1\n").unwrap();
    fs::write(&b_path, "1\n1\n0\n0\n").unwrap();
    let out = bin()
        .args([
            "compare",
            "--a",
            a_path.to_str().unwrap(),
            "--b",
            b_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("rand_index,1.000000"), "{stdout}");
    assert!(stdout.contains("adjusted_rand_index,1.000000"));
    assert!(stdout.contains("variation_of_information,0.000000"));
}

#[test]
fn subspace_lists_clusters() {
    let dir = workdir("subspace");
    let fb = four_blob_square(25, 10.0, 0.5, &mut seeded_rng(804));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let out = bin()
        .args([
            "subspace",
            "--input",
            input.to_str().unwrap(),
            "--xi",
            "5",
            "--tau",
            "0.1",
            "--select",
            "osclu",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.starts_with("# cluster_id"));
    assert!(stdout.lines().count() > 1, "at least one cluster reported");
}

#[test]
fn bad_flags_fail_with_usage() {
    let out = bin().args(["kmeans", "--k", "3"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("missing required flag --input"));
    assert!(stderr.contains("usage:"));
}

#[test]
fn malformed_csv_fails_cleanly() {
    let dir = workdir("ragged");
    let ragged = dir.join("ragged.csv");
    fs::write(&ragged, "1.0,2.0\n3.0\n5.0,6.0\n").unwrap();
    let garbage = dir.join("garbage.csv");
    fs::write(&garbage, "1.0,2.0\n3.0,not-a-number\n").unwrap();

    for input in [&ragged, &garbage] {
        let out = bin()
            .args(["kmeans", "--input", input.to_str().unwrap(), "--k", "2"])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{input:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.starts_with("error:"), "clean error line, got: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
            "no panic output, got: {stderr}"
        );
        assert!(stderr.contains("line 2"), "names the offending line: {stderr}");
    }
}

/// NaN/inf cells are rejected at the CSV boundary: before, `kmeans`
/// panicked inside the sampler and COALA printed labels computed from NaN.
#[test]
fn non_finite_csv_fails_cleanly() {
    let dir = workdir("nonfinite");
    let given = dir.join("given.csv");
    fs::write(&given, "0\n0\n1\n1\n").unwrap();
    for cell in ["NaN", "inf", "-inf"] {
        let input = dir.join("data.csv");
        fs::write(&input, format!("1.0,2.0\n1.1,{cell}\n8.0,9.0\n8.1,9.1\n")).unwrap();
        let input = input.to_str().unwrap();
        for args in [
            vec!["kmeans", "--input", input, "--k", "2"],
            vec!["dec-kmeans", "--input", input, "--k", "2"],
            vec!["alternative", "--input", input, "--given", given.to_str().unwrap(), "--k", "2",
                 "--method", "coala"],
        ] {
            let out = bin().args(&args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr).to_string();
            assert!(!out.status.success(), "{args:?} with {cell} must fail: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?}: no labels on stdout");
            assert_eq!(stderr.lines().count(), 1, "one-line error, got: {stderr}");
            assert!(stderr.starts_with("error:"), "clean error line, got: {stderr}");
            assert!(stderr.contains("line 2, column 2"), "names the cell: {stderr}");
            assert!(!stderr.contains("panicked") && !stderr.contains("usage:"), "{stderr}");
        }
    }
}

#[test]
fn k_larger_than_dataset_fails_cleanly() {
    let dir = workdir("bigk");
    let input = dir.join("tiny.csv");
    fs::write(&input, "1.0,2.0\n3.0,4.0\n").unwrap();
    let out = bin()
        .args(["kmeans", "--input", input.to_str().unwrap(), "--k", "5"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("--k is 5 but the input has only 2 objects"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Runs the binary expecting one clean `error:` line that contains
/// `needle` and no usage dump.
fn assert_one_line_error(args: &[&str], needle: &str) {
    let out = bin().args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(!out.status.success(), "{args:?} must fail: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
    assert_eq!(stderr.lines().count(), 1, "one-line error, got: {stderr}");
    assert!(stderr.starts_with("error:") && stderr.contains(needle), "{stderr}");
    assert!(!stderr.contains("usage:") && !stderr.contains("panicked"), "{stderr}");
}

/// A label file that does not fit the data is a data error, not a flag
/// mistake: one line, no usage text.
#[test]
fn label_file_content_errors_print_one_line() {
    let dir = workdir("labels");
    let data = dir.join("data.csv");
    fs::write(&data, "1.0,2.0\n1.1,2.1\n8.0,9.0\n8.1,9.1\n").unwrap();
    let short = dir.join("short.csv");
    fs::write(&short, "0\n1\n").unwrap();
    let full = dir.join("full.csv");
    fs::write(&full, "0\n0\n1\n1\n").unwrap();
    let wide = dir.join("wide.csv");
    fs::write(&wide, "0,1\n1,0\n").unwrap();
    let (data, short, full, wide) = (
        data.to_str().unwrap(),
        short.to_str().unwrap(),
        full.to_str().unwrap(),
        wide.to_str().unwrap(),
    );
    assert_one_line_error(
        &["alternative", "--input", data, "--given", short, "--k", "2"],
        "label file has 2 rows, data has 4",
    );
    assert_one_line_error(
        &["alternative", "--input", data, "--given", wide, "--k", "2"],
        "must have exactly one column",
    );
    assert_one_line_error(&["compare", "--a", wide, "--b", full], "must have exactly one column");
    assert_one_line_error(&["compare", "--a", short, "--b", full], "differ in length: 2 vs 4");
}

/// COALA's link matrix is quadratic in n: above the engine's object
/// limit the CLI refuses the fit up front instead of running for hours.
#[test]
fn coala_above_the_object_limit_is_refused() {
    let dir = workdir("coala-limit");
    let n = multiclust::base::hierarchical::MAX_OBJECTS + 1;
    let data = dir.join("data.csv");
    fs::write(&data, (0..n).map(|i| format!("{i}\n")).collect::<String>()).unwrap();
    let given = dir.join("given.csv");
    fs::write(&given, (0..n).map(|i| format!("{}\n", i % 2)).collect::<String>()).unwrap();
    assert_one_line_error(
        &[
            "alternative",
            "--input",
            data.to_str().unwrap(),
            "--given",
            given.to_str().unwrap(),
            "--k",
            "2",
            "--method",
            "coala",
        ],
        &format!("at most {} objects, data has {n}", n - 1),
    );
}

/// The PR-2 acceptance criterion: `--telemetry=json` leaves stdout
/// byte-identical and emits a JSON metrics report on stderr with at least
/// one nonzero-duration span, per-iteration inertia events and the
/// parallel-pool task counters.
#[test]
fn telemetry_json_reports_without_touching_stdout() {
    let dir = workdir("telemetry");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(805));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let base_args =
        ["kmeans", "--input", input.to_str().unwrap(), "--k", "3", "--seed", "9"];

    let plain = bin().args(base_args).output().expect("binary runs");
    assert!(plain.status.success());
    let traced = bin()
        .args(base_args)
        .arg("--telemetry=json")
        .output()
        .expect("binary runs");
    assert!(traced.status.success());

    assert_eq!(plain.stdout, traced.stdout, "stdout must stay byte-identical");
    assert!(plain.stderr.is_empty(), "no stderr without the flag");

    let report = String::from_utf8(traced.stderr).expect("utf-8 stderr");
    let parsed: serde_json::Value =
        serde_json::from_str(report.trim()).expect("stderr must be one JSON document");
    let serde_json::Value::Object(root) = parsed else { panic!("JSON object") };
    let get = |key: &str| &root.iter().find(|(k, _)| k == key).expect(key).1;

    let serde_json::Value::Array(spans) = get("spans") else { panic!("spans array") };
    assert!(
        spans.iter().any(|s| matches!(s, serde_json::Value::Object(f)
            if f.iter().any(|(k, v)| k == "total_ns"
                && matches!(v, serde_json::Value::Int(ns) if *ns > 0)))),
        "at least one span with nonzero duration: {report}"
    );
    let serde_json::Value::Array(events) = get("events") else { panic!("events array") };
    assert!(
        events.iter().any(|e| matches!(e, serde_json::Value::Object(f)
            if f.iter().any(|(k, v)| k == "name"
                && matches!(v, serde_json::Value::String(n) if n == "kmeans.iter")))),
        "per-iteration kmeans events present: {report}"
    );
    let serde_json::Value::Object(counters) = get("counters") else { panic!("counters") };
    assert!(
        counters.iter().any(|(k, v)| k == "parallel.tasks"
            && matches!(v, serde_json::Value::Int(n) if *n > 0)),
        "parallel-pool task counter present: {report}"
    );
}

/// PR-3 acceptance: a clean `verify` run against the committed golden
/// fixtures exits 0 and prints the invariant × family matrix.
#[test]
fn verify_clean_run_exits_zero() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let out = bin()
        .args(["verify", "--family", "kmeans", "--golden-dir", golden.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("verification matrix"), "{stdout}");
    assert!(stdout.contains("partition-validity"), "{stdout}");
    assert!(stdout.contains("kmeans            match"), "golden line: {stdout}");
    assert!(out.stderr.is_empty(), "clean run is quiet on stderr");
}

/// An injected fault must flip the exit code and name its targeted
/// invariant in the report — with no usage dump, because the run itself
/// was well-formed.
#[test]
fn verify_injected_fault_fails_with_named_invariant() {
    let out = bin()
        .args([
            "verify",
            "--family",
            "kmeans",
            "--inject",
            "asymmetric-diss",
            "--golden-dir",
            "none",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "fault must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("violation: diss-symmetry"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(!stderr.contains("usage:"), "no usage dump on a verification failure: {stderr}");

    let bad = bin()
        .args(["verify", "--inject", "nonsense"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success());
    let stderr = String::from_utf8_lossy(&bad.stderr).to_string();
    assert!(stderr.contains("unknown fault"), "{stderr}");
    assert!(stderr.contains("asymmetric-diss"), "lists known faults: {stderr}");
}

/// `--telemetry` must not perturb the verification report: stdout stays
/// byte-identical and the run still passes.
#[test]
fn verify_with_telemetry_keeps_stdout_identical() {
    let args = ["verify", "--family", "coala", "--golden-dir", "none"];
    let plain = bin().args(args).output().expect("binary runs");
    assert!(plain.status.success());
    let traced = bin().args(args).arg("--telemetry").output().expect("binary runs");
    assert!(traced.status.success());
    assert_eq!(plain.stdout, traced.stdout, "report must stay byte-identical");
    assert!(
        String::from_utf8_lossy(&traced.stderr).contains("spans"),
        "telemetry report lands on stderr"
    );
}

/// PR-4 acceptance: `multiclust bench --smoke` exits 0 and emits a
/// parseable [`BenchReport`] on stdout with exactly one entry per
/// benchmarked family, kernel counters included; `--out` writes the same
/// bytes to a file.
#[test]
fn bench_smoke_emits_parseable_json() {
    use multiclust::bench::perf::FAMILIES;
    use multiclust::bench::report::BenchReport;

    let dir = workdir("bench");
    let out_path = dir.join("bench.json");
    let out = bin()
        .args(["bench", "--smoke", "--out", out_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let report = BenchReport::from_json(&stdout).expect("stdout parses as a bench report");
    let families: Vec<&str> = report.entries.iter().map(|e| e.family.as_str()).collect();
    assert_eq!(families, FAMILIES, "one entry per family, in order");
    for e in &report.entries {
        assert!(e.wall_ms > 0.0, "{}", e.id);
        assert!(e.baseline_ms.is_some() && e.speedup.is_some(), "{}", e.id);
        assert!(
            e.counters.keys().any(|k| k.starts_with("kernels.")),
            "{} carries kernel counters",
            e.id
        );
    }
    assert_eq!(fs::read_to_string(&out_path).unwrap(), stdout, "--out mirrors stdout");

    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("bench: bench --smoke"), "table on stderr: {stderr}");
}

/// Flipping the runtime kernel switch must not change any command's
/// stdout by a single byte: the blocked tier is a pure optimization. A
/// value naming no tier (such as the retired `engine`) falls back to the
/// default, which the trace metadata line records.
#[test]
fn kernel_mode_switch_keeps_stdout_identical() {
    let dir = workdir("kernel-mode");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(807));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let labels_path = dir.join("given.csv");
    let given_text: String = fb.horizontal.iter().map(|l| format!("{l}\n")).collect();
    fs::write(&labels_path, given_text).unwrap();

    let cases: Vec<Vec<&str>> = vec![
        vec!["kmeans", "--input", input.to_str().unwrap(), "--k", "4", "--seed", "9"],
        vec!["dec-kmeans", "--input", input.to_str().unwrap(), "--ks", "2,2"],
        vec![
            "alternative",
            "--input",
            input.to_str().unwrap(),
            "--given",
            labels_path.to_str().unwrap(),
            "--k",
            "2",
            "--method",
            "coala",
        ],
    ];
    for args in &cases {
        let naive = bin()
            .args(args)
            .env("MULTICLUST_KERNELS", "naive")
            .output()
            .expect("binary runs");
        assert!(naive.status.success(), "{args:?}");
        let blocked = bin()
            .args(args)
            .env("MULTICLUST_KERNELS", "blocked")
            .output()
            .expect("binary runs");
        assert!(blocked.status.success(), "{args:?}");
        assert_eq!(
            blocked.stdout, naive.stdout,
            "{args:?} diverged under blocked"
        );
    }

    let trace = dir.join("fallback.trace.jsonl");
    let out = bin()
        .args(&cases[0])
        .args(["--trace", trace.to_str().unwrap()])
        .env("MULTICLUST_KERNELS", "engine")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = fs::read_to_string(&trace).unwrap();
    assert!(text.contains(r#""kernel_mode":"blocked""#), "{text}");
}

/// PR-6 acceptance: `bench --check-floors` validates a checked-in report
/// against the per-family speedup floors — the committed BENCH_PR6.json
/// passes, and a doctored report with a sub-floor family fails with the
/// offending row named.
#[test]
fn bench_check_floors_gate() {
    let report = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_PR6.json");
    let out = bin()
        .args(["bench", "--check-floors", report.to_str().unwrap()])
        .output()
        .expect("binary runs");
    // Like `verify`, the audit table is the command's product: it goes to
    // stdout and the exit code carries the verdict.
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "committed report must clear the floors: {stdout}");
    assert!(stdout.contains("floors: PASS"), "{stdout}");

    // Doctor one dec-kmeans entry below its 1.0× floor.
    let dir = workdir("check-floors");
    let text = fs::read_to_string(&report).unwrap();
    let mut doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    {
        let serde_json::Value::Object(root) = &mut doc else { panic!("object") };
        let serde_json::Value::Array(entries) =
            root.iter_mut().find(|(k, _)| k == "entries").map(|(_, v)| v).unwrap()
        else {
            panic!("entries")
        };
        let mut hit = false;
        for e in entries.iter_mut() {
            let serde_json::Value::Object(fields) = e else { continue };
            let is_dec = fields.iter().any(|(k, v)| {
                k == "family" && matches!(v, serde_json::Value::String(s) if s == "dec-kmeans")
            });
            if is_dec {
                for (k, v) in fields.iter_mut() {
                    if k == "speedup" {
                        *v = serde_json::Value::Float(0.62);
                        hit = true;
                    }
                }
            }
        }
        assert!(hit, "report has a dec-kmeans entry to doctor");
    }
    let doctored = dir.join("doctored.json");
    fs::write(&doctored, serde_json::to_string(&doc).unwrap()).unwrap();
    let out = bin()
        .args(["bench", "--check-floors", doctored.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(!out.status.success(), "sub-floor family must fail: {stdout}");
    assert!(stdout.contains("floors: FAIL"), "{stdout}");
    assert!(stdout.contains("dec-kmeans"), "{stdout}");
}

/// PR-5 acceptance: `--trace <file>` leaves stdout byte-identical while
/// streaming a `multiclust-trace/v1` JSONL file that every downstream
/// tool (`trace`, `trace --collapse`, `diagnose`) accepts.
#[test]
fn trace_flag_streams_jsonl_without_touching_stdout() {
    let dir = workdir("trace");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(808));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let trace_path = dir.join("run.trace.jsonl");
    let base_args =
        ["kmeans", "--input", input.to_str().unwrap(), "--k", "4", "--seed", "11"];

    let plain = bin().args(base_args).output().expect("binary runs");
    assert!(plain.status.success());
    let traced = bin()
        .args(base_args)
        .args(["--trace", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(traced.status.success(), "{}", String::from_utf8_lossy(&traced.stderr));
    assert_eq!(plain.stdout, traced.stdout, "stdout must stay byte-identical");

    // Every line of the sink file is standalone JSON; the first line
    // carries the schema version; run metadata is present.
    let raw = fs::read_to_string(&trace_path).expect("trace file written");
    for (i, line) in raw.lines().enumerate() {
        serde_json::from_str::<serde_json::Value>(line)
            .unwrap_or_else(|e| panic!("trace line {}: {e}: {line}", i + 1));
    }
    assert!(
        raw.starts_with(r#"{"type":"meta","schema":"multiclust-trace/v1"}"#),
        "first line announces the schema: {raw}"
    );
    assert!(raw.contains(r#""command":"kmeans""#), "{raw}");
    assert!(raw.contains(r#""dataset_n":80"#), "{raw}");
    assert!(raw.contains(r#""type":"end""#), "flushed end line: {raw}");

    // The attribution and flamegraph views both read it back.
    let summary = bin()
        .args(["trace", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(summary.status.success());
    let text = String::from_utf8_lossy(&summary.stdout).to_string();
    assert!(text.contains("kmeans.fit"), "{text}");
    assert!(text.contains("self%"), "attribution columns: {text}");

    let collapsed = bin()
        .args(["trace", "--collapse", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(collapsed.status.success());
    let stacks = String::from_utf8_lossy(&collapsed.stdout).to_string();
    assert!(stacks.lines().any(|l| l.starts_with("kmeans.fit ")), "{stacks}");

    // A healthy k-means trace diagnoses clean.
    let diag = bin()
        .args(["diagnose", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(diag.status.success(), "{}", String::from_utf8_lossy(&diag.stdout));
    assert!(String::from_utf8_lossy(&diag.stdout).contains("kmeans.iter"));
}

/// A seeded non-monotone objective trajectory must flip `diagnose` to a
/// non-zero exit and be named in both the text and JSON reports.
#[test]
fn diagnose_flags_non_monotone_trajectory() {
    let dir = workdir("diagnose");
    let bad = dir.join("bad.trace.jsonl");
    fs::write(
        &bad,
        concat!(
            "{\"type\":\"meta\",\"schema\":\"multiclust-trace/v1\"}\n",
            "{\"type\":\"event\",\"seq\":0,\"name\":\"kmeans.iter\",",
            "\"fields\":{\"restart\":0.0,\"iter\":0.0,\"inertia\":100.0}}\n",
            "{\"type\":\"event\",\"seq\":1,\"name\":\"kmeans.iter\",",
            "\"fields\":{\"restart\":0.0,\"iter\":1.0,\"inertia\":90.0}}\n",
            "{\"type\":\"event\",\"seq\":2,\"name\":\"kmeans.iter\",",
            "\"fields\":{\"restart\":0.0,\"iter\":2.0,\"inertia\":95.0}}\n",
            "{\"type\":\"end\",\"events_dropped\":0,\"lines\":5}\n",
        ),
    )
    .unwrap();

    let out = bin().args(["diagnose", bad.to_str().unwrap()]).output().expect("runs");
    assert!(!out.status.success(), "rising objective must fail the run");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("non-monotone"), "{text}");
    assert!(text.contains("kmeans.iter"), "{text}");

    let json_out = bin()
        .args(["diagnose", bad.to_str().unwrap(), "--json"])
        .output()
        .expect("runs");
    assert!(!json_out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&json_out.stdout).trim())
            .expect("diagnose --json emits JSON");
    let serde_json::Value::Object(root) = parsed else { panic!("JSON object") };
    assert!(root.iter().any(|(k, v)| k == "errors"
        && matches!(v, serde_json::Value::Bool(true))));
    assert!(root.iter().any(|(k, v)| k == "schema"
        && matches!(v, serde_json::Value::String(s) if s == "multiclust-diagnose/v1")));
}

/// PR-5 acceptance: the perf-regression gate passes the real tree against
/// the checked-in baseline and fails when the engine is swapped out for
/// the naive kernels.
#[test]
fn bench_compare_gate_passes_clean_and_catches_injected_regression() {
    let baseline = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_PR4.json");
    let baseline = baseline.to_str().unwrap();

    let clean = bin()
        .args(["bench", "--smoke", "--compare", baseline])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&clean.stderr).to_string();
    assert!(clean.status.success(), "clean tree must pass the gate: {stderr}");
    assert!(stderr.contains("gate: PASS"), "{stderr}");
    assert!(stderr.contains("engine-activity"), "{stderr}");

    let injected = bin()
        .args(["bench", "--smoke", "--inject-naive", "--compare", baseline])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&injected.stderr).to_string();
    assert!(!injected.status.success(), "naive swap must fail the gate: {stderr}");
    assert!(stderr.contains("gate: FAIL"), "{stderr}");
    assert!(stderr.contains("REGRESSION"), "{stderr}");
}

/// The 6th injectable fault: instrumentation that consumes randomness
/// under an active trace sink must be caught by `trace-invariance`.
#[test]
fn verify_trace_fault_fails_with_named_invariant() {
    let out = bin()
        .args([
            "verify",
            "--family",
            "kmeans",
            "--inject",
            "trace-perturbs-rng",
            "--golden-dir",
            "none",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "fault must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("violation: trace-invariance"), "{stdout}");
    assert!(stdout.contains("tracing moved labels"), "{stdout}");
}

/// `trend` tabulates every checked-in `BENCH_*.json` in the repo root.
#[test]
fn trend_tabulates_checked_in_baselines() {
    let out = bin()
        .args(["trend", "--dir", env!("CARGO_MANIFEST_DIR")])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("bench trend"), "{text}");
    assert!(text.contains("kmeans-n1000"), "{text}");
    assert!(text.contains("PR4"), "column per baseline: {text}");
}

/// PR-7 acceptance: a run with `MULTICLUST_ALLOC=1`, `--trace` and
/// `--metrics` leaves stdout byte-identical, the trace summary gains
/// per-phase `alloc.peak` attribution, and the metrics file is parseable
/// `multiclust-metrics/v1` JSONL with at least two snapshots.
#[test]
fn alloc_and_metrics_instrumentation_keeps_stdout_identical() {
    let dir = workdir("alloc-metrics");
    let fb = four_blob_square(20, 10.0, 0.6, &mut seeded_rng(809));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();
    let trace_path = dir.join("run.trace.jsonl");
    let metrics_path = dir.join("run.metrics.jsonl");
    let base_args =
        ["kmeans", "--input", input.to_str().unwrap(), "--k", "4", "--seed", "13"];

    let plain = bin().args(base_args).output().expect("binary runs");
    assert!(plain.status.success());
    let instrumented = bin()
        .args(base_args)
        .args(["--trace", trace_path.to_str().unwrap()])
        .args(["--metrics", metrics_path.to_str().unwrap()])
        .env("MULTICLUST_ALLOC", "1")
        .output()
        .expect("binary runs");
    assert!(
        instrumented.status.success(),
        "{}",
        String::from_utf8_lossy(&instrumented.stderr)
    );
    assert_eq!(plain.stdout, instrumented.stdout, "stdout must stay byte-identical");

    // The trace summary attributes allocations per phase.
    let summary = bin()
        .args(["trace", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(summary.status.success());
    let text = String::from_utf8_lossy(&summary.stdout).to_string();
    assert!(text.contains("alloc.peak"), "alloc columns in the summary: {text}");
    assert!(text.contains("kmeans.fit"), "{text}");

    // The metrics stream is standalone-JSON-per-line with ≥ 2 snapshots
    // (first immediate, last at stop) and the schema on the first line.
    let raw = fs::read_to_string(&metrics_path).expect("metrics file written");
    let mut snapshots = 0;
    for (i, line) in raw.lines().enumerate() {
        serde_json::from_str::<serde_json::Value>(line)
            .unwrap_or_else(|e| panic!("metrics line {}: {e}: {line}", i + 1));
        if line.starts_with(r#"{"type":"snapshot""#) {
            snapshots += 1;
        }
    }
    assert!(
        raw.starts_with(r#"{"type":"meta","schema":"multiclust-metrics/v1""#),
        "first line announces the schema: {raw}"
    );
    assert!(snapshots >= 2, "expected ≥ 2 snapshots, got {snapshots}: {raw}");
    assert!(raw.contains(r#""alloc":{"enabled":true"#), "alloc gauges sampled: {raw}");
    assert!(raw.contains(r#""type":"end""#), "end line written on stop: {raw}");
}

/// A truncated or corrupt trace must fail `diagnose` (and `trace`) with a
/// clean single-line error naming the offending line — no panic, and no
/// usage dump burying the cause.
#[test]
fn diagnose_corrupt_trace_fails_cleanly() {
    let dir = workdir("diagnose-corrupt");
    // Mid-line truncation, as left behind by a crashed producer…
    let truncated = dir.join("truncated.jsonl");
    fs::write(
        &truncated,
        "{\"type\":\"meta\",\"schema\":\"multiclust-trace/v1\"}\n{\"type\":\"event\",\"seq\":0,\"na",
    )
    .unwrap();
    // …and a line that is not JSON at all.
    let invalid = dir.join("invalid.jsonl");
    fs::write(
        &invalid,
        "{\"type\":\"meta\",\"schema\":\"multiclust-trace/v1\"}\nnot json at all\n",
    )
    .unwrap();

    for (path, what) in [(&truncated, "truncated"), (&invalid, "invalid")] {
        for cmd in ["diagnose", "trace"] {
            let out = bin().args([cmd, path.to_str().unwrap()]).output().expect("runs");
            assert!(!out.status.success(), "{what} trace must fail {cmd}");
            let stderr = String::from_utf8_lossy(&out.stderr).to_string();
            assert!(stderr.starts_with("error:"), "clean error line: {stderr}");
            assert!(stderr.contains("line 2"), "names the offending line: {stderr}");
            assert!(
                !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
                "no panic output: {stderr}"
            );
            assert!(!stderr.contains("usage:"), "no usage dump on a data error: {stderr}");
        }
    }
}

/// The 7th injectable fault: an allocator hook that changes behaviour
/// must be caught by `alloc-invariance`.
#[test]
fn verify_alloc_fault_fails_with_named_invariant() {
    let out = bin()
        .args([
            "verify",
            "--family",
            "kmeans",
            "--inject",
            "alloc-perturbs-rng",
            "--golden-dir",
            "none",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "fault must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("violation: alloc-invariance"), "{stdout}");
    assert!(stdout.contains("allocation accounting moved labels"), "{stdout}");
}

/// The 8th injectable fault: a serving layer that perturbs the RNG must
/// be caught by `serve-equivalence`.
#[test]
fn verify_serve_fault_fails_with_named_invariant() {
    let out = bin()
        .args([
            "verify",
            "--family",
            "kmeans",
            "--inject",
            "serve-perturbs-rng",
            "--golden-dir",
            "none",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "fault must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("violation: serve-equivalence"), "{stdout}");
    assert!(stdout.contains("served fit diverged"), "{stdout}");
}

/// PR-8 acceptance: a malformed request sent through `multiclust client`
/// comes back as a structured protocol error line on stdout — no usage
/// dump, no process exit — and the server keeps answering afterwards.
#[test]
fn client_transports_structured_protocol_errors() {
    use std::io::BufRead;
    let mut serve = bin()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let mut ready = String::new();
    std::io::BufReader::new(serve.stdout.take().unwrap())
        .read_line(&mut ready)
        .expect("ready line");
    let addr = ready
        .split(r#""addr":""#)
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("ready line carries the address: {ready}"))
        .to_string();

    // A ragged dataset is a *protocol* error: the client exits 0 (the
    // transport worked) and prints the server's structured error line.
    let out = bin()
        .args(["client", "--connect", &addr, "--request"])
        .arg(r#"{"id":"r","op":"fit","family":"kmeans","k":2,"data":[[1,2],[3]]}"#)
        .output()
        .expect("client runs");
    assert!(out.status.success(), "transported errors exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains(r#""ok":false"#), "{stdout}");
    assert!(stdout.contains(r#""code":"bad-request""#), "{stdout}");
    assert!(stdout.contains("ragged"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(!stderr.contains("usage:"), "no usage dump: {stderr}");

    // The server survived and still answers.
    let out = bin()
        .args(["client", "--connect", &addr, "--request", r#"{"id":"ls","op":"list"}"#])
        .output()
        .expect("client runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains(r#""ok":true"#));

    // An unreachable server, by contrast, is a runtime error: clean
    // one-line message, no usage dump.
    let dead = bin()
        .args(["client", "--connect", "127.0.0.1:1", "--request", r#"{"op":"list"}"#])
        .output()
        .expect("client runs");
    assert!(!dead.status.success());
    let stderr = String::from_utf8_lossy(&dead.stderr).to_string();
    assert!(stderr.starts_with("error: client:"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");

    let out = bin()
        .args(["client", "--connect", &addr, "--request", r#"{"id":"x","op":"shutdown"}"#])
        .output()
        .expect("client runs");
    assert!(out.status.success());
    assert!(serve.wait().expect("serve exits").success());
}

#[test]
fn telemetry_text_mode_and_bad_mode() {
    let dir = workdir("telemetry-text");
    let fb = four_blob_square(10, 10.0, 0.6, &mut seeded_rng(806));
    let input = dir.join("data.csv");
    write_csv(&fb.dataset, &input).unwrap();

    let out = bin()
        .args(["kmeans", "--input", input.to_str().unwrap(), "--k", "2", "--telemetry"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("spans"), "human-readable report on stderr: {stderr}");
    assert!(stderr.contains("kmeans.fit"), "{stderr}");

    let bad = bin()
        .args(["kmeans", "--input", input.to_str().unwrap(), "--k", "2", "--telemetry=xml"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--telemetry"));
}
