//! Frozen benchmark parameters from `perfbench/bench.json`: seeds, the
//! serve-fits rate, latency limits and quality floors. Compiled in, so a
//! run cannot pick up a stray copy.

use serde::Value;

const TEXT: &str = include_str!("../bench.json");

fn root() -> &'static Value {
    static ROOT: std::sync::OnceLock<Value> = std::sync::OnceLock::new();
    ROOT.get_or_init(|| serde_json::parse_value(TEXT).expect("perfbench/bench.json is valid JSON"))
}

fn lookup<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(v, |v, key| match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("perfbench/bench.json has no {path:?}")),
        _ => panic!("perfbench/bench.json: {path:?} crosses a non-object"),
    })
}

/// The number at `path` (e.g. `["serve-fits", "rate_per_s"]` under
/// `workloads`).
pub fn number(path: &[&str]) -> f64 {
    match lookup(root(), path) {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => panic!("perfbench/bench.json: {path:?} is not a number: {other:?}"),
    }
}

/// A workload parameter: `workloads.<workload>.<key...>`.
pub fn workload(workload: &str, key: &[&str]) -> f64 {
    let mut path = vec!["workloads", workload];
    path.extend_from_slice(key);
    number(&path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_why_and_seeds_differ() {
        let r = root();
        for w in crate::WORKLOADS {
            assert!(
                matches!(lookup(r, &["workloads", w, "why"]), Value::String(s) if !s.is_empty())
            );
        }
        assert_ne!(number(&["dev_seed"]), number(&["heldout_seed"]));
        assert!(workload("serve-fits", &["rate_per_s"]) > 0.0);
    }
}
