//! Bridge between the family registry and the protocol server.
//!
//! `multiclust-serve` is deliberately ignorant of the algorithm families;
//! this module supplies the [`FitDispatch`] that executes protocol `fit`
//! requests through the exact same [`AlgorithmFamily`] adapters the
//! verification harness runs, so a served fit is **bit-identical** to the
//! in-process fit at the same seed and thread count — the contract the
//! `serve-equivalence` invariant checks per family × scenario.
//!
//! The invariant talks to a shared in-process server (one lazy boot per
//! process, on an ephemeral localhost socket) rather than booting one per
//! check: cheaper, and closer to the resident-service deployment the
//! protocol exists for.

use std::sync::{Arc, OnceLock};

use multiclust_serve::{client, FitDispatch, FitSpec, Listen, Server, ServerConfig};

use crate::families::{all_families, FitInput};

/// A dispatch closure over [`all_families`]: resolves the family by name
/// and runs its adapter on the spec. Unknown families, and datasets above
/// the family's object limit, come back as a protocol-level error.
pub fn fit_dispatch() -> FitDispatch {
    Arc::new(|spec: &FitSpec| {
        let families = all_families();
        let family = families
            .iter()
            .find(|f| f.name() == spec.family)
            .ok_or_else(|| {
                let known: Vec<&str> = families.iter().map(|f| f.name()).collect();
                format!(
                    "unknown family {:?} (expected one of: {})",
                    spec.family,
                    known.join(", ")
                )
            })?;
        let (n, limit) = (spec.data.len(), family.max_objects());
        if n > limit {
            let name = &spec.family;
            return Err(format!("family {name:?} fits at most {limit} objects, dataset has {n}"));
        }
        Ok(family.fit(&FitInput {
            data: &spec.data,
            given: &spec.given,
            view_groups: &spec.view_groups,
            k: spec.k,
            seed: spec.seed,
        }))
    })
}

/// Address of the lazily-booted in-process server shared by the
/// `serve-equivalence` invariant. The server lives for the rest of the
/// process; its accept loop is idle between checks.
pub fn shared_server_addr() -> Result<String, String> {
    static ADDR: OnceLock<Result<String, String>> = OnceLock::new();
    ADDR.get_or_init(|| {
        let listen = Listen::parse("127.0.0.1:0")?;
        let config = ServerConfig {
            capacity: 8,
            dispatch: fit_dispatch(),
            chaos: multiclust_serve::ChaosConfig::default(),
        };
        let server = Server::bind(&listen, config)
            .map_err(|e| format!("cannot bind in-process server: {e}"))?;
        let addr = server.local_addr().to_string();
        std::thread::Builder::new()
            .name("serve-equivalence".to_string())
            .spawn(move || {
                let _ = server.run();
            })
            .map_err(|e| format!("cannot spawn in-process server: {e}"))?;
        Ok(addr)
    })
    .clone()
}

/// One request against the shared in-process server.
pub fn shared_server_roundtrip(request: &str) -> Result<String, String> {
    let addr = shared_server_addr()?;
    let listen = Listen::parse(&addr)?;
    client::roundtrip(&listen, request)
        .map_err(|e| format!("protocol roundtrip against {addr} failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_rejects_unknown_families() {
        let spec = FitSpec {
            family: "no-such-family".to_string(),
            data: multiclust_data::Dataset::from_rows(&[vec![0.0], vec![1.0]]),
            given: multiclust_core::Clustering::from_labels(&[0, 0]),
            view_groups: vec![vec![0]],
            k: 1,
            seed: 1,
        };
        let err = fit_dispatch()(&spec).expect_err("unknown family must fail");
        assert!(err.contains("kmeans"), "error should name the known families: {err}");
    }

    #[test]
    fn shared_server_answers_stats() {
        let resp = shared_server_roundtrip(r#"{"id":"t","op":"stats"}"#).unwrap();
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"uptime_ms\""), "{resp}");
    }
}
