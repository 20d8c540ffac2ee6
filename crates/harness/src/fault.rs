//! Fault injection: deliberate, named corruptions of the pipeline that a
//! specific invariant **must** detect.
//!
//! This is the harness testing itself: `multiclust verify --inject <fault>`
//! plants exactly one violation and the run must come back red with the
//! targeted invariant named. A fault that goes undetected means the
//! checker, not the algorithms, is broken.

/// A deliberate corruption, each paired with the invariant that catches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Drops the last object from the first solution of every family —
    /// caught by `partition-validity` (length mismatch).
    TruncateOutput,
    /// Flips one label in the *second* of the two determinism runs —
    /// caught by `determinism`.
    RelabelSecondRun,
    /// Adds 1e-3 to the `[0][1]` entry of every dissimilarity matrix —
    /// caught by `diss-symmetry`.
    AsymmetricDiss,
    /// Reports a fabricated index value of 1.5 alongside the real ones —
    /// caught by `diss-bounds`.
    OutOfBoundsMeasure,
    /// Flips one label in the naive-kernel refit, desynchronising it from
    /// the blocked-tier baseline — caught by `kernel-equivalence`.
    DesyncKernels,
    /// Perturbs the RNG seed of the run made under an active trace sink,
    /// simulating instrumentation that consumes randomness — caught by
    /// `trace-invariance`.
    TracePerturbsRng,
    /// Perturbs the RNG seed of the run made with allocation accounting
    /// switched on, simulating an allocator hook that changes behaviour —
    /// caught by `alloc-invariance`.
    AllocPerturbsRng,
    /// Perturbs the RNG seed of the `fit` sent through the protocol
    /// server, simulating a serving layer that re-seeds (or otherwise
    /// desynchronises) the deterministic pipeline — caught by
    /// `serve-equivalence`.
    ServePerturbsRng,
}

impl Fault {
    /// All faults, in documentation order.
    pub fn all() -> &'static [Fault] {
        &[
            Fault::TruncateOutput,
            Fault::RelabelSecondRun,
            Fault::AsymmetricDiss,
            Fault::OutOfBoundsMeasure,
            Fault::DesyncKernels,
            Fault::TracePerturbsRng,
            Fault::AllocPerturbsRng,
            Fault::ServePerturbsRng,
        ]
    }

    /// The CLI name of this fault.
    pub fn name(self) -> &'static str {
        match self {
            Fault::TruncateOutput => "truncate-output",
            Fault::RelabelSecondRun => "relabel-second-run",
            Fault::AsymmetricDiss => "asymmetric-diss",
            Fault::OutOfBoundsMeasure => "out-of-bounds-measure",
            Fault::DesyncKernels => "desync-kernels",
            Fault::TracePerturbsRng => "trace-perturbs-rng",
            Fault::AllocPerturbsRng => "alloc-perturbs-rng",
            Fault::ServePerturbsRng => "serve-perturbs-rng",
        }
    }

    /// The invariant that must fail when this fault is active.
    pub fn targeted_invariant(self) -> &'static str {
        match self {
            Fault::TruncateOutput => "partition-validity",
            Fault::RelabelSecondRun => "determinism",
            Fault::AsymmetricDiss => "diss-symmetry",
            Fault::OutOfBoundsMeasure => "diss-bounds",
            Fault::DesyncKernels => "kernel-equivalence",
            Fault::TracePerturbsRng => "trace-invariance",
            Fault::AllocPerturbsRng => "alloc-invariance",
            Fault::ServePerturbsRng => "serve-equivalence",
        }
    }

    /// Parses a CLI fault name.
    pub fn parse(s: &str) -> Result<Fault, String> {
        Fault::all()
            .iter()
            .copied()
            .find(|f| f.name() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = Fault::all().iter().map(|f| f.name()).collect();
                format!("unknown fault {s:?} (expected one of: {})", known.join(", "))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for &f in Fault::all() {
            assert_eq!(Fault::parse(f.name()), Ok(f));
        }
        assert!(Fault::parse("nope").is_err());
    }

    #[test]
    fn every_fault_targets_a_distinct_invariant() {
        let mut targets: Vec<&str> =
            Fault::all().iter().map(|f| f.targeted_invariant()).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), Fault::all().len());
    }
}
