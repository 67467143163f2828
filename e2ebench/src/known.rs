//! Program defects that exist at the commit that added the benchmark,
//! each pinned to the instances where it shows: workload, datagen seed
//! and query. A failure that matches a pin counts in `failed` but leaves
//! the run correct. Any other failure makes the run incorrect — the
//! same defect on another query, on another dataset, or beyond its
//! recorded size included.

use gsj_common::GsjError;

/// A failure the benchmark observed.
#[derive(Debug)]
pub enum Defect<'a> {
    /// A query errored under `Strategy::Heuristic`.
    HeuristicError {
        /// Workload query name, e.g. `Drugs-q3`.
        query: &'a str,
        /// The error.
        err: &'a GsjError,
    },
    /// Optimized rows differ from Baseline on a well-behaved query.
    OptimizedDiffers {
        /// Workload query name.
        query: &'a str,
    },
    /// IncExt state differs from a scratch re-extraction by `size`
    /// match pairs plus `D_G` rows found on one side only.
    IncExtDiverges {
        /// Items on one side only.
        size: usize,
    },
}

/// Pins of one kind: `(workload, datagen seed, what is pinned)`.
type Pins<T> = [(&'static str, u64, T)];

/// Heuristic errors, as `(workload, datagen seed, [(query, error
/// code)])`. Every link join (q6) fails with `Unsupported` ("no typed
/// relation is relevant to the query schema"). On paper-baseline's
/// dataset every Drugs enrichment query fails too: q1 and q4 with
/// `NotFound` (column `efficacy` missing from the typed relation), the
/// others with `Unsupported`.
const HEURISTIC_ERRORS: &Pins<&[(&str, &str)]> = &[
    (
        "paper-baseline",
        32,
        &[
            ("Drugs-q1", "NotFound"),
            ("Drugs-q2", "Unsupported"),
            ("Drugs-q3", "Unsupported"),
            ("Drugs-q4", "NotFound"),
            ("Drugs-q5", "Unsupported"),
            ("Drugs-q6", "Unsupported"),
            ("FakeNews-q6", "Unsupported"),
            ("Movie-q6", "Unsupported"),
            ("MovKB-q6", "Unsupported"),
            ("Paper-q6", "Unsupported"),
            ("Celebrity-q6", "Unsupported"),
        ],
    ),
    ("update-mix", 1, &[("Movie-q6", "Unsupported")]),
];

/// Optimized rows differ from Baseline on these well-behaved queries.
const OPTIMIZED_DIFFERS: &Pins<&[&str]> = &[(
    "paper-baseline",
    32,
    &["Drugs-q1", "Drugs-q2", "Drugs-q3", "Drugs-q4", "Drugs-q5"],
)];

/// IncExt diverges from a scratch re-extraction on these datasets, by
/// at most this many items per check. The size depends on the ΔG
/// stream and does not grow with the cycle count: over 66 run seeds
/// (about 770 checks) it was 0–82 items, mostly under 40, before each
/// episode started again from the generated graph; since then 2–30.
/// The bound is about three times the largest seen, so that a rare
/// large check does not fail a run while a divergence that grows does.
const INCEXT_DIVERGES: &Pins<usize> = &[("update-mix", 1, 256)];

/// The known-defect class `d` belongs to, when it is pinned for this
/// workload and datagen seed; `None` when it is an unexpected failure.
pub fn pinned(workload: &str, datagen: u64, d: &Defect) -> Option<&'static str> {
    let here = |w: &str, s: u64| w == workload && s == datagen;
    match d {
        Defect::HeuristicError { query, err } => HEURISTIC_ERRORS
            .iter()
            .any(|(w, s, qs)| here(w, *s) && qs.contains(&(*query, err.code())))
            .then_some("Heuristic query errors"),
        Defect::OptimizedDiffers { query } => OPTIMIZED_DIFFERS
            .iter()
            .any(|(w, s, qs)| here(w, *s) && qs.contains(query))
            .then_some("Optimized differs from Baseline"),
        Defect::IncExtDiverges { size } => INCEXT_DIVERGES
            .iter()
            .any(|(w, s, max)| here(w, *s) && size <= max)
            .then_some("IncExt differs from scratch re-extraction"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_pinned_instances_are_known() {
        let unsupported = GsjError::Unsupported("heuristic join".into());
        let heur = |query| Defect::HeuristicError {
            query,
            err: &unsupported,
        };
        assert!(pinned("paper-baseline", 32, &heur("Drugs-q2")).is_some());
        assert!(pinned("update-mix", 1, &heur("Movie-q6")).is_some());
        // Another query, dataset or workload is unexpected.
        assert!(pinned("paper-baseline", 32, &heur("Movie-q1")).is_none());
        assert!(pinned("paper-baseline", 7, &heur("Drugs-q2")).is_none());
        assert!(pinned("served", 32, &heur("Drugs-q2")).is_none());
        // So is another error on a pinned query.
        let other = GsjError::NotFound("column".into());
        let d = Defect::HeuristicError {
            query: "Movie-q6",
            err: &other,
        };
        assert!(pinned("update-mix", 1, &d).is_none());

        let diff = |query| Defect::OptimizedDiffers { query };
        assert!(pinned("paper-baseline", 32, &diff("Drugs-q5")).is_some());
        assert!(pinned("paper-baseline", 32, &diff("Movie-q1")).is_none());

        let inc = |size| Defect::IncExtDiverges { size };
        assert!(pinned("update-mix", 1, &inc(256)).is_some());
        assert!(pinned("update-mix", 1, &inc(257)).is_none());
        assert!(pinned("update-mix", 2, &inc(1)).is_none());
    }
}
