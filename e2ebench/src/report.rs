//! Metric catalogue, run report, and the result line.

use crate::known::{self, Defect};
use std::collections::{BTreeMap, BTreeSet};

/// End-to-end metrics (`--trace 0`), `(name, unit)`. Every workload
/// reports each one; what the latency slots measure on each workload is
/// in README.md.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("ops_per_s", "1/s"),
    ("gmean_ms", "ms"),
    ("p90_ms", "ms"),
    ("alt_gmean_ms", "ms"),
    ("alt_p95_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), `(name, unit)`. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.build_s", "s"),
    ("graph.walk_corpus_s", "s"),
    ("graph.walk_tokens", "count"),
    ("nn.lm_train_s", "s"),
    ("nn.lm_us_per_token", "us"),
    ("her.match_ms", "ms"),
    ("her.candidates_scored", "count/op"),
    ("her.matched", "count/op"),
    ("her.match_yield", "ratio"),
    ("rext.path_select_ms", "ms"),
    ("rext.paths_selected", "count/op"),
    ("rext.embed_ms", "ms"),
    ("cluster.kmeans_ms", "ms"),
    ("rext.discover_ms", "ms"),
    ("rext.extract_ms", "ms"),
    ("rext.extracted_rows", "count/op"),
    ("profile.build_s", "s"),
    ("profile.typed_s", "s"),
    ("profile.materialized_bytes", "bytes"),
    ("gsql.parse_us", "us"),
    ("gsql.exec_ms", "ms"),
    ("op.ejoin_online_ms", "ms"),
    ("op.ejoin_precomputed_ms", "ms"),
    ("op.ejoin_heuristic_ms", "ms"),
    ("op.ljoin_cached_ms", "ms"),
    ("op.ljoin_online_ms", "ms"),
    ("op.relational_ms", "ms"),
    ("op.layer_sum_ratio", "ratio"),
    ("gsql.fallbacks", "count/op"),
    ("join.precomputed_ms", "ms"),
    ("join.connectivity_ms", "ms"),
    ("graph.khop_visited", "count/op"),
    ("ljoin.pairs_checked", "count"),
    ("ljoin.pair_yield", "ratio"),
    ("gl_cache.hits", "count/op"),
    ("gl_cache.misses", "count/op"),
    ("gl_cache.hit_ratio", "ratio"),
    ("relational.morsels", "count/op"),
    ("incext.apply_us", "us"),
    ("incext.update_ms", "ms"),
    ("incext.retries", "count"),
    ("incext.diverged_rows", "count"),
    ("server.exec_us", "us"),
    ("server.wire_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("server.threads_peak", "count"),
    ("server.shed", "count"),
    ("server.errors", "count"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("recorder.queries", "count"),
    ("heuristic.rel_acc", "ratio"),
];

/// One reported value with its sample count.
#[derive(Debug, Clone)]
pub struct Value {
    /// The value in the metric's unit.
    pub value: f64,
    /// Samples behind it (1 for a single measurement or a total).
    pub n: usize,
    /// Short provenance, e.g. `Baseline p90`.
    pub note: String,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Run conditions, printed before any number.
    pub header: Vec<(String, String)>,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Value>,
    /// Derived, ungated numbers (paper ratios, named latencies).
    pub derived: Vec<String>,
    /// Operations attempted (queries, ΔG batches, checks).
    pub attempted: u64,
    /// Operations that errored, were shed, or failed a check — known
    /// defects included.
    pub failed: u64,
    /// Workload name (known defects are pinned per workload).
    pub workload: String,
    /// Datagen seed of the run's collections (known defects are pinned
    /// per dataset).
    pub datagen: u64,
    /// Failures pinned as known defects, by class: count, the instances
    /// seen, and the first example.
    pub known: BTreeMap<&'static str, (u64, BTreeSet<String>, String)>,
    /// The first failures that are not pinned known defects (any one
    /// makes the run incorrect).
    pub check_failures: Vec<String>,
    /// How many failures were not pinned known defects.
    pub unexpected: u64,
    /// Queries handed to the engine, in-process or over the wire (each
    /// must leave one flight-recorder record).
    pub engine_queries: u64,
}

impl Report {
    /// Record a run condition.
    pub fn head(&mut self, key: &str, value: impl std::fmt::Display) {
        self.header.push((key.to_string(), value.to_string()));
    }

    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64, n: usize, note: impl Into<String>) {
        self.metrics.insert(
            name.to_string(),
            Value {
                value,
                n,
                note: note.into(),
            },
        );
    }

    /// Record a failure that is not a pinned known defect.
    pub fn check_failed(&mut self, what: String) {
        self.failed += 1;
        self.unexpected += 1;
        if self.check_failures.len() < 20 {
            self.check_failures.push(what);
        }
    }

    /// Record a failure: a known defect when it is pinned for this
    /// workload and dataset ([`known::pinned`]), else a failed check.
    /// `instance` names where it showed (a query, or a size).
    pub fn defect(&mut self, d: Defect, instance: String, what: String) {
        let Some(class) = known::pinned(&self.workload, self.datagen, &d) else {
            return self.check_failed(what);
        };
        self.failed += 1;
        let entry = self
            .known
            .entry(class)
            .or_insert((0, BTreeSet::new(), what));
        entry.0 += 1;
        entry.1.insert(instance);
    }

    /// Whether every failure is a pinned known defect.
    pub fn correct(&self) -> bool {
        self.unexpected == 0
    }

    /// Print header, metric lines and derived numbers, then the result
    /// JSON as the last line of stdout. `catalogue` selects the metric
    /// set (end-to-end or per-layer); missing per-layer metrics are 0.
    pub fn print(&self, catalogue: &[(&str, &str)]) {
        for (k, v) in &self.header {
            println!("# {k} = {v}");
        }
        for line in &self.derived {
            println!("# {line}");
        }
        for (class, (n, seen, first)) in &self.known {
            let seen: Vec<&str> = seen.iter().map(String::as_str).collect();
            println!(
                "# known defect: {class}: {n} failure(s) on {}; first: {first}",
                seen.join(", ")
            );
        }
        for f in &self.check_failures {
            println!("# CHECK FAILED: {f}");
        }
        let mut json = Vec::new();
        for &(name, unit) in catalogue {
            let v = self.metrics.get(name).cloned().unwrap_or(Value {
                value: 0.0,
                n: 0,
                note: "layer not exercised".into(),
            });
            println!(
                "{name:<28} {:>14.6} {unit:<9} n={:<6} {}",
                v.value, v.n, v.note
            );
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v.value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root lists exactly these metrics.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).unwrap();
            let body = &text[start..];
            let body = &body[..body.find(']').unwrap()];
            let names: Vec<&str> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').unwrap()])
                .collect();
            let want: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{section}");
            for (n, u) in list.iter() {
                assert!(
                    body.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                    "{section}: {n} unit {u}"
                );
            }
        }
    }
}
