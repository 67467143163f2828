//! The benchmark's own span recorder, used only by `--trace 1` runs.
//!
//! The benchmark opens a span around every public call it makes (parse,
//! execute, apply a ΔG batch, a wire round trip, ...). Intervals the
//! program exports itself — `ExecContext` operator stats and the spans
//! `gsj-obs` records on the calling thread — are grafted under the call
//! that produced them by interval containment. A span's *self time* is
//! its duration minus its children's; each span's self time is booked to
//! one named layer ([`layer_of`]). Spans stay in memory and are written
//! out once, when the run ends.

use std::collections::BTreeMap;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call or stage name.
    pub name: String,
    /// Start, ns since the `gsj-obs` trace epoch.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The query (or update) this span belongs to.
    pub qid: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Every span, parents before children.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str, qid: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: gsj_obs::now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            qid,
        });
        self.stack.push(id);
        id
    }

    /// Close span `prev` and open `name` at the same instant, so no
    /// untimed gap sits between consecutive steps.
    pub fn switch(&mut self, prev: usize, name: &str, qid: u64) -> usize {
        let now = gsj_obs::now_ns();
        self.close_at(prev, now);
        let id = self.open(name, qid);
        self.spans[id].start_ns = now;
        id
    }

    /// Close span `id` (and anything still open inside it).
    pub fn close(&mut self, id: usize) {
        self.close_at(id, gsj_obs::now_ns());
    }

    fn close_at(&mut self, id: usize, now: u64) {
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Record a finished top-level interval.
    pub fn push_root(&mut self, name: &str, start_ns: u64, end_ns: u64, qid: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: None,
            qid,
        });
        self.spans.len() - 1
    }

    /// Record a finished interval as a child of `parent`.
    pub fn record(&mut self, parent: usize, name: &str, start_ns: u64, end_ns: u64) -> usize {
        let qid = self.spans[parent].qid;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: Some(parent),
            qid,
        });
        self.spans.len() - 1
    }

    /// Graft finished `(name, start, end)` intervals under `root` by
    /// containment: each interval becomes a child of the innermost
    /// interval (or `root`) that contains it. Intervals are clamped to
    /// `root`'s extent first.
    pub fn graft(&mut self, root: usize, mut items: Vec<(String, u64, u64)>) {
        let (lo, hi) = (self.spans[root].start_ns, self.spans[root].end_ns);
        for it in &mut items {
            it.1 = it.1.clamp(lo, hi);
            it.2 = it.2.clamp(it.1, hi);
        }
        // Outer intervals first: by start, then longest first.
        items.sort_by(|a, b| a.1.cmp(&b.1).then((b.2 - b.1).cmp(&(a.2 - a.1))));
        let mut stack = vec![root];
        for (name, start, end) in items {
            while let Some(&top) = stack.last() {
                let t = &self.spans[top];
                if top == root || (t.start_ns <= start && end <= t.end_ns) {
                    break;
                }
                stack.pop();
            }
            let parent = *stack.last().expect("root never pops");
            let id = self.record(parent, &name, start, end);
            stack.push(id);
        }
    }

    /// Self time of every span: its duration minus its children's
    /// durations (negative when children overlap beyond their parent).
    pub fn self_times(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.spans.iter().map(|s| s.dur() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur() as i64;
            }
        }
        out
    }

    /// Per-layer self time (ns, negative self times clamped to 0) of the
    /// tree rooted at `root`, plus the root's wall time. Spans whose name
    /// maps to no layer inherit their parent's layer.
    pub fn layer_totals(&self, root: usize) -> (BTreeMap<&'static str, u64>, u64) {
        let selfs = self.self_times();
        let mut layer: Vec<Option<&'static str>> = vec![None; self.spans.len()];
        let mut in_tree = vec![false; self.spans.len()];
        let mut totals = BTreeMap::new();
        in_tree[root] = true;
        for i in root..self.spans.len() {
            let s = &self.spans[i];
            if i != root {
                match s.parent {
                    Some(p) if in_tree[p] => in_tree[i] = true,
                    _ => continue,
                }
            }
            layer[i] = layer_of(&s.name).or_else(|| s.parent.and_then(|p| layer[p]));
            let l = layer[i].unwrap_or(OTHER);
            *totals.entry(l).or_insert(0) += selfs[i].max(0) as u64;
        }
        (totals, self.spans[root].dur())
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `qid`), for the trace file written at the end of a run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"qid\":{}}}\n",
                gsj_obs::escape_json(&s.name),
                s.start_ns,
                s.end_ns,
                s.qid
            ));
        }
        out
    }
}

/// The layer of time no named layer claims (harness gaps, unknown
/// stages).
pub const OTHER: &str = "other";

/// Layers that take the self time of a whole call: what is left inside
/// it once every narrower span is subtracted. `gsql.exec_ms` is engine
/// time outside every operator (planning, flight-recorder bookkeeping);
/// `server.wire_us` is RTT minus server exec time. The layer-sum check
/// counts them as unattributed.
pub const CATCH_ALL: &[&str] = &[OTHER, "gsql.exec_ms", "server.wire_us"];

/// Map a span or operator name to the per-layer metric its self time is
/// booked to; `None` inherits the parent's layer.
pub fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "gsql.parse" => "gsql.parse_us",
        "gsql.exec" | "gsql.query" => "gsql.exec_ms",
        "her.match" | "her.block_index" => "her.match_ms",
        "rext.path_select" => "rext.path_select_ms",
        "rext.embed" => "rext.embed_ms",
        "rext.cluster" | "cluster.kmeans" => "cluster.kmeans_ms",
        "rext.discover" | "rext.rank" | "rext.refine" => "rext.discover_ms",
        "rext.extract" => "rext.extract_ms",
        "join.connectivity" => "join.connectivity_ms",
        "incext.apply" => "incext.apply_us",
        "incext.update"
        | "incext.update_graph"
        | "incext.zone"
        | "incext.her_redo"
        | "incext.re_extract"
        | "profile.set_extraction" => "incext.update_ms",
        "rtt" => "server.wire_us",
        "server.exec" => "server.exec_us",
        // Semantic-join wrappers inside an operator belong to it.
        "gsql.ejoin" | "gsql.ljoin" => return None,
        "query" | "update" => OTHER,
        op if op.starts_with("EJoin(") => {
            let planned = op.split(" [degraded").next().unwrap_or(op);
            if planned.ends_with(", online)") {
                "op.ejoin_online_ms"
            } else if planned.ends_with(", heuristic)") {
                "op.ejoin_heuristic_ms"
            } else {
                "op.ejoin_precomputed_ms"
            }
        }
        op if op.starts_with("LJoin(") => {
            if op.contains("g_L cache") {
                "op.ljoin_cached_ms"
            } else {
                "op.ljoin_online_ms"
            }
        }
        // Every other ExecContext operator is a relational kernel
        // (scans, hash/theta joins, filters, aggregates, sort, limit).
        op if op.contains('(') => "op.relational_ms",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&str, u64, u64, Option<usize>)]) -> Tracer {
        Tracer {
            spans: spans
                .iter()
                .map(|&(name, start_ns, end_ns, parent)| Span {
                    name: name.into(),
                    start_ns,
                    end_ns,
                    parent,
                    qid: 1,
                })
                .collect(),
            stack: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = tracer_with(&[
            ("query", 0, 100, None),
            ("gsql.parse", 0, 10, Some(0)),
            ("gsql.exec", 10, 95, Some(0)),
            ("EJoin(G<a> over r, online)", 20, 80, Some(2)),
            ("her.match", 30, 40, Some(3)),
        ]);
        assert_eq!(t.self_times(), vec![5, 10, 25, 50, 10]);
        let (totals, wall) = t.layer_totals(0);
        assert_eq!(wall, 100);
        assert_eq!(totals["op.ejoin_online_ms"], 50);
        assert_eq!(totals["her.match_ms"], 10);
        assert_eq!(totals.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_show_in_the_layer_sum() {
        // Two children that overlap each other and cover more than the
        // parent: the clamped self times no longer sum to the wall time.
        let t = tracer_with(&[
            ("query", 0, 100, None),
            ("gsql.exec", 0, 80, Some(0)),
            ("gsql.parse", 20, 100, Some(0)),
        ]);
        let (totals, wall) = t.layer_totals(0);
        assert!(totals.values().sum::<u64>() > wall);
    }

    #[test]
    fn graft_nests_by_containment() {
        let mut t = tracer_with(&[("gsql.exec", 0, 100, None)]);
        t.graft(
            0,
            vec![
                ("her.match".into(), 20, 30),
                ("EJoin(G<a> over r, online)".into(), 10, 90),
                ("Filter(x)".into(), 90, 99),
                ("late".into(), 95, 140),
            ],
        );
        let parent_of = |name: &str| {
            let s = t.spans.iter().find(|s| s.name == name).unwrap();
            t.spans[s.parent.unwrap()].name.clone()
        };
        assert_eq!(parent_of("EJoin(G<a> over r, online)"), "gsql.exec");
        assert_eq!(parent_of("her.match"), "EJoin(G<a> over r, online)");
        assert_eq!(parent_of("Filter(x)"), "gsql.exec");
        // Clamped to the root, so it cannot inflate the sum.
        assert_eq!(
            t.spans.iter().find(|s| s.name == "late").unwrap().end_ns,
            100
        );
    }

    #[test]
    fn operator_labels_map_to_layers() {
        assert_eq!(
            layer_of("EJoin(G<a, b> over movie, static)"),
            Some("op.ejoin_precomputed_ms")
        );
        assert_eq!(
            layer_of("EJoin(G<a> over movie, static) [degraded → heuristic]"),
            Some("op.ejoin_precomputed_ms")
        );
        assert_eq!(
            layer_of("EJoin(G<a> over movie, heuristic)"),
            Some("op.ejoin_heuristic_ms")
        );
        assert_eq!(
            layer_of("LJoin(<G> m × m, k=2, g_L cache)"),
            Some("op.ljoin_cached_ms")
        );
        assert_eq!(layer_of("HashJoin(a ⋈ b)"), Some("op.relational_ms"));
        assert_eq!(layer_of("gsql.ejoin"), None);
    }
}
