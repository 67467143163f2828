//! Shared machinery: offline preparation with per-layer timing, the
//! in-process query runner (untraced or traced), per-layer accumulation,
//! counters, and small helpers.

use crate::report::Report;
use crate::trace::{Tracer, CATCH_ALL, OTHER};
use gsj_common::Result;
use gsj_core::config::RExtConfig;
use gsj_core::gsql::exec::{GsqlEngine, Strategy};
use gsj_core::profile::GraphProfile;
use gsj_core::rext::Rext;
use gsj_core::typed::TypedConfig;
use gsj_datagen::{Collection, Scale};
use gsj_relational::Relation;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A process-global counter the program exports, read by name.
pub fn counter(name: &str) -> u64 {
    gsj_obs::Registry::global().counter(name, &[]).get()
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process right now (`/proc/self/task`).
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Available cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A deterministic shuffle (splitmix64-driven Fisher–Yates).
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// A relation's data rows as sorted CSV lines (order-insensitive
/// comparison; the header line is dropped).
pub fn sorted_rows(rel: &Relation) -> Vec<String> {
    csv_rows(&rel.to_csv())
}

/// The data lines of a CSV body, sorted.
pub fn csv_rows(csv: &str) -> Vec<String> {
    let mut rows: Vec<String> = csv.lines().skip(1).map(str::to_string).collect();
    rows.sort();
    rows
}

/// Milliseconds of a nanosecond count.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-layer values gathered by a traced run: per-call samples (reported
/// as their median) and single values (run totals, loop averages and
/// ratios, each with its provenance).
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Layers {
    /// Add one per-call sample, already in the metric's unit.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Add to a run total.
    pub fn total(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_insert((0.0, "run total")).0 += v;
    }

    /// Set a single value with its provenance.
    pub fn set(&mut self, name: &'static str, v: f64, note: &'static str) {
        self.values.insert(name, (v, note));
    }

    /// Book one call tree's per-layer self times (ns) as samples, each
    /// converted to the unit its metric name ends in.
    pub fn book(&mut self, totals: &BTreeMap<&'static str, u64>) {
        for (&layer, &ns) in totals {
            if layer != OTHER {
                self.sample(layer, ns_in_unit(layer, ns));
            }
        }
    }

    /// Write every layer into the report: medians of samples, totals
    /// as they are.
    pub fn finish(&self, rep: &mut Report) {
        for (name, s) in &self.samples {
            rep.set(name, crate::stats::median(s), s.len(), "median per call");
        }
        for (name, (v, note)) in &self.values {
            rep.set(name, *v, 1, *note);
        }
    }
}

/// Convert ns to the unit a metric name's suffix names.
fn ns_in_unit(name: &str, ns: u64) -> f64 {
    let ns = ns as f64;
    if name.ends_with("_ms") {
        ns / 1e6
    } else if name.ends_with("_us") {
        ns / 1e3
    } else if name.ends_with("_s") {
        ns / 1e9
    } else {
        ns
    }
}

/// Program counters read as per-operation averages over a traced loop:
/// `(metric, counters summed)`.
const PER_OP_COUNTERS: &[(&str, &[&str])] = &[
    (
        "her.candidates_scored",
        &["gsj_her_candidates_scored_total"],
    ),
    ("her.matched", &["gsj_her_matched_total"]),
    ("rext.paths_selected", &["gsj_core_paths_selected_total"]),
    ("rext.extracted_rows", &["gsj_core_extracted_rows_total"]),
    ("gsql.fallbacks", &["gsj_core_gsql_fallback_total"]),
    (
        "graph.khop_visited",
        &[
            "gsj_graph_khop_visited_total",
            "gsj_graph_bfs_visited_total",
        ],
    ),
    ("gl_cache.hits", &["gsj_core_gl_cache_hits_total"]),
    ("gl_cache.misses", &["gsj_core_gl_cache_misses_total"]),
    (
        "relational.morsels",
        &["gsj_relational_parallel_morsels_total"],
    ),
];

/// Run totals read from program counters.
const TOTAL_COUNTERS: &[(&str, &str)] = &[("incext.retries", "gsj_core_incext_retry_total")];

/// A snapshot of the program counters a traced loop reports.
pub struct CounterWatch(BTreeMap<&'static str, u64>);

impl CounterWatch {
    /// Snapshot now.
    pub fn start() -> Self {
        let mut m = BTreeMap::new();
        for (metric, names) in PER_OP_COUNTERS {
            m.insert(*metric, names.iter().map(|n| counter(n)).sum());
        }
        for (metric, name) in TOTAL_COUNTERS {
            m.insert(*metric, counter(name));
        }
        CounterWatch(m)
    }

    /// Book the deltas since the snapshot: per-op averages over `ops`
    /// operations, run totals, and the derived yield / hit ratios.
    pub fn finish(&self, ops: u64, layers: &mut Layers) {
        let now = CounterWatch::start();
        let delta = |m: &str| now.0[m].saturating_sub(self.0[m]) as f64;
        for (metric, _) in PER_OP_COUNTERS {
            layers.set(
                metric,
                delta(metric) / ops.max(1) as f64,
                "per operation of the loop",
            );
        }
        for (metric, _) in TOTAL_COUNTERS {
            layers.total(metric, delta(metric));
        }
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let yield_ = ratio(delta("her.matched"), delta("her.candidates_scored"));
        layers.set("her.match_yield", yield_, "matched / scored over the loop");
        let (hits, misses) = (delta("gl_cache.hits"), delta("gl_cache.misses"));
        layers.set(
            "gl_cache.hit_ratio",
            ratio(hits, hits + misses),
            "hits / lookups over the loop",
        );
    }
}

/// A collection with its provisioned engine.
pub struct Prepared {
    /// The generated collection.
    pub col: Collection,
    /// Engine with graph `G`, trained RExt, and profile registered.
    pub engine: GsqlEngine,
    /// The trained scheme (IncExt reuses it).
    pub rext: Arc<Rext>,
}

/// Offline preparation of one collection — `collections::build`,
/// `Rext::train`, `GraphProfile::build` — as in the serving fixture,
/// but with the RExt configuration as a parameter. With `layers`, the
/// set-up layers are booked ([`SetupTrace`]).
pub fn prepare(
    name: &str,
    scale: Scale,
    seed: u64,
    cfg: RExtConfig,
    layers: Option<&mut Layers>,
) -> Result<Prepared> {
    let trace = layers.is_some().then(SetupTrace::start);
    let t0 = Instant::now();
    let col = gsj_datagen::collections::build(name, scale, seed)
        .ok_or_else(|| gsj_common::GsjError::Config(format!("unknown collection {name}")))?;
    let build_s = t0.elapsed().as_secs_f64();
    let rext = Arc::new(Rext::train(&col.graph, cfg)?);
    let mut engine = GsqlEngine::new(col.db.clone());
    engine.set_id_attr(&col.spec.rel_name, &col.spec.id_attr);
    engine.set_her_config(col.her_config());
    let typed_cfg = TypedConfig {
        default_keywords: col.spec.reference_keywords(),
        ..TypedConfig::default()
    };
    let profile = GraphProfile::build(
        &col.graph,
        &engine.db,
        vec![col.relation_spec()],
        &rext,
        &col.her_config(),
        Some(&typed_cfg),
    )?;
    let bytes = profile.materialized_bytes();
    engine.add_graph("G", col.graph.clone());
    engine.set_rext("G", Arc::clone(&rext));
    engine.set_profile("G", profile);
    engine.set_k(2);
    if let (Some(trace), Some(layers)) = (trace, layers) {
        trace.finish(layers, build_s, bytes);
    }
    Ok(Prepared { col, engine, rext })
}

/// Set-up layer bookkeeping: the program's spans are on from
/// [`SetupTrace::start`] to [`SetupTrace::finish`], which books the
/// `nn.lm_train`, `graph.random_walk`, `profile.build` and
/// `profile.typed` spans recorded on this thread, plus the datagen time
/// and profile size the caller measured.
pub struct SetupTrace {
    tokens_before: u64,
}

impl SetupTrace {
    /// Switch the program's spans on.
    pub fn start() -> Self {
        let _ = gsj_obs::take_spans();
        gsj_obs::set_tracing(true);
        SetupTrace {
            tokens_before: counter("gsj_graph_walk_tokens_total"),
        }
    }

    /// Switch them off and book the set-up layers.
    pub fn finish(self, layers: &mut Layers, build_s: f64, materialized_bytes: usize) {
        gsj_obs::set_tracing(false);
        let me = gsj_obs::current_thread_ordinal();
        let spans: Vec<_> = gsj_obs::take_spans()
            .into_iter()
            .filter(|s| s.thread == me)
            .collect();
        let secs = |label: &str| {
            spans
                .iter()
                .filter(|s| s.label == label)
                .map(|s| s.dur_ns)
                .sum::<u64>() as f64
                / 1e9
        };
        let tokens = counter("gsj_graph_walk_tokens_total").saturating_sub(self.tokens_before);
        layers.total("datagen.build_s", build_s);
        layers.total("nn.lm_train_s", secs("nn.lm_train"));
        layers.total("graph.walk_corpus_s", secs("graph.random_walk"));
        layers.total("graph.walk_tokens", tokens as f64);
        layers.total("profile.build_s", secs("profile.build"));
        layers.total("profile.typed_s", secs("profile.typed"));
        layers.total("profile.materialized_bytes", materialized_bytes as f64);
    }
}

/// After every setup is booked: LM cost per corpus token.
pub fn book_lm_per_token(layers: &mut Layers) {
    let get = |name| layers.values.get(name).map_or(0.0, |(v, _)| *v);
    let (train, tokens) = (get("nn.lm_train_s"), get("graph.walk_tokens"));
    if tokens > 0.0 {
        layers.set(
            "nn.lm_us_per_token",
            train * 1e6 / tokens,
            "LM training per corpus token",
        );
    }
}

/// Runs in-process queries, timing each one; traced queries also record
/// a span tree and book its per-layer self times.
#[derive(Default)]
pub struct Runner {
    /// Every traced span of the run.
    pub tracer: Tracer,
    /// Per-layer values.
    pub layers: Layers,
    /// Queries handed to the engine (each leaves one recorder record).
    pub engine_queries: u64,
    /// The first few call trees whose spans overlap by more than a
    /// tenth of their wall time.
    pub sum_misses: Vec<String>,
    /// How many overlap.
    pub sum_overlapping: u64,
    /// Call trees whose named layers explain less than 90 % of them.
    pub sum_short: u64,
    /// Traced call trees checked.
    pub sum_checked: u64,
    /// Their wall time, ns.
    pub sum_wall_ns: u64,
    /// Their catch-all self time, ns.
    pub sum_unattributed_ns: u64,
    next_qid: u64,
}

impl Runner {
    /// Mint a query / operation id.
    pub fn qid(&mut self) -> u64 {
        self.next_qid += 1;
        self.next_qid
    }

    /// Parse and execute `text` under `strategy`; returns the wall time
    /// in ns and the result. With `traced`, records the call tree.
    pub fn query(
        &mut self,
        engine: &GsqlEngine,
        text: &str,
        strategy: Strategy,
        traced: bool,
    ) -> (u64, Result<Relation>) {
        if !traced {
            let t0 = Instant::now();
            let out = engine.parse(text).and_then(|q| {
                self.engine_queries += 1;
                engine.run_query_stats(&q, strategy).map(|(r, _)| r)
            });
            return (t0.elapsed().as_nanos() as u64, out);
        }
        let qid = self.qid();
        let me = gsj_obs::current_thread_ordinal();
        let _ = gsj_obs::take_spans(); // stale spans, outside the timed tree
                                       // Consecutive steps share their boundary instants, so the tree
                                       // has no untimed gaps.
        let root = self.tracer.open("query", qid);
        let p = self.tracer.open("gsql.parse", qid);
        self.tracer.spans[p].start_ns = self.tracer.spans[root].start_ns;
        let parsed = engine.parse(text);
        let exec = self.tracer.switch(p, "gsql.exec", qid);
        self.engine_queries += u64::from(parsed.is_ok());
        gsj_obs::set_tracing(true);
        let run = parsed.and_then(|q| engine.run_query_stats(&q, strategy));
        gsj_obs::set_tracing(false);
        self.tracer.close(root); // closes `exec` at the same instant
        let mut items = program_spans(me);
        let out = match run {
            Ok((rel, ctx)) => {
                for op in ctx.ops() {
                    let end = op.start_ns + op.nanos.min(u64::MAX as u128) as u64;
                    items.push((op.label.clone(), op.start_ns, end));
                    if op.label.starts_with("LJoin(") {
                        // Link joins here are self-joins of one base
                        // relation: both sides hold rows_in / 2 tuples,
                        // and every pair is checked against g_L.
                        let side = (op.rows_in / 2) as f64;
                        self.layers.sample("ljoin.pairs_checked", side * side);
                        if side > 0.0 {
                            self.layers
                                .sample("ljoin.pair_yield", op.rows_out as f64 / (side * side));
                        }
                    }
                }
                Ok(rel)
            }
            Err(err) => Err(err),
        };
        // Operators and the program's spans nest among each other, so
        // they are grafted in one pass.
        self.tracer.graft(exec, items);
        self.check_tree(root, text);
        (self.tracer.spans[root].dur(), out)
    }

    /// Run `f` as one step of a call tree: plain when `traced` is false,
    /// otherwise inside a span `name`, with the program's own `gsj-obs`
    /// spans switched on for the call and grafted under it.
    pub fn step<T>(&mut self, traced: bool, name: &str, qid: u64, f: impl FnOnce() -> T) -> T {
        if !traced {
            return f();
        }
        let me = gsj_obs::current_thread_ordinal();
        let _ = gsj_obs::take_spans();
        let id = self.tracer.open(name, qid);
        gsj_obs::set_tracing(true);
        let out = f();
        gsj_obs::set_tracing(false);
        self.tracer.close(id);
        self.tracer.graft(id, program_spans(me));
        out
    }

    /// Book a finished call tree's per-layer self times; returns them
    /// with the tree's wall time.
    pub fn book_tree(&mut self, root: usize) -> (BTreeMap<&'static str, u64>, u64) {
        let (totals, wall) = self.tracer.layer_totals(root);
        self.layers.book(&totals);
        (totals, wall)
    }

    /// Book a finished call tree and weigh how far its named layers
    /// explain its wall time. The catch-all layers ([`CATCH_ALL`]) hold
    /// the time inside the call that no narrower span accounts for;
    /// `op.layer_sum_ratio` is the rest, as a share of the wall time.
    /// Spans that overlap by more than a tenth of the wall time fail the
    /// tree; the unattributed share is checked over all trees by
    /// [`Runner::report_sum_check`].
    pub fn check_tree(&mut self, root: usize, what: &str) {
        let (totals, wall) = self.book_tree(root);
        let sum: u64 = totals.values().sum();
        let unattributed: u64 = totals
            .iter()
            .filter(|(l, _)| CATCH_ALL.contains(l))
            .map(|(_, v)| v)
            .sum();
        let wall_f = wall.max(1) as f64;
        let attributed = (sum - unattributed) as f64 / wall_f;
        self.layers.sample("op.layer_sum_ratio", attributed);
        self.sum_checked += 1;
        self.sum_wall_ns += wall;
        self.sum_unattributed_ns += unattributed;
        self.sum_short += u64::from(attributed < 0.9);
        let overlaps = sum as f64 > 1.1 * wall_f;
        self.sum_overlapping += u64::from(overlaps);
        if overlaps && self.sum_misses.len() < 5 {
            self.sum_misses.push(format!(
                "layers overlap: self times sum to {:.3} of wall {:.3} ms for {}",
                sum as f64 / wall_f,
                ms(wall),
                &what[..what.len().min(60)]
            ));
        }
    }

    /// Fold the layer-sum check into the report (traced runs only): the
    /// named layers must explain at least 90 % of the traced wall time,
    /// summed over every checked call tree, and no tree may overlap.
    pub fn report_sum_check(&self, rep: &mut Report) {
        let unattributed = self.sum_unattributed_ns as f64 / self.sum_wall_ns.max(1) as f64;
        rep.head(
            "layer_sum_check",
            format!(
                "{} call trees over {:.1} ms: {:.2} % of it unattributed; \
                 {} trees with over a tenth unattributed; {} overlapping",
                self.sum_checked,
                ms(self.sum_wall_ns),
                100.0 * unattributed,
                self.sum_short,
                self.sum_overlapping,
            ),
        );
        if unattributed > 0.1 {
            rep.check_failed(format!(
                "named layers explain only {:.3} of the traced wall time",
                1.0 - unattributed
            ));
        }
        for m in &self.sum_misses {
            rep.check_failed(m.clone());
        }
    }
}

/// Drain the `gsj-obs` spans the program recorded on thread `me`, as
/// `(label, start, end)` intervals.
fn program_spans(me: u64) -> Vec<(String, u64, u64)> {
    gsj_obs::take_spans()
        .into_iter()
        .filter(|s| s.thread == me)
        .map(|s| (s.label, s.start_ns, s.start_ns + s.dur_ns))
        .collect()
}

/// The time of one call to the profile's precomputed enrichment join
/// (`S ⋈ f(D,G) ⋈ h(D,G)`) over a collection's reference keywords,
/// repeated: samples in ms.
pub fn time_precomputed_join(engine: &GsqlEngine, col: &Collection, reps: usize) -> Vec<f64> {
    let Some(ex) = engine
        .profile("G")
        .and_then(|p| p.extraction(&col.spec.rel_name).ok())
    else {
        return Vec::new();
    };
    let kws = col.spec.reference_keywords();
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let r = gsj_core::join::enrichment_join_precomputed(
                col.entity_relation(),
                &col.spec.id_attr,
                &ex.matches,
                &ex.dg,
                Some(&kws),
            );
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(r.map(|r| r.len()).unwrap_or(0));
            dt
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    /// A `query` call tree of 100 ns: parse 0–5, exec 5–100, and one
    /// operator inside exec over `op`.
    fn runner_with_query(op: (u64, u64)) -> Runner {
        let mut r = Runner::default();
        for (name, start_ns, end_ns, parent) in [
            ("query", 0, 100, None),
            ("gsql.parse", 0, 5, Some(0)),
            ("gsql.exec", 5, 100, Some(0)),
            ("HashJoin(a ⋈ b)", op.0, op.1, Some(2)),
        ] {
            r.tracer.spans.push(Span {
                name: name.into(),
                start_ns,
                end_ns,
                parent,
                qid: 1,
            });
        }
        r.check_tree(0, "q");
        r
    }

    #[test]
    fn catch_all_time_is_unattributed() {
        // The operator covers 90 of exec's 95 ns: 95 % explained.
        let mut rep = Report::default();
        let r = runner_with_query((7, 97));
        r.report_sum_check(&mut rep);
        assert!(rep.correct());
        assert_eq!(r.layers.samples["op.layer_sum_ratio"], vec![0.95]);

        // Exec's own time (65 ns) is no named layer: the run fails.
        let mut rep = Report::default();
        let r = runner_with_query((10, 40));
        r.report_sum_check(&mut rep);
        assert!(!rep.correct());
        assert_eq!(r.sum_short, 1);
        assert_eq!(r.layers.samples["op.layer_sum_ratio"], vec![0.35]);
    }
}
