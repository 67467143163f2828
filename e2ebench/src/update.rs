//! `update-mix`: Movie at scale 40 with the serving RExt configuration,
//! in-process, one caller, repeating a cycle: apply a 1 %-of-|G|
//! balanced ΔG batch; maintain the extraction with IncExt
//! (`inc_update_graph`) and commit it (`set_extraction`, which clears
//! `g_L`); then run the 6 queries under Optimized and Heuristic twice —
//! cold (right after the invalidation) and warm. Cycles run in episodes
//! of [`EPISODE`]: at the end of each, off the clock, the maintained
//! state is compared with a scratch re-extraction, and the graph and
//! its extraction are put back to their state before the first batch.

use crate::known::Defect;
use crate::prep::{self, ms, Runner};
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::Args;
use gsj_common::Result;
use gsj_core::gsql::exec::Strategy;
use gsj_core::incext::{inc_update_graph, Extraction};
use gsj_core::rext::Rext;
use gsj_datagen::queries::workload;
use gsj_datagen::updates::balanced_updates;
use gsj_datagen::{Collection, Scale};
use gsj_graph::update::apply_updates;
use gsj_graph::LabeledGraph;
use gsj_her::her_match;
use std::time::Instant;

const COLLECTION: &str = "Movie";
const SCALE: usize = 40;
/// ΔG batch size as a fraction of |G|'s edges.
const FRACTION: f64 = 0.01;
/// Minimum measured cycles: 200 updates give a p95 with 10 beyond it.
const MIN_CYCLES: usize = 200;
/// Measured cycles per second of `--seconds`. The cycle count follows
/// the run length, not the host's speed, so every run of a seed applies
/// the same ΔG batches. Bounded by time instead, a run's cycle count
/// followed the host's speed (100–140 cycles), and its ΔG p90 fell as
/// the count rose: 64 ms at 140 cycles against 89–93 ms at 101–103.
/// At 100 cycles per run the ΔG p90 still spread 0.22 over 10 seeds,
/// from the batches alone. With episodes, the spread over 6 runs of the
/// Optimized geometric mean and of the ΔG p90 was 0.12 and 0.16 at 200
/// cycles, 0.06 and 0.08 at 400: the host's speed wanders over seconds,
/// and only a longer window averages it out. 300 is what the time
/// limit on all runs of the benchmark leaves room for.
const CYCLES_PER_SECOND: usize = 30;
/// Datagen seed. One fixed graph, so run-to-run spread is the system's
/// and not the data's: over 10 seeds, update throughput moved 178–412
/// ops/s with the graph alone. The known defects of this graph are
/// pinned in `known.rs`: Heuristic link joins fail, and IncExt diverges
/// from scratch re-extraction from the first batch on.
const DATAGEN_SEED: u64 = 1;
/// Cycles per episode. Without the reset every run measured a different
/// graph: `balanced_updates` swaps structured edges for random ones, so
/// 200 batches in a row rewire 87 % of |E|, and the cold link join fell
/// from 24–34 ms to 9–10 ms and the ΔG p90 from 70–100 ms to 38–40 ms
/// along the run, on a path of the seed's own.
const EPISODE: usize = 10;

pub fn run(args: &Args, rep: &mut Report) -> Result<()> {
    rep.head("collection", format!("{COLLECTION} @ scale {SCALE}"));
    rep.head(
        "rext",
        "serving config (random paths, k=3, h=12, m=4, 1 thread)",
    );
    rep.head(
        "delta",
        format!("balanced_updates, {FRACTION} of |E| per batch"),
    );
    rep.head("caller", "in-process, closed loop, 1 thread");
    let traced = args.trace;
    let mut runner = Runner::default();

    let datagen = args.seeds.datagen_or(DATAGEN_SEED, rep);
    let t_setup = Instant::now();
    let mut p = prep::prepare(
        COLLECTION,
        Scale(SCALE),
        datagen,
        gsj_server::fixture::serving_rext_config(),
        traced.then_some(&mut runner.layers),
    )?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    prep::book_lm_per_token(&mut runner.layers);
    let rel_name = p.col.spec.rel_name.clone();
    let mut queries = workload(&p.col);

    // Warm-up: one pass of every query under both strategies.
    for q in &queries {
        for s in [Strategy::Optimized, Strategy::Heuristic] {
            let _ = runner.query(&p.engine, &q.text, s, false);
        }
    }

    // The state every episode starts from.
    let g0 = p.engine.graph("G").expect("graph G").clone();
    let ex0 = p
        .engine
        .profile("G")
        .expect("profile")
        .extraction(&rel_name)?
        .clone();

    let watch = prep::CounterWatch::start();
    let t_measure = Instant::now();
    let (mut opt, mut heur, mut upd) = (Vec::new(), Vec::new(), Vec::new());
    let (mut link_cold, mut link_warm) = (Vec::new(), Vec::new());
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut checks, mut check_s) = (0usize, 0.0f64);
    let mut diverged: Vec<String> = Vec::new();
    let cycles = (args.seconds as usize * CYCLES_PER_SECOND).max(MIN_CYCLES);
    let mut cycle = 0usize;
    while cycle < cycles {
        let trace_cycle = traced && cycle % 2 == 1;
        // A fresh query order every cycle: which query runs first after
        // the invalidation decides what the cold pass pays for.
        prep::shuffle(&mut queries, args.seeds.order.wrapping_add(cycle as u64));
        let graph = p.engine.graph("G").expect("graph G");
        let ups = balanced_updates(graph, FRACTION, args.seeds.delta.wrapping_add(cycle as u64));

        // Maintenance: apply ΔG, IncExt, commit.
        rep.attempted += 1;
        let qid = runner.qid();
        let root = trace_cycle.then(|| runner.tracer.open("update", qid));
        let t0 = Instant::now();
        let graph = p.engine.graph_mut("G").expect("graph G");
        let report = runner.step(trace_cycle, "incext.apply", qid, || {
            apply_updates(graph, &ups)
        });
        let next = runner.step(trace_cycle, "incext.update", qid, || {
            let prev = p
                .engine
                .profile("G")
                .expect("profile")
                .extraction(&rel_name)?;
            inc_update_graph(
                &p.rext,
                p.engine.graph("G").expect("graph G"),
                p.col.entity_relation(),
                &p.col.her_config(),
                prev,
                &report,
            )
        });
        match next {
            Ok(next) => {
                let profile = p.engine.profile_mut("G").expect("profile");
                runner.step(trace_cycle, "profile.set_extraction", qid, || {
                    profile.set_extraction(&rel_name, next)
                });
                upd.push(ms(t0.elapsed().as_nanos() as u64));
            }
            Err(e) => rep.check_failed(format!("IncExt cycle {cycle}: {e}")),
        }
        if let Some(r) = root {
            runner.tracer.close(r);
            runner.check_tree(r, "ΔG maintenance");
        }

        // Queries: cold (g_L just cleared), then warm.
        for warm in [false, true] {
            for q in &queries {
                for s in [Strategy::Optimized, Strategy::Heuristic] {
                    rep.attempted += 1;
                    let (ns, r) = runner.query(&p.engine, &q.text, s, trace_cycle);
                    match r {
                        Ok(_) => {
                            let v = ms(ns);
                            if s == Strategy::Optimized {
                                opt.push(v);
                                if q.link {
                                    if warm { &mut link_warm } else { &mut link_cold }.push(v);
                                }
                                if traced {
                                    if trace_cycle {
                                        &mut traced_ms
                                    } else {
                                        &mut untraced_ms
                                    }
                                    .push(v);
                                }
                            } else {
                                heur.push(v);
                            }
                        }
                        Err(e) => crate::query_error(rep, &q.name, s, &e),
                    }
                }
            }
        }
        cycle += 1;

        if cycle.is_multiple_of(EPISODE) {
            let t = Instant::now();
            checks += 1;
            let g = p.engine.graph("G").expect("graph G");
            let ex = p
                .engine
                .profile("G")
                .expect("profile")
                .extraction(&rel_name)?;
            let (pairs, rows) = scratch_diff(&p.rext, g, &p.col, ex)?;
            rep.attempted += 1;
            if pairs + rows > 0 {
                // IncExt keeps values (and matches) that a scratch
                // re-extraction no longer finds.
                let d =
                    format!("cycle {cycle}: {pairs} match pairs, {rows} D_G rows on one side only");
                let size = pairs + rows;
                rep.defect(
                    Defect::IncExtDiverges { size },
                    format!("{size} items"),
                    d.clone(),
                );
                diverged.push(d);
            }
            runner
                .layers
                .sample("incext.diverged_rows", (pairs + rows) as f64);
            p.engine.add_graph("G", g0.clone());
            p.engine
                .profile_mut("G")
                .expect("profile")
                .set_extraction(&rel_name, ex0.clone());
            check_s += t.elapsed().as_secs_f64();
        }
    }
    let secs = t_measure.elapsed().as_secs_f64() - check_s;
    watch.finish(rep.attempted, &mut runner.layers);

    let o = Summary::of(&opt).expect("≥ 2400 Optimized samples");
    let u = Summary::of(&upd).expect("≥ 200 updates");
    rep.set("setup_s", setup_s, 1, "build + train + profile");
    rep.set(
        "ops_per_s",
        (opt.len() + heur.len() + upd.len()) as f64 / secs,
        opt.len() + heur.len() + upd.len(),
        "queries + ΔG batches per second",
    );
    rep.set(
        "gmean_ms",
        o.gmean,
        o.n,
        "Optimized geometric mean (cold + warm)",
    );
    rep.set("p90_ms", o.p90, o.n, "Optimized p90 (cold + warm)");
    rep.set(
        "alt_gmean_ms",
        u.gmean,
        u.n,
        "ΔG maintenance geometric mean",
    );
    rep.set("alt_p95_ms", u.p95, u.n, "ΔG maintenance p95");
    rep.head(
        "cycles",
        format!(
            "{cycle} in episodes of {EPISODE} from the initial graph \
             ({checks} scratch checks + resets, {check_s:.2} s off the clock)"
        ),
    );
    rep.derived.push(format!(
        "IncExt vs scratch re-extraction: {}/{checks} checks diverged (known defect){}",
        diverged.len(),
        diverged
            .last()
            .map_or(String::new(), |d| format!("; last: {d}"))
    ));
    rep.derived.push(format!(
        "optimized_p50_ms = {:.4}, optimized_{}_ms = {:.4} (n={})",
        o.p50,
        o.tail_label(),
        o.tail,
        o.n
    ));
    match Summary::of(&heur) {
        Some(h) => rep.derived.push(format!(
            "heuristic_p50_ms = {:.4}, heuristic_{}_ms = {:.4} (n={}; link joins fail: known defect)",
            h.p50, h.tail_label(), h.tail, h.n
        )),
        None => rep.derived.push(format!("heuristic: {} samples", heur.len())),
    }
    rep.derived.push(format!(
        "update_p50_ms = {:.3}, update_{}_ms = {:.3} (n={})",
        u.p50,
        u.tail_label(),
        u.tail,
        u.n
    ));
    rep.derived.push(format!(
        "link join cold {:.3} ms vs warm {:.3} ms from medians (n={} / {}): {:.1}×",
        stats::median(&link_cold),
        stats::median(&link_warm),
        link_cold.len(),
        link_warm.len(),
        stats::median(&link_cold) / stats::median(&link_warm).max(1e-9)
    ));

    if traced {
        for v in prep::time_precomputed_join(&p.engine, &p.col, 20) {
            runner.layers.sample("join.precomputed_ms", v);
        }
        crate::overhead(&mut runner.layers, &traced_ms, &untraced_ms);
        runner.report_sum_check(rep);
    }
    crate::finish(rep, runner);
    Ok(())
}

/// Compare the maintained extraction with a scratch re-extraction on the
/// current graph (same discovery, fresh HER and path selection, as the
/// IncExt integration tests do): the number of match pairs and of `D_G`
/// rows found on one side only (0 and 0 when they agree).
fn scratch_diff(
    rext: &Rext,
    g: &LabeledGraph,
    col: &Collection,
    ex: &Extraction,
) -> Result<(usize, usize)> {
    let matches = her_match(g, col.entity_relation(), &col.her_config())?;
    let mut disc = ex.discovery.clone();
    disc.paths.clear();
    let dg = rext.extract(g, &matches, &disc)?;
    let pairs = |m: &gsj_her::MatchRelation| -> Vec<String> {
        let mut v: Vec<String> = m
            .pairs()
            .iter()
            .map(|(t, v)| format!("{t}->{}", v.0))
            .collect();
        v.sort();
        v
    };
    Ok((
        one_sided(&pairs(&ex.matches), &pairs(&matches)),
        one_sided(&prep::sorted_rows(&ex.dg), &prep::sorted_rows(&dg)),
    ))
}

/// Size of the multiset symmetric difference of two sorted lists.
fn one_sided(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
            std::cmp::Ordering::Less => (i, n) = (i + 1, n + 1),
            std::cmp::Ordering::Greater => (j, n) = (j + 1, n + 1),
        }
    }
    n + (a.len() - i) + (b.len() - j)
}

#[cfg(test)]
mod tests {
    #[test]
    fn one_sided_counts_the_symmetric_difference() {
        let v = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            super::one_sided(&v(&["a", "b", "c"]), &v(&["a", "b", "c"])),
            0
        );
        assert_eq!(super::one_sided(&v(&["a", "b", "b"]), &v(&["b", "c"])), 3);
        assert_eq!(super::one_sided(&v(&[]), &v(&["x"])), 1);
    }
}
