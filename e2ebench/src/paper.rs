//! `paper-baseline`: the paper's 36-query workload (6 collections × 6
//! queries) at scale 10 with standard (LSTM-guided) RExt, run in-process
//! by one caller under the conceptual baseline, after a warm-up pass.
//! Each query also runs under Optimized (checked row-for-row against
//! Baseline) and Heuristic (Table III relative accuracy).

use crate::known::Defect;
use crate::prep::{self, ms, Prepared, Runner};
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::Args;
use gsj_core::config::RExtConfig;
use gsj_core::gsql::exec::Strategy;
use gsj_datagen::queries::{workload, WorkloadQuery};
use gsj_datagen::{collections, Scale};
use std::time::Instant;

/// Collection scale (`GSJ_SCALE`) of this workload.
const SCALE: usize = 10;
/// Minimum measured Baseline passes: 3 × 36 = 108 samples, enough for
/// a p90.
const MIN_PASSES: usize = 3;
/// Datagen seed. The collections are one fixed dataset, as in the
/// paper's experiments, so run-to-run spread is the system's and not
/// the data's: over 5 seeds the Baseline median moved 56–90 ms with the
/// data alone. The known defects of this dataset are pinned, query by
/// query, in `known.rs`; with another `--datagen-seed` any defect fails
/// the run.
const DATAGEN_SEED: u64 = 32;
/// Link-join (q6) repetitions per collection after each Baseline pass,
/// under Baseline and Optimized cold and warm: at least 3 passes × 6
/// collections × 6 = 108 samples each, enough for a p90. They are
/// printed, not gated: over 10 identical runs the Baseline link join's
/// geometric mean spread 0.22–0.24, every collection moving together.
const LINK_PER_PASS: usize = 6;

pub fn run(args: &Args, rep: &mut Report) -> gsj_common::Result<()> {
    rep.head("scale", SCALE);
    rep.head("rext", "standard (LSTM-guided paths)");
    rep.head("caller", "in-process, closed loop, 1 thread");
    let traced = args.trace;
    let mut runner = Runner::default();

    let datagen = args.seeds.datagen_or(DATAGEN_SEED, rep);
    let t_setup = Instant::now();
    let mut cols: Vec<Prepared> = Vec::new();
    for name in collections::ALL {
        cols.push(prep::prepare(
            name,
            Scale(SCALE),
            datagen,
            RExtConfig::standard(),
            traced.then_some(&mut runner.layers),
        )?);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    prep::book_lm_per_token(&mut runner.layers);

    // The workload in a seed-shuffled order: (collection index, query).
    let mut queries: Vec<(usize, WorkloadQuery)> = cols
        .iter()
        .enumerate()
        .flat_map(|(i, p)| workload(&p.col).into_iter().map(move |q| (i, q)))
        .collect();
    prep::shuffle(&mut queries, args.seeds.order);
    rep.head(
        "queries",
        format!("{} ({} collections × 6)", queries.len(), cols.len()),
    );

    // Warm-up pass under Baseline; its results are the reference rows.
    let mut reference: Vec<Option<gsj_relational::Relation>> = Vec::new();
    for (ci, q) in &queries {
        let (_, r) = runner.query(&cols[*ci].engine, &q.text, Strategy::Baseline, false);
        match r {
            Ok(rel) => reference.push(Some(rel)),
            Err(e) => {
                rep.check_failed(format!("{} Baseline failed in warm-up: {e}", q.name));
                reference.push(None);
            }
        }
    }

    // Optimized ≡ Baseline, row for row; Heuristic relative accuracy.
    let mut rel_acc = Vec::new();
    let mut wb = 0usize;
    for ((ci, q), want) in queries.iter().zip(&reference) {
        let engine = &cols[*ci].engine;
        // The paper claims Optimized ≡ Baseline on well-behaved queries
        // only; elsewhere Optimized answers with heuristic joins.
        let well_behaved = engine
            .parse(&q.text)
            .is_ok_and(|p| engine.is_well_behaved(&p));
        wb += usize::from(well_behaved);
        rep.attempted += 2;
        match runner.query(engine, &q.text, Strategy::Optimized, false).1 {
            Ok(rel) => {
                if well_behaved
                    && want
                        .as_ref()
                        .is_some_and(|w| prep::sorted_rows(w) != prep::sorted_rows(&rel))
                {
                    let what = format!(
                        "{}: {} Optimized rows vs {} Baseline",
                        q.name,
                        rel.len(),
                        want.as_ref().map_or(0, |w| w.len())
                    );
                    let d = Defect::OptimizedDiffers { query: &q.name };
                    rep.defect(d, q.name.clone(), what);
                }
            }
            Err(e) => rep.check_failed(format!("{} Optimized failed: {e}", q.name)),
        }
        let acc = match runner.query(engine, &q.text, Strategy::Heuristic, false).1 {
            Ok(rel) => want
                .as_ref()
                .map_or(0.0, |exact| gsj_bench::result_f1(&rel, exact)),
            Err(e) => {
                crate::query_error(rep, &q.name, Strategy::Heuristic, &e);
                0.0
            }
        };
        rel_acc.push(acc);
    }
    let rel_acc_mean = rel_acc.iter().sum::<f64>() / rel_acc.len().max(1) as f64;
    rep.head("well_behaved", format!("{wb}/{} queries", queries.len()));

    let watch = prep::CounterWatch::start();
    // Measured passes. Each Baseline query is followed by one Optimized
    // pass over the whole workload, so both strategies are timed over
    // the same window: an Optimized query takes ~0.1 ms, and timed in
    // one burst its run median moved by ±20 % between identical runs.
    // After each Baseline pass, every collection's link join runs
    // LINK_PER_PASS times under Baseline (online HER + bidirectional
    // BFS) and under Optimized cold (g_L just invalidated) and warm. A
    // traced run traces every other Baseline pass and every other
    // Optimized pass; the untraced ones in between give the tracing
    // overhead.
    let link_queries: Vec<Option<WorkloadQuery>> = cols
        .iter()
        .map(|p| workload(&p.col).into_iter().find(|q| q.link))
        .collect();
    // (collection, ms)
    let mut base: Vec<(usize, f64)> = Vec::new();
    let mut opt: Vec<(usize, f64)> = Vec::new();
    let mut opt_passes = 0usize;
    // Per collection: Baseline, cold and warm link-join samples.
    let mut links: Vec<[Vec<f64>; 3]> = vec![Default::default(); cols.len()];
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut pass = 0;
    let t_measure = Instant::now();
    let budget = args.seconds as f64;
    while pass < MIN_PASSES || t_measure.elapsed().as_secs_f64() < budget {
        let trace_pass = traced && pass % 2 == 1;
        for (ci, q) in &queries {
            rep.attempted += 1;
            let (ns, r) = runner.query(&cols[*ci].engine, &q.text, Strategy::Baseline, trace_pass);
            match r {
                Ok(_) => {
                    base.push((*ci, ms(ns)));
                    if traced {
                        if trace_pass {
                            &mut traced_ms
                        } else {
                            &mut untraced_ms
                        }
                        .push(ms(ns));
                    }
                }
                Err(e) => crate::query_error(rep, &q.name, Strategy::Baseline, &e),
            }
            let trace_opt = traced && opt_passes % 2 == 1;
            for (cj, q) in &queries {
                rep.attempted += 1;
                let (ns, r) =
                    runner.query(&cols[*cj].engine, &q.text, Strategy::Optimized, trace_opt);
                match r {
                    Ok(_) => opt.push((*cj, ms(ns))),
                    Err(e) => crate::query_error(rep, &q.name, Strategy::Optimized, &e),
                }
            }
            opt_passes += 1;
        }
        for ((p, q), samples) in cols.iter_mut().zip(&link_queries).zip(&mut links) {
            let Some(q) = q else { continue };
            for _ in 0..LINK_PER_PASS {
                link_round(rep, &mut runner, p, q, samples);
            }
        }
        pass += 1;
    }

    watch.finish(rep.attempted, &mut runner.layers);

    let mut link_lines = Vec::new();
    let mut base_link = Vec::new();
    for (p, [b_link, cold, warm]) in cols.iter().zip(&links) {
        if b_link.is_empty() {
            continue;
        }
        let b = stats::median(b_link);
        link_lines.push(format!(
            "{}: link join cold {:.3} ms / warm {:.3} ms (n={} each) vs Baseline {:.3} ms (n={}): {:.1}× cold, {:.1}× warm",
            p.col.name,
            stats::median(cold),
            stats::median(warm),
            cold.len(),
            b,
            b_link.len(),
            b / stats::median(cold).max(1e-9),
            b / stats::median(warm).max(1e-9),
        ));
        base_link.extend(b_link);
    }

    let base_ms: Vec<f64> = base.iter().map(|(_, v)| *v).collect();
    let opt_ms: Vec<f64> = opt.iter().map(|(_, v)| *v).collect();
    let b = Summary::of(&base_ms).expect("≥ 108 Baseline samples");
    let o = Summary::of(&opt_ms).expect("≥ 3888 Optimized samples");
    let l = Summary::of(&base_link).expect("≥ 108 Baseline link joins");
    rep.set(
        "setup_s",
        setup_s,
        cols.len(),
        "6 × (build + train + profile)",
    );
    rep.set(
        "ops_per_s",
        base_ms.len() as f64 / (base_ms.iter().sum::<f64>() / 1e3),
        base_ms.len(),
        "Baseline queries per second of Baseline time",
    );
    rep.set("gmean_ms", b.gmean, b.n, "Baseline geometric mean");
    rep.set("p90_ms", b.p90, b.n, "Baseline p90");
    rep.set("alt_gmean_ms", o.gmean, o.n, "Optimized geometric mean");
    rep.set("alt_p95_ms", o.p95, o.n, "Optimized p95");
    rep.head(
        "baseline_samples",
        format!("{} ({} passes), tail {}", b.n, pass, b.tail_label()),
    );
    rep.head(
        "optimized_samples",
        format!("{} ({opt_passes} passes), tail {}", o.n, o.tail_label()),
    );

    rep.derived.push(format!(
        "baseline_p50_ms = {:.3}, baseline_{}_ms = {:.3} (n={})",
        b.p50,
        b.tail_label(),
        b.tail,
        b.n
    ));
    rep.derived.push(format!(
        "optimized_p50_ms = {:.4}, optimized_{}_ms = {:.4} (n={})",
        o.p50,
        o.tail_label(),
        o.tail,
        o.n
    ));
    rep.derived.push(format!(
        "baseline link join p50 = {:.3} ms, {} = {:.3} ms (n={})",
        l.p50,
        l.tail_label(),
        l.tail,
        l.n
    ));
    rep.derived.push(format!(
        "heuristic_rel_acc = {rel_acc_mean:.4} (n={}; paper Table III: 0.88)",
        rel_acc.len()
    ));
    for (ci, p) in cols.iter().enumerate() {
        let (bc, oc) = (by_col(&base, ci), by_col(&opt, ci));
        rep.derived.push(format!(
            "{}: Baseline/Optimized = {:.1}× from medians {:.3} ms (n={}) / {:.4} ms (n={})",
            p.col.name,
            stats::median(&bc) / stats::median(&oc).max(1e-9),
            stats::median(&bc),
            bc.len(),
            stats::median(&oc),
            oc.len()
        ));
    }
    rep.derived.push(format!(
        "Baseline/Optimized overall = {:.1}× from medians (paper: 114.9×)",
        b.p50 / o.p50.max(1e-9)
    ));
    rep.derived.extend(link_lines);

    if traced {
        for p in &cols {
            for v in prep::time_precomputed_join(&p.engine, &p.col, 20) {
                runner.layers.sample("join.precomputed_ms", v);
            }
        }
        runner.layers.set(
            "heuristic.rel_acc",
            rel_acc_mean,
            "mean F1 vs Baseline over queries",
        );
        crate::overhead(&mut runner.layers, &traced_ms, &untraced_ms);
        runner.report_sum_check(rep);
    }
    crate::finish(rep, runner);
    Ok(())
}

/// The latencies of one collection's samples.
fn by_col(samples: &[(usize, f64)], ci: usize) -> Vec<f64> {
    samples
        .iter()
        .filter(|(c, _)| *c == ci)
        .map(|(_, v)| *v)
        .collect()
}

/// One link-join repetition on one collection: Baseline, then Optimized
/// cold (`set_extraction` clears g_L) and warm. Pushes each latency to
/// `samples` = [Baseline, cold, warm].
fn link_round(
    rep: &mut Report,
    runner: &mut Runner,
    p: &mut Prepared,
    q: &WorkloadQuery,
    samples: &mut [Vec<f64>; 3],
) {
    rep.attempted += 1;
    match runner.query(&p.engine, &q.text, Strategy::Baseline, false) {
        (ns, Ok(_)) => samples[0].push(ms(ns)),
        (_, Err(e)) => crate::query_error(rep, &q.name, Strategy::Baseline, &e),
    }
    let rel_name = &p.col.spec.rel_name;
    let ex = p
        .engine
        .profile("G")
        .and_then(|pr| pr.extraction(rel_name).ok())
        .cloned();
    if let (Some(ex), Some(pr)) = (ex, p.engine.profile_mut("G")) {
        pr.set_extraction(rel_name, ex); // clears g_L
    }
    for out in &mut samples[1..] {
        rep.attempted += 1;
        match runner.query(&p.engine, &q.text, Strategy::Optimized, false) {
            (ns, Ok(_)) => out.push(ms(ns)),
            (_, Err(e)) => crate::query_error(rep, &q.name, Strategy::Optimized, &e),
        }
    }
}
