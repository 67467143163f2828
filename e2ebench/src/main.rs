//! `gsj-e2ebench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper-baseline|served|update-mix> --seed <n> \
//!     --seconds <s> --trace <0|1> \
//!     [--datagen-seed <n>] [--delta-seed <n>] [--order-seed <n>]
//! ```
//!
//! `--seed` drives the ΔG stream and the query order. Each workload
//! generates its collections from a fixed datagen seed of its own (see
//! README.md), which `--datagen-seed` overrides.
//!
//! Prints the run's conditions, every metric by name with its unit and
//! sample count, and — as the last line of stdout — one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` is a separate, traced run of the
//! same workload that reports the per-layer metrics. Exits 1 when a
//! correctness check fails. See README.md for the metric → layer →
//! workload map.

mod known;
mod load;
mod paper;
mod prep;
mod report;
mod served;
mod stats;
mod trace;
mod update;

use gsj_common::GsjError;
use gsj_core::gsql::exec::Strategy;
use prep::{Layers, Runner};
use report::Report;

/// Input seeds of one run.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Collection generator seed, when overridden; each workload has
    /// its own default.
    pub datagen: Option<u64>,
    /// ΔG batch seed (update-mix).
    pub delta: u64,
    /// Query-order seed.
    pub order: u64,
}

impl Seeds {
    /// The datagen seed: the override, or the workload's default.
    pub fn datagen_or(&self, default: u64, rep: &mut Report) -> u64 {
        let seed = self.datagen.unwrap_or(default);
        rep.datagen = seed;
        rep.head("datagen_seed", seed);
        seed
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// The run seed every input seed derives from unless overridden.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: u64,
    /// Traced run (per-layer metrics).
    pub trace: bool,
    /// Input seeds.
    pub seeds: Seeds,
}

const WORKLOADS: &[&str] = &["paper-baseline", "served", "update-mix"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let num = |v: Option<String>, flag: &str| -> Result<Option<u64>, String> {
        v.map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {s}"))
        })
        .transpose()
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (want one of {WORKLOADS:?})"
        ));
    }
    let seed = num(get("--seed"), "--seed")?.unwrap_or(1);
    let seconds = num(get("--seconds"), "--seconds")?.unwrap_or(10).max(1);
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: want 0 or 1, got {other}")),
    };
    let seeds = Seeds {
        datagen: num(get("--datagen-seed"), "--datagen-seed")?,
        delta: num(get("--delta-seed"), "--delta-seed")?.unwrap_or(seed ^ 0x5EED_DE17A),
        order: num(get("--order-seed"), "--order-seed")?.unwrap_or(seed ^ 0x0D3E_50F7),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        seeds,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gsj-e2ebench: {e}");
            std::process::exit(2);
        }
    };
    // served runs at the program's default worker count (all cores), as
    // gsj-serve does, so the morsel-parallel path is measured there. The
    // in-process workloads run the sequential path unless GSJ_THREADS is
    // set: at 2 workers on 2 shared cores their gated metrics spread by
    // up to 0.30 (paper-baseline, 4 runs) and 0.24 (update-mix, 10 runs)
    // between identical runs, against 0.13 and 0.17 at one worker.
    // Set before any kernel runs, since the pool reads it once.
    if args.workload != "served" && std::env::var_os("GSJ_THREADS").is_none() {
        std::env::set_var("GSJ_THREADS", "1");
    }
    gsj_obs::now_ns(); // pin the trace epoch before anything is timed
    gsj_obs::set_tracing(false);
    let mut rep = Report {
        workload: args.workload.clone(),
        ..Report::default()
    };
    rep.head("workload", &args.workload);
    rep.head(
        "mode",
        if args.trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
    );
    rep.head("nproc", prep::nproc());
    rep.head(
        "workers",
        format!(
            "{} (gsj_threads(); GSJ_THREADS={})",
            gsj_common::pool::gsj_threads(),
            std::env::var("GSJ_THREADS").unwrap_or_else(|_| "unset".into())
        ),
    );
    rep.head(
        "seeds",
        format!(
            "run {} → delta {}, order {}",
            args.seed, args.seeds.delta, args.seeds.order
        ),
    );
    rep.head("seconds", args.seconds);
    rep.head(
        "percentiles",
        "gated: geometric mean + p90 (alt_*: + p95); printed tails: highest of p99/p90/p50 with ≥ 10 samples beyond",
    );
    let recorded0 = prep::counter("gsj_obs_recorder_queries_total");
    let out = match args.workload.as_str() {
        "paper-baseline" => paper::run(&args, &mut rep),
        "served" => served::run(&args, &mut rep),
        _ => update::run(&args, &mut rep),
    };
    if let Err(e) = out {
        eprintln!("gsj-e2ebench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    let recorded = prep::counter("gsj_obs_recorder_queries_total") - recorded0;
    if gsj_obs::recorder::recorder_enabled() && recorded != rep.engine_queries {
        rep.check_failed(format!(
            "flight recorder holds {recorded} queries, the benchmark issued {}",
            rep.engine_queries
        ));
    }
    if args.trace {
        rep.set("recorder.queries", recorded as f64, 1, "run total");
        rep.print(report::PER_LAYER);
    } else {
        rep.print(report::END_TO_END);
    }
    if !rep.correct() {
        std::process::exit(1);
    }
}

/// Book a query error: a known defect when it is a pinned Heuristic
/// failure, else a failed check.
pub fn query_error(rep: &mut Report, query: &str, s: Strategy, e: &GsjError) {
    let what = format!("{query} under {s:?}: {e}");
    if s == Strategy::Heuristic {
        let d = known::Defect::HeuristicError { query, err: e };
        rep.defect(d, query.to_string(), what);
    } else {
        rep.check_failed(what);
    }
}

/// Tracing overhead: traced vs untraced median latency of the same
/// operations, as a fraction.
pub fn overhead(layers: &mut Layers, traced_ms: &[f64], untraced_ms: &[f64]) {
    let (t, u) = (stats::median(traced_ms), stats::median(untraced_ms));
    if u > 0.0 {
        layers.set(
            "trace.overhead_frac",
            t / u - 1.0,
            "traced / untraced median − 1",
        );
    }
}

/// Common end of every workload: peak RSS, `ok_frac`, the runner's
/// per-layer values and query count, and the span file of a traced run.
pub fn finish(rep: &mut Report, runner: Runner) {
    rep.set("peak_rss_mb", prep::peak_rss_mb(), 1, "VmHWM");
    let attempted = rep.attempted.max(1);
    let failed_frac = rep.failed as f64 / attempted as f64;
    rep.set(
        "ok_frac",
        1.0 - failed_frac,
        attempted as usize,
        format!(
            "failed_frac = {failed_frac:.4} ({} failed, {} unexpected, of {attempted})",
            rep.failed, rep.unexpected
        ),
    );
    rep.engine_queries += runner.engine_queries;
    runner.layers.finish(rep);
    if !runner.tracer.spans.is_empty() {
        let dir = std::path::Path::new("e2ebench/out");
        let name = format!("trace-{}.jsonl", rep.header[0].1);
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(dir.join(&name), runner.tracer.to_jsonl()));
        rep.head(
            "spans",
            match written {
                Ok(()) => format!(
                    "{} written to e2ebench/out/{name}",
                    runner.tracer.spans.len()
                ),
                Err(e) => format!("{} (not written: {e})", runner.tracer.spans.len()),
            },
        );
    }
}
