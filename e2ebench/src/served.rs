//! `served`: Celebrity at scale 40 loaded with the `gsj-serve` recipe
//! (`gsj_server::load_collection`) behind an in-process `Server` on
//! loopback (default config: Optimized strategy), driven over GSJ/1 by
//! two client connections. Phase A is a closed loop (capacity); phase B
//! an open loop at a fixed 1000 req/s, timed from each request's due
//! time. Every reply is checked against the in-process result.

use crate::load::{closed_loop, open_loop};
use crate::prep::{self, ms, Runner, SetupTrace};
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::Args;
use gsj_common::Result;
use gsj_core::gsql::exec::Strategy;
use gsj_datagen::queries::{workload, WorkloadQuery};
use gsj_datagen::Scale;
use gsj_relational::Relation;
use gsj_server::client::Client;
use gsj_server::protocol::Response;
use gsj_server::server::{server_stats, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const COLLECTION: &str = "Celebrity";
const SCALE: usize = 40;
/// Datagen seed: `gsj-serve`'s default, one fixed collection.
const DATAGEN_SEED: u64 = 42;
/// Client connections (and load threads).
const CONNS: usize = 2;
/// Open-loop request rate, about a third of measured capacity.
const RATE: f64 = 1000.0;
/// Share of the run spent in the closed loop; the rest is open loop.
const CLOSED_SHARE: f64 = 0.7;
/// Minimum open-loop requests: enough for a p99.
const MIN_OPEN: usize = 2000;

/// One served request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Reply {
    /// Traced run, odd request: the thread count was sampled.
    traced: bool,
    ok: bool,
    exec_us: u64,
    start_ns: u64,
    end_ns: u64,
}

/// What every connection worker shares.
struct Shared<'a> {
    addr: SocketAddr,
    queries: &'a [WorkloadQuery],
    expected: &'a [Vec<String>],
    order: &'a [usize],
    problems: Mutex<Vec<String>>,
    threads_peak: AtomicUsize,
    sample_threads: bool,
}

/// A connection worker: request `i` runs query `order[offset + i]` and
/// checks the reply's rows against the in-process result.
fn worker<'a>(sh: &'a Shared<'a>, offset: usize) -> Result<impl FnMut(usize) -> Reply + Send + 'a> {
    let mut client = Client::connect(sh.addr)?;
    Ok(move |i: usize| {
        let qi = sh.order[(offset + i) % sh.order.len()];
        let traced = sh.sample_threads && i % 2 == 1;
        if traced {
            sh.threads_peak
                .fetch_max(prep::thread_count(), Ordering::Relaxed);
        }
        let start_ns = gsj_obs::now_ns();
        let reply = client.query(&sh.queries[qi].text);
        let end_ns = gsj_obs::now_ns();
        let problem = match &reply {
            Ok(r) if prep::csv_rows(&r.body) == sh.expected[qi] => None,
            Ok(_) => Some("served rows differ from in-process".to_string()),
            Err(e) => Some(e.to_string()),
        };
        let ok = problem.is_none();
        if let Some(p) = problem {
            let mut problems = sh
                .problems
                .lock()
                .expect("no worker panics holding the lock");
            problems.push(format!("{}: {p}", sh.queries[qi].name));
        }
        let exec_us = reply.map_or(0, |r| r.elapsed_us);
        Reply {
            traced,
            ok,
            exec_us,
            start_ns,
            end_ns,
        }
    })
}

pub fn run(args: &Args, rep: &mut Report) -> Result<()> {
    let cfg = ServerConfig::default();
    rep.head(
        "collection",
        format!("{COLLECTION} @ scale {SCALE} (gsj-serve recipe)"),
    );
    rep.head(
        "server",
        format!(
            "sessions {}, queue {}, default strategy {:?}, loopback",
            cfg.sessions, cfg.queue, cfg.default_strategy
        ),
    );
    rep.head(
        "load",
        format!("{CONNS} connections: closed loop, then open loop at {RATE} req/s"),
    );
    let traced = args.trace;
    let mut runner = Runner::default();
    let stats0 = server_stats();

    let datagen = args.seeds.datagen_or(DATAGEN_SEED, rep);
    let trace = traced.then(SetupTrace::start);
    let t_setup = Instant::now();
    let (col, engine) = gsj_server::fixture::load_collection(COLLECTION, Scale(SCALE), datagen)
        .expect("known collection")?;
    let handle = Server::start(engine.clone(), cfg)?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    if let Some(trace) = trace {
        // The fixture is one call, so datagen is timed by a second,
        // separate build.
        let t = Instant::now();
        let _ = gsj_datagen::collections::build(COLLECTION, Scale(SCALE), datagen);
        let bytes = engine.profile("G").map_or(0, |p| p.materialized_bytes());
        trace.finish(&mut runner.layers, t.elapsed().as_secs_f64(), bytes);
        prep::book_lm_per_token(&mut runner.layers);
    }

    // Expected rows per query, from the in-process engine.
    let queries = workload(&col);
    let mut expected = Vec::new();
    for q in &queries {
        expected.push(prep::sorted_rows(
            &runner
                .query(&engine, &q.text, Strategy::Optimized, false)
                .1?,
        ));
    }
    let mut order: Vec<usize> = (0..queries.len())
        .cycle()
        .take(queries.len() * 100)
        .collect();
    prep::shuffle(&mut order, args.seeds.order);
    let shared = Shared {
        addr: handle.addr(),
        queries: &queries,
        expected: &expected,
        order: &order,
        problems: Mutex::new(Vec::new()),
        threads_peak: AtomicUsize::new(0),
        sample_threads: traced,
    };

    // Warm-up: every query once over the wire (fills g_L).
    let mut warm = Client::connect(shared.addr)?;
    for (q, want) in queries.iter().zip(&expected) {
        rep.attempted += 1;
        rep.engine_queries += 1;
        if prep::csv_rows(&warm.query(&q.text)?.body) != *want {
            rep.check_failed(format!("{}: served rows differ from in-process", q.name));
        }
    }
    drop(warm);

    let secs = args.seconds as f64;
    let closed_for = Duration::from_secs_f64((secs * CLOSED_SHARE).max(1.0));
    let workers = (0..CONNS)
        .map(|j| worker(&shared, j * 211))
        .collect::<Result<Vec<_>>>()?;
    let watch = prep::CounterWatch::start();
    let t_closed = Instant::now();
    let closed_start_ns = gsj_obs::now_ns();
    let closed = closed_loop(workers, closed_for);
    let closed_secs = t_closed.elapsed().as_secs_f64();

    let open_n = ((secs * (1.0 - CLOSED_SHARE) * RATE) as usize).max(MIN_OPEN);
    let workers = (0..CONNS)
        .map(|j| worker(&shared, 97 + j * 211))
        .collect::<Result<Vec<_>>>()?;
    let open = open_loop(workers, RATE, open_n);
    watch.finish((closed.len() + open.len()) as u64, &mut runner.layers);

    // Encode/decode cost of each result, timed outside the server.
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    if traced {
        for q in &queries {
            let Ok(rel) = runner.query(&engine, &q.text, Strategy::Optimized, false).1 else {
                continue;
            };
            for _ in 0..50 {
                let t = Instant::now();
                let payload = Response::success(rel.to_csv())
                    .with_header("rows", rel.len())
                    .encode();
                enc.push(t.elapsed().as_nanos() as f64 / 1e3);
                let t = Instant::now();
                let back =
                    Response::parse(&payload).and_then(|r| Relation::from_csv("result", &r.body));
                dec.push(t.elapsed().as_nanos() as f64 / 1e3);
                std::hint::black_box(back.map(|r| r.len()).unwrap_or(0));
            }
        }
    }
    handle.shutdown();
    let stats1 = server_stats();

    // Every failed reply left exactly one problem behind.
    let served = (closed.len() + open.len()) as u64;
    rep.attempted += served;
    rep.engine_queries += served;
    for p in shared.problems.into_inner().expect("workers joined") {
        rep.check_failed(p);
    }

    // Latency and throughput come from correct replies only: an error
    // or a shed request returns fast, and would read as a speed-up. The
    // failures count in `failed`.
    let closed_ok: Vec<(u64, Reply)> = closed.iter().filter(|(_, r)| r.ok).copied().collect();
    let closed_ms: Vec<f64> = closed_ok.iter().map(|(ns, _)| ms(*ns)).collect();
    let exec_ms: Vec<f64> = closed_ok
        .iter()
        .map(|(_, r)| r.exec_us as f64 / 1e3)
        .collect();
    let open_ms: Vec<f64> = open
        .iter()
        .filter(|s| s.out.ok)
        .map(|s| ms(s.latency_ns))
        .collect();
    let late_ms: Vec<f64> = open.iter().map(|s| ms(s.late_ns)).collect();
    let a = Summary::of(&closed_ms).expect("closed-loop samples");
    let x = Summary::of(&exec_ms).expect("closed-loop samples");
    let b = Summary::of(&open_ms).expect("≥ 2000 open-loop samples");
    let qps = window_rates(&closed_ok, closed_start_ns);
    rep.set("setup_s", setup_s, 1, "load_collection + server start");
    rep.set(
        "ops_per_s",
        stats::median(&qps),
        qps.len(),
        format!(
            "served_qps, closed loop: median of {} 1-s windows",
            qps.len()
        ),
    );
    rep.set("gmean_ms", a.gmean, a.n, "closed-loop RTT geometric mean");
    rep.set("p90_ms", a.p90, a.n, "closed-loop RTT p90");
    rep.set(
        "alt_gmean_ms",
        x.gmean,
        x.n,
        "server-reported exec geometric mean",
    );
    rep.set("alt_p95_ms", x.p95, x.n, "server-reported exec p95");
    rep.head(
        "open_loop_lateness",
        format!(
            "p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms over {} requests",
            stats::median(&late_ms),
            stats::percentile(&late_ms, 990),
            late_ms.iter().cloned().fold(0.0, f64::max),
            late_ms.len()
        ),
    );
    rep.head(
        "server_counters",
        format!(
            "requests {}, errors {}, shed {}",
            stats1.requests - stats0.requests,
            stats1.errors - stats0.errors,
            stats1.shed - stats0.shed
        ),
    );
    rep.derived.push(format!(
        "served_qps = {:.1} /s (closed loop, {} correct replies over {closed_secs:.2} s)",
        closed_ms.len() as f64 / closed_secs,
        closed_ms.len()
    ));
    rep.derived.push(format!(
        "closed-loop RTT p50 {:.1} us, {} {:.1} us (n={}); server exec p50 {:.1} us, {} {:.1} us",
        a.p50 * 1e3,
        a.tail_label(),
        a.tail * 1e3,
        a.n,
        x.p50 * 1e3,
        x.tail_label(),
        x.tail * 1e3
    ));
    rep.derived.push(format!(
        "open loop @ {RATE}/s from due time: served_p50_us = {:.1}, served_{}_us = {:.1} (n={})",
        b.p50 * 1e3,
        b.tail_label(),
        b.tail * 1e3,
        b.n
    ));

    if traced {
        let layers = &mut runner.layers;
        layers.set(
            "gen.late_p99_ms",
            stats::percentile(&late_ms, 990),
            "open-loop p99",
        );
        let peak = shared.threads_peak.load(Ordering::Relaxed) as f64;
        layers.set(
            "server.threads_peak",
            peak,
            "peak of /proc/self/task samples",
        );
        layers.total("server.shed", (stats1.shed - stats0.shed) as f64);
        layers.total("server.errors", (stats1.errors - stats0.errors) as f64);
        for v in enc {
            layers.sample("protocol.encode_us", v);
        }
        for v in dec {
            layers.sample("protocol.decode_us", v);
        }
        for v in prep::time_precomputed_join(&engine, &col, 20) {
            layers.sample("join.precomputed_ms", v);
        }
        // Each traced request: RTT split into server-reported exec time
        // and the rest (wire, framing, sessions). The split is by
        // subtraction, so these trees are booked but not checked.
        let traced_replies = closed
            .iter()
            .map(|(_, r)| r)
            .chain(open.iter().map(|s| &s.out))
            .filter(|r| r.traced && r.ok);
        for r in traced_replies {
            let qid = runner.qid();
            let root = runner.tracer.push_root("rtt", r.start_ns, r.end_ns, qid);
            let exec_ns = (r.exec_us * 1000).min(r.end_ns - r.start_ns);
            runner
                .tracer
                .record(root, "server.exec", r.end_ns - exec_ns, r.end_ns);
            runner.book_tree(root);
        }
        // The traced run's only extra work on the request path is the
        // thread-count sample: compare closed-loop requests with and
        // without it.
        let rtt = |traced: bool| -> Vec<f64> {
            closed_ok
                .iter()
                .filter(|(_, r)| r.traced == traced)
                .map(|(ns, _)| ms(*ns))
                .collect()
        };
        crate::overhead(&mut runner.layers, &rtt(true), &rtt(false));
        rep.head(
            "layer_sum_check",
            "not checked: RTT is split into exec and wire by subtraction",
        );
    }
    crate::finish(rep, runner);
    Ok(())
}

/// Completions per second in each whole 1-s window after `start_ns`.
fn window_rates(replies: &[(u64, Reply)], start_ns: u64) -> Vec<f64> {
    let mut counts: Vec<f64> = Vec::new();
    for (_, r) in replies {
        let w = (r.end_ns.saturating_sub(start_ns) / 1_000_000_000) as usize;
        if counts.len() <= w {
            counts.resize(w + 1, 0.0);
        }
        counts[w] += 1.0;
    }
    counts.pop(); // the last window is partial
    counts
}
