//! Load generators: a closed loop (each connection issues its next
//! request when the previous one returns) and an open loop (requests are
//! due on a fixed schedule, and latency is timed from the *due* time, so
//! a stall delays — and is charged to — every request queued behind it).

use std::time::{Duration, Instant};

/// One open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct OpenSample<T> {
    /// Completion minus due time.
    pub latency_ns: u64,
    /// Send minus due time: how far the generator fell behind.
    pub late_ns: u64,
    /// What the worker returned.
    pub out: T,
}

/// Issue `total` requests at `rate_per_s` over one worker per element of
/// `workers` (request `i` goes to worker `i % workers.len()`). Each
/// worker is `FnMut(request index) -> T`. Returns every sample, in
/// request order.
pub fn open_loop<F, T>(workers: Vec<F>, rate_per_s: f64, total: usize) -> Vec<OpenSample<T>>
where
    F: FnMut(usize) -> T + Send,
    T: Send,
{
    let conns = workers.len();
    let interval = Duration::from_secs_f64(1.0 / rate_per_s);
    let start = Instant::now() + Duration::from_millis(1);
    let mut per_worker: Vec<Vec<(usize, OpenSample<T>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(j, mut f)| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(total / conns + 1);
                    for i in (j..total).step_by(conns) {
                        let due = start + interval * i as u32;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let got = f(i);
                        let done = Instant::now();
                        out.push((
                            i,
                            OpenSample {
                                latency_ns: done.saturating_duration_since(due).as_nanos() as u64,
                                late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
                                out: got,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    let mut all: Vec<(usize, OpenSample<T>)> = per_worker.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, s)| s).collect()
}

/// Run every worker in a closed loop until `duration` has passed. Each
/// worker is `FnMut(iteration) -> T`; returns per-request
/// `(round-trip ns, T)` across all workers.
pub fn closed_loop<F, T>(workers: Vec<F>, duration: Duration) -> Vec<(u64, T)>
where
    F: FnMut(usize) -> T + Send,
    T: Send,
{
    let deadline = Instant::now() + duration;
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut f| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = 0;
                    while Instant::now() < deadline {
                        let t0 = Instant::now();
                        let got = f(i);
                        out.push((t0.elapsed().as_nanos() as u64, got));
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A responder that answers in ~0.2 ms but stalls once for 60 ms.
    fn stalling_responder(stall_at: usize) -> impl FnMut(usize) + Send {
        move |i| {
            let d = if i == stall_at { 60 } else { 0 };
            std::thread::sleep(Duration::from_micros(200) + Duration::from_millis(d));
        }
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        // 1000 req/s over one connection: the 60 ms stall at request 10
        // leaves the next ~50 requests overdue, and each is charged for
        // the time it waited behind the stall.
        let samples = open_loop(vec![stalling_responder(10)], 1000.0, 80);
        assert_eq!(samples.len(), 80);
        let ms = |i: usize| samples[i].latency_ns as f64 / 1e6;
        assert!(ms(10) >= 60.0, "stalled request {}", ms(10));
        assert!(ms(11) >= 50.0, "request behind the stall {}", ms(11));
        assert!(ms(30) >= 30.0, "later request {}", ms(30));
        assert!(samples[11].late_ns > 40_000_000);
        // Before the stall the responder keeps up.
        assert!(ms(5) < 20.0, "pre-stall request {}", ms(5));
    }

    #[test]
    fn closed_loop_times_each_request_from_its_send() {
        // One connection, so samples are in request order: only the
        // stalled request itself is charged for the stall.
        let samples = closed_loop(vec![stalling_responder(3)], Duration::from_millis(100));
        assert!(samples.len() > 5);
        assert!(samples[3].0 >= 60_000_000);
        assert!(
            samples[4].0 < samples[3].0 / 2,
            "the next request is timed from its own send"
        );
    }
}
