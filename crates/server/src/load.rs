//! Closed-loop load generation: `N` active connections each firing the next
//! query (or pipelined batch) the moment the previous answer lands, optionally
//! alongside a large population of held-open *idle* keep-alive connections.
//! Shared by the `ph-bench-client` binary and the high-connection CI smoke.
//!
//! Closed-loop (rather than fixed-rate) load matches how the paper frames
//! interactivity: each connection models one user who reads an answer and
//! immediately asks the next question, so measured throughput is the
//! *sustainable* rate at the measured latency, not an open-loop overload.
//! The idle population models the realistic shape of a fleet of dashboards:
//! thousands of sockets held open, a handful active at any instant — the
//! workload the event-loop server exists to hold cheaply.

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::client::Client;

/// Shape of one load run.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    /// Closed-loop connections actively issuing queries.
    pub active: usize,
    /// Additional keep-alive connections opened and then held **idle** for
    /// the whole run — they cost the server a slab slot and an fd, nothing
    /// else, and the report proves the active traffic didn't pay for them.
    pub held_idle: usize,
    /// Queries per pipelined batch on each active connection. `1` = classic
    /// request/response; `k > 1` writes `k` requests back-to-back and reads
    /// `k` in-order responses (latency is measured per *batch*, then divided
    /// by `k` for per-query figures).
    pub pipeline_depth: usize,
}

impl Default for LoadProfile {
    fn default() -> Self {
        Self { active: 4, held_idle: 0, pipeline_depth: 1 }
    }
}

/// Outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Active closed-loop connections driven.
    pub connections: usize,
    /// Idle keep-alive connections successfully held open throughout.
    pub held_idle: usize,
    /// Pipelined batch size used on the active connections.
    pub pipeline_depth: usize,
    /// Wall-clock measurement window.
    pub seconds: f64,
    /// Queries answered with 200.
    pub ok: u64,
    /// Queries answered with an error (4xx/5xx or transport).
    pub errors: u64,
    /// Sustained throughput (`ok / seconds`).
    pub qps: f64,
    /// Median per-query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    pub p99_us: f64,
}

/// Drives `profile.active` closed loops against `addr` for `duration`, each
/// rotating through `queries` (staggered so connections don't lock-step),
/// while `profile.held_idle` extra keep-alive connections sit open and silent.
pub fn run_load(
    addr: &str,
    profile: &LoadProfile,
    duration: Duration,
    queries: &[String],
) -> LoadReport {
    let depth = profile.pipeline_depth.max(1);
    if queries.is_empty() {
        // Nothing to drive: report an idle run instead of aborting the caller.
        return LoadReport {
            connections: profile.active,
            held_idle: 0,
            pipeline_depth: depth,
            seconds: 0.0,
            ok: 0,
            errors: 0,
            qps: 0.0,
            p50_us: 0.0,
            p99_us: 0.0,
        };
    }
    // Open the idle population first so the active loops run while it is
    // held, not before it exists. Sockets that fail to open (fd limits,
    // admission 503 + close) are simply not counted.
    let held: Vec<TcpStream> =
        (0..profile.held_idle).filter_map(|_| TcpStream::connect(addr).ok()).collect();
    let held_idle = held.len();
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let mut per_conn: Vec<(u64, u64, Vec<f64>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..profile.active.max(1))
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = Client::new(addr.to_string());
                    let mut ok = 0u64;
                    let mut errors = 0u64;
                    let mut latencies_us: Vec<f64> = Vec::new();
                    let mut qi = c; // stagger
                    while !stop.load(Ordering::Acquire) {
                        let batch: Vec<&str> = (0..depth)
                            .filter_map(|k| {
                                queries.get((qi + k) % queries.len()).map(String::as_str)
                            })
                            .collect();
                        qi += depth;
                        let t = Instant::now();
                        if depth == 1 {
                            let Some(q) = batch.first() else { break };
                            match client.query(q) {
                                Ok(_) => {
                                    ok += 1;
                                    latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                                }
                                Err(_) => errors += 1,
                            }
                        } else {
                            match client.query_pipelined(&batch) {
                                Ok(answers) => {
                                    let us_per_query =
                                        t.elapsed().as_secs_f64() * 1e6 / depth as f64;
                                    for a in answers {
                                        match a {
                                            Ok(_) => {
                                                ok += 1;
                                                latencies_us.push(us_per_query);
                                            }
                                            Err(_) => errors += 1,
                                        }
                                    }
                                }
                                Err(_) => errors += depth as u64,
                            }
                        }
                    }
                    (ok, errors, latencies_us)
                })
            })
            .collect();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Release);
        // A panicked loop drops its counts; the surviving connections still
        // produce a report instead of cascading the panic into the driver.
        per_conn = handles.into_iter().filter_map(|h| h.join().ok()).collect();
    });
    let seconds = t0.elapsed().as_secs_f64();
    // The idle population must still be *open* — a server that shed it under
    // load would show up here as dead sockets. A non-blocking 1-byte read
    // distinguishes the cases instantly: open-and-silent returns WouldBlock,
    // closed returns 0 (EOF) or a connection error. No per-socket timeout, so
    // sweeping thousands of sockets costs microseconds, not seconds.
    let surviving = held
        .into_iter()
        .filter(|s| {
            if s.set_nonblocking(true).is_err() {
                return false;
            }
            let mut s = s;
            let mut byte = [0u8; 1];
            match s.read(&mut byte) {
                Ok(0) => false,                                       // EOF: server closed it
                Ok(_) => true,                                        // stray byte, still open
                Err(e) => e.kind() == std::io::ErrorKind::WouldBlock, // silent and open
            }
        })
        .count();
    let ok: u64 = per_conn.iter().map(|(ok, _, _)| ok).sum();
    let errors: u64 = per_conn.iter().map(|(_, e, _)| e).sum();
    let mut latencies: Vec<f64> = per_conn.into_iter().flat_map(|(_, _, l)| l).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies.get(idx).copied().unwrap_or(0.0)
    };
    LoadReport {
        connections: profile.active,
        held_idle: surviving.min(held_idle),
        pipeline_depth: depth,
        seconds,
        ok,
        errors,
        qps: ok as f64 / seconds.max(1e-9),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}
