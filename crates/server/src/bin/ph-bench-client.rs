//! `ph-bench-client`: closed-loop load generator against a running `ph-serve`.
//!
//! ```text
//! ph-bench-client --addr HOST:PORT [--connections N] [--hold N] [--pipeline K]
//!                 [--seconds S] [--sql Q]...
//! ```
//!
//! Each active connection is one closed loop (fire the next query — or, with
//! `--pipeline K`, the next K-deep pipelined batch — as soon as the previous
//! answer lands); the report is sustained qps plus p50/p99 latency. `--hold N`
//! additionally opens N keep-alive connections that sit **idle** for the whole
//! run, exercising the server's ability to hold a large silent population
//! while serving the active one; the report says how many were still open at
//! the end. Without `--sql`, the standard Power scalar query mix is used
//! (matching the demo table `ph-serve` registers).

use std::process::exit;
use std::time::Duration;

use ph_server::{run_load, LoadProfile};

const DEFAULT_QUERIES: [&str; 4] = [
    "SELECT COUNT(global_active_power) FROM Power WHERE voltage > 238;",
    "SELECT AVG(global_active_power) FROM Power WHERE voltage > 238;",
    "SELECT SUM(global_active_power) FROM Power WHERE voltage > 238;",
    "SELECT MAX(global_active_power) FROM Power WHERE voltage > 238;",
];

fn usage() -> ! {
    eprintln!(
        "usage: ph-bench-client --addr HOST:PORT [--connections N] [--hold N] \
         [--pipeline K] [--seconds S] [--sql Q]..."
    );
    exit(2);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut profile = LoadProfile::default();
    let mut seconds = 5.0f64;
    let mut queries: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--connections" => {
                profile.active = value("--connections").parse().unwrap_or_else(|_| usage())
            }
            "--hold" => profile.held_idle = value("--hold").parse().unwrap_or_else(|_| usage()),
            "--pipeline" => {
                profile.pipeline_depth = value("--pipeline").parse().unwrap_or_else(|_| usage())
            }
            "--seconds" => seconds = value("--seconds").parse().unwrap_or_else(|_| usage()),
            "--sql" => queries.push(value("--sql")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    let Some(addr) = addr else { usage() };
    if queries.is_empty() {
        queries = DEFAULT_QUERIES.iter().map(|q| q.to_string()).collect();
    }
    // Fail fast (and loudly) if the mix can't be served at all.
    let mut probe = ph_server::Client::new(addr.clone());
    if let Err(e) = probe.query(&queries[0]) {
        eprintln!("probe query failed against {addr}: {e}");
        exit(1);
    }
    drop(probe);
    let report = run_load(&addr, &profile, Duration::from_secs_f64(seconds), &queries);
    println!(
        "connections={} held_idle={} pipeline={} seconds={:.1} ok={} errors={} qps={:.0} \
         p50={:.1}us p99={:.1}us",
        report.connections,
        report.held_idle,
        report.pipeline_depth,
        report.seconds,
        report.ok,
        report.errors,
        report.qps,
        report.p50_us,
        report.p99_us,
    );
    // Held-idle sockets that died mid-run mean the server shed its keep-alive
    // population — the exact regression --hold exists to catch.
    if report.held_idle < profile.held_idle {
        eprintln!(
            "warning: only {}/{} held connections survived the run",
            report.held_idle, profile.held_idle
        );
        exit(1);
    }
}
