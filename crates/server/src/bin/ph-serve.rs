//! `ph-serve`: the serving process.
//!
//! ```text
//! ph-serve [--addr HOST:PORT] [--workers N] [--queue N] [--max-conns N]
//!          [--read-timeout SECS] [--idle-timeout SECS] [--serve-seconds S]
//!          [--qlog PATH] [--data-dir DIR | --demo ROWS]
//! ```
//!
//! With `--data-dir` the catalog is reopened from a `Session::save_dir`
//! directory; otherwise a synthetic `Power` table of `--demo ROWS` rows
//! (default 50 000) is registered so the server is immediately queryable:
//!
//! ```text
//! curl -s localhost:7871/healthz
//! curl -s -XPOST localhost:7871/query \
//!      -d 'SELECT COUNT(global_active_power) FROM Power WHERE voltage > 238;'
//! ```
//!
//! Runs until killed — or, with `--serve-seconds S`, shuts down gracefully
//! after `S` seconds (draining in-flight responses), which is what the CI
//! smoke jobs use for a clean bounded run. The query log (if any) is written
//! on every append, so a `SIGKILL` loses at most the in-flight record.
//!
//! The connection cap defaults to [`ServerConfig`]'s 10 000 (the event loop
//! holds idle keep-alive sockets for a slab slot each); `--max-conns` moves
//! it. Keep `ulimit -n` above it: past the descriptor budget `accept` fails
//! and the surplus waits in the listen backlog instead of getting a `503`.

use std::process::exit;
use std::sync::Arc;

use ph_core::Session;
use ph_server::{Server, ServerConfig};

struct Args {
    addr: String,
    cfg: ServerConfig,
    data_dir: Option<String>,
    demo_rows: usize,
    serve_seconds: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ph-serve [--addr HOST:PORT] [--workers N] [--queue N] [--max-conns N] \
         [--read-timeout SECS] [--idle-timeout SECS] [--serve-seconds S] [--qlog PATH] \
         [--slow-threshold-us MICROS] [--slow-cap N] [--no-tracing] \
         [--data-dir DIR | --demo ROWS]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7871".into(),
        cfg: ServerConfig::default(),
        data_dir: None,
        demo_rows: 50_000,
        serve_seconds: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--workers" => {
                args.cfg.workers = value("--workers").parse().unwrap_or_else(|_| usage())
            }
            "--queue" => {
                args.cfg.queue_depth = value("--queue").parse().unwrap_or_else(|_| usage())
            }
            "--max-conns" => {
                args.cfg.max_connections = value("--max-conns").parse().unwrap_or_else(|_| usage())
            }
            "--read-timeout" => {
                let secs: f64 = value("--read-timeout").parse().unwrap_or_else(|_| usage());
                args.cfg.read_timeout = std::time::Duration::from_secs_f64(secs.max(0.001));
            }
            "--idle-timeout" => {
                let secs: f64 = value("--idle-timeout").parse().unwrap_or_else(|_| usage());
                args.cfg.idle_timeout = std::time::Duration::from_secs_f64(secs.max(0.001));
            }
            "--serve-seconds" => {
                args.serve_seconds =
                    Some(value("--serve-seconds").parse().unwrap_or_else(|_| usage()))
            }
            "--qlog" => args.cfg.query_log = Some(value("--qlog").into()),
            "--slow-threshold-us" => {
                args.cfg.slow_query_threshold_us =
                    value("--slow-threshold-us").parse().unwrap_or_else(|_| usage())
            }
            "--slow-cap" => {
                args.cfg.slow_query_cap = value("--slow-cap").parse().unwrap_or_else(|_| usage())
            }
            "--no-tracing" => ph_server::obs::set_tracing(false),
            "--data-dir" => args.data_dir = Some(value("--data-dir")),
            "--demo" => args.demo_rows = value("--demo").parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let session = match &args.data_dir {
        Some(dir) => match Session::open_dir(dir) {
            Ok(s) => {
                eprintln!("opened catalog {dir} ({} tables)", s.tables().len());
                s
            }
            Err(e) => {
                eprintln!("cannot open {dir}: {e}");
                exit(1);
            }
        },
        None => {
            let s = Session::new();
            let data =
                ph_datagen::generate("Power", args.demo_rows, 7).expect("demo dataset generates");
            eprintln!(
                "no --data-dir: registered demo table 'Power' ({} rows, columns: {})",
                data.n_rows(),
                data.columns().iter().map(|c| c.name()).collect::<Vec<_>>().join(", ")
            );
            s.register(data).expect("demo table registers");
            s
        }
    };
    let server = match Server::bind(Arc::new(session), &args.addr, args.cfg.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.addr);
            exit(1);
        }
    };
    // Stdout so scripts can scrape the resolved (possibly ephemeral) port.
    println!("ph-serve listening on {}", server.local_addr());
    eprintln!(
        "workers={} queue={} max_conns={} qlog={}",
        args.cfg.workers,
        args.cfg.queue_depth,
        args.cfg.max_connections,
        args.cfg
            .query_log
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "off".into()),
    );
    match args.serve_seconds {
        // Bounded run (CI smoke): serve, then shut down gracefully — drain
        // in-flight responses, join every thread — and print the serving
        // counters so the harness can assert on them.
        Some(secs) => {
            std::thread::sleep(std::time::Duration::from_secs_f64(secs.max(0.0)));
            let stats = server.stats();
            server.shutdown();
            println!(
                "ph-serve done: accepted={} open_at_stop={} rejected_503={} pipelined={} queue_hwm={} queries_on_loop={}",
                stats.accepted_connections,
                stats.open_connections,
                stats.rejected_503,
                stats.pipelined_requests,
                stats.executor_queue_hwm,
                stats.queries_on_loop,
            );
        }
        // Serve until the process is killed.
        None => loop {
            std::thread::park();
        },
    }
}
