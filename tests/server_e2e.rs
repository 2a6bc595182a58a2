//! End-to-end acceptance of the serving layer (the PR's tentpole contract):
//!
//! 1. **Fidelity under concurrency** — ≥4 client threads against a live
//!    server get answers bit-identical to direct `Session::sql` on the same
//!    catalog, whether the event loop or a worker ran them.
//! 2. **Admission control** — overload returns `503` at the door and the
//!    workers come back clean afterwards (no wedge).
//! 3. **Workload memory** — the query log replays to exactly the estimates
//!    the server returned.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pairwisehist::prelude::*;
use pairwisehist::server::{read_query_log, Client, Server, ServerConfig};

fn catalog_dataset(n: usize) -> Dataset {
    let x: Vec<Option<i64>> = (0..n).map(|i| Some((i as i64 * 11) % 1000)).collect();
    let y: Vec<Option<i64>> =
        (0..n).map(|i| if i % 31 == 0 { None } else { Some((i as i64 * 17) % 5000) }).collect();
    let g: Vec<Option<&str>> = (0..n).map(|i| Some(["red", "green", "blue"][i % 3])).collect();
    Dataset::builder("colors")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .column(Column::from_strings("g", g))
        .unwrap()
        .build()
}

const QUERIES: [&str; 6] = [
    "SELECT COUNT(y) FROM colors WHERE x > 500;",
    "SELECT SUM(y) FROM colors WHERE x > 250 AND x < 750;",
    "SELECT AVG(y) FROM colors WHERE x <= 400 OR g = 'red';",
    "SELECT VAR(y) FROM colors WHERE x > 100;",
    "SELECT MEDIAN(y) FROM colors WHERE x < 900;",
    "SELECT COUNT(y) FROM colors WHERE x > 300 GROUP BY g;",
];

#[test]
fn concurrent_clients_match_direct_session_bit_identically() {
    let session = Arc::new(Session::new());
    session.register(catalog_dataset(12_000)).unwrap();
    let server = Server::bind(
        session.clone(),
        "127.0.0.1:0",
        ServerConfig { workers: 6, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Direct answers first: the catalog is static, so every later server
    // answer must equal these bit for bit.
    let direct: Vec<AqpAnswer> = QUERIES.iter().map(|sql| session.sql(sql).expect(sql)).collect();

    std::thread::scope(|scope| {
        for t in 0..5 {
            let addr = &addr;
            let direct = &direct;
            scope.spawn(move || {
                let mut client = Client::new(addr.clone());
                for round in 0..12 {
                    let qi = (t + round) % QUERIES.len();
                    let answer = client.query(QUERIES[qi]).expect(QUERIES[qi]);
                    assert_eq!(
                        answer, direct[qi],
                        "thread {t} round {round}: server answer diverged for {}",
                        QUERIES[qi]
                    );
                }
            });
        }
    });
    server.shutdown();
}

/// Every estimate of an answer as `(group, value, lo, hi)` bit patterns.
fn bits(answer: &AqpAnswer) -> Vec<(String, u64, u64, u64)> {
    let row =
        |g: &str, e: &Estimate| (g.to_string(), e.value.to_bits(), e.lo.to_bits(), e.hi.to_bits());
    match answer {
        AqpAnswer::Scalar(e) => e.iter().map(|e| row("", e)).collect(),
        AqpAnswer::Groups(groups) => groups.iter().map(|(g, e)| row(g, e)).collect(),
    }
}

/// The value of one unlabelled sample in a Prometheus exposition.
fn sample(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} sample in {metrics}"))
}

/// Four clients on four workers, each cycling plan-cache hits, misses (a
/// literal no one has sent) and GROUP BYs, so the loop answers some queries
/// and the workers the rest, often in the same instant. Every answer equals
/// `Session::sql`'s to the bit, and with no ingest in play every query is
/// counted once: on the loop or in a worker's batch.
#[test]
fn loop_and_worker_answers_agree_under_concurrency() {
    let session = Arc::new(Session::new());
    session.register(catalog_dataset(12_000)).unwrap();
    let server = Server::bind(
        session.clone(),
        "127.0.0.1:0",
        ServerConfig { workers: 4, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let addr = &addr;
            let session = &session;
            scope.spawn(move || {
                let mut client = Client::new(addr.clone());
                for round in 0..30 {
                    let sql = match round % 3 {
                        0 => QUERIES[(t + round) % QUERIES.len()].to_string(),
                        1 => {
                            format!("SELECT SUM(y) FROM colors WHERE x > {};", 1 + t * 100 + round)
                        }
                        _ => format!(
                            "SELECT AVG(y) FROM colors WHERE x < {} GROUP BY g;",
                            500 + round % 4
                        ),
                    };
                    let served = client.query(&sql).expect(&sql);
                    let direct = session.sql(&sql).expect(&sql);
                    assert_eq!(bits(&served), bits(&direct), "thread {t} round {round}: {sql}");
                }
            });
        }
    });
    let stats = server.stats();
    assert!(stats.queries_on_loop > 0, "hits repeat, so some ran on the loop: {stats:?}");
    let metrics = Client::new(addr).metrics().unwrap();
    let queries = sample(&metrics, "ph_queries_total");
    let on_workers = sample(&metrics, "ph_exec_batch_size_sum");
    assert_eq!(queries, 4.0 * 30.0);
    assert_eq!(stats.queries_on_loop as f64 + on_workers, queries, "{metrics}");
    server.shutdown();
}

/// Reads whatever the server sends until it closes, returning the raw bytes.
fn read_to_close(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return out,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
        }
    }
}

#[test]
fn overload_returns_503_without_wedging_workers() {
    let session = Arc::new(Session::new());
    session.register(catalog_dataset(3_000)).unwrap();
    let server = Server::bind(
        session,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            max_connections: 2,
            read_timeout: Duration::from_secs(30),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Saturate: stalled connections that send half a request and stop. The
    // event loop holds each one (no worker is involved until a request is
    // complete) and they count against the connection cap of 2, so the rest
    // are shed at the door. Connections answered 503 close immediately —
    // distinguish them from admitted ones (which see no bytes yet) by peeking.
    let mut stalled: Vec<TcpStream> = Vec::new();
    let mut rejected_early = 0usize;
    for _ in 0..4 {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n").unwrap();
        // An admitted connection stays open silently (the loop waits for the
        // rest of the body); a shed one gets "HTTP/1.1 503 …" and EOF.
        conn.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        let mut probe = [0u8; 12];
        match conn.read(&mut probe) {
            Ok(n) if n > 0 => {
                assert!(
                    probe.starts_with(b"HTTP/1.1 503"),
                    "unexpected early answer: {:?}",
                    String::from_utf8_lossy(&probe[..n])
                );
                rejected_early += 1;
            }
            _ => stalled.push(conn), // admitted (holds one of the two slots)
        }
    }
    assert!(
        rejected_early >= 1,
        "with a connection cap of 2, at least one of 4 stalled connections \
         must be shed at the door"
    );
    assert!(server.rejected() >= rejected_early as u64);

    // A well-formed request arriving now finds the cap still taken and must
    // also be shed with 503 — fast, not queued behind the stall.
    let mut full = TcpStream::connect(addr).unwrap();
    full.write_all(
        b"POST /query HTTP/1.1\r\nContent-Length: 41\r\n\r\nSELECT COUNT(y) FROM colors WHERE x > 500"
    )
    .unwrap();
    let bytes = read_to_close(&mut full);
    let head = String::from_utf8_lossy(&bytes);
    assert!(head.starts_with("HTTP/1.1 503"), "expected 503 under overload, got: {head}");
    assert!(head.contains("overload"), "structured error body expected: {head}");

    // Release the stall: closing the half-request connections frees their
    // slots; the server must answer 200 again promptly.
    drop(stalled);
    let mut recovered = false;
    let mut client = Client::new(addr.to_string());
    for _ in 0..50 {
        if client.query(QUERIES[0]).is_ok() {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(recovered, "workers wedged: no 200 within 5s of the overload clearing");
    server.shutdown();
}

#[test]
fn query_log_replays_to_identical_estimates() {
    let dir = std::env::temp_dir().join(format!("ph_e2e_qlog_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("workload.phqlog");

    let session = Arc::new(Session::new());
    session.register(catalog_dataset(8_000)).unwrap();
    let server = Server::bind(
        session.clone(),
        "127.0.0.1:0",
        ServerConfig { workers: 4, query_log: Some(log_path.clone()), ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // 4 concurrent clients serve a mixed workload (including one failing
    // query, which must be logged with its 4xx and skipped by replay).
    let mut answered: BTreeMap<String, AqpAnswer> = BTreeMap::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut client = Client::new(addr.clone());
                    let mut seen = Vec::new();
                    for round in 0..6 {
                        let sql = QUERIES[(t + round) % QUERIES.len()];
                        seen.push((sql.to_string(), client.query(sql).expect(sql)));
                    }
                    let _ = client.query("SELECT COUNT(y) FROM nowhere;");
                    seen
                })
            })
            .collect();
        for h in handles {
            for (sql, answer) in h.join().expect("client thread") {
                // Static catalog: repeated templates must agree.
                if let Some(prev) = answered.insert(sql.clone(), answer.clone()) {
                    assert_eq!(prev, answer, "non-deterministic answer for {sql}");
                }
            }
        }
    });
    server.shutdown();

    let records = read_query_log(&log_path).expect("log decodes");
    assert_eq!(records.len(), 4 * 6 + 4, "every /query request logged exactly once");
    assert!(records.iter().filter(|r| r.status == 404).count() == 4);
    let mut replayed = 0usize;
    for rec in records.iter().filter(|r| r.status == 200) {
        let again = session.sql(&rec.sql).expect("logged query replays");
        assert_eq!(
            &again,
            answered.get(&rec.sql).expect("every 200 in the log was answered"),
            "replay diverged for {}",
            rec.sql
        );
        replayed += 1;
    }
    assert_eq!(replayed, 4 * 6);
    std::fs::remove_dir_all(&dir).ok();
}
