//! Serving end to end: boot the HTTP serving layer on an ephemeral port, speak
//! to it with the bundled client, and check the answers against ground truth.
//!
//! ```text
//! cargo run --release --example serve
//! ```
//!
//! The server is the same `Session` the quickstart uses, put on a socket: a
//! fixed worker pool, bounded admission, per-endpoint latency metrics and a
//! compressed query log. The client gets back the very same `AqpAnswer` values
//! a direct `session.sql` call produces — bit-identical — so porting an
//! embedded caller to the networked deployment is a call-site swap.

use std::sync::Arc;

use pairwisehist::prelude::*;
use pairwisehist::server::{Client, Server, ServerConfig};

fn main() {
    // The catalog: a synthetic Power table, plus the exact engine on the same
    // rows for ground truth.
    let data = pairwisehist::datagen::generate("Power", 100_000, 42).expect("dataset");
    let exact = ExactEngine::new(data.clone());
    let session = Arc::new(Session::new());
    session.register(data).expect("register table");

    // Port 0 = pick an ephemeral port; real deployments pass a fixed address
    // (see the `ph-serve` binary for the standalone process).
    let qlog = std::env::temp_dir().join("ph_serve_example.phqlog");
    let server = Server::bind(
        session,
        "127.0.0.1:0",
        ServerConfig { query_log: Some(qlog.clone()), ..Default::default() },
    )
    .expect("bind ephemeral port");
    println!("serving on http://{}\n", server.local_addr());

    let mut client = Client::new(server.local_addr().to_string());
    let health = client.healthz().expect("healthz");
    println!("healthz: {health}");

    let queries = [
        "SELECT COUNT(global_active_power) FROM Power WHERE voltage < 238;",
        "SELECT AVG(global_active_power) FROM Power WHERE voltage < 238 AND global_intensity > 5;",
        "SELECT SUM(sub_metering_3) FROM Power WHERE global_active_power > 1.5;",
    ];
    for sql in queries {
        let t0 = std::time::Instant::now();
        let estimate = client.query_scalar(sql).expect("served query");
        let micros = t0.elapsed().as_secs_f64() * 1e6;
        let query = parse_query(sql).expect("valid query");
        let truth =
            exact.answer(&query).expect("exact answer").scalar().expect("scalar query").value;
        println!(
            "{sql}\n  -> {:.1} in [{:.1}, {:.1}]  (exact {truth:.1}, {micros:.0} µs round trip)",
            estimate.value, estimate.lo, estimate.hi,
        );
        assert!(
            estimate.lo <= truth && truth <= estimate.hi,
            "bounds must contain the exact answer for {sql}"
        );
    }

    // The workload survives the process: every /query above is in the
    // compressed log, replayable offline (see the `logreplay` bench bin).
    server.shutdown();
    let records = pairwisehist::server::read_query_log(&qlog).expect("query log decodes");
    println!(
        "\nquery log: {} records, {} bytes at {}",
        records.len(),
        std::fs::metadata(&qlog).map(|m| m.len()).unwrap_or(0),
        qlog.display()
    );
    assert_eq!(records.len(), queries.len());
    std::fs::remove_file(&qlog).ok();
}
