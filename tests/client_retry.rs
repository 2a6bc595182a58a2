//! Regression tests for the client's retry policy against a flapping
//! listener: a server that is still coming up, a port where nothing ever
//! answers, and a kept-alive connection the server closed under the client.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pairwisehist::prelude::*;
use pairwisehist::server::RetryPolicy;

fn tiny_dataset() -> Dataset {
    let x: Vec<Option<i64>> = (0..500).map(|i| Some(i % 100)).collect();
    let y: Vec<Option<i64>> = (0..500).map(|i| Some(3 * (i % 100) + 7)).collect();
    Dataset::builder("t")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .build()
}

/// Reserves a free localhost port, then releases it so the test controls
/// when (and whether) a listener appears there.
fn reserved_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    addr
}

#[test]
fn connect_retries_until_the_listener_appears() {
    let addr = reserved_addr();
    let session = Arc::new(Session::new());
    session.register(tiny_dataset()).unwrap();

    // The listener flaps up ~200ms after the client starts dialing: the
    // first connect attempts are refused, a later one inside the retry
    // budget must land.
    let server_thread = {
        let session = session.clone();
        let addr = addr.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            Server::bind(session, &addr, ServerConfig { workers: 2, ..Default::default() }).unwrap()
        })
    };

    let mut client = Client::new(addr).with_retry(RetryPolicy {
        attempts: 10,
        base_delay: Duration::from_millis(25),
        max_delay: Duration::from_millis(250),
    });
    let answer = client
        .query("SELECT COUNT(x) FROM t;")
        .expect("client must ride out the late-binding listener");
    assert_eq!(answer, session.sql("SELECT COUNT(x) FROM t;").unwrap());

    server_thread.join().unwrap().shutdown();
}

#[test]
fn connect_exhausts_its_attempt_budget_against_a_dead_port() {
    let addr = reserved_addr();
    let mut client = Client::new(addr).with_retry(RetryPolicy {
        attempts: 3,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(20),
    });
    let started = Instant::now();
    let err = client.query("SELECT COUNT(x) FROM t;").expect_err("nothing listens there");
    let waited = started.elapsed();
    match err {
        ClientError::Transport(m) => {
            assert!(m.contains("attempt 3/3"), "error must report the exhausted budget: {m}");
        }
        other => panic!("expected a transport error, got {other}"),
    }
    // Budget of 3 with these delays: the client must give up promptly, not
    // spin on a default multi-second schedule.
    assert!(waited < Duration::from_secs(5), "gave up too slowly: {waited:?}");
}

#[test]
fn stale_keepalive_connection_is_replayed_on_a_fresh_socket() {
    let session = Arc::new(Session::new());
    session.register(tiny_dataset()).unwrap();
    // An aggressive idle timeout makes the server hang up on the client's
    // kept-alive socket between requests — the flap the exchange-level retry
    // exists to absorb.
    let server = Server::bind(
        session.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_millis(500),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::new(addr);
    let sql = "SELECT SUM(y) FROM t WHERE x > 10;";
    let first = client.query(sql).unwrap();
    // Let the server's idle timeout close the connection under us.
    std::thread::sleep(Duration::from_millis(300));
    let second = client.query(sql).expect("idempotent request must retry on a fresh socket");
    assert_eq!(first, second, "retried answer must be bit-identical");
    server.shutdown();
}
