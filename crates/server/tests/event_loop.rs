//! Event-loop serving tests: the behaviors the readiness-driven architecture
//! exists for, over real loopback sockets — pipelining with strict response
//! ordering and bit-identical answers, the connection-cap `503` door, a
//! slowloris client closed at the read deadline without hurting neighbors,
//! a 1000-strong idle keep-alive population held while traffic flows, the
//! zero-worker inline-execution mode, an exhausted descriptor budget that
//! must park the accept path instead of spinning it, and the rule that
//! decides whether the loop or a worker runs a query.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ph_core::{AqpAnswer, Session};
use ph_server::http::HttpConn;
use ph_server::{answer_from_json, Client, Json, Server, ServerConfig};
use ph_types::{Column, Dataset};

fn demo_dataset(name: &str, n: usize) -> Dataset {
    let x: Vec<Option<i64>> = (0..n).map(|i| Some((i as i64 * 7) % 1000)).collect();
    let y: Vec<Option<f64>> = (0..n)
        .map(|i| if i % 29 == 0 { None } else { Some(((i as i64 * 13) % 500) as f64 / 10.0) })
        .collect();
    Dataset::builder(name)
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_floats("y", y, 1))
        .unwrap()
        .build()
}

fn serve(cfg: ServerConfig, rows: usize) -> (Arc<Session>, Server) {
    let session = Arc::new(Session::new());
    session.register(demo_dataset("demo", rows)).unwrap();
    let server = Server::bind(session.clone(), "127.0.0.1:0", cfg).expect("bind ephemeral port");
    (session, server)
}

/// Pipelined queries are answered strictly in request order, each answer
/// bit-identical to the in-process session — out-of-order executor completion
/// (several workers race on the batch) must never reorder the wire.
#[test]
fn pipelined_responses_are_in_order_and_bit_identical() {
    let cfg = ServerConfig { workers: 4, ..Default::default() };
    let (session, server) = serve(cfg, 9_000);
    let sqls = [
        "SELECT COUNT(y) FROM demo WHERE x > 500;",
        "SELECT AVG(y) FROM demo WHERE x > 100 AND x < 900;",
        "SELECT SUM(y) FROM demo WHERE x <= 250;",
        "SELECT VAR(y) FROM demo WHERE x > 10;",
        "SELECT MAX(y) FROM demo WHERE x > 700;",
        "SELECT COUNT(y) FROM demo WHERE x > 900;",
    ];
    let mut client = Client::new(server.local_addr().to_string());
    for _ in 0..5 {
        let answers = client.query_pipelined(&sqls).expect("pipelined batch");
        assert_eq!(answers.len(), sqls.len());
        for (sql, answer) in sqls.iter().zip(answers) {
            let direct = session.sql(sql).expect(sql);
            assert_eq!(answer.expect(sql), direct, "in-order, bit-identical for {sql}");
        }
    }
    // A mid-batch error keeps its slot: the batch stays ordered around it.
    let mixed = vec![sqls[0], "SELEC broken", sqls[1]];
    let answers = client.query_pipelined(&mixed).expect("mixed batch");
    assert!(answers[0].is_ok());
    assert!(answers[1].is_err(), "the parse error answers in position 1");
    assert!(answers[2].is_ok());
    let stats = server.stats();
    assert!(
        stats.pipelined_requests > 0,
        "pipelined batches must register in the counter: {stats:?}"
    );
    server.shutdown();
}

/// Over the connection cap the server answers `503` at the door and closes —
/// it does not silently queue, hang, or accept-and-starve.
#[test]
fn connections_over_the_cap_get_503_at_the_door() {
    let cfg = ServerConfig { max_connections: 4, workers: 1, ..Default::default() };
    let (_session, server) = serve(cfg, 1_000);
    let addr = server.local_addr();
    // Fill the cap with idle keep-alive sockets, confirming each is accepted
    // (a healthz round-trip proves the server registered it).
    let mut held = Vec::new();
    for _ in 0..4 {
        let mut c = Client::new(addr.to_string());
        c.healthz().expect("under the cap, the connection serves");
        held.push(c);
    }
    // The next connection is shed with an explicit 503 body, then closed.
    let mut rejected = TcpStream::connect(addr).unwrap();
    rejected.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reply = String::new();
    rejected.read_to_string(&mut reply).expect("503 then EOF");
    assert!(reply.starts_with("HTTP/1.1 503"), "door reply: {reply:?}");
    assert!(reply.contains("overload"), "door reply body: {reply:?}");
    assert!(server.rejected() >= 1);
    // Freeing a slot restores admission.
    drop(held.pop());
    std::thread::sleep(Duration::from_millis(100));
    let mut fresh = Client::new(addr.to_string());
    fresh.healthz().expect("slot freed, admission restored");
    server.shutdown();
}

/// A slowloris client — trickling a request head byte-by-byte forever — is
/// closed at the read deadline (which partial progress must NOT extend), and
/// neighbors' queries keep answering promptly the whole time.
#[test]
fn slowloris_is_closed_at_deadline_without_degrading_neighbors() {
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(400),
        idle_timeout: Duration::from_secs(60),
        workers: 2,
        max_connections: 64,
        ..Default::default()
    };
    let (_session, server) = serve(cfg, 4_000);
    let addr = server.local_addr();

    let attacker = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).ok();
        let head = b"POST /query HTTP/1.1\r\nContent-Length: 400\r\n";
        let t0 = Instant::now();
        // One byte every 25 ms: steady progress, never a complete request.
        for b in head.iter().cycle() {
            if s.write_all(std::slice::from_ref(b)).is_err() {
                break; // server closed us — the defense worked
            }
            std::thread::sleep(Duration::from_millis(25));
            if t0.elapsed() > Duration::from_secs(5) {
                return None; // never closed: the defense failed
            }
        }
        Some(t0.elapsed())
    });

    // A neighbor issues queries the whole time the attack runs.
    let mut neighbor = Client::new(addr.to_string());
    let mut latencies = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(900) {
        let t = Instant::now();
        neighbor
            .query("SELECT COUNT(y) FROM demo WHERE x > 500;")
            .expect("neighbor stays served during the attack");
        latencies.push(t.elapsed());
    }
    let closed_after = attacker
        .join()
        .expect("attacker thread")
        .expect("slowloris connection must be closed, not held forever");
    // Closed at the deadline: after read_timeout, well before the trickle
    // could ever finish (cycle() never completes a request).
    assert!(
        closed_after >= Duration::from_millis(300),
        "closed suspiciously early ({closed_after:?}) — before the deadline could expire"
    );
    assert!(
        closed_after < Duration::from_secs(4),
        "took too long to shed the slowloris connection: {closed_after:?}"
    );
    // Neighbor p50 stays interactive — the trickling socket costs the loop a
    // few wakeups, not a blocked worker.
    latencies.sort();
    let p50 = latencies[latencies.len() / 2];
    assert!(p50 < Duration::from_millis(100), "neighbor p50 degraded to {p50:?} during slowloris");
    server.shutdown();
}

/// The tentpole capacity claim at test scale: 1000 idle keep-alive sockets
/// held open while query traffic flows, all visible in the stats, and a
/// graceful shutdown that drains the lot cleanly.
#[test]
fn holds_1000_idle_keepalive_connections_while_serving() {
    let cfg = ServerConfig {
        max_connections: 1_200,
        workers: 2,
        idle_timeout: Duration::from_secs(120),
        ..Default::default()
    };
    let (session, server) = serve(cfg, 6_000);
    let addr = server.local_addr();

    let held: Vec<TcpStream> = (0..1_000)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("conn {i}: {e}")))
        .collect();
    // The accept loop is readiness-driven; give it a beat to drain the backlog.
    let t0 = Instant::now();
    while server.stats().open_connections < 1_000 {
        assert!(t0.elapsed() < Duration::from_secs(10), "accepting 1000 conns stalled");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Traffic still flows at interactive latency with the population held.
    let mut client = Client::new(addr.to_string());
    let sql = "SELECT COUNT(y) FROM demo WHERE x > 500;";
    let direct = session.sql(sql).unwrap();
    for _ in 0..50 {
        assert_eq!(client.query(sql).expect("query across held population"), direct);
    }
    let stats = server.stats();
    assert!(stats.open_connections >= 1_001, "1000 held + the client: {stats:?}");
    assert!(stats.accepted_connections >= 1_001);
    assert_eq!(stats.rejected_503, 0, "nothing shed below the cap");

    // /stats agrees over the wire.
    let doc = client.stats().unwrap();
    let open = doc
        .get("server")
        .and_then(|s| s.get("connections"))
        .and_then(|c| c.get("open"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(open >= 1_001.0);

    // Graceful shutdown drains 1000+ open sockets and joins every thread.
    let t0 = Instant::now();
    server.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(10), "shutdown with a held population stalled");
    // The held sockets observe EOF: the server really closed them.
    let mut seen_eof = 0;
    for mut s in held.into_iter().take(32) {
        s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        let mut byte = [0u8; 1];
        if matches!(s.read(&mut byte), Ok(0)) {
            seen_eof += 1;
        }
    }
    assert!(seen_eof >= 30, "held sockets should see EOF after shutdown, got {seen_eof}/32");
}

/// `workers: 0` is the inline-execution mode: the event loop runs queries
/// itself with a per-drain shared snapshot. Same answers, same contracts.
#[test]
fn inline_mode_serves_without_executor_threads() {
    let cfg =
        ServerConfig { workers: 0, queue_depth: 16, max_connections: 32, ..Default::default() };
    let (session, server) = serve(cfg, 6_000);
    let mut client = Client::new(server.local_addr().to_string());
    for sql in [
        "SELECT COUNT(y) FROM demo WHERE x > 500;",
        "SELECT AVG(y) FROM demo WHERE x > 100 AND x < 900;",
    ] {
        assert_eq!(client.query(sql).expect(sql), session.sql(sql).expect(sql));
    }
    let answers = client
        .query_pipelined(&[
            "SELECT COUNT(y) FROM demo WHERE x > 500;",
            "SELECT SUM(y) FROM demo WHERE x <= 250;",
        ])
        .expect("pipelined in inline mode");
    assert!(answers.iter().all(Result::is_ok));
    assert!(client.healthz().is_ok());
    server.shutdown();
}

/// `requests` (method, target, content type, body) written to one fresh
/// socket with a single `write`, so the loop parses them all in one wake;
/// returns each response's status and JSON body, in request order.
fn pipeline_in_one_write(
    addr: SocketAddr,
    requests: &[(&str, &str, &str, &[u8])],
) -> Vec<(u16, Json)> {
    let mut wire = HttpConn::new(Cursor::new(Vec::new()));
    for (method, target, content_type, body) in requests {
        wire.write_request(method, target, content_type, body).unwrap();
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(wire.stream().get_ref()).unwrap();
    let mut conn = HttpConn::new(stream);
    requests
        .iter()
        .map(|_| {
            let (status, _, body) = conn.read_response(1 << 20).unwrap();
            (status, Json::parse(std::str::from_utf8(&body).unwrap()).unwrap())
        })
        .collect()
}

/// The answer in a `200` query response.
fn answer(response: &(u16, Json)) -> AqpAnswer {
    assert_eq!(response.0, 200, "{}", response.1);
    answer_from_json(&response.1).unwrap()
}

/// `rows` demo rows as an `/ingest` CSV body, every one with `x` = 700.
fn csv_rows(rows: usize) -> String {
    let mut csv = String::from("x,y\n");
    for i in 0..rows {
        csv.push_str(&format!("700,{}.5\n", i % 40));
    }
    csv
}

/// A lone query whose SQL text has a cached plan runs on the loop; the
/// first, a plan-cache miss, runs on a worker. The counter tells the two
/// apart, typed and on both wire surfaces.
#[test]
fn a_lone_cached_query_runs_on_the_loop_and_a_miss_on_a_worker() {
    let cfg = ServerConfig { workers: 4, ..Default::default() };
    let (session, server) = serve(cfg, 6_000);
    let mut client = Client::new(server.local_addr().to_string());
    let sql = "SELECT AVG(y) FROM demo WHERE x > 100 AND x < 900;";
    let first = client.query(sql).unwrap();
    assert_eq!(server.stats().queries_on_loop, 0, "a plan-cache miss is planned on a worker");
    for n in 1..=3 {
        assert_eq!(client.query(sql).unwrap(), first);
        assert_eq!(server.stats().queries_on_loop, n, "repeat {n} runs on the loop");
    }
    assert_eq!(first, session.sql(sql).unwrap());
    let stats = client.stats().unwrap();
    let on_loop = stats
        .get("server")
        .and_then(|s| s.get("connections"))
        .and_then(|c| c.get("queries_on_loop"))
        .and_then(Json::as_f64);
    assert_eq!(on_loop, Some(3.0), "{stats}");
    let metrics = client.metrics().unwrap();
    assert!(metrics.lines().any(|l| l == "ph_queries_on_loop_total 3"), "{metrics}");
    server.shutdown();
}

/// Eight cached queries pipelined in one write reach the loop in one wake:
/// a burst goes to the workers, whose batch shares one snapshot, so the
/// counter does not move and the answers stay in order and bit-identical.
#[test]
fn a_pipelined_burst_of_cached_queries_goes_to_the_workers() {
    let cfg = ServerConfig { workers: 4, ..Default::default() };
    let (session, server) = serve(cfg, 6_000);
    let sqls: Vec<String> =
        (0..8).map(|i| format!("SELECT SUM(y) FROM demo WHERE x > {};", i * 100)).collect();
    let direct: Vec<AqpAnswer> = sqls.iter().map(|sql| session.sql(sql).unwrap()).collect();
    let requests: Vec<(&str, &str, &str, &[u8])> =
        sqls.iter().map(|sql| ("POST", "/query", "text/plain", sql.as_bytes())).collect();
    let responses = pipeline_in_one_write(server.local_addr(), &requests);
    for (response, direct) in responses.iter().zip(&direct) {
        assert_eq!(&answer(response), direct);
    }
    let stats = server.stats();
    assert_eq!(stats.queries_on_loop, 0, "{stats:?}");
    assert!(stats.pipelined_requests >= 7, "{stats:?}");
    server.shutdown();
}

/// `COUNT`, `/ingest`, `COUNT` pipelined on one connection run in that
/// order against what each should see: the three share a wake, so they are
/// one queue entry that one worker runs in order, and the ingest renews the
/// batch's snapshot, which the first count had already pinned.
#[test]
fn a_pipelined_ingest_then_count_counts_the_ingested_rows() {
    let cfg = ServerConfig { workers: 4, ..Default::default() };
    let (session, server) = serve(cfg, 6_000);
    let sql = "SELECT COUNT(y) FROM demo WHERE x > 500;";
    let before = session.sql(sql).unwrap();
    let csv = csv_rows(200);
    let responses = pipeline_in_one_write(
        server.local_addr(),
        &[
            ("POST", "/query", "text/plain", sql.as_bytes()),
            ("POST", "/ingest?table=demo", "text/csv", csv.as_bytes()),
            ("POST", "/query", "text/plain", sql.as_bytes()),
        ],
    );
    assert_eq!(responses[1].0, 200, "{}", responses[1].1);
    assert_eq!(responses[1].1.get("rows").and_then(Json::as_f64), Some(200.0));
    let after = session.sql(sql).unwrap();
    assert_ne!(after, before, "200 rows with x = 700 move the count");
    assert_eq!(answer(&responses[0]), before, "the first count ran before the ingest");
    assert_eq!(answer(&responses[2]), after, "the second count ran after the ingest");
    assert_eq!(server.stats().queries_on_loop, 0);
    server.shutdown();
}

/// Jobs the executor workers have popped so far.
fn worker_jobs(client: &mut Client) -> f64 {
    let metrics = client.metrics().unwrap();
    metrics
        .lines()
        .find_map(|l| l.strip_prefix("ph_exec_batch_size_sum ")?.parse().ok())
        .unwrap_or_else(|| panic!("no ph_exec_batch_size_sum in {metrics}"))
}

/// A cached query parsed while an earlier request of its connection is still
/// unanswered stays off the loop, even alone in its wake: the earlier request
/// here is an `/ingest` a worker is still applying, and the loop must not
/// answer from before it.
#[test]
fn a_cached_query_behind_an_unanswered_ingest_stays_off_the_loop() {
    let cfg = ServerConfig { workers: 4, ..Default::default() };
    let (session, server) = serve(cfg, 6_000);
    let addr = server.local_addr();
    let sql = "SELECT COUNT(y) FROM demo WHERE x > 500;";
    session.sql(sql).unwrap();
    let mut observer = Client::new(addr.to_string());
    let popped = worker_jobs(&mut observer);
    // Applying 40 000 rows takes ≈ 20 ms in a release build, two hundred
    // times the metrics round trip and the write that follow the pop; still
    // under the default seal threshold, so no seal lengthens the test.
    let csv = csv_rows(40_000);
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut conn = HttpConn::new(stream);
    conn.write_request("POST", "/ingest?table=demo", "text/csv", csv.as_bytes()).unwrap();
    let t0 = Instant::now();
    while worker_jobs(&mut observer) == popped {
        assert!(t0.elapsed() < Duration::from_secs(30), "no worker took the ingest");
        std::thread::sleep(Duration::from_millis(1));
    }
    conn.write_request("POST", "/query", "text/plain", sql.as_bytes()).unwrap();
    let (ingest_status, _, _) = conn.read_response(1 << 20).unwrap();
    let (query_status, _, _) = conn.read_response(1 << 20).unwrap();
    assert_eq!((ingest_status, query_status), (200, 200));
    assert_eq!(server.stats().queries_on_loop, 0, "the query went to a worker");
    server.shutdown();
}

/// CPU seconds (user + system) `pid` has consumed, from `/proc/<pid>/stat`
/// fields 14 and 15 in `USER_HZ` = 100 ticks.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    // The comm field may contain spaces; everything after its ')' is regular.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 / 100.0
}

/// Kills and reaps the child on every exit path, a failed `expect` included.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// With fewer descriptors than pending connections `accept` fails `EMFILE`
/// while the backlog keeps the level-triggered listener readable. The loop
/// must park the listener rather than spin on it, keep serving the sockets it
/// already holds, and accept again once descriptors free up.
#[test]
fn exhausted_fd_budget_parks_accept_instead_of_spinning() {
    let mut serve = KillOnDrop(
        Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -n 40; exec {} --addr 127.0.0.1:0 --demo 2000",
                env!("CARGO_BIN_EXE_ph-serve")
            ))
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ph-serve"),
    );
    let mut banner = String::new();
    BufReader::new(serve.0.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    let addr = banner.trim().strip_prefix("ph-serve listening on ").expect("banner").to_string();
    let sql = "SELECT COUNT(global_active_power) FROM Power WHERE voltage > 238;";

    // Admitted before the flood, so it holds one of the scarce descriptors.
    let mut admitted = Client::new(addr.clone());
    admitted.query(sql).expect("query before the flood");
    // 80 connects against a 40-descriptor process: ~30 are accepted, the rest
    // sit in the listen backlog with nothing left to accept them into.
    let flood: Vec<TcpStream> = (0..80).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(300));

    let before = cpu_seconds(serve.0.id());
    std::thread::sleep(Duration::from_secs(1));
    let burned = cpu_seconds(serve.0.id()) - before;
    assert!(burned < 0.2, "idle server burned {burned:.2} CPU-seconds in 1 s: accept is spinning");
    admitted.query(sql).expect("an admitted connection keeps being served through the exhaustion");

    // Free the descriptors; a fresh connection must then be accepted.
    drop(flood);
    let mut fresh = Client::new(addr);
    let t0 = Instant::now();
    while fresh.healthz().is_err() {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "no connection accepted 5 s after the flood"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
